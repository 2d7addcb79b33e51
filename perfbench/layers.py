"""The layer map: what the traced run wraps and what it reports.

Layers are named after the program's modules.  :func:`install_layers`
registers, on a :class:`~tracer.Tracer`, the public callables through
which the workloads enter each layer; :func:`layer_metrics` turns the
recorded spans into the per-layer metrics listed in
:data:`PER_LAYER` (the ``per_layer`` section of ``BENCHMARK.json``).
A per-layer metric that reads zero on a workload is a layer that
workload does not enter.

Which end-to-end metric each per-layer metric should move, and where:

=================================================  ==============  ==========================
per-layer metric                                   moves           on workload
=================================================  ==============  ==========================
graph.build_s, graph.csr_s                         setup_s         fig4-sweep, fs-wide-*
native.<kernel>.ns_per_step                        steps_per_s     fs-wide-fused
native.us_per_call, native.calls_per_session       sessions_per_s  table4-mc
                                                   steps_per_s     fig4-sweep (csr backend)
vectorized.calls, vectorized.self_s                sessions_per_s  table4-mc
session.starts/start_s/advance_calls/              sessions_per_s  table4-mc
advance_self_s                                     steps_per_s     fig4-sweep
session.take_trace_calls, session.trace_bytes      peak_rss_mb,    fs-wide-suite
                                                   steps_per_s     (zero on fs-wide-fused)
session.advance_into_calls, session.fused_share    steps_per_s     fs-wide-fused (1),
                                                                   fs-wide-suite (0)
fused.blocks, fused.block_bytes                    peak_rss_mb     fs-wide-fused
estimators.update_*/absorb_*/estimate_s/           steps_per_s     fig4-sweep, fs-wide-suite
degree_of_calls                                                    (flat on fs-wide-fused)
sharded.pool_start_s/wait_s/worker_busy_s/         steps_per_s     fs-wide-suite
utilization
engine.self_s, engine.snapshot_s                   sessions_per_s  table4-mc
suite.score_s, suite.write_s, suite.write_bytes    steps_per_s     fs-wide-suite
trace.overhead_s                                   (cost of the traced run itself)
=================================================  ==============  ==========================
"""

from __future__ import annotations

import pathlib
import sys
from typing import Any, Dict, Iterable, List, Tuple

from tracer import POOL_TASK, Span, Tracer, children_of, outermost, self_time

KERNELS = (
    "rw_steps",
    "fs_steps",
    "mh_steps",
    "rw_steps_acc",
    "fs_steps_acc",
    "mh_steps_acc",
)

#: Public walk and draw functions of ``repro.sampling.vectorized`` the
#: sessions call.
VECTORIZED = (
    "uniform_seeds_np",
    "stationary_seeds_np",
    "make_seeds_np",
    "degrees_array",
    "run_random_walk",
    "run_frontier",
    "run_metropolis",
    "run_random_walk_acc",
    "run_frontier_acc",
    "run_metropolis_acc",
)

ESTIMATES = ("estimate", "ccdf", "num_vertices", "num_edges")


def _native_metrics() -> List[Tuple[str, str, str]]:
    rows = []
    for kernel in KERNELS:
        rows += [
            (f"native.{kernel}.calls", "count", "lower"),
            (f"native.{kernel}.s", "s", "lower"),
            (f"native.{kernel}.ns_per_step", "ns", "lower"),
        ]
    return rows


#: Every per-layer metric, in print order: ``(name, unit, better)``.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("graph.build_s", "s", "lower"),
        ("graph.csr_s", "s", "lower"),
    ]
    + _native_metrics()
    + [
        ("native.us_per_call", "us", "lower"),
        ("native.calls_per_session", "count", "lower"),
        ("vectorized.calls", "count", "lower"),
        ("vectorized.self_s", "s", "lower"),
        ("session.starts", "count", "lower"),
        ("session.start_s", "s", "lower"),
        ("session.advance_calls", "count", "lower"),
        ("session.advance_self_s", "s", "lower"),
        ("session.take_trace_calls", "count", "lower"),
        ("session.trace_bytes", "bytes", "lower"),
        ("session.advance_into_calls", "count", "lower"),
        ("session.fused_share", "ratio", "higher"),
        ("fused.blocks", "count", "lower"),
        ("fused.block_bytes", "bytes", "lower"),
        ("estimators.update_calls", "count", "lower"),
        ("estimators.update_s", "s", "lower"),
        ("estimators.absorb_calls", "count", "lower"),
        ("estimators.absorb_s", "s", "lower"),
        ("estimators.estimate_s", "s", "lower"),
        ("estimators.degree_of_calls", "count", "lower"),
        ("sharded.pool_start_s", "s", "lower"),
        ("sharded.wait_s", "s", "lower"),
        ("sharded.worker_busy_s", "s", "lower"),
        ("sharded.utilization", "ratio", "higher"),
        ("engine.self_s", "s", "lower"),
        ("engine.snapshot_s", "s", "lower"),
        ("suite.score_s", "s", "lower"),
        ("suite.write_s", "s", "lower"),
        ("suite.write_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _trace_nbytes(args: Any, kwargs: Any, trace: Any) -> float:
    """Bytes of the step arrays a drained trace increment carries."""
    total = 0
    for attr in ("step_sources", "step_targets", "step_walkers", "visited_array"):
        array = getattr(trace, attr, None)
        total += int(getattr(array, "nbytes", 0) or 0)
    return float(total)


def _block_nbytes(args: Any, kwargs: Any, result: Any) -> float:
    block = args[0]
    return float(
        sum(
            int(array.nbytes)
            for array in (block.deg_counts, block.visit_counts)
            if array is not None
        )
    )


def _steps_arg(args: Any, kwargs: Any, result: Any) -> float:
    return float(kwargs["steps"] if "steps" in kwargs else args[3])


def _text_bytes(args: Any, kwargs: Any, result: Any) -> float:
    data = kwargs.get("data", args[1] if len(args) > 1 else "")
    return float(len(data.encode("utf-8")))


def _pool_procs(args: Any, kwargs: Any, result: Any) -> float:
    return float(args[0].procs)


def _wrap_bindings(tracer: Tracer, function: Any, attr: str, name: str) -> None:
    """Wrap ``function`` in every loaded module that binds it as
    ``attr``: modules that imported it by name hold their own reference."""
    for module in list(sys.modules.values()):
        if module is not None and vars(module).get(attr) is function:
            tracer.wrap(module, attr, name)


def install_layers(tracer: Tracer) -> None:
    """Register every layer boundary the workloads cross."""
    from repro.estimators.streaming import StreamingEstimator
    from repro.experiments import engine, suite
    from repro.sampling import _native, sharded, vectorized
    from repro.sampling.base import Sampler
    from repro.sampling.fused import FusedBlock
    from repro.sampling.session import SamplerSession

    for kernel in KERNELS:
        tracer.wrap(_native, kernel, f"native.{kernel}", value=_steps_arg)
    for function in VECTORIZED:
        tracer.wrap(vectorized, function, f"vectorized.{function}")

    tracer.wrap_method(Sampler, "start", "session.start")
    for method in ("advance", "advance_budget"):
        tracer.wrap_method(SamplerSession, method, "session.advance")
    tracer.wrap_method(SamplerSession, "advance_into", "session.advance_into")
    tracer.wrap_method(
        SamplerSession, "take_trace", "session.take_trace", value=_trace_nbytes
    )

    tracer.wrap(FusedBlock, "__init__", "fused.block", value=_block_nbytes)

    tracer.wrap_method(StreamingEstimator, "update", "estimators.update")
    tracer.wrap_method(StreamingEstimator, "absorb_block", "estimators.absorb")
    for method in ESTIMATES:
        tracer.wrap_method(StreamingEstimator, method, "estimators.estimate")

    tracer.wrap(
        sharded.ShardedSessionPool, "__init__", "sharded.pool_start",
        value=_pool_procs,
    )
    tracer.wrap(
        sharded.ShardedSessionPool, "run_anytime", "sharded.run_anytime",
        result=lambda rows: rows if isinstance(rows, list)
        else tracer.iterate("sharded.wait", rows),
    )

    _wrap_bindings(tracer, engine.run_plan, "run_plan", "engine.run_plan")
    tracer.wrap(
        engine.ExperimentPlan, "snapshot_hook", None,
        result=lambda hook: _traced_hook(tracer, hook),
    )

    _wrap_bindings(tracer, suite.run_scenario, "run_scenario", "suite.run_scenario")
    tracer.wrap(pathlib.Path, "write_text", "suite.write", value=_text_bytes)


def _traced_hook(tracer: Tracer, hook: Any) -> Any:
    def snapshot(*args: Any) -> Any:
        return tracer.call("engine.snapshot", hook, args)

    return snapshot


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _total(spans: Iterable[Span]) -> float:
    return sum(span.duration for span in spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    overhead_s: float,
    build_s: float,
    csr_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from one traced phase, keyed as in
    :data:`PER_LAYER`."""
    spans = tracer.spans
    children = children_of(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def top(name: str) -> List[Span]:
        return outermost(spans, (name,))

    metrics: Dict[str, float] = {"graph.build_s": build_s, "graph.csr_s": csr_s}

    native_calls = 0
    native_s = 0.0
    for kernel in KERNELS:
        calls = named(f"native.{kernel}")
        seconds = _total(calls)
        steps = sum(span.value or 0.0 for span in calls)
        metrics[f"native.{kernel}.calls"] = float(len(calls))
        metrics[f"native.{kernel}.s"] = seconds
        metrics[f"native.{kernel}.ns_per_step"] = _ratio(seconds * 1e9, steps)
        native_calls += len(calls)
        native_s += seconds
    starts = top("session.start")
    metrics["native.us_per_call"] = _ratio(native_s * 1e6, native_calls)
    metrics["native.calls_per_session"] = _ratio(native_calls, len(starts))

    vectorized = [span for span in spans if span.name.startswith("vectorized.")]
    metrics["vectorized.calls"] = float(len(vectorized))
    metrics["vectorized.self_s"] = sum(self_time(span, children) for span in vectorized)

    advances = named("session.advance")
    drains = named("session.take_trace")
    # A checkpoint is an outermost advance_into, or a drain outside
    # one; it is fused when its advance_into built a FusedBlock.
    advance_into = top("session.advance_into")
    into_ids = {span.id for span in named("session.advance_into")}
    loose_drains = [span for span in drains if span.parent not in into_ids]
    fused_parents = {span.parent for span in named("fused.block")}
    fused = [
        span for span in named("session.advance_into") if span.id in fused_parents
    ]
    metrics["session.starts"] = float(len(starts))
    metrics["session.start_s"] = _total(starts)
    metrics["session.advance_calls"] = float(len(advances))
    metrics["session.advance_self_s"] = sum(self_time(span, children) for span in advances)
    metrics["session.take_trace_calls"] = float(len(drains))
    metrics["session.trace_bytes"] = sum(span.value or 0.0 for span in drains)
    metrics["session.advance_into_calls"] = float(len(advance_into))
    metrics["session.fused_share"] = _ratio(
        len(fused), len(advance_into) + len(loose_drains)
    )

    blocks = named("fused.block")
    metrics["fused.blocks"] = float(len(blocks))
    metrics["fused.block_bytes"] = sum(span.value or 0.0 for span in blocks)

    updates = top("estimators.update")
    absorbs = top("estimators.absorb")
    metrics["estimators.update_calls"] = float(len(updates))
    metrics["estimators.update_s"] = _total(updates)
    metrics["estimators.absorb_calls"] = float(len(absorbs))
    metrics["estimators.absorb_s"] = _total(absorbs)
    metrics["estimators.estimate_s"] = _total(top("estimators.estimate"))
    metrics["estimators.degree_of_calls"] = float(
        tracer.counters.get("estimators.degree_of", 0)
    )

    pools = named("sharded.pool_start")
    tasks = named(POOL_TASK)
    busy = _total(tasks)
    procs = max((span.value or 0.0 for span in pools), default=0.0)
    window = 0.0
    for call in named("sharded.run_anytime"):
        ends = [task.end for task in children.get(call.id, ()) if task.name == POOL_TASK]
        if ends:
            window += max(ends) - call.start
    metrics["sharded.pool_start_s"] = _total(pools)
    metrics["sharded.wait_s"] = _total(named("sharded.wait"))
    metrics["sharded.worker_busy_s"] = busy
    metrics["sharded.utilization"] = _ratio(busy, procs * window)

    metrics["engine.self_s"] = sum(
        self_time(span, children) for span in top("engine.run_plan")
    )
    metrics["engine.snapshot_s"] = _total(named("engine.snapshot"))

    metrics["suite.score_s"] = sum(
        self_time(span, children) for span in named("suite.run_scenario")
    )
    writes = named("suite.write")
    metrics["suite.write_s"] = _total(writes)
    metrics["suite.write_bytes"] = sum(span.value or 0.0 for span in writes)
    metrics["trace.overhead_s"] = overhead_s
    return {name: float(value) for name, value in metrics.items()}
