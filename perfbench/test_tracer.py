"""Tests for the benchmark's span tracer and layer metrics.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
import run
from tracer import (
    POOL_TASK,
    Tracer,
    children_of,
    outermost,
    self_time,
    tracing_overhead,
    union_length,
)


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 6), (0, 1), (0.5, 1.5)]) == 2.5


def test_self_time_subtracts_union_of_nested_and_overlapping_children():
    tracer = Tracer()
    parent = tracer.record("parent", 0.0, 10.0)
    first = tracer.record("child", 1.0, 3.0, parent=parent.id)
    tracer.record("child", 2.0, 5.0, parent=parent.id, thread=1)  # overlaps first
    tracer.record("child", 7.0, 8.0, parent=parent.id)
    tracer.record("grandchild", 1.5, 2.0, parent=first.id)
    children = children_of(tracer.spans)
    # Children cover [1, 5] and [7, 8]; the grandchild is first's, not parent's.
    assert self_time(parent, children) == pytest.approx(5.0)
    assert self_time(first, children) == pytest.approx(1.5)


def test_self_time_clips_children_that_outlive_the_parent():
    tracer = Tracer()
    parent = tracer.record("submit", 0.0, 2.0)
    tracer.record(POOL_TASK, 1.0, 9.0, parent=parent.id, thread=7)
    tracer.record(POOL_TASK, 5.0, 9.0, parent=parent.id, thread=8)
    assert self_time(parent, children_of(tracer.spans)) == pytest.approx(1.0)


def test_wrapped_calls_nest_by_call_stack():
    clock = FakeClock()
    tracer = Tracer(clock)
    module = types.SimpleNamespace()

    def inner():
        clock.tick(2.0)
        return "inner"

    def outer():
        clock.tick(1.0)
        result = module.inner()
        clock.tick(1.0)
        return result

    module.inner, module.outer = inner, outer
    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    with tracer:
        assert module.outer() == "inner"
    assert module.inner is inner and module.outer is outer
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].id
    assert by_name["layer.outer"].parent is None
    assert by_name["layer.outer"].duration == 4.0
    assert self_time(by_name["layer.outer"], children_of(tracer.spans)) == 2.0


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer.wrap(module, "fail", "layer.fail")
    with tracer, pytest.raises(ZeroDivisionError):
        module.fail()
    assert [span.name for span in tracer.spans] == ["layer.fail"]
    assert tracer.current() is None


def test_pool_tasks_parent_to_the_submitting_call():
    original_submit = ThreadPoolExecutor.submit
    tracer = Tracer()
    module = types.SimpleNamespace()
    barrier = threading.Barrier(2, timeout=10)

    def work(x):
        barrier.wait()  # both workers run at once: spans overlap
        return x * 2

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            mapped = list(pool.map(module.work, [1, 2]))
            submitted = pool.submit(module.work_alone, 3).result(timeout=10)
        return mapped, submitted

    module.work = work
    module.work_alone = lambda x: x + 1
    module.fan_out = fan_out
    tracer.wrap(module, "work", "layer.work")
    tracer.wrap(module, "work_alone", "layer.work_alone")
    tracer.wrap(module, "fan_out", "layer.fan_out")
    with tracer:
        assert module.fan_out() == ([2, 4], 4)
    assert ThreadPoolExecutor.submit is original_submit

    by_id = {span.id: span for span in tracer.spans}
    root = next(span for span in tracer.spans if span.name == "layer.fan_out")
    tasks = [span for span in tracer.spans if span.name == POOL_TASK]
    assert len(tasks) == 3
    assert all(task.parent == root.id for task in tasks)
    assert all(task.thread != root.thread for task in tasks)
    for span in tracer.spans:
        if span.name in ("layer.work", "layer.work_alone"):
            task = by_id[span.parent]
            assert task.name == POOL_TASK and task.thread == span.thread
    # The two mapped tasks overlapped; the parent's self time counts
    # their union once.
    first, second = (t for t in tasks if any(
        s.parent == t.id and s.name == "layer.work" for s in tracer.spans))
    assert first.start < second.end and second.start < first.end
    children = children_of(tracer.spans)
    covered = union_length(
        (max(t.start, root.start), min(t.end, root.end)) for t in tasks
    )
    assert self_time(root, children) == pytest.approx(root.duration - covered)


def test_wrap_method_covers_overrides_and_uninstall_restores():
    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    class Override(Base):
        def method(self):
            return "override"

    originals = vars(Base)["method"], vars(Override)["method"]
    tracer = Tracer()
    tracer.wrap_method(Base, "method", "layer.method")
    with tracer:
        assert Child().method() == "base"
        assert Override().method() == "override"
        assert "method" not in vars(Child)
    assert (vars(Base)["method"], vars(Override)["method"]) == originals
    assert [span.name for span in tracer.spans] == ["layer.method", "layer.method"]


def test_outermost_counts_nested_calls_of_one_layer_once():
    tracer = Tracer()
    top = tracer.record("estimate", 0.0, 4.0)
    tracer.record("estimate", 1.0, 2.0, parent=top.id)
    other = tracer.record("snapshot", 5.0, 9.0)
    tracer.record("estimate", 6.0, 7.0, parent=other.id)
    found = outermost(tracer.spans, ["estimate"])
    assert [span.start for span in found] == [0.0, 6.0]


def test_tracing_overhead_is_traced_minus_untraced_over_the_same_units():
    assert tracing_overhead([1.0, 2.0], [1.5, 2.25]) == pytest.approx(0.75)
    assert tracing_overhead([2.0], [1.5]) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        tracing_overhead([1.0, 2.0], [1.0])


def test_layer_metrics_fused_share_and_utilization():
    tracer = Tracer()
    # Two fused checkpoints and one drain outside advance_into.
    for start in (0.0, 2.0):
        into = tracer.record("session.advance_into", start, start + 1.0)
        tracer.record("fused.block", start, start + 0.1, parent=into.id, value=64.0)
    tracer.record("session.take_trace", 4.0, 4.5, value=800.0)
    # A drained advance_into whose drain is nested: one checkpoint, not two.
    drained = tracer.record("session.advance_into", 5.0, 6.0)
    tracer.record("session.take_trace", 5.5, 6.0, parent=drained.id, value=16.0)
    # Pool of two workers busy 3 s in total over a 2 s window.
    tracer.record("sharded.pool_start", 10.0, 10.5, value=2.0)
    call = tracer.record("sharded.run_anytime", 11.0, 11.1)
    tracer.record(POOL_TASK, 11.0, 13.0, parent=call.id, thread=1)
    tracer.record(POOL_TASK, 11.0, 12.0, parent=call.id, thread=2)
    metrics = layers.layer_metrics(tracer, overhead_s=0.25, build_s=1.0, csr_s=0.5)
    assert metrics["session.fused_share"] == pytest.approx(2 / 4)
    assert metrics["session.advance_into_calls"] == 3
    assert metrics["session.take_trace_calls"] == 2
    assert metrics["session.trace_bytes"] == 816.0
    assert metrics["fused.blocks"] == 2 and metrics["fused.block_bytes"] == 128.0
    assert metrics["sharded.worker_busy_s"] == pytest.approx(3.0)
    assert metrics["sharded.utilization"] == pytest.approx(3.0 / (2 * 2.0))
    assert metrics["trace.overhead_s"] == 0.25
    assert metrics["graph.build_s"] == 1.0 and metrics["graph.csr_s"] == 0.5
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]


@pytest.fixture
def program(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SOURCE))
    from repro.estimators.streaming import StreamingAverageDegree
    from repro.experiments import engine
    from repro.generators.ba import barabasi_albert
    from repro.graph.csr import CSRGraph
    from repro.sampling import SingleRandomWalk, _native

    if not _native.available():
        pytest.skip("native kernels unavailable")
    graph = CSRGraph.from_graph(barabasi_albert(200, 3, rng=1))
    plan = engine.ExperimentPlan(
        title="layers",
        graph=graph,
        samplers={"srw": SingleRandomWalk()},
        budgets=[50.0, 100.0],
        accumulator=lambda method: StreamingAverageDegree(graph),
        snapshot=lambda method, accumulator, budget: accumulator.estimate(),
    )
    return engine, plan


@pytest.mark.parametrize("procs, fused", [(None, 1.0), (2, 0.0)])
def test_install_layers_traces_a_plan_and_restores_the_program(program, procs, fused):
    engine, plan = program
    executor = None if procs is None else "thread"
    original = engine.run_plan
    plain = engine.run_plan(plan, 4, procs=procs, executor=executor)
    tracer = Tracer()
    layers.install_layers(tracer)
    with tracer:
        traced = engine.run_plan(plan, 4, procs=procs, executor=executor)
    assert engine.run_plan is original
    assert traced.methods["srw"].rows == plain.methods["srw"].rows

    metrics = layers.layer_metrics(tracer, overhead_s=0.0, build_s=0.0, csr_s=0.0)
    assert metrics["session.starts"] == 4
    assert metrics["session.fused_share"] == fused
    assert metrics["engine.snapshot_s"] > 0 and metrics["engine.self_s"] > 0
    kernel = "native.rw_steps_acc" if fused else "native.rw_steps"
    assert metrics[f"{kernel}.calls"] == 8  # one call per checkpoint
    if procs:
        assert metrics["session.take_trace_calls"] == 8
        assert metrics["sharded.worker_busy_s"] > 0
        by_id = {span.id: span for span in tracer.spans}
        for task in (span for span in tracer.spans if span.name == POOL_TASK):
            assert by_id[task.parent].name == "sharded.run_anytime"
    else:
        assert metrics["session.trace_bytes"] == 0
        assert metrics["fused.blocks"] == 8
