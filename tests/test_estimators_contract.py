"""One implementation per estimator: batch == drained == fused, bit for bit.

The batch ``*_from_trace`` / ``estimate_*`` functions are one-increment
runs of their ``Streaming*`` accumulators.  So on a replicate's csr
trace every batch estimate must ``==`` (not approximately equal) the
:func:`~repro.experiments.engine.run_plan` row of the same replicate,
whichever way the steps reached the accumulator:

- the fused path, where the walk kernel folds each advance into a
  :class:`~repro.sampling.fused.FusedBlock`;
- the drain path, forced by a drain-only part in the bundle;
- the pooled path (``procs=1``), which always drains.

This holds for FS, SingleRW, MultipleRW and MHRW, on the native C
kernels and on the pure-Python ``REPRO_NO_NATIVE`` fallback.  On the
list backend (tuple loops, no fused path) the batch estimate must
equal the streaming accumulator the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import (
    StreamingDegreePMF,
    StreamingEdgeDensity,
    StreamingEdgeFunctional,
    StreamingGraphSize,
    StreamingVertexDensity,
    StreamingVertexFunctional,
    degree_ccdf_from_trace,
    degree_pmf_from_trace,
    edge_functional_from_trace,
    edge_label_densities_from_trace,
    edge_label_density_from_trace,
    estimate_num_edges,
    estimate_num_vertices,
    estimate_volume,
    vertex_functional_from_trace,
    vertex_label_densities_from_trace,
    vertex_label_density_from_trace,
    weighted_vertex_sums,
)
from repro.experiments.engine import ExperimentPlan, default_starter, run_plan
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    SingleRandomWalk,
    _native,
)
from repro.sampling.base import WalkTrace
from repro.sampling.fused import merge_needs
from repro.sampling.vectorized import ArrayWalkTrace

BUDGET = 1_500.0
REPLICATES = 3
SEED = 31
VERTEX_LABELS = ["even", "odd", "fifth"]
EDGE_LABELS = ["near", "far"]

SAMPLERS = {
    "FS": lambda backend: FrontierSampler(6, backend=backend),
    "SingleRW": lambda backend: SingleRandomWalk(backend=backend),
    "MultipleRW": lambda backend: MultipleRandomWalk(4, backend=backend),
    "MHRW": lambda backend: MetropolisHastingsWalk(backend=backend),
}


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(300, 2, rng=5)


@pytest.fixture(scope="module")
def vertex_labeling(graph):
    labeling = VertexLabeling()
    for v in graph.vertices():
        labeling.add(v, "even" if v % 2 == 0 else "odd")
        if v % 5 == 0:
            labeling.add(v, "fifth")
    return labeling


@pytest.fixture(scope="module")
def edge_labeling(graph):
    labeling = EdgeLabeling()
    for u, v in graph.edges():
        label = "near" if abs(u - v) < 50 else "far"
        labeling.add((u, v), label)  # one orientation: E* = E_d
    return labeling


def relabel(v: int) -> int:
    return v % 7


def g(v: int) -> float:
    return (v % 13) * 0.77


def f(u: int, v: int) -> float:
    return abs(u - v) ** 0.5


def member(u: int, v: int) -> bool:
    return (u + v) % 3 != 0


class Probe(StreamingDegreePMF):
    """A degree PMF that records how the steps reached it."""

    def __init__(self, graph):
        super().__init__(graph)
        self.blocks = 0
        self.updates = 0

    def absorb_block(self, block):
        self.blocks += 1
        return super().absorb_block(block)

    def update(self, trace):
        self.updates += 1
        return super().update(trace)


def fusable_parts(graph, vertex_labeling, edge_labeling):
    return {
        "probe": Probe(graph),
        "vertex_density": StreamingVertexDensity(
            graph, vertex_labeling, VERTEX_LABELS
        ),
        "edge_density": StreamingEdgeDensity(edge_labeling, EDGE_LABELS),
        "edge_functional": StreamingEdgeFunctional(f, member),
        "size": StreamingGraphSize(graph),
    }


def drain_only_parts(graph):
    """Accumulators without ``fused_needs``: they force the drain path."""
    return {
        "relabeled": StreamingDegreePMF(graph, degree_of=relabel),
        "vertex_functional": StreamingVertexFunctional(graph, g),
    }


def snapshot(method, bundle, checkpoint):
    """Every estimate of a bundle, plus the path its steps took."""
    named = bundle.parts
    probe = named["probe"]
    row = {
        "path": "fused" if probe.blocks and not probe.updates else "drained",
        "degree_pmf": probe.estimate(),
        "degree_ccdf": probe.ccdf(),
        "vertex_densities": named["vertex_density"].estimate(),
        "edge_densities": named["edge_density"].estimate(),
        "edge_functional": named["edge_functional"].estimate(),
        "num_vertices": named["size"].num_vertices(),
        "volume": named["size"].volume(),
        "num_edges": named["size"].num_edges(),
    }
    if "relabeled" in named:
        row["relabeled_pmf"] = named["relabeled"].estimate()
        row["vertex_functional"] = named["vertex_functional"].estimate()
    return row


class Bundle:
    """One replicate's named accumulators, fed the same steps."""

    def __init__(self, parts):
        self.parts = parts

    def update(self, increment):
        for part in self.parts.values():
            part.update(increment)
        return self

    def fused_needs(self):
        return merge_needs(self.parts.values())

    def absorb_block(self, block):
        for part in self.parts.values():
            part.absorb_block(block)
        return self


def batch_row(graph, trace, vertex_labeling, edge_labeling):
    """The same estimates from the public batch functions."""
    row = {
        "degree_pmf": degree_pmf_from_trace(graph, trace),
        "degree_ccdf": degree_ccdf_from_trace(graph, trace),
        "vertex_densities": vertex_label_densities_from_trace(
            graph, trace, vertex_labeling, VERTEX_LABELS
        ),
        "edge_densities": edge_label_densities_from_trace(
            trace, edge_labeling, EDGE_LABELS
        ),
        "edge_functional": edge_functional_from_trace(trace, f, member),
        "num_vertices": estimate_num_vertices(graph, trace),
        "volume": estimate_volume(graph, trace),
        "num_edges": estimate_num_edges(graph, trace),
    }
    # The single-label forms are the many-label forms, label by label.
    for label in VERTEX_LABELS:
        assert vertex_label_density_from_trace(
            graph, trace, vertex_labeling, label
        ) == row["vertex_densities"][label]
    for label in EDGE_LABELS:
        assert edge_label_density_from_trace(
            trace, edge_labeling, label
        ) == row["edge_densities"][label]
    row["relabeled_pmf"] = degree_pmf_from_trace(
        graph, trace, degree_of=relabel
    )
    row["vertex_functional"] = vertex_functional_from_trace(graph, trace, g)
    weighted, normalizer = weighted_vertex_sums(graph, trace, g)
    assert weighted / normalizer == row["vertex_functional"]
    return row


def replicate_traces(sampler, graph):
    """Each replicate's trace, opened exactly as ``run_plan`` opens it."""
    traces = []
    for index in range(REPLICATES):
        session = default_starter(sampler, graph, SEED, index)
        session.advance_budget(BUDGET)
        traces.append(session.trace())
    return traces


def plan_rows(graph, sampler, parts_factory, backend, procs=None):
    plan = ExperimentPlan(
        title="estimator contract",
        graph=graph,
        samplers={"method": sampler},
        budgets=[BUDGET],
        accumulator=lambda method: Bundle(parts_factory()),
        snapshot=snapshot,
        root_seed=SEED,
        backend=backend,
    )
    run = run_plan(plan, REPLICATES, procs=procs).run("method")
    return [row[0] for row in run.rows]


def without_path(row):
    return {key: value for key, value in row.items() if key != "path"}


@pytest.fixture(params=["native", "fallback"])
def kernel(request, monkeypatch):
    if request.param == "native" and not _native.available():
        pytest.skip("native kernels unavailable on this host")
    if request.param == "fallback":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    return request.param


@pytest.mark.parametrize("method", sorted(SAMPLERS))
def test_csr_batch_equals_fused_drained_and_pooled_rows(
    kernel, method, graph, vertex_labeling, edge_labeling
):
    csr = get_csr(graph)
    sampler = SAMPLERS[method]("csr")

    def fusable():
        return fusable_parts(csr, vertex_labeling, edge_labeling)

    def drain_only():
        return {**fusable(), **drain_only_parts(csr)}

    fused = plan_rows(csr, sampler, fusable, "csr")
    drained = plan_rows(csr, sampler, drain_only, "csr")
    pooled = plan_rows(csr, sampler, fusable, "csr", procs=1)
    assert [row["path"] for row in fused] == ["fused"] * REPLICATES
    assert [row["path"] for row in drained] == ["drained"] * REPLICATES
    assert [row["path"] for row in pooled] == ["drained"] * REPLICATES

    traces = replicate_traces(sampler, csr)
    for index, trace in enumerate(traces):
        batch = batch_row(csr, trace, vertex_labeling, edge_labeling)
        # == on floats: one implementation, so bit-identical.
        assert without_path(drained[index]) == batch
        shared = without_path(fused[index])
        assert shared == {key: batch[key] for key in shared}
        assert without_path(pooled[index]) == shared


@pytest.mark.parametrize("method", sorted(SAMPLERS))
def test_list_batch_equals_streaming_rows(
    method, graph, vertex_labeling, edge_labeling
):
    sampler = SAMPLERS[method]("list")

    def parts():
        return {
            **fusable_parts(graph, vertex_labeling, edge_labeling),
            **drain_only_parts(graph),
        }

    rows = plan_rows(graph, sampler, parts, "list")
    for index, trace in enumerate(replicate_traces(sampler, graph)):
        batch = batch_row(graph, trace, vertex_labeling, edge_labeling)
        assert rows[index]["path"] == "drained"
        assert without_path(rows[index]) == batch


def as_backend(backend, edges):
    """``edges`` as a list-backed or an array-backed walk trace."""
    if backend == "list":
        return WalkTrace("walk", list(edges), [0], 0.0, 0.0)
    sources = np.array([u for u, _ in edges], dtype=np.int64)
    targets = np.array([v for _, v in edges], dtype=np.int64)
    return ArrayWalkTrace("walk", sources, targets, [0], 0.0, 0.0)


NO_STEPS = "empty trace; cannot form the estimate"
NO_COLLISIONS = "no vertex collisions in the trace; increase the budget"


@pytest.mark.parametrize("backend", ["list", "csr"])
def test_batch_error_messages_are_kept(
    backend, graph, vertex_labeling, edge_labeling
):
    """The batch functions refuse with their own messages, not the
    accumulators' ("no samples consumed")."""
    empty = as_backend(backend, [])
    refusals = {
        NO_STEPS: [
            lambda: degree_pmf_from_trace(graph, empty),
            lambda: degree_ccdf_from_trace(graph, empty, degree_of=relabel),
            lambda: vertex_functional_from_trace(graph, empty, g),
            lambda: vertex_label_density_from_trace(
                graph, empty, vertex_labeling, "odd"
            ),
            lambda: vertex_label_densities_from_trace(
                graph, empty, vertex_labeling, VERTEX_LABELS
            ),
        ],
        "no sampled edges fall in E*; cannot form the estimate": [
            lambda: edge_functional_from_trace(empty, f),
        ],
        "no sampled edge carries any label; cannot form the estimate": [
            lambda: edge_label_density_from_trace(empty, edge_labeling, "far"),
            lambda: edge_label_densities_from_trace(
                empty, edge_labeling, EDGE_LABELS
            ),
        ],
        "need at least two samples to estimate size": [
            lambda: estimate_num_vertices(graph, empty),
            lambda: estimate_volume(graph, empty),
        ],
    }
    distinct = as_backend(backend, [(0, 1), (1, 2), (2, 3)])
    refusals[NO_COLLISIONS + " (need B on the order of sqrt(|V|))"] = [
        lambda: estimate_num_vertices(graph, distinct),
    ]
    refusals[NO_COLLISIONS] = [
        lambda: estimate_volume(graph, distinct),
        lambda: estimate_num_edges(graph, distinct),
    ]
    for message, calls in refusals.items():
        for call in calls:
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message
    assert weighted_vertex_sums(graph, empty, g) == (0.0, 0.0)
