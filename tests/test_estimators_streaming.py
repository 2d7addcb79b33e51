"""Streaming accumulators vs the tuple loop (≤1e-12 parity).

Every accumulator consumes the same walk split into irregular
increments (via ``session.take_trace()``) and must agree with the
public ``*_from_trace`` estimator applied to the full trace, on both
backends.  The batch functions are one-increment runs of these same
accumulators, so a csr walk's full trace is first rewrapped as a
list-backed :class:`~repro.sampling.base.WalkTrace` (:func:`tuple_loop`):
the reference then runs the tuple loop, an independent code path, on
the very same steps.
"""

from __future__ import annotations

import functools
import pickle
from typing import Dict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.estimators import _vectorized
from repro.estimators import (
    StreamingAverageDegree,
    StreamingDegreePMF,
    StreamingEdgeDensity,
    StreamingEdgeFunctional,
    StreamingGraphSize,
    StreamingVertexDensity,
    StreamingVertexFunctional,
    degree_ccdf_from_trace,
    degree_pmf_from_trace,
    degree_pmf_from_vertices,
    edge_functional_from_trace,
    edge_label_densities_from_trace,
    estimate_num_edges,
    estimate_num_vertices,
    vertex_functional_from_trace,
    vertex_label_densities_from_trace,
)
from repro.estimators.streaming import StreamingEstimator
from repro.generators.ba import barabasi_albert
from repro.graph.csr import get_csr
from repro.graph.graph import Graph
from repro.graph.labels import EdgeLabeling, VertexLabeling
from repro.sampling import (
    FrontierSampler,
    MetropolisHastingsWalk,
    MultipleRandomWalk,
    RandomVertexSampler,
    SingleRandomWalk,
)
from repro.sampling.base import WalkTrace
from repro.sampling.fused import FusedNeeds, block_from_arrays
from repro.sampling.vectorized import ArrayWalkTrace

BUDGET = 4_000
CHECKPOINTS = (137, 950, 2_400, BUDGET)
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(2_000, 3, rng=42)


@pytest.fixture(scope="module")
def vertex_labeling(graph):
    labeling = VertexLabeling()
    for v in graph.vertices():
        labeling.add(v, "even" if v % 2 == 0 else "odd")
    return labeling


@pytest.fixture(scope="module")
def edge_labeling(graph):
    labeling = EdgeLabeling()
    for u, v in graph.edges():
        label = "near" if abs(u - v) < 100 else "far"
        labeling.add((u, v), label)
        labeling.add((v, u), label)
    return labeling


def run_streamed(graph, sampler, accumulators, rng=7):
    """Advance one session through the checkpoints, draining into
    every accumulator; returns the identical-stream full trace (from a
    twin session with the same chunk boundaries, which matters for
    MultipleRW's shared-stream walkers) as a list-backed trace."""
    session = sampler.start(graph, rng=rng)
    reference = sampler.start(graph, rng=rng)
    for budget in CHECKPOINTS:
        session.advance_budget(budget)
        reference.advance_budget(budget)
        increment = session.take_trace()
        for accumulator in accumulators:
            accumulator.update(increment)
    return tuple_loop(reference.trace())


def tuple_loop(trace):
    """The same steps as a list-backed trace (the tuple-loop oracle)."""
    if not isinstance(trace, ArrayWalkTrace):
        return trace
    return WalkTrace(
        method=trace.method,
        edges=list(trace.edges),
        initial_vertices=trace.initial_vertices,
        budget=trace.budget,
        seed_cost=trace.seed_cost,
    )


SAMPLERS = [
    SingleRandomWalk(),
    MetropolisHastingsWalk(),
    FrontierSampler(16),
    FrontierSampler(16, backend="csr"),
    MetropolisHastingsWalk(backend="csr"),
    MultipleRandomWalk(8, backend="csr"),
]


class TestWalkTraceParity:
    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_degree_pmf_and_ccdf(self, graph, sampler):
        accumulator = StreamingDegreePMF(graph)
        full = run_streamed(graph, sampler, [accumulator])
        batch = degree_pmf_from_trace(graph, full)
        streamed = accumulator.estimate()
        assert set(batch) == set(streamed)
        assert all(
            abs(batch[k] - streamed[k]) <= TOLERANCE for k in batch
        )
        batch_ccdf = degree_ccdf_from_trace(graph, full)
        streamed_ccdf = accumulator.ccdf()
        assert all(
            abs(batch_ccdf[k] - streamed_ccdf[k]) <= 10 * TOLERANCE
            for k in batch_ccdf
        )

    @pytest.mark.parametrize("sampler", SAMPLERS[:3], ids=lambda s: repr(s))
    def test_degree_relabeling(self, graph, sampler):
        """``degree_of`` relabels the histogram, not the reweighting."""
        relabel = lambda v: min(graph.degree(v), 10)  # noqa: E731
        accumulator = StreamingDegreePMF(graph, degree_of=relabel)
        full = run_streamed(graph, sampler, [accumulator])
        batch = degree_pmf_from_trace(graph, full, degree_of=relabel)
        streamed = accumulator.estimate()
        assert set(batch) == set(streamed)
        assert all(
            abs(batch[k] - streamed[k]) <= TOLERANCE for k in batch
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_average_degree_eq7(self, graph, sampler):
        accumulator = StreamingAverageDegree(graph)
        full = run_streamed(graph, sampler, [accumulator])
        batch = vertex_functional_from_trace(
            graph, full, lambda v: float(graph.degree(v))
        )
        assert accumulator.estimate() == pytest.approx(
            batch, abs=TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_vertex_functional(self, graph, sampler):
        g = lambda v: (v % 13) * 0.77  # noqa: E731
        accumulator = StreamingVertexFunctional(graph, g)
        full = run_streamed(graph, sampler, [accumulator])
        batch = vertex_functional_from_trace(graph, full, g)
        assert accumulator.estimate() == pytest.approx(
            batch, abs=TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_vertex_label_density(self, graph, vertex_labeling, sampler):
        labels = ["even", "odd"]
        accumulator = StreamingVertexDensity(graph, vertex_labeling, labels)
        full = run_streamed(graph, sampler, [accumulator])
        batch = vertex_label_densities_from_trace(
            graph, full, vertex_labeling, labels
        )
        streamed = accumulator.estimate()
        assert all(
            abs(batch[label] - streamed[label]) <= TOLERANCE
            for label in labels
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_edge_label_density_exact(self, graph, edge_labeling, sampler):
        labels = ["near", "far"]
        accumulator = StreamingEdgeDensity(edge_labeling, labels)
        full = run_streamed(graph, sampler, [accumulator])
        batch = edge_label_densities_from_trace(full, edge_labeling, labels)
        # integer counting: exact, not just 1e-12
        assert accumulator.estimate() == batch

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_edge_functional_with_membership(self, graph, sampler):
        f = lambda u, v: abs(u - v) ** 0.5  # noqa: E731
        member = lambda u, v: (u + v) % 2 == 0  # noqa: E731
        accumulator = StreamingEdgeFunctional(f, membership=member)
        full = run_streamed(graph, sampler, [accumulator])
        batch = edge_functional_from_trace(full, f, membership=member)
        assert accumulator.estimate() == pytest.approx(
            batch, abs=100 * TOLERANCE
        )

    @pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: repr(s))
    def test_graph_size(self, graph, sampler):
        accumulator = StreamingGraphSize(graph)
        full = run_streamed(graph, sampler, [accumulator])
        assert accumulator.num_vertices() == pytest.approx(
            estimate_num_vertices(graph, full), rel=1e-12
        )
        assert accumulator.num_edges() == pytest.approx(
            estimate_num_edges(graph, full), rel=1e-12
        )
        assert accumulator.estimate() == accumulator.num_vertices()


class TestVertexTraceMode:
    def test_uniform_vertex_samples_use_plain_counts(self, graph):
        sampler = RandomVertexSampler(0.9)
        accumulator = StreamingDegreePMF(graph)
        full = run_streamed(graph, sampler, [accumulator])
        batch = degree_pmf_from_vertices(full.vertices, graph.degree)
        streamed = accumulator.estimate()
        assert set(batch) == set(streamed)
        assert all(
            abs(batch[k] - streamed[k]) <= TOLERANCE for k in batch
        )

    def test_mixing_laws_raises(self, graph):
        accumulator = StreamingDegreePMF(graph)
        accumulator.update(SingleRandomWalk().sample(graph, 50, rng=1))
        with pytest.raises(TypeError, match="mix"):
            accumulator.update(
                RandomVertexSampler().sample(graph, 50, rng=1)
            )

    def test_non_degree_accumulators_reject_vertex_traces(self, graph):
        trace = RandomVertexSampler().sample(graph, 50, rng=1)
        with pytest.raises(TypeError):
            StreamingAverageDegree(graph).update(trace)


class TestProtocol:
    def test_estimate_requires_samples(self, graph):
        with pytest.raises(ValueError):
            StreamingDegreePMF(graph).estimate()
        with pytest.raises(ValueError):
            StreamingAverageDegree(graph).estimate()
        with pytest.raises(ValueError):
            StreamingGraphSize(graph).estimate()

    def test_empty_increment_is_a_noop(self, graph):
        sampler = FrontierSampler(8, backend="csr")
        session = sampler.start(graph, rng=3)
        accumulator = StreamingAverageDegree(graph)
        accumulator.update(session.take_trace())  # zero steps so far
        with pytest.raises(ValueError):
            accumulator.estimate()
        session.advance(100)
        accumulator.update(session.take_trace())
        accumulator.update(session.take_trace())  # drained: another noop
        assert accumulator._steps == 100

    @pytest.mark.parametrize("backend", ["list", "csr"])
    def test_duplicate_labels_count_once(self, graph, vertex_labeling, backend):
        trace = FrontierSampler(8, backend=backend).sample(graph, 500, rng=3)
        once = StreamingVertexDensity(graph, vertex_labeling, ["even", "odd"])
        twice = StreamingVertexDensity(
            graph, vertex_labeling, ["even", "odd", "even"]
        )
        assert twice.update(trace).estimate() == once.update(trace).estimate()

    def test_update_returns_self_for_chaining(self, graph):
        trace = SingleRandomWalk().sample(graph, 60, rng=2)
        accumulator = StreamingAverageDegree(graph)
        assert accumulator.update(trace) is accumulator

    def test_rejects_unknown_increment_type(self, graph):
        with pytest.raises(TypeError):
            StreamingAverageDegree(graph).update([1, 2, 3])

    def test_accumulator_checkpoint_drops_graph(self, graph):
        import pickle

        accumulator = StreamingDegreePMF(graph)
        accumulator.update(SingleRandomWalk().sample(graph, 80, rng=2))
        clone = pickle.loads(pickle.dumps(accumulator))
        assert clone.graph is None
        clone.attach(graph)
        assert clone.estimate() == accumulator.estimate()


# ----------------------------------------------------------------------
# StreamingGraphSize: dense counts + running collisions vs a dict oracle
# ----------------------------------------------------------------------
class DictGraphSize(StreamingEstimator):
    """The dict-of-visit-counts size accumulator, kept as an oracle.

    Same float sums as :class:`StreamingGraphSize`; collisions are
    recounted from the dict at every snapshot.
    """

    def __init__(self, graph):
        self.graph = graph
        self._inverse_sum = 0.0
        self._degree_sum = 0.0
        self._samples = 0
        self._visits: Dict[int, int] = {}

    def _update_array(self, trace) -> None:
        unique, counts = np.unique(trace.step_targets, return_counts=True)
        self._absorb_visit_counts(unique, counts)

    def _absorb_visit_counts(self, vertices, counts) -> None:
        degrees = _vectorized.degrees_of(self.graph)[vertices].astype(
            np.float64
        )
        weights = counts.astype(np.float64)
        self._inverse_sum += float((weights / degrees).sum())
        self._degree_sum += float((weights * degrees).sum())
        self._samples += int(counts.sum())
        for v, count in zip(vertices.tolist(), counts.tolist()):
            self._visits[v] = self._visits.get(v, 0) + count

    def fused_needs(self):
        return FusedNeeds(visit_counts=True)

    def _absorb_block(self, block) -> None:
        vertices = np.flatnonzero(block.visit_counts)
        self._absorb_visit_counts(vertices, block.visit_counts[vertices])

    def _update_list(self, trace: WalkTrace) -> None:
        graph = self.graph
        for v in trace.visited_vertices:
            degree = graph.degree(v)
            self._inverse_sum += 1.0 / degree
            self._degree_sum += degree
            self._samples += 1
            self._visits[v] = self._visits.get(v, 0) + 1

    def _statistics(self):
        if self._samples < 2:
            raise ValueError("need at least two samples to estimate size")
        collisions = sum(c * (c - 1) // 2 for c in self._visits.values())
        if collisions == 0:
            raise ValueError("no vertex collisions in the trace")
        b = self._samples
        pairs = b * (b - 1) / 2.0
        return self._inverse_sum / b, self._degree_sum / b, collisions, pairs

    def num_vertices(self) -> float:
        psi_1, psi_2, collisions, pairs = self._statistics()
        return psi_1 * psi_2 * pairs / collisions

    def volume(self) -> float:
        _, psi_2, collisions, pairs = self._statistics()
        return psi_2 * pairs / collisions

    def num_edges(self) -> float:
        return self.volume() / 2.0

    def estimate(self) -> float:
        return self.num_vertices()


SIZE_WALK_STEPS = 1_500
SIZE_SAMPLERS = {
    "fs": FrontierSampler(8, backend="csr"),
    "srw": SingleRandomWalk(backend="csr"),
    "mhrw": MetropolisHastingsWalk(backend="csr"),
}


@functools.lru_cache(maxsize=None)
def size_walk(method):
    """One fixed walk per sampler over a small BA graph: (csr, sources,
    targets) of its stat-bearing steps (MHRW: accepted moves)."""
    csr = get_csr(barabasi_albert(300, 2, rng=5))
    trace = SIZE_SAMPLERS[method].sample(csr, SIZE_WALK_STEPS, rng=11)
    return csr, trace.step_sources, trace.step_targets


def increment(csr, mode, sources, targets):
    """The same steps as an array trace, a list trace or a fused block."""
    if mode == "array":
        return ArrayWalkTrace("walk", sources, targets, [], 0.0, 0.0)
    if mode == "list":
        return WalkTrace(
            method="walk",
            edges=list(zip(sources.tolist(), targets.tolist())),
            initial_vertices=[],
            budget=0.0,
            seed_cost=0.0,
        )
    return block_from_arrays(
        FusedNeeds(visit_counts=True), csr.degrees(), sources, targets
    )


def feed(accumulator, item):
    if isinstance(item, WalkTrace):
        accumulator.update(item)
    else:
        accumulator.absorb_block(item)


def size_snapshot(accumulator):
    """``(|V|, vol, |E|)`` or the refusal message."""
    try:
        return (
            accumulator.num_vertices(),
            accumulator.volume(),
            accumulator.num_edges(),
        )
    except ValueError as error:
        return str(error).split(";")[0]


def recounted_collisions(targets):
    return sum(c * (c - 1) // 2 for c in np.bincount(targets).tolist())


chunkings = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=400),
        st.sampled_from(["array", "list", "block"]),
    ),
    min_size=1,
    max_size=10,
)


class TestGraphSizeState:
    @pytest.mark.parametrize("method", sorted(SIZE_SAMPLERS))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(chunks=chunkings)
    def test_random_chunkings_match_dict_oracle(self, method, chunks):
        csr, sources, targets = size_walk(method)
        accumulator = StreamingGraphSize(csr)
        oracle = DictGraphSize(csr)
        done = 0
        for length, mode in [*chunks, (targets.size, "block")]:
            end = min(done + length, targets.size)
            item = increment(csr, mode, sources[done:end], targets[done:end])
            feed(accumulator, item)
            feed(oracle, item)
            done = end
            assert accumulator._collisions == recounted_collisions(
                targets[:done]
            )
            # == on floats: the estimates are bit-identical, not close
            assert size_snapshot(accumulator) == size_snapshot(oracle)
        assert done == targets.size

    @pytest.mark.parametrize("method", sorted(SIZE_SAMPLERS))
    def test_pickle_stores_only_visited_vertices(self, method):
        csr, sources, targets = size_walk(method)
        half = targets.size // 2
        accumulator = StreamingGraphSize(csr)
        accumulator.update(increment(csr, "array", sources[:half], targets[:half]))
        vertices, counts = accumulator.__getstate__()["_visits"]
        visited = np.bincount(targets[:half])
        assert vertices.tolist() == np.flatnonzero(visited).tolist()
        assert counts.tolist() == visited[vertices].tolist()
        assert vertices.size < csr.num_vertices

        clone = pickle.loads(pickle.dumps(accumulator))
        assert clone.graph is None
        clone.attach(csr)
        assert clone._collisions == accumulator._collisions
        assert size_snapshot(clone) == size_snapshot(accumulator)
        rest = increment(csr, "block", sources[half:], targets[half:])
        feed(clone, rest)
        feed(accumulator, rest)
        assert size_snapshot(clone) == size_snapshot(accumulator)
        assert clone._collisions == recounted_collisions(targets)

    @pytest.mark.parametrize("method", sorted(SIZE_SAMPLERS))
    def test_pre_array_checkpoint_state_loads(self, method):
        """A state holding a ``{vertex: count}`` dict and no collision
        count (the layout before the dense array) still resumes."""
        csr, sources, targets = size_walk(method)
        half = targets.size // 2
        first = increment(csr, "list", sources[:half], targets[:half])
        oracle = DictGraphSize(csr)
        oracle.update(first)
        legacy = dict(oracle.__getstate__())
        assert isinstance(legacy["_visits"], dict)

        loaded = StreamingGraphSize.__new__(StreamingGraphSize)
        loaded.__setstate__(legacy)
        loaded.attach(csr)
        assert loaded._collisions == recounted_collisions(targets[:half])
        assert size_snapshot(loaded) == size_snapshot(oracle)
        rest = increment(csr, "array", sources[half:], targets[half:])
        loaded.update(rest)
        oracle.update(rest)
        assert size_snapshot(loaded) == size_snapshot(oracle)

    def test_counts_grow_with_the_graph(self):
        """A vertex added after the first increment still counts."""
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        accumulator = StreamingGraphSize(graph)
        oracle = DictGraphSize(graph)
        first = WalkTrace("walk", [(0, 1), (1, 2), (2, 0), (0, 1)], [0], 4.0, 0.0)
        graph.add_edge(2, graph.add_vertex())
        second = WalkTrace("walk", [(1, 2), (2, 3), (3, 2), (2, 3)], [1], 4.0, 0.0)
        for trace in (first, second):
            accumulator.update(trace)
            oracle.update(trace)
        assert accumulator._visits.tolist() == [1, 2, 3, 2]
        assert accumulator._collisions == 0 + 1 + 3 + 1
        assert size_snapshot(accumulator) == size_snapshot(oracle)
