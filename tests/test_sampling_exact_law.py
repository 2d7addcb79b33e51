"""The walk kernels sample the laws the paper states.

The bit-identity suites prove that the kernels agree with each other
(native C against the pure-Python fallback, trace outputs against block
outputs).  They cannot catch a defect all paths share.  These tests
compare each kernel's samples with an exact law on a small connected,
non-bipartite graph:

- SRW in steady state crosses every directed edge with probability
  ``1 / 2|E|``, so its target vertex has law ``deg(v) / 2|E|``;
- FS with ``m = 3`` samples every directed edge with probability
  ``1 / 2|E|`` too (the paper's steady-state result for Frontier
  Sampling), so its targets follow the same degree-proportional law;
- MHRW visits every vertex with probability ``1 / |V|``.  Its block
  outputs count accepted moves only; a stationary accepted move
  crosses ``u -> v`` with probability proportional to
  ``min(1/deg(u), 1/deg(v))``.

Every kernel runs on the native C kernels and on the ``REPRO_NO_NATIVE``
fallback, through both output modes: trace arrays (``run_*``) and
:class:`~repro.sampling.fused.FusedBlock` counts (``run_*_acc``).

Samples are thinned — one per ``THIN`` steps, after a burn-in of the
same length — so they are close to independent draws from the
stationary law (:func:`test_thinning_makes_samples_independent`
bounds the leftover dependence for SRW and MHRW).  Each law is checked with a
G-test at false-alarm rate ``ALPHA``: a correct kernel at a random seed
fails one check with probability about ``ALPHA``.  The seeds are pinned,
so the outcome is deterministic.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sampling import _native, vectorized
from repro.sampling.fused import FusedBlock, FusedNeeds

#: False-alarm rate of each G-test.
ALPHA = 1e-3
#: Thinned samples per law.
SAMPLES = 4000
#: Steps between samples (and the burn-in before the first).
THIN = 40
#: FS moves one of its m = 3 walkers per step, so it needs longer gaps.
FS_THIN = 3 * THIN
FS_DIMENSION = 3

#: 8 vertices, 13 edges, degrees 2..5; the triangles make it
#: non-bipartite, so every walk here is aperiodic.
EDGES = [
    (0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5),
    (0, 5), (1, 6), (6, 7), (0, 3), (0, 4), (5, 7),
]

ALL_STATS = FusedNeeds(degree_counts=True, visit_counts=True, edge_keys=True)


@pytest.fixture(scope="module")
def graph() -> CSRGraph:
    built = Graph(8)
    for u, v in EDGES:
        built.add_edge(u, v)
    return CSRGraph.from_graph(built)


@pytest.fixture(params=["native", "fallback"])
def native(request, monkeypatch):
    """``True`` for the C kernels; the fallback leg sets REPRO_NO_NATIVE."""
    if request.param == "native":
        if not _native.available():
            pytest.skip("native kernels unavailable")
        return True
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    return None


# ---------------------------------------------------------------------
# the G-test
# ---------------------------------------------------------------------
def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square law, via the series for the
    regularized lower incomplete gamma function."""
    a, z = dof / 2.0, x / 2.0
    if z <= 0.0:
        return 1.0
    term = total = 1.0 / a
    n = 0
    while term > total * 1e-16:
        n += 1
        term *= z / (a + n)
        total += term
    lower = total * math.exp(a * math.log(z) - z - math.lgamma(a))
    return max(0.0, 1.0 - lower)


def g_test(observed: np.ndarray, law: np.ndarray) -> float:
    """p-value of ``observed`` counts under the probability vector
    ``law`` (cells with zero probability must stay empty)."""
    observed = np.asarray(observed, dtype=np.float64)
    law = np.asarray(law, dtype=np.float64)
    assert observed.shape == law.shape
    impossible = law == 0
    assert not observed[impossible].any(), "a zero-probability cell was hit"
    observed, law = observed[~impossible], law[~impossible]
    expected = observed.sum() * law / law.sum()
    hit = observed > 0
    statistic = 2.0 * float(
        np.sum(observed[hit] * np.log(observed[hit] / expected[hit]))
    )
    return chi2_sf(statistic, observed.size - 1)


def assert_law(observed: np.ndarray, law: np.ndarray) -> None:
    p_value = g_test(observed, law)
    assert p_value > ALPHA, f"G-test rejects the law: p = {p_value:.2e}"


@pytest.mark.parametrize(
    "x,dof,expected",
    [(3.841459, 1, 0.05), (16.26624, 3, 0.001), (29.58830, 10, 0.001),
     (6.0, 2, math.exp(-3.0)), (0.0, 4, 1.0)],
)
def test_chi2_sf_matches_reference_values(x, dof, expected):
    assert chi2_sf(x, dof) == pytest.approx(expected, rel=1e-4)


# ---------------------------------------------------------------------
# exact laws
# ---------------------------------------------------------------------
def directed_edges(graph: CSRGraph) -> np.ndarray:
    """Every directed edge ``(u, v)`` as a key ``u * n + v``, sorted."""
    n = graph.num_vertices
    sources = np.repeat(np.arange(n), graph.degrees())
    return np.sort(sources * n + graph.indices)


def edge_counts(graph: CSRGraph, keys: np.ndarray) -> np.ndarray:
    """Counts of ``keys`` over :func:`directed_edges`, in its order."""
    support = directed_edges(graph)
    cells = np.searchsorted(support, keys)
    assert np.all(support[np.minimum(cells, support.size - 1)] == keys)
    return np.bincount(cells, minlength=support.size)


def degree_law(graph: CSRGraph) -> np.ndarray:
    """``P(deg(target) = d)`` for a degree-proportional target."""
    degrees = graph.degrees()
    return np.bincount(degrees, weights=degrees).astype(np.float64)


def mh_accept_flow(graph: CSRGraph) -> np.ndarray:
    """Stationary weight ``min(1/deg u, 1/deg v)`` of each accepted
    MH move, in :func:`directed_edges` order."""
    n = graph.num_vertices
    support = directed_edges(graph)
    degrees = graph.degrees()
    return np.minimum(1.0 / degrees[support // n], 1.0 / degrees[support % n])


def mh_target_law(graph: CSRGraph) -> np.ndarray:
    """Law of the target of a stationary accepted MH move."""
    n = graph.num_vertices
    return np.bincount(
        directed_edges(graph) % n, weights=mh_accept_flow(graph), minlength=n
    )


def test_thinning_makes_samples_independent(graph):
    """The second eigenvalue modulus of the SRW and MHRW chains, raised
    to THIN, bounds how far one thinned sample's law depends on the
    previous one."""
    n = graph.num_vertices
    degrees = graph.degrees().astype(np.float64)
    sources = np.repeat(np.arange(n), graph.degrees())
    adjacency = np.zeros((n, n))
    adjacency[sources, graph.indices] = 1.0
    # D^-1/2 A D^-1/2 is symmetric and shares the SRW chain's spectrum.
    scale = 1.0 / np.sqrt(degrees)
    srw = scale[:, None] * adjacency * scale
    # MH is reversible for the uniform law, so its matrix is symmetric.
    mh = adjacency * np.minimum(1.0 / degrees[:, None], 1.0 / degrees)
    mh[np.diag_indices(n)] = 1.0 - mh.sum(axis=1)
    for chain in (srw, mh):
        moduli = np.sort(np.abs(np.linalg.eigvalsh(chain)))
        assert moduli[-1] == pytest.approx(1.0)
        assert moduli[-2] ** THIN < 1e-3


# ---------------------------------------------------------------------
# the kernels
# ---------------------------------------------------------------------
def idle_block(graph: CSRGraph) -> FusedBlock:
    """A block that records nothing: the kernel only walks."""
    return FusedBlock(FusedNeeds(), graph.num_vertices, graph.max_degree())


def measured_block(graph: CSRGraph) -> FusedBlock:
    return FusedBlock(ALL_STATS, graph.num_vertices, graph.max_degree())


def thinned(array: np.ndarray, thin: int) -> np.ndarray:
    """Every ``thin``-th entry, the first one after ``thin - 1`` steps."""
    return array[thin - 1 :: thin]


class TestSimpleRandomWalk:
    def test_trace_crosses_directed_edges_uniformly(self, graph, native):
        rng = np.random.default_rng(101)
        sources, targets = vectorized.run_random_walk(
            graph, 0, SAMPLES * THIN, rng, native
        )
        keys = thinned(sources, THIN) * graph.num_vertices + thinned(
            targets, THIN
        )
        counts = edge_counts(graph, keys)
        assert_law(counts, np.ones(counts.size))

    def test_block_counts_follow_the_edge_law(self, graph, native):
        rng = np.random.default_rng(102)
        idle, block = idle_block(graph), measured_block(graph)
        position = 0
        for _ in range(SAMPLES):
            position = vectorized.run_random_walk_acc(
                graph, position, THIN - 1, rng, idle, native
            )
            position = vectorized.run_random_walk_acc(
                graph, position, 1, rng, block, native
            )
        assert block.steps == SAMPLES
        counts = edge_counts(graph, block.edge_key_array())
        assert_law(counts, np.ones(counts.size))
        assert_law(block.visit_counts, graph.degrees())
        assert_law(block.deg_counts, degree_law(graph))


class TestFrontierSampling:
    def test_trace_samples_directed_edges_uniformly(self, graph, native):
        rng = np.random.default_rng(201)
        sources, targets, _ = vectorized.run_frontier(
            graph, [0, 3, 7], SAMPLES * FS_THIN, rng, "degree", native
        )
        keys = thinned(sources, FS_THIN) * graph.num_vertices + thinned(
            targets, FS_THIN
        )
        counts = edge_counts(graph, keys)
        assert_law(counts, np.ones(counts.size))

    def test_block_counts_follow_the_edge_law(self, graph, native):
        rng = np.random.default_rng(202)
        idle, block = idle_block(graph), measured_block(graph)
        frontier = [0, 3, 7]
        assert len(frontier) == FS_DIMENSION
        for _ in range(SAMPLES):
            frontier = vectorized.run_frontier_acc(
                graph, frontier, FS_THIN - 1, rng, idle, "degree", native
            )
            frontier = vectorized.run_frontier_acc(
                graph, frontier, 1, rng, block, "degree", native
            )
        assert block.steps == SAMPLES
        counts = edge_counts(graph, block.edge_key_array())
        assert_law(counts, np.ones(counts.size))
        assert_law(block.visit_counts, graph.degrees())
        assert_law(block.deg_counts, degree_law(graph))


class TestMetropolisHastings:
    def test_trace_visits_vertices_uniformly(self, graph, native):
        rng = np.random.default_rng(301)
        _, _, visited = vectorized.run_metropolis(
            graph, 0, SAMPLES * THIN, rng, native
        )
        counts = np.bincount(
            thinned(visited, THIN), minlength=graph.num_vertices
        )
        assert_law(counts, np.ones(graph.num_vertices))

    def test_block_counts_follow_the_accepted_move_law(self, graph, native):
        rng = np.random.default_rng(302)
        idle, block = idle_block(graph), measured_block(graph)
        position = 0
        for _ in range(SAMPLES):
            position = vectorized.run_metropolis_acc(
                graph, position, THIN - 1, rng, idle, native
            )
            position = vectorized.run_metropolis_acc(
                graph, position, 1, rng, block, native
            )
        # Rejected proposals record nothing.
        assert 0 < block.steps < SAMPLES
        counts = edge_counts(graph, block.edge_key_array())
        assert_law(counts, mh_accept_flow(graph))
        assert_law(block.visit_counts, mh_target_law(graph))
