"""Shared numpy helpers of the estimator layer, plus two array kernels.

The helpers serve every array-backed estimator path — the
``Streaming*`` accumulators in :mod:`repro.estimators.streaming`,
which are the one implementation of each eq. (5)/(7)/(9) and size
estimator:

- :func:`is_array_trace` tells a csr
  :class:`~repro.sampling.vectorized.ArrayWalkTrace` from a list trace;
- :func:`degrees_of` is the graph's degree array (cached per graph
  version), the source of eq. (7)'s ``1/deg`` weights;
- :func:`_map_unique` applies a Python callable (``degree_of``, ``g``)
  once per *distinct* visited vertex;
- :func:`_unique_edges` collapses the sampled edge multiset to
  distinct edges with multiplicities, so ``f(u, v)`` and labeling
  lookups run once per distinct edge;
- :func:`require_steps` refuses an empty trace.

The clustering (Section 4.2.4) and assortativity (Section 4.2.2)
estimators have no streaming accumulator yet, so their array kernels
live here; :mod:`repro.estimators.clustering` and
:mod:`repro.estimators.assortativity` dispatch to them for array
traces and keep their tuple loops for list traces.  The two paths
agree to ~1e-12 relative (``tests/test_estimators_vectorized.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.sampling.vectorized import ArrayWalkTrace

GraphLike = Union[Graph, CSRGraph]


def is_array_trace(trace) -> bool:
    """True when ``trace`` carries int64 step arrays (dispatch guard)."""
    return isinstance(trace, ArrayWalkTrace)


#: Versions retained in each adjacency-list graph's degree-array LRU.
#: Estimators that interleave a couple of graph snapshots (e.g. an
#: evolving-graph sweep alternating between two versions) stay cached;
#: a long mutate-estimate loop holds at most this many O(n) arrays
#: instead of growing without bound.
_DEGREE_CACHE_VERSIONS = 4


def degrees_of(graph: GraphLike) -> np.ndarray:
    """The degree sequence as an int64 array, cached per graph version.

    :class:`CSRGraph` computes it as one ``diff``; for an
    adjacency-list :class:`Graph` the converted array is cached on the
    instance in a small per-version LRU (keyed by its mutation
    counter, like the CSR cache) so repeated estimator calls don't
    re-pay the list-to-array copy.  The LRU keeps the
    :data:`_DEGREE_CACHE_VERSIONS` most recently used versions, so the
    cache stays O(1) arrays even when the graph mutates between calls.
    """
    if isinstance(graph, CSRGraph):
        return graph.degrees()
    cache = getattr(graph, "_degree_array_cache", None)
    if not isinstance(cache, OrderedDict):
        cache = OrderedDict()
        graph._degree_array_cache = cache
    version = graph.version
    array = cache.get(version)
    if array is None:
        array = np.asarray(graph.degrees(), dtype=np.int64)
        cache[version] = array
        while len(cache) > _DEGREE_CACHE_VERSIONS:
            cache.popitem(last=False)
    else:
        cache.move_to_end(version)
    return array


def _map_unique(
    vertices: np.ndarray,
    fn: Callable[[int], float],
    dtype=np.float64,
) -> np.ndarray:
    """Apply a Python callable elementwise, evaluating unique ids once."""
    unique, inverse = np.unique(vertices, return_inverse=True)
    mapped = np.fromiter(
        (fn(int(v)) for v in unique), dtype=dtype, count=unique.size
    )
    return mapped[inverse]


def _unique_edges(
    sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct directed edges of the trace with their multiplicities.

    Returns ``(unique_sources, unique_targets, counts)``.  Edges are
    keyed as ``u * base + v`` in int64, which cannot overflow for any
    graph whose CSR arrays fit in memory.
    """
    base = int(targets.max()) + 1
    keys = sources * np.int64(base) + targets
    unique, counts = np.unique(keys, return_counts=True)
    return unique // base, unique % base, counts


def require_steps(trace) -> None:
    """Refuse a walk trace with no steps (either backend)."""
    if trace.num_steps == 0:
        raise ValueError("empty trace; cannot form the estimate")


# ----------------------------------------------------------------------
# clustering and assortativity (no streaming accumulator yet)
# ----------------------------------------------------------------------
def _shared_neighbors(graph: GraphLike, u: int, v: int) -> int:
    """``|N(u) ∩ N(v)|`` on either representation."""
    if isinstance(graph, CSRGraph):
        return int(np.intersect1d(graph.neighbors(u), graph.neighbors(v)).size)
    # Function-local import: clustering.py imports this module at the
    # top level, so the reverse edge must be lazy.
    from repro.estimators.clustering import shared_neighbors

    return shared_neighbors(graph, u, v)


def global_clustering(graph: GraphLike, trace: ArrayWalkTrace) -> float:
    """Vectorized clustering estimator (Section 4.2.4, corrected form).

    The expensive ``|N(v) ∩ N(u)|`` lookup runs once per *distinct*
    sampled edge; the ``1/deg`` normalizer and the pair-count weights
    are pure array arithmetic.
    """
    require_steps(trace)
    # The i-th sample is read as (v_i, u_i) with v_i the source.
    vs, us, counts = _unique_edges(trace.step_sources, trace.step_targets)
    deg_v = degrees_of(graph)[vs]
    mask = deg_v >= 2
    if not mask.any():
        raise ValueError(
            "no sampled edge touches a vertex of degree >= 2;"
            " clustering is undefined on this trace"
        )
    deg_v = deg_v[mask].astype(np.float64)
    weights = counts[mask].astype(np.float64)
    shared = np.fromiter(
        (
            _shared_neighbors(graph, int(v), int(u))
            for v, u in zip(vs[mask], us[mask])
        ),
        dtype=np.float64,
        count=int(mask.sum()),
    )
    pairs = deg_v * (deg_v - 1) / 2.0
    weighted = float((shared / (2.0 * pairs) * weights).sum())
    normalizer = float((weights / deg_v).sum())
    return weighted / normalizer


def _pearson(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray
) -> float:
    """Pearson correlation of weighted (x, y) observations."""
    n = float(weights.sum())
    if n == 0:
        raise ValueError("no edge samples in E*; cannot estimate r")
    mean_x = float((x * weights).sum()) / n
    mean_y = float((y * weights).sum()) / n
    var_x = float((x * x * weights).sum()) / n - mean_x * mean_x
    var_y = float((y * y * weights).sum()) / n - mean_y * mean_y
    if var_x <= 0 or var_y <= 0:
        # Degenerate degree spread: same graceful 0.0 as the tuple loop.
        return 0.0
    covariance = float((x * y * weights).sum()) / n - mean_x * mean_y
    return covariance / math.sqrt(var_x * var_y)


def assortativity(graph: GraphLike, trace: ArrayWalkTrace) -> float:
    """Undirected degree-degree correlation over the sampled edges."""
    degrees = degrees_of(graph)
    x = degrees[trace.step_sources].astype(np.float64)
    y = degrees[trace.step_targets].astype(np.float64)
    return _pearson(x, y, np.ones(x.size, dtype=np.float64))


def directed_assortativity(
    digraph: DiGraph, trace: ArrayWalkTrace
) -> float:
    """Directed assortativity with ``E* = E_d`` (arc-existence filter)."""
    if trace.step_targets.size == 0:
        raise ValueError("no edge samples in E*; cannot estimate r")
    us, vs, counts = _unique_edges(trace.step_sources, trace.step_targets)
    mask = np.fromiter(
        (digraph.has_edge(int(u), int(v)) for u, v in zip(us, vs)),
        dtype=bool,
        count=us.size,
    )
    if not mask.any():
        raise ValueError("no edge samples in E*; cannot estimate r")
    out_degrees = np.asarray(digraph.out_degrees(), dtype=np.float64)
    in_degrees = np.asarray(digraph.in_degrees(), dtype=np.float64)
    return _pearson(
        out_degrees[us[mask]],
        in_degrees[vs[mask]],
        counts[mask].astype(np.float64),
    )
