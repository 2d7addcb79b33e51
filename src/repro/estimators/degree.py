"""Degree distribution estimators (PMF and CCDF).

The experiments estimate in-degree, out-degree and symmetric-degree
distributions.  The *degree label* of a vertex (what we histogram) is
decoupled from the *walking degree* (what reweights observations):
a walker on the symmetric graph ``G`` visits ``v`` proportionally to
``deg_G(v)`` even when the quantity of interest is ``indeg_{G_d}(v)``.

All estimators return dense dicts over ``0 .. max_observed`` so CCDFs
and error curves line up across methods.

The walk-trace estimators are one-increment runs of
:class:`~repro.estimators.streaming.StreamingDegreePMF`, so a batch
estimate, a drained run and a fused run share one implementation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.estimators._vectorized import require_steps
from repro.estimators.streaming import DegreeOf, StreamingDegreePMF
from repro.graph.graph import Graph
from repro.sampling.base import WalkTrace
from repro.util.stats import ccdf_from_pmf, dense_pmf


def degree_pmf_from_trace(
    graph: Graph,
    trace: WalkTrace,
    degree_of: Optional[DegreeOf] = None,
) -> Dict[int, float]:
    """Estimate ``theta_i`` for every degree ``i`` via eq. (7).

    ``degree_of`` maps a vertex to its degree *label* (defaults to the
    symmetric walking degree).  The reweighting always uses the
    symmetric degree — that is the visit bias, whatever the label.
    """
    require_steps(trace)
    return StreamingDegreePMF(graph, degree_of).update(trace).estimate()


def degree_ccdf_from_trace(
    graph: Graph,
    trace: WalkTrace,
    degree_of: Optional[DegreeOf] = None,
) -> Dict[int, float]:
    """Estimated CCDF ``gamma_i = sum_{k > i} theta_k`` (eq. 2's target)."""
    return ccdf_from_pmf(degree_pmf_from_trace(graph, trace, degree_of))


def degree_pmf_from_vertices(
    vertices: Sequence[int],
    degree_of: DegreeOf,
) -> Dict[int, float]:
    """Empirical degree pmf from *uniform* vertex samples.

    The straightforward estimator of Section 3's random vertex
    sampling: each valid sample contributes ``1/n`` to its degree bin.
    """
    if not vertices:
        raise ValueError("no vertex samples; cannot form the estimate")
    counts: Dict[int, float] = {}
    for v in vertices:
        key = degree_of(v)
        counts[key] = counts.get(key, 0.0) + 1.0
    n = len(vertices)
    return dense_pmf({k: c / n for k, c in counts.items()})


def degree_ccdf_from_vertices(
    vertices: Sequence[int],
    degree_of: DegreeOf,
) -> Dict[int, float]:
    """Empirical CCDF from uniform vertex samples."""
    return ccdf_from_pmf(degree_pmf_from_vertices(vertices, degree_of))
