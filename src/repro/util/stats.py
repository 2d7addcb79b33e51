"""Small statistics helpers: online moments and empirical distributions.

The experiment harness aggregates thousands of replicated estimates per
degree bin; Welford-style online moments keep that memory-light and
numerically stable.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence


class OnlineMoments:
    """Welford accumulator for count, mean and (unbiased) variance."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def update(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for v in values:
            self.add(v)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (requires >= 2 observations)."""
        if self._count < 2:
            raise ValueError("variance requires at least two observations")
        return self._m2 / (self._count - 1)

    @property
    def population_variance(self) -> float:
        """Biased (population) variance (requires >= 1 observation)."""
        if self._count == 0:
            raise ValueError("no observations")
        return self._m2 / self._count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def mean_squared_about(self, reference: float) -> float:
        """E[(X - reference)^2] over the observations seen so far."""
        if self._count == 0:
            raise ValueError("no observations")
        return self.population_variance + (self._mean - reference) ** 2

    def merge(self, other: "OnlineMoments") -> "OnlineMoments":
        """Return a new accumulator equal to processing both streams."""
        merged = OnlineMoments()
        n = self._count + other._count
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._count = n
        if n > 0:
            merged._mean = (
                self._mean * self._count + other._mean * other._count
            ) / n
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self._count * other._count / n
            if n > 0
            else 0.0
        )
        return merged


def normalize_counts(counts: Mapping[int, float]) -> Dict[int, float]:
    """Normalize a histogram into a probability mass function."""
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("counts must sum to a positive total")
    return {k: v / total for k, v in counts.items()}


def dense_pmf(pmf: Mapping[int, float]) -> Dict[int, float]:
    """Zero-fill a pmf on ``0 .. max(support)``."""
    if not pmf:
        raise ValueError("empty pmf")
    top = max(pmf)
    return {k: pmf.get(k, 0.0) for k in range(top + 1)}


def empirical_pmf(values: Iterable[int]) -> Dict[int, float]:
    """Empirical probability mass function of an integer sample."""
    counts: Dict[int, float] = {}
    n = 0
    for v in values:
        counts[v] = counts.get(v, 0.0) + 1.0
        n += 1
    if n == 0:
        raise ValueError("empirical_pmf requires at least one value")
    return {k: c / n for k, c in counts.items()}


def ccdf_from_pmf(pmf: Mapping[int, float]) -> Dict[int, float]:
    """Complementary CDF ``gamma_l = sum_{k > l} pmf_k`` on the pmf's support.

    Matches the paper's definition (eq. 2): ``gamma_l`` is the
    probability of a value *strictly greater* than ``l``.
    """
    if not pmf:
        raise ValueError("pmf must be non-empty")
    keys = sorted(pmf)
    ccdf: Dict[int, float] = {}
    tail = 0.0
    for k in reversed(keys):
        ccdf[k] = tail  # strictly-greater mass
        tail += pmf[k]
    return {k: ccdf[k] for k in keys}


def total_variation(p: Mapping[int, float], q: Mapping[int, float]) -> float:
    """Total-variation distance between two pmfs on integer support."""
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in support)


def mean_of_pmf(pmf: Mapping[int, float]) -> float:
    """Expected value of an integer-supported pmf."""
    return sum(k * v for k, v in pmf.items())


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return sorted_values[lo]
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def histogram(values: Iterable[float], edges: Sequence[float]) -> List[int]:
    """Counts of values per half-open bin ``[edges[i], edges[i+1])``."""
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    counts = [0] * (len(edges) - 1)
    for v in values:
        for i in range(len(edges) - 1):
            if edges[i] <= v < edges[i + 1]:
                counts[i] += 1
                break
    return counts
