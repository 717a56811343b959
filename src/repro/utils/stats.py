"""Small statistics helpers shared by the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper reports GeoMean for speedups (Section VI)."""
    items = [float(v) for v in values]
    if not items:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in items):
        raise ValueError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest observed value whose cumulative
    frequency is at least ``pct`` percent.

    This is the convention used for latency SLOs (a p99 of X means 99 % of
    requests finished within X); it always returns an actual sample, never an
    interpolated one.
    """
    return percentiles(values, (pct,))[0]


def percentiles(values: Sequence[float], pcts: Sequence[float]) -> List[float]:
    """:func:`percentile` at each of ``pcts``, read from one sort of ``values``."""
    if not values:
        raise ValueError("percentile of empty sequence")
    for pct in pcts:
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(map(float, values))
    n = len(ordered)
    return [ordered[math.ceil(pct / 100.0 * n) - 1] for pct in pcts]


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Arithmetic mean of ``values`` weighted by ``weights``."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ValueError("weights must sum to a positive value")
    return sum(v * w for v, w in zip(values, weights)) / total_weight


@dataclass
class Accumulator:
    """Streaming min/max/mean/variance accumulator (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = field(default=math.inf)
    maximum: float = field(default=-math.inf)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Population variance of the observed samples."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count
