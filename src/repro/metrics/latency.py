"""Latency sample aggregation (average, standard deviation, percentiles).

The sorted view of the samples is computed lazily and cached: recording a
sample invalidates the cache, and every percentile query (or a full
``summary()``) reuses the same sorted list instead of re-sorting per
call.  ``summary()`` additionally computes all of its statistics in one
pass over that single sorted view.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from operator import sub
from typing import Dict, List, Optional, Sequence


class LatencyStats:
    """Streaming collection of latency samples with summary statistics."""

    def __init__(self) -> None:
        self._samples = array("d")
        # Cached ascending view of ``_samples``; ``None`` when stale.
        self._sorted: Optional[array] = None

    def record(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency samples must be non-negative")
        self._samples.append(latency)
        self._sorted = None

    def extend(self, latencies: Sequence[float]) -> None:
        if not latencies:
            return
        if min(latencies) < 0:
            raise ValueError("latency samples must be non-negative")
        self._samples += array("d", latencies)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def _sorted_samples(self) -> array:
        if self._sorted is None:
            self._sorted = array("d", sorted(self._samples))
        return self._sorted

    def average(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def stdev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        return self._stdev_given_mean(self.average())

    def _stdev_given_mean(self, mean: float) -> float:
        # Squared and summed in sample order, one at a time: no column of squares.
        squares = map(pow, map(sub, self._samples, repeat(mean)), repeat(2))
        return math.sqrt(sum(squares) / (len(self._samples) - 1))

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile, ``fraction`` in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must lie in [0, 1]")
        if not self._samples:
            return 0.0
        return self._percentile_of(self._sorted_samples(), fraction)

    @staticmethod
    def _percentile_of(ordered: Sequence[float], fraction: float) -> float:
        if len(ordered) == 1:
            return ordered[0]
        position = fraction * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        low_value = ordered[lower]
        # ``a + w * (b - a)`` rather than ``a*(1-w) + b*w``: the latter
        # takes two independently rounded products, so a *higher*
        # percentile in the same bracket can round below a lower one
        # (observed with values near 1e6: p95 -> 1000000.0 but
        # p99 -> 999999.9999999999).  The single-product form is
        # monotone in ``weight``, which keeps p50 <= p95 <= p99.
        interpolated = low_value + weight * (ordered[upper] - low_value)
        # Clamp to the bracketing samples: the arithmetic can still round
        # just outside the bracket at the extremes.
        return min(max(interpolated, low_value), ordered[upper])

    def p50(self) -> float:
        return self.percentile(0.50)

    def p95(self) -> float:
        return self.percentile(0.95)

    def p99(self) -> float:
        return self.percentile(0.99)

    def maximum(self) -> float:
        if not self._samples:
            return 0.0
        return self._sorted_samples()[-1]

    def summary(self) -> Dict[str, float]:
        """All summary statistics from a single sorted view of the samples."""
        if not self._samples:
            return {
                "count": 0.0,
                "avg": 0.0,
                "stdev": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        ordered = self._sorted_samples()
        mean = sum(ordered) / len(ordered)
        return {
            "count": float(len(ordered)),
            "avg": mean,
            "stdev": self._stdev_given_mean(mean) if len(ordered) >= 2 else 0.0,
            "p50": self._percentile_of(ordered, 0.50),
            "p95": self._percentile_of(ordered, 0.95),
            "p99": self._percentile_of(ordered, 0.99),
            "max": ordered[-1],
        }
