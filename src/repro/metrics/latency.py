"""Latency sample aggregation (average, standard deviation, percentiles).

The samples are kept as they are recorded: one ``array('d')`` per
ordered block, in sample order, and nothing else — no sorted copy, and
no list of every sample while a percentile is taken.  The average and
the standard deviation read the samples in that order.  A percentile is
an order statistic found by selection (:func:`_order_statistics`): a
probe strided across every sample brackets each wanted rank, and each
block, sorted on its own and let go, is bisected at the brackets; only
the samples inside a bracket are kept and sorted together.
:meth:`LatencyStats.percentiles` answers several fractions from one
probe and one pass over the blocks.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, islice, repeat
from operator import sub
from typing import Dict, List, Sequence, Tuple

# Selection probes at most this many samples, and at most every eighth;
# fewer than twice this many samples are simply sorted.
PROBE_SIZE = 4096


class LatencyStats:
    """Streaming collection of latency samples with summary statistics."""

    def __init__(self) -> None:
        # One array per ``extend``, none empty; ``count`` cells in all.
        self.blocks: List[array] = []
        self.count = 0

    def extend(self, latencies: Sequence[float]) -> None:
        block = array("d", latencies)
        if not block:
            return
        if min(block) < 0:
            raise ValueError("latency samples must be non-negative")
        self.blocks.append(block)
        self.count += len(block)

    def average(self) -> float:
        if not self.count:
            return 0.0
        return sum(chain.from_iterable(self.blocks)) / self.count

    def stdev(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.average()
        # Squared and summed in sample order, one at a time: no column of squares.
        squares = map(pow, map(sub, chain.from_iterable(self.blocks), repeat(mean)), repeat(2))
        return math.sqrt(sum(squares) / (self.count - 1))

    def percentiles(self, *fractions: float) -> Tuple[float, ...]:
        """The linear-interpolated percentile of each of ``fractions`` (in [0, 1]), from one selection."""
        if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
            raise ValueError("percentile fraction must lie in [0, 1]")
        if not self.count:
            return (0.0,) * len(fractions)
        positions = [fraction * (self.count - 1) for fraction in fractions]
        ranks = sorted({end for position in positions for end in (math.floor(position), math.ceil(position))})
        ordered = dict(zip(ranks, _order_statistics(self.blocks, self.count, ranks)))
        return tuple(_interpolate(ordered, position) for position in positions)

    def p50(self) -> float:
        return self.percentiles(0.50)[0]

    def p95(self) -> float:
        return self.percentiles(0.95)[0]


def _interpolate(ordered: Dict[int, float], position: float) -> float:
    """The value at fractional rank ``position`` between its two bracketing ranks."""
    lower = math.floor(position)
    upper = math.ceil(position)
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


def _order_statistics(blocks: List[array], count: int, ranks: List[int]) -> List[float]:
    """``sorted(chain(*blocks))[rank]`` for each of the ascending ``ranks``;
    ``count`` samples in all.

    The probe, every ``stride``-th sample across all the blocks (a
    stride per block would see little but their first samples), sorted,
    brackets each rank between the probe values ``margin`` places either
    side of where the rank falls in it: four standard errors of a sample
    median, more elsewhere.  One pass sorts each block on its own and
    bisects it at every bracket, counting the samples below a bracket
    and keeping those inside; the kept samples of a bracket, sorted,
    answer its ranks.  Blocks are kept in sample order and sorts are
    stable, so of equal samples (``0.0`` and ``-0.0``) the one answered
    is the one a sort of every sample puts at the rank.  Where the probe
    misleads, the bracket is opened on that side and the pass repeated:
    wider, never wrong.
    """
    if count < 2 * PROBE_SIZE:
        ordered = sorted(chain.from_iterable(blocks))
        return [ordered[rank] for rank in ranks]
    stride = max(8, count // PROBE_SIZE)
    probe = sorted(islice(chain.from_iterable(blocks), 0, None, stride))
    last = len(probe) - 1
    margin = 2 * math.isqrt(last)
    brackets: Dict[int, Tuple[float, float]] = {}
    for rank in ranks:
        at = rank * last // (count - 1)
        low = probe[at - margin] if at - margin > 0 else -math.inf
        high = probe[at + margin] if at + margin < last else math.inf
        brackets[rank] = (low, high)
    found: Dict[int, float] = {}
    while brackets:
        wanted = sorted(set(brackets.values()))
        below = [0] * len(wanted)
        inside: List[List[float]] = [[] for _ in wanted]
        for block in blocks:
            ordered = sorted(block)
            for index, (low, high) in enumerate(wanted):
                first = bisect_left(ordered, low)
                below[index] += first
                inside[index] += ordered[first:bisect_right(ordered, high, first)]
        for (low, high), under, members in zip(wanted, below, map(sorted, inside)):
            for rank in [rank for rank, bracket in brackets.items() if bracket == (low, high)]:
                if rank < under:
                    brackets[rank] = (-math.inf, high)
                elif rank >= under + len(members):
                    brackets[rank] = (low, math.inf)
                else:
                    found[rank] = members[rank - under]
                    del brackets[rank]
    return [found[rank] for rank in ranks]
