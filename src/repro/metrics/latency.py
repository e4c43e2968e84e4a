"""Latency sample aggregation (average, standard deviation, percentiles).

The samples are one ``array('d')`` cell each, in fixed-size blocks
(:class:`Column`), and nothing else is kept: no sorted copy, and no list
of every sample while a percentile is taken.  A percentile is an order
statistic found by selection (:func:`_order_statistics`): it boxes a few
thousand probe samples and the narrow windows around the wanted ranks,
and :meth:`LatencyStats.percentiles` answers several fractions from one
probe and two passes over the samples.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import chain, compress, repeat
from operator import sub
from typing import Dict, Iterator, List, Sequence, Tuple

# Selection probes at most this many samples, and at most every eighth;
# fewer than twice this many samples are simply sorted.
PROBE_SIZE = 4096
# Cells per block of a :class:`Column`.
BLOCK_SIZE = 1 << 12


class Column:
    """An append-only column of doubles, in blocks of ``BLOCK_SIZE`` cells.

    A full block is never copied again.  One array grown to a run's 200k
    samples is reallocated at every growth step, and the copies it leaves
    behind cost about its own size again in resident memory.
    """

    __slots__ = ("blocks",)

    def __init__(self) -> None:
        self.blocks = [array("d")]

    def extend(self, values: Sequence[float]) -> None:
        start = 0
        while start < len(values):
            last = self.blocks[-1]
            if len(last) == BLOCK_SIZE:
                last = array("d")
                self.blocks.append(last)
            stop = start + BLOCK_SIZE - len(last)
            last.extend(values[start:stop])
            start = stop

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def __iter__(self) -> Iterator[float]:
        return chain.from_iterable(self.blocks)


class LatencyStats:
    """Streaming collection of latency samples with summary statistics."""

    def __init__(self) -> None:
        self._samples = Column()

    def extend(self, latencies: Sequence[float]) -> None:
        if latencies and min(latencies) < 0:
            raise ValueError("latency samples must be non-negative")
        self._samples.extend(array("d", latencies))

    @property
    def count(self) -> int:
        return len(self._samples)

    def average(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def stdev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mean = self.average()
        # Squared and summed in sample order, one at a time: no column of squares.
        squares = map(pow, map(sub, self._samples, repeat(mean)), repeat(2))
        return math.sqrt(sum(squares) / (len(self._samples) - 1))

    def percentiles(self, *fractions: float) -> Tuple[float, ...]:
        """The linear-interpolated percentile of each of ``fractions`` (in [0, 1]), from one selection."""
        if not all(0.0 <= fraction <= 1.0 for fraction in fractions):
            raise ValueError("percentile fraction must lie in [0, 1]")
        samples = self._samples
        if not samples:
            return (0.0,) * len(fractions)
        positions = [fraction * (len(samples) - 1) for fraction in fractions]
        ranks = sorted({end for position in positions for end in (math.floor(position), math.ceil(position))})
        ordered = dict(zip(ranks, _order_statistics(samples, ranks)))
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


def _order_statistics(samples: Column, ranks: List[int]) -> List[float]:
    """``sorted(samples)[rank]`` for each of the ascending ``ranks``.

    The probe, every ``stride``-th sample of each block sorted, brackets
    each rank between the probe values ``margin`` places either side of
    where the rank falls in it: four standard errors of a sample median,
    more elsewhere.  Each bracket end and its successor float are edges
    of value regions; one pass files every sample into its region, a
    byte each, and the regions are counted.  A rank whose region holds
    one value is answered by the counts; the samples of every other
    region holding a rank are collected in a second pass and sorted, and
    nothing else is.  Where the probe misleads, a region to sort is
    wider, never wrong.
    """
    if len(samples) < 2 * PROBE_SIZE:
        ordered = sorted(samples)
        return [ordered[rank] for rank in ranks]
    stride = max(8, len(samples) // PROBE_SIZE)
    probe = sorted(chain.from_iterable(block[::stride] for block in samples.blocks))
    last = len(probe) - 1
    margin = 2 * math.isqrt(last)
    edges = set()
    for rank in ranks:
        at = rank * last // (len(samples) - 1)
        for end in (at - margin, at + margin):
            if 0 < end < last:
                edges.update((probe[end], math.nextafter(probe[end], math.inf)))
    edges = sorted(edges)
    regions = bytes(map(bisect_right, repeat(edges), samples))
    # ``starts[r]``: how many samples lie below region ``r``.
    starts = [0]
    for region in range(len(edges)):
        starts.append(starts[-1] + regions.count(region))
    starts.append(len(samples))
    found = [bisect_right(starts, rank) - 1 for rank in ranks]
    single = {
        region for region in found
        if 0 < region < len(edges) and edges[region] == math.nextafter(edges[region - 1], math.inf)
    }
    wanted = sorted(set(found) - single)
    selected = bytearray(256)
    offsets = {}
    collected = 0
    for region in wanted:
        selected[region] = 1
        offsets[region] = collected - starts[region]
        collected += starts[region + 1] - starts[region]
    members = sorted(compress(samples, regions.translate(selected))) if wanted else []
    return [
        edges[region - 1] if region in single else members[offsets[region] + rank]
        for rank, region in zip(ranks, found)
    ]
