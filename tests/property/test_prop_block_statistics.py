"""Statistics read one ordered block at a time, against the sorted oracle.

``LatencyStats`` keeps one array per ordered block, in sample order; a
percentile brackets each rank from a probe strided across all samples,
then sorts each block on its own and bisects it.  ``MetricsCollector``
keeps one nondecreasing array of finality times per block, and
throughput counts each with one comparison or one ``bisect``.  The
oracles sort every sample (``tests/reference_collector.percentile``) and
compare every finality time with the duration.

Generated block sets cover thousands of blocks of one to three samples,
blocks in descending order, blocks of equal samples, samples laid out so
that the strided probe sees one value only, and ``0.0`` next to
``-0.0``, where the sample returned must be the one a stable sort of
every sample puts at the rank.  A duration is drawn on a finality time
as often as not.  Floats are compared as ``float.hex``.
"""

import contextlib
from array import array
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import latency as latency_module
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyStats
from tests.reference_collector import percentile

FRACTIONS = (0.0, 0.25, 0.5, 0.95, 0.99, 1.0)


@contextlib.contextmanager
def probe_size(size):
    saved = latency_module.PROBE_SIZE
    latency_module.PROBE_SIZE = size
    try:
        yield
    finally:
        latency_module.PROBE_SIZE = saved


def selected(blocks, fractions):
    stats = LatencyStats()
    for block in blocks:
        stats.extend(block)
    return [value.hex() for value in stats.percentiles(*fractions)]


def sorted_percentiles(blocks, fractions):
    ordered = sorted(chain.from_iterable(blocks))
    return [percentile(ordered, fraction).hex() for fraction in fractions]


def cut(samples, sizes):
    """``samples`` in consecutive blocks of the sizes ``sizes`` cycles through."""
    blocks, start, turn = [], 0, 0
    while start < len(samples):
        size = sizes[turn % len(sizes)]
        blocks.append(samples[start:start + size])
        start += size
        turn += 1
    return blocks


# Zeros of both signs, ties, or any non-negative finite float.
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_small_blocks = st.lists(st.lists(_values, min_size=1, max_size=3), min_size=1, max_size=400)
_block_sets = st.one_of(
    _small_blocks,
    # Each block descending.
    _small_blocks.map(lambda blocks: [sorted(block, reverse=True) for block in blocks]),
    # Each block all equal.
    st.lists(
        st.builds(lambda value, size: [value] * size, _values, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=400,
    ),
    # Periodic across blocks: every ``period``-th sample is the smallest.
    st.builds(
        lambda period, count, sizes: cut([float(index % period) for index in range(count)], sizes),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=800),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    ),
)
_fractions = st.lists(
    st.one_of(st.sampled_from(FRACTIONS), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(blocks=_block_sets, fractions=_fractions, probe=st.sampled_from([2, 3, 8, 32, 128, 8192]))
def test_block_wise_selection_is_the_sorted_percentile(blocks, fractions, probe):
    with probe_size(probe):
        assert selected(blocks, fractions) == sorted_percentiles(blocks, fractions)


def test_thousands_of_small_blocks_at_the_real_probe_size():
    """Above twice ``PROBE_SIZE``, in blocks of one to three samples: zeros
    of both signs, ascending and descending blocks, and a layout whose
    strided probe holds one value, so every bracket misses its rank."""
    count = 2 * latency_module.PROBE_SIZE + 7 * 1021
    stride = max(8, count // latency_module.PROBE_SIZE)
    signed_zeros = [(-0.0 if index % 3 else 0.0) if index % 5 else float(index % 7) for index in range(count)]
    scattered = [(index * 7919) % 1009 / 8 for index in range(count)]
    layouts = {
        "signed-zeros": cut(signed_zeros, [1, 2, 3]),
        "descending": [sorted(block, reverse=True) for block in cut(scattered, [3, 1, 2])],
        "misleading-probe": cut([float(index % stride) for index in range(count)], [2, 3, 1]),
        "all-equal": cut([2.5] * count, [3]),
    }
    for name, blocks in layouts.items():
        assert len(blocks) > 4000, name
        assert selected(blocks, FRACTIONS) == sorted_percentiles(blocks, FRACTIONS), name


def test_the_zero_returned_is_the_one_a_stable_sort_puts_at_the_rank():
    # Ranks 0-3 are all zeros; -0.0 comes first in sample order, then 0.0.
    with probe_size(2):
        for blocks in ([[-0.0, 1.0], [0.0], [-0.0, 0.0, 3.0]], [[0.0, -0.0], [2.0, -0.0], [0.0]]):
            ordered = sorted(chain.from_iterable(blocks))
            for rank in range(len(ordered)):
                fraction = rank / (len(ordered) - 1)
                assert selected(blocks, [fraction]) == [percentile(ordered, fraction).hex()]


# -- throughput, one block of finality times at a time -------------------------------------------

_finality_times = st.one_of(st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0]), st.floats(min_value=0.0, max_value=4.0))
_finality_blocks = st.lists(st.lists(_finality_times, min_size=1, max_size=5).map(sorted), max_size=60)


@settings(max_examples=300, deadline=None)
@given(
    blocks=_finality_blocks,
    duration=st.one_of(st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0]), st.floats(min_value=0.0, max_value=5.0)),
    on_a_time=st.booleans(),
    warmup=st.sampled_from([0.0, 0.25]),
)
def test_block_wise_throughput_counts_what_a_comparison_of_every_time_counts(blocks, duration, on_a_time, warmup):
    times = list(chain.from_iterable(blocks))
    if on_a_time and times:
        duration = times[len(times) // 2]
    collector = MetricsCollector(warmup=warmup)
    collector.finality_blocks = [array("d", block) for block in blocks]
    window = duration - warmup
    expected = sum(1 for time in times if time <= duration) / window if window > 0 else 0.0
    assert collector.throughput(duration).hex() == expected.hex()
