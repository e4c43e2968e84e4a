"""Percentiles by selection against percentiles of the sorted list, bit for bit.

``LatencyStats`` answers a percentile from a strided probe, one pass
filing the samples into regions between bracket edges and a sort of the
regions the wanted ranks fall into; the oracle sorts every sample and
interpolates (``tests/reference_collector.percentile``).  Generated
sample sets cover ties, a single sample, all-equal samples, runs already
in order, and periodic runs whose strided probe sees one value only;
the probe size is drawn too, so counts below and above it both occur.
Floats are compared as ``float.hex``.
"""

import contextlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import latency as latency_module
from repro.metrics.latency import LatencyStats
from tests.reference_collector import percentile


@contextlib.contextmanager
def probe_size(size):
    saved = latency_module.PROBE_SIZE
    latency_module.PROBE_SIZE = size
    try:
        yield
    finally:
        latency_module.PROBE_SIZE = saved


def selected(samples, fractions):
    stats = LatencyStats()
    stats.extend(samples)
    return [value.hex() for value in stats.percentiles(*fractions)]


def sorted_percentiles(samples, fractions):
    ordered = sorted(samples)
    return [percentile(ordered, fraction).hex() for fraction in fractions]


# Few distinct values (ties) or any non-negative finite float.
_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_samples = st.one_of(
    st.lists(_values, min_size=1, max_size=600),
    # All equal.
    st.builds(lambda value, count: [value] * count, _values, st.integers(min_value=1, max_value=600)),
    # Already in order, either way.
    st.builds(lambda values, reverse: sorted(values, reverse=reverse), st.lists(_values, min_size=1, max_size=600), st.booleans()),
    # Periodic: every ``period``-th sample is the smallest.
    st.builds(
        lambda period, count: [float(index % period) for index in range(count)],
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=600),
    ),
)
_fractions = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 0.95, 0.99, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(samples=_samples, fractions=_fractions, probe=st.sampled_from([2, 3, 8, 32, 128, 8192]))
def test_selection_is_the_sorted_percentile(samples, fractions, probe):
    with probe_size(probe):
        assert selected(samples, fractions) == sorted_percentiles(samples, fractions)


def test_selection_at_the_real_probe_size():
    """Above twice ``PROBE_SIZE``: latencies with ties, and a periodic run
    whose strided probe holds one value, so p50 falls outside every bracket."""
    rng = random.Random(5)
    count = 2 * latency_module.PROBE_SIZE + 7 * 1021
    latencies = [round(rng.lognormvariate(0.7, 0.4), 3) for _ in range(count)]
    # The probe's stride, so every probed sample is the smallest value.
    stride = max(8, count // latency_module.PROBE_SIZE)
    periodic = [float(index % stride) for index in range(count)]
    for samples in (latencies, periodic, [2.5] * count):
        assert selected(samples, [0.5, 0.95]) == sorted_percentiles(samples, [0.5, 0.95])
