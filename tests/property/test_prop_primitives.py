"""Property-based tests for hashing, stake arithmetic, latency statistics,
and the event queue."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import digest_of
from repro.metrics.latency import LatencyStats
from repro.network.events import EventQueue
from repro.types import quorum_threshold, split_evenly, validity_threshold

# Values the canonical serializer supports.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.text(max_size=30),
    st.binary(max_size=30),
)
canonical_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


class TestHashingProperties:
    @given(canonical_values)
    @settings(max_examples=200)
    def test_digest_is_deterministic(self, value):
        assert digest_of(value) == digest_of(value)

    @given(canonical_values)
    @settings(max_examples=200)
    def test_digest_is_32_bytes(self, value):
        assert len(digest_of(value)) == 32

    @given(st.dictionaries(st.text(max_size=6), st.integers(), min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_dict_digest_ignores_insertion_order(self, mapping):
        reversed_mapping = dict(reversed(list(mapping.items())))
        assert digest_of(mapping) == digest_of(reversed_mapping)

    @given(st.lists(st.integers(), min_size=2, max_size=6, unique=True))
    @settings(max_examples=100)
    def test_list_digest_depends_on_order(self, values):
        assert digest_of(values) != digest_of(list(reversed(values)))


class TestStakeThresholdProperties:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_quorum_majority(self, total):
        # Any two quorums overlap in more than f stake.
        assert 2 * quorum_threshold(total) > total

    @given(st.integers(min_value=1, max_value=10**9))
    def test_quorum_and_validity_intersect(self, total):
        assert quorum_threshold(total) + validity_threshold(total) > total

    @given(st.integers(min_value=1, max_value=10**9))
    def test_thresholds_do_not_exceed_total(self, total):
        assert validity_threshold(total) <= quorum_threshold(total) <= total + 1

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=500))
    def test_split_evenly_preserves_total_and_balance(self, amount, parts):
        split = split_evenly(amount, parts)
        assert sum(split) == amount
        assert len(split) == parts
        assert max(split) - min(split) <= 1


class TestLatencyStatsProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=150)
    def test_percentiles_are_monotone_and_bounded(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        p50, p95, p99 = stats.percentiles(0.50, 0.95, 0.99)
        assert min(samples) <= p50 <= p95 <= p99 <= max(samples)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=150)
    def test_average_is_bounded_by_extremes(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        assert min(samples) - 1e-9 <= stats.average() <= max(samples) + 1e-9

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=2, max_size=100))
    @settings(max_examples=100)
    def test_stdev_is_non_negative_and_finite(self, samples):
        stats = LatencyStats()
        stats.extend(samples)
        assert stats.stdev() >= 0.0
        assert math.isfinite(stats.stdev())


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_events_pop_in_non_decreasing_time_order(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, lambda: None)
        popped = []
        while len(queue):
            popped.append(queue.pop().time)
        assert popped == sorted(times)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_cancelled_events_never_pop(self, entries):
        queue = EventQueue()
        expected = []
        for time, keep in entries:
            handle = queue.push(time, lambda: None)
            if keep:
                expected.append(time)
            else:
                handle.cancel()
                queue.note_cancelled()
        popped = []
        while len(queue):
            popped.append(queue.pop().time)
        assert popped == sorted(expected)
