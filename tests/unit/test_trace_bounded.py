"""Unit tests for the bounded (ring-buffer) tracer mode.

``MemoryTracer(max_events=N)`` keeps at most N events, evicting the
oldest first, and :meth:`export_events` prefixes a single
``trace_truncated`` marker (``dropped``/``kept`` fields) whenever
anything was evicted — the JSONL contract that lets consumers tell a
bounded trace from a complete one.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs.trace import KNOWN_KINDS, MemoryTracer, event_lines
from repro.sim.experiment import ExperimentConfig


def fill(tracer, count):
    for index in range(count):
        tracer.emit("vertex_inserted", round=index, source=0)


class TestRingBuffer:
    def test_under_capacity_keeps_everything(self):
        tracer = MemoryTracer(max_events=10)
        fill(tracer, 7)
        assert len(tracer.events) == 7
        assert tracer.dropped == 0
        events = tracer.export_events()
        assert len(events) == 7
        assert [event["round"] for event in events] == list(range(7))

    def test_overflow_evicts_oldest_first(self):
        tracer = MemoryTracer(max_events=5)
        fill(tracer, 12)
        assert len(tracer.events) == 5
        assert tracer.dropped == 7
        kept = [event["round"] for event in tracer.events]
        assert kept == [7, 8, 9, 10, 11]  # newest five survive

    def test_export_prepends_truncation_marker(self):
        tracer = MemoryTracer(max_events=3)
        fill(tracer, 5)
        events = tracer.export_events()
        marker = events[0]
        assert marker["kind"] == "trace_truncated"
        assert marker["dropped"] == 2
        assert marker["kept"] == 3
        # Stamped with the oldest retained event's time, so the marker
        # sorts first in any time-ordered view of the stream.
        assert marker["t"] == events[1]["t"]
        assert [event["round"] for event in events[1:]] == [2, 3, 4]

    def test_truncation_marker_is_a_known_kind(self):
        assert "trace_truncated" in KNOWN_KINDS

    def test_marker_serializes_like_any_event(self):
        tracer = MemoryTracer(max_events=1)
        fill(tracer, 2)
        lines = event_lines(tracer.export_events(), point="p", seed=1)
        assert len(lines) == 2
        assert '"kind":"trace_truncated"' in lines[0]

    def test_unbounded_tracer_unchanged(self):
        tracer = MemoryTracer()
        fill(tracer, 4)
        assert tracer.max_events is None
        assert tracer.dropped == 0
        assert isinstance(tracer.events, list)
        assert tracer.export_events() == list(tracer.events)


class TestConfigValidation:
    def test_positive_limit_accepted(self):
        ExperimentConfig(trace=True, trace_limit=100).validate()

    def test_none_limit_accepted(self):
        ExperimentConfig(trace=True, trace_limit=None).validate()

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_limit_rejected(self, limit):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(trace=True, trace_limit=limit).validate()
