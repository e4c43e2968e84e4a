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
from repro.sim.runner import SimulationRunner


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

    def test_a_ring_filled_exactly_is_complete(self):
        tracer = MemoryTracer(max_events=5)
        fill(tracer, 5)
        assert tracer.dropped == 0
        assert [event["kind"] for event in tracer.export_events()] == ["vertex_inserted"] * 5
        fill(tracer, 1)
        assert tracer.dropped == 1
        assert tracer.export_events()[0]["kind"] == "trace_truncated"

    def test_export_leaves_the_ring_intact(self):
        tracer = MemoryTracer(max_events=2)
        fill(tracer, 3)
        assert tracer.export_events() == tracer.export_events()
        fill(tracer, 2)
        marker, *events = tracer.export_events()
        assert (marker["dropped"], marker["kept"]) == (3, 2)
        assert [event["round"] for event in events] == [0, 1]

    def test_events_and_marker_carry_the_injected_clock(self):
        now = [0.0]
        tracer = MemoryTracer(clock=lambda: now[0], max_events=2)
        for step in range(4):
            now[0] = 1.5 * step
            tracer.emit("vertex_inserted", round=step, source=0)
        marker, *events = tracer.export_events()
        assert [event["t"] for event in events] == [3.0, 4.5]
        assert marker["t"] == 3.0

    @pytest.mark.parametrize("limit", [0, -1])
    def test_non_positive_bound_refused(self, limit):
        # A zero bound used to keep every event yet report one dropped.
        with pytest.raises(ValueError, match="max_events"):
            MemoryTracer(max_events=limit)

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


class TestBoundedRun:
    def test_a_bounded_run_keeps_the_newest_window_of_the_full_stream(self):
        base = ExperimentConfig(
            committee_size=4,
            faults=0,
            input_load_tps=200.0,
            duration=4.0,
            warmup=1.0,
            seed=5,
            trace=True,
        )
        full = SimulationRunner(base)
        full_result = full.run()
        bounded = SimulationRunner(base.with_overrides(trace_limit=40))
        bounded_result = bounded.run()
        assert full.tracer.dropped == 0
        assert len(full.tracer.events) > 40
        assert list(bounded.tracer.events) == full.tracer.events[-40:]
        assert bounded.tracer.dropped == len(full.tracer.events) - 40
        assert bounded_result.ordering_digests == full_result.ordering_digests
