"""Unit tests for the observability layer (repro.obs).

Covers the tracer protocol and its zero-overhead elision contract, the
instrumentation registry, the wall-clock profiler's self-time
attribution, the causal trace queries, and the ``python -m repro.obs``
CLI surface over synthetic traces (the full pipeline is exercised by
tests/integration/test_observability.py).
"""

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    InstrumentationRegistry,
    MemoryTracer,
    NullTracer,
    Tracer,
)
from repro.obs import query
from repro.obs.cli import main as obs_main
from repro.obs.profiler import WallclockProfiler
from repro.obs.registry import Histogram, estimate_wire_bytes
from repro.obs.trace import KNOWN_KINDS, event_lines, write_events

from tests.cli_contract import assert_error_contract, run_cli


class TestTracerProtocol:
    def test_null_tracer_is_disabled_and_silent(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.emit("vertex_proposed", round=1) is None
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_TRACER, Tracer)

    def test_memory_tracer_records_with_injected_clock(self):
        ticks = iter([1.5, 2.5])
        tracer = MemoryTracer(clock=lambda: next(ticks))
        tracer.emit("vertex_proposed", node=0, round=1)
        tracer.emit("anchor_committed", node=0, round=2, leader=1)
        assert len(tracer) == 2
        first, second = tracer.events
        assert first == {"kind": "vertex_proposed", "t": 1.5, "node": 0, "round": 1}
        assert second["t"] == 2.5

    def test_default_clock_is_zero_not_wallclock(self):
        tracer = MemoryTracer()
        tracer.emit("dag_gc", removed=3)
        assert tracer.events[0]["t"] == 0.0

    def test_event_kinds_catalogue_is_unique_and_described(self):
        assert len(KNOWN_KINDS) == len(set(KNOWN_KINDS))
        assert all(description for _, description in EVENT_KINDS)

    def test_event_lines_are_sorted_key_jsonl(self):
        tracer = MemoryTracer()
        tracer.emit("vertex_parked", source=2, round=4, missing=1)
        (line,) = event_lines(tracer.events, point="p", seed=7)
        decoded = json.loads(line)
        assert decoded["point"] == "p" and decoded["seed"] == 7
        assert list(json.loads(line)) == sorted(decoded)

    def test_write_events_round_trips_through_load_trace(self, tmp_path):
        tracer = MemoryTracer()
        tracer.emit("vertex_inserted", node=0, round=1, source=2)
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            count = write_events(handle, tracer.events, point="a", seed=1)
        assert count == 1
        events = query.load_trace(str(path))
        assert events[0]["kind"] == "vertex_inserted"
        assert events[0]["point"] == "a"


class TestRegistry:
    def test_counters_gauges_histograms_snapshot_sorted(self):
        registry = InstrumentationRegistry()
        registry.inc("b.two")
        registry.inc("a.one", 5)
        registry.set_gauge("depth", 3.0)
        registry.observe("fill", 2.0)
        registry.observe("fill", 4.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.one", "b.two"]
        assert snap["counters"]["a.one"] == 5
        assert snap["gauges"]["depth"] == 3.0
        assert snap["histograms"]["fill"] == {
            "count": 2,
            "total": 6.0,
            "mean": 3.0,
            "min": 2.0,
            "max": 4.0,
        }

    def test_empty_registry_snapshots_empty(self):
        assert InstrumentationRegistry().snapshot() == {}

    def test_histogram_single_observation(self):
        histogram = Histogram()
        histogram.observe(7.0)
        snap = histogram.snapshot()
        assert snap["min"] == snap["max"] == snap["mean"] == 7.0

    def test_count_message_accounts_type_and_bytes(self):
        class FakeAck:
            signers = (1, 2, 3)

        registry = InstrumentationRegistry()
        registry.count_message(FakeAck(), copies=4)
        snap = registry.snapshot()["counters"]
        assert snap["messages.FakeAck"] == 4
        assert snap["bytes.FakeAck"] == estimate_wire_bytes(FakeAck()) * 4

    def test_wire_bytes_scale_with_structure(self):
        class Bare:
            pass

        class WithVertices:
            vertices = (object(), object())

        assert estimate_wire_bytes(WithVertices()) > estimate_wire_bytes(Bare())


class TestProfiler:
    def test_nested_phases_attribute_self_time(self):
        profiler = WallclockProfiler()
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        snap = profiler.snapshot()
        assert set(snap["phases"]) == {"outer", "inner"}
        assert snap["phases"]["outer"]["calls"] == 1
        assert snap["phases"]["inner"]["calls"] == 1
        assert snap["total_seconds"] >= 0.0

    def test_wrap_counts_calls_and_returns_value(self):
        profiler = WallclockProfiler()
        wrapped = profiler.wrap("rbc", lambda x: x * 2)
        assert wrapped(21) == 42
        assert wrapped(1) == 2
        assert profiler.snapshot()["phases"]["rbc"]["calls"] == 2

    def test_wrap_propagates_exceptions_and_pops(self):
        profiler = WallclockProfiler()

        def boom():
            raise RuntimeError("x")

        wrapped = profiler.wrap("rbc", boom)
        with pytest.raises(RuntimeError):
            wrapped()
        assert profiler._stack == []


def synthetic_trace():
    """A hand-built trace exercising every query path: validator 2 leads
    a skipped anchor at r=6 (never proposed, crashed, policy window
    open) and is demoted at the schedule change."""
    return [
        {"kind": "validator_crashed", "t": 1.0, "validator": 2},
        {
            "kind": "behavior_window_open",
            "t": 1.5,
            "validators": [2],
            "policy": "silent",
            "coordinated": False,
            "window": "2@1.5",
        },
        {"kind": "anchor_committed", "t": 2.0, "node": 0, "round": 4,
         "leader": 1, "direct": True, "vertices": 8},
        {"kind": "message_dropped", "t": 2.5, "sender": 2, "destination": 0,
         "type": "ProposeMessage", "reason": "sender_crashed"},
        {"kind": "anchor_skipped", "t": 3.0, "node": 0, "round": 6,
         "leader": 2, "anchor_present": False, "direct_stake": 0, "threshold": 2},
        {"kind": "schedule_change", "t": 4.0, "node": 0, "epoch": 1,
         "triggered_by_round": 8, "new_initial_round": 10, "scoring": "hammerhead",
         "scores": {"0": 5, "1": 5, "2": 0, "3": 4}, "demoted": [2], "promoted": [0]},
    ]


class TestQueries:
    def test_observer_node_is_lowest_anchor_reporter(self):
        assert query.observer_node(synthetic_trace()) == 0

    def test_observer_node_requires_anchor_events(self):
        with pytest.raises(ReproError, match="no anchor events"):
            query.observer_node([{"kind": "dag_gc", "t": 0.0}])

    def test_timeline_renders_commits_skips_and_schedule(self):
        lines = query.render_timeline(synthetic_trace())
        text = "\n".join(lines)
        assert "commit" in text and "skip" in text and "epoch=1" in text
        assert "demoted=[2]" in text

    def test_timeline_limit_truncates(self):
        lines = query.render_timeline(synthetic_trace(), limit=1)
        assert any("truncated" in line for line in lines)

    def test_first_skipped_round(self):
        assert query.first_skipped_round(synthetic_trace(), 0) == 6
        with pytest.raises(ReproError, match="no skipped anchors"):
            query.first_skipped_round([], 0)

    def test_explain_skip_collects_all_evidence(self):
        text = "\n".join(query.explain_anchor(synthetic_trace(), 6))
        assert "skipped on validator 0" in text
        assert "never proposed" in text
        assert "crashed" in text
        assert "policy" in text
        assert "dropped 1 message(s)" in text

    def test_explain_skip_breaks_drops_down_by_reason(self):
        text = "\n".join(query.explain_anchor(synthetic_trace(), 6))
        assert "(1 sender_crashed)" in text
        # No loss-window drops in the base trace: no window line.
        assert "loss window(s) involved" not in text

    def test_explain_skip_names_loss_windows_and_anchor_broadcast(self):
        """Loss drops carry the disturbance window token and (for
        broadcast envelopes) origin/round — explain surfaces both."""
        trace = synthetic_trace() + [
            {"kind": "message_dropped", "t": 2.6, "sender": 2, "destination": 1,
             "type": "CertificateMessage", "reason": "loss", "window": "8.0-14.0",
             "origin": 2, "round": 5},
            {"kind": "message_dropped", "t": 2.7, "sender": 2, "destination": 3,
             "type": "ProposeMessage", "reason": "loss", "window": "8.0-14.0",
             "origin": 2, "round": 6},
        ]
        text = "\n".join(query.explain_anchor(trace, 6))
        assert "dropped 3 message(s)" in text
        assert "2 loss" in text and "1 sender_crashed" in text
        assert "loss window(s) involved: 8.0-14.0" in text
        assert "1 of them carried the leader's r=6 broadcast itself" in text
        assert "ProposeMessage" in text

    def test_explain_skip_cites_fetch_waste_when_the_anchor_was_parked(self):
        trace = synthetic_trace() + [
            {"kind": "vertex_parked", "t": 2.2, "node": 0, "round": 6, "source": 2, "missing": 1},
            {"kind": "fetch_ingested", "t": 2.3, "node": 0, "responder": 1,
             "received": 6, "new": 4, "parked": 3},
            {"kind": "fetch_ingested", "t": 2.4, "node": 0, "responder": 3,
             "received": 2, "new": 0, "parked": 0},
            # Another validator's fetches, and later ones, are not evidence.
            {"kind": "fetch_ingested", "t": 2.4, "node": 1, "responder": 3,
             "received": 50, "new": 1, "parked": 0},
            {"kind": "fetch_ingested", "t": 99.0, "node": 0, "responder": 3,
             "received": 50, "new": 1, "parked": 0},
        ]
        trace.sort(key=lambda event: event["t"])
        text = "\n".join(query.explain_anchor(trace, 6))
        assert "parked 1x on validator 0" in text
        assert "2 fetch response(s)" in text
        assert "8 vertices received, 4 new to its DAG (received/new 2.00), 3 already parked" in text
        assert "fetch response" not in "\n".join(query.explain_anchor(synthetic_trace(), 6))

    def test_explain_committed_anchor(self):
        (line,) = query.explain_anchor(synthetic_trace(), 4)
        assert "not skipped" in line and "directly" in line

    def test_explain_unknown_round_raises(self):
        with pytest.raises(ReproError, match="no anchor event"):
            query.explain_anchor(synthetic_trace(), 12)

    def test_explain_demotion_cites_scores_skips_and_window(self):
        text = "\n".join(query.explain_demotion(synthetic_trace(), 2))
        assert "demoted at epoch 1" in text
        assert "scored 0" in text and "committee best 5" in text
        assert "anchor round(s) led by 2 were skipped" in text
        assert "behavior window" in text

    def test_explain_demotion_never_demoted_raises(self):
        with pytest.raises(ReproError, match="never demoted"):
            query.explain_demotion(synthetic_trace(), 1)

    def test_select_point_filters_and_validates(self):
        events = [dict(event, point="a") for event in synthetic_trace()]
        events += [dict(event, point="b") for event in synthetic_trace()]
        assert all(e["point"] == "a" for e in query.select_point(events, None))
        assert all(e["point"] == "b" for e in query.select_point(events, "b"))
        with pytest.raises(ReproError, match="unknown point"):
            query.select_point(events, "c")


class TestObsCli:
    def write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            write_events(handle, synthetic_trace(), point="p0", seed=1)
        return str(path)

    def test_timeline_subcommand(self, capsys, tmp_path):
        code, out, err = run_cli(obs_main, capsys, "timeline", self.write_trace(tmp_path))
        assert code == 0 and err == ""
        assert "timeline for validator 0" in out

    def test_explain_first_skip(self, capsys, tmp_path):
        code, out, err = run_cli(
            obs_main, capsys, "explain", self.write_trace(tmp_path), "--first-skip"
        )
        assert code == 0 and err == ""
        assert "anchor r=6 skipped" in out

    def test_explain_demotion(self, capsys, tmp_path):
        code, out, err = run_cli(
            obs_main, capsys, "explain", self.write_trace(tmp_path), "--demotion", "2"
        )
        assert code == 0 and err == ""
        assert "demoted at epoch 1" in out

    def test_missing_trace_file_exits_2(self, capsys, tmp_path):
        assert_error_contract(
            obs_main, capsys, "timeline", str(tmp_path / "nope.jsonl")
        )

    def test_malformed_trace_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert_error_contract(
            obs_main, capsys, "explain", str(path), "--first-skip", match="JSONL"
        )

    def test_empty_trace_exits_2(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert_error_contract(obs_main, capsys, "timeline", str(path), match="empty")

    def test_unknown_point_exits_2(self, capsys, tmp_path):
        assert_error_contract(
            obs_main,
            capsys,
            "timeline",
            self.write_trace(tmp_path),
            "--point",
            "zzz",
            match="unknown point",
        )
