"""Deterministic protocol tracing.

The tracer mirrors the zero-overhead idiom of
:class:`repro.behavior.policy.HonestPolicy`: instrumented components hold
a class-level ``_tracer = NULL_TRACER`` / ``_tracing = False`` pair, so a
run without tracing pays exactly one attribute load and one boolean test
per already-rare site — the common hot paths (message delivery, digest
updates) carry no check at all.

Events are plain dicts — ``{"kind": ..., "t": <sim time>, ...}`` — so a
trace survives a round-trip through the sweep engine's process pool
without custom pickling, and serializes to JSONL with nothing but
:mod:`json`.

The commit-path modules import ``NULL_TRACER`` from here, so this
module reads no randomness and no wall clock: timestamps come from the
*simulation* clock injected by the runner, and a traced run's events
are a function of its spec (``test_observability.py`` pins both).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, List, Optional, TextIO, Tuple

# Catalogue of every event kind the instrumentation points can emit,
# with the fields a consumer can rely on.  ``repro.obs.query`` and the
# README events table are generated from / checked against this.
EVENT_KINDS: Tuple[Tuple[str, str], ...] = (
    ("vertex_proposed", "node proposed a vertex: round, parents, batch size"),
    ("vertex_certified", "2f+1 acks collected: round, signers"),
    ("payload_delivered", "certificate accepted, payload handed to the DAG: round, origin"),
    ("slot_mismatch_dropped", "certified vertex named another slot than its broadcast: round, origin, vertex_round, vertex_source"),
    ("vertex_parked", "vertex waited on missing parents: round, source, missing"),
    ("vertex_inserted", "vertex entered the local DAG: round, source"),
    ("vertex_promoted", "parked vertex completed and was inserted: round, source"),
    ("vertex_ordered", "vertex emitted in the total order: round, source, anchor_round, latency"),
    ("anchor_committed", "anchor gathered quorum: round, leader, direct, vertices"),
    ("anchor_skipped", "anchor round skipped: round, leader, anchor_present, direct_stake, threshold"),
    ("state_sync", "node fast-forwarded past a horizon: from_round, to_round"),
    ("dag_gc", "garbage collection reclaimed vertices: before_round, removed"),
    ("schedule_change", "leader schedule rotated: epoch, scores, demoted, promoted"),
    ("adversary_parents", "behavior policy rewrote the parent set: round, honest, chosen"),
    ("adversary_proposal_delay", "behavior policy delayed a proposal: round, delay"),
    ("adversary_ack_withheld", "behavior policy withheld an ack: round, origin"),
    ("behavior_window_open", "a BehaviorFault installed policies: validators, policy, coordinated"),
    ("behavior_window_close", "a BehaviorFault restored honest policies: validators"),
    ("message_dropped", "transport dropped a message: sender, destination, type, reason; loss drops add the window token, broadcast envelopes add origin/round"),
    ("fetch_ingested", "fetch response arrived: responder, received (vertices in it), new (of those, absent from the DAG), parked (of those, already parked here)"),
    ("partition_set", "transport partition installed: groups"),
    ("partition_cleared", "transport partition removed"),
    ("disturbance_open", "jitter/loss window opened: token, jitter, loss_rate"),
    ("disturbance_close", "jitter/loss window closed: token"),
    ("validator_crashed", "transport marked a validator crashed: validator"),
    ("validator_recovered", "transport unmarked a crashed validator: validator"),
    ("trace_truncated", "bounded tracer dropped its oldest events: dropped, kept"),
)

KNOWN_KINDS: Tuple[str, ...] = tuple(kind for kind, _ in EVENT_KINDS)


class Tracer:
    """Base tracer.  ``enabled`` gates every instrumentation site."""

    enabled: bool = False
    #: ``emit(kind, **fields)`` records one event.
    emit: Callable[..., None]


class NullTracer(Tracer):
    """Zero-overhead sink: instrumented sites skip payload construction
    entirely because ``enabled`` is False; if one emits anyway the event
    vanishes without allocation."""

    __slots__ = ()

    def emit(self, kind: str, **fields: Any) -> None:
        return None


#: Process-wide default installed as the class attribute of every
#: instrumented component; a run that never asks for tracing shares it.
NULL_TRACER = NullTracer()


class MemoryTracer(Tracer):
    """Collects events in memory, stamped with the simulation clock.

    ``clock`` is injected by the runner (``simulator.now``); the tracer
    itself never reads a wall clock, so its events are a function of the run.

    ``max_events`` (at least 1; ``None`` keeps every event) turns the
    tracer into a bounded ring buffer: at most that many events are held,
    the *oldest* are evicted first, and the eviction count is kept in
    ``dropped``.  A committee-100 traced run emits millions of events;
    the ring bound makes tracing usable there without holding the full
    stream in memory.  Exports of a truncated trace are prefixed with one
    ``trace_truncated`` marker event (see :meth:`export_events`) so JSONL
    consumers can tell a bounded trace from a complete one.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float],
        max_events: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be positive (or None)")
        self.clock = clock
        self.max_events = max_events
        # deque(maxlen=N) evicts from the head on append at capacity —
        # exactly the ring-buffer semantics — at C speed.
        self.events: Any = [] if max_events is None else deque(maxlen=max_events)
        self.dropped = 0

    def emit(self, kind: str, **fields: Any) -> None:
        event: Dict[str, Any] = {"kind": kind, "t": self.clock()}
        event.update(fields)
        events = self.events
        if self.max_events is not None and len(events) == self.max_events:
            self.dropped += 1
        events.append(event)

    def export_events(self) -> List[Dict[str, Any]]:
        """The retained events as a list, truncation marker included.

        When the ring bound evicted anything, the first element is a
        ``trace_truncated`` event carrying ``dropped`` (evicted count)
        and ``kept`` (retained count), stamped with the timestamp of the
        oldest retained event; consumers of the JSONL can rely on the
        marker being first.
        """
        events = list(self.events)
        if not self.dropped:
            return events
        marker = {"kind": "trace_truncated", "t": events[0]["t"], "dropped": self.dropped, "kept": len(events)}
        return [marker, *events]


def event_lines(events: List[Dict[str, Any]], **tags: Any) -> List[str]:
    """Render events as JSONL lines, each merged with ``tags`` (point
    label, seed, ...).  ``sort_keys`` keeps the byte stream deterministic
    regardless of emit-site kwarg order."""
    lines: List[str] = []
    for event in events:
        if tags:
            merged = dict(event)
            merged.update(tags)
        else:
            merged = event
        lines.append(json.dumps(merged, sort_keys=True, separators=(",", ":")))
    return lines


def write_events(stream: TextIO, events: List[Dict[str, Any]], **tags: Any) -> int:
    """Write events to ``stream`` as JSONL; returns the number written."""
    for line in event_lines(events, **tags):
        stream.write(line)
        stream.write("\n")
    return len(events)
