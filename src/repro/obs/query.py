"""Causal queries over a recorded trace.

Pure post-processing: load a JSONL trace written by ``repro.obs trace``
(or ``repro.scenarios run --trace``) and answer the questions the
aggregate artifact metrics cannot — *why* was anchor round r skipped,
what evidence demoted validator v.  Everything here renders to plain
text lines so the CLI stays a thin shell.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError

Event = Dict[str, Any]


def load_trace(path: str) -> List[Event]:
    """Load a JSONL trace.  Malformed lines are a ``ReproError`` (exit 2
    through the CLI contract); missing files surface as ``OSError`` from
    ``open`` and take the same exit path."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as stream:
        for number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(f"{path}:{number}: not valid trace JSONL ({error})") from error
            if not isinstance(event, dict) or "kind" not in event:
                raise ReproError(f"{path}:{number}: trace event missing 'kind'")
            events.append(event)
    if not events:
        raise ReproError(f"{path}: trace is empty")
    return events


def point_labels(events: Sequence[Event]) -> List[str]:
    """Distinct point labels in first-appearance order."""
    labels: List[str] = []
    for event in events:
        label = event.get("point")
        if label is not None and label not in labels:
            labels.append(label)
    return labels


def select_point(events: Sequence[Event], point: Optional[str]) -> List[Event]:
    """Restrict a trace to one scenario point (default: the first)."""
    labels = point_labels(events)
    if not labels:
        return list(events)
    if point is None:
        point = labels[0]
    elif point not in labels:
        raise ReproError(
            f"unknown point {point!r}; trace contains: {', '.join(labels)}"
        )
    return [event for event in events if event.get("point") == point]


def observer_node(events: Sequence[Event]) -> int:
    """Default perspective: the lowest validator id that recorded anchor
    activity (every honest node orders identically, so any one works)."""
    nodes = sorted(
        {
            event["node"]
            for event in events
            if "node" in event and event["kind"] in ("anchor_committed", "anchor_skipped")
        }
    )
    if not nodes:
        raise ReproError("trace contains no anchor events (was tracing enabled?)")
    return nodes[0]


def _crashed_at(events: Sequence[Event], validator: int, at: float) -> bool:
    crashed = False
    for event in events:
        if event["t"] > at:
            break
        if event.get("validator") != validator:
            continue
        if event["kind"] == "validator_crashed":
            crashed = True
        elif event["kind"] == "validator_recovered":
            crashed = False
    return crashed


def _behavior_windows_at(
    events: Sequence[Event], validator: int, at: float
) -> List[Event]:
    open_windows: Dict[Any, Event] = {}
    for event in events:
        if event["t"] > at:
            break
        if event["kind"] == "behavior_window_open" and validator in event.get("validators", ()):
            open_windows[event.get("window", event["t"])] = event
        elif event["kind"] == "behavior_window_close" and validator in event.get("validators", ()):
            open_windows.pop(event.get("window", None), None)
    return list(open_windows.values())


def _partition_at(events: Sequence[Event], at: float) -> Optional[Event]:
    active: Optional[Event] = None
    for event in events:
        if event["t"] > at:
            break
        if event["kind"] == "partition_set":
            active = event
        elif event["kind"] == "partition_cleared":
            active = None
    return active


def _fetch_evidence(mine: Sequence[Event], node: int, at: float) -> List[str]:
    """How much of what ``node`` fetched by time ``at`` it actually lacked."""
    responses = [
        event for event in mine if event["kind"] == "fetch_ingested" and event["t"] <= at
    ]
    if not responses:
        return []
    received = sum(event.get("received", 0) for event in responses)
    new = sum(event.get("new", 0) for event in responses)
    parked = sum(event.get("parked", 0) for event in responses)
    ratio = f"{received / new:.2f}" if new else "n/a"
    return [
        f"  validator {node} had taken in {len(responses)} fetch response(s) by then: "
        f"{received} vertices received, {new} new to its DAG (received/new {ratio}), "
        f"{parked} already parked there"
    ]


def render_timeline(
    events: Sequence[Event],
    validator: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[str]:
    """Per-validator commit/skip/schedule timeline as aligned text rows."""
    node = observer_node(events) if validator is None else validator
    rows: List[str] = [f"timeline for validator {node}"]
    count = 0
    for event in events:
        if event.get("node") != node:
            continue
        kind = event["kind"]
        if kind == "anchor_committed":
            mode = "direct" if event.get("direct") else "indirect"
            line = (
                f"  t={event['t']:9.3f}  r={event['round']:<5d} commit  "
                f"leader={event['leader']:<3d} {mode}, {event.get('vertices', 0)} vertices"
            )
        elif kind == "anchor_skipped":
            reason = "no anchor vertex" if not event.get("anchor_present") else (
                f"stake {event.get('direct_stake')}/{event.get('threshold')}"
            )
            line = (
                f"  t={event['t']:9.3f}  r={event['round']:<5d} skip    "
                f"leader={event['leader']:<3d} {reason}"
            )
        elif kind == "schedule_change":
            demoted = ",".join(str(v) for v in event.get("demoted", ())) or "-"
            line = (
                f"  t={event['t']:9.3f}  r={event['triggered_by_round']:<5d} "
                f"schedule epoch={event['epoch']} demoted=[{demoted}]"
            )
        else:
            continue
        rows.append(line)
        count += 1
        if limit is not None and count >= limit:
            rows.append(f"  ... truncated at {limit} rows")
            break
    if count == 0:
        raise ReproError(f"validator {node} has no anchor/schedule events in this trace")
    return rows


def first_skipped_round(events: Sequence[Event], validator: int) -> int:
    for event in events:
        if event["kind"] == "anchor_skipped" and event.get("node") == validator:
            return event["round"]
    raise ReproError("trace contains no skipped anchors")


def explain_anchor(
    events: Sequence[Event],
    round_number: int,
    validator: Optional[int] = None,
) -> List[str]:
    """Why was anchor round ``round_number`` skipped (or not)?"""
    node = observer_node(events) if validator is None else validator
    mine = [event for event in events if event.get("node") == node]
    for event in mine:
        if event["kind"] == "anchor_committed" and event["round"] == round_number:
            mode = "directly" if event.get("direct") else "indirectly"
            return [
                f"anchor r={round_number} was not skipped on validator {node}: "
                f"committed {mode} at t={event['t']:.3f} by leader "
                f"{event['leader']} ({event.get('vertices', 0)} vertices ordered)"
            ]
    skip = next(
        (
            event
            for event in mine
            if event["kind"] == "anchor_skipped" and event["round"] == round_number
        ),
        None,
    )
    if skip is None:
        raise ReproError(
            f"no anchor event for round {round_number} on validator {node} "
            "(round not reached, or not an anchor round)"
        )
    leader = skip["leader"]
    at = skip["t"]
    lines = [
        f"anchor r={round_number} skipped on validator {node} at t={at:.3f}; "
        f"leader was validator {leader}"
    ]
    if skip.get("anchor_present"):
        lines.append(
            f"  the anchor vertex was in the DAG, but direct support reached only "
            f"{skip.get('direct_stake')} of the required {skip.get('threshold')} stake "
            "before a later anchor committed past it"
        )
    else:
        lines.append(
            "  the leader's anchor vertex never entered this validator's DAG "
            "before the round was sealed"
        )
        proposed = any(
            event["kind"] == "vertex_proposed"
            and event.get("node") == leader
            and event["round"] == round_number
            for event in events
        )
        if not proposed:
            lines.append(f"  validator {leader} never proposed a vertex for r={round_number}")
        parked = sum(
            1
            for event in mine
            if event["kind"] == "vertex_parked"
            and event.get("source") == leader
            and event["round"] == round_number
        )
        if parked:
            lines.append(
                f"  it was parked {parked}x on validator {node} waiting for missing parents"
            )
            lines.extend(_fetch_evidence(mine, node, at))
    if _crashed_at(events, leader, at):
        lines.append(f"  validator {leader} was crashed at t={at:.3f}")
    for window in _behavior_windows_at(events, leader, at):
        lines.append(
            f"  validator {leader} was running policy "
            f"{window.get('policy', '?')} since t={window['t']:.3f}"
            + (" (coordinated)" if window.get("coordinated") else "")
        )
    partition = _partition_at(events, at)
    if partition is not None:
        lines.append(
            f"  a network partition was active (groups={partition.get('groups')})"
        )
    dropped = [
        event
        for event in events
        if event["kind"] == "message_dropped"
        and event.get("sender") == leader
        and event["t"] <= at
    ]
    if dropped:
        # Break the count down by drop reason, and name the loss windows
        # involved — "14 dropped" alone says nothing about whether a
        # partition, a crash, or a loss window ate the leader's traffic.
        reasons: Dict[str, int] = {}
        windows = set()
        for event in dropped:
            reason = event.get("reason", "?")
            reasons[reason] = reasons.get(reason, 0) + 1
            window = event.get("window")
            if window is not None:
                windows.add(window)
        breakdown = ", ".join(
            f"{count} {reason}" for reason, count in sorted(reasons.items())
        )
        lines.append(
            f"  the transport dropped {len(dropped)} message(s) sent by "
            f"validator {leader} ({breakdown})"
        )
        if windows:
            lines.append(
                "  loss window(s) involved: "
                + ", ".join(str(window) for window in sorted(windows))
            )
        anchor_drops = [
            event
            for event in dropped
            if event.get("round") == round_number and event.get("origin") == leader
        ]
        if anchor_drops:
            lines.append(
                f"  {len(anchor_drops)} of them carried the leader's r={round_number} "
                "broadcast itself (types: "
                + ", ".join(
                    sorted({event.get("type", "?") for event in anchor_drops})
                )
                + ")"
            )
    return lines


def explain_demotion(
    events: Sequence[Event],
    validator: int,
    observer: Optional[int] = None,
) -> List[str]:
    """What evidence demoted ``validator``?"""
    node = observer_node(events) if observer is None else observer
    changes = [
        event
        for event in events
        if event["kind"] == "schedule_change"
        and event.get("node") == node
        and validator in event.get("demoted", ())
    ]
    if not changes:
        raise ReproError(
            f"validator {validator} was never demoted in this trace "
            f"(observer: validator {node})"
        )
    lines: List[str] = []
    for change in changes:
        scores = change.get("scores", {})
        # JSON round-trips dict keys to strings; accept either form.
        own = scores.get(str(validator), scores.get(validator))
        best = max(scores.values()) if scores else None
        lines.append(
            f"validator {validator} demoted at epoch {change['epoch']} "
            f"(triggered by r={change['triggered_by_round']}, t={change['t']:.3f}, "
            f"rule={change.get('scoring', '?')})"
        )
        if own is not None and best is not None:
            missing = best - own
            lines.append(
                f"  scored {own} vs committee best {best} — {missing} missing "
                "score units (votes, under vote-counting rules) this epoch"
            )
        skips = sum(
            1
            for event in events
            if event["kind"] == "anchor_skipped"
            and event.get("node") == node
            and event.get("leader") == validator
            and event["t"] <= change["t"]
        )
        if skips:
            lines.append(f"  {skips} anchor round(s) led by {validator} were skipped before this")
        withheld = sum(
            1
            for event in events
            if event["kind"] == "adversary_ack_withheld"
            and event.get("node") == validator
            and event["t"] <= change["t"]
        )
        if withheld:
            lines.append(f"  validator {validator} withheld {withheld} ack(s) before this")
        for window in _behavior_windows_at(events, validator, change["t"]):
            lines.append(
                f"  behavior window open since t={window['t']:.3f}: "
                f"{window.get('policy', '?')}"
                + (" (coordinated)" if window.get("coordinated") else "")
            )
    return lines


def summarize_kinds(events: Sequence[Event]) -> List[str]:
    """Sorted ``kind: count`` summary lines for a trace."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    width = max(len(kind) for kind in counts)
    return [f"  {kind.ljust(width)}  {counts[kind]}" for kind in sorted(counts)]
