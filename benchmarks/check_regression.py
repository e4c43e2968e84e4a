#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench JSON against the baseline.

Compares the ``wall_s`` of every stage a freshly generated bench
document shares with the committed baseline (``BENCH_PR17.json`` at the
repository root, i.e. the trajectory recorded when the current
optimization PR landed) and exits non-zero when any stage got slower by
more than the threshold (default 10%).  A stage is one fixed config, so
its speed is ``1 / wall_s``; ``events_per_sec`` is printed as an info
column and gates nothing, because it is not a speed once a change can
remove events (PR 17 took 86% of the figure-1 peak stage's events away
and the stage got faster, which read as -70% events/sec).

Stages that carry ``memory_per_validator`` (the committee-scaling
stages, from PR9 onward) are additionally gated on memory: growth beyond
the memory threshold (default 25%, ``--memory-threshold`` /
``REPRO_BENCH_MEMORY_THRESHOLD``) is fatal.  Memory is never
cpu-normalized — the tracemalloc peak is a property of the workload, not
the host's clock speed.  A baseline recorded before the metric existed
simply skips the comparison with an info line.

When both documents carry a CPU-calibration stage (``calibration`` —
see ``run_bench.run_cpu_calibration``), every speed ratio is
divided by the hosts' calibration ratio first: a hosted runner that is
uniformly 2x slower than the reference container then compares clean
against a reference-recorded baseline, so the gate can run at its tight
threshold instead of the 0.35-wide compensation it needed before.
Disable with ``--no-calibration`` (or ``REPRO_BENCH_NO_CALIBRATION=1``)
to compare raw numbers.

Stages are matched by identity, never by position:

* figure-1 points match on ``(committee_size, input_load_tps)`` and
  the documents' ``duration_s`` — documents from before PR9 lack
  ``committee_size`` on fig-1 points, so a missing value is backfilled
  with the historical preset (committee 10) instead of parsing stage
  names;
* committee-scaling points match on
  ``(committee_size, input_load_tps, duration_s)``.

Stages present in only one document are reported and skipped — a smoke
run (``run_bench.py --smoke``) produces a subset of the baseline's
stages, and that must not fail the gate.  When a committee-scaling stage
carries an ``ordering_digest`` in both documents, a digest mismatch is
an error as well: a perf win that changes simulation outputs is not a
perf win.

Usage::

    python benchmarks/run_bench.py --smoke --output /tmp/bench.json
    python benchmarks/check_regression.py /tmp/bench.json              # vs BENCH_PR17.json
    python benchmarks/check_regression.py /tmp/bench.json --baseline BENCH_PR17.json
    python benchmarks/check_regression.py fresh.json --threshold 0.25  # override knob
    python benchmarks/check_regression.py fresh.json --no-calibration  # raw ratios

The threshold can also be overridden with the
``REPRO_BENCH_REGRESSION_THRESHOLD`` environment variable (CI sets it to
loosen the gate on noisy shared runners without editing the workflow).
Promotion: when a PR intentionally shifts the trajectory, regenerate the
document with ``python benchmarks/run_bench.py`` and commit it as the
new ``BENCH_PR<n>.json`` baseline (see ROADMAP, "CI & benchmarking").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_PR17.json")
DEFAULT_THRESHOLD = 0.10
# Tolerated fractional growth of memory_per_validator per stage.  The
# tracemalloc peak is far less noisy than wall-clock (the simulation is
# deterministic; only allocator bookkeeping varies), but interning and
# cache caps leave some headroom legitimately version-dependent.
DEFAULT_MEMORY_THRESHOLD = 0.25

# Fig-1 points recorded before PR9 carry no committee_size field; the
# preset was always committee 10, so identity matching backfills that
# instead of parsing stage names.
FIG1_DEFAULT_COMMITTEE = 10

# Stage identity.  Duration participates: a stage whose virtual duration
# changed is a different measurement (and a different ordering digest),
# not a regression.  On fig-1 points it is the document's ``duration_s``.
STAGE_KEYS = ("committee_size", "input_load_tps", "duration_s")

# Calibration ratios outside this band mean the hosts differ by more
# than single-core speed (different memory pressure, thermal state, or a
# broken calibration stage); the gate then refuses to extrapolate and
# falls back to raw comparison, reporting why.
CALIBRATION_RATIO_BOUNDS = (0.2, 5.0)


class Mismatch:
    """One comparison outcome (regression, digest break, or skip)."""

    def __init__(self, stage: str, message: str, fatal: bool) -> None:
        self.stage = stage
        self.message = message
        self.fatal = fatal

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Mismatch({self.stage!r}, fatal={self.fatal})"


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _index_points(points: Iterable[dict], keys: Tuple[str, ...]) -> Dict[tuple, dict]:
    indexed: Dict[tuple, dict] = {}
    for point in points or ():
        indexed[tuple(point.get(key) for key in keys)] = point
    return indexed


def _fig1_points(document: dict) -> List[dict]:
    """The document's fig-1 points, ``committee_size`` backfilled.

    Keeps pre-PR9 baselines (no ``committee_size`` on fig-1 records)
    matchable against fresh documents purely by field identity.  The
    virtual duration of the fig-1 points is a document-level field; it
    rides on every point because a point run for a different duration
    is a different measurement of ``wall_s``.
    """
    points: List[dict] = []
    for point in document.get("points", ()) or ():
        point = dict(point, duration_s=document.get("duration_s"))
        if point.get("committee_size") is None:
            point["committee_size"] = FIG1_DEFAULT_COMMITTEE
        points.append(point)
    return points


def calibration_ratio(fresh: dict, baseline: dict) -> Optional[float]:
    """fresh_cpu_score / baseline_cpu_score, or ``None`` when unusable.

    ``None`` (no calibration in either document, non-positive scores, or
    a ratio outside :data:`CALIBRATION_RATIO_BOUNDS`) means the caller
    must compare raw wall-clock.
    """
    fresh_score = float((fresh.get("calibration") or {}).get("cpu_score") or 0.0)
    base_score = float((baseline.get("calibration") or {}).get("cpu_score") or 0.0)
    if fresh_score <= 0.0 or base_score <= 0.0:
        return None
    ratio = fresh_score / base_score
    low, high = CALIBRATION_RATIO_BOUNDS
    if not low <= ratio <= high:
        return None
    return ratio


def speed_ratio(
    fresh: dict, baseline: dict, cpu_ratio: Optional[float] = None
) -> Optional[float]:
    """fresh speed / baseline speed of one matched stage; below 1 is slower.

    A stage is a fixed config, so its speed is ``1 / wall_s``; dividing
    by ``cpu_ratio`` takes the hosts' single-core speed difference out.
    ``None`` when either document lacks a positive ``wall_s``.
    """
    base_wall = float(baseline.get("wall_s") or 0.0)
    fresh_wall = float(fresh.get("wall_s") or 0.0)
    if base_wall <= 0.0 or fresh_wall <= 0.0:
        return None
    ratio = base_wall / fresh_wall
    return ratio / cpu_ratio if cpu_ratio is not None else ratio


def compare_stage(
    stage: str,
    fresh: Optional[dict],
    baseline: Optional[dict],
    threshold: float,
    cpu_ratio: Optional[float] = None,
    memory_threshold: float = DEFAULT_MEMORY_THRESHOLD,
) -> List[Mismatch]:
    """Compare one matched stage; returns the findings (possibly empty)."""
    findings: List[Mismatch] = []
    if baseline is None:
        findings.append(Mismatch(stage, "not in baseline, skipped", fatal=False))
        return findings
    if fresh is None:
        findings.append(Mismatch(stage, "not in fresh document, skipped", fatal=False))
        return findings
    ratio = speed_ratio(fresh, baseline, cpu_ratio)
    if ratio is None:
        findings.append(Mismatch(stage, "no wall_s in both documents, skipped", fatal=False))
    elif ratio < 1.0 - threshold:
        note = f", cpu-normalized by {cpu_ratio:.3f}" if cpu_ratio is not None else ""
        findings.append(
            Mismatch(
                stage,
                f"{100 * (1 - ratio):.1f}% slower on the stage's fixed config: "
                f"wall_s {float(fresh['wall_s']):.4f} vs baseline "
                f"{float(baseline['wall_s']):.4f} "
                f"(threshold {100 * threshold:.0f}%{note})",
                fatal=True,
            )
        )
    fresh_memory = float(fresh.get("memory_per_validator") or 0.0)
    base_memory = float(baseline.get("memory_per_validator") or 0.0)
    if fresh_memory > 0.0:
        if base_memory <= 0.0:
            # Pre-PR9 baselines never recorded memory; skip cleanly
            # instead of treating the absence as a zero-byte baseline.
            findings.append(
                Mismatch(stage, "baseline lacks memory_per_validator, skipped", fatal=False)
            )
        else:
            memory_ratio = fresh_memory / base_memory
            if memory_ratio > 1.0 + memory_threshold:
                findings.append(
                    Mismatch(
                        stage,
                        f"memory/validator grew {100 * (memory_ratio - 1):.1f}%: "
                        f"{fresh_memory / 1024:,.0f} KiB vs baseline "
                        f"{base_memory / 1024:,.0f} KiB "
                        f"(threshold {100 * memory_threshold:.0f}%)",
                        fatal=True,
                    )
                )
    base_digest = baseline.get("ordering_digest")
    fresh_digest = fresh.get("ordering_digest")
    if base_digest and fresh_digest and base_digest != fresh_digest:
        findings.append(
            Mismatch(
                stage,
                f"ordering digest changed: {fresh_digest[:16]}... vs "
                f"baseline {base_digest[:16]}...",
                fatal=True,
            )
        )
    return findings


def compare_scenario_stage(stage: str, fresh: dict, baseline: dict) -> List[Mismatch]:
    """Digest-compare one scenario stage (``scenario_smoke``/``scenario_adversary``).

    Scenario stages are not timed against a baseline, so the gate checks their
    *outputs*: when both documents ran the same scenario (equal
    ``scenario_digest``), every shared point must reproduce the
    baseline's ordering digest — this is what pins the adversary
    engine's behavior (honest and Byzantine alike) across PRs.  A
    skipped/failed stage or a changed scenario definition is reported
    and skipped, mirroring how absent perf stages are treated.
    """
    findings: List[Mismatch] = []
    fresh_stage = fresh.get(stage) or {}
    base_stage = baseline.get(stage) or {}
    if not fresh_stage.get("points"):
        findings.append(Mismatch(stage, "not run in fresh document, skipped", fatal=False))
        return findings
    if not base_stage.get("points"):
        findings.append(Mismatch(stage, "not in baseline, skipped", fatal=False))
        return findings
    if fresh_stage.get("scenario_digest") != base_stage.get("scenario_digest"):
        findings.append(
            Mismatch(stage, "scenario definition changed, digest comparison skipped", fatal=False)
        )
        return findings
    fresh_points = {point.get("label"): point for point in fresh_stage["points"]}
    for point in base_stage["points"]:
        label = point.get("label")
        counterpart = fresh_points.get(label)
        if counterpart is None:
            findings.append(
                Mismatch(stage, f"point {label!r} missing from fresh document", fatal=False)
            )
            continue
        base_digest = point.get("ordering_digest")
        fresh_digest = counterpart.get("ordering_digest")
        if base_digest and fresh_digest and base_digest != fresh_digest:
            findings.append(
                Mismatch(
                    f"{stage}:{label}",
                    f"ordering digest changed: {fresh_digest[:16]}... vs "
                    f"baseline {base_digest[:16]}...",
                    fatal=True,
                )
            )
    return findings


def compare_matrix_stage(fresh: dict, baseline: dict) -> List[Mismatch]:
    """Digest-compare the ``scenario_matrix`` stage cell by cell.

    Cells are matched on (attack, rule, label); a cell whose per-attack
    scenario digest is unchanged must reproduce the baseline's ordering
    digest — the pin that keeps the coalition adversaries and the
    scoring-rule sweep axis deterministic across PRs.
    """
    stage = "scenario_matrix"
    findings: List[Mismatch] = []
    fresh_stage = fresh.get(stage) or {}
    base_stage = baseline.get(stage) or {}
    if not fresh_stage.get("cells"):
        findings.append(Mismatch(stage, "not run in fresh document, skipped", fatal=False))
        return findings
    if not base_stage.get("cells"):
        findings.append(Mismatch(stage, "not in baseline, skipped", fatal=False))
        return findings
    keys = ("attack", "rule", "label")
    fresh_cells = {tuple(cell.get(k) for k in keys): cell for cell in fresh_stage["cells"]}
    for cell in base_stage["cells"]:
        key = tuple(cell.get(k) for k in keys)
        counterpart = fresh_cells.get(key)
        label = f"{stage}:{cell.get('attack')}/{cell.get('rule')}"
        if counterpart is None:
            findings.append(
                Mismatch(stage, f"cell {key!r} missing from fresh document", fatal=False)
            )
            continue
        if cell.get("scenario_digest") != counterpart.get("scenario_digest"):
            findings.append(
                Mismatch(label, "attack definition changed, digest comparison skipped", fatal=False)
            )
            continue
        base_digest = cell.get("ordering_digest")
        fresh_digest = counterpart.get("ordering_digest")
        if base_digest and fresh_digest and base_digest != fresh_digest:
            findings.append(
                Mismatch(
                    label,
                    f"ordering digest changed: {fresh_digest[:16]}... vs "
                    f"baseline {base_digest[:16]}...",
                    fatal=True,
                )
            )
    return findings


# One row of the per-stage table: stage, baseline and fresh wall_s, the
# (cpu-normalized) speed ratio, and both events/sec as information.
DeltaRow = Tuple[str, float, float, Optional[float], float, float]


def stage_deltas(
    fresh: dict,
    baseline: dict,
    cpu_ratio: Optional[float] = None,
) -> List[DeltaRow]:
    """Per-stage wall-clock delta rows for every matched perf stage.

    The ratio is ``None`` when a document carries no ``wall_s`` for the
    stage.  Printed on every gate run (pass or fail), so CI logs always
    show the perf trajectory instead of only surfacing it once a
    threshold trips.
    """
    rows: List[DeltaRow] = []

    def add(stage: str, fresh_point: Optional[dict], base_point: Optional[dict]) -> None:
        if fresh_point is None or base_point is None:
            return
        rows.append(
            (
                stage,
                float(base_point.get("wall_s") or 0.0),
                float(fresh_point.get("wall_s") or 0.0),
                speed_ratio(fresh_point, base_point, cpu_ratio),
                float(base_point.get("events_per_sec") or 0.0),
                float(fresh_point.get("events_per_sec") or 0.0),
            )
        )

    fresh_fig1 = _index_points(_fig1_points(fresh), STAGE_KEYS)
    base_fig1 = _index_points(_fig1_points(baseline), STAGE_KEYS)
    for key in sorted(set(fresh_fig1) & set(base_fig1), key=str):
        add(f"fig1@{key[1]:.0f}tps", fresh_fig1.get(key), base_fig1.get(key))
    fresh_committee = _index_points(fresh.get("committee_scaling", ()), STAGE_KEYS)
    base_committee = _index_points(baseline.get("committee_scaling", ()), STAGE_KEYS)
    for key in sorted(set(fresh_committee) & set(base_committee), key=str):
        add(
            f"committee{key[0]}@{key[1]:.0f}tps",
            fresh_committee.get(key),
            base_committee.get(key),
        )
    return rows


def render_delta_table(rows: List[DeltaRow]) -> List[str]:
    """Aligned text table for :func:`stage_deltas` rows."""
    if not rows:
        return ["no matched perf stages between the two documents"]
    width = max(len(row[0]) for row in rows)
    lines = [
        f"{'stage'.ljust(width)}  {'base wall_s':>11}  {'fresh wall_s':>12}  {'speed':>8}"
        f"  {'base ev/s':>10}  {'fresh ev/s':>10}"
    ]
    for stage, base_wall, fresh_wall, ratio, base_eps, fresh_eps in rows:
        delta = "n/a" if ratio is None else f"{100.0 * (ratio - 1.0):+.1f}%"
        lines.append(
            f"{stage.ljust(width)}  {base_wall:>11.4f}  {fresh_wall:>12.4f}  {delta:>8}"
            f"  {base_eps:>10,.0f}  {fresh_eps:>10,.0f}"
        )
    return lines


def compare_documents(
    fresh: dict,
    baseline: dict,
    threshold: float,
    calibrate: bool = True,
    memory_threshold: float = DEFAULT_MEMORY_THRESHOLD,
) -> List[Mismatch]:
    """Compare every shared stage of two bench documents."""
    findings: List[Mismatch] = []
    cpu_ratio = calibration_ratio(fresh, baseline) if calibrate else None
    if calibrate and cpu_ratio is None:
        findings.append(
            Mismatch(
                "calibration",
                "no usable CPU calibration in both documents; comparing raw wall_s",
                fatal=False,
            )
        )
    elif cpu_ratio is not None and abs(cpu_ratio - 1.0) > 0.02:
        findings.append(
            Mismatch(
                "calibration",
                f"hosts differ by {cpu_ratio:.3f}x single-core speed; "
                "speed ratios are cpu-normalized",
                fatal=False,
            )
        )
    fresh_fig1 = _index_points(_fig1_points(fresh), STAGE_KEYS)
    base_fig1 = _index_points(_fig1_points(baseline), STAGE_KEYS)
    for key in sorted(set(fresh_fig1) | set(base_fig1), key=str):
        stage = f"fig1@{key[1]:.0f}tps"
        findings.extend(
            compare_stage(
                stage,
                fresh_fig1.get(key),
                base_fig1.get(key),
                threshold,
                cpu_ratio,
                memory_threshold,
            )
        )
    fresh_committee = _index_points(fresh.get("committee_scaling", ()), STAGE_KEYS)
    base_committee = _index_points(baseline.get("committee_scaling", ()), STAGE_KEYS)
    for key in sorted(set(fresh_committee) | set(base_committee), key=str):
        stage = f"committee{key[0]}@{key[1]:.0f}tps"
        findings.extend(
            compare_stage(
                stage,
                fresh_committee.get(key),
                base_committee.get(key),
                threshold,
                cpu_ratio,
                memory_threshold,
            )
        )
    for stage in ("scenario_smoke", "scenario_adversary"):
        findings.extend(compare_scenario_stage(stage, fresh, baseline))
    findings.extend(compare_matrix_stage(fresh, baseline))
    if not (fresh_fig1 or fresh_committee):
        findings.append(
            Mismatch("document", "fresh document has no comparable stages", fatal=True)
        )
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fresh", help="freshly generated bench JSON to check")
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="committed baseline document (default: BENCH_PR17.json)",
    )
    parser.add_argument(
        "--no-calibration",
        action="store_true",
        default=os.environ.get("REPRO_BENCH_NO_CALIBRATION", "").strip().lower()
        not in ("", "0", "false", "no"),
        help="compare raw wall_s without CPU-calibration normalization",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(
            os.environ.get("REPRO_BENCH_REGRESSION_THRESHOLD", DEFAULT_THRESHOLD)
        ),
        help="fractional slowdown tolerated per stage (default 0.10)",
    )
    parser.add_argument(
        "--memory-threshold",
        type=float,
        default=float(
            os.environ.get("REPRO_BENCH_MEMORY_THRESHOLD", DEFAULT_MEMORY_THRESHOLD)
        ),
        help="fractional memory_per_validator growth tolerated per stage (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        print("error: threshold must lie in [0, 1)", file=sys.stderr)
        return 2
    if args.memory_threshold < 0.0:
        print("error: memory threshold must be non-negative", file=sys.stderr)
        return 2
    try:
        fresh = _load(args.fresh)
        baseline = _load(args.baseline)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cpu_ratio = calibration_ratio(fresh, baseline) if not args.no_calibration else None
    label = " (cpu-normalized)" if cpu_ratio is not None else ""
    print(f"per-stage wall_s, speed = baseline / fresh{label}; events/sec for information:")
    for line in render_delta_table(stage_deltas(fresh, baseline, cpu_ratio)):
        print(f"  {line}")
    findings = compare_documents(
        fresh,
        baseline,
        args.threshold,
        calibrate=not args.no_calibration,
        memory_threshold=args.memory_threshold,
    )
    fatal = [finding for finding in findings if finding.fatal]
    for finding in findings:
        marker = "FAIL" if finding.fatal else "info"
        print(f"[{marker}] {finding.stage}: {finding.message}")
    if fatal:
        print(
            f"{len(fatal)} stage(s) regressed beyond "
            f"{100 * args.threshold:.0f}% (baseline {args.baseline})",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench regression gate passed "
        f"(threshold {100 * args.threshold:.0f}%, baseline {os.path.basename(args.baseline)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
