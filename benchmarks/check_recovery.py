#!/usr/bin/env python3
"""Recovery gate: certificate piggybacking must actually heal faster.

Two modes, one set of assertions:

* ``--bench BENCH.json`` checks the ``lossy_recovery`` stage of a bench
  document (``benchmarks/bench_hotpaths.py`` writes it): the
  piggyback-on variant must issue strictly fewer fetch round-trips than
  the off variant, must heal at least one certificate from the
  piggyback stash, must not stall parked vertices longer on average,
  and the two variants' committed prefixes must be consistent.
* ``--artifacts OFF.json ON.json`` checks a pair of scenario artifacts
  (the CI ``lossy-recovery-smoke`` job runs the ``lossy-recovery`` and
  ``lossy-recovery-piggyback`` scenarios and hands their artifacts
  here).  The same fetch/heal assertions read the artifacts' always-on
  counters, which must also show that fetch responses carried little
  the requester already held (``fetch.vertices_received`` over
  ``fetch.vertices_new`` at most 1.5); prefix consistency comes from
  the artifacts' checkpoint chains.  With ``--trace-off``/``--trace-on`` (the runs' JSONL trace
  files) the stall comparison is mined from the traces too.

Both modes print every check (pass and fail) and exit non-zero on any
failure, so CI output always shows the measured recovery numbers.

Usage::

    python benchmarks/check_recovery.py --bench BENCH_PR10.json
    python benchmarks/check_recovery.py --artifacts lr-off.json lr-on.json \\
        --trace-off lr-off.trace.jsonl --trace-on lr-on.trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

# Allow running as a plain script from a source checkout.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.obs.consistency import checkpoint_chain, compare_prefixes


# Fetch responses may carry at most this many vertices per vertex the
# requester's DAG lacked (whole-history responses measured above 10).
FETCH_WASTE_BOUND = 1.5


class Check:
    """One assertion outcome (printed pass or fail, CI-greppable)."""

    def __init__(self, name: str, ok: bool, detail: str) -> None:
        self.name = name
        self.ok = ok
        self.detail = detail


def _check_recovery_numbers(
    label: str,
    off: Dict[str, float],
    on: Dict[str, float],
) -> List[Check]:
    """The shared fetch/heal/stall assertions for one off/on pair.

    ``off``/``on`` are flat metric dicts: ``fetch_requests``,
    ``certificates_healed``, and optionally ``stall_avg``/``stall_count``
    (absent when no trace was supplied).
    """
    checks: List[Check] = []
    off_fetches = float(off.get("fetch_requests", 0.0))
    on_fetches = float(on.get("fetch_requests", 0.0))
    checks.append(
        Check(
            f"{label}: fewer fetch round-trips",
            on_fetches < off_fetches,
            f"piggyback on {on_fetches:.0f} vs off {off_fetches:.0f}",
        )
    )
    healed = float(on.get("certificates_healed", 0.0))
    checks.append(
        Check(
            f"{label}: certificates healed from the stash",
            healed > 0.0,
            f"{healed:.0f} healed (piggyback off healed "
            f"{float(off.get('certificates_healed', 0.0)):.0f}, as expected 0)",
        )
    )
    if "stall_avg" in off and "stall_avg" in on:
        off_avg = float(off["stall_avg"])
        on_avg = float(on["stall_avg"])
        checks.append(
            Check(
                f"{label}: park-to-promote stall no worse on average",
                on_avg <= off_avg,
                f"piggyback on {on_avg:.4f}s vs off {off_avg:.4f}s "
                f"({float(on.get('stall_count', 0.0)):.0f} / "
                f"{float(off.get('stall_count', 0.0)):.0f} parked vertices)",
            )
        )
    return checks


def check_bench_stage(stage: Dict[str, Any]) -> List[Check]:
    """All assertions over a bench document's ``lossy_recovery`` stage."""
    off = stage.get("piggyback_off") or {}
    on = stage.get("piggyback_on") or {}
    if not off or not on:
        return [Check("lossy_recovery stage present", False, "stage missing or incomplete")]

    def flat(variant: Dict[str, Any]) -> Dict[str, float]:
        recovery = variant.get("recovery") or {}
        return {
            "fetch_requests": float(variant.get("fetch_requests", 0.0)),
            "certificates_healed": float(variant.get("certificates_healed", 0.0)),
            "stall_avg": float(recovery.get("avg", 0.0)),
            "stall_count": float(recovery.get("count", 0.0)),
        }

    checks = _check_recovery_numbers("bench", flat(off), flat(on))
    checks.append(
        Check(
            "bench: committed prefixes consistent",
            bool(stage.get("prefix_consistent")),
            f"common committed prefix {stage.get('common_prefix')}",
        )
    )
    return checks


def _artifact_point(artifact: Dict[str, Any]) -> Dict[str, Any]:
    points = artifact.get("points") or []
    if len(points) != 1:
        raise SystemExit(
            f"error: expected a single-point artifact, got {len(points)} points "
            "(run the lossy-recovery scenarios without extra seeds)"
        )
    return points[0]


def _point_counters(point: Dict[str, Any]) -> Dict[str, float]:
    counters = (point.get("counters") or {}).get("always") or {}
    return {
        "fetch_requests": float(counters.get("node.fetch_requests", 0.0)),
        "certificates_healed": float(counters.get("node.certificates_healed", 0.0)),
    }


def _check_fetch_waste(label: str, point: Dict[str, Any]) -> Check:
    """Received-over-new for one run's fetch responses, from its counters."""
    counters = (point.get("counters") or {}).get("always") or {}
    name = f"artifacts: {label} fetch responses carry mostly new vertices"
    if "fetch.vertices_received" not in counters or "fetch.vertices_new" not in counters:
        return Check(name, False, "artifact lacks the fetch.vertices_* counters")
    received = float(counters["fetch.vertices_received"])
    new = float(counters["fetch.vertices_new"])
    if received == 0.0:
        return Check(name, True, "no fetch response arrived")
    return Check(
        name,
        new > 0.0 and received / new <= FETCH_WASTE_BOUND,
        f"{received:.0f} received / {new:.0f} new (bound {FETCH_WASTE_BOUND})",
    )


def _point_chain(point: Dict[str, Any]) -> List[Tuple[int, str]]:
    checkpoints = [
        (int(count), digest)
        for count, digest in (point.get("ordering_checkpoints") or ())
    ]
    final = (point.get("ordered_count") or 0, point.get("ordering_digest") or "")
    return checkpoint_chain(checkpoints, final)


def _mine_trace(path: str) -> Dict[str, float]:
    from repro.obs.recovery import mine_recovery

    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    report = mine_recovery(events)
    summary = report.summary()
    return {"stall_avg": summary["avg"], "stall_count": summary["count"]}


def check_artifacts(
    off_path: str,
    on_path: str,
    trace_off: Optional[str] = None,
    trace_on: Optional[str] = None,
) -> List[Check]:
    """All assertions over a scenario-artifact pair (CI smoke mode)."""
    with open(off_path, "r", encoding="utf-8") as handle:
        off_artifact = json.load(handle)
    with open(on_path, "r", encoding="utf-8") as handle:
        on_artifact = json.load(handle)
    checks: List[Check] = []
    off_flag = bool((off_artifact.get("scenario") or {}).get("certificate_piggyback"))
    on_flag = bool((on_artifact.get("scenario") or {}).get("certificate_piggyback"))
    checks.append(
        Check(
            "artifacts: piggyback off/on pair",
            not off_flag and on_flag,
            f"left certificate_piggyback={off_flag}, right={on_flag}",
        )
    )
    off_point = _artifact_point(off_artifact)
    on_point = _artifact_point(on_artifact)
    off = _point_counters(off_point)
    on = _point_counters(on_point)
    if trace_off and trace_on:
        off.update(_mine_trace(trace_off))
        on.update(_mine_trace(trace_on))
    checks.extend(_check_recovery_numbers("artifacts", off, on))
    checks.append(_check_fetch_waste("piggyback-off", off_point))
    checks.append(_check_fetch_waste("piggyback-on", on_point))
    comparison = compare_prefixes(_point_chain(off_point), _point_chain(on_point))
    checks.append(
        Check(
            "artifacts: committed prefixes consistent",
            comparison.consistent,
            comparison.describe(),
        )
    )
    return checks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--bench", help="bench JSON with a lossy_recovery stage")
    mode.add_argument(
        "--artifacts",
        nargs=2,
        metavar=("OFF", "ON"),
        help="scenario artifact pair: piggyback-off then piggyback-on",
    )
    parser.add_argument("--trace-off", help="JSONL trace of the piggyback-off run")
    parser.add_argument("--trace-on", help="JSONL trace of the piggyback-on run")
    args = parser.parse_args(argv)
    if args.bench:
        try:
            with open(args.bench, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        checks = check_bench_stage(document.get("lossy_recovery") or {})
    else:
        off_path, on_path = args.artifacts
        try:
            checks = check_artifacts(off_path, on_path, args.trace_off, args.trace_on)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    failures = 0
    for check in checks:
        marker = "PASS" if check.ok else "FAIL"
        print(f"[{marker}] {check.name}: {check.detail}")
        failures += 0 if check.ok else 1
    if failures:
        print(f"{failures} recovery check(s) failed", file=sys.stderr)
        return 1
    print("recovery gate passed: piggybacking heals faster than fetching")
    return 0


if __name__ == "__main__":
    sys.exit(main())
