#!/usr/bin/env python3
"""Compare two results files of the suite: ``compare.py A.json B.json``.

For every workload and end-to-end metric it prints both values with
their quartiles, how much worse B is than A as a share of A, and the
verdict against the bound BENCHMARK.json fixes for the metric:

* ``ok``          B is no worse than A by more than the bound;
* ``REGRESSED``   B is worse than A by more than the bound;
* ``unresolved``  the spread inside A or B (quartile distance over the
  median) is wider than the bound, so the pair cannot tell.

Two files of the same seed must also carry the same ordering digests.
Exit code 1 when any pair regressed or digests differ.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_contract() -> Dict[str, Any]:
    """BENCHMARK.json: the one place workloads and metrics are declared."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spread(entry: Dict[str, float]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def worsening(metric: Dict[str, Any], before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if metric["better"] == "lower" else -change


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both documents."""
    rows: List[Dict[str, Any]] = []
    same_seed = first.get("seed") == second.get("seed") and first.get("smoke") == second.get("smoke")
    for metric in load_contract()["end_to_end"]:
        for workload, left in first["workloads"].items():
            right = second["workloads"].get(workload)
            if right is None:
                continue
            a = left["end_to_end"][metric["name"]]
            b = right["end_to_end"][metric["name"]]
            worse = worsening(metric, a["value"], b["value"])
            if max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            rows.append(
                {"workload": workload, "metric": metric["name"], "unit": metric["unit"],
                 "a": a, "b": b, "worse": worse, "bound": metric["bound"], "verdict": verdict}
            )
    if same_seed:
        for workload, left in first["workloads"].items():
            right = second["workloads"].get(workload)
            if right is not None and left["detail"]["digests"] != right["detail"]["digests"]:
                rows.append(
                    {"workload": workload, "metric": "ordering_digest", "verdict": "REGRESSED",
                     "note": "same seed, different ordering digests"}
                )
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':14s} {'metric':22s} {'A (q1..q3)':>32s} {'B (q1..q3)':>32s} "
        f"{'worse':>8s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        if "note" in row:
            lines.append(f"{row['workload']:14s} {row['metric']:22s} {row['note']}  {row['verdict']}")
            continue

        def cell(entry: Dict[str, float]) -> str:
            return f"{entry['value']:.5g} ({entry['q1']:.5g}..{entry['q3']:.5g})"

        lines.append(
            f"{row['workload']:14s} {row['metric']:22s} {cell(row['a']):>32s} {cell(row['b']):>32s} "
            f"{row['worse']:+8.2%} {row['bound']:6.1%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(render(rows))
    return 1 if any(row["verdict"] == "REGRESSED" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
