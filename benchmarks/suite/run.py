#!/usr/bin/env python3
"""The repo's one benchmark: ``python3 benchmarks/suite/run.py``.

Runs each workload named in BENCHMARK.json in its own fresh interpreter
(worker.py), one at a time, prints every metric by name with its unit,
checks that the program's outputs are correct, and writes one results
JSON.  README.md in this directory defines every metric.

    run.py                                  all five workloads, seed 2
    run.py --workload faults-c10 --seed 7   one workload
    run.py --traced                         adds the per-layer table
    run.py --repeat 2                       two sets, then compare.py
    run.py --smoke                          seconds, for plumbing checks

Called with one ``--workload``, the last line of standard output is the
driver's JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  The exit code is non-zero when a workload
fails, an output is wrong or, with ``--repeat``, the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

import compare

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(SUITE_DIR, "worker.py")
RESULTS_DIR = os.path.join(SUITE_DIR, "results")

WORKER_TIMEOUT_S = 170.0
# String hashing is randomized per interpreter; pinning it removes one
# source of process-to-process timing difference.  Results do not depend
# on it (the repo's determinism gate runs under two hash seeds).
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def run_workload(
    contract: Dict[str, Any], workload: str, seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict[str, Any]:
    """Run the worker; returns the workload's results entry."""
    command = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    if smoke:
        command.append("--smoke")
    finished = subprocess.run(
        command, check=True, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        env=WORKER_ENV,
    )
    document = json.loads(finished.stdout.strip().splitlines()[-1])
    values = document["end_to_end"]
    spreads = {
        "run_cost_cal": document["detail"]["pass_cost_cal"],
        "setup_s": document["detail"]["setup_s"],
    }
    entry: Dict[str, Any] = {
        "correct": document["correct"],
        "errors": document["errors"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "end_to_end": {},
        "detail": document["detail"],
    }
    for metric in contract["end_to_end"]:
        name = metric["name"]
        value = values[name]
        quartiles = spreads.get(name, {"q1": value, "q3": value, "n": 1})
        entry["end_to_end"][name] = {
            "value": value, "unit": metric["unit"],
            "q1": quartiles["q1"], "q3": quartiles["q3"], "n": quartiles["n"],
        }
    if traced:
        units = {metric["name"]: metric["unit"] for metric in contract["per_layer"]}
        entry["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in document["per_layer"].items()
        }
    return entry


def print_entry(workload: str, entry: Dict[str, Any]) -> None:
    verdict = "correct" if entry["correct"] else "WRONG"
    detail = entry["detail"]
    print(
        f"\n== {workload}: {verdict}, {entry['failed']} of {entry['attempted']} program runs failed a "
        f"check, {detail['final_lost']} of {detail['final_counted']} transactions or frames not final"
    )
    for error in entry["errors"]:
        print(f"   !! {error}")
    for name, metric in entry["end_to_end"].items():
        note = ""
        if metric["n"] > 1:
            note = f"   (quartiles {metric['q1']:.5g}..{metric['q3']:.5g}, n={metric['n']})"
        print(f"   {name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    for name, metric in entry.get("per_layer", {}).items():
        print(f"   {name:40s} {metric['value']:14.6g} {metric['unit']}")


def run_set(
    contract: Dict[str, Any], names: List[str], seed: int, seconds: float, traced: bool, smoke: bool
) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "benchmark": "benchmarks/suite", "seed": seed, "seconds": seconds,
        "traced": traced, "smoke": smoke, "workloads": {},
    }
    for workload in names:
        entry = run_workload(contract, workload, seed, seconds, traced, smoke)
        document["workloads"][workload] = entry
        print_entry(workload, entry)
    return document


def write_results(document: Dict[str, Any], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {path}")


def driver_line(entry: Dict[str, Any], traced: bool) -> str:
    """The single-workload result object the driver reads."""
    metrics = entry["per_layer"] if traced else entry["end_to_end"]
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in metrics.items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    contract = compare.load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="how long the timed passes of one workload measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, help="run this many sets and compare them")
    parser.add_argument("--output", help="results JSON (default: results/ in this directory)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    traced = args.traced or bool(args.trace)
    selected = [args.workload] if args.workload else names

    output = args.output or os.path.join(RESULTS_DIR, f"{args.workload or 'suite'}-seed{args.seed}.json")
    root, extension = os.path.splitext(output)
    documents = []
    for index in range(max(1, args.repeat)):
        document = run_set(contract, selected, args.seed, args.seconds, traced, args.smoke)
        documents.append(document)
        write_results(document, f"{root}-{index + 1}{extension}" if args.repeat > 1 else output)

    failed = [
        workload for document in documents
        for workload, entry in document["workloads"].items() if not entry["correct"]
    ]
    for first, second in zip(documents, documents[1:]):
        rows = compare.compare(first, second)
        print()
        print(compare.render(rows))
        failed.extend(f"{row['workload']}/{row['metric']}" for row in rows if row["verdict"] == "REGRESSED")
    if failed:
        print(f"\nFAILED: {', '.join(failed)}", file=sys.stderr)
    if args.workload:
        print(driver_line(documents[-1]["workloads"][args.workload], traced))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
