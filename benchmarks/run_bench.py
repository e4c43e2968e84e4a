#!/usr/bin/env python3
"""Run the benchmark suite under a time budget and emit ``BENCH_PR17.json``.

Stages, all optional and all budgeted:

0. A **fixed CPU-calibration microbenchmark** (pure-Python hash/dict/
   sort work, no simulation) whose ops/sec fingerprint the host.  The
   regression gate divides fresh/baseline speed ratios by the
   calibration ratio, so a slower hosted runner no longer needs a
   0.35-wide tolerance to pass a gate recorded on the reference
   container.
1. The hot-path microbenchmark (``benchmarks/bench_hotpaths.py``):
   wall-clock (and events/sec, for information) per figure-1 point, the committee-25/50
   scaling stages plus the committee-100 and smoke-scale committee-200
   stages (best-of-N wall-clock minimum, ``memory_per_validator`` from
   one untimed tracemalloc run per stage), plus the parallel-sweep
   speedup.
2. Two **scenario smoke runs** at smoke scale through the full scenario
   pipeline (spec → compile → sweep → artifact): ``mixed-adversary``
   (crash/slow/disturbance faults) and ``reputation-gamer`` (the
   ``scenario_adversary`` stage — a behavior-policy adversary, recorded
   with its reputation-reaction metrics), plus the ``scenario_matrix``
   stage: a smoke subset of the attack x scoring-rule ablation matrix
   (``python -m repro.scenarios matrix``), so the perf trajectory always
   covers the scenario layer, the adversary engine (coalitions
   included), and the scoring-rule registry.
3. The tier-2 qualitative suite (``benchmarks/test_bench_*.py`` under
   pytest), run at ``REPRO_BENCH_SCALE=quick`` so it fits the budget;
   only the pass/fail outcome and wall-clock are recorded.

The merged document is written to ``BENCH_PR17.json`` at the repository
root so future PRs can diff the performance trajectory;
``benchmarks/check_regression.py`` gates CI against it (a stage whose
``wall_s`` says it got >10% slower fails, after CPU-calibration
normalization; ``memory_per_validator`` growth beyond its own tolerance
fails too).

Run with::

    python benchmarks/run_bench.py                  # all stages
    python benchmarks/run_bench.py --skip-suite     # no tier-2 pytest
    python benchmarks/run_bench.py --smoke          # CI: fig-1 peak + committee stages
    python benchmarks/run_bench.py --budget 120     # tighter budget (s)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time

# Allow running as a plain script from a source checkout.
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench_hotpaths import DEFAULT_OUTPUT, REPO_ROOT, run_benchmarks, write_results

# Default wall-clock budget for the whole invocation, overridable with
# ``--budget`` or the ``REPRO_BENCH_BUDGET_S`` environment variable.
DEFAULT_BUDGET_S = 600.0


def run_cpu_calibration(repetitions: int = 3) -> dict:
    """A fixed, dependency-free CPU microbenchmark fingerprinting the host.

    The workload mirrors the simulator's hot-path mix — SHA-256 over
    small buffers, dict churn, tuple sorting, and integer arithmetic —
    without touching the simulation code, so its score moves with the
    host's single-core speed but never with this repository's changes.
    ``cpu_score`` is operations per second, best of ``repetitions``
    (minimum wall-clock), the same noise discipline as the committee
    stages.
    """
    import hashlib

    def one_pass() -> float:
        start = time.perf_counter()
        payload = b"repro-calibration" * 16
        accumulator = 0
        table = {}
        for index in range(20_000):
            digest = hashlib.sha256(payload + index.to_bytes(4, "big")).digest()
            accumulator ^= digest[0] | (digest[1] << 8)
            table[index & 1023] = digest
        items = sorted((value[0], key) for key, value in table.items())
        accumulator += sum(entry[0] for entry in items)
        del table, items, accumulator
        return time.perf_counter() - start

    walls = [one_pass() for _ in range(repetitions)]
    best = min(walls)
    return {
        "repetitions": repetitions,
        "wall_s_best": round(best, 4),
        "wall_s_all": [round(wall, 4) for wall in walls],
        "cpu_score": round(20_000 / best, 1),
    }


def run_scenario_matrix_smoke() -> dict:
    """Smoke-run a small attack x rule matrix through the full pipeline.

    Two attacks (the canonical gamer and the adaptive DoS coalition) by
    two rules (the paper's vote rule and the completeness rule) keep the
    stage inside the CI budget while still exercising the coalition
    coordinator, the scoring-rule sweep axis, and the matrix assembly;
    the regression gate compares the per-cell ordering digests.
    """
    from repro.scenarios import run_matrix

    start = time.perf_counter()
    document = run_matrix(
        attacks=("reputation-gamer", "adaptive-dos"),
        rules=("hammerhead", "completeness"),
        smoke=True,
        parallelism=1,
    )
    wall = time.perf_counter() - start
    return {
        "wall_s": round(wall, 3),
        "attacks": document["attacks"],
        "rules": document["rules"],
        "row_digests": document["row_digests"],
        "summary": document["summary"],
        "cells": [
            {
                "attack": cell["attack"],
                "rule": cell["rule"],
                "label": cell["label"],
                "scenario_digest": cell["scenario_digest"],
                "ordering_digest": cell["ordering_digest"],
                "ordered_count": cell["ordered_count"],
                "culprits_demoted": cell["culprits_demoted"],
                "culprit_count": cell["culprit_count"],
                "first_demotion_round": cell["first_demotion_round"],
                "throughput_tps": cell["throughput_tps"],
            }
            for cell in document["cells"]
        ],
    }


def run_scenario_smoke(name: str = "mixed-adversary", include_reputation: bool = False) -> dict:
    """Smoke-run one scenario through the full scenario engine pipeline.

    With ``include_reputation`` the stage also records the
    reputation-reaction summary per point — used by the
    ``scenario_adversary`` stage, which covers the behavior-policy
    adversary engine end to end (policy installation through a compiled
    BehaviorFault, the policy-bent decision points, and the metrics) so
    the perf trajectory and the regression gate always exercise the
    policy layer.
    """
    from repro.scenarios import get_scenario, run_scenario

    spec = get_scenario(name).smoke()
    start = time.perf_counter()
    artifact = run_scenario(spec, parallelism=1)
    wall = time.perf_counter() - start
    document = {
        "scenario": name,
        "scenario_digest": artifact["scenario_digest"],
        "wall_s": round(wall, 3),
        "points": [
            {
                "label": point["label"],
                "throughput_tps": round(point["report"]["throughput_tps"], 2),
                "avg_latency_s": round(point["report"]["avg_latency_s"], 4),
                "committed": point["report"]["committed_transactions"],
                "ordering_digest": point["ordering_digest"],
                # Instrumentation snapshot (observability only — the
                # regression gate compares digests, never counters; the
                # memo.* entries are process-wide and non-reproducible).
                "counters": (point.get("counters") or {}).get("always", {}),
            }
            for point in artifact["points"]
        ],
    }
    if include_reputation:
        document["reputation"] = [
            {
                "label": point["label"],
                "faulty_validators": point["reputation"]["faulty_validators"],
                "rounds_until_demotion": point["reputation"]["rounds_until_demotion"],
                "faulty_slot_share_converged": point["reputation"][
                    "faulty_slot_share_converged"
                ],
            }
            for point in artifact["points"]
        ]
    return document


def run_tier2_suite(budget_s: float) -> dict:
    """Run the pytest benchmark suite at quick scale within ``budget_s``."""
    env = dict(os.environ)
    env.setdefault("REPRO_BENCH_SCALE", "quick")
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"]
    start = time.perf_counter()
    try:
        completed = subprocess.run(
            command,
            cwd=REPO_ROOT,
            env=env,
            timeout=max(1.0, budget_s),
            capture_output=True,
            text=True,
        )
        outcome = "passed" if completed.returncode == 0 else "failed"
        tail = (completed.stdout or "").strip().splitlines()[-1:]
    except subprocess.TimeoutExpired:
        outcome = "timeout"
        tail = []
    wall = time.perf_counter() - start
    return {
        "scale": env["REPRO_BENCH_SCALE"],
        "outcome": outcome,
        "wall_s": round(wall, 2),
        "summary": tail[0] if tail else "",
    }


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_BUDGET_S", DEFAULT_BUDGET_S)),
        help="total wall-clock budget in seconds",
    )
    parser.add_argument("--duration", type=float, default=20.0, help="virtual seconds per point")
    parser.add_argument("--parallelism", type=int, default=None)
    parser.add_argument("--skip-suite", action="store_true", help="skip the tier-2 pytest suite")
    parser.add_argument(
        "--skip-scenario", action="store_true", help="skip the scenario smoke stage"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI mode: figure-1 peak point + committee-scaling stages + "
            "scenario smoke only (no sweep comparison, no tier-2 suite)"
        ),
    )
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    start = time.perf_counter()
    if args.smoke:
        args.skip_suite = True
    print(f"run_bench: budget {args.budget:.0f}s{' (smoke)' if args.smoke else ''}")
    calibration = run_cpu_calibration()
    print(f"cpu calibration: {calibration['cpu_score']:,.0f} ops/s")
    document = run_benchmarks(
        duration=args.duration,
        parallelism=args.parallelism,
        include_sweep=not args.smoke,
        loads=(4000.0,) if args.smoke else None,
    )
    document["budget_s"] = args.budget
    document["smoke"] = bool(args.smoke)
    document["calibration"] = calibration
    scenario_stages = (
        ("scenario_smoke", "mixed-adversary", False),
        # The behavior-policy adversary engine: a BehaviorFault-compiled
        # scenario with reputation-reaction metrics in the stage record.
        ("scenario_adversary", "reputation-gamer", True),
    )
    for stage, scenario_name, include_reputation in scenario_stages:
        if args.skip_scenario:
            document[stage] = {"outcome": "skipped", "reason": "--skip-scenario"}
        elif args.budget - (time.perf_counter() - start) < 10.0:
            print(f"budget exhausted, skipping {stage}")
            document[stage] = {"outcome": "skipped", "reason": "budget exhausted"}
        else:
            print(f"running {stage} ({scenario_name}, smoke scale) ...")
            try:
                document[stage] = run_scenario_smoke(
                    scenario_name, include_reputation=include_reputation
                )
            except Exception as error:  # the bench document must still be written
                print(f"{stage} failed: {error!r}")
                document[stage] = {"outcome": "failed", "error": repr(error)}
    # The attack x scoring-rule matrix smoke stage (coalition adversaries
    # + the scoring-rule sweep axis through the full pipeline).
    if args.skip_scenario:
        document["scenario_matrix"] = {"outcome": "skipped", "reason": "--skip-scenario"}
    elif args.budget - (time.perf_counter() - start) < 10.0:
        print("budget exhausted, skipping scenario_matrix")
        document["scenario_matrix"] = {"outcome": "skipped", "reason": "budget exhausted"}
    else:
        print("running scenario_matrix (2 attacks x 2 rules, smoke scale) ...")
        try:
            document["scenario_matrix"] = run_scenario_matrix_smoke()
        except Exception as error:  # the bench document must still be written
            print(f"scenario_matrix failed: {error!r}")
            document["scenario_matrix"] = {"outcome": "failed", "error": repr(error)}
    if not args.skip_suite:
        remaining = args.budget - (time.perf_counter() - start)
        if remaining > 30.0:
            print(f"running tier-2 suite (quick scale, {remaining:.0f}s left) ...")
            document["tier2_suite"] = run_tier2_suite(remaining)
        else:
            print("budget exhausted, skipping the tier-2 suite")
            document["tier2_suite"] = {"outcome": "skipped", "reason": "budget exhausted"}
    document["total_wall_s"] = round(time.perf_counter() - start, 2)
    write_results(document, args.output)
    failed = any(
        document.get(stage, {}).get("outcome") == "failed"
        for stage in (
            "tier2_suite",
            "scenario_smoke",
            "scenario_adversary",
            "scenario_matrix",
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
