#!/usr/bin/env python3
"""One workload in one fresh interpreter (started by run.py, one at a time).

``--mode setup`` imports the package, constructs the workload's
deployment and exits; it is timed from outside as one *set-up probe*.
``--mode run`` measures, in this order:

1. hook-free *timed passes* until ``--seconds`` have gone by: a set-up
   probe (a fresh interpreter in ``--mode setup``), then for every
   config of the workload a full collection (outside the window), the
   calibration kernel, build, the timed run, the kernel again;
2. ``ru_maxrss``, before the benchmark's own bookkeeping can raise it;
3. one untimed *outcome run* per config with callbacks attached, which
   yields every sim-time result, and the correctness checks;
4. with ``--trace 1``, one profiled run and the unit costs.

It prints one JSON document on its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import layers  # noqa: E402
import outcome  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import REFERENCE_S, kernel  # noqa: E402
from repro.netexec.runner import run_net_experiment  # noqa: E402
from repro.sim.runner import SimulationRunner  # noqa: E402

SOCKET_DIR = os.path.join(SUITE_DIR, ".sockets")
SMOKE_UNIT_SCALE = 0.02
# Fewest set-up probes behind ``setup_s``.  One opens every timed pass,
# so they are spread over the run: this sandbox's speed changes by a
# factor of 1.3-1.6 every few seconds, and seven back-to-back probes all
# land in one phase.
MIN_SETUP_PROBES = 5
# The unit costs are measured this many times, each round between two
# kernel readings of its own; the median round is reported.
UNIT_COST_ROUNDS = 3


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles; a single value is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def use_local_sockets() -> None:
    """Keep the socket backend's temporary directory inside the checkout.

    ``run_net_experiment`` binds under ``tempfile.gettempdir()``.  A Unix
    socket path is limited to ~107 bytes, and the checkout may sit
    anywhere, so the directory is entered and named relatively.
    """
    os.makedirs(SOCKET_DIR, exist_ok=True)
    os.chdir(SOCKET_DIR)
    tempfile.tempdir = os.curdir


def execute(engine: str, config) -> Tuple[float, float, Any]:
    """Build and run ``config`` once: (build seconds, run seconds, result)."""
    start = time.perf_counter()
    if engine == "net":
        result = run_net_experiment(config, family="uds")
        return 0.0, time.perf_counter() - start, result
    runner = SimulationRunner(config)
    built = time.perf_counter()
    result = runner.run()
    return built - start, time.perf_counter() - built, result


def setup_probe(arguments: List[str]) -> float:
    """Wall seconds of a fresh interpreter that builds the deployment and exits."""
    command = [sys.executable, os.path.abspath(__file__), *arguments, "--mode", "setup"]
    start = time.perf_counter()
    # A blocking wait: ``wait(timeout=...)`` polls in steps of up to
    # 50 ms, which would quantize a ~0.25 s measurement.
    with subprocess.Popen(command, stdout=subprocess.DEVNULL) as probe:
        status = probe.wait()
    seconds = time.perf_counter() - start
    if status != 0:
        raise subprocess.CalledProcessError(status, command)
    return seconds


def timed_passes(
    workload, seconds: float, min_passes: int, probe_arguments: List[str], min_probes: int, read_kernel
):
    """Hook-free timed passes; returns (passes, kernel seconds, set-up probes).

    Each run is bracketed by two kernel readings (the closing one of a
    run opens the next); its cost in cal is its seconds over their mean.
    Each set-up probe is a (probe seconds, mean of the kernel readings on
    either side of it) pair.
    """
    kernel_s: List[float] = []
    probes: List[Tuple[float, float]] = []
    passes: List[List[Dict[str, Any]]] = []

    def probe_then_kernel() -> float:
        probe_s = setup_probe(probe_arguments)
        gc.collect()
        reading = read_kernel()
        probes.append((probe_s, (kernel_s[-1] + reading) / 2.0 if kernel_s else reading))
        kernel_s.append(reading)
        return reading

    def another_pass_fits() -> bool:
        # Start a pass only if at least half of it fits into ``seconds``:
        # a pass of lossy-c25 takes 6-8 s.
        elapsed = time.perf_counter() - started
        return elapsed + 0.5 * elapsed / len(passes) < seconds

    started = time.perf_counter()
    while len(passes) < min_passes or another_pass_fits():
        runs = []
        before = probe_then_kernel()
        for config in workload.configs:
            build_s, run_s, result = execute(workload.engine, config)
            run = outcome.inspect(result)
            del result
            gc.collect()
            after = read_kernel()
            kernel_s.append(after)
            run.update(build_s=build_s, run_s=run_s, cost_cal=run_s / ((before + after) / 2.0))
            runs.append(run)
            before = after
        passes.append(runs)
    while len(probes) < min_probes:
        probe_then_kernel()
    return passes, kernel_s, probes


def traced_run(workload) -> Tuple[Dict[str, Any], float]:
    """Profile one run of the workload's first config; (layer table, seconds)."""
    config = workload.configs[0]
    gc.collect()
    if workload.engine == "net":
        call = lambda: run_net_experiment(config, family="uds")  # noqa: E731
    else:
        call = SimulationRunner(config).run
    stats, seconds = tracing.profile(call)
    return tracing.fold(stats), seconds


def measure(workload, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict[str, Any]:
    engine = workload.engine
    probe_arguments = ["--workload", workload.name, "--seed", str(seed)]
    if smoke:
        # A plumbing check measures nothing: one pass, one probe, and the
        # kernel's nominal time in place of readings.
        read_kernel = lambda: REFERENCE_S  # noqa: E731
        probe_arguments.append("--smoke")
        seconds, min_passes, min_probes = 0.0, 1, 1
    else:
        read_kernel = kernel
        min_passes, min_probes = workload.min_passes, MIN_SETUP_PROBES
    passes, kernel_s, probes = timed_passes(
        workload, seconds, min_passes, probe_arguments, min_probes, read_kernel
    )
    # Seconds on the reference host: the sandbox's speed moves by a factor
    # of up to 1.6 between runs, and the kernel moves with it.
    setup_s = [probe_s * REFERENCE_S / beside for probe_s, beside in probes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal_s = statistics.median(kernel_s)
    pass_run_s = [sum(run["run_s"] for run in runs) for runs in passes]
    pass_cost_cal = [sum(run["cost_cal"] for run in runs) for runs in passes]
    host_s = statistics.median(pass_run_s)
    for runs in passes[1:]:
        for first, run in zip(passes[0], runs):
            outcome.mark_repeats(first, run, engine)

    # -- outcome runs ---------------------------------------------------------
    oracle_s = 0.0
    if engine == "net":
        started = time.perf_counter()
        outcomes = [outcome.oracle_outcome(config) for config in workload.configs]
        oracle_s = time.perf_counter() - started
        counted = passes[0]
        for socket_run, oracle in zip(counted, outcomes):
            if socket_run["exact"]["digest"] != oracle["exact"]["digest"]:
                socket_run["violations"].append(
                    "the socket run's ordering digest differs from its lockstep oracle's"
                )
        final_counted = sum(run["exact"]["msgs_sent"] for run in counted)
        final_lost = final_counted - sum(run["exact"]["msgs_delivered"] for run in counted)
    else:
        outcomes = [outcome.sim_outcome(config, workload.final_tail) for config in workload.configs]
        counted = outcomes
        for first, hooked in zip(passes[0], outcomes):
            outcome.mark_repeats(first, hooked, engine)
        final_counted = sum(run["final_counted"] for run in outcomes)
        final_lost = sum(run["final_lost"] for run in outcomes)
    baselines = [outcome.baseline_outcome(config) for config in workload.baseline]

    def mean(key: str) -> float:
        return statistics.fmean(run[key] for run in outcomes)

    def total(key: str) -> float:
        return float(sum(run["exact"][key] for run in counted))

    end_to_end = {
        "committed_tps": mean("committed_tps"),
        "commit_latency_p50_s": mean("p50_s"),
        "commit_latency_p95_s": mean("p95_s"),
        "max_commit_gap_s": mean("max_gap_s"),
        "final_share": 1.0 - final_lost / final_counted,
        "run_cost_cal": statistics.median(pass_cost_cal),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s),
    }
    p50_gain = tps_gain = 0.0
    if baselines:
        baseline_p50 = statistics.fmean(run["p50_s"] for run in baselines)
        baseline_tps = statistics.fmean(run["committed_tps"] for run in baselines)
        p50_gain = baseline_p50 / end_to_end["commit_latency_p50_s"]
        tps_gain = end_to_end["committed_tps"] / baseline_tps
        if not smoke and p50_gain <= 1.0:
            outcomes[0]["violations"].append(
                f"HammerHead p50 {end_to_end['commit_latency_p50_s']:.3f}s is not below "
                f"Bullshark's {baseline_p50:.3f}s"
            )

    # An operation of this benchmark is one run of the program; it fails
    # when it breaks a safety, determinism or oracle check.  (A run that
    # raises ends the worker.)  Transactions the program loses are what
    # ``final_share`` measures.
    program_runs = [run for runs in passes for run in runs] + outcomes
    errors = [violation for run in program_runs for violation in run["violations"]]
    attempted = len(program_runs) + len(baselines)
    failed = sum(1 for run in program_runs if run["violations"])

    document: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "smoke": smoke,
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "detail": {
            "final_counted": int(final_counted),
            "final_lost": int(final_lost),
            "passes": len(passes),
            "runs_per_pass": len(workload.configs),
            "pass_run_s": pass_run_s,
            "pass_cost_cal": quartiles(pass_cost_cal),
            "run_cost_cal": [[run["cost_cal"] for run in runs] for runs in passes],
            "setup_s": quartiles(setup_s),
            "setup_raw_s": quartiles([probe_s for probe_s, _beside in probes]),
            "build_s": statistics.median(sum(run["build_s"] for run in runs) for runs in passes),
            "kernel_s": quartiles(kernel_s),
            "digests": [run["exact"]["digest"] for run in counted],
            "baseline": baselines,
        },
    }
    if not traced:
        return document

    # -- per-layer table --------------------------------------------------------
    table, traced_s = traced_run(workload)
    first_run_s = statistics.median(runs[0]["run_s"] for runs in passes)
    sim_seconds = sum(run["sim_seconds"] for run in outcomes)
    commits = total("commits")
    spread = quartiles(pass_run_s)
    per_layer: Dict[str, float] = {}
    for layer in tracing.LAYERS:
        per_layer[f"{layer}.self_share"] = table["self_share"][layer]
        per_layer[f"{layer}.calls"] = float(table["calls"][layer])
    per_layer.update(
        {
            "network.simulator.events": total("events"),
            "network.transport.msgs_sent": total("msgs_sent"),
            "network.transport.msgs_dropped": total("msgs_dropped"),
            "network.transport.msgs_per_commit": total("msgs_sent") / commits,
            "node.validator.rounds": total("rounds"),
            "node.validator.leader_timeouts": total("leader_timeouts"),
            "node.validator.fetch_requests": total("fetch_requests"),
            "consensus.bullshark.commits": commits,
            "consensus.bullshark.ordered_vertices": total("ordered_vertices"),
            "consensus.bullshark.skipped_anchors": total("skipped_anchors"),
            "core.manager.schedule_changes": total("schedule_changes"),
            "core.manager.crashed_leader_slots": total("crashed_leader_slots"),
            "core.manager.p50_gain_vs_bullshark": p50_gain,
            "core.manager.tps_gain_vs_bullshark": tps_gain,
            "dag.store.pending_peak": float(max(run["exact"]["pending_peak"] for run in counted)),
            "workload.generator.tx_submitted": total("tx_submitted"),
            "metrics.collector.latency_samples": float(
                sum(run["exact"]["latency_samples"] for run in outcomes)
            ),
            "run.host_s": host_s,
            "run.host_s_per_sim_s": host_s / sim_seconds,
            "run.events_per_host_s": total("events") / host_s,
            "run.host_us_per_ordered_vertex": host_s * 1e6 / total("ordered_vertices"),
            "run.calibration_s": cal_s,
            "run.rep_iqr_share": (spread["q3"] - spread["q1"]) / spread["median"],
            "run.trace_overhead": traced_s / first_run_s,
            "netexec.transport.msgs_per_host_s": total("msgs_sent") / host_s if engine == "net" else 0.0,
            "netexec.transport.cost_vs_lockstep": host_s / oracle_s if engine == "net" else 0.0,
        }
    )
    rounds: List[Dict[str, float]] = []
    for _ in range(1 if smoke else UNIT_COST_ROUNDS):
        gc.collect()
        before = read_kernel()
        units = layers.unit_costs(seed, SMOKE_UNIT_SCALE if smoke else 1.0)
        beside = (before + read_kernel()) / 2.0
        rounds.append(
            {name: operations / (unit_s / beside) for name, (operations, unit_s) in units.items()}
        )
    for name in rounds[0]:
        per_layer[name] = statistics.median(unit_round[name] for unit_round in rounds)
    document["per_layer"] = per_layer
    document["detail"]["trace"] = {
        "traced_s": traced_s,
        "untraced_s": first_run_s,
        "self_s": table["self_s"],
        "edges": table["edges"],
    }
    return document


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    args = parser.parse_args(argv)
    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    # Every workload: the traced step's frame unit cost binds sockets too.
    use_local_sockets()
    if args.mode == "setup":
        for config in workloads.setup_config(workload):
            if workload.engine == "net":
                run_net_experiment(config, family="uds")
            else:
                SimulationRunner(config)
        return 0
    document = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
