#!/usr/bin/env python3
"""Hot-path microbenchmark: events/sec per figure-1 point, sweep speedup.

Measures the three things this repo's performance work optimizes:

* **Single-run speed** — wall-clock and simulator events/sec for each
  figure-1 faultless point (committee of 10, increasing load up to the
  saturation peak).  This exercises the event loop, the broadcast layer,
  the incremental commit scan, and the reachability cache together.
* **Committee scaling** — committee-25/50 stages at peak load plus a
  committee-100 stage and a smoke-scale committee-200 stage (the
  large-committee fast path: quorum bitsets, digest interning, arena
  vertex storage).  Each point is the best of its ``best_of``
  repetitions so the recorded events/sec is robust to scheduler noise;
  the per-stage ``ordering_digest`` pins the run's output so a perf
  change that alters behaviour is caught here before the regression
  gate even runs.  Every committee stage additionally records
  ``memory_per_validator`` from one *untimed* tracemalloc run (see
  :func:`measure_memory`) so the gate can catch memory regressions,
  not just speed regressions.
* **Sweep speed** — wall-clock for a 4-point latency/throughput curve run
  serially versus through the parallel :class:`SweepEngine`.

* **Lossy recovery** — a committee-25 run through a mid-run loss window,
  measured twice: certificate piggybacking off (lost certificates wait
  out the fetch timeout + round-trip) and on (they heal from the propose
  fan-out's piggyback stash).  Each variant is a best-of-N timing run
  plus one *untimed* traced run mined with :mod:`repro.obs.recovery`
  for the park-to-promote recovery latency; the stage records fetch
  round-trips, healed certificates, the stall percentiles, and the
  committed-prefix consistency of the two variants
  (:mod:`repro.obs.consistency`).  ``benchmarks/check_recovery.py``
  asserts the recovery win; the regression gate pins both variants'
  ordering digests.

Results are written to ``BENCH_PR17.json`` at the repository root so
that future PRs can diff the perf trajectory (``benchmarks/run_bench.py``
wraps this together with a scenario smoke run and the tier-2 qualitative
suite; ``BENCH_PR1.json``–``BENCH_PR10.json`` hold earlier trajectories).
``benchmarks/check_regression.py`` compares a freshly generated document
against the committed baseline and fails CI when a stage's ``wall_s`` says
it got >10% slower or ``memory_per_validator`` grew out of tolerance.
``events_per_sec`` is recorded for information only: client load stopped
being heap events in PR 17 (86% of the figure-1 peak's events), so the
figure is not comparable with ``BENCH_PR1``–``BENCH_PR10.json`` and is not
a speed.

Run with::

    python benchmarks/bench_hotpaths.py
    python benchmarks/bench_hotpaths.py --duration 30 --output my_bench.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from typing import Dict, List, Optional

# Allow running as a plain script from a source checkout.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.sim.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.sim.sweep import SweepEngine, default_parallelism

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_PR17.json")

# The figure-1 faultless preset: the paper's smallest committee under
# increasing load, with the peak (4,000 tx/s) as the last point.
FIG1_COMMITTEE = 10
FIG1_LOADS = (1000.0, 2000.0, 3000.0, 4000.0)

# Committee-scaling stages (the large-committee fast path target).  Each
# stage is one peak-load point; ``duration`` scales down with committee
# size so every stage stays inside the bench budget (simulated work per
# virtual second grows roughly quadratically with the committee).  The
# committee-200 stage is deliberately smoke-scale — it exists to pin the
# memory trajectory and the ordering digest at the largest committee,
# not to produce a low-noise events/sec number, hence the reduced
# ``best_of``.
COMMITTEE_STAGES = (
    {"committee": 25, "load": 4000.0, "duration": 20.0, "warmup": 5.0},
    {"committee": 50, "load": 4000.0, "duration": 10.0, "warmup": 2.5},
    {"committee": 100, "load": 4000.0, "duration": 5.0, "warmup": 1.0, "best_of": 3},
    {"committee": 200, "load": 4000.0, "duration": 2.0, "warmup": 0.5, "best_of": 2},
)

# The lossy-recovery stage: one committee-25 point run through a
# mid-run loss window, once with certificate piggybacking off and once
# with it on.  The window opens after warmup so the drops hit steady
# state, and closes well before the horizon so post-window recovery is
# fully observable.  Timing runs are untraced (best-of); the recovery
# mining comes from one separate traced run per variant, the same
# timed-vs-instrumented split the memory measurement uses.
LOSSY_RECOVERY_STAGE = {
    "committee": 25,
    "load": 2000.0,
    "duration": 20.0,
    "warmup": 5.0,
    "seed": 11,
    "jitter": 0.02,
    "loss_rate": 0.12,
    "loss_start": 8.0,
    "loss_end": 14.0,
    "best_of": 3,
}

# Repetitions per committee-stage point; the best run is recorded (the
# container's scheduler noise is 10-20%, so the minimum over several
# repetitions is the stable estimate).  A stage dict may carry its own
# ``best_of`` override (the committee-100/200 stages do).
BEST_OF = 5

# Committee-stage events/sec measured at the PR2 HEAD (commit d93a102)
# on the reference container — interleaved same-session A/B against the
# PR3 tree (alternating subprocess runs, best-of per tree) so host load
# drift cancels out of the ratio.  Recorded here so BENCH_PR3.json
# carries the before/after comparison the large-committee fast path
# targets (>= 2x at committee 25; measured 2.18x / 2.51x).
COMMITTEE_BASELINE_PR2 = {
    25: {"wall_s": 1.570, "events_per_sec": 101414.0, "interleaved_ab_speedup": 2.18},
    50: {"wall_s": 3.012, "events_per_sec": 64394.0, "interleaved_ab_speedup": 2.51},
}


def fig1_config(load: float, duration: float, warmup: float) -> ExperimentConfig:
    return ExperimentConfig(
        committee_size=FIG1_COMMITTEE,
        faults=0,
        input_load_tps=load,
        duration=duration,
        warmup=warmup,
        seed=2,
        commits_per_schedule=10,
        latency_model="geo",
    )


def _timed_runs(config: ExperimentConfig, best_of: int):
    """Run one config ``best_of`` times; returns (walls, last result).

    The simulation is deterministic, so repetitions differ only in
    wall-clock; the minimum is the noise-robust estimate the regression
    gate compares.  This is the single timing loop both the figure-1 and
    the committee stages use, so the methodology cannot diverge.
    """
    walls = []
    result: Optional[ExperimentResult] = None
    for _ in range(max(1, best_of)):
        start = time.perf_counter()
        result = run_experiment(config)
        walls.append(time.perf_counter() - start)
    assert result is not None
    return walls, result


def measure_point(config: ExperimentConfig, best_of: int = BEST_OF) -> Dict[str, float]:
    """Run one experiment (best of ``best_of``) and report events/sec."""
    walls, result = _timed_runs(config, best_of)
    wall = min(walls)
    events = result.report.extra.get("events_fired", 0.0)
    return {
        # Committee size rides on every stage record so the regression
        # gate matches stages by identity without parsing stage names.
        "committee_size": config.committee_size,
        "input_load_tps": config.input_load_tps,
        "best_of": len(walls),
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "throughput_tps": round(result.throughput, 2),
        "avg_latency_s": round(result.avg_latency, 4),
        "commits": float(result.report.commits),
    }


def committee_stage_config(stage: Dict[str, float]) -> ExperimentConfig:
    return ExperimentConfig(
        committee_size=int(stage["committee"]),
        faults=0,
        input_load_tps=stage["load"],
        duration=stage["duration"],
        warmup=stage["warmup"],
        seed=2,
        commits_per_schedule=10,
        latency_model="geo",
    )


def measure_memory(config: ExperimentConfig) -> Dict[str, float]:
    """Peak heap of one run, measured with :mod:`tracemalloc`.

    tracemalloc slows the interpreter several-fold, so this is a
    *separate, untimed* run after the best-of timing loop — the timing
    numbers never carry instrumentation overhead, and the memory numbers
    never race the wall clock.  The peak divided by the committee size
    (``memory_per_validator``) is the scaling metric the regression gate
    tracks: arena storage and interning should keep it near-flat as the
    committee grows, and a leaky change shows up here long before it
    OOMs a large-committee run.
    """
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "memory_peak_bytes": float(peak),
        "memory_per_validator": round(peak / config.committee_size, 1),
    }


def measure_committee_stage(stage: Dict[str, float], best_of: Optional[int] = None) -> Dict[str, object]:
    """Best-of-N measurement of one committee-scaling point.

    Events and the ordering digest are identical across repetitions (the
    simulation is a deterministic function of its config); only the
    wall-clock varies, so the minimum is the least noisy estimate.  The
    repetition count comes from the stage's own ``best_of`` when set
    (the large stages reduce it), else :data:`BEST_OF`.
    """
    config = committee_stage_config(stage)
    if best_of is None:
        best_of = int(stage.get("best_of", BEST_OF))
    walls, result = _timed_runs(config, best_of)
    wall = min(walls)
    events = result.report.extra.get("events_fired", 0.0)
    ordered_count, ordering_digest = result.ordering_digests[config.observer]
    events_per_sec = round(events / wall, 1) if wall > 0 else 0.0
    point: Dict[str, object] = {
        "committee_size": config.committee_size,
        "input_load_tps": config.input_load_tps,
        "duration_s": config.duration,
        "best_of": len(walls),
        "wall_s": round(wall, 4),
        "wall_all_s": [round(w, 4) for w in walls],
        "events": events,
        "events_per_sec": events_per_sec,
        "throughput_tps": round(result.throughput, 2),
        "avg_latency_s": round(result.avg_latency, 4),
        "ordering_digest": ordering_digest,
        "ordered_count": ordered_count,
    }
    point.update(measure_memory(config))
    baseline = COMMITTEE_BASELINE_PR2.get(config.committee_size)
    if baseline is not None:
        point["baseline_pr2_wall_s"] = baseline["wall_s"]
        # Same config, so the speedup is the wall-clock ratio (an
        # events/sec ratio stopped meaning that when events were removed).
        point["speedup_vs_pr2"] = round(baseline["wall_s"] / wall, 3) if wall > 0 else 0.0
        # The drift-controlled number: PR2 and PR3 trees alternated in
        # one session, best-of per tree (see COMMITTEE_BASELINE_PR2).
        point["interleaved_ab_speedup_vs_pr2"] = baseline["interleaved_ab_speedup"]
    return point


def lossy_recovery_config(piggyback: bool, trace: bool = False) -> ExperimentConfig:
    from repro.faults.partition import NetworkDisturbanceFault

    stage = LOSSY_RECOVERY_STAGE
    return ExperimentConfig(
        committee_size=int(stage["committee"]),
        faults=0,
        input_load_tps=stage["load"],
        duration=stage["duration"],
        warmup=stage["warmup"],
        seed=int(stage["seed"]),
        commits_per_schedule=10,
        latency_model="geo",
        certificate_piggyback=piggyback,
        trace=trace,
        extra_faults=(
            NetworkDisturbanceFault(
                jitter=stage["jitter"],
                loss_rate=stage["loss_rate"],
                start=stage["loss_start"],
                end=stage["loss_end"],
            ),
        ),
    )


def measure_lossy_recovery() -> Dict[str, object]:
    """Measure loss recovery with certificate piggybacking off and on.

    Both variants run the same committee-25 point through the same loss
    window.  Per variant: a best-of-N untraced timing run (wall-clock,
    events/sec, ordering digest, fetch/heal counters) plus one untimed
    traced run mined for the park-to-promote recovery latency.  The
    stage also records the committed-prefix comparison of the two
    variants — their final digests legitimately differ (healing changes
    post-window DAG timing), but their committed prefixes must never
    contradict each other.
    """
    from repro.obs.consistency import checkpoint_chain, compare_prefixes
    from repro.obs.recovery import recovery_summary

    stage = LOSSY_RECOVERY_STAGE
    variants: Dict[str, Dict[str, object]] = {}
    chains: Dict[str, object] = {}
    for key, piggyback in (("piggyback_off", False), ("piggyback_on", True)):
        config = lossy_recovery_config(piggyback)
        walls, result = _timed_runs(config, int(stage["best_of"]))
        wall = min(walls)
        events = result.report.extra.get("events_fired", 0.0)
        counters = result.counters.get("always", {})
        ordered_count, ordering_digest = result.ordering_digests[config.observer]
        chains[key] = checkpoint_chain(
            [tuple(checkpoint) for checkpoint in result.ordering_checkpoints[config.observer]],
            (ordered_count, ordering_digest),
        )
        # The traced run is untimed: tracing allocates per event, so the
        # wall-clock above never carries instrumentation overhead.
        traced = run_experiment(lossy_recovery_config(piggyback, trace=True))
        variants[key] = {
            "committee_size": config.committee_size,
            "input_load_tps": config.input_load_tps,
            "duration_s": config.duration,
            "certificate_piggyback": piggyback,
            "best_of": len(walls),
            "wall_s": round(wall, 4),
            "wall_all_s": [round(w, 4) for w in walls],
            "events": events,
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
            "throughput_tps": round(result.throughput, 2),
            "avg_latency_s": round(result.avg_latency, 4),
            "ordering_digest": ordering_digest,
            "ordered_count": ordered_count,
            "messages_dropped": counters.get("net.messages_dropped", 0.0),
            "fetch_requests": counters.get("node.fetch_requests", 0.0),
            "certificates_piggybacked": counters.get("node.certificates_piggybacked", 0.0),
            "certificates_healed": counters.get("node.certificates_healed", 0.0),
            "recovery": recovery_summary(traced.trace),
        }
    comparison = compare_prefixes(chains["piggyback_off"], chains["piggyback_on"])
    off = variants["piggyback_off"]
    on = variants["piggyback_on"]
    off_recovery: Dict[str, float] = off["recovery"]  # type: ignore[assignment]
    on_recovery: Dict[str, float] = on["recovery"]  # type: ignore[assignment]
    return {
        "stage": dict(stage),
        "piggyback_off": off,
        "piggyback_on": on,
        "prefix_consistent": comparison.consistent,
        "common_prefix": comparison.common_prefix,
        "fetch_requests_saved": float(off["fetch_requests"]) - float(on["fetch_requests"]),
        "stall_avg_improvement_s": round(
            off_recovery.get("avg", 0.0) - on_recovery.get("avg", 0.0), 4
        ),
        "stall_p95_improvement_s": round(
            off_recovery.get("p95", 0.0) - on_recovery.get("p95", 0.0), 4
        ),
    }


def measure_sweep(duration: float, warmup: float, parallelism: int) -> Dict[str, float]:
    """Wall-clock of a 4-point curve, serial vs parallel engine."""
    configs = [fig1_config(load, duration, warmup) for load in FIG1_LOADS]
    start = time.perf_counter()
    serial = SweepEngine(parallelism=1).run(configs)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = SweepEngine(parallelism=parallelism).run(configs)
    parallel_wall = time.perf_counter() - start
    # Sanity: parallel execution must not change any result.
    for serial_result, parallel_result in zip(serial, parallel):
        if serial_result.ordering_digests != parallel_result.ordering_digests:
            raise AssertionError("parallel sweep diverged from serial results")
    return {
        "points": len(configs),
        "parallelism": parallelism,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "speedup": round(serial_wall / parallel_wall, 3) if parallel_wall > 0 else 0.0,
    }


def run_benchmarks(
    duration: float = 20.0,
    warmup: float = 5.0,
    parallelism: Optional[int] = None,
    include_sweep: bool = True,
    loads: Optional[tuple] = None,
) -> Dict[str, object]:
    """Run the microbenchmark suite and return the results document.

    ``loads`` restricts the figure-1 load points (the CI smoke run keeps
    only the saturation peak); the committee-scaling stages always run —
    they are the fast-path target the regression gate protects.
    """
    workers = default_parallelism() if parallelism is None else max(1, parallelism)
    points: List[Dict[str, float]] = []
    for load in (loads if loads is not None else FIG1_LOADS):
        point = measure_point(fig1_config(load, duration, warmup))
        points.append(point)
        print(
            f"  load {load:7.0f} tx/s: {point['wall_s']:7.3f}s wall, "
            f"{point['events_per_sec']:11.0f} events/s, "
            f"{point['throughput_tps']:8.1f} tx/s committed"
        )
    committee_points: List[Dict[str, object]] = []
    for stage in COMMITTEE_STAGES:
        point = measure_committee_stage(stage)
        committee_points.append(point)
        print(
            f"  committee {point['committee_size']:3d} @ {point['input_load_tps']:5.0f} tx/s: "
            f"{point['wall_s']:7.3f}s wall (best of {point['best_of']}), "
            f"{point['events_per_sec']:11.0f} events/s, "
            f"{point['memory_per_validator'] / 1024:8.1f} KiB/validator peak"
        )
    print("  lossy-recovery stage (committee 25, loss window, piggyback off/on) ...")
    lossy_recovery = measure_lossy_recovery()
    for key in ("piggyback_off", "piggyback_on"):
        variant = lossy_recovery[key]
        recovery = variant["recovery"]
        print(
            f"    {key:14s}: {variant['wall_s']:7.3f}s wall, "
            f"{variant['fetch_requests']:4.0f} fetches, "
            f"{variant['certificates_healed']:3.0f} healed, "
            f"stall avg {recovery['avg']:.3f}s (p95 {recovery['p95']:.3f}s, "
            f"{recovery['count']:.0f} parked)"
        )
    document: Dict[str, object] = {
        "benchmark": "bench_hotpaths",
        "preset": f"figure-1 faultless, committee {FIG1_COMMITTEE}",
        # Every point is a best-of-N wall-clock minimum from PR3 onward.
        # NOTE: the PR2 fig-1 trajectory (BENCH_PR2.json) was single-run,
        # so cross-PR fig-1 comparisons mix methodologies; the committee
        # stages carry a same-methodology PR2 baseline in-band.
        "methodology": (
            f"best-of-{BEST_OF} wall-clock minimum per point (per-stage "
            "best_of overrides at committee 100+); memory_per_validator "
            "from one untimed tracemalloc run per committee stage"
        ),
        "duration_s": duration,
        "warmup_s": warmup,
        "points": points,
        "committee_scaling": committee_points,
        "lossy_recovery": lossy_recovery,
        "environment": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
        },
    }
    if include_sweep:
        print(f"  sweeping {len(FIG1_LOADS)} points, parallelism {workers} ...")
        document["sweep"] = measure_sweep(duration, warmup, workers)
    return document


def write_results(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=20.0)
    parser.add_argument("--warmup", type=float, default=5.0)
    parser.add_argument("--parallelism", type=int, default=None)
    parser.add_argument("--no-sweep", action="store_true", help="skip the sweep comparison")
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    print(f"bench_hotpaths: figure-1 faultless preset, committee {FIG1_COMMITTEE}")
    document = run_benchmarks(
        duration=args.duration,
        warmup=args.warmup,
        parallelism=args.parallelism,
        include_sweep=not args.no_sweep,
    )
    write_results(document, args.output)


if __name__ == "__main__":
    main()
