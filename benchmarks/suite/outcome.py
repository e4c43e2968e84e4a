"""Outcome runs: the sim-time results and the safety checks of a workload.

Sim-time results are a deterministic function of (code, seed), so they
come from one *untimed* run per config with benchmark-side callbacks
attached to the observer (``node.on_commit``, ``node.on_ordered``); the
timed passes stay hook-free.  Every accounting window here runs to the
end of the run, not to the last commit: a committee that stops
committing must not look healthy.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.metrics.latency import LatencyStats
from repro.netexec.lockstep import LockstepSimulationRunner, check_lockstep_quiescence
from repro.network.simulator import Simulator
from repro.obs.consistency import check_run_consistency
from repro.sim.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.sim.runner import SimulationRunner
from repro.workload.generator import spawn_load

# When ``SimulationRunner`` starts its constant-rate clients.
LOAD_START = 0.5

# Counts that must repeat exactly from one run of a config to the next.
# The socket engine's timer events depend on host scheduling, so only
# what the lockstep plan fixes is compared there.
EXACT_KEYS = {
    "sim": (
        "digest", "ordered_vertices", "commits", "events", "msgs_sent",
        "msgs_dropped", "rounds", "leader_timeouts", "fetch_requests",
        "schedule_changes", "skipped_anchors", "pending_peak", "tx_submitted",
        "latency_samples",
    ),
    "net": ("digest", "ordered_vertices", "commits", "msgs_sent", "msgs_dropped"),
}


def max_commit_gap(commit_times: Sequence[float], start: float, end: float) -> float:
    """Longest interval in [start, end] without a commit.

    Counts start -> first commit and last commit -> end, so a run whose
    commits stop early reports the whole silent tail.
    """
    marks = [start] + sorted(t for t in commit_times if start <= t <= end) + [end]
    return max(later - earlier for earlier, later in zip(marks, marks[1:]))


def final_counts(
    submitted_at: Sequence[float], final_submitted_at: Sequence[float], start: float, end: float
) -> Tuple[int, int]:
    """(counted, lost) among transactions submitted in [start, end].

    ``final_submitted_at`` holds the submission times of the distinct
    transactions that became final by the end of the run.
    """
    counted = sum(1 for t in submitted_at if start <= t <= end)
    final = sum(1 for t in final_submitted_at if start <= t <= end)
    return counted, counted - final


def submission_times(config: ExperimentConfig) -> List[float]:
    """When each client transaction of ``config`` is submitted.

    The clients are constant-rate and seed-free, so replaying
    ``spawn_load`` into a stub target gives the exact schedule without
    touching the run; the caller checks the count against the run's own.
    """
    simulator = Simulator(seed=0)
    times: List[float] = []

    class _Sink:
        id = 0

        @staticmethod
        def submit_transaction(transaction) -> None:
            times.append(transaction.submitted_at)

    spawn_load(
        simulator=simulator,
        targets=[_Sink()],
        total_rate=config.input_load_tps,
        duration=config.duration,
        start_time=LOAD_START,
    )
    simulator.run(until=config.duration)
    return times


def inspect(result: ExperimentResult) -> Dict[str, Any]:
    """Exact counts and safety violations of one finished run."""
    config = result.config
    report = result.report
    counters = result.counters["always"]
    ordered, digest = result.ordering_digests[config.observer]
    crashed = set(result.crashed_validators)
    alive = [validator for validator in result.ordering_digests if validator not in crashed]
    violations = check_run_consistency(
        result.ordering_digests, result.ordering_checkpoints, validators=alive
    )
    histories = [result.schedule_histories[validator] for validator in alive]
    shortest = min(len(history) for history in histories)
    if any(history[:shortest] != histories[0][:shortest] for history in histories):
        violations.append("alive validators disagree on their common schedule history")
    exact = {
        "digest": digest,
        "ordered_vertices": ordered,
        "commits": report.commits,
        "events": counters["sim.events_fired"],
        "msgs_sent": counters["net.messages_sent"],
        "msgs_delivered": counters["net.messages_delivered"],
        "msgs_dropped": counters["net.messages_dropped"],
        "rounds": report.extra["observer_round"],
        "leader_timeouts": report.leader_timeouts,
        "fetch_requests": counters["node.fetch_requests"],
        "schedule_changes": report.schedule_changes,
        "skipped_anchors": report.skipped_anchor_rounds,
        "crashed_leader_slots": sum(
            result.skipped_rounds_per_leader.get(validator, 0) for validator in crashed
        ),
        "pending_peak": counters.get("dag.pending_peak", 0.0),
        "tx_submitted": report.submitted_transactions,
        "latency_samples": report.committed_transactions,
    }
    return {"exact": exact, "violations": violations}


def mark_repeats(reference: Dict[str, Any], run: Dict[str, Any], engine: str) -> None:
    """Record on ``run`` where its exact counts differ from ``reference``'s."""
    run["violations"].extend(
        f"{key} changed between repetitions: {reference['exact'][key]!r} then {run['exact'][key]!r}"
        for key in EXACT_KEYS[engine]
        if run["exact"][key] != reference["exact"][key]
    )


def sim_outcome(config: ExperimentConfig, final_tail: float) -> Dict[str, Any]:
    """One hooked simulator run of ``config``."""
    runner = SimulationRunner(config)
    observer = runner.nodes[config.observer]
    window = (config.warmup, config.duration - final_tail)
    commit_times: List[float] = []
    final: Dict[int, float] = {}

    def on_ordered(record) -> None:
        for transaction in record.vertex.block:
            final[transaction.tx_id] = transaction.submitted_at

    observer.on_commit(lambda subdag: commit_times.append(subdag.committed_at))
    observer.on_ordered(on_ordered)
    result = runner.run()
    outcome = inspect(result)
    submitted = submission_times(config)
    if len(submitted) != result.report.submitted_transactions:
        outcome["violations"].append(
            f"submission replay counts {len(submitted)} transactions, the run "
            f"{result.report.submitted_transactions}"
        )
    counted, lost = final_counts(submitted, list(final.values()), *window)
    outcome.update(
        committed_tps=result.report.throughput_tps,
        p50_s=result.report.p50_latency_s,
        p95_s=result.report.p95_latency_s,
        max_gap_s=max_commit_gap(commit_times, config.warmup, config.duration),
        final_counted=counted,
        final_lost=lost,
        sim_seconds=config.duration,
    )
    return outcome


def baseline_outcome(config: ExperimentConfig) -> Dict[str, float]:
    """The Bullshark twin: only what the headline ratios need."""
    report = run_experiment(config).report
    return {"committed_tps": report.throughput_tps, "p50_s": report.p50_latency_s}


def oracle_outcome(config: ExperimentConfig) -> Dict[str, Any]:
    """The lockstep oracle of a socket run, on the simulated clock.

    The socket run must order exactly what this run orders, so the
    oracle's sim-time results are the socket workload's sim-time
    results: latency from a vertex's proposal to its ordering at the
    observer, per plan-synthesized transaction, and the rate at which
    those transactions are ordered.  The run ends when the plan does, so
    the horizon is the last ordering, not ``config.duration``.
    """
    runner = LockstepSimulationRunner(config)
    observer = runner.nodes[config.observer]
    commit_times: List[float] = []
    latencies = LatencyStats()

    def on_ordered(record) -> None:
        latency = record.ordered_at - record.vertex.created_at
        latencies.extend([latency] * len(record.vertex.block))

    observer.on_commit(lambda subdag: commit_times.append(subdag.committed_at))
    observer.on_ordered(on_ordered)
    result = runner.run()
    check_lockstep_quiescence(runner.plan, runner.nodes)
    outcome = inspect(result)
    horizon = commit_times[-1]
    outcome.update(
        committed_tps=latencies.count / horizon,
        p50_s=latencies.p50(),
        p95_s=latencies.p95(),
        max_gap_s=max_commit_gap(commit_times, 0.0, horizon),
        sim_seconds=horizon,
    )
    outcome["exact"]["latency_samples"] = latencies.count
    return outcome
