"""Experiment configuration and results.

An :class:`ExperimentConfig` describes one run: which protocol, how many
validators, how much load, which faults.  :func:`run_experiment` builds a
:class:`~repro.sim.runner.SimulationRunner` from the config, runs it, and
returns an :class:`ExperimentResult` carrying the performance report plus
handles to the simulation internals (used by integration tests to check
safety and schedule agreement).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.scoring import scoring_rule_names
from repro.errors import ConfigurationError
from repro.faults.base import FaultPlan
from repro.metrics.report import PerformanceReport
from repro.types import SimTime

# Protocol identifiers.
PROTOCOL_HAMMERHEAD = "hammerhead"
PROTOCOL_BULLSHARK = "bullshark"


@dataclasses.dataclass
class ExperimentConfig:
    """Full description of one simulated benchmark run."""

    # System under test.
    protocol: str = PROTOCOL_HAMMERHEAD
    committee_size: int = 10
    stake: str = "equal"  # "equal" or "geometric"

    # Workload.  ``input_load_tps`` drives a constant-rate load; when
    # ``load_phases`` is non-empty it takes precedence and describes a
    # piecewise-constant profile as (start, end, tps) windows (see
    # :mod:`repro.workload.phases`), with ``input_load_tps`` kept as the
    # nominal rate echoed into reports.
    input_load_tps: float = 1000.0
    load_phases: Sequence[Tuple[SimTime, SimTime, float]] = ()
    duration: SimTime = 30.0
    warmup: SimTime = 5.0

    # Faults.
    faults: int = 0
    fault_time: SimTime = 0.0
    extra_faults: Sequence[FaultPlan] = ()

    # HammerHead parameters (ignored by the Bullshark baseline).
    commits_per_schedule: int = 10
    exclude_fraction: float = 1.0 / 3.0
    scoring: str = "hammerhead"

    # Node / network parameters.
    leader_timeout: SimTime = 4.0
    min_round_interval: Optional[SimTime] = None
    max_batch_size: Optional[int] = None
    latency_model: str = "geo"  # "geo" or "uniform"
    gst: SimTime = 0.0
    delta: SimTime = 2.0
    # Client failover during partition windows: when on, load generators
    # retarget to the majority side while a PartitionPlan window is open
    # (the way real benchmark clients abandon unreachable endpoints) and
    # return to the full target set at the heal.  Off by default — it
    # changes submission patterns, so the historical partition digests
    # only hold with the flag off.
    partition_failover: bool = False

    # Simulation control.
    seed: int = 1
    record_sequences: bool = False
    observer: int = 0

    # Observability (see :mod:`repro.obs`).  ``trace`` records the
    # deterministic protocol event stream into ``ExperimentResult.trace``;
    # it is off by default and, when off, leaves the hot paths untouched.
    trace: bool = False
    # Ring-buffer bound for the tracer: keep at most this many events in
    # memory (oldest evicted first; the export carries one
    # ``trace_truncated`` marker).  ``None`` keeps the full stream —
    # fine up to committee ~50, prohibitive at committee 100+.  Only
    # meaningful together with ``trace``.
    trace_limit: Optional[int] = None

    def validate(self) -> "ExperimentConfig":
        if self.protocol not in (PROTOCOL_HAMMERHEAD, PROTOCOL_BULLSHARK):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if self.committee_size < 1:
            raise ConfigurationError("the committee needs at least one validator")
        if self.stake not in ("equal", "geometric"):
            raise ConfigurationError(f"unknown stake distribution {self.stake!r}")
        if self.input_load_tps < 0:
            raise ConfigurationError("the input load must be non-negative")
        if self.duration <= 0:
            raise ConfigurationError("the run duration must be positive")
        previous_end = 0.0
        for phase in self.load_phases:
            try:
                start, end, tps = phase
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"load phases must be (start, end, tps) triples, got {phase!r}"
                ) from None
            if start < previous_end:
                raise ConfigurationError("load phases must be ordered and non-overlapping")
            if end <= start:
                raise ConfigurationError("a load phase must end after it starts")
            if end > self.duration:
                raise ConfigurationError("load phases must lie within the run duration")
            if tps < 0:
                raise ConfigurationError("load phase rates must be non-negative")
            previous_end = end
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError("warmup must lie within the run duration")
        max_faulty = (self.committee_size - 1) // 3
        if not 0 <= self.faults <= max_faulty:
            raise ConfigurationError(
                f"a committee of {self.committee_size} tolerates at most "
                f"{max_faulty} faults, not {self.faults}"
            )
        if self.scoring not in scoring_rule_names():
            raise ConfigurationError(
                f"unknown scoring rule {self.scoring!r} "
                f"(known: {', '.join(scoring_rule_names())})"
            )
        if self.latency_model not in ("geo", "uniform"):
            raise ConfigurationError(f"unknown latency model {self.latency_model!r}")
        if not 0 <= self.observer < self.committee_size:
            raise ConfigurationError("the observer must be a committee member")
        if self.seed < 0 or self.seed >= 4096:
            raise ConfigurationError("seeds must lie in [0, 4096)")
        if self.trace_limit is not None and self.trace_limit < 1:
            raise ConfigurationError("trace_limit must be positive (or None)")
        if not 0.0 <= self.exclude_fraction < 1.0:
            raise ConfigurationError("exclude_fraction must lie in [0, 1)")
        return self

    def label(self) -> str:
        fault_text = f", {self.faults} faulty" if self.faults else ""
        return f"{self.protocol} - {self.committee_size} nodes{fault_text} @ {self.input_load_tps:.0f} tx/s"

    def with_overrides(self, **changes) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass
class ExperimentResult:
    """Everything a caller may want to know about a finished run."""

    config: ExperimentConfig
    report: PerformanceReport
    ordering_digests: Dict[int, Tuple[int, str]]
    schedule_epochs: Dict[int, int]
    schedule_histories: Dict[int, List[Tuple[int, int]]]
    leader_timeouts: Dict[int, int]
    commits_per_leader: Dict[int, int]
    skipped_rounds_per_leader: Dict[int, int]
    crashed_validators: List[int]
    # Reputation-reaction summary from the observer's schedule history
    # (see :func:`repro.metrics.reputation.reputation_metrics`): score
    # trajectory per schedule change, rounds-until-demotion and leader-
    # slot share of the fault-affected validators.
    reputation: Dict[str, Any] = dataclasses.field(default_factory=dict)
    # Periodic (ordered_count, rolling-digest) snapshots per validator
    # (every ORDERING_CHECKPOINT_INTERVAL ordered vertices; see
    # :mod:`repro.consensus.bullshark`).  Two runs whose digests differ
    # can still be compared by their longest common committed prefix
    # (:mod:`repro.obs.consistency`) — the lossy-run comparison story.
    ordering_checkpoints: Dict[int, List[Tuple[int, str]]] = dataclasses.field(
        default_factory=dict
    )
    # Instrumentation counter snapshot (always populated; cheap).  Memo
    # hit/miss entries describe process-wide caches and must never be
    # folded into digests or run-to-run comparisons.
    counters: Dict[str, Any] = dataclasses.field(default_factory=dict)
    # Deterministic trace events (populated when ``config.trace``).
    trace: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.report.throughput_tps

    @property
    def avg_latency(self) -> float:
        return self.report.avg_latency_s

    @property
    def p95_latency(self) -> float:
        return self.report.p95_latency_s


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build, run, and summarize one experiment."""
    # Imported here to avoid a circular import (the runner imports this
    # module for the config class).
    from repro.sim.runner import SimulationRunner

    runner = SimulationRunner(config)
    return runner.run()
