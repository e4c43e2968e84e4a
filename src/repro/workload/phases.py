"""Phased workloads: piecewise-constant load shapes.

The scenario engine (:mod:`repro.scenarios`) describes load over time as
a sequence of :class:`LoadPhase` segments — each a constant rate over a
half-open window ``[start, end)``; :func:`burst_phases` builds its one
shaped profile, a base rate with one high-rate spike window.

:func:`spawn_phased_load` materializes the segments with the same client
machinery as constant load (:func:`repro.workload.generator.spawn_load`),
so the per-client 350 tx/s cap and the lazy bulk delivery apply unchanged;
every phase's arrivals sit in the same per-target columns, so a settle
costs one ``bisect`` per target however many phases the profile has.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Sequence

from repro.errors import WorkloadError
from repro.network.simulator import Simulator
from repro.types import SimTime
from repro.workload.generator import LoadGenerator, spawn_load

if TYPE_CHECKING:
    from repro.node.validator import ValidatorNode


@dataclasses.dataclass(frozen=True)
class LoadPhase:
    """Constant ``tps`` over the virtual-time window ``[start, end)``."""

    start: SimTime
    end: SimTime
    tps: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise WorkloadError("a load phase cannot start before time zero")
        if self.end <= self.start:
            raise WorkloadError("a load phase must end after it starts")
        if self.tps < 0:
            raise WorkloadError("a load phase rate must be non-negative")

    @property
    def duration(self) -> SimTime:
        return self.end - self.start


def validate_phases(phases: Sequence[LoadPhase]) -> Sequence[LoadPhase]:
    """Check that ``phases`` are ordered and non-overlapping."""
    for earlier, later in zip(phases, phases[1:]):
        if later.start < earlier.end:
            raise WorkloadError(
                f"load phases overlap: [{earlier.start}, {earlier.end}) and "
                f"[{later.start}, {later.end})"
            )
    return phases


def average_tps(phases: Sequence[LoadPhase]) -> float:
    """Time-weighted average rate across ``phases`` (used for reporting)."""
    total_time = sum(phase.duration for phase in phases)
    if total_time <= 0:
        return 0.0
    return sum(phase.tps * phase.duration for phase in phases) / total_time


def burst_phases(
    base_tps: float,
    burst_tps: float,
    burst_start: SimTime,
    burst_end: SimTime,
    start: SimTime,
    end: SimTime,
) -> List[LoadPhase]:
    """A base rate with one spike window (the load-spike scenario)."""
    if not start <= burst_start < burst_end <= end:
        raise WorkloadError("the burst window must lie within the load window")
    phases: List[LoadPhase] = []
    if burst_start > start:
        phases.append(LoadPhase(start, burst_start, base_tps))
    phases.append(LoadPhase(burst_start, burst_end, burst_tps))
    if end > burst_end:
        phases.append(LoadPhase(burst_end, end, base_tps))
    return phases


def spawn_phased_load(
    simulator: Simulator,
    targets: Sequence[ValidatorNode],
    phases: Sequence[LoadPhase],
    submission_delay: SimTime = 0.040,
) -> List[LoadGenerator]:
    """Create and start clients for every phase of a phased workload.

    Zero-rate phases are quiet windows: no clients are spawned for them.
    """
    validate_phases(phases)
    generators: List[LoadGenerator] = []
    for phase in phases:
        if phase.tps <= 0:
            continue
        generators.extend(
            spawn_load(
                simulator=simulator,
                targets=targets,
                total_rate=phase.tps,
                duration=phase.duration,
                start_time=phase.start,
                submission_delay=submission_delay,
                first_client_id=len(generators),
            )
        )
    return generators
