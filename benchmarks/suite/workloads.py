"""The five workloads: each turns a seed into ``ExperimentConfig`` inputs.

The program under test receives only the generated configs; everything
the seed decides is decided here.  A workload is a tuple of configs that
one *pass* runs in order (one config everywhere except ``lossy-c25``),
an engine (``sim``: ``SimulationRunner``; ``net``: ``run_net_experiment``
with its lockstep oracle), and the tail of the run that ``final_share``
does not count, because a transaction submitted that late cannot be
final by the end of any healthy run.

Sizes are chosen so that the sim-time metrics move by well under their
bounds from one seed to the next (README.md, "Steadiness across seeds").
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.faults.crash import CrashFault
from repro.faults.partition import NetworkDisturbanceFault
from repro.netexec.lockstep import build_committee
from repro.schedule.round_robin import initial_schedule
from repro.sim.experiment import PROTOCOL_BULLSHARK, ExperimentConfig

# ``ExperimentConfig.validate`` accepts seeds in [0, 4096).
SEED_SPACE = 4096
# Distinct sub-seeds for the passes of a multi-config workload.
_SUB_SEED_STRIDE = 1009

# Initial-schedule slots whose holders crash on ``faults-c10``: spread
# over the rotation, never the first leader (which is the observer).
CRASHED_SLOTS = (2, 5, 8)

LOSSY_SUB_RUNS = 4

# Why each workload exists is recorded once, in BENCHMARK.json.
NAMES = ("faultless-c10", "faults-c10", "scale-c50", "lossy-c25", "sockets-c7")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "sim" or "net"
    configs: Tuple[ExperimentConfig, ...]
    # Bullshark twins of ``configs`` (``faults-c10`` only), run once in
    # the outcome step for the paper's headline ratio.
    baseline: Tuple[ExperimentConfig, ...] = ()
    # Seconds before the end of the run after which submissions are not
    # counted by ``final_share``.
    final_tail: float = 15.0
    # Fewest timed passes, whatever ``--seconds`` says.
    min_passes: int = 3


def _faults_config(base: ExperimentConfig) -> ExperimentConfig:
    """Crash the holders of fixed initial-schedule slots, observe from slot 0.

    Which validators the seed's permutation puts in the crashed slots
    changes; where the crashed slots sit in the rotation does not, so
    every seed meets the same sequence of dead leaders.  Crashing the
    highest-indexed validators instead (``ExperimentConfig.faults``)
    leaves that sequence to the permutation, and p50 ranges over
    2.1-9.9 s across seeds for the same code.
    """
    committee = build_committee(base)
    slots = initial_schedule(committee, seed=base.seed).slots
    crashed = tuple(slots[position] for position in CRASHED_SLOTS[: committee.max_faulty])
    return base.with_overrides(
        extra_faults=(CrashFault(validators=crashed, at_time=0.0),),
        observer=slots[0],
    )


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` for ``seed`` (``smoke``: seconds, not minutes)."""
    if seed < 0:
        raise ValueError("seeds are non-negative")
    seed %= SEED_SPACE
    if name == "faultless-c10":
        config = ExperimentConfig(
            committee_size=4 if smoke else 10,
            input_load_tps=200.0 if smoke else 4000.0,
            duration=8.0 if smoke else 60.0,
            warmup=1.0 if smoke else 5.0,
            seed=seed,
        )
        return Workload(name, "sim", (config,), final_tail=4.0 if smoke else 15.0)
    if name == "faults-c10":
        base = ExperimentConfig(
            committee_size=7 if smoke else 10,
            input_load_tps=200.0 if smoke else 3000.0,
            duration=20.0 if smoke else 60.0,
            warmup=1.0 if smoke else 5.0,
            seed=seed,
        )
        config = _faults_config(base)
        return Workload(
            name,
            "sim",
            (config,),
            baseline=(config.with_overrides(protocol=PROTOCOL_BULLSHARK),),
            final_tail=10.0 if smoke else 15.0,
        )
    if name == "scale-c50":
        config = ExperimentConfig(
            committee_size=7 if smoke else 50,
            input_load_tps=200.0 if smoke else 4000.0,
            duration=6.0 if smoke else 20.0,
            warmup=1.0 if smoke else 2.5,
            seed=seed,
        )
        return Workload(name, "sim", (config,), final_tail=3.0 if smoke else 6.0)
    if name == "lossy-c25":
        # Four short runs with distinct sub-seeds, averaged: one loss
        # window moves max_commit_gap_s by ~20% and the host cost by
        # ~12% from seed to seed, and four halve both.  3% loss, not
        # more: from 4% up a validator is sometimes orphaned for good
        # and its clients' transactions never commit (README.md).
        configs = tuple(
            ExperimentConfig(
                committee_size=7 if smoke else 25,
                input_load_tps=100.0 if smoke else 1000.0,
                duration=6.0 if smoke else 12.0,
                warmup=1.0 if smoke else 2.0,
                seed=(seed + _SUB_SEED_STRIDE * index) % SEED_SPACE,
                extra_faults=(
                    NetworkDisturbanceFault(
                        jitter=0.02,
                        loss_rate=0.02 if smoke else 0.03,
                        start=1.5 if smoke else 3.0,
                        end=3.0 if smoke else 8.0,
                    ),
                ),
            )
            for index in range(2 if smoke else LOSSY_SUB_RUNS)
        )
        return Workload(
            name, "sim", configs, final_tail=3.0 if smoke else 4.0, min_passes=2
        )
    if name == "sockets-c7":
        # ``duration`` is the lockstep plan's round count; there is no
        # client load, blocks are plan-synthesized.
        config = ExperimentConfig(
            committee_size=4 if smoke else 7,
            input_load_tps=0.0,
            duration=8.0 if smoke else 200.0,
            warmup=0.0,
            seed=seed,
        )
        return Workload(name, "net", (config,), final_tail=0.0)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


def setup_config(workload: Workload) -> Tuple[ExperimentConfig, ...]:
    """What the set-up probe constructs: the deployment, not the run.

    A socket deployment cannot be built without being run, so its probe
    is the shortest plan the backend accepts: mesh bring-up, four rounds
    and quiescence detection.
    """
    if workload.engine == "net":
        return tuple(config.with_overrides(duration=4.0) for config in workload.configs)
    return workload.configs
