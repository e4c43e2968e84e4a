"""The scenario registry: named, curated adversarial scenarios.

Every entry is a :class:`~repro.scenarios.spec.ScenarioSpec` builder; the
registry maps a stable name to the spec plus a one-line summary for the
CLI's ``list`` output.  The first three entries reproduce the paper's
evaluation (Figures 1/2 and the Sui mainnet incident of the
introduction); the rest stress the reputation schedule with adversities
the paper only alludes to — churn, targeted Byzantine pressure,
asymmetric partitions, load spikes, and a combined adversary.

Scenarios are registered at import time; external code can add more with
:func:`register_scenario` (e.g. ad-hoc specs loaded from JSON files).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    DisturbanceSpec,
    FaultSpec,
    PartitionSpec,
    ScenarioSpec,
    WorkloadSpec,
)

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry under its own name."""
    spec = spec.validate()
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ConfigurationError(f"unknown scenario {name!r} (known: {known})") from None


def all_scenarios() -> Dict[str, ScenarioSpec]:
    """A copy of the whole registry."""
    return dict(_REGISTRY)


# -- the curated catalogue --------------------------------------------------

register_scenario(
    ScenarioSpec(
        name="faultless",
        description=(
            "Figure 1: latency/throughput in ideal conditions, HammerHead vs "
            "Bullshark under increasing load"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10, 25),
        loads=(1000.0, 2500.0, 4000.0),
        duration=40.0,
        warmup=10.0,
        seed=2,
    )
)

register_scenario(
    ScenarioSpec(
        name="figure2-faults",
        description=(
            "Figure 2: maximum tolerable crash faults from t=0; Bullshark "
            "loses throughput, HammerHead keeps its fault-free peak"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10, 25),
        loads=(1000.0, 2500.0, 4000.0),
        duration=80.0,
        warmup=40.0,
        seed=2,
        faults=(FaultSpec(kind="crash", max_faulty=True, at=0.0),),
    )
)

register_scenario(
    ScenarioSpec(
        name="sui-incident",
        description=(
            "The August 29 Sui mainnet incident: ~10% of validators degraded "
            "at low load; the static schedule's tail latency rises, "
            "HammerHead demotes the stragglers"
        ),
        protocols=("bullshark", "hammerhead"),
        committee_sizes=(13,),
        loads=(130.0,),
        duration=90.0,
        warmup=40.0,
        seed=5,
        faults=(FaultSpec(kind="slow", fraction=0.10, extra_delay=0.6),),
    )
)

register_scenario(
    ScenarioSpec(
        name="rolling-crash-churn",
        description=(
            "Maintenance churn: three validators crash and recover in "
            "overlapping rolling waves; the schedule must chase the churn"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1500.0,),
        duration=90.0,
        warmup=20.0,
        seed=7,
        faults=(
            FaultSpec(kind="crash-recovery", validators=(9,), at=15.0, recover_at=45.0),
            FaultSpec(kind="crash-recovery", validators=(8,), at=30.0, recover_at=60.0),
            FaultSpec(kind="crash-recovery", validators=(7,), at=45.0, recover_at=75.0),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="targeted-leader-attack",
        description=(
            "Byzantine vote withholding: f validators systematically drop "
            "their votes for honest leaders and lose reputation for it"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1500.0,),
        duration=80.0,
        warmup=30.0,
        seed=4,
        faults=(FaultSpec(kind="vote-withholding", max_faulty=True, at=0.0),),
    )
)

register_scenario(
    ScenarioSpec(
        name="asymmetric-partition",
        description=(
            "A quarter of the committee is cut off for a window mid-run; the "
            "majority side keeps its quorum and the minority resyncs after "
            "the heal"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(12,),
        loads=(1200.0,),
        duration=90.0,
        warmup=15.0,
        seed=6,
        partitions=(PartitionSpec(isolate_fraction=0.25, start=30.0, end=55.0),),
    )
)

register_scenario(
    ScenarioSpec(
        name="load-spike",
        description=(
            "A 4x client load spike in the middle of the run (flash-crowd "
            "traffic) on an otherwise healthy committee"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        workload=WorkloadSpec(
            kind="burst",
            tps=800.0,
            burst_tps=3200.0,
            burst_start=30.0,
            burst_end=50.0,
        ),
        duration=80.0,
        warmup=15.0,
        seed=3,
    )
)

register_scenario(
    ScenarioSpec(
        name="equivocation-split",
        description=(
            "Byzantine equivocation: two validators send conflicting "
            "vertices to a deceived head subset; quorum intersection keeps "
            "the fork out of the DAG and the schedule reacts to the damage"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1200.0,),
        duration=80.0,
        warmup=30.0,
        seed=8,
        faults=(FaultSpec(kind="equivocate", count=2, at=10.0, target_count=3),),
    )
)

register_scenario(
    ScenarioSpec(
        name="silent-saboteur",
        description=(
            "Targeted DoS: two validators go silent towards a victim pair "
            "(no traffic, no acks, no fetch service) for a mid-run window; "
            "the victims limp along through third parties"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1200.0,),
        duration=80.0,
        warmup=30.0,
        seed=10,
        faults=(
            FaultSpec(kind="silent-fanout", count=2, at=10.0, end=60.0, target_count=2),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="lazy-leader",
        description=(
            "Timing adversary: f validators behave perfectly except on "
            "their own leader slots, which they delay past the leader "
            "timeout — leader-based scoring sees skips, vote-based sees "
            "nothing"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1500.0,),
        duration=80.0,
        warmup=30.0,
        seed=11,
        faults=(FaultSpec(kind="lazy-leader", max_faulty=True, at=0.0, extra_delay=6.0),),
    )
)

register_scenario(
    ScenarioSpec(
        name="reputation-gamer",
        description=(
            "An attack on the scoring rule itself: the adversary withholds "
            "votes except around its own leader slots, harvesting just "
            "enough reputation to dodge the demoted set entirely"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1500.0,),
        duration=80.0,
        warmup=30.0,
        seed=4,
        faults=(FaultSpec(kind="reputation-gaming", count=1, at=0.0, window=9),),
    )
)

register_scenario(
    ScenarioSpec(
        name="partition-failover",
        description=(
            "The asymmetric partition with client failover enabled: load "
            "abandons the minority side while the window is open and "
            "returns at the heal"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(12,),
        loads=(1200.0,),
        duration=90.0,
        warmup=15.0,
        seed=6,
        partitions=(PartitionSpec(isolate_fraction=0.25, start=30.0, end=55.0),),
        partition_failover=True,
    )
)

register_scenario(
    ScenarioSpec(
        name="reputation-gamer-strict",
        description=(
            "The window-9 gamer on a committee where the window actually "
            "bites: at 13 validators the 19-round honest window no longer "
            "covers the 26-round rotation, so the adversary must withhold "
            "real votes — completeness reads the deficit exactly"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(13,),
        loads=(1500.0,),
        duration=80.0,
        warmup=30.0,
        seed=4,
        faults=(FaultSpec(kind="reputation-gaming", count=1, at=0.0, window=9),),
    )
)

register_scenario(
    ScenarioSpec(
        name="colluding-silence",
        description=(
            "A three-member coalition splits a victim set between its "
            "members: every victim is starved of traffic, acks, and fetch "
            "service, but each colluder only ever touches a third of them"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1200.0,),
        duration=80.0,
        warmup=30.0,
        seed=10,
        faults=(
            FaultSpec(
                kind="colluding-silence",
                coalition=(7, 8, 9),
                at=10.0,
                end=60.0,
                targets=(1, 2, 3),
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="adaptive-dos",
        description=(
            "Schedule-aware DoS coalition: each anchor round the duty "
            "member re-aims at the leader the current schedule is about to "
            "elect — silence plus a withheld vote — so schedule changes "
            "never shake the attack off"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1500.0,),
        duration=80.0,
        warmup=30.0,
        seed=4,
        faults=(
            FaultSpec(kind="adaptive-dos", coalition=(7, 8, 9), at=0.0, stride=2),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="coalition-gaming",
        description=(
            "The coalition reputation gamer: vote withholding rotates "
            "through the members so each one misses only a sliver of its "
            "vote opportunities per epoch — the probe for how far the "
            "completeness rule can be stretched"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1500.0,),
        duration=80.0,
        warmup=30.0,
        seed=4,
        faults=(
            FaultSpec(kind="coalition-gaming", coalition=(7, 8, 9), at=0.0, stride=3),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="adaptive-equivocation",
        description=(
            "Equivocation re-aimed every round at the upcoming leaders of "
            "the current schedule instead of a fixed victim set"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        loads=(1200.0,),
        duration=80.0,
        warmup=30.0,
        seed=8,
        faults=(FaultSpec(kind="adaptive-equivocation", count=1, at=10.0),),
    )
)

# Maintenance churn, a quiet gap, then a traffic spike while the committee
# digests the churn: 45 s of churn, 5 s of quiet, then 35 s with the burst
# 10 s in.  The name and description join the two phases; the pinned
# scenario digest holds this exact form.
register_scenario(
    ScenarioSpec(
        name="maintenance-churn+recovery-spike",
        description=(
            "two validators crash and recover in sequence — then — "
            "a 2.5x burst lands while the committee digests the churn"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        workload=WorkloadSpec(
            kind="burst",
            tps=1200.0,
            burst_tps=3000.0,
            burst_start=60.0,
            burst_end=70.0,
        ),
        duration=85.0,
        warmup=15.0,
        seed=12,
        faults=(
            FaultSpec(kind="crash-recovery", validators=(9,), at=10.0, recover_at=25.0),
            FaultSpec(kind="crash-recovery", validators=(8,), at=20.0, recover_at=35.0),
        ),
    )
)

# A mid-run loss window on a healthy committee: every certificate lost on
# the wire is recovered by the synchronizer's fetch round-trip.
register_scenario(
    ScenarioSpec(
        name="lossy-recovery",
        description=(
            "A mid-run loss window on an otherwise healthy committee: lost "
            "certificates are recovered by explicit fetch round-trips"
        ),
        protocols=("bullshark",),
        committee_sizes=(10,),
        loads=(1000.0,),
        duration=60.0,
        warmup=10.0,
        seed=13,
        disturbances=(DisturbanceSpec(jitter=0.02, loss_rate=0.12, start=15.0, end=30.0),),
    )
)

register_scenario(
    ScenarioSpec(
        name="mixed-adversary",
        description=(
            "Everything at once: a crash, degraded validators, a jitter/loss "
            "window, and a load burst — the kitchen-sink robustness check"
        ),
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(10,),
        workload=WorkloadSpec(
            kind="burst",
            tps=1000.0,
            burst_tps=2500.0,
            burst_start=40.0,
            burst_end=55.0,
        ),
        duration=90.0,
        warmup=20.0,
        seed=9,
        faults=(
            FaultSpec(kind="crash", validators=(9,), at=10.0),
            FaultSpec(kind="slow", validators=(7, 8), extra_delay=0.4, at=25.0, end=65.0),
        ),
        disturbances=(DisturbanceSpec(jitter=0.15, loss_rate=0.02, start=35.0, end=60.0),),
    )
)
