"""Lockstep execution: a content-deterministic mode both backends share.

The free-running simulation is deterministic because its *time* is
deterministic: every delivery is a seeded draw on one virtual clock, so
parent sets — and with them the committed order — are reproducible.  A
real-network backend has no such clock, and naively replaying the
protocol over sockets commits an order that depends on OS scheduling.

Lockstep mode removes time from the equation instead of reproducing
it.  A :class:`LockstepPlan`, derived purely from the
:class:`~repro.sim.experiment.ExperimentConfig`, fixes everything the
committed order depends on:

* the final round (``max_round``),
* which validators crash, as *round* decisions, not timestamps
  (``crash_rounds``: the validator stops right before proposing that
  round, mirroring the sim's crash-at-time semantics where t=0 means
  "never proposes"),
* the synthetic block carried by each (round, source) proposal.

A :class:`LockstepNode` advances to round ``r+1`` only when it holds
*every* vertex expected at round ``r`` (all validators alive at ``r``),
so its parent set each round is exactly the expected set — under any
network that eventually delivers, on the simulator or over sockets, the
DAG every validator builds is identical, and the Bullshark commit rule
(a pure function of DAG contents) orders the identical prefix.  That is
the cross-validation contract: ``--backend lockstep`` (this file, run
on the discrete-event simulator — the oracle) and ``--backend net``
(``repro/netexec/runner.py``, real asyncio sockets) must produce
byte-identical ordering digests for the same spec + seed.

This module is pure (no wall clock, no sockets): it runs entirely on
the simulated clock.  Plain ``--backend sim`` digests are untouched —
lockstep is a separate mode, not a change to the free-running semantics.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional, Tuple

from repro.committee import Committee
from repro.errors import ReproError
from repro.faults.base import FaultInjector, tail_validators
from repro.faults.crash import CrashFault
from repro.node.validator import ValidatorNode
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.runner import SimulationRunner, build_committee
from repro.types import Round, ValidatorId, VertexId
from repro.workload.transactions import Transaction

# Rounds advance at roughly one per virtual second of configured
# duration (the certified-broadcast round trip is ~0.3-0.5s of simulated
# latency), so duration-many rounds always finish well inside the
# simulated window; the cap bounds socket-backend runtimes.
MAX_LOCKSTEP_ROUNDS = 400


@dataclasses.dataclass(frozen=True)
class LockstepPlan:
    """Everything the committed order depends on, fixed up front."""

    validators: Tuple[ValidatorId, ...]
    max_round: Round
    # (validator, crash round) pairs, sorted by validator; the validator
    # participates in every round strictly below its crash round.
    crash_rounds: Tuple[Tuple[ValidatorId, Round], ...]

    @property
    def committee_size(self) -> int:
        return len(self.validators)

    def crash_round_of(self, validator: ValidatorId) -> Optional[Round]:
        for candidate, round_number in self.crash_rounds:
            if candidate == validator:
                return round_number
        return None

    def expected(self, round_number: Round) -> Tuple[ValidatorId, ...]:
        """Validators that propose at ``round_number``."""
        crashed = {v: r for v, r in self.crash_rounds}
        return tuple(
            v for v in self.validators
            if v not in crashed or round_number < crashed[v]
        )

    def crashed_validators(self) -> Tuple[ValidatorId, ...]:
        return tuple(v for v, _ in self.crash_rounds)

    def block_size(self, round_number: Round, source: ValidatorId) -> int:
        """Synthetic per-proposal block size (a pure function of the slot)."""
        return (round_number * 7 + source * 3) % 5


def _crash_round_of_time(at_time: float) -> Round:
    """Map a sim crash time to a lockstep crash round.

    The convention mirrors the sim at the granularity the ordering
    digest can see: a validator crashed at t=0 never proposes (crash
    round 1), and later crash times stop the validator at a round that
    grows with the time.  The mapping is a convention, not a timing
    claim — lockstep equivalence is defined over the *plan*, and both
    backends apply the identical plan.
    """
    return max(1, int(at_time) + 1)


def plan_for_config(
    config: ExperimentConfig, committee: Optional[Committee] = None
) -> LockstepPlan:
    """Derive the lockstep plan from the experiment config alone.

    Raises :class:`ReproError` for fault kinds the lockstep backends
    cannot express deterministically (anything but crashes), and for
    crash sets that would break liveness (no alive quorum, or a crashed
    observer).
    """
    config = config.validate()
    if committee is None:
        committee = build_committee(config)

    crashes: Dict[ValidatorId, Round] = {}
    if config.faults > 0:
        round_number = _crash_round_of_time(config.fault_time)
        for validator in tail_validators(
            committee, config.faults, protect=(config.observer,)
        ):
            crashes[validator] = round_number
    for plan in config.extra_faults:
        if isinstance(plan, CrashFault):
            round_number = _crash_round_of_time(plan.at_time)
            for validator in plan.validators:
                existing = crashes.get(validator)
                if existing is None or round_number < existing:
                    crashes[validator] = round_number
        else:
            raise ReproError(
                "the lockstep/net backends support crash faults only; "
                f"cannot express fault plan: {plan.describe()}"
            )

    if config.observer in crashes:
        raise ReproError(
            f"observer {config.observer} is crashed by the fault plan; "
            "lockstep runs need a live observer"
        )
    alive = tuple(v for v in committee.validators if v not in crashes)
    if not committee.has_quorum(alive):
        raise ReproError(
            f"crash plan leaves {len(alive)}/{committee.size} validators alive, "
            "below a stake quorum; the lockstep run could never certify a round"
        )

    rounds = int(config.duration)
    max_round = max(4, min(rounds - rounds % 2, MAX_LOCKSTEP_ROUNDS))
    return LockstepPlan(
        validators=tuple(committee.validators),
        max_round=max_round,
        crash_rounds=tuple(sorted(crashes.items())),
    )


class LockstepNode(ValidatorNode):
    """A validator whose round advancement is content-deterministic.

    Overrides exactly the timing-dependent decision points of
    :class:`~repro.node.validator.ValidatorNode`:

    * advancement waits for *all* expected vertices of the current round
      (not merely a quorum), so parent sets cannot depend on arrival
      timing;
    * advancement is strictly ``r -> r+1`` (no frontier jumps — every
      alive validator must propose in every round, or peers would wait
      forever);
    * pacing and anchor timers are disabled (waiting for the full
      expected set subsumes the anchor-or-timeout condition: an alive
      leader's vertex is always waited for, a crashed leader is not
      expected and is skipped deterministically by the commit rule);
    * crashes are plan-driven round decisions;
    * blocks are plan-synthesized, not drawn from a client pool;
    * a round still incomplete is reported to the synchronizer as a
      stall on the expected vertices it lacks.

    Everything else — certified broadcast, the DAG store, the commit
    rule, reputation scheduling, the synchronizer — is the production
    path, unmodified.
    """

    def __init__(self, *args, plan: LockstepPlan, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.plan = plan
        self._crash_round = plan.crash_round_of(self.id)
        self._lockstep_waiting_on: Tuple[ValidatorId, ...] = ()

    # -- plan-driven crash ---------------------------------------------------------

    def _enter_round(self, round_number: Round) -> None:
        if self._crash_round is not None and round_number >= self._crash_round:
            self.crash()
            return
        super()._enter_round(round_number)

    # -- content-deterministic advancement ----------------------------------------

    def _start_anchor_timer(self, round_number: Round) -> None:
        # Disabled: lockstep never times a leader out (see class docstring).
        return

    def _maybe_advance(self) -> None:
        if not self.started or self.crashed:
            return
        if self._advance_handle is not None:
            return
        round_number = self.current_round
        if self.config.max_round is not None and round_number >= self.config.max_round:
            return
        # Our own vertex must have been certified and delivered back to us.
        if self.dag.vertex_of(round_number, self.id) is None:
            return
        missing = self._absent_sources(round_number)
        self._lockstep_waiting_on = missing
        if missing:
            # Liveness insurance for lossy transports: if the round stays
            # incomplete past the fetch interval, ask a peer explicitly.
            self.synchronizer.on_stall(functools.partial(self._stalled_on, round_number))
            return
        self._schedule_advance()

    def _absent_sources(self, round_number: Round) -> Tuple[ValidatorId, ...]:
        return tuple(
            source for source in self.plan.expected(round_number)
            if self.dag.vertex_of(round_number, source) is None
        )

    def _stalled_on(self, round_number: Round) -> List[VertexId]:
        """What this validator still lacks of ``round_number``; nothing once it left that round."""
        if self.current_round != round_number:
            return []
        return [VertexId(round_number, source) for source in self._absent_sources(round_number)]

    def _schedule_advance(self) -> None:
        def advance() -> None:
            self._advance_handle = None
            if self.crashed:
                return
            self._enter_round(self.current_round + 1)

        self._advance_handle = self.simulator.schedule(0.0, advance)

    # -- plan-synthesized workload --------------------------------------------------

    def _next_batch(self):
        round_number = self.current_round
        size = self.plan.block_size(round_number, self.id)
        base = (round_number * self.plan.committee_size + self.id) * 16
        return tuple(
            Transaction(
                tx_id=base + index,
                client_id=self.id,
                submitted_at=0.0,
                target_validator=self.id,
            )
            for index in range(size)
        )


class LockstepSimulationRunner(SimulationRunner):
    """The lockstep oracle: lockstep nodes on the discrete-event simulator."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.plan = plan_for_config(config)
        self.max_round = self.plan.max_round
        self.node_class = functools.partial(LockstepNode, plan=self.plan)
        super().__init__(config)

    def _build_faults(self) -> FaultInjector:
        # Crashes are plan-driven round decisions inside LockstepNode;
        # the time-based injector stays empty.
        return FaultInjector([])

    def _start_load(self) -> None:
        # Blocks are plan-synthesized inside LockstepNode._next_batch.
        self._load_generators = []

    def _wire_observers(self) -> None:
        # No client load means no latency/throughput samples; attaching
        # the metrics collector would count plan-synthesized blocks with
        # meaningless submit times.  The report carries zeros for the
        # load-derived fields on *both* lockstep-family backends, so
        # cross-backend artifacts stay comparable.
        observer = self.nodes[self.config.observer]
        observer.on_commit(self.leader_stats.record_commit)


def check_lockstep_quiescence(plan: LockstepPlan, nodes) -> None:
    """Every alive node must have reached the plan's final round."""
    stuck: List[str] = []
    for validator, node in sorted(nodes.items()):
        if node.crashed:
            continue
        if node.current_round < plan.max_round:
            waiting = getattr(node, "_lockstep_waiting_on", ())
            stuck.append(
                f"validator {validator} stopped at round {node.current_round}"
                f"/{plan.max_round} (waiting on sources {list(waiting)})"
            )
    if stuck:
        raise ReproError(
            "lockstep run did not complete every planned round "
            "(increase duration or check transport liveness): " + "; ".join(stuck)
        )


def run_lockstep_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run ``config`` in lockstep mode on the simulator (the oracle)."""
    runner = LockstepSimulationRunner(config)
    result = runner.run()
    check_lockstep_quiescence(runner.plan, runner.nodes)
    return result
