"""The simulation runner: builds a full deployment and runs it.

The runner is the equivalent of the paper's AWS orchestrator: it creates
the committee, the (simulated) network, one validator per committee
member, the benchmark clients, and the fault schedule, runs the system for
the configured duration of virtual time, and collects the measurements
into a :class:`~repro.metrics.report.PerformanceReport`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.committee import Committee, equal_stake, geometric_stake
from repro.core.manager import (
    HammerHeadScheduleManager,
    ScheduleManager,
    StaticScheduleManager,
)
from repro.core.schedule_change import CommitCountPolicy
from repro.core.scoring import make_scoring_rule
from repro.errors import ConfigurationError
from repro.faults.base import FaultInjector
from repro.faults.crash import crash_last_f
from repro.faults.partition import PartitionPlan
from repro.metrics.collector import MetricsCollector
from repro.metrics.execution import ExecutionModel
from repro.metrics.leader_stats import LeaderUtilizationStats
from repro.metrics.report import PerformanceReport
from repro.metrics.reputation import reputation_metrics
from repro.network.latency import GeoLatencyModel
from repro.network.simulator import Simulator
from repro.network.synchrony import AlwaysSynchronous, PartialSynchrony
from repro.network.transport import Network
from repro.node.config import NodeConfig
from repro.node.validator import ValidatorNode
from repro.obs.registry import InstrumentationRegistry
from repro.obs.trace import MemoryTracer
from repro.schedule.round_robin import initial_schedule
from repro.sim.experiment import (
    ExperimentConfig,
    ExperimentResult,
    PROTOCOL_HAMMERHEAD,
)
from repro.sim.presets import execution_capacity_for, node_config_for
from repro.types import Round, ValidatorId
from repro.workload.generator import LoadGenerator, spawn_load
from repro.workload.phases import LoadPhase, spawn_phased_load


@contextlib.contextmanager
def collector_suspended() -> Iterator[None]:
    """Suspend the cyclic garbage collector for the duration of a run.

    A peak-load run allocates hundreds of thousands of short-lived
    tuples and messages per simulated second, nearly all of which die by
    reference counting, and the periodic generational scans over that
    churn were a measurable fraction of wall-clock time.  On exit the
    collector is re-enabled and run once, to pick up the cycles the run
    did create (nodes, closures and callbacks refer to each other).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            # With collection suspended, every container the run
            # allocated (including its cycles) still sits in generation
            # 0, so a young-generation pass reclaims them at a cost
            # bounded by recent survivors — a full collect would walk the
            # whole process heap, which grows across a bench/sweep
            # session.  Generation 1 (not 0) is swept so the previous
            # run's promoted-but-now-dead survivors are also reclaimed
            # here, instead of piling up until the automatic collector
            # walks them inside a later run's measured window.
            gc.collect(1)


def build_committee(config: ExperimentConfig) -> Committee:
    """The committee ``config`` describes."""
    size = config.committee_size
    if config.stake == "equal":
        stake = equal_stake(size)
    elif config.stake == "geometric":
        stake = geometric_stake(size)
    else:
        raise ConfigurationError(f"unknown stake distribution {config.stake!r}")
    return Committee.build(size, stake=stake, seed=config.seed)


def build_node_config(config: ExperimentConfig) -> NodeConfig:
    """Lower ``config`` to the per-validator :class:`NodeConfig`.

    The one place an ``ExperimentConfig`` field becomes a node knob; the
    sim, lockstep and socket runners all build their nodes from it.
    """
    base = node_config_for(config.committee_size, leader_timeout=config.leader_timeout)
    if config.min_round_interval is not None:
        base.min_round_interval = config.min_round_interval
    if config.max_batch_size is not None:
        base.max_batch_size = config.max_batch_size
    return base.validate()


def schedule_manager_factory(
    config: ExperimentConfig, committee: Committee
) -> Callable[[], ScheduleManager]:
    """Per-validator schedule managers for ``config``."""

    def factory() -> ScheduleManager:
        schedule = initial_schedule(committee, seed=config.seed)
        if config.protocol != PROTOCOL_HAMMERHEAD:
            return StaticScheduleManager(committee, schedule)
        return HammerHeadScheduleManager(
            committee,
            schedule,
            policy=CommitCountPolicy(config.commits_per_schedule),
            scoring=make_scoring_rule(config.scoring),
            exclude_fraction=config.exclude_fraction,
        )

    return factory


class SimulationRunner:
    """Builds and runs one experiment.

    The lockstep oracle and the socket engine are subclasses: they swap
    the clock and the network (``_build_clock`` / ``_build_network``),
    the node class and its final round, and how the run is driven.
    Node construction, tracing, the counter table and result assembly
    exist only here.
    """

    # The validator class ``_build_nodes`` instantiates and the round
    # every node stops at (``None``: the configured duration ends the
    # run).  A lockstep runner sets both from its plan.
    node_class: Callable[..., ValidatorNode] = ValidatorNode
    max_round: Optional[Round] = None

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config.validate()
        self.committee = build_committee(config)
        self.simulator = self._build_clock()
        self.network = self._build_network()
        self.node_config = dataclasses.replace(
            build_node_config(config), max_round=self.max_round
        )
        self.nodes: Dict[ValidatorId, ValidatorNode] = {}
        self._build_nodes()
        self.metrics = MetricsCollector(
            confirmation_delay=0.040,
            warmup=config.warmup,
            execution=ExecutionModel(execution_capacity_for(config.committee_size)),
        )
        self.leader_stats = LeaderUtilizationStats()
        self.fault_injector = self._build_faults()
        # Live load generators (filled by _start_load); partition-aware
        # failover retargets them while a partition window is open.
        self._load_generators: List[LoadGenerator] = []
        self.tracer = None
        self.registry = None
        if config.trace:
            self._install_observability()
        self._wire_observers()

    # -- construction ---------------------------------------------------------------

    def _build_clock(self) -> Simulator:
        return Simulator(seed=self.config.seed)

    def _build_network(self) -> Network:
        config = self.config
        if config.gst > 0:
            synchrony = PartialSynchrony(gst=config.gst, delta=config.delta)
        else:
            synchrony = AlwaysSynchronous(delta=config.delta)
        return Network(
            simulator=self.simulator,
            latency_model=GeoLatencyModel(),
            synchrony=synchrony,
        )

    def _build_nodes(self) -> None:
        factory = schedule_manager_factory(self.config, self.committee)
        for validator in self.committee.validators:
            self.nodes[validator] = self.node_class(
                validator_id=validator,
                committee=self.committee,
                network=self.network,
                schedule_manager=factory(),
                config=self.node_config,
            )

    def _build_faults(self) -> FaultInjector:
        injector = FaultInjector(list(self.config.extra_faults))
        if self.config.faults > 0:
            injector.add(
                crash_last_f(
                    self.committee,
                    faults=self.config.faults,
                    at_time=self.config.fault_time,
                    protect=(self.config.observer,),
                )
            )
        return injector

    def _wire_observers(self) -> None:
        observer = self.nodes[self.config.observer]
        self.metrics.attach_observer(observer)
        observer.on_commit(self.leader_stats.record_commit)

    # -- observability ---------------------------------------------------------------

    def _install_observability(self) -> None:
        """Attach the deterministic tracer and the counter registry.

        Events are stamped with simulated time, and every emission site
        is a deterministic function of protocol state, so the recorded
        stream is byte-reproducible for a given (config, seed) — the
        differential suite pins that tracing leaves the ordering digests
        untouched.
        """
        simulator = self.simulator
        self.tracer = MemoryTracer(clock=lambda: simulator.now, max_events=self.config.trace_limit)
        self.registry = InstrumentationRegistry()
        self.network.install_observability(self.tracer, self.registry)
        for _validator, node in sorted(self.nodes.items()):
            node.install_observability(self.tracer, self.registry)

    # -- running ------------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Run the experiment and return its result, the cyclic garbage
        collector suspended (see :func:`collector_suspended`)."""
        config = self.config
        with collector_suspended():
            self.fault_injector.schedule_all(self.simulator, self.network, self.nodes)
            self._start_nodes()
            self._start_load()
            # Submissions are counted by the clients, commits by the collector.
            self.metrics.attach_clients(self._load_generators)
            if config.partition_failover:
                self._schedule_partition_failover()
            self.simulator.run(until=config.duration)
            return self._build_result()

    def _start_nodes(self) -> None:
        # Each start-up consumes an RNG draw, so the iteration order is
        # part of the seeded randomness contract: sort by validator id
        # (the construction order, so this is the identity today).
        for _validator, node in sorted(self.nodes.items()):
            # Stagger start-up by a few milliseconds to avoid artificial
            # lock-step behaviour in the very first rounds.
            jitter = self.simulator.rng.uniform(0.0, 0.020)
            self.simulator.schedule(jitter, node.start)

    def _start_load(self) -> None:
        if self.config.load_phases:
            # Phased profile (scenario workloads): explicit (start, end,
            # tps) windows override the constant-rate path.
            phases = [
                LoadPhase(start, end, tps) for start, end, tps in self.config.load_phases
            ]
            self._load_generators = spawn_phased_load(
                simulator=self.simulator,
                targets=self._load_targets(),
                phases=phases,
            )
            return
        if self.config.input_load_tps <= 0:
            return
        targets = self._load_targets()
        self._load_generators = spawn_load(
            simulator=self.simulator,
            targets=targets,
            total_rate=self.config.input_load_tps,
            duration=self.config.duration,
            start_time=0.5,
        )

    def _load_targets(self) -> List[ValidatorNode]:
        """Validators that receive client load.

        Clients avoid validators that are crashed from the very start of
        the run (as real load generators target responsive endpoints);
        validators affected by faults later in the run still receive load.
        """
        excluded = set()
        for plan in self.fault_injector.plans:
            start = getattr(plan, "at_time", getattr(plan, "crash_at", None))
            if start is not None and start <= 0.5 and hasattr(plan, "validators"):
                excluded.update(plan.validators)
        targets = [
            node for validator, node in sorted(self.nodes.items()) if validator not in excluded
        ]
        return targets if targets else [node for _, node in sorted(self.nodes.items())]

    # -- partition-aware client failover ----------------------------------------

    def _schedule_partition_failover(self) -> None:
        """Retarget clients to the majority side over partition windows.

        Mirrors how real load generators abandon unreachable endpoints:
        while a :class:`PartitionPlan` window is open, every client
        submits only to validators on a side that still holds a stake
        quorum (if no side does, targeting is left alone — there is no
        good side to fail over to); at the heal, clients return to the
        full healthy target set.  Gated by
        ``ExperimentConfig.partition_failover`` so historical partition
        runs keep their recorded digests.
        """
        for plan in self.fault_injector.plans:
            if not isinstance(plan, PartitionPlan):
                continue
            majority = self._majority_side(plan)
            if majority is None:
                continue
            inside = [node for node in self._load_targets() if node.id in majority]
            if not inside:
                continue

            def fail_over(targets=inside) -> None:
                for generator in self._load_generators:
                    generator.set_targets(targets)

            def fail_back() -> None:
                targets = self._load_targets()
                for generator in self._load_generators:
                    generator.set_targets(targets)

            self.simulator.schedule_at(max(plan.start, 0.0), fail_over)
            if plan.end is not None:
                self.simulator.schedule_at(plan.end, fail_back)

    def _majority_side(self, plan: PartitionPlan):
        """The side of ``plan`` holding a stake quorum, if any."""
        listed = {validator for group in plan.groups for validator in group}
        implicit = [v for v in self.committee.validators if v not in listed]
        sides = [tuple(implicit)] + [tuple(group) for group in plan.groups]
        for side in sides:
            if side and self.committee.has_quorum(side):
                return frozenset(side)
        return None

    # -- result assembly -------------------------------------------------------------------

    def _collect_counters(self) -> Dict[str, float]:
        """Always-on counter snapshot (cheap integer reads, no registry).

        The ``memo.*`` entries read process-wide caches whose state
        depends on what ran before in the same process (bench sessions,
        sweep-worker reuse), so they are excluded from every digest and
        run-to-run comparison; everything else is a deterministic
        function of (config, seed).
        """
        from repro.consensus.bullshark import _ORDERING_TOKENS
        from repro.crypto.hashing import BROADCAST_DIGEST_MEMO
        from repro.dag.vertex import intern_table_sizes

        nodes = self.nodes.values()
        stats = self.network.stats
        vector = self.committee.stake_vector
        counters: Dict[str, float] = {
            "sim.events_fired": float(self.simulator.events_fired),
            "net.messages_sent": float(stats.messages_sent),
            "net.messages_delivered": float(stats.messages_delivered),
            "net.messages_dropped": float(stats.messages_dropped),
            "dag.pending_peak": float(max(node.dag.pending_peak for node in nodes)),
            "dag.gc_reclaimed_total": float(
                sum(node.dag.gc_reclaimed_total for node in nodes)
            ),
            "node.proposals_made": float(sum(node.proposals_made for node in nodes)),
            "node.leader_timeouts": float(
                sum(node.leader_timeouts_suffered for node in nodes)
            ),
            "node.fetch_requests": float(sum(node.synchronizer.requests_sent for node in nodes)),
            "fetch.vertices_served": float(sum(node.synchronizer.vertices_served for node in nodes)),
            "fetch.vertices_received": float(
                sum(node.synchronizer.vertices_received for node in nodes)
            ),
            "fetch.vertices_new": float(sum(node.synchronizer.vertices_new for node in nodes)),
            "node.recoveries": float(sum(node.recoveries for node in nodes)),
            "node.recovery_replayed": float(sum(node.recovery_replayed for node in nodes)),
            "node.slot_mismatches_dropped": float(sum(node.slot_mismatches_dropped for node in nodes)),
            "node.vertices_refused": float(sum(node.vertices_refused for node in nodes)),
            # Per-slot protocol state is keyed by round: the largest table of any validator.
            "rbc.delivered_rounds": float(max(len(node.broadcast_protocol._delivered) for node in nodes)),
            "rbc.acked_rounds": float(max(len(node.broadcast_protocol._acked) for node in nodes)),
            "consensus.ordered_rounds": float(max(len(node.consensus.ordered_sources) for node in nodes)),
            "memo.broadcast_digest.hits": float(BROADCAST_DIGEST_MEMO.hits),
            "memo.broadcast_digest.misses": float(BROADCAST_DIGEST_MEMO.misses),
            "memo.broadcast_digest.size": float(len(BROADCAST_DIGEST_MEMO)),
            "memo.signer_quorum.hits": float(vector.signer_cache_hits),
            "memo.signer_quorum.misses": float(vector.signer_cache_misses),
            "memo.signer_quorum.size": float(len(vector._signer_quorum_cache)),
            "memo.mask_quorum.hits": float(vector.mask_cache_hits),
            "memo.mask_quorum.misses": float(vector.mask_cache_misses),
            "memo.mask_quorum.size": float(len(vector._mask_quorum_cache)),
            "memo.edge_quorum.size": float(len(self.committee.edge_quorum_verdicts)),
            "memo.verified_certificates.size": float(len(vector.verified_certificates)),
            "memo.ordering_tokens.size": float(len(_ORDERING_TOKENS)),
        }
        intern_sizes = intern_table_sizes()
        counters["memo.intern.vertex_id.size"] = float(intern_sizes["vertex_id"])
        counters["memo.intern.digest.size"] = float(intern_sizes["digest"])
        if self.tracer is not None:
            counters["trace.events_kept"] = float(len(self.tracer.events))
            counters["trace.events_dropped"] = float(self.tracer.dropped)
        return counters

    def _build_result(self) -> ExperimentResult:
        config = self.config
        observer = self.nodes[config.observer]
        self.leader_stats.finalize_skips(
            observer.consensus.last_ordered_anchor_round,
            observer.schedule_manager.leader_for_round,
        )
        crashed = [
            validator for validator in self.committee.validators
            if self.network.is_crashed(validator)
        ]
        alive_nodes = [node for node in self.nodes.values() if not node.crashed]
        latency = self.metrics.latency
        p50, p95 = latency.percentiles(0.50, 0.95)
        report = PerformanceReport(
            system=config.protocol,
            committee_size=config.committee_size,
            faults=config.faults,
            input_load_tps=config.input_load_tps,
            duration=config.duration,
            throughput_tps=self.metrics.throughput(config.duration),
            avg_latency_s=latency.average(),
            p50_latency_s=p50,
            p95_latency_s=p95,
            stdev_latency_s=latency.stdev(),
            committed_transactions=self.metrics.committed,
            submitted_transactions=self.metrics.submitted,
            commits=observer.commit_count,
            skipped_anchor_rounds=self.leader_stats.skips,
            leader_timeouts=sum(node.leader_timeouts_suffered for node in alive_nodes),
            schedule_changes=len(observer.schedule_manager.history) - 1,
            extra={
                "events_fired": float(self.simulator.events_fired),
                "messages_delivered": float(self.network.stats.messages_delivered),
                "observer_round": float(observer.current_round),
            },
        )
        ordering_digests = {
            validator: (node.consensus.ordered_count, node.consensus.ordering_digest)
            for validator, node in self.nodes.items()
        }
        ordering_checkpoints = {
            validator: list(node.consensus.ordering_checkpoints)
            for validator, node in self.nodes.items()
        }
        schedule_epochs = {
            validator: node.schedule_manager.epochs for validator, node in self.nodes.items()
        }
        schedule_histories = {
            validator: [
                (schedule.epoch, schedule.initial_round)
                for schedule in node.schedule_manager.history
            ]
            for validator, node in self.nodes.items()
        }
        leader_timeouts = {
            validator: node.leader_timeouts_suffered for validator, node in self.nodes.items()
        }
        counters: Dict[str, Any] = {"always": self._collect_counters()}
        if self.registry is not None:
            counters["detailed"] = self.registry.snapshot()
        return ExperimentResult(
            config=config,
            report=report,
            ordering_digests=ordering_digests,
            ordering_checkpoints=ordering_checkpoints,
            schedule_epochs=schedule_epochs,
            schedule_histories=schedule_histories,
            leader_timeouts=leader_timeouts,
            commits_per_leader=self.leader_stats.commits_per_leader(),
            skipped_rounds_per_leader=self.leader_stats.skipped_rounds_per_leader(),
            crashed_validators=crashed,
            reputation=reputation_metrics(
                observer.schedule_manager,
                faulty=self.fault_injector.affected_validators(),
            ),
            counters=counters,
            trace=self.tracer.export_events() if self.tracer is not None else [],
        )
