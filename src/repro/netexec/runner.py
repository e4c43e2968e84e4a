"""Run one experiment over real sockets and assemble an ExperimentResult.

``run_net_experiment`` is the socket-backed sibling of
:func:`repro.netexec.lockstep.run_lockstep_experiment`: the same
:class:`~repro.netexec.lockstep.LockstepPlan`, the same
:class:`~repro.netexec.lockstep.LockstepNode` stack, the same schedule
managers — but the network is an
:class:`~repro.netexec.transport.AsyncioTransport` over Unix domain
sockets (or local TCP) and the clock is the event loop's monotonic
clock.  Because lockstep makes the committed order a pure function of
the plan, the result's ordering digests must be byte-identical to the
oracle's; the CI ``cross-backend-smoke`` job enforces exactly that via
``python -m repro.scenarios diff``.

The run ends on **quiescence**: every alive validator has reached the
plan's final round and the transport has stopped delivering.  A run
that fails to quiesce inside ``runtime_limit`` (a stuck transport, a
dead task) raises :class:`~repro.errors.ReproError` with the per-node
round positions, rather than hanging CI.

Load-derived report fields (throughput, latency, transaction counts)
are zero on both lockstep-family backends — lockstep synthesizes
blocks, it does not model client traffic — so cross-backend artifacts
stay field-comparable.  Wall-clock reads here are diagnostics only
(trace stamps, quiescence timing); the module is DET002-allowlisted and
outside the purity closure.
"""

from __future__ import annotations

import asyncio
import tempfile
from typing import Any, Dict

from repro.errors import ReproError
from repro.metrics.leader_stats import LeaderUtilizationStats
from repro.metrics.report import PerformanceReport
from repro.metrics.reputation import reputation_metrics
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.lockstep import (
    LockstepNode,
    check_lockstep_quiescence,
    lockstep_node_config,
    plan_for_config,
)
from repro.netexec.transport import AsyncioTransport
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.runner import build_committee, schedule_manager_factory

DEFAULT_RUNTIME_LIMIT = 120.0

# Consecutive idle polls (no new deliveries, all alive nodes at the
# final round) before the run is declared quiescent.  Every validator
# shares this event loop, which serves readable sockets before due
# timers, so a frame still in flight is delivered within a few loop
# iterations whatever the interval: the count is the evidence, the
# interval only the wall-clock wait a finished run sits through (a
# wait that does not shrink on a faster host, so it is kept short).
_QUIESCENT_POLLS = 5
_POLL_INTERVAL = 0.01


def run_net_experiment(
    config: ExperimentConfig,
    family: str = "uds",
    runtime_limit: float = DEFAULT_RUNTIME_LIMIT,
) -> ExperimentResult:
    """Run ``config`` in lockstep mode over real sockets."""
    config = config.validate()
    return asyncio.run(_run_async(config, family, runtime_limit))


async def _run_async(
    config: ExperimentConfig, family: str, runtime_limit: float
) -> ExperimentResult:
    committee = build_committee(config)
    plan = plan_for_config(config, committee)
    loop = asyncio.get_running_loop()
    scheduler = MonotonicScheduler(loop, seed=config.seed)

    node_config = lockstep_node_config(config, plan)

    with tempfile.TemporaryDirectory(prefix="repro-netexec-") as socket_dir:
        transport = AsyncioTransport(scheduler, socket_dir=socket_dir, family=family)
        factory = schedule_manager_factory(config, committee, node_config.scoring_rule)
        nodes = {}
        for validator in committee.validators:
            nodes[validator] = LockstepNode(
                validator_id=validator,
                committee=committee,
                network=transport,
                schedule_manager=factory(),
                config=node_config,
                plan=plan,
            )

        leader_stats = LeaderUtilizationStats()
        observer = nodes[config.observer]
        observer.on_commit(leader_stats.record_commit)

        tracer = None
        if config.trace:
            from repro.obs.registry import InstrumentationRegistry
            from repro.obs.trace import MemoryTracer

            tracer = MemoryTracer(
                clock=lambda: scheduler.now, max_events=config.trace_limit
            )
            registry = InstrumentationRegistry()
            transport.install_observability(tracer, registry)
            for _validator, node in sorted(nodes.items()):
                node.install_observability(tracer, registry)

        await transport.start()
        for _validator, node in sorted(nodes.items()):
            node.start()
        await _wait_quiescent(plan, nodes, transport, scheduler, runtime_limit)
        await transport.shutdown()
        check_lockstep_quiescence(plan, nodes)

        return _build_result(
            config, plan, nodes, transport, scheduler, leader_stats, tracer
        )


async def _wait_quiescent(plan, nodes, transport, scheduler, runtime_limit) -> None:
    deadline = scheduler.now + runtime_limit
    last_delivered = -1
    idle_polls = 0
    while True:
        await asyncio.sleep(_POLL_INTERVAL)
        if transport.handler_errors:
            raise ReproError(
                "net backend handler failure: "
                f"{transport.handler_errors[0]!r} (see transport.events)"
            )
        if scheduler.now >= deadline:
            positions = {
                validator: (node.current_round, node.crashed)
                for validator, node in sorted(nodes.items())
            }
            raise ReproError(
                f"net backend did not quiesce within {runtime_limit:.0f}s; "
                f"target round {plan.max_round}, positions {positions}, "
                f"last transport events: {transport.events[-5:]}"
            )
        alive_done = all(
            node.crashed or node.current_round >= plan.max_round
            for node in nodes.values()
        )
        if not alive_done:
            idle_polls = 0
            continue
        delivered = transport.stats.messages_delivered
        if delivered != last_delivered:
            last_delivered = delivered
            idle_polls = 0
            continue
        idle_polls += 1
        if idle_polls >= _QUIESCENT_POLLS:
            return


def _build_result(
    config, plan, nodes, transport, scheduler, leader_stats, tracer
) -> ExperimentResult:
    observer = nodes[config.observer]
    leader_stats.finalize_skips(
        observer.consensus.last_ordered_anchor_round,
        observer.schedule_manager.leader_for_round,
    )
    crashed = [
        validator for validator in sorted(nodes) if transport.is_crashed(validator)
    ]
    report = PerformanceReport(
        system=config.protocol,
        committee_size=config.committee_size,
        faults=config.faults,
        input_load_tps=config.input_load_tps,
        duration=config.duration,
        throughput_tps=0.0,
        avg_latency_s=0.0,
        p50_latency_s=0.0,
        p95_latency_s=0.0,
        stdev_latency_s=0.0,
        committed_transactions=0,
        submitted_transactions=0,
        commits=observer.commit_count,
        skipped_anchor_rounds=leader_stats.skips,
        leader_timeouts=sum(
            node.leader_timeouts_suffered for node in nodes.values() if not node.crashed
        ),
        schedule_changes=len(observer.schedule_manager.history) - 1,
        extra={
            "events_fired": float(scheduler.events_fired),
            "messages_delivered": float(transport.stats.messages_delivered),
            "observer_round": float(observer.current_round),
        },
    )
    ordering_digests = {
        validator: (node.consensus.ordered_count, node.consensus.ordering_digest)
        for validator, node in nodes.items()
    }
    ordering_checkpoints = {
        validator: list(node.consensus.ordering_checkpoints)
        for validator, node in nodes.items()
    }
    counters: Dict[str, Any] = {
        "always": {
            "net.messages_sent": float(transport.stats.messages_sent),
            "net.messages_delivered": float(transport.stats.messages_delivered),
            "net.messages_dropped": float(transport.stats.messages_dropped),
            "net.broadcasts": float(transport.stats.broadcasts),
            "net.transport_events": float(len(transport.events)),
            "sim.events_fired": float(scheduler.events_fired),
            "node.proposals_made": float(
                sum(node.proposals_made for node in nodes.values())
            ),
            "node.fetch_requests": float(
                sum(node.fetch_requests_sent for node in nodes.values())
            ),
            "fetch.vertices_served": float(
                sum(node.fetch_vertices_served for node in nodes.values())
            ),
            "fetch.vertices_received": float(
                sum(node.fetch_vertices_received for node in nodes.values())
            ),
            "fetch.vertices_new": float(
                sum(node.fetch_vertices_new for node in nodes.values())
            ),
        }
    }
    return ExperimentResult(
        config=config,
        report=report,
        ordering_digests=ordering_digests,
        ordering_checkpoints=ordering_checkpoints,
        schedule_epochs={
            validator: node.schedule_manager.epochs for validator, node in nodes.items()
        },
        schedule_histories={
            validator: [
                (schedule.epoch, schedule.initial_round)
                for schedule in node.schedule_manager.history
            ]
            for validator, node in nodes.items()
        },
        leader_timeouts={
            validator: node.leader_timeouts_suffered
            for validator, node in nodes.items()
        },
        commits_per_leader=leader_stats.commits_per_leader(),
        skipped_rounds_per_leader=leader_stats.skipped_rounds_per_leader(),
        crashed_validators=crashed,
        # faulty=() mirrors the lockstep oracle, whose time-based fault
        # injector is empty (crashes are plan-driven), so the reputation
        # block of both backends' artifacts matches field for field.
        reputation=reputation_metrics(observer.schedule_manager, faulty=[]),
        counters=counters,
        trace=tracer.export_events() if tracer is not None else [],
    )
