"""Run one experiment over real sockets.

``run_net_experiment`` is the socket-backed sibling of
:func:`repro.netexec.lockstep.run_lockstep_experiment`, and
:class:`SocketRunner` is the lockstep oracle's runner with two parts
swapped: the clock is a :class:`~repro.netexec.clock.MonotonicScheduler`
over the event loop and the network an
:class:`~repro.netexec.transport.AsyncioTransport` over Unix domain
sockets (or local TCP).  Everything else is inherited from
:class:`~repro.sim.runner.SimulationRunner`: the plan, node
construction, tracing, the counter table and result assembly, so a
socket run and its oracle report the same fields.  The socket engine
adds only the counters in :data:`SOCKET_COUNTERS`.  Because lockstep
makes the committed order a pure function of the plan, the result's
ordering digests must be byte-identical to the oracle's; the CI
``cross-backend-smoke`` job enforces exactly that via ``python -m
repro.scenarios diff``.

The run ends on **quiescence**, at the first poll where every alive
validator has reached the plan's final round and no message is in
flight: the transport's ``messages_sent`` equals ``messages_delivered``
plus ``messages_dropped``.  The identity closes because every frame is
delivered or counted as dropped, a frame lost with its connection
included (see :mod:`repro.netexec.transport`).  A run that fails to
quiesce inside ``runtime_limit`` (a stuck transport, a dead task)
raises :class:`~repro.errors.ReproError` with the per-node round
positions, rather than hanging CI.

Wall-clock reads here are diagnostics only (trace stamps, quiescence
timing); no module on the commit path imports this one.
"""

from __future__ import annotations

import asyncio
import tempfile
from typing import Dict

from repro.errors import ReproError
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.lockstep import LockstepSimulationRunner, check_lockstep_quiescence
from repro.netexec.transport import AsyncioTransport
from repro.sim.experiment import ExperimentConfig, ExperimentResult
from repro.sim.runner import collector_suspended

DEFAULT_RUNTIME_LIMIT = 120.0

# How often the run looks for quiescence: the most a finished run waits.
_POLL_INTERVAL = 0.01


def run_net_experiment(
    config: ExperimentConfig,
    family: str = "uds",
    runtime_limit: float = DEFAULT_RUNTIME_LIMIT,
) -> ExperimentResult:
    """Run ``config`` in lockstep mode over real sockets, the cyclic
    garbage collector suspended as in a simulated run."""

    async def run() -> ExperimentResult:
        with tempfile.TemporaryDirectory(prefix="repro-netexec-") as socket_dir:
            return await SocketRunner(config, socket_dir, family).run_until_quiescent(
                runtime_limit
            )

    with collector_suspended():
        return asyncio.run(run())


# The socket engine's counters beyond the table every engine shares.
SOCKET_COUNTERS = ("net.broadcasts", "net.transport_events")


class SocketRunner(LockstepSimulationRunner):
    """The lockstep runner on the event loop's clock and real sockets.

    Built inside a running event loop.  Nodes start in validator order
    without the start-up jitter (and its RNG draws) of the simulated
    runs.
    """

    def __init__(self, config: ExperimentConfig, socket_dir: str, family: str) -> None:
        self.socket_dir = socket_dir
        self.family = family
        super().__init__(config)

    def _build_clock(self) -> MonotonicScheduler:
        return MonotonicScheduler(asyncio.get_running_loop(), seed=self.config.seed)

    def _build_network(self) -> AsyncioTransport:
        return AsyncioTransport(self.simulator, socket_dir=self.socket_dir, family=self.family)

    def _collect_counters(self) -> Dict[str, float]:
        counters = super()._collect_counters()
        broadcasts, transport_events = SOCKET_COUNTERS
        counters[broadcasts] = float(self.network.stats.broadcasts)
        counters[transport_events] = float(len(self.network.events))
        return counters

    async def run_until_quiescent(self, runtime_limit: float) -> ExperimentResult:
        await self.network.start()
        for _validator, node in sorted(self.nodes.items()):
            node.start()
        await self._wait_quiescent(runtime_limit)
        await self.network.shutdown()
        check_lockstep_quiescence(self.plan, self.nodes)
        return self._build_result()

    async def _wait_quiescent(self, runtime_limit: float) -> None:
        plan, nodes, transport, scheduler = self.plan, self.nodes, self.network, self.simulator
        deadline = scheduler.now + runtime_limit
        stats = transport.stats
        while True:
            await asyncio.sleep(_POLL_INTERVAL)
            if transport.handler_errors:
                raise ReproError(
                    "net backend handler failure: "
                    f"{transport.handler_errors[0]!r} (see transport.events)"
                )
            if stats.messages_sent == stats.messages_delivered + stats.messages_dropped and all(
                node.crashed or node.current_round >= plan.max_round for node in nodes.values()
            ):
                return
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
