"""Test doubles: a flat network and recorders of a run's ordered output.

Product runs use the geo latency model and keep no ordered sequence (the
observer's digest, checkpoints and the collector's columns are what they
report).  Tests that want a fast, geography-free network or a validator's
full total order build it here, from the hooks every run exposes,
read a transaction pool's windows as rows here, and hand a validator a
vertex as a delivery of its own slot (``deliver``).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.consensus.committed import CommittedSubDag, OrderedVertex
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.errors import NetworkError
from repro.faults.base import FaultPlan
from repro.network.latency import LatencyModel
from repro.sim.runner import SimulationRunner
from repro.types import Region, SimTime, ValidatorId, VertexId
from repro.workload.transactions import Transaction, TransactionPool


def deliver(node, vertex: Vertex) -> None:
    """Hand ``vertex`` to ``node`` as a delivery of its own slot."""
    node.ingest(vertex)


class UniformLatencyModel(LatencyModel):
    """A flat latency model: every link has the same base delay plus jitter."""

    def __init__(self, base_delay: SimTime = 0.05, jitter: SimTime = 0.005) -> None:
        if base_delay < 0 or jitter < 0:
            raise NetworkError("delays must be non-negative")
        self.base_delay = base_delay
        self.jitter = jitter

    def one_way_delay(
        self,
        sender_region: Region,
        recipient_region: Region,
        rng: random.Random,
    ) -> SimTime:
        if sender_region == recipient_region and self.base_delay > 0.002:
            base = self.base_delay / 5.0
        else:
            base = self.base_delay
        return max(0.0002, base + rng.uniform(-self.jitter, self.jitter))


class FlatNetwork(FaultPlan):
    """Swap a run's geo network for ``UniformLatencyModel()``.

    Put in ``ExperimentConfig.extra_faults``: fault plans are scheduled
    before any validator starts, so no message ever sees the geo model,
    and the plan survives pickling into a sweep worker.
    """

    def schedule(self, simulator, network, nodes) -> None:
        network.latency_model = UniformLatencyModel()

    def describe(self) -> str:
        return "flat network (uniform latency)"


class OrderRecorder:
    """One engine's ordered vertices and committed sub-DAGs, as emitted.

    Subscribes to ``on_ordered`` / ``on_commit`` of a validator node or a
    consensus engine; attach before anything is ordered.
    """

    def __init__(self, engine) -> None:
        self.ordered: List[OrderedVertex] = []
        self.committed: List[CommittedSubDag] = []
        engine.on_ordered(self.ordered.append)
        engine.on_commit(self.committed.append)

    def ids(self) -> List[VertexId]:
        """The total order as vertex ids."""
        return [record.vertex.id for record in self.ordered]


def record_orders(nodes: Dict[ValidatorId, Any]) -> Dict[ValidatorId, OrderRecorder]:
    """An :class:`OrderRecorder` on each of ``nodes`` (a runner's, before it runs)."""
    return {validator: OrderRecorder(node) for validator, node in nodes.items()}


def run_recorded(config):
    """Run ``config``: its runner, an :class:`OrderRecorder` per node, and the result."""
    runner = SimulationRunner(config)
    orders = record_orders(runner.nodes)
    return runner, orders, runner.run()


def dag_vertices(dag: DagStore) -> List[Vertex]:
    """Every vertex the DAG holds: rounds ascending, arrival order within one."""
    return [vertex for round_number, _ in dag.held_sources() for vertex in dag.vertices_at(round_number)]


def pooled(pool: TransactionPool) -> List[Transaction]:
    """The transactions ``pool``'s windows hold, oldest first, as rows."""
    return [
        Transaction(
            tx_id,
            column.clients[tx_id - column.first_id],
            column.submitted_at[tx_id - column.first_id],
            pool.target,
        )
        for column, start, stop in pool.windows
        for tx_id in range(start, stop)
    ]


class PoolTarget:
    """A load target with a validator's pool and crash flag, and nothing else."""

    def __init__(self, validator: ValidatorId) -> None:
        self.id = validator
        self.crashed = False
        self.transaction_pool = TransactionPool(validator)
