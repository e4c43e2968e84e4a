"""An in-memory persistent store (RocksDB substitute).

The store outlives a crash of its validator's in-memory protocol state
and holds exactly what :meth:`~repro.node.validator.ValidatorNode.recover`
reads: the vertex log, one list per round from the DAG's GC horizon up,
and the latest own proposal, which a recovering validator re-broadcasts
rather than proposing anything else for that round.  The log is captured
from the DAG at the crash (:meth:`PersistentStore.capture`) rather than
written at every insertion and pruned at every GC step: in a crash-stop
simulation nothing reads the log before the crash, and at the crash
instant the DAG's window is exactly what per-insertion logging would
hold (every inserted vertex at or above the horizon).  The commit record
is not copied here: the consensus engine and the schedule manager change
state only inside a commit, so the validator keeps those objects across
a crash as that record.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.types import Round


class PersistentStore:
    """One validator's persisted vertex log and latest own proposal."""

    def __init__(self) -> None:
        # Every round below this one is ordered history the DAG dropped.
        self.horizon: Round = 0
        self.rounds: Dict[Round, List[Vertex]] = {}
        self.own_proposal: Optional[Vertex] = None

    def capture(self, dag: DagStore) -> None:
        """Make the log ``dag``'s window: its vertices at and above its
        horizon, per round in source order.

        A straggler the DAG holds below its horizon until the next GC
        sweep is ordered history: not logged.
        """
        horizon = dag.lowest_round
        self.horizon = horizon
        self.rounds = {
            round_number: [vertex for vertex in dag.round_map(round_number) if vertex is not None]
            for round_number, _sources in dag.held_sources()
            if round_number >= horizon
        }

    def replay_order(self) -> List[Vertex]:
        """The logged vertices in ``(round, source)`` order: parents first."""
        return [vertex for round_number in sorted(self.rounds) for vertex in self.rounds[round_number]]
