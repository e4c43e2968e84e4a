"""An in-memory persistent store (RocksDB substitute).

The store outlives a crash of its validator's in-memory protocol state
and holds exactly what :meth:`~repro.node.validator.ValidatorNode.recover`
reads: the vertex log, one list per round, pruned to the DAG's GC
horizon, and the latest own proposal, which a recovering validator
re-broadcasts rather than proposing anything else for that round.  The
commit record is not copied here: the consensus engine and the schedule
manager change state only inside a commit, so the validator keeps those
objects across a crash as that record.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dag.vertex import Vertex
from repro.types import Round


class PersistentStore:
    """One validator's persisted vertex log and latest own proposal."""

    def __init__(self) -> None:
        # Every round below this one is ordered history the DAG dropped.
        self.horizon: Round = 0
        self.rounds: Dict[Round, List[Vertex]] = {}
        self.own_proposal: Optional[Vertex] = None

    def persist(self, vertex: Vertex) -> None:
        """Log an inserted vertex (once per insertion, so keep it cheap).

        A straggler below the horizon is ordered history: not logged.
        """
        if vertex.round < self.horizon:
            return
        logged = self.rounds.get(vertex.round)
        if logged is None:
            self.rounds[vertex.round] = [vertex]
        else:
            logged.append(vertex)

    def prune(self, horizon: Round) -> None:
        """Drop the rounds below ``horizon``."""
        for round_number in range(self.horizon, horizon):
            self.rounds.pop(round_number, None)
        self.horizon = max(self.horizon, horizon)

    def replay_order(self) -> List[Vertex]:
        """The logged vertices in ``(round, source)`` order: parents first."""
        return [
            vertex
            for round_number in sorted(self.rounds)
            for vertex in sorted(self.rounds[round_number], key=lambda vertex: vertex.source)
        ]
