"""Executable reference model of Bullshark ordering + HammerHead scheduling.

The safety argument of the paper is that every validator derives the same
order and the same schedule from the same DAG, so the check that matters
is an *independent* recomputation from a recorded DAG.  This module is
that recomputation: plain dicts, sets and lists, no caches, no arenas, no
commit-scan gate.  It replays the insert log of one validator — the
vertices in the order they entered that validator's DAG — and must
reproduce the validator's ``ordering_digest``, ``ordered_count`` and
schedule-change records.

What is modelled (Algorithm 2 of the paper plus Section 3):

* the commit rule: the highest anchor round above ``lastOrderedRound``
  whose leader vertex has ``f+1`` stake of direct votes in the next round;
* the anchor chain: walking back two rounds at a time, an earlier anchor
  joins when a path leads to it from the last anchor that joined;
* ``path`` as a breadth-first search over stored vertices;
* the order inside a committed sub-DAG: the not-yet-ordered causal history
  of the anchor, by ``(round, source)``;
* the rolling SHA-256 over ``"round:source;"`` tokens;
* the ``hammerhead`` scoring rule (one point per vote for the previous
  round's leader), the commit-count change policy, the swap of the
  lowest-scoring ``exclude_fraction`` of stake for the highest scorers over
  the initial slots, and retroactive schedule lookup; or a static schedule
  (``commits_per_schedule=None``, the Bullshark baseline).

What is shared with production on purpose, as explicit inputs: the
garbage-collection depth (``keep_rounds`` — pruned history is invisible to
``path`` and to the causal-history walk, so the depth is part of the
protocol), and the state a validator adopts at state sync
(:meth:`ReferenceModel.adopt_snapshot`).

The model imports value types only (``tests/unit/test_reference_model.py``
asserts the allowlist): nothing from ``repro.dag.store``,
``repro.consensus`` or ``repro.core``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.committee import Committee
from repro.dag.vertex import Vertex
from repro.types import Round, ValidatorId, VertexId

# (first anchor round covered, slot cycle); the epoch is the list index.
Schedule = Tuple[Round, Tuple[ValidatorId, ...]]


class ReferenceModel:
    """One validator's ordering and schedule, recomputed from scratch."""

    def __init__(
        self,
        committee: Committee,
        initial_round: Round,
        slots: Iterable[ValidatorId],
        commits_per_schedule: Optional[int] = None,
        exclude_fraction: float = 1.0 / 3.0,
    ) -> None:
        self.committee = committee
        self.commits_per_schedule = commits_per_schedule
        self.exclude_fraction = exclude_fraction
        self.dag: Dict[VertexId, Vertex] = {}
        self.base_slots = tuple(slots)
        self.schedules: List[Schedule] = [(initial_round, self.base_slots)]
        self.scores: Dict[ValidatorId, float] = {v: 0.0 for v in committee.validators}
        self.commits_in_epoch = 0
        # One dict per schedule change: the fields of the production
        # ``ScheduleChangeRecord`` (the new slot cycle is in ``schedules``).
        self.schedule_changes: List[dict] = []
        self.last_ordered_anchor_round: Round = 0
        self.ordered: Set[VertexId] = set()
        self.sequence: List[VertexId] = []
        self.commit_count = 0
        self._digest = hashlib.sha256()

    # -- driving -----------------------------------------------------------

    def replay(self, insert_log: Iterable[Vertex], keep_rounds: int) -> None:
        """Replay a validator's insert log the way the node reacts to each
        insertion: insert, run the commit rule, prune (``keep_rounds`` is
        the node's ``gc_depth``; 0 keeps everything)."""
        for vertex in insert_log:
            self.insert(vertex)
            if vertex.round >= 1:
                self.try_commit()
            self.garbage_collect(keep_rounds)

    def insert(self, vertex: Vertex) -> None:
        self.dag[vertex.id] = vertex

    def try_commit(self) -> None:
        while True:
            anchor = self._highest_committable_anchor()
            if anchor is None:
                return
            self._order_anchor_chain(anchor)

    def garbage_collect(self, keep_rounds: int) -> None:
        """Forget rounds more than ``keep_rounds`` below the last ordered anchor."""
        if keep_rounds:
            self.prune_below(self.last_ordered_anchor_round - keep_rounds)

    def prune_below(self, horizon: Round) -> None:
        self.dag = {
            vertex_id: vertex
            for vertex_id, vertex in self.dag.items()
            if vertex_id.round >= horizon
        }

    def fast_forward(self, horizon_round: Round) -> None:
        """Skip ordering below ``horizon_round`` (rounded up to an anchor round)."""
        target = horizon_round + horizon_round % 2
        if target > self.last_ordered_anchor_round:
            self.last_ordered_anchor_round = target

    def adopt_snapshot(self, snapshot) -> None:
        """State sync: take over a peer's committed position and schedule.

        ``snapshot`` is the ``ConsensusSnapshot`` the validator adopted
        (read by attribute; schedules by ``initial_round`` and ``slots``).
        """
        self.fast_forward(snapshot.last_ordered_anchor_round)
        self.ordered |= set(snapshot.ordered_vertices)
        if self.commits_per_schedule is not None:
            if snapshot.schedules:
                self.schedules = [(s.initial_round, tuple(s.slots)) for s in snapshot.schedules]
            self.scores = {v: 0.0 for v in self.committee.validators}
            for validator, value in snapshot.scores.items():
                self.scores[validator] += value
            self.commits_in_epoch = snapshot.commits_in_epoch
        self.prune_below(snapshot.gc_round)

    # -- results -------------------------------------------------------------

    @property
    def ordering_digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def ordered_count(self) -> int:
        return len(self.sequence)

    # -- schedule ------------------------------------------------------------

    def leader(self, round_number: Round) -> ValidatorId:
        """The leader of an anchor round under the schedule covering it
        (the first schedule also answers for rounds before it)."""
        initial_round, slots = self.schedules[0]
        for start, cycle in self.schedules[1:]:
            if start <= round_number:
                initial_round, slots = start, cycle
        position = max(round_number, initial_round)
        return slots[((position - initial_round) // 2) % len(slots)]

    def anchor_of(self, round_number: Round) -> Optional[Vertex]:
        return self.dag.get(VertexId(round_number, self.leader(round_number)))

    # -- commit rule -----------------------------------------------------------

    def _highest_committable_anchor(self) -> Optional[Vertex]:
        highest = max((vertex_id.round for vertex_id in self.dag), default=0)
        best = None
        for round_number in range(max(self.last_ordered_anchor_round + 2, 2), highest, 2):
            anchor = self.anchor_of(round_number)
            if anchor is None:
                continue
            votes = sum(
                self.committee.stake_of(vertex.source)
                for vertex in self.dag.values()
                if vertex.round == round_number + 1 and anchor.id in vertex.edges
            )
            if votes >= self.committee.validity_threshold:
                best = anchor
        return best

    def path(self, descendant: VertexId, ancestor: VertexId) -> bool:
        """Breadth-first search along edges; vertices not stored block it,
        but an edge naming ``ancestor`` reaches it whether or not it is
        stored."""
        if descendant == ancestor:
            return descendant in self.dag
        if descendant not in self.dag:
            return False
        frontier = {descendant}
        while frontier:
            parents: Set[VertexId] = set()
            for vertex_id in frontier:
                vertex = self.dag.get(vertex_id)
                if vertex is not None:
                    parents.update(vertex.edges)
            if ancestor in parents:
                return True
            frontier = {parent for parent in parents if parent.round > ancestor.round}
        return False

    def _order_anchor_chain(self, anchor: Vertex) -> None:
        chain = [anchor]
        round_number = anchor.round - 2
        while round_number > self.last_ordered_anchor_round and round_number >= 2:
            earlier = self.anchor_of(round_number)
            if earlier is not None and self.path(chain[-1].id, earlier.id):
                chain.append(earlier)
            round_number -= 2
        for next_anchor in reversed(chain):
            self._commit(next_anchor)
            if self._anchor_committed(next_anchor):
                # Later rounds are read under the new schedule: what is
                # left of the chain was chosen under the old one.
                return

    def _commit(self, anchor: Vertex) -> None:
        history: Dict[VertexId, Vertex] = {}
        stack = [anchor.id]
        while stack:
            vertex_id = stack.pop()
            vertex = self.dag.get(vertex_id)
            if vertex is None or vertex_id in history or vertex_id in self.ordered:
                continue
            history[vertex_id] = vertex
            stack.extend(vertex.edges)
        for vertex_id in sorted(history):
            vertex = history[vertex_id]
            self.ordered.add(vertex_id)
            self.sequence.append(vertex_id)
            self._digest.update(f"{vertex.round}:{vertex.source};".encode("ascii"))
            self._score_vote(vertex)
        self.last_ordered_anchor_round = anchor.round
        self.commit_count += 1

    # -- reputation and schedule change ----------------------------------------

    def _score_vote(self, vertex: Vertex) -> None:
        voted_round = vertex.round - 1
        if self.commits_per_schedule is None or voted_round < 2 or voted_round % 2:
            return
        if VertexId(voted_round, self.leader(voted_round)) in vertex.edges:
            self.scores[vertex.source] += 1.0

    def _anchor_committed(self, anchor: Vertex) -> bool:
        """Count the commit; switch schedules when the epoch is over."""
        if self.commits_per_schedule is None:
            return False
        self.commits_in_epoch += 1
        active_start, active_slots = self.schedules[-1]
        if anchor.round < active_start or self.commits_in_epoch < self.commits_per_schedule:
            return False
        new_slots = self._swapped_slots(*self._swap_sets())
        self.schedule_changes.append(
            {
                "epoch": len(self.schedules),
                "triggered_by_round": anchor.round,
                "new_initial_round": anchor.round + 2,
                "scores": dict(self.scores),
                "demoted_slots": sum(
                    1 for old, new in zip(active_slots, new_slots) if old != new
                ),
            }
        )
        self.schedules.append((anchor.round + 2, new_slots))
        self.scores = {v: 0.0 for v in self.committee.validators}
        self.commits_in_epoch = 0
        return True

    def _swap_sets(self) -> Tuple[List[ValidatorId], List[ValidatorId]]:
        """``B``: lowest scorers fitting the stake budget; ``G``: as many
        highest scorers outside ``B``.  Ties break by validator id."""
        budget = int(self.exclude_fraction * self.committee.total_stake)
        demoted: List[ValidatorId] = []
        used = 0
        for validator in sorted(self.scores, key=lambda v: (self.scores[v], v)):
            stake = self.committee.stake_of(validator)
            if used + stake <= budget:
                demoted.append(validator)
                used += stake
        promoted = [
            validator
            for validator in sorted(self.scores, key=lambda v: (-self.scores[v], v))
            if validator not in demoted
        ][: len(demoted)]
        return demoted[: len(promoted)], promoted

    def _swapped_slots(
        self, demoted: List[ValidatorId], promoted: List[ValidatorId]
    ) -> Tuple[ValidatorId, ...]:
        """Every slot of a ``B`` validator in the initial cycle goes to the
        next ``G`` validator, round-robin."""
        slots = []
        handed_out = 0
        for slot in self.base_slots:
            if slot in demoted and promoted:
                slot = promoted[handed_out % len(promoted)]
                handed_out += 1
            slots.append(slot)
        return tuple(slots)
