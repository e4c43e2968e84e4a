"""The Bullshark commit rule and anchor ordering (Algorithm 2).

One :class:`BullsharkConsensus` instance runs inside every validator.  It
is driven by vertex insertions into the validator's local DAG and produces
a totally ordered sequence of vertices.  The leader of each anchor round
is obtained from a :class:`~repro.core.manager.ScheduleManager`; plugging
in the static manager yields baseline Bullshark, plugging in the
HammerHead manager yields the paper's protocol.

Differences from the pseudocode that matter for the reproduction:

* Commit attempts are evaluated against *all* vertices currently known for
  the voting round rather than only the edges of the vertex that triggered
  the attempt.  Both formulations commit exactly when ``f+1`` (by stake)
  voting vertices link to the anchor, and the aggregate form lets the
  engine re-evaluate cheaply after a schedule change.
* When a schedule change triggers while ordering a stack of anchors
  (``orderHistory``, line 32), the remaining stack is discarded and the
  commit attempt restarts under the new schedule.  This is the retroactive
  schedule application described in Section 3.1: rounds after the change
  must be interpreted under the new schedule, so anchors selected for
  those rounds under the old schedule are recomputed.
* An insertion at round ``r`` can change the direct-vote stake of one
  anchor round only, ``r - r % 2``, and that anchor commits on ``f+1``
  stake of round-``r+1`` votes, so :meth:`process_vertex` enters the
  commit scan only when that round is above ``lastOrderedRound`` and its
  vote round already holds ``f+1`` stake.  A schedule change or state
  sync can change the leader of any round above ``lastOrderedRound``;
  it leaves a rescan of all of them pending, which the next scan runs
  (:meth:`reset_candidates`).  :meth:`try_commit` is that full rescan,
  for callers that add to the DAG behind the engine.  The independent
  check of this engine is the executable reference model in
  ``tests/reference_model.py``, which recomputes ordering and schedule
  changes from a recorded insert log.
* A committed sub-DAG is folded in one loop (the ordered set, the
  rolling digest and its checkpoints) and handed to the schedule manager
  in one call, :meth:`ScheduleManager.on_subdag_ordered`; subscribers
  of :meth:`BullsharkConsensus.on_ordered` then get one record per
  vertex, in the same order.  Nothing reads scores or the digest while
  a sub-DAG is being ordered, so this is the per-vertex order of
  Algorithm 2, line 35, with fewer calls.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.committee import Committee
from repro.consensus.committed import CommittedSubDag, OrderedVertex
from repro.core.manager import ScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.errors import ConsensusError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.types import Round, SimTime, ValidatorId, VertexId, is_anchor_round

# Callbacks the embedding node can register.
OrderedCallback = Callable[[OrderedVertex], None]
CommitCallback = Callable[[CommittedSubDag], None]

# Every this many ordered vertices, the engine snapshots its rolling
# ordering digest into ``ordering_checkpoints``.  The snapshots let two
# runs whose final digests differ (e.g. under two scoring rules) be
# compared by their longest common committed prefix, and let validators
# with different ordered counts be checked for prefix consistency.  A
# power of two so the hot-path test is one AND; hexdigest on the rolling
# hasher is a cheap state copy, paid once per 64 ordered vertices.
ORDERING_CHECKPOINT_INTERVAL = 64


class BullsharkConsensus:
    """Per-validator consensus engine interpreting the local DAG."""

    # Observability (repro.obs): null by default; the digest fold and
    # the commit rule itself never consult these — only the already-rare
    # commit/skip sites test the boolean.
    _tracer: Tracer = NULL_TRACER
    _tracing = False

    def __init__(
        self,
        owner: ValidatorId,
        committee: Committee,
        dag: DagStore,
        schedule_manager: ScheduleManager,
        record_sequence: bool = False,
    ) -> None:
        # ``record_sequence`` is accepted and ignored: the ordered output
        # reaches whoever subscribes to ``on_ordered`` / ``on_commit``.  The
        # benchmark suite's Bullshark unit cost still passes it.
        self.owner = owner
        self.committee = committee
        self._stakes = committee.stake_vector.stakes
        # Non-zero only for uniform committees: lets the direct-vote scan
        # collapse the stake sum to popcount * stake (see
        # ``_direct_vote_stake``).
        self._uniform_stake = committee.stake_vector.uniform_stake
        # The f+1 threshold the commit scan and its gate compare against.
        self._validity = committee.validity_threshold
        self.dag = dag
        self.schedule_manager = schedule_manager
        # Set when a schedule change or state sync may have changed the
        # leader of any anchor round above the last ordered one: the next
        # commit scan re-evaluates all of them.
        self._rescan_pending = False

        # ``lastOrderedRound`` from Algorithm 2 (tracks anchor rounds).
        self.last_ordered_anchor_round: Round = 0
        # Vertices already output in the total order: per round, the
        # bitmask of their sources (what ``DagStore.causal_history`` excludes).
        self.ordered_sources: Dict[Round, int] = {}
        # (from_round, to_round) intervals skipped by state sync.
        self.state_sync_gaps: List[tuple] = []
        self.ordered_count = 0
        self.commit_count = 0
        # Rolling digest of the ordered (round, source) sequence; two
        # validators with the same count and digest ordered the same prefix.
        self._ordering_digest = hashlib.sha256()
        # Periodic (ordered_count, hexdigest) snapshots of the rolling
        # digest (see ORDERING_CHECKPOINT_INTERVAL); consumed by
        # :mod:`repro.obs.consistency` for committed-prefix comparison.
        self.ordering_checkpoints: List[Tuple[int, str]] = []

        self._ordered_callbacks: List[OrderedCallback] = []
        self._commit_callbacks: List[CommitCallback] = []
        # Clock source; the node wires this to the simulator.  Defaults to
        # a constant so the engine can run outside a simulation (tests).
        self.clock: Callable[[], SimTime] = lambda: 0.0

    def install_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer; digest-neutral by construction (no site reads
        or perturbs protocol state)."""
        self._tracer = tracer
        self._tracing = tracer.enabled

    # -- callback registration ----------------------------------------------------

    def on_ordered(self, callback: OrderedCallback) -> None:
        self._ordered_callbacks.append(callback)

    def on_commit(self, callback: CommitCallback) -> None:
        self._commit_callbacks.append(callback)

    # -- public driving interface ----------------------------------------------------

    def process_vertex(self, vertex: Vertex) -> List[CommittedSubDag]:
        """React to a vertex having been inserted into the local DAG.

        The insertion can change the direct-vote stake of one anchor
        round: its own round when even (the anchor), the round below when
        odd (a vote).  The commit scan runs only when that round is above
        the last ordered anchor and its vote round holds ``f+1`` stake;
        a pending rescan runs whatever the round.  Returns the sub-DAGs
        committed as a consequence of this insertion (possibly empty).
        """
        if self._rescan_pending:
            return self.try_commit()
        round_number = vertex.round - vertex.round % 2
        if (
            round_number <= self.last_ordered_anchor_round
            or self.dag.round_stake.get(round_number + 1, 0) < self._validity
        ):
            return []
        return self._commit_scan((round_number,))

    def try_commit(self) -> List[CommittedSubDag]:
        """Commit what the current DAG allows: a rescan of every anchor
        round above the last ordered one (also what callers that add
        vertices to the DAG without :meth:`process_vertex` call)."""
        return self._commit_scan(self._rescan_rounds())

    def _rescan_rounds(self) -> range:
        """Every anchor round above the last ordered one up to the DAG's
        frontier, highest first; the pending rescan is then done."""
        self._rescan_pending = False
        top = self.dag.highest_round()
        return range(top - top % 2, self.last_ordered_anchor_round, -2)

    def _commit_scan(self, rounds: Iterable[Round]) -> List[CommittedSubDag]:
        """Order the anchor :meth:`_committable_anchor` finds in ``rounds``,
        and rescan for as long as ordering changes the schedule (see the
        module docstring)."""
        committed: List[CommittedSubDag] = []
        anchor = self._committable_anchor(rounds)
        while anchor is not None:
            committed.extend(self._order_anchor_chain(anchor))
            anchor = self._committable_anchor(self._rescan_rounds()) if self._rescan_pending else None
        return committed

    # -- commit rule -------------------------------------------------------------------

    def _get_anchor(self, round_number: Round) -> Optional[Vertex]:
        """``getAnchor(r)`` from Algorithm 1."""
        if not is_anchor_round(round_number):
            return None
        leader = self.schedule_manager.leader_for_round(round_number)
        return self.dag.vertex_of(round_number, leader)

    def _direct_vote_stake(self, anchor: Vertex) -> int:
        """Stake of voting-round vertices that link directly to ``anchor``.

        Scans the store's round slab testing each vote's parent bitmask
        against the anchor's bit (all edges of a voting-round vertex point
        to the anchor's round, so source identity is the whole test).  The
        voter set accumulates as a bitmask; uniform committees reduce the
        stake sum to a single popcount-multiply, heterogeneous ones
        iterate the set bits of the mask.
        """
        anchor_bit = 1 << anchor.source
        voters = 0
        for vertex in self.dag.round_map(anchor.round + 1):
            if vertex is not None and vertex.edge_mask & anchor_bit:
                voters |= 1 << vertex.source
        uniform = self._uniform_stake
        if uniform:
            return voters.bit_count() * uniform
        stakes = self._stakes
        total = 0
        while voters:
            low_bit = voters & -voters
            total += stakes[low_bit.bit_length() - 1]
            voters ^= low_bit
        return total

    def _committable_anchor(self, rounds: Iterable[Round]) -> Optional[Vertex]:
        """The first anchor of ``rounds`` (uncommitted anchor rounds,
        highest first) with an ``f+1`` stake of direct votes.

        A round whose vote round holds less than ``f+1`` stake is passed
        over without a leader lookup or an edge scan: no anchor of it can
        have ``f+1`` direct votes.
        """
        threshold = self._validity
        stake_at = self.dag.stake_at
        for round_number in rounds:
            if stake_at(round_number + 1) < threshold:
                continue
            anchor = self._get_anchor(round_number)
            if anchor is not None and self._direct_vote_stake(anchor) >= threshold:
                return anchor
        return None

    def reset_candidates(self) -> None:
        """Re-evaluate every anchor round above the last ordered one at the
        next commit scan.

        Needed after state sync (``adopt_state`` replaces the schedule
        history wholesale, so any round's leader may have changed) and
        after recovery rebuilds the DAG.
        """
        self._rescan_pending = True

    # -- ordering (``orderAnchors`` / ``orderHistory``) -----------------------------------

    def _order_anchor_chain(self, anchor: Vertex) -> List[CommittedSubDag]:
        """Order ``anchor`` and every earlier anchor it reaches (Algorithm 2)."""
        stack: List[Vertex] = [anchor]
        current = anchor
        round_number = anchor.round - 2
        while round_number > self.last_ordered_anchor_round and round_number >= 2:
            previous_anchor = self._get_anchor(round_number)
            if previous_anchor is not None and self.dag.path(current.id, previous_anchor.id):
                stack.append(previous_anchor)
                current = previous_anchor
            round_number -= 2
        return self._order_history(stack, directly_committed=anchor)

    def _order_history(
        self, stack: List[Vertex], directly_committed: Vertex
    ) -> List[CommittedSubDag]:
        committed: List[CommittedSubDag] = []
        while stack:
            next_anchor = stack.pop()
            if next_anchor.round <= self.last_ordered_anchor_round:
                raise ConsensusError(
                    f"validator {self.owner} attempted to re-order anchor round "
                    f"{next_anchor.round} (already ordered up to "
                    f"{self.last_ordered_anchor_round})"
                )
            subdag = self._commit_anchor(
                next_anchor, direct=next_anchor.id == directly_committed.id
            )
            committed.append(subdag)
            new_schedule = self.schedule_manager.on_anchor_committed(next_anchor)
            if new_schedule is not None:
                # Leaders of rounds covered by the new schedule may differ,
                # so the commit scan re-evaluates every round above this one.
                self._rescan_pending = True
                if stack:
                    # The schedule now active starts after
                    # ``next_anchor.round``; the anchors still on the stack
                    # belong to later rounds and were chosen under the
                    # superseded schedule, so they must be re-derived.
                    # ``_commit_scan`` restarts the scan.
                    break
        return committed

    def _commit_anchor(self, anchor: Vertex, direct: bool) -> CommittedSubDag:
        """Order ``anchor``'s causal history not yet ordered, in one pass.

        One loop folds the whole sub-DAG into ``ordered_sources``, the
        rolling digest and its checkpoints (and the ``vertex_ordered``
        trace events); the schedule manager then gets the sub-DAG in one
        call, and the ``on_ordered`` subscribers one record per vertex, in
        the same order.
        """
        now = self.clock()
        ordered_sources = self.ordered_sources
        ordered = self.dag.causal_history(anchor.id, exclude=ordered_sources)
        first = self.ordered_count
        position = first
        digest = self._ordering_digest
        checkpoints = self.ordering_checkpoints
        for vertex in ordered:
            round_number = vertex.round
            ordered_sources[round_number] = ordered_sources.get(round_number, 0) | 1 << vertex.source
            digest.update(b"%d:%d;" % (round_number, vertex.source))
            position += 1
            if not position & (ORDERING_CHECKPOINT_INTERVAL - 1):
                checkpoints.append((position, digest.hexdigest()))
            if self._tracing:
                # Commit latency per vertex: creation (sim time) to ordering.
                self._tracer.emit(
                    "vertex_ordered",
                    node=self.owner,
                    round=round_number,
                    source=vertex.source,
                    anchor_round=anchor.round,
                    position=position - 1,
                    latency=now - vertex.created_at,
                )
        self.ordered_count = position
        self.schedule_manager.on_subdag_ordered(ordered)
        callbacks = self._ordered_callbacks
        if callbacks:
            # Records are built only for a listener: n-1 of n validators
            # in a benchmark run have none.
            for offset, vertex in enumerate(ordered, first):
                record = OrderedVertex(
                    vertex=vertex,
                    ordered_at=now,
                    anchor_round=anchor.round,
                    position=offset,
                )
                for callback in callbacks:
                    callback(record)
        # Skipped anchors between the previously ordered anchor round and
        # this one are reported to the schedule manager (used by the
        # Shoal-style scoring ablation).
        skipped_round = self.last_ordered_anchor_round + 2
        if skipped_round < 2:
            skipped_round = 2
        while skipped_round < anchor.round:
            self.schedule_manager.on_anchor_skipped(skipped_round)
            if self._tracing:
                self._trace_skip(skipped_round, now)
            skipped_round += 2
        self.last_ordered_anchor_round = anchor.round
        self.commit_count += 1
        if self._tracing:
            self._tracer.emit(
                "anchor_committed",
                node=self.owner,
                round=anchor.round,
                leader=anchor.source,
                direct=direct,
                vertices=len(ordered),
            )
        subdag = CommittedSubDag(
            anchor=anchor,
            vertices=tuple(ordered),
            committed_at=now,
            direct=direct,
        )
        for callback in self._commit_callbacks:
            callback(subdag)
        return subdag

    def _trace_skip(self, skipped_round: Round, now: SimTime) -> None:
        """Emit the ``anchor_skipped`` event (tracing-only slow path).

        The leader/anchor lookups here are pure reads; they warm the
        schedule manager's leader cache but touch no ordering state.
        """
        leader = self.schedule_manager.leader_for_round(skipped_round)
        anchor_vertex = self.dag.vertex_of(skipped_round, leader)
        self._tracer.emit(
            "anchor_skipped",
            node=self.owner,
            round=skipped_round,
            leader=leader,
            anchor_present=anchor_vertex is not None,
            direct_stake=(
                self._direct_vote_stake(anchor_vertex) if anchor_vertex is not None else 0
            ),
            threshold=self.committee.validity_threshold,
        )

    # -- state sync -------------------------------------------------------------------------

    def fast_forward(self, horizon_round: Round) -> Optional[Round]:
        """Skip ordering of history below ``horizon_round`` (state sync).

        A validator that falls behind its peers' garbage-collection horizon
        can no longer retrieve the full DAG for the rounds it missed; the
        production system resolves this with checkpoint-based state sync.
        The simulation models it by advancing ``lastOrderedRound`` to the
        horizon: ordering resumes from the first anchor round at or after
        it, and the skipped interval is recorded in ``state_sync_gaps``.

        Anchor rounds strictly inside the jumped interval are reported
        through ``schedule_manager.on_anchor_skipped``, mirroring what
        ``_commit_anchor`` does for gaps below a committed anchor: from
        this validator's commit rule's perspective those anchors were
        passed without a local commit.  The target round itself is *not*
        reported — it is the serving peer's last committed anchor round,
        so its leader performed.  In the full state-sync path the node
        adopts the serving peer's authoritative scores right after this
        call (``adopt_state``), which overwrites the local estimate;
        reporting here keeps Shoal-style scoring consistent for callers
        that fast-forward *without* adopting remote scores, instead of
        silently leaving the gap unscored.

        Returns the new last-ordered round, or ``None`` when no jump was
        needed.
        """
        target = horizon_round if horizon_round % 2 == 0 else horizon_round + 1
        if target <= self.last_ordered_anchor_round:
            return None
        skipped_round = self.last_ordered_anchor_round + 2
        if skipped_round < 2:
            skipped_round = 2
        while skipped_round < target:
            self.schedule_manager.on_anchor_skipped(skipped_round)
            skipped_round += 2
        if self._tracing:
            self._tracer.emit(
                "state_sync",
                node=self.owner,
                from_round=self.last_ordered_anchor_round,
                to_round=target,
            )
        self.state_sync_gaps.append((self.last_ordered_anchor_round, target))
        self.last_ordered_anchor_round = target
        return target

    # -- introspection ---------------------------------------------------------------------

    @property
    def ordering_digest(self) -> str:
        """Hex digest summarizing the ordered prefix (for safety checks)."""
        return self._ordering_digest.hexdigest()

    def ordered_from(self, horizon: Round) -> FrozenSet[VertexId]:
        """The ordered vertices at or above ``horizon`` as ids: a state-sync snapshot's form."""
        sources_of = self.committee.stake_vector.validators_of_mask
        return frozenset(
            VertexId(round_number, source)
            for round_number, mask in self.ordered_sources.items()
            if round_number >= horizon
            for source in sources_of(mask)
        )

    def adopt_ordered(self, vertex_ids: Iterable[VertexId]) -> None:
        """Mark a peer's ordered vertices as ordered here (state sync); the
        ids are its claim, so each is bounded before it becomes a shift."""
        ordered_sources = self.ordered_sources
        for round_number, source in vertex_ids:
            if 0 <= source < self.committee.size:
                ordered_sources[round_number] = ordered_sources.get(round_number, 0) | 1 << source

    def garbage_collect(self, keep_rounds: int = 20) -> int:
        """Prune DAG rounds far below the last ordered anchor round."""
        horizon = self.last_ordered_anchor_round - keep_rounds
        if horizon <= 0:
            return 0
        return self.dag.garbage_collect(horizon)
