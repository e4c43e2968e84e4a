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
* A commit attempt re-evaluates only the anchor rounds dirtied since
  the previous one: the DAG store records the anchor round of every
  insertion, and schedule changes and state sync dirty the rounds whose
  leader may have changed (``_invalidate_candidates_from`` /
  ``reset_candidates``).  Rescanning every round between
  ``lastOrderedRound`` and the frontier on every insertion is quadratic
  over a run.  The independent check of this engine is the executable
  reference model in ``tests/reference_model.py``, which recomputes
  ordering and schedule changes from a recorded insert log.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.committee import Committee
from repro.consensus.committed import CommittedSubDag, OrderedVertex
from repro.core.manager import ScheduleManager
from repro.crypto.hashing import evict_oldest_half
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.errors import ConsensusError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.types import Round, SimTime, ValidatorId, VertexId, is_anchor_round

# Callbacks the embedding node can register.
OrderedCallback = Callable[[OrderedVertex], None]
CommitCallback = Callable[[CommittedSubDag], None]

# Process-wide memo of the ordering-digest token per (round, source):
# every one of the n validators folds the same token into its rolling
# digest when it orders the same vertex, so the f-string formatting is
# shared.  Bounded and flushed wholesale; entries are pure functions of
# the key.
_ORDERING_TOKENS: dict = {}

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
        self.dag = dag
        self.schedule_manager = schedule_manager
        # Candidate tracking for the commit scan: anchor rounds that
        # currently satisfy the f+1 direct-vote rule, and anchor rounds
        # that need (re-)evaluation.  Entries at or below the last ordered
        # anchor round are purged lazily.
        self._committable_rounds: Set[Round] = set()
        self._dirty_anchor_rounds: Set[Round] = set()

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

        Vote-round vertices may complete the ``f+1`` quorum of an anchor,
        and anchor-round vertices may be anchors themselves, so any
        insertion can unlock commits.  Returns the sub-DAGs committed as a
        consequence of this insertion (possibly empty).
        """
        if vertex.round < 1:
            return []
        return self.try_commit()

    def try_commit(self) -> List[CommittedSubDag]:
        """Attempt to commit anchors given the current DAG contents."""
        committed: List[CommittedSubDag] = []
        # A schedule change mid-ordering restarts the scan (see module
        # docstring); the loop runs until no further anchor can be
        # committed under the then-active schedule.
        while True:
            anchor = self._find_directly_committable_anchor()
            if anchor is None:
                break
            newly = self._order_anchor_chain(anchor)
            committed.extend(newly)
            if not newly:
                break
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

    def _find_directly_committable_anchor(self) -> Optional[Vertex]:
        """The highest uncommitted anchor with an ``f+1`` stake of votes.

        An anchor round's direct-vote stake only changes when a vertex is
        inserted at that round (the anchor itself) or the round above (a
        vote), and its leader only changes on a schedule switch or state
        sync; those events dirty the round (see
        :meth:`DagStore.drain_dirty_anchor_rounds`,
        :meth:`_invalidate_candidates_from` and :meth:`reset_candidates`).
        Once a round satisfies the f+1 rule it stays satisfied — votes are
        never removed above the GC horizon — so it parks in
        ``_committable_rounds`` until ordered or invalidated.  Amortized
        O(1) per insertion.
        """
        last_ordered = self.last_ordered_anchor_round
        drained = self.dag.drain_dirty_anchor_rounds()
        if drained:
            self._dirty_anchor_rounds |= drained
        if self._dirty_anchor_rounds:
            threshold = self.committee.validity_threshold
            dag = self.dag
            for round_number in self._dirty_anchor_rounds:
                if round_number <= last_ordered:
                    continue
                if dag.stake_at(round_number + 1) < threshold:
                    # Not enough voting-round stake present yet for any
                    # anchor of this round to reach f+1 direct votes: skip
                    # the leader lookup and edge scan.  The next insertion
                    # at the round (or its voting round) re-dirties it.
                    continue
                anchor = self._get_anchor(round_number)
                if anchor is not None and self._direct_vote_stake(anchor) >= threshold:
                    self._committable_rounds.add(round_number)
            self._dirty_anchor_rounds.clear()
        while self._committable_rounds:
            best_round = max(self._committable_rounds)
            if best_round <= last_ordered:
                self._committable_rounds = {
                    r for r in self._committable_rounds if r > last_ordered
                }
                continue
            anchor = self._get_anchor(best_round)
            if anchor is None:
                # Only possible after an external schedule mutation that
                # bypassed the invalidation hooks; drop and re-derive.
                self._committable_rounds.discard(best_round)
                continue
            return anchor
        return None

    def _invalidate_candidates_from(self, from_round: Round) -> None:
        """Re-evaluate candidates at or after ``from_round``.

        Called when a schedule change takes effect: rounds covered by the
        new schedule may have a different leader, so both their committable
        status and their prior negative evaluations are void.
        """
        self._committable_rounds = {
            r for r in self._committable_rounds if r < from_round
        }
        start = max(from_round, self.last_ordered_anchor_round + 2)
        if start % 2 != 0:
            start += 1
        for round_number in range(max(start, 2), self.dag.highest_round() + 1, 2):
            self._dirty_anchor_rounds.add(round_number)

    def reset_candidates(self) -> None:
        """Drop all candidate state and re-derive it from the DAG.

        Needed after state sync (``adopt_state`` replaces the schedule
        history wholesale, so any round's leader may have changed).
        """
        self._committable_rounds.clear()
        self._dirty_anchor_rounds.clear()
        self.dag.drain_dirty_anchor_rounds()
        self._invalidate_candidates_from(self.last_ordered_anchor_round + 2)

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
                # so candidate evaluations for those rounds are void.
                self._invalidate_candidates_from(new_schedule.initial_round)
                if stack:
                    # The schedule now active starts after
                    # ``next_anchor.round``; the anchors still on the stack
                    # belong to later rounds and were chosen under the
                    # superseded schedule, so they must be re-derived.
                    # ``try_commit`` restarts the scan.
                    break
        return committed

    def _commit_anchor(self, anchor: Vertex, direct: bool) -> CommittedSubDag:
        now = self.clock()
        ordered_sources = self.ordered_sources
        ordered = self.dag.causal_history(anchor.id, exclude=ordered_sources)
        for vertex in ordered:
            round_number = vertex.round
            ordered_sources[round_number] = ordered_sources.get(round_number, 0) | 1 << vertex.source
            self._emit_ordered(vertex, anchor.round, now)
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

    def _emit_ordered(self, vertex: Vertex, anchor_round: Round, now: SimTime) -> None:
        position = self.ordered_count
        self.ordered_count = position + 1
        key = vertex.id
        token = _ORDERING_TOKENS.get(key)
        if token is None:
            evict_oldest_half(_ORDERING_TOKENS, 1 << 16)
            token = _ORDERING_TOKENS[key] = f"{vertex.round}:{vertex.source};".encode("ascii")
        self._ordering_digest.update(token)
        count = position + 1
        if not count & (ORDERING_CHECKPOINT_INTERVAL - 1):
            self.ordering_checkpoints.append((count, self._ordering_digest.hexdigest()))
        if self._tracing:
            # Commit latency per vertex: creation (sim time) to ordering.
            self._tracer.emit(
                "vertex_ordered",
                node=self.owner,
                round=vertex.round,
                source=vertex.source,
                anchor_round=anchor_round,
                position=position,
                latency=now - vertex.created_at,
            )
        self.schedule_manager.on_vertex_ordered(vertex)
        callbacks = self._ordered_callbacks
        if callbacks:
            # Built only for a listener: n-1 of n validators in a benchmark
            # run have none.
            record = OrderedVertex(
                vertex=vertex,
                ordered_at=now,
                anchor_round=anchor_round,
                position=position,
            )
            for callback in callbacks:
                callback(record)

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
