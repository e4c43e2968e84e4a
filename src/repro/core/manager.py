"""Schedule managers: the per-validator side of HammerHead.

A schedule manager answers ``getLeader(round)`` queries for the consensus
engine and the round-advancement logic, accumulates reputation scores from
the committed prefix, and switches to the next schedule when the
schedule-change policy fires on a committed anchor.  Because both the
scores and the trigger depend only on the totally ordered committed
prefix, every honest validator walks through exactly the same sequence of
schedules (Proposition 1), possibly at different wall-clock times — a
lagging validator applies them retroactively by looking up older schedules
in its history.

The consensus engine hands over each committed sub-DAG in one call
(:meth:`ScheduleManager.on_subdag_ordered`), in linearization order; the
HammerHead manager scores it vertex by vertex, with each vote round's
leader looked up once and a rule's per-vertex hooks called only where the
rule defines them.  ``tests/reference_scoring.py`` keeps the per-vertex
form as the oracle.

Two managers implement the same interface:

* :class:`StaticScheduleManager` — baseline Bullshark: the initial
  schedule is used forever.
* :class:`HammerHeadScheduleManager` — the paper's mechanism.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.committee import Committee
from repro.core.schedule_change import (
    CommitCountPolicy,
    compute_next_schedule,
    swap_details,
    swap_summary,
)
from repro.core.scores import ReputationScores
from repro.core.scoring import HammerHeadScoring, ScoringRule, ScoringView
from repro.dag.vertex import Vertex
from repro.errors import ScheduleError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.schedule.base import LeaderSchedule
from repro.types import Round, ValidatorId, VertexId, is_anchor_round


# How many rounds of leader-presence markers the scoring view keeps below
# the commit frontier.  Must stay comfortably above the node's GC depth
# (50 rounds): a straggler vote can only name a leader that is still
# above the GC horizon.
_LEADER_MEMORY_ROUNDS = 64


@dataclasses.dataclass(frozen=True)
class ScheduleChangeRecord:
    """Bookkeeping about one schedule switch (exposed for tests/metrics)."""

    epoch: int
    triggered_by_round: Round
    new_initial_round: Round
    scores: Dict[ValidatorId, float]
    demoted_slots: int
    # Name of the scoring rule that produced ``scores`` (the attack x rule
    # matrix labels trajectories with it).
    scoring: str = ""


class ScheduleManager:
    """Common interface of the static and HammerHead schedule managers."""

    # Observability (repro.obs): only the rare schedule-change site
    # consults these; leader lookups and scoring hooks never do.
    _tracer: Tracer = NULL_TRACER
    _tracing = False
    trace_owner: ValidatorId = -1

    def install_tracer(self, tracer: Tracer, owner: ValidatorId) -> None:
        """Attach a tracer; events carry ``owner`` as their node id."""
        self._tracer = tracer
        self._tracing = tracer.enabled
        self.trace_owner = owner

    def __init__(self, committee: Committee, initial: LeaderSchedule) -> None:
        self.committee = committee
        self.history: List[LeaderSchedule] = [initial]
        # ``initial_round`` of every schedule in ``history``, kept sorted so
        # that ``schedule_for_round`` can binary-search instead of scanning
        # the whole history (it is called for every ordered vertex).  The
        # cache is rebuilt lazily whenever it falls out of sync with
        # ``history`` (append on schedule change, wholesale replacement on
        # state sync).
        self._history_keys: List[Round] = [initial.initial_round]
        # Per-round leader memo.  Leaders are pure functions of the
        # schedule history; the tag/length pair detects appends (schedule
        # changes) and wholesale replacement (state sync), matching the
        # staleness checks of ``_history_keys``.  ``leader_for_round`` is
        # called on every commit probe and anchor-timer decision, which
        # made the bisect + modular lookup measurable at committee 25+.
        self._leader_cache: Dict[Round, ValidatorId] = {}
        self._leader_cache_tag: LeaderSchedule = initial
        self._leader_cache_len: int = 1

    # -- leader lookup ---------------------------------------------------------

    @property
    def active_schedule(self) -> LeaderSchedule:
        return self.history[-1]

    def schedule_for_round(self, round_number: Round) -> LeaderSchedule:
        """The schedule covering ``round_number``.

        Rounds older than the active schedule are resolved against the
        schedule history, which is what lets a validator that commits an
        old anchor late interpret it under the schedule that was active
        for that round (retroactive application, Section 3.1).
        """
        if not is_anchor_round(round_number):
            raise ScheduleError(f"round {round_number} is not an anchor round")
        history = self.history
        keys = self._history_keys
        if len(keys) != len(history) or (keys and keys[-1] != history[-1].initial_round):
            keys = self._history_keys = [schedule.initial_round for schedule in history]
        index = bisect.bisect_right(keys, round_number) - 1
        if index < 0:
            # Rounds before the very first schedule fall back to it; this
            # only happens for the first anchor round of the DAG.
            index = 0
        return history[index]

    def leader_for_round(self, round_number: Round) -> ValidatorId:
        """``getLeader(round, activeSchedule)`` from Algorithm 1."""
        history = self.history
        if self._leader_cache_tag is not history[-1] or self._leader_cache_len != len(history):
            self._leader_cache.clear()
            self._leader_cache_tag = history[-1]
            self._leader_cache_len = len(history)
        leader = self._leader_cache.get(round_number)
        if leader is None:
            schedule = self.schedule_for_round(round_number)
            leader = schedule.leader_for_round(max(round_number, schedule.initial_round))
            self._leader_cache[round_number] = leader
        return leader

    # -- consensus feedback -------------------------------------------------------

    def on_subdag_ordered(self, vertices: Sequence[Vertex]) -> None:
        """``vertices`` were linearized, in this order, as one committed sub-DAG."""

    def on_vertex_ordered(self, vertex: Vertex) -> None:
        """One vertex linearized: a sub-DAG of one.  The consensus engine
        hands over whole sub-DAGs; the benchmark suite's scoring unit cost
        feeds vertices one at a time through this."""
        self.on_subdag_ordered((vertex,))

    def on_anchor_committed(self, anchor: Vertex) -> Optional[LeaderSchedule]:
        """An anchor was committed; returns the new schedule if one started."""
        return None

    def on_anchor_skipped(self, round_number: Round) -> None:
        """The anchor of ``round_number`` was skipped by the commit rule."""

    # -- state sync -----------------------------------------------------------------

    def adopt_state(
        self,
        schedules: List[LeaderSchedule],
        scores: Dict[ValidatorId, float],
        commits_in_epoch: int,
        vote_accounting=None,
    ) -> None:
        """Adopt schedule state received through state sync (checkpoints).

        The static manager has no dynamic state beyond its single schedule,
        so the default implementation is a no-op.
        """

    def vote_accounting_snapshot(self):
        """Vote accounting carried by state-sync snapshots (``None`` unless
        the manager runs a rule that tracks votes)."""
        return None

    # -- introspection ---------------------------------------------------------------

    @property
    def epochs(self) -> int:
        return len(self.history)


class StaticScheduleManager(ScheduleManager):
    """Baseline Bullshark: the initial (round-robin) schedule never changes."""


class HammerHeadScheduleManager(ScheduleManager):
    """The HammerHead dynamic schedule manager."""

    def __init__(
        self,
        committee: Committee,
        initial: LeaderSchedule,
        policy: Optional[CommitCountPolicy] = None,
        scoring: Optional[ScoringRule] = None,
        exclude_fraction: float = 1.0 / 3.0,
    ) -> None:
        super().__init__(committee, initial)
        self.policy = policy if policy is not None else CommitCountPolicy(10)
        self.scoring = scoring if scoring is not None else HammerHeadScoring()
        self.exclude_fraction = exclude_fraction
        # The swap that produces each new schedule is always applied to the
        # unbiased initial slot assignment (see compute_next_schedule): a
        # validator that stops under-performing automatically regains its
        # original representation at the next schedule change.
        self._base_slots = initial.slots
        self.scores = ReputationScores(committee)
        # The scoring view: committee + scores, plus vote accounting.
        self._view = ScoringView(committee, self.scores)
        self._track_votes = bool(getattr(self.scoring, "needs_vote_accounting", False))
        self.commits_in_epoch = 0
        self.change_records: List[ScheduleChangeRecord] = []

    # -- consensus feedback ---------------------------------------------------------

    def on_subdag_ordered(self, vertices: Sequence[Vertex]) -> None:
        """Update reputation from a newly linearized sub-DAG, vertex by vertex.

        The vertices are part of a committed sub-DAG, so every honest
        validator processes them (in the same order), which keeps the
        scores identical everywhere.  Scoring looks one round back: if a
        round-``r+1`` vertex links to the leader vertex of anchor round
        ``r``, its source voted for that leader.  Each vote round's leader
        is looked up once per sub-DAG (no schedule changes inside one),
        and a rule's optional per-vertex hooks (see
        :class:`~repro.core.scoring.ScoringRule`) are called only where the
        rule defines them.
        """
        scoring = self.scoring
        view = self._view
        in_subdag = getattr(scoring, "on_vertex_in_committed_subdag", None)
        on_vote = getattr(scoring, "on_vote", None)
        on_expected_vote = getattr(scoring, "on_expected_vote", None)
        track_votes = self._track_votes
        leaders: Dict[Round, ValidatorId] = {}
        for vertex in vertices:
            round_number = vertex.round
            source = vertex.source
            if in_subdag is not None:
                in_subdag(source, round_number, view)
            if not round_number % 2:
                if track_votes and round_number:
                    # An anchor-round vertex: record the leader vertex
                    # entering the committed prefix, which is what later
                    # marks its round-``r+1`` voters as *expected*.
                    leader = leaders.get(round_number)
                    if leader is None:
                        leader = leaders[round_number] = self.leader_for_round(round_number)
                    if source == leader:
                        # Voters whose non-voting vertex preceded this
                        # leader in the linearization missed a vote that
                        # only now became countable; record the
                        # opportunities retroactively.
                        for voter in view.note_leader_ordered(round_number):
                            view.note_expected_vote(voter, False)
                            if on_expected_vote is not None:
                                on_expected_vote(voter, round_number, False, view)
                continue
            anchor_round = round_number - 1
            if not anchor_round:
                continue
            leader = leaders.get(anchor_round)
            if leader is None:
                leader = leaders[anchor_round] = self.leader_for_round(anchor_round)
            # Where every edge names the anchor round, the edge mask
            # answers without a scan of the edges.
            if vertex.edges_adjacent:
                voted = bool(vertex.edge_mask >> leader & 1)
            else:
                voted = VertexId(round=anchor_round, source=leader) in vertex.edges
            if track_votes:
                if view.leader_was_ordered(anchor_round):
                    # The leader vertex precedes this vertex in the
                    # linearization (it is a causal ancestor whenever the
                    # vote exists), so the vote was *possible*: count the
                    # opportunity either way.
                    view.note_expected_vote(source, voted)
                    if on_expected_vote is not None:
                        on_expected_vote(source, anchor_round, voted, view)
                elif not voted:
                    # The leader vertex may still enter the prefix later;
                    # park the missed vote until it does (or is pruned).
                    view.note_vote_before_leader(source, anchor_round)
            if voted and on_vote is not None:
                on_vote(source, anchor_round, view)

    def on_anchor_skipped(self, round_number: Round) -> None:
        if not is_anchor_round(round_number):
            return
        leader = self.leader_for_round(round_number)
        self.scoring.on_anchor_skipped(leader, round_number, self._view)

    def on_anchor_committed(self, anchor: Vertex) -> Optional[LeaderSchedule]:
        """Count the commit and switch schedules when the policy fires."""
        view = self._view
        self.scoring.on_anchor_committed(anchor.source, anchor.round, view)
        self.commits_in_epoch += 1
        if self._track_votes:
            # Leader-presence markers span epochs (a straggler vote may
            # name a long-ordered leader) but never need to outlive the
            # GC horizon; pruning at the commit frontier bounds them.
            view.prune_below(anchor.round - _LEADER_MEMORY_ROUNDS)
        active = self.active_schedule
        if anchor.round < active.initial_round:
            # An anchor committed retroactively under an older schedule
            # never triggers a new change: the change it could have
            # triggered has already happened (it is what created the
            # current active schedule).
            return None
        if not self.policy.should_change(self.commits_in_epoch, anchor.round, active):
            return None
        # Ratio-style rules materialize their epoch scores only now, just
        # before the swap sets read them.
        self.scoring.prepare_epoch_scores(view)
        new_initial_round = anchor.round + 2
        new_schedule = compute_next_schedule(
            previous=active,
            scores=self.scores,
            committee=self.committee,
            new_initial_round=new_initial_round,
            exclude_fraction=self.exclude_fraction,
            base_slots=self._base_slots,
        )
        self.change_records.append(
            ScheduleChangeRecord(
                epoch=new_schedule.epoch,
                triggered_by_round=anchor.round,
                new_initial_round=new_initial_round,
                scores=self.scores.as_dict(),
                demoted_slots=swap_summary(active, new_schedule),
                scoring=self.scoring.name,
            )
        )
        if self._tracing:
            demoted, promoted = swap_details(active, new_schedule)
            self._tracer.emit(
                "schedule_change",
                node=self.trace_owner,
                epoch=new_schedule.epoch,
                triggered_by_round=anchor.round,
                new_initial_round=new_initial_round,
                scoring=self.scoring.name,
                scores=self.scores.as_dict(),
                demoted=list(demoted),
                promoted=list(promoted),
            )
        self.history.append(new_schedule)
        self.scores.reset()
        self.commits_in_epoch = 0
        view.reset_epoch()
        return new_schedule

    # -- state sync -----------------------------------------------------------------------

    def adopt_state(
        self,
        schedules: List[LeaderSchedule],
        scores: Dict[ValidatorId, float],
        commits_in_epoch: int,
        vote_accounting=None,
    ) -> None:
        """Adopt the schedule state carried by a state-sync snapshot.

        A validator that resumes from a checkpoint cannot re-derive the
        schedule history from the (pruned) DAG, so it takes over the serving
        peer's history, current-epoch scores, commit counter, and — when the
        active rule tracks votes — the peer's cast/expected counters and
        leader-presence markers (``vote_accounting``, the triple produced by
        :meth:`vote_accounting_snapshot`); from that point on its own
        deterministic updates keep it in agreement with the rest of the
        committee.
        """
        if schedules:
            self.history = list(schedules)
            self._history_keys = [schedule.initial_round for schedule in self.history]
        self.scores.reset()
        for validator, value in scores.items():
            if value:
                self.scores.add(validator, value)
        self.commits_in_epoch = commits_in_epoch
        view = self._view
        view.reset_epoch()
        if self._track_votes and vote_accounting is not None:
            cast, expected, leader_rounds, pending = vote_accounting
            view.votes_cast = dict(cast)
            view.votes_expected = dict(expected)
            view.ordered_leaders = set(leader_rounds)
            view.pending_votes = {anchor_round: set(voters) for anchor_round, voters in pending}

    def vote_accounting_snapshot(self):
        """The view's vote accounting as a picklable triple (state sync).

        ``None`` when the active rule does not track votes, so snapshots
        under the count-based rules stay byte-for-byte what they were.
        """
        if not self._track_votes:
            return None
        view = self._view
        return (
            tuple(sorted(view.votes_cast.items())),
            tuple(sorted(view.votes_expected.items())),
            tuple(sorted(view.ordered_leaders)),
            tuple(
                (anchor_round, tuple(sorted(voters)))
                for anchor_round, voters in sorted(view.pending_votes.items())
            ),
        )

    # -- introspection -------------------------------------------------------------------
