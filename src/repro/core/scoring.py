"""Scoring rules: how committed information turns into reputation.

The paper proposes one deterministic rule (each validator earns a point
whenever its vertex votes for the leader of the previous round) but notes
the mechanism works "with any deterministic schedule-change rule".  The
ablation benchmarks compare four rules:

* :class:`HammerHeadScoring` — the paper's rule: +1 per vote for a leader.
* :class:`ShoalScoring` — the rule used by the concurrent Shoal framework:
  committed leaders gain points, skipped leaders lose points.
* :class:`CarouselScoring` — an activity-based rule in the spirit of
  Carousel: validators present in committed sub-DAGs gain points.
* :class:`CompletenessScoring` — the hardening the reputation-gaming
  measurements motivated: votes *cast* divided by votes *expected* per
  epoch, so an adversary that banks raw votes around its own slots still
  reads as incomplete.

All rules receive only information derived from committed sub-DAGs
(through a :class:`ScoringView`), so they keep the determinism Schedule
Agreement requires.  Rules are registered by name in a process-wide
registry (:func:`register_scoring_rule`) and selected by name from
``ExperimentConfig.scoring`` / ``ScenarioSpec.scoring``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.committee import Committee
from repro.core.scores import ReputationScores
from repro.errors import ConfigurationError
from repro.types import Round, ValidatorId


class ScoringView:
    """Everything a scoring rule is allowed to observe.

    On top of the committee and the epoch's mutable scores the view
    exposes the active :class:`~repro.schedule.base.LeaderSchedule`,
    leader lookups against the full schedule history, per-round
    expected-voter sets, and committed-prefix round accounting.  All of
    it derives from the committed prefix, so every honest validator sees
    an identical view at the same prefix position — the property every
    rule's determinism rests on.

    Vote accounting (``votes_cast`` / ``votes_expected`` and the
    per-round expected-voter sets) is maintained by the schedule manager
    only when the active rule sets ``needs_vote_accounting``; the three
    count-based rules leave it off, keeping their hot path identical to
    the pre-view code.
    """

    __slots__ = (
        "committee",
        "scores",
        "manager",
        "track_votes",
        "votes_cast",
        "votes_expected",
        "committed_anchor_rounds",
        "last_committed_anchor_round",
        "_expected_voters",
        "_ordered_leaders",
        "_pending_votes",
    )

    def __init__(
        self,
        committee: Committee,
        scores: ReputationScores,
        manager=None,
    ) -> None:
        self.committee = committee
        self.scores = scores
        self.manager = manager
        self.track_votes = False
        # Current-epoch vote accounting (populated when track_votes).
        self.votes_cast: Dict[ValidatorId, int] = {}
        self.votes_expected: Dict[ValidatorId, int] = {}
        # Committed-prefix round accounting for the current epoch.
        self.committed_anchor_rounds: List[Round] = []
        self.last_committed_anchor_round: Optional[Round] = None
        # Anchor round -> validators whose ordered round+1 vertex could
        # have voted for that round's leader (current epoch only).
        self._expected_voters: Dict[Round, Set[ValidatorId]] = {}
        # Anchor rounds whose leader vertex appeared in the committed
        # prefix (spans epochs; pruned against the GC horizon).
        self._ordered_leaders: Set[Round] = set()
        # Non-voting round r+1 vertices ordered *before* the leader vertex
        # of round r: anchor round -> voters.  If the leader vertex is
        # ordered later, these become retroactive missed opportunities; if
        # it never is, they are pruned uncounted (nobody could vote for a
        # vertex that never entered the prefix).  Spans epochs, like the
        # leader markers.
        self._pending_votes: Dict[Round, Set[ValidatorId]] = {}

    # -- schedule access ------------------------------------------------------

    @property
    def active_schedule(self):
        """The manager's active :class:`LeaderSchedule` (``None`` unbound)."""
        return self.manager.active_schedule if self.manager is not None else None

    def leader_for_round(self, round_number: Round) -> ValidatorId:
        if self.manager is None:
            raise ConfigurationError("this scoring view is not bound to a schedule manager")
        return self.manager.leader_for_round(round_number)

    def schedule_for_round(self, round_number: Round):
        if self.manager is None:
            raise ConfigurationError("this scoring view is not bound to a schedule manager")
        return self.manager.schedule_for_round(round_number)

    # -- committed-prefix accounting -----------------------------------------

    @property
    def commits_in_epoch(self) -> int:
        # The manager's counter is authoritative (it survives state sync,
        # where the per-round list cannot be reconstructed).
        if self.manager is not None and hasattr(self.manager, "commits_in_epoch"):
            return self.manager.commits_in_epoch
        return len(self.committed_anchor_rounds)

    def note_anchor_committed(self, anchor_round: Round) -> None:
        self.committed_anchor_rounds.append(anchor_round)
        self.last_committed_anchor_round = anchor_round

    # -- vote accounting ------------------------------------------------------

    def note_leader_ordered(self, anchor_round: Round) -> Tuple[ValidatorId, ...]:
        """Mark the leader vertex of ``anchor_round`` as part of the prefix.

        Returns the voters whose non-voting round ``anchor_round + 1``
        vertices were ordered *before* the leader vertex: their missed
        votes become countable only now, and the caller (the schedule
        manager) records them retroactively.  The retro pass is a pure
        function of the committed prefix, so every honest validator
        performs it at the same position.
        """
        self._ordered_leaders.add(anchor_round)
        pending = self._pending_votes.pop(anchor_round, None)
        if not pending:
            return ()
        return tuple(sorted(pending))

    def leader_was_ordered(self, anchor_round: Round) -> bool:
        return anchor_round in self._ordered_leaders

    def note_vote_before_leader(self, voter: ValidatorId, anchor_round: Round) -> None:
        """A non-voting round ``anchor_round + 1`` vertex of ``voter`` was
        ordered while the leader vertex of ``anchor_round`` was not (yet)
        part of the prefix."""
        self._pending_votes.setdefault(anchor_round, set()).add(voter)

    def note_expected_vote(
        self, voter: ValidatorId, anchor_round: Round, voted: bool
    ) -> None:
        self.votes_expected[voter] = self.votes_expected.get(voter, 0) + 1
        if voted:
            self.votes_cast[voter] = self.votes_cast.get(voter, 0) + 1
        self._expected_voters.setdefault(anchor_round, set()).add(voter)

    def expected_voters(self, anchor_round: Round) -> frozenset:
        """Validators whose ordered vertex could have voted at ``anchor_round``."""
        return frozenset(self._expected_voters.get(anchor_round, ()))

    def ordered_leader_rounds(self) -> Tuple[Round, ...]:
        """Anchor rounds whose leader vertex entered the committed prefix
        (sorted; the state-sync snapshot carries this set)."""
        return tuple(sorted(self._ordered_leaders))

    def completeness_of(self, validator: ValidatorId) -> float:
        """``votes cast / votes expected`` this epoch (0 when never expected)."""
        expected = self.votes_expected.get(validator, 0)
        if not expected:
            return 0.0
        return self.votes_cast.get(validator, 0) / expected

    # -- lifecycle ------------------------------------------------------------

    def reset_epoch(self) -> None:
        """Drop per-epoch accounting (called after a schedule change)."""
        self.votes_cast.clear()
        self.votes_expected.clear()
        self._expected_voters.clear()
        self.committed_anchor_rounds.clear()

    def prune_below(self, round_number: Round) -> None:
        """Forget prefix bookkeeping for rounds below ``round_number``.

        Leader-presence markers span epochs (a straggler vote may name a
        leader ordered long ago), so they are pruned against the commit
        frontier instead of the epoch boundary — this is what keeps the
        view's memory bounded on production-length runs.
        """
        stale = [r for r in self._ordered_leaders if r < round_number]
        for r in stale:
            self._ordered_leaders.discard(r)
        dropped = [r for r in self._pending_votes if r < round_number]
        for r in dropped:
            del self._pending_votes[r]

    def adopt_accounting(
        self,
        votes_cast: Dict[ValidatorId, int],
        votes_expected: Dict[ValidatorId, int],
        ordered_leader_rounds,
        pending_votes=(),
    ) -> None:
        """Take over a peer's vote accounting (state sync)."""
        self.votes_cast = dict(votes_cast)
        self.votes_expected = dict(votes_expected)
        self._expected_voters.clear()
        self._ordered_leaders = set(ordered_leader_rounds)
        self._pending_votes = {
            anchor_round: set(voters) for anchor_round, voters in pending_votes
        }

    def pending_votes_snapshot(self) -> Tuple[Tuple[Round, Tuple[ValidatorId, ...]], ...]:
        """The not-yet-countable missed votes, picklable (state sync)."""
        return tuple(
            (anchor_round, tuple(sorted(voters)))
            for anchor_round, voters in sorted(self._pending_votes.items())
        )


class ScoringRule:
    """Interface of deterministic scoring rules.

    The schedule manager invokes these callbacks while it processes the
    committed prefix; implementations mutate ``context.scores``.
    """

    name = "abstract"

    #: ``True`` asks the schedule manager to maintain the view's
    #: per-round expected-voter sets and cast/expected counters.  Off by
    #: default so count-based rules pay nothing for the bookkeeping.
    needs_vote_accounting = False

    def on_vote(self, voter: ValidatorId, anchor_round: Round, context: ScoringView) -> None:
        """An ordered vertex of ``voter`` at round ``anchor_round + 1`` linked
        to the leader vertex of ``anchor_round``."""

    def on_expected_vote(
        self, voter: ValidatorId, anchor_round: Round, voted: bool, context: ScoringView
    ) -> None:
        """``voter``'s ordered vertex at ``anchor_round + 1`` could have voted
        (the leader vertex of ``anchor_round`` was part of the committed
        prefix); ``voted`` says whether it did.  Only invoked when the rule
        sets :attr:`needs_vote_accounting`."""

    def on_anchor_committed(
        self, leader: ValidatorId, anchor_round: Round, context: ScoringView
    ) -> None:
        """The anchor of ``anchor_round`` (led by ``leader``) was committed."""

    def on_anchor_skipped(
        self, leader: ValidatorId, anchor_round: Round, context: ScoringView
    ) -> None:
        """The anchor of ``anchor_round`` was skipped (no commit for it)."""

    def on_vertex_in_committed_subdag(
        self, source: ValidatorId, round_number: Round, context: ScoringView
    ) -> None:
        """A vertex of ``source`` was linearized as part of a committed sub-DAG."""

    def prepare_epoch_scores(self, context: ScoringView) -> None:
        """Last write to ``context.scores`` before the swap sets are selected.

        Invoked exactly once per schedule change, after the change policy
        fired and before :func:`~repro.core.schedule_change.select_swap_sets`
        reads the scores.  Ratio-style rules (completeness) materialize
        their scores here; count-based rules score incrementally and leave
        this a no-op.
        """


class HammerHeadScoring(ScoringRule):
    """The paper's rule: one point per vote for a leader's proposal.

    "Each validator receives 1 point each time they vote for a leader's
    proposal (i.e., there is a parent link from the block of the validator
    at round r to the leader of round r-1)."  Crashed validators stop
    voting and therefore stop scoring; Byzantine validators are discouraged
    from withholding votes for honest leaders because withholding costs
    them reputation.
    """

    name = "hammerhead"

    def __init__(self, points_per_vote: float = 1.0) -> None:
        self.points_per_vote = points_per_vote

    def on_vote(self, voter: ValidatorId, anchor_round: Round, context: ScoringView) -> None:
        context.scores.add(voter, self.points_per_vote)


class ShoalScoring(ScoringRule):
    """Shoal-style rule: reward committed leaders, punish skipped leaders."""

    name = "shoal"

    def __init__(self, committed_points: float = 1.0, skipped_points: float = -1.0) -> None:
        self.committed_points = committed_points
        self.skipped_points = skipped_points

    def on_anchor_committed(
        self, leader: ValidatorId, anchor_round: Round, context: ScoringView
    ) -> None:
        context.scores.add(leader, self.committed_points)

    def on_anchor_skipped(
        self, leader: ValidatorId, anchor_round: Round, context: ScoringView
    ) -> None:
        context.scores.add(leader, self.skipped_points)


class CarouselScoring(ScoringRule):
    """Activity-based rule: presence in committed sub-DAGs earns points.

    Carousel tracks which validators were active in the latest committed
    block of a chained protocol; the closest DAG analogue is counting the
    vertices of each validator that make it into committed sub-DAGs.
    """

    name = "carousel"

    def __init__(self, points_per_vertex: float = 1.0) -> None:
        self.points_per_vertex = points_per_vertex

    def on_vertex_in_committed_subdag(
        self, source: ValidatorId, round_number: Round, context: ScoringView
    ) -> None:
        context.scores.add(source, self.points_per_vertex)


class CompletenessScoring(ScoringRule):
    """Vote *completeness*: votes cast divided by votes expected per epoch.

    The vote-based rule counts raw votes, which ties an adversary that
    votes "most of the time" with honest validators whose counts wobble
    with epoch boundaries.  Normalizing by opportunity removes the
    wobble: a vote is *expected* from a validator exactly when its own
    round ``r+1`` vertex was linearized and the leader vertex of round
    ``r`` was already part of the committed prefix (so the validator
    demonstrably could have linked to it).  Honest validators therefore
    sit at (or within timeout-noise of) 1.0, and any deliberate
    withholding — however it is scheduled around the adversary's own
    slots — shows up as a strictly lower ratio.

    A validator with no expected votes in the epoch (crashed or fully
    isolated — none of its vertices were linearized) scores 0, matching
    the vote-based rule's treatment of crashed validators.
    """

    name = "completeness"
    needs_vote_accounting = True

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0.0:
            raise ConfigurationError("the completeness scale must be positive")
        self.scale = scale

    def prepare_epoch_scores(self, context: ScoringView) -> None:
        scores = context.scores
        expected = context.votes_expected
        cast = context.votes_cast
        for validator in context.committee.validators:
            opportunities = expected.get(validator, 0)
            if opportunities:
                value = self.scale * cast.get(validator, 0) / opportunities
            else:
                value = 0.0
            scores.set(validator, value)


# -- the scoring-rule registry ----------------------------------------------

#: Name -> no-argument factory.  The registry is the single source of
#: truth for which rules exist: ``ExperimentConfig`` validation, the
#: scenario engine's ``scoring_rules`` sweep axis, and the
#: attack x rule matrix all enumerate it.
SCORING_RULE_REGISTRY: Dict[str, Callable[[], ScoringRule]] = {}


def register_scoring_rule(
    name: str, factory: Callable[[], ScoringRule], replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` (a no-argument rule constructor)."""
    if not name:
        raise ConfigurationError("a scoring rule needs a name")
    if name in SCORING_RULE_REGISTRY and not replace:
        raise ConfigurationError(f"scoring rule {name!r} is already registered")
    SCORING_RULE_REGISTRY[name] = factory


def scoring_rule_names() -> Tuple[str, ...]:
    """Registered rule names, in registration order."""
    # Registration order is the documented public order.
    return tuple(SCORING_RULE_REGISTRY)


def make_scoring_rule(name: str) -> ScoringRule:
    """Instantiate the rule registered under ``name``."""
    try:
        factory = SCORING_RULE_REGISTRY[name]
    except KeyError:
        known = ", ".join(scoring_rule_names())
        raise ConfigurationError(
            f"unknown scoring rule {name!r} (known: {known})"
        ) from None
    return factory()


register_scoring_rule("hammerhead", HammerHeadScoring)
register_scoring_rule("shoal", ShoalScoring)
register_scoring_rule("carousel", CarouselScoring)
register_scoring_rule("completeness", CompletenessScoring)
