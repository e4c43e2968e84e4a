"""When and how the leader schedule changes.

Two pieces live here:

* :class:`CommitCountPolicy` decides when an epoch ends.  Only the
  evaluation's trigger is implemented: recompute the schedule every 10
  committed leaders (the Sui mainnet uses 300).  The paper's pseudocode
  instead triggers after ``T`` rounds of the active schedule (Algorithm
  2, line 30); both are deterministic functions of the committed anchor
  sequence, so either preserves Schedule Agreement.
* :func:`compute_next_schedule` builds schedule ``S'`` from ``S``: the
  lowest-reputation validators (set ``B``, at most ``f`` by stake) lose
  their slots to the highest-reputation validators (set ``G``), applied
  round-robin over the slots of ``S``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.committee import Committee
from repro.core.scores import ReputationScores
from repro.errors import ScheduleError
from repro.schedule.base import LeaderSchedule
from repro.types import Round, ValidatorId


@dataclasses.dataclass(frozen=True)
class CommitCountPolicy:
    """Recompute the schedule every ``commits`` committed leaders.

    The paper's evaluation uses 10; the Sui mainnet uses the more
    conservative 300.
    """

    commits: int = 10

    def __post_init__(self) -> None:
        if self.commits <= 0:
            raise ScheduleError("the commit count must be positive")

    def should_change(
        self,
        commits_in_epoch: int,
        anchor_round: Round,
        schedule: LeaderSchedule,
    ) -> bool:
        return commits_in_epoch >= self.commits


def select_swap_sets(
    scores: ReputationScores,
    committee: Committee,
    exclude_fraction: float = 1.0 / 3.0,
) -> Tuple[List[ValidatorId], List[ValidatorId]]:
    """Select the sets ``B`` (demoted) and ``G`` (promoted).

    ``B`` holds the lowest-reputation validators whose cumulative stake is
    at most ``exclude_fraction`` of the total (the paper's evaluation uses
    one third, the Sui mainnet one fifth).  ``G`` holds an equal number of
    the highest-reputation validators outside ``B``.  Ties are resolved
    deterministically (by validator id) so every honest validator derives
    the same sets.
    """
    if not 0.0 <= exclude_fraction < 1.0:
        raise ScheduleError("exclude_fraction must lie in [0, 1)")
    stake_budget = int(exclude_fraction * committee.total_stake)
    demoted = scores.lowest_by_stake_budget(stake_budget)
    promoted = scores.highest(len(demoted), excluding=demoted)
    # When the committee is tiny, there may not be enough distinct
    # validators to promote; shrink B so that |G| == |B| always holds.
    if len(promoted) < len(demoted):
        demoted = demoted[: len(promoted)]
    return demoted, promoted


def swap_summary(previous: LeaderSchedule, new: LeaderSchedule) -> int:
    """Number of slots the swap reassigned between two consecutive schedules.

    This is the ``demoted_slots`` bookkeeping of the schedule-change
    records: a slot counts when its holder changed between the schedules.
    """
    return sum(1 for old, new_slot in zip(previous.slots, new.slots) if old != new_slot)


def swap_details(
    previous: LeaderSchedule, new: LeaderSchedule
) -> Tuple[Tuple[ValidatorId, ...], Tuple[ValidatorId, ...]]:
    """Validators demoted/promoted between two consecutive schedules.

    A validator is *demoted* when it holds fewer slots in ``new`` than in
    ``previous`` and *promoted* when it holds more; validators whose slot
    count is unchanged appear in neither.  Sorted tuples, so the result
    is deterministic and embeds directly in trace events.
    """
    balance: Dict[ValidatorId, int] = {}
    for holder in previous.slots:
        balance[holder] = balance.get(holder, 0) - 1
    for holder in new.slots:
        balance[holder] = balance.get(holder, 0) + 1
    demoted = tuple(sorted(v for v, delta in balance.items() if delta < 0))
    promoted = tuple(sorted(v for v, delta in balance.items() if delta > 0))
    return demoted, promoted


def compute_next_schedule(
    previous: LeaderSchedule,
    scores: ReputationScores,
    committee: Committee,
    new_initial_round: Round,
    exclude_fraction: float = 1.0 / 3.0,
    base_slots: Optional[Tuple[ValidatorId, ...]] = None,
) -> LeaderSchedule:
    """Compute schedule ``S'`` from the epoch's reputation scores.

    Every slot held by a ``B`` validator is reassigned to a ``G``
    validator, walking ``G`` round-robin (Section 3's ``pos`` table is the
    slot-count bookkeeping this produces implicitly).  Slots held by
    validators outside ``B`` are untouched, so well-behaved validators keep
    exactly the representation their stake gave them.

    ``base_slots`` selects the slot assignment the swap is applied to.  By
    default it is the previous schedule's slots (the paper's ``pos`` table
    description); the HammerHead schedule manager passes the *unbiased
    initial* slots of the epoch instead, mirroring the production
    implementation's swap table: the swap is always computed against the
    stake-proportional baseline, which is what lets a validator that
    recovers from a crash regain its original slots as soon as it leaves
    the bottom of the reputation ranking ("swiftly reintegrating them when
    they recover", Section 1).
    """
    if new_initial_round % 2 != 0:
        raise ScheduleError("schedules must start on an anchor (even) round")
    if new_initial_round <= previous.initial_round:
        raise ScheduleError(
            "the next schedule must start strictly after the previous one "
            f"(previous starts at {previous.initial_round}, next at {new_initial_round})"
        )
    slots_source = base_slots if base_slots is not None else previous.slots
    demoted, promoted = select_swap_sets(scores, committee, exclude_fraction)
    demoted_set = set(demoted)
    new_slots: List[ValidatorId] = []
    promote_index = 0
    for slot in slots_source:
        if slot in demoted_set and promoted:
            replacement = promoted[promote_index % len(promoted)]
            promote_index += 1
            new_slots.append(replacement)
        else:
            new_slots.append(slot)
    return LeaderSchedule(
        epoch=previous.epoch + 1,
        initial_round=new_initial_round,
        slots=tuple(new_slots),
    )
