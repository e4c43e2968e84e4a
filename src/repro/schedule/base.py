"""The leader schedule data structure.

A schedule assigns a leader to every anchor round starting from its
``initial_round``.  It is defined by an ordered cycle of slots; the leader
of anchor round ``r`` is the slot at position ``(r - initial_round) / 2``
modulo the cycle length.  HammerHead replaces slots of low-reputation
validators with slots of high-reputation ones; the underlying structure is
unchanged, which is what lets every validator derive the same schedule
from the same committed prefix.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Tuple

from repro.errors import ScheduleError
from repro.types import Round, ValidatorId, is_anchor_round


@dataclasses.dataclass(frozen=True)
class LeaderSchedule:
    """An immutable leader schedule (``activeSchedule`` in Algorithm 1)."""

    epoch: int
    initial_round: Round
    slots: Tuple[ValidatorId, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ScheduleError("a schedule needs at least one leader slot")
        if self.initial_round < 0:
            raise ScheduleError("initial_round must be non-negative")
        if self.initial_round % 2 != 0:
            raise ScheduleError("schedules start on an anchor (even) round")
        if self.epoch < 0:
            raise ScheduleError("epoch numbers are non-negative")

    # -- leader lookup -----------------------------------------------------------

    def leader_for_round(self, round_number: Round) -> ValidatorId:
        """Return the leader of anchor round ``round_number``.

        This is the ``getLeader(r, activeSchedule)`` function of
        Algorithm 1: a public deterministic function of the round and the
        schedule.
        """
        if not is_anchor_round(round_number):
            raise ScheduleError(f"round {round_number} is not an anchor round")
        if round_number < self.initial_round:
            raise ScheduleError(
                f"round {round_number} predates this schedule (starts at {self.initial_round})"
            )
        index = ((round_number - self.initial_round) // 2) % len(self.slots)
        return self.slots[index]

    # -- slot accounting ------------------------------------------------------------

    def slot_counts(self) -> Dict[ValidatorId, int]:
        """Number of slots each validator holds in one rotation cycle."""
        return dict(Counter(self.slots))

    def slots_of(self, validator: ValidatorId) -> int:
        return self.slot_counts().get(validator, 0)
