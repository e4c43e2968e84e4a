"""Leader schedules: who is the leader (anchor) of each round."""

from repro.schedule.base import LeaderSchedule
from repro.schedule.round_robin import initial_schedule, stake_weighted_slots

__all__ = [
    "LeaderSchedule",
    "initial_schedule",
    "stake_weighted_slots",
]
