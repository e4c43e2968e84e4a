"""HammerHead core: reputation-based dynamic leader scheduling.

This package holds the paper's primary contribution:

* :class:`ReputationScores` — per-validator scores accumulated during a
  schedule epoch (Section 3).
* Scoring rules — the HammerHead voting rule plus the Shoal-style and
  Carousel-style alternatives used in the ablation benchmarks.
* :class:`CommitCountPolicy` — recompute the schedule every ``N``
  commits, the evaluation's trigger.
* :func:`compute_next_schedule` — the bottom-``f`` / top-``f`` slot swap.
* :class:`HammerHeadScheduleManager` — the per-validator component that
  tracks the active schedule, applies schedule changes on committed
  anchors, and answers ``getLeader`` queries, including retroactively for
  rounds committed late.
* :class:`StaticScheduleManager` — the Bullshark baseline (no changes).
"""

from repro.core.scores import ReputationScores
from repro.core.scoring import (
    CarouselScoring,
    CompletenessScoring,
    HammerHeadScoring,
    ScoringRule,
    ScoringView,
    ShoalScoring,
    make_scoring_rule,
    register_scoring_rule,
    scoring_rule_names,
)
from repro.core.schedule_change import (
    CommitCountPolicy,
    compute_next_schedule,
    select_swap_sets,
    swap_summary,
)
from repro.core.manager import (
    HammerHeadScheduleManager,
    ScheduleManager,
    StaticScheduleManager,
)

__all__ = [
    "ReputationScores",
    "ScoringRule",
    "ScoringView",
    "HammerHeadScoring",
    "ShoalScoring",
    "CarouselScoring",
    "CompletenessScoring",
    "register_scoring_rule",
    "scoring_rule_names",
    "make_scoring_rule",
    "CommitCountPolicy",
    "compute_next_schedule",
    "select_swap_sets",
    "swap_summary",
    "ScheduleManager",
    "HammerHeadScheduleManager",
    "StaticScheduleManager",
]
