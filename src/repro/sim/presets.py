"""Experiment presets mirroring the paper's deployment parameters.

The paper evaluates committees of 10, 50, and 100 validators on a
geo-distributed testbed, recomputes the HammerHead schedule every 10
commits, excludes the bottom 33% of validators, and observes peak
throughput around 4,000 tx/s (3,500 for the largest committee).  The
presets below choose simulator parameters that land the *shape* of those
results (who saturates where, who wins under faults) without claiming to
match the testbed's absolute numbers.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.node.config import NodeConfig

# Committee sizes and their maximum tolerable fault counts, as in the paper.
PAPER_COMMITTEES: Tuple[int, ...] = (10, 50, 100)
PAPER_FAULTS: Dict[int, int] = {10: 3, 50: 16, 100: 33}

# The paper's evaluation parameters for the reputation schedule.
PAPER_COMMITS_PER_SCHEDULE = 10
PAPER_EXCLUDE_FRACTION = 1.0 / 3.0
# The more conservative Sui mainnet parameters (footnote 15).
MAINNET_COMMITS_PER_SCHEDULE = 300
MAINNET_EXCLUDE_FRACTION = 0.20


def paper_committee_sizes() -> List[int]:
    """Committee sizes used in Figures 1 and 2."""
    return list(PAPER_COMMITTEES)


def paper_fault_counts() -> Dict[int, int]:
    """Maximum tolerable fault count per committee size (Figure 2)."""
    return dict(PAPER_FAULTS)


def node_config_for(committee_size: int, leader_timeout: float = 4.0) -> NodeConfig:
    """Node parameters tuned per committee size.

    * The vertex batch is sized so that even a committee reduced to
      ``n - f`` proposers can carry the saturation-level load; the binding
      throughput constraint in healthy conditions is the execution
      capacity (see :func:`execution_capacity_for`), exactly as in the
      real system.
    * The minimum round interval grows mildly with the committee size,
      modelling per-round certificate verification cost.
    """
    base = NodeConfig(
        max_batch_size=_batch_size_for(committee_size),
        min_round_interval=0.45,
        leader_timeout=leader_timeout,
        gc_depth=40,
        record_sequence=False,
    )
    return base.scaled_for_committee(committee_size)


def _batch_size_for(committee_size: int) -> int:
    # The vertex batch is sized so that the alive 2/3 of the committee can
    # include about 1.3x the execution capacity per healthy wave.  The
    # consequences (matching the paper's claims):
    #   * fault-free runs are execution-bound, so both systems peak at the
    #     same throughput (C1);
    #   * HammerHead under faults remains execution-bound because its waves
    #     stay short, so it keeps the fault-free peak (C3);
    #   * baseline Bullshark under faults inflates its wave time waiting
    #     for crashed leaders, its inclusion capacity falls below the
    #     execution capacity, and its peak throughput drops (C2).
    headroom = 1.10
    target_inclusion_tps = headroom * execution_capacity_for(committee_size)
    healthy_wave_seconds = 2.0 * (0.45 + 0.0008 * committee_size + 0.10)
    alive = max(1, (2 * committee_size) // 3)
    per_round = target_inclusion_tps * healthy_wave_seconds / alive
    return max(10, int(round(per_round)))


def execution_capacity_for(committee_size: int) -> float:
    """Per-validator execution/finality pipeline capacity (tx/s).

    Larger committees spend more per-transaction effort on certificate and
    signature handling, which is why the paper's 100-validator runs peak
    slightly lower (3,500 tx/s) than the 10- and 50-validator runs
    (4,000 tx/s).
    """
    return max(1500.0, 4600.0 - 10.0 * committee_size)


def bench_scale() -> str:
    """Benchmark scale selected through the ``REPRO_BENCH_SCALE`` env var.

    * ``quick``  - tiny committees, very short runs (CI smoke runs).
    * ``default`` - reduced committees/durations, preserves all trends.
    * ``paper``  - the paper's committee sizes and longer runs.
    """
    value = os.environ.get("REPRO_BENCH_SCALE", "default").strip().lower()
    if value not in ("quick", "default", "paper"):
        raise ValueError(f"unknown REPRO_BENCH_SCALE value {value!r}")
    return value
