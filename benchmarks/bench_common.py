"""Shared helpers for the benchmark harness.

The benchmarks regenerate every figure of the paper's evaluation
(Section 5).  Absolute numbers differ from the AWS testbed — the substrate
here is a discrete-event simulator — but each benchmark prints the same
series the paper plots and checks that the qualitative claims (who wins,
by roughly what factor) hold.

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:

* ``quick``   — tiny committees and very short runs (smoke test, ~1 min).
* ``default`` — reduced committee sizes and durations; preserves every
  trend (the default, ~10-20 min for the full suite).
* ``paper``   — the paper's committee sizes (10/50/100) and longer runs
  (hours of wall-clock time; intended for unattended runs).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Sequence

from repro.metrics.report import PerformanceReport, format_table
from repro.sim.experiment import ExperimentConfig
from repro.sim.presets import bench_scale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@dataclasses.dataclass(frozen=True)
class BenchScale:
    """Concrete parameters for one benchmark scale."""

    name: str
    committee_sizes: Sequence[int]
    fault_counts: Dict[int, int]
    faultless_loads: Sequence[float]
    faulty_loads: Sequence[float]
    faultless_duration: float
    faultless_warmup: float
    faulty_duration: float
    faulty_warmup: float


_SCALES = {
    "quick": BenchScale(
        name="quick",
        committee_sizes=(7,),
        fault_counts={7: 2},
        faultless_loads=(500.0, 1500.0),
        faulty_loads=(500.0, 1500.0),
        faultless_duration=20.0,
        faultless_warmup=5.0,
        faulty_duration=40.0,
        faulty_warmup=20.0,
    ),
    "default": BenchScale(
        name="default",
        committee_sizes=(10, 25),
        fault_counts={10: 3, 25: 8},
        faultless_loads=(1000.0, 2500.0, 4000.0),
        faulty_loads=(1000.0, 2500.0, 4000.0),
        faultless_duration=40.0,
        faultless_warmup=10.0,
        faulty_duration=80.0,
        faulty_warmup=40.0,
    ),
    "paper": BenchScale(
        name="paper",
        committee_sizes=(10, 50, 100),
        fault_counts={10: 3, 50: 16, 100: 33},
        faultless_loads=(500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0),
        faulty_loads=(500.0, 1000.0, 2000.0, 3000.0, 4000.0),
        faultless_duration=120.0,
        faultless_warmup=20.0,
        faulty_duration=180.0,
        faulty_warmup=80.0,
    ),
}


def current_scale() -> BenchScale:
    return _SCALES[bench_scale()]


def save_and_print(name: str, title: str, reports: List[PerformanceReport]) -> str:
    """Render a results table, persist it under ``benchmarks/results``, and
    print it (visible with ``pytest -s``)."""
    table = format_table(reports, title=title)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    print()
    print(table)
    return table


def base_config(scale: BenchScale, committee_size: int, faults: int = 0) -> ExperimentConfig:
    """The experiment configuration shared by the figure benchmarks."""
    if faults:
        duration, warmup = scale.faulty_duration, scale.faulty_warmup
    else:
        duration, warmup = scale.faultless_duration, scale.faultless_warmup
    return ExperimentConfig(
        committee_size=committee_size,
        faults=faults,
        duration=duration,
        warmup=warmup,
        seed=2,
        commits_per_schedule=10,       # the paper's evaluation parameter
        exclude_fraction=1.0 / 3.0,    # "excludes the 33% less performant"
    )
