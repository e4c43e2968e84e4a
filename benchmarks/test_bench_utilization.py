"""UTIL — Leader Utilization (Definition 3, Lemma 6).

Lemma 6 bounds the number of rounds for which no honest validator commits
a vertex by O(T)·f in crash-only executions: a crashed validator stops
voting, lands in the bottom of the reputation ranking within O(T) rounds,
and never re-enters the schedule while it is down.  This benchmark runs a
crash-only execution and compares the number of skipped anchor rounds per
crashed leader against the bound, for HammerHead and for the static
baseline (which has no such bound and keeps skipping forever).
"""

from __future__ import annotations

import pytest

from benchmarks.bench_common import base_config, current_scale, save_and_print
from repro.sim.experiment import run_experiment


def _run_utilization():
    scale = current_scale()
    committee_size = scale.committee_sizes[0]
    faults = scale.fault_counts[committee_size]
    load = scale.faulty_loads[0]
    results = {}
    for protocol in ("hammerhead", "bullshark"):
        config = base_config(scale, committee_size, faults=faults).with_overrides(
            protocol=protocol, input_load_tps=load
        )
        results[protocol] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="utilization")
def test_leader_utilization_bound(benchmark):
    results = benchmark.pedantic(_run_utilization, rounds=1, iterations=1)
    scale = current_scale()
    committee_size = scale.committee_sizes[0]
    faults = scale.fault_counts[committee_size]
    reports = [results["hammerhead"].report, results["bullshark"].report]
    save_and_print(
        "leader_utilization",
        "Leader Utilization - skipped anchor rounds in crash-only runs",
        reports,
    )
    commits_per_schedule = 10
    # Lemma 6: skipped rounds bounded by O(T) * f.  The constant accounts
    # for the crashed validators holding multiple slots per epoch before
    # the first schedule change takes effect.
    bound = 3 * commits_per_schedule * faults
    hammerhead_skips = results["hammerhead"].report.skipped_anchor_rounds
    assert hammerhead_skips <= bound
    # The static baseline keeps skipping the crashed leaders' rounds for the
    # whole run, so it accumulates strictly more skips.
    assert results["bullshark"].report.skipped_anchor_rounds > hammerhead_skips
