"""ABL — ablations over HammerHead's design parameters.

The paper fixes three design choices whose values differ between the
evaluation and the Sui mainnet deployment (footnote 15), and leaves the
scoring rule as an explicit degree of freedom (Sections 3 and 7):

* ABL-T      — schedule-change frequency (10 commits in the evaluation,
               300 on mainnet).
* ABL-EX     — fraction of excluded validators (33% vs 20%).
* ABL-SCORE  — scoring rule (HammerHead votes vs Shoal-style committed/
               skipped leaders vs Carousel-style activity).

Each ablation runs the crash-fault scenario on the smallest committee of
the current scale and reports throughput, latency, and skipped rounds.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_common import base_config, current_scale, save_and_print
from repro.sim.experiment import run_experiment


def _fault_setup():
    scale = current_scale()
    committee_size = scale.committee_sizes[0]
    faults = scale.fault_counts[committee_size]
    load = scale.faulty_loads[0]
    return scale, committee_size, faults, load


def _run_schedule_frequency_ablation():
    scale, committee_size, faults, load = _fault_setup()
    results = {}
    for commits in (5, 10, 50, 300):
        config = base_config(scale, committee_size, faults=faults).with_overrides(
            protocol="hammerhead", input_load_tps=load, commits_per_schedule=commits
        )
        results[commits] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="ablation")
def test_schedule_frequency_ablation(benchmark):
    results = benchmark.pedantic(_run_schedule_frequency_ablation, rounds=1, iterations=1)
    reports = []
    for commits, result in sorted(results.items()):
        report = result.report
        report.extra["commits_per_schedule"] = float(commits)
        reports.append(report)
    save_and_print(
        "ablation_schedule_frequency",
        "ABL-T - schedule recomputation frequency under crash faults",
        reports,
    )
    # Recomputing the schedule rarely (mainnet's 300 commits) means the
    # crashed validators stay in the schedule for (almost) the whole run,
    # so more anchor rounds are skipped than with the evaluation's 10.
    assert (
        results[300].report.skipped_anchor_rounds
        >= results[10].report.skipped_anchor_rounds
    )
    # Frequent recomputation also keeps latency at least as low.
    assert results[10].avg_latency <= results[300].avg_latency + 0.25


def _run_exclusion_fraction_ablation():
    scale, committee_size, faults, load = _fault_setup()
    results = {}
    for fraction in (0.10, 0.20, 1.0 / 3.0):
        config = base_config(scale, committee_size, faults=faults).with_overrides(
            protocol="hammerhead", input_load_tps=load, exclude_fraction=fraction
        )
        results[fraction] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="ablation")
def test_exclusion_fraction_ablation(benchmark):
    results = benchmark.pedantic(_run_exclusion_fraction_ablation, rounds=1, iterations=1)
    reports = []
    for fraction, result in sorted(results.items()):
        report = result.report
        report.extra["exclude_fraction"] = round(fraction, 3)
        reports.append(report)
    save_and_print(
        "ablation_exclusion_fraction",
        "ABL-EX - excluded stake fraction under crash faults",
        reports,
    )
    full_exclusion = results[1.0 / 3.0]
    small_exclusion = results[0.10]
    # Excluding a full third (enough to cover every crashed validator)
    # skips no more rounds than excluding only 10% of the stake.
    assert (
        full_exclusion.report.skipped_anchor_rounds
        <= small_exclusion.report.skipped_anchor_rounds
    )
    assert full_exclusion.avg_latency <= small_exclusion.avg_latency + 0.25


def _run_scoring_rule_ablation():
    scale, committee_size, faults, load = _fault_setup()
    results = {}
    for scoring in ("hammerhead", "shoal", "carousel", "completeness"):
        config = base_config(scale, committee_size, faults=faults).with_overrides(
            protocol="hammerhead", input_load_tps=load, scoring=scoring
        )
        results[scoring] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="ablation")
def test_scoring_rule_ablation(benchmark):
    results = benchmark.pedantic(_run_scoring_rule_ablation, rounds=1, iterations=1)
    reports = []
    for scoring, result in sorted(results.items()):
        report = result.report
        report.extra["scoring_rule"] = scoring
        reports.append(report)
    save_and_print(
        "ablation_scoring_rule",
        "ABL-SCORE - scoring rule comparison under crash faults",
        reports,
    )
    # All four deterministic rules identify crash-faulted validators, so
    # all of them keep the system live and within a similar latency band.
    latencies = [result.avg_latency for result in results.values()]
    assert max(latencies) <= 2.5 * min(latencies)
    for result in results.values():
        assert result.report.commits > 0
        assert result.report.schedule_changes >= 1
