"""TAB-C1/C2/C3 — the three headline claims of Section 5.

* C1: no throughput loss and a small latency gain in ideal conditions.
* C2: drastic latency and throughput improvement under crash faults, with
  the benefit growing with the number of faults.
* C3: no visible throughput degradation for HammerHead despite crash
  faults.

Each claim is evaluated on the smallest committee of the current scale so
the whole table stays cheap; Figure 1/2 benchmarks cover the full sweep.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_common import base_config, current_scale, save_and_print
from repro.sim.experiment import run_experiment


def _committee_and_faults():
    scale = current_scale()
    committee_size = scale.committee_sizes[0]
    return scale, committee_size, scale.fault_counts[committee_size]


def _run_claim_c1():
    scale, committee_size, _ = _committee_and_faults()
    load = scale.faultless_loads[-1]
    results = {}
    for protocol in ("hammerhead", "bullshark"):
        config = base_config(scale, committee_size).with_overrides(
            protocol=protocol, input_load_tps=load
        )
        results[protocol] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="claims")
def test_claim_c1_faultless_parity(benchmark):
    results = benchmark.pedantic(_run_claim_c1, rounds=1, iterations=1)
    save_and_print(
        "claim_c1",
        "Claim C1 - ideal conditions: HammerHead vs Bullshark at the same load",
        [results["hammerhead"].report, results["bullshark"].report],
    )
    hammerhead, bullshark = results["hammerhead"], results["bullshark"]
    assert hammerhead.throughput >= 0.9 * bullshark.throughput
    assert hammerhead.avg_latency <= bullshark.avg_latency + 0.25


def _run_claim_c2():
    scale, committee_size, max_faults = _committee_and_faults()
    load = scale.faulty_loads[0]
    fault_levels = sorted({max(1, max_faults // 2), max_faults})
    results = {}
    for faults in fault_levels:
        for protocol in ("hammerhead", "bullshark"):
            config = base_config(scale, committee_size, faults=faults).with_overrides(
                protocol=protocol, input_load_tps=load
            )
            results[(protocol, faults)] = run_experiment(config)
    return fault_levels, results


@pytest.mark.benchmark(group="claims")
def test_claim_c2_improvement_grows_with_faults(benchmark):
    fault_levels, results = benchmark.pedantic(_run_claim_c2, rounds=1, iterations=1)
    save_and_print(
        "claim_c2",
        "Claim C2 - benefit of HammerHead under increasing crash faults",
        [results[key].report for key in sorted(results.keys())],
    )
    gaps = []
    for faults in fault_levels:
        hammerhead = results[("hammerhead", faults)]
        bullshark = results[("bullshark", faults)]
        # HammerHead improves latency at every fault level.
        assert hammerhead.avg_latency < bullshark.avg_latency
        gaps.append(bullshark.avg_latency - hammerhead.avg_latency)
    # The benefit increases with the number of faults.
    assert gaps[-1] >= gaps[0]


def _run_claim_c3():
    scale, committee_size, max_faults = _committee_and_faults()
    # Compare at a load comfortably below the execution ceiling so that the
    # comparison isolates the effect of the faults rather than queueing.
    loads = scale.faulty_loads
    load = loads[len(loads) // 2]
    results = {}
    for faults in (0, max_faults):
        config = base_config(scale, committee_size, faults=faults).with_overrides(
            protocol="hammerhead",
            input_load_tps=load,
            duration=scale.faulty_duration,
            warmup=scale.faulty_warmup,
        )
        results[faults] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="claims")
def test_claim_c3_no_throughput_degradation(benchmark):
    results = benchmark.pedantic(_run_claim_c3, rounds=1, iterations=1)
    save_and_print(
        "claim_c3",
        "Claim C3 - HammerHead throughput with and without crash faults",
        [results[faults].report for faults in sorted(results)],
    )
    faultless = results[0]
    faulty = results[max(results)]
    # No visible throughput degradation despite the crash faults.
    assert faulty.throughput >= 0.9 * faultless.throughput
    # Only a slight latency increase (the paper reports at most ~0.5 s).
    assert faulty.avg_latency <= faultless.avg_latency + 1.0
