"""INTRO — the Sui mainnet incident of August 29 (Section 1).

Roughly 10% of validators became less responsive for two hours; p95
latency rose from 3.0 s to 4.6 s and p50 from 1.9 s to 2.2 s even though
the system was under low load (about 130 tx/s).  This benchmark
reproduces the scenario: a low-load run in which 10% of the validators are
degraded, comparing the static schedule (which keeps electing them) with
HammerHead (which removes them from the schedule until they recover).
"""

from __future__ import annotations

import pytest

from benchmarks.bench_common import base_config, current_scale, save_and_print
from repro.committee import Committee
from repro.faults.slow import degrade_fraction
from repro.sim.experiment import run_experiment

INCIDENT_LOAD_TPS = 130.0
DEGRADED_FRACTION = 0.10
EXTRA_DELAY_S = 0.6


def _run_incident():
    scale = current_scale()
    committee_size = max(scale.committee_sizes)
    committee = Committee.build(committee_size)
    duration = scale.faulty_duration
    warmup = scale.faulty_warmup
    results = {}
    for protocol in ("bullshark", "hammerhead"):
        for degraded in (False, True):
            extra_faults = ()
            if degraded:
                extra_faults = (
                    degrade_fraction(
                        committee, fraction=DEGRADED_FRACTION, extra_delay=EXTRA_DELAY_S
                    ),
                )
            config = base_config(scale, committee_size).with_overrides(
                protocol=protocol,
                input_load_tps=INCIDENT_LOAD_TPS,
                duration=duration,
                warmup=warmup,
                extra_faults=extra_faults,
            )
            results[(protocol, degraded)] = run_experiment(config)
    return results


@pytest.mark.benchmark(group="incident")
def test_incident_degraded_validators_low_load(benchmark):
    results = benchmark.pedantic(_run_incident, rounds=1, iterations=1)
    reports = []
    for (_protocol, degraded), result in sorted(results.items()):
        report = result.report
        report.extra["degraded_validators"] = 1.0 if degraded else 0.0
        reports.append(report)
    save_and_print(
        "incident_degraded",
        "Sui incident scenario - 10% degraded validators at low load",
        reports,
    )
    bullshark_healthy = results[("bullshark", False)]
    bullshark_degraded = results[("bullshark", True)]
    hammerhead_degraded = results[("hammerhead", True)]
    # Under the static schedule the degraded validators raise tail latency.
    assert bullshark_degraded.p95_latency > bullshark_healthy.p95_latency
    # HammerHead removes them from the schedule and keeps latency close to
    # the healthy baseline.
    assert hammerhead_degraded.p95_latency <= bullshark_degraded.p95_latency
    assert hammerhead_degraded.avg_latency <= bullshark_degraded.avg_latency
