"""FIG1 — Figure 1: latency/throughput in ideal conditions (no faults).

The paper compares HammerHead and baseline Bullshark with 10, 50, and 100
honest validators and reports (i) essentially identical throughput for
both systems, with a peak around 4,000 tx/s (3,500 for 100 validators),
and (ii) a small latency advantage for HammerHead.  This benchmark
regenerates the same series: one (throughput, latency) point per input
load, per system, per committee size.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_common import base_config, current_scale, save_and_print
from repro.sim.sweep import run_sweep


def _run_figure1():
    scale = current_scale()
    # One flat batch for the sweep engine; results come back in order.
    keys = [
        (protocol, committee_size)
        for committee_size in scale.committee_sizes
        for protocol in ("hammerhead", "bullshark")
    ]
    configs = [
        base_config(scale, committee_size).with_overrides(
            protocol=protocol, input_load_tps=load
        )
        for protocol, committee_size in keys
        for load in scale.faultless_loads
    ]
    results = run_sweep(configs)
    reports = [result.report for result in results]
    loads_per_curve = len(scale.faultless_loads)
    curves = {
        key: results[index * loads_per_curve : (index + 1) * loads_per_curve]
        for index, key in enumerate(keys)
    }
    return reports, curves


@pytest.mark.benchmark(group="figure1")
def test_fig1_latency_throughput_no_faults(benchmark):
    reports, curves = benchmark.pedantic(_run_figure1, rounds=1, iterations=1)
    save_and_print(
        "figure1_faultless",
        "Figure 1 - latency/throughput, no faults (HammerHead vs Bullshark)",
        reports,
    )
    scale = current_scale()
    for committee_size in scale.committee_sizes:
        hammerhead = curves[("hammerhead", committee_size)]
        bullshark = curves[("bullshark", committee_size)]
        # C1: no throughput loss for HammerHead in ideal conditions.
        peak_hammerhead = max(result.throughput for result in hammerhead)
        peak_bullshark = max(result.throughput for result in bullshark)
        assert peak_hammerhead >= 0.9 * peak_bullshark
        # C1: HammerHead's latency is no worse than the baseline's (the
        # paper reports a small gain; the simulator reproduces parity).
        for hammerhead_point, bullshark_point in zip(hammerhead, bullshark):
            assert (
                hammerhead_point.avg_latency <= bullshark_point.avg_latency + 0.25
            )
        # Both systems actually sustain the offered load away from
        # saturation (the lowest load point commits essentially everything).
        assert hammerhead[0].throughput >= 0.85 * scale.faultless_loads[0]
        assert bullshark[0].throughput >= 0.85 * scale.faultless_loads[0]
