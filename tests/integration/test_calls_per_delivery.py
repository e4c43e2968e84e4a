"""A host-independent guard on the cost of one delivered message.

The benchmark's ``lossy-c25`` smoke configs (committee 7, 2% loss and
20 ms window jitter over [1.5, 3.0] s, two sub-seeds) run once to warm
the process-wide memos; a second run counts the ``sys.setprofile``
``"call"`` events (a Python frame entered, a generator resumed included)
per message the transport delivers.  The count is a function of the
code alone, identical on every repeat and on any host, so the bound
holds the per-delivery call chain where a timing could not: 14.81 calls
per delivery, against 18.13 before the sends, own-round acks,
certificate-to-DAG hop and threshold reads were flattened.
"""

import sys

import pytest

from repro.faults.partition import NetworkDisturbanceFault
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner

CALLS_PER_DELIVERY_BOUND = 16.0


def lossy_smoke_configs(seed=2):
    return [
        ExperimentConfig(
            committee_size=7,
            input_load_tps=100.0,
            duration=6.0,
            warmup=1.0,
            seed=seed + 1009 * index,
            extra_faults=(NetworkDisturbanceFault(jitter=0.02, loss_rate=0.02, start=1.5, end=3.0),),
        )
        for index in range(2)
    ]


def counted_runs(configs):
    """``(call events, deliveries, always-on counters)`` of each config's run."""
    runs = []
    for config in configs:
        runner = SimulationRunner(config)
        calls = [0]

        def hook(_frame, event, _arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(hook)
        try:
            result = runner.run()
        finally:
            sys.setprofile(None)
        runs.append((calls[0], runner.network.stats.messages_delivered, result.counters["always"]))
    return runs


def test_a_delivered_message_costs_at_most_sixteen_calls():
    if sys.getprofile() is not None:
        pytest.skip("another profiler holds the profile hook")
    configs = lossy_smoke_configs()
    counted_runs(configs)  # warm the process-wide memos
    runs = counted_runs(configs)
    calls = sum(run[0] for run in runs)
    deliveries = sum(run[1] for run in runs)
    assert deliveries > 3000
    assert calls / deliveries <= CALLS_PER_DELIVERY_BOUND, f"{calls} calls for {deliveries} deliveries"
    # Honest validators refuse no vertex.
    assert [run[2]["node.vertices_refused"] for run in runs] == [0.0, 0.0]
