"""Host-independent guards on the cost of one delivered message.

Four smoke-scale config sets, built here in the shape of four benchmark
workloads: ``lossy-c25`` (committee 7, 2% loss and 20 ms window jitter
over [1.5, 3.0] s, two sub-seeds), ``faults-c10`` (committee 7 for 20 s,
the holders of initial-schedule slots 2 and 5 crashed at t = 0),
``faultless-c10`` (committee 4 for 8 s) and ``scale-c50`` (committee 7,
200 tx/s for 6 s).  Each set runs once to warm the
process-wide memos; a second run counts the ``sys.setprofile`` ``"call"``
events (a Python frame entered, a generator resumed included) per
message the transport delivers.  The count is a function of the code
alone, identical on every repeat and on any host, so the bounds hold the
per-delivery call chain where a timing could not.  Each bound lies less
than one call above the measured count (and at most 10% above it), so
one more call per delivered message fails it: ``faults-c10`` 12.49 calls per delivery
(17.40 before the change below), ``faultless-c10`` 13.91 (18.57; its
client load is a larger share of fewer deliveries), ``scale-c50`` 10.25
and ``lossy-c25`` 10.33, against 14.81 before a committed sub-DAG was
handed to the schedule manager in one call and a certified vertex reached
the DAG without a delivery object, and 18.13 before the sends, own-round
acks, certificate-to-DAG hop and threshold reads were flattened.
"""

import sys

import pytest

from repro.faults.crash import CrashFault
from repro.faults.partition import NetworkDisturbanceFault
from repro.schedule.round_robin import initial_schedule
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner, build_committee

CALLS_PER_DELIVERY_BOUND = 11.3


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


def faults_smoke_configs(seed=2):
    base = ExperimentConfig(committee_size=7, input_load_tps=200.0, duration=20.0, warmup=1.0, seed=seed)
    slots = initial_schedule(build_committee(base), seed=seed).slots
    return [
        base.with_overrides(
            extra_faults=(CrashFault(validators=(slots[2], slots[5]), at_time=0.0),),
            observer=slots[0],
        )
    ]


def scale_smoke_configs(seed=2):
    return [ExperimentConfig(committee_size=7, input_load_tps=200.0, duration=6.0, warmup=1.0, seed=seed)]


def faultless_smoke_configs(seed=2):
    return [ExperimentConfig(committee_size=4, input_load_tps=200.0, duration=8.0, warmup=1.0, seed=seed)]


# (configs, bound on calls per delivery, fewest deliveries the run makes)
GUARDS = {
    "lossy-c25": (lossy_smoke_configs, CALLS_PER_DELIVERY_BOUND, 3000),
    "faults-c10": (faults_smoke_configs, 13.4, 1500),
    "faultless-c10": (faultless_smoke_configs, 14.8, 800),
    "scale-c50": (scale_smoke_configs, 11.2, 1500),
}


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


@pytest.mark.parametrize("workload", sorted(GUARDS))
def test_a_delivered_message_stays_within_its_call_bound(workload):
    if sys.getprofile() is not None:
        pytest.skip("another profiler holds the profile hook")
    build, bound, fewest = GUARDS[workload]
    configs = build()
    counted_runs(configs)  # warm the process-wide memos
    runs = counted_runs(configs)
    calls = sum(run[0] for run in runs)
    deliveries = sum(run[1] for run in runs)
    assert deliveries > fewest
    assert calls / deliveries <= bound, f"{calls} calls for {deliveries} deliveries"
    # Honest validators refuse no vertex.
    assert [run[2]["node.vertices_refused"] for run in runs] == [0.0] * len(runs)
