"""The tests' order recorder against what every run reports.

Total Order tests read each validator's sequence from an
``OrderRecorder`` subscribed to ``on_ordered``; a run keeps no sequence,
only each validator's ``(count, digest)`` in ``ordering_digests`` and its
periodic ``ordering_checkpoints``.  Folding the recorded ids the way the
engine folds what it orders must give back both, so the recorder yields
exactly the ordered prefix, no more and no less, on every engine.
"""

import hashlib

import pytest

import repro.netexec.runner as net_runner
from repro.consensus.bullshark import ORDERING_CHECKPOINT_INTERVAL
from repro.faults.crash import CrashFault, CrashRecoveryFault
from repro.netexec.lockstep import LockstepSimulationRunner
from repro.netexec.runner import run_net_experiment
from repro.sim.experiment import ExperimentConfig
from tests.doubles import record_orders, run_recorded


def fold(vertex_ids):
    """``((count, digest), checkpoints)`` of a sequence, as the engine folds it."""
    digest, checkpoints = hashlib.sha256(), []
    for count, (round_number, source) in enumerate(vertex_ids, start=1):
        digest.update(f"{round_number}:{source};".encode("ascii"))
        if count % ORDERING_CHECKPOINT_INTERVAL == 0:
            checkpoints.append((count, digest.hexdigest()))
    return (len(vertex_ids), digest.hexdigest()), checkpoints


def assert_recorded_prefixes(orders, result):
    assert set(orders) == set(result.ordering_digests)
    for validator, order in orders.items():
        ids = order.ids()
        assert fold(ids) == (tuple(result.ordering_digests[validator]), result.ordering_checkpoints[validator])
        assert len(result.ordering_checkpoints[validator]) >= 2, "the run is too short to checkpoint"
        assert [record.position for record in order.ordered] == list(range(len(ids)))
        # The committed sub-DAGs carry the same vertices in the same order.
        assert [vertex.id for subdag in order.committed for vertex in subdag.vertices] == ids


@pytest.mark.parametrize(
    "faults",
    [(), (CrashRecoveryFault(validators=(3,), crash_at=3.0, recover_at=8.0),)],
    ids=["faultless", "crash-recovery"],
)
def test_the_recorder_yields_each_validators_ordered_prefix_in_a_simulated_run(faults):
    config = ExperimentConfig(committee_size=4, input_load_tps=200.0, duration=30.0, warmup=2.0, seed=5,
                              extra_faults=faults)
    _, orders, result = run_recorded(config)
    assert_recorded_prefixes(orders, result)


LOCKSTEP = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=150.0, warmup=0.0, seed=5,
                            extra_faults=(CrashFault(validators=(3,), at_time=60.0),))


def test_the_recorder_yields_each_validators_ordered_prefix_in_lockstep():
    runner = LockstepSimulationRunner(LOCKSTEP)
    orders = record_orders(runner.nodes)
    assert_recorded_prefixes(orders, runner.run())


def test_the_recorder_yields_each_validators_ordered_prefix_over_sockets(monkeypatch):
    orders = {}

    class RecordedRunner(net_runner.SocketRunner):
        def __init__(self, *args):
            super().__init__(*args)
            orders.update(record_orders(self.nodes))

    monkeypatch.setattr(net_runner, "SocketRunner", RecordedRunner)
    assert_recorded_prefixes(orders, run_net_experiment(LOCKSTEP))
