"""Runs suspend the cyclic garbage collector: simulated and socket runs alike.

Inside a run the collector is off; on exit it is back on and swept once,
young generations only (``gc.collect(1)``).  A caller that had it off
keeps it off, unswept.
"""

import gc

import pytest

import repro.netexec.runner as net_runner
from repro.netexec.runner import run_net_experiment
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner, collector_suspended


@pytest.fixture
def sweeps(monkeypatch):
    """The generation of every ``gc.collect`` call, the collector on to begin with."""
    calls = []
    monkeypatch.setattr(gc, "collect", lambda generation=2: calls.append(generation) or 0)
    was_enabled = gc.isenabled()
    gc.enable()
    yield calls
    if not was_enabled:
        gc.disable()


def test_the_collector_is_off_inside_and_swept_once_on_exit(sweeps):
    with collector_suspended():
        assert not gc.isenabled()
    assert gc.isenabled() and sweeps == [1]


def test_a_collector_that_was_off_stays_off_and_unswept(sweeps):
    gc.disable()
    try:
        with collector_suspended():
            assert not gc.isenabled()
        assert not gc.isenabled() and sweeps == []
    finally:
        gc.enable()


def test_an_error_inside_still_turns_it_back_on(sweeps):
    with pytest.raises(RuntimeError):
        with collector_suspended():
            raise RuntimeError("the run failed")
    assert gc.isenabled() and sweeps == [1]


SMALL = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=12.0, warmup=0.0, seed=3)


def test_a_simulated_run_runs_with_the_collector_off(sweeps, monkeypatch):
    seen = []
    start_nodes = SimulationRunner._start_nodes
    monkeypatch.setattr(SimulationRunner, "_start_nodes", lambda self: (seen.append(gc.isenabled()), start_nodes(self)))
    SimulationRunner(SMALL).run()
    assert seen == [False] and gc.isenabled() and sweeps == [1]


def test_a_socket_run_runs_with_the_collector_off(sweeps, monkeypatch):
    seen = []

    class ObservedRunner(net_runner.SocketRunner):
        async def run_until_quiescent(self, runtime_limit):
            seen.append(gc.isenabled())
            return await super().run_until_quiescent(runtime_limit)

    monkeypatch.setattr(net_runner, "SocketRunner", ObservedRunner)
    result = run_net_experiment(SMALL)
    assert result.ordering_digests[0][0] > 0
    assert seen == [False] and gc.isenabled() and sweeps == [1]
