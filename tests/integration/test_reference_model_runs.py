"""Whole runs checked against the reference model, on all three engines.

Each test records the observer's insert log while a scenario runs — on the
discrete-event simulator, in lockstep mode on the simulator, or over real
asyncio sockets — and replays it through ``tests/reference_model.py``.
The model must arrive at the observer's ordering digest, ordered count and
schedule-change records; it shares no code with the store, the commit rule
or the schedule manager that produced them.
"""

import pytest

import repro.netexec.runner as net_runner
from repro.faults.partition import NetworkDisturbanceFault
from repro.netexec.lockstep import LockstepSimulationRunner
from repro.netexec.runner import run_net_experiment
from repro.obs.consistency import check_run_consistency
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import compile_spec
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner
from tests.conftest import model_mismatches, record_insert_log, reference_model_for
from tests.doubles import dag_vertices


def run_on_simulator(runner_class, config):
    runner = runner_class(config)
    observer = runner.nodes[config.observer]
    return observer, record_insert_log(observer), runner.run()


def run_over_sockets(config, monkeypatch):
    captured = {}

    class RecordedRunner(net_runner.SocketRunner):
        def __init__(self, *args):
            super().__init__(*args)
            observer = captured["observer"] = self.nodes[config.observer]
            captured["log"] = record_insert_log(observer)

    monkeypatch.setattr(net_runner, "SocketRunner", RecordedRunner)
    result = run_net_experiment(config)
    return captured["observer"], captured["log"], result


def assert_model_reproduces(observer, insert_log, result):
    model = reference_model_for(observer.schedule_manager)
    model.replay(insert_log, keep_rounds=observer.config.gc_depth)
    assert model_mismatches(observer.consensus, model) == []
    # The run's published evidence is what the model reproduced.
    assert result.ordering_digests[observer.id] == (
        model.ordered_count,
        model.ordering_digest,
    )
    assert model.ordered_count > 0


def smoke_points(name):
    return [point.config for point in compile_spec(get_scenario(name).smoke())]


@pytest.mark.parametrize("backend", ["sim", "lockstep", "net"])
@pytest.mark.parametrize("scenario", ["faultless", "figure2-faults"])
def test_model_reproduces_smoke_scenario(scenario, backend, monkeypatch):
    protocols = set()
    for config in smoke_points(scenario):
        if backend == "sim":
            run = run_on_simulator(SimulationRunner, config)
        elif backend == "lockstep":
            run = run_on_simulator(LockstepSimulationRunner, config)
        else:
            run = run_over_sockets(config, monkeypatch)
        assert_model_reproduces(*run)
        protocols.add(config.protocol)
    # Both the static-schedule baseline and HammerHead were replayed.
    assert protocols == {"bullshark", "hammerhead"}


def test_model_reproduces_lossy_recovery():
    """Full scale: fetched and promoted vertices feed the insert log.

    Fetch responses carry mostly vertices the requester lacked (at most
    1.5 received per new one), and every validator's committed prefix
    agrees with every other's.
    """
    (config,) = [point.config for point in compile_spec(get_scenario("lossy-recovery"))]
    observer, insert_log, result = run_on_simulator(SimulationRunner, config)
    counters = result.counters["always"]
    assert counters["node.fetch_requests"] > 0
    assert 0 < counters["fetch.vertices_received"] <= 1.5 * counters["fetch.vertices_new"]
    assert check_run_consistency(result.ordering_digests, result.ordering_checkpoints) == []
    assert_model_reproduces(observer, insert_log, result)


# The observer's (ordered count, ordering digest) of ``lossy-recovery`` per
# seed.  Every lost certificate is recovered by a fetch, so a change to the
# synchronizer, the broadcast layer or the loss model that moves one of
# these changes which history a lossy run commits.
LOSSY_RECOVERY_DIGESTS = {
    1: (341, "5c96fe9eba756c485cfebb4dd14242bd15d4e22a873f39c0e51d4c1b8d10d4dc"),
    2: (321, "d325e8f6bff8460fdcfd7a301477554f0655f3967a8897c846420443b35e9826"),
    3: (341, "dbb35a3f92bbe9e3101e1aa8e5ab3aaa614cc5d24c33f36dffcf7cdc26868a29"),
    4: (341, "dd4dd3f990f862746187748bc40c5f9a8d54260606a2758774ca7fb0e43179b9"),
    5: (356, "6342e4370eb63177f872af0a4fa7051e7abb748ddcf182cc8c2f5541cc1f3346"),
    6: (341, "2212377b94355edd57c8eb7a9384eb32c2017867df5f22f6985fdeefe76b4186"),
    7: (391, "d5e4898e745d409639fcf15b5e7ffc2aeed0a2e796dcaed732eadd0569ce67d7"),
    8: (341, "d6b2bacb5815846b27743240d820a1a168efd72ede5a1642d7b5ac20feb2e234"),
    9: (341, "bbef79e46506da1e226eada729dc9c1e51e95d62d293fdb78cda275a77b637bf"),
    10: (321, "8bdb302de228a93c8f3ac8f4083ff0fe00d2a55b5350968ff161d29dd569005a"),
}


@pytest.mark.parametrize(
    "seed", sorted(LOSSY_RECOVERY_DIGESTS), ids=[f"seed{seed}" for seed in sorted(LOSSY_RECOVERY_DIGESTS)]
)
def test_lossy_recovery_seed_commits_its_pinned_history(seed):
    """On every seed the fetch recovers what the loss window took, wastes
    at most half a vertex per new one, and every validator's committed
    prefix agrees; the observer's history is the pinned one and the model
    reproduces it."""
    (point,) = compile_spec(get_scenario("lossy-recovery"), seed=seed)
    observer, insert_log, result = run_on_simulator(SimulationRunner, point.config)
    counters = result.counters["always"]
    assert counters["node.fetch_requests"] > 0
    assert 0 < counters["fetch.vertices_received"] <= 1.5 * counters["fetch.vertices_new"]
    assert check_run_consistency(result.ordering_digests, result.ordering_checkpoints) == []
    assert result.ordering_digests[observer.id] == LOSSY_RECOVERY_DIGESTS[seed]
    assert_model_reproduces(observer, insert_log, result)


LARGER_RUNS = [
    # (committee_size, faults, with_loss_window, protocol, duration)
    pytest.param(10, 0, False, "bullshark", 6.0, id="b10"),
    pytest.param(25, 0, False, "hammerhead", 6.0, id="h25"),
    pytest.param(10, 3, False, "hammerhead", 8.0, id="h10-faults"),
    pytest.param(25, 0, True, "hammerhead", 5.0, id="h25-loss-window"),
    pytest.param(50, 16, False, "bullshark", 4.0, id="b50-faults"),
]


@pytest.mark.parametrize("size,faults,with_loss,protocol,duration", LARGER_RUNS)
def test_model_reproduces_larger_committees(size, faults, with_loss, protocol, duration):
    loss_window = NetworkDisturbanceFault(
        jitter=0.02, loss_rate=0.12, start=duration / 4, end=duration / 2
    )
    config = ExperimentConfig(
        protocol=protocol,
        committee_size=size,
        faults=faults,
        fault_time=duration / 3 if faults else 0.0,
        input_load_tps=500.0,
        duration=duration,
        warmup=1.0,
        seed=11,
        commits_per_schedule=4,
        extra_faults=(loss_window,) if with_loss else (),
    )
    assert_model_reproduces(*run_on_simulator(SimulationRunner, config))


def test_model_reproduces_a_run_that_garbage_collects():
    """Long enough for the GC horizon to move, with a crashed leader and a
    loss window: pruning, parking and promotion all reach the model."""
    config = ExperimentConfig(
        committee_size=10,
        faults=1,
        input_load_tps=200.0,
        duration=60.0,
        warmup=1.0,
        seed=3,
        commits_per_schedule=4,
        extra_faults=(
            NetworkDisturbanceFault(jitter=0.02, loss_rate=0.05, start=30.0, end=36.0),
        ),
    )
    observer, insert_log, result = run_on_simulator(SimulationRunner, config)
    assert observer.dag.lowest_round > 0
    assert observer.dag.pending_peak > 0
    assert_model_reproduces(observer, insert_log, result)


def test_model_follows_a_validator_through_recovery_and_state_sync():
    """A validator of ``rolling-crash-churn`` crashes, rebuilds its DAG from
    its store, finds its peers' history pruned and state-syncs.  Recovery
    keeps the commit record, so the model follows one insert log across
    the crash; the DAG the validator rebuilt must be the model's window,
    and seeded with the snapshot the validator adopted the model must
    still arrive at its digest and its schedules."""
    (config,) = [
        point.config
        for point in compile_spec(get_scenario("rolling-crash-churn"))
        if point.protocol == "hammerhead"
    ]
    runner = SimulationRunner(config)
    node = runner.nodes[9]
    # ("insert", vertex) | ("recover", ids of the rebuilt DAG) |
    # ("sync", adopted snapshot), in the order they happened.  The
    # insertion subscribers move to the rebuilt DAG with the node's own.
    events = []
    adopting = []
    node.dag.replace_insert_callbacks(
        [lambda vertex: events.append(("insert", vertex)), node._on_vertex_inserted]
    )
    fast_forward = node.consensus.fast_forward

    def recorded_fast_forward(horizon_round):
        # The first step of an adoption; vertices the adoption's GC
        # promotes are inserted after it.
        events.append(("sync", adopting[-1]))
        return fast_forward(horizon_round)

    recover, maybe_state_sync = node.recover, node._maybe_state_sync

    def recorded_recover():
        recover()
        events.append(("recover", {vertex.id for vertex in dag_vertices(node.dag)}))

    def recorded_state_sync(sender, response):
        adopting.append(response.snapshot)
        maybe_state_sync(sender, response)

    node.consensus.fast_forward = recorded_fast_forward
    node.recover, node._maybe_state_sync = recorded_recover, recorded_state_sync
    result = runner.run()

    keep_rounds = node.config.gc_depth
    model = reference_model_for(node.schedule_manager)
    for kind, payload in events:
        if kind == "insert":
            model.replay([payload], keep_rounds)
        elif kind == "recover":
            assert set(model.dag) == payload
        else:
            model.adopt_snapshot(payload)
    assert node.recoveries == 1
    # Validators 9, 8 and 7 each replayed at most the GC window.
    replayed = [peer.recovery_replayed for peer in runner.nodes.values() if peer.recoveries]
    assert len(replayed) == 3
    assert all(0 < count <= (keep_rounds + 4) * config.committee_size for count in replayed)
    assert result.counters["always"]["node.recovery_replayed"] == sum(replayed)
    assert node.consensus.state_sync_gaps
    assert model_mismatches(node.consensus, model) == []
    assert model.schedule_changes
