"""When a socket run ends: at the final round with no message in flight.

``SocketRunner`` returns at the first poll where every alive validator is
at the plan's final round and the transport's counters balance
(``messages_sent == messages_delivered + messages_dropped``).  These
tests hold the three things that rule rests on: a finished run ends with
the identity closed and the oracle's digests, a frame the transport
drops is counted, and a frame lost with a rejected connection is counted
too, so a damaged run ends long before ``runtime_limit``.
"""

from __future__ import annotations

import time

import pytest

import repro.netexec.runner as net_runner
from repro.netexec.codec import FrameError
from repro.netexec.lockstep import run_lockstep_experiment
from repro.netexec.runner import run_net_experiment
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import compile_spec
from repro.sim.experiment import ExperimentConfig


def run_capturing(config, monkeypatch, prepare=None, **options):
    """Run ``config`` over sockets; returns (result, the runner)."""
    captured = {}

    class CapturedRunner(net_runner.SocketRunner):
        def __init__(self, *args):
            super().__init__(*args)
            captured["runner"] = self
            if prepare is not None:
                prepare(self)

    monkeypatch.setattr(net_runner, "SocketRunner", CapturedRunner)
    result = run_net_experiment(config, **options)
    return result, captured["runner"]


def assert_ended_quiescent(result, runner):
    stats = runner.network.stats
    assert stats.messages_sent == stats.messages_delivered + stats.messages_dropped
    for node in runner.nodes.values():
        assert node.crashed or node.current_round >= runner.plan.max_round
    assert result.ordering_digests == run_lockstep_experiment(result.config).ordering_digests


@pytest.mark.parametrize("protocol", ["hammerhead", "bullshark"])
def test_faultless_smoke_run_ends_balanced_with_the_oracles_digests(protocol, monkeypatch):
    (config,) = [
        point.config for point in compile_spec(get_scenario("faultless").smoke())
        if point.config.protocol == protocol
    ]
    result, runner = run_capturing(config, monkeypatch)
    assert_ended_quiescent(result, runner)
    assert runner.network.stats.messages_dropped == 0


def test_crash_plan_ends_balanced_with_the_oracles_digests(monkeypatch):
    config = ExperimentConfig(
        committee_size=7, input_load_tps=0.0, duration=30.0, warmup=0.0, seed=3, faults=2, fault_time=5.0
    )
    result, runner = run_capturing(config, monkeypatch)
    assert_ended_quiescent(result, runner)
    assert sorted(v for v, node in runner.nodes.items() if node.crashed) == result.crashed_validators
    assert len(result.crashed_validators) == 2


def test_frames_a_drop_filter_sheds_are_counted_and_the_run_still_ends(monkeypatch):
    config = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=20.0, warmup=0.0, seed=4)
    to_two = []

    def drop_every_fortieth_frame_to_two(runner):
        def drop(sender, recipient, frame):
            if recipient != 2 or sender == 2:
                return False
            to_two.append(frame)
            return len(to_two) % 40 == 0

        runner.network.drop_filter = drop

    result, runner = run_capturing(config, monkeypatch, drop_every_fortieth_frame_to_two)
    stats = runner.network.stats
    assert stats.loss_drops == len(to_two) // 40 > 0
    assert stats.messages_dropped == stats.loss_drops
    assert_ended_quiescent(result, runner)


def test_a_rejected_connection_is_counted_and_ends_the_run_early(monkeypatch):
    """Validator 0 rejects its connection from validator 1 at round 6.

    Whatever 1 wrote into it that 0 had not read is lost: counted as
    dropped once both ends are gone, so the identity closes.  Validator
    0 fetches what 1 can no longer send it, and the run completes long
    before ``runtime_limit``.
    """
    config = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=20.0, warmup=0.0, seed=5)

    def reject_at_round_six(runner):
        node, transport = runner.nodes[0], runner.network
        enter_round = node._enter_round

        def enter_then_reject(round_number):
            enter_round(round_number)
            if round_number == 6:
                (connection,) = [
                    inbound for inbound in transport._inbound
                    if inbound._endpoint.node_id == 0 and inbound._peer == 1
                ]
                connection._reject(FrameError("rejected by the test"))

        node._enter_round = enter_then_reject

    runtime_limit = 60.0
    started = time.perf_counter()
    result, runner = run_capturing(config, monkeypatch, reject_at_round_six, runtime_limit=runtime_limit)
    assert time.perf_counter() - started < runtime_limit / 4
    assert any("closing connection from validator 1" in event for event in runner.network.events)
    assert runner.network.stats.messages_dropped > 0
    assert runner.nodes[0].synchronizer.requests_sent > 0
    assert_ended_quiescent(result, runner)
