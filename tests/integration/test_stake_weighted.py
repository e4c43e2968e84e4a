"""Integration tests with heterogeneous stake.

The introduction motivates HammerHead with real blockchains where
validators hold different amounts of stake and high-stake validators lead
more often — and therefore hurt more when they fail.  These tests run the
full system with a geometric stake distribution and check that leader
frequency follows stake and that HammerHead still removes a crashed
high-stake validator from the schedule.
"""

from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner
from repro.faults.crash import CrashFault
from tests.doubles import FlatNetwork, run_recorded


def stake_config(**overrides):
    base = dict(
        protocol="hammerhead",
        committee_size=7,
        stake="geometric",
        input_load_tps=120.0,
        duration=30.0,
        warmup=8.0,
        seed=6,
        commits_per_schedule=5,
        leader_timeout=1.0,
        min_round_interval=0.10,
    )
    base.update(overrides)
    base["extra_faults"] = (FlatNetwork(), *base.get("extra_faults", ()))
    return ExperimentConfig(**base)


def run_runner(config):
    runner = SimulationRunner(config)
    return runner, runner.run()


class TestStakeWeightedCommittee:
    def test_leader_slots_proportional_to_stake(self):
        runner, result = run_runner(stake_config(protocol="bullshark"))
        committee = runner.committee
        schedule = runner.nodes[0].schedule_manager.active_schedule
        counts = schedule.slot_counts()
        by_stake = sorted(committee.validators, key=lambda validator: (-committee.stake_of(validator), validator))
        heaviest, lightest = by_stake[0], by_stake[-1]
        assert counts.get(heaviest, 0) > counts.get(lightest, 0)

    def test_system_is_live_and_safe_with_weighted_stake(self):
        _, orders, result = run_recorded(stake_config())
        assert result.report.commits > 5
        sequences = [order.ids() for order in orders.values()]
        shortest = min(len(sequence) for sequence in sequences)
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference

    def test_crashed_high_stake_validator_loses_slots(self):
        runner, result = run_runner(
            stake_config(
                duration=45.0,
                warmup=15.0,
                extra_faults=(CrashFault(validators=(1,), at_time=0.0),),
            )
        )
        observer = runner.nodes[0]
        final_schedule = observer.schedule_manager.active_schedule
        initial_schedule = observer.schedule_manager.history[0]
        # Validator 1 holds multiple slots initially (high stake) and none
        # once the reputation schedule reacts to its crash.
        assert initial_schedule.slots_of(1) >= 1
        assert final_schedule.slots_of(1) == 0
        assert result.report.schedule_changes >= 1
        assert result.report.commits > 5
