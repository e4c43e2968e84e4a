"""Differential pin: HonestPolicy runs are byte-identical to the pre-policy tree.

The behavior-policy refactor routed every validator decision point
(parent selection, proposal timing, fan-out, ack participation, fetch
service) through a policy indirection.  The honest default must be a
pure fast path: the digests below were recorded at the PR 3 HEAD
(commit ``69a3c5b``, before ``repro.behavior`` existed) and every run
here must still reproduce them bit for bit.

Two families are pinned:

* dedicated committee-10/25/50 configurations with a crash plan and a
  jitter/loss window (the fault classes whose hot paths the refactor
  touched), and
* every scenario of the PR 3 registry at smoke scale — including
  ``targeted-leader-attack``, whose vote-withholding fault installs
  :class:`~repro.behavior.adversarial.VoteWithholdingPolicy` through a
  behavior fault, so this additionally pins the policy port against the
  hook it replaced.
"""

import pytest

from repro.faults.crash import CrashFault
from repro.faults.partition import NetworkDisturbanceFault
from repro.scenarios import get_scenario
from repro.scenarios.matrix import matrix_spec
from repro.scenarios.spec import compile_spec
from repro.sim.experiment import ExperimentConfig, run_experiment

# (ordered_count, ordering_digest) of the observer, recorded pre-refactor.
PR3_CONFIG_DIGESTS = {
    10: (117, "3a97d1ffbaf9dbae809a45b388e08ab818ec36260fbd1de15d097bdd0e24cc3a"),
    25: (477, "83fd3d9cedde7752b5b2ed940bc5a6b6b20c2cf8718898c81a236b36abff6b6d"),
    50: (888, "29dace5faf4a16b77caed1bd9cef45ea7cd4576d12b332b61a98fa9484eb7a18"),
}

# Per registry scenario (smoke scale): [protocol, load, count, digest] per
# compiled point, in compile order.  Recorded pre-refactor.
PR3_SCENARIO_DIGESTS = {
    "faultless": [
        ["hammerhead", 300.0, 129, "bfde0f6a6af855804dd571f6c3fef4b2a36c660afcc4c30e201bc47b7aba8c60"],
        ["bullshark", 300.0, 129, "b2610f9c6c4825f08c0c44e22169c072730f1e5814183f71e44e5d228dd040de"],
    ],
    "figure2-faults": [
        ["hammerhead", 300.0, 50, "9d43b4ac028af553f5c0f2185f344ba4b10f4ed3fd2ee9d95d73b297a928464c"],
        ["bullshark", 300.0, 50, "9d43b4ac028af553f5c0f2185f344ba4b10f4ed3fd2ee9d95d73b297a928464c"],
    ],
    "sui-incident": [
        ["bullshark", 130.0, 51, "e21c228eaf017fed7c17c519dfd21a772a27aa9582125d37c418ce67bbfb2ec2"],
        ["hammerhead", 130.0, 51, "e21c228eaf017fed7c17c519dfd21a772a27aa9582125d37c418ce67bbfb2ec2"],
    ],
    "rolling-crash-churn": [
        ["hammerhead", 300.0, 32, "15b1dea0c5d090a778de2f745982f2292fdb60ea64a805dd25a17a721b184198"],
        ["bullshark", 300.0, 32, "15b1dea0c5d090a778de2f745982f2292fdb60ea64a805dd25a17a721b184198"],
    ],
    "targeted-leader-attack": [
        ["hammerhead", 300.0, 129, "58969e8e000a4234f5d1ec227f398812448274216ea8660fce7f3b2d0d094a72"],
        ["bullshark", 300.0, 129, "738d5f4b899a5650398480752788fbf69f8d37961d392b20242db58276f9e970"],
    ],
    "asymmetric-partition": [
        ["hammerhead", 300.0, 85, "d318822791fc10ce90436f367693a98afee982508f8c325e3f40eaa0093db38f"],
        ["bullshark", 300.0, 85, "d318822791fc10ce90436f367693a98afee982508f8c325e3f40eaa0093db38f"],
    ],
    "load-spike": [
        ["hammerhead", 303.448, 129, "d6ea54c8ea48d927d0fb1c54a0fe6c16d8edc5d735c3c8a498ae69551790e542"],
        ["bullshark", 303.448, 129, "8d11259bc0972a0d6b74bfb0787965d52bd134517f9c13100297932f06ead469"],
    ],
    "mixed-adversary": [
        ["hammerhead", 268.966, 48, "8e59bf68ce79320e45878a2d95ddc70aa58c37ab3c485b2502fe9e85966ce939"],
        ["bullshark", 268.966, 48, "8e59bf68ce79320e45878a2d95ddc70aa58c37ab3c485b2502fe9e85966ce939"],
    ],
}

# Per PR 4 registry scenario (smoke scale): the same shape, recorded at
# the PR 4 HEAD (commit ``924cf69``) immediately before the scoring-view
# refactor and the coalition adversaries landed.  The scoring stack grew
# a view, a registry, and a fourth rule in this PR; none of it may move
# a single byte of these runs.
PR4_SCENARIO_DIGESTS = {
    "equivocation-split": [
        ["hammerhead", 300.0, 129, "7e67eb06b346c052653dbabeaf501fcdef0df619fcb992028571ddfbf3d228c6"],
        ["bullshark", 300.0, 129, "51e823f618fd2275b9cb1c1d97e3041a11fb4f5f49c7b6ac0d37beb4514a9cfb"],
    ],
    "silent-saboteur": [
        ["hammerhead", 300.0, 129, "7a5dfb8735bfac1270128298e756ad01eff00b6ef921559b3e4afc8a0b2a7460"],
        ["bullshark", 300.0, 129, "dea7aee9a58b1c0a06e06dc0eddcb60278b0acf4e7f6119dc5b9a5d747e1afed"],
    ],
    "lazy-leader": [
        ["hammerhead", 300.0, 51, "01bc30cfb644d2ff165b02bb7820a356ba5656a8f93b06f32ecda83b2fb44073"],
        ["bullshark", 300.0, 51, "01bc30cfb644d2ff165b02bb7820a356ba5656a8f93b06f32ecda83b2fb44073"],
    ],
    "reputation-gamer": [
        ["hammerhead", 300.0, 129, "bbbd10b0de25438cb2107e430fdbd9fbbaee108243ae8f5aee0756182bbf3a6e"],
        ["bullshark", 300.0, 129, "738d5f4b899a5650398480752788fbf69f8d37961d392b20242db58276f9e970"],
    ],
    "partition-failover": [
        ["hammerhead", 300.0, 85, "d318822791fc10ce90436f367693a98afee982508f8c325e3f40eaa0093db38f"],
        ["bullshark", 300.0, 85, "d318822791fc10ce90436f367693a98afee982508f8c325e3f40eaa0093db38f"],
    ],
    "maintenance-churn+recovery-spike": [
        ["hammerhead", 248.69, 97, "76b698e6b22579e04757bc8c05d66a61867326d5e7055f5e42e45686de4e8239"],
        ["bullshark", 248.69, 97, "eca3283bef95a269183a0c10d1f9c0c7fededb18e9df9c94c606aac10850173c"],
    ],
}

# Smoke-scale attack x scoring-rule matrix cells: per attack, [rule,
# count, digest] per compiled point, in compile order.  Both rules order
# the same history at this scale.
MATRIX_SMOKE_DIGESTS = {
    "reputation-gamer": [
        ["hammerhead", 129, "bbbd10b0de25438cb2107e430fdbd9fbbaee108243ae8f5aee0756182bbf3a6e"],
        ["completeness", 129, "bbbd10b0de25438cb2107e430fdbd9fbbaee108243ae8f5aee0756182bbf3a6e"],
    ],
    "adaptive-dos": [
        ["hammerhead", 128, "c7a6753795dff1b175403f85bf655692a046091b05b0ff935666ca068526e23e"],
        ["completeness", 128, "c7a6753795dff1b175403f85bf655692a046091b05b0ff935666ca068526e23e"],
    ],
}


def differential_config(committee_size: int) -> ExperimentConfig:
    """The exact configuration the pre-refactor digests were recorded with."""
    return ExperimentConfig(
        committee_size=committee_size,
        input_load_tps=800.0,
        duration=10.0,
        warmup=2.0,
        seed=3,
        extra_faults=(
            CrashFault(validators=(committee_size - 1,), at_time=3.0),
            NetworkDisturbanceFault(jitter=0.05, loss_rate=0.02, start=4.0, end=7.0),
        ),
    )


class TestHonestPolicyDifferential:
    @pytest.mark.parametrize("committee_size", sorted(PR3_CONFIG_DIGESTS))
    def test_committee_run_matches_pre_refactor_digest(self, committee_size):
        result = run_experiment(differential_config(committee_size))
        assert tuple(result.ordering_digests[0]) == PR3_CONFIG_DIGESTS[committee_size]

    @pytest.mark.parametrize("name", sorted(PR3_SCENARIO_DIGESTS))
    def test_registry_scenario_matches_pre_refactor_digest(self, name):
        expected = PR3_SCENARIO_DIGESTS[name]
        points = compile_spec(get_scenario(name).smoke())
        assert len(points) == len(expected)
        for point, (protocol, load, count, digest) in zip(points, expected):
            assert point.protocol == protocol
            assert point.load == pytest.approx(load)
            result = run_experiment(point.config)
            observed_count, observed_digest = result.ordering_digests[0]
            assert (observed_count, observed_digest) == (count, digest), (
                f"{name} [{point.config.label()}] diverged from the "
                f"pre-refactor ordering"
            )

    def test_honest_runs_carry_no_behavior_overhead_state(self):
        # The honest policy is shared and transparent: after a full run,
        # no node may hold a non-transparent policy.
        result = run_experiment(differential_config(10))
        assert result.reputation["faulty_validators"] == [9]

    @pytest.mark.parametrize("name", sorted(PR4_SCENARIO_DIGESTS))
    def test_pr4_scenario_matches_pre_refactor_digest(self, name):
        expected = PR4_SCENARIO_DIGESTS[name]
        points = compile_spec(get_scenario(name).smoke())
        assert len(points) == len(expected)
        for point, (protocol, load, count, digest) in zip(points, expected):
            assert point.protocol == protocol
            assert point.load == pytest.approx(load)
            result = run_experiment(point.config)
            observed_count, observed_digest = result.ordering_digests[0]
            assert (observed_count, observed_digest) == (count, digest), (
                f"{name} [{point.config.label()}] diverged from the PR 4 ordering"
            )

    @pytest.mark.parametrize("scoring", ["shoal", "carousel"])
    @pytest.mark.parametrize("committee_size", sorted(PR3_CONFIG_DIGESTS))
    def test_every_existing_rule_reproduces_the_pinned_digest(
        self, scoring, committee_size
    ):
        """The registry refactor may not move a byte under any old rule.

        At the PR 4 HEAD these configurations produced identical digests
        under all three rules (the single early crash dominates every
        ranking), so the hammerhead-recorded pins cover shoal and
        carousel too — re-verified at capture time.
        """
        config = differential_config(committee_size).with_overrides(scoring=scoring)
        result = run_experiment(config)
        assert tuple(result.ordering_digests[0]) == PR3_CONFIG_DIGESTS[committee_size]

    @pytest.mark.parametrize("attack", sorted(MATRIX_SMOKE_DIGESTS))
    def test_matrix_smoke_cell_matches_pinned_digest(self, attack):
        expected = MATRIX_SMOKE_DIGESTS[attack]
        rules = [rule for rule, _, _ in expected]
        points = compile_spec(matrix_spec(attack, rules, smoke=True))
        assert len(points) == len(expected)
        for point, (rule, count, digest) in zip(points, expected):
            assert point.scoring == rule
            result = run_experiment(point.config)
            observed = tuple(result.ordering_digests[point.config.observer])
            assert observed == (count, digest), f"{attack}/{rule} diverged"
