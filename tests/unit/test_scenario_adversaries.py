"""Unit tests for the scenario-engine satellites of the adversary PR.

Covers the new behavior fault kinds, the ``then`` combinator,
committee-relative time expressions, and partition-aware load targeting.
"""

import json
import re

import pytest

from repro.behavior import (
    EquivocationPolicy,
    LazyLeaderPolicy,
    ReputationGamingPolicy,
    SilentFanoutPolicy,
)
from repro.committee import Committee
from repro.errors import ConfigurationError
from repro.faults.base import head_validators
from repro.faults.behavior import BehaviorFault
from repro.scenarios import (
    FaultSpec,
    PartitionSpec,
    ScenarioSpec,
    WorkloadSpec,
    all_scenarios,
    compile_spec,
    get_scenario,
    scenario_names,
)
from repro.scenarios.spec import resolve_time
from repro.sim.experiment import run_experiment


def behavior_spec(**fault_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="behavior-test",
        committee_sizes=(7,),
        loads=(300.0,),
        duration=20.0,
        warmup=5.0,
        faults=(FaultSpec(**fault_kwargs),),
    )


class TestBehaviorFaultKinds:
    @pytest.mark.parametrize(
        "kind,policy_cls",
        [
            ("equivocate", EquivocationPolicy),
            ("silent-fanout", SilentFanoutPolicy),
            ("lazy-leader", LazyLeaderPolicy),
            ("reputation-gaming", ReputationGamingPolicy),
        ],
    )
    def test_kind_compiles_to_behavior_fault(self, kind, policy_cls):
        spec = behavior_spec(kind=kind, count=1, at=2.0)
        (point,) = compile_spec(spec)
        (plan,) = point.config.extra_faults
        assert isinstance(plan, BehaviorFault)
        assert plan.start == 2.0
        assert isinstance(plan.policy_factory(), policy_cls)
        # Attackers come from the tail, observer protected.
        assert plan.validators == (6,)

    def test_round_trip_preserves_behavior_faults(self):
        spec = behavior_spec(kind="silent-fanout", count=2, at=1.0, end=9.0, target_count=2)
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.scenario_digest() == spec.scenario_digest()

    def test_targets_and_target_count_are_exclusive(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="equivocate", count=1, targets=(1,), target_count=2).validate()

    def test_targets_rejected_for_other_kinds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, targets=(1,)).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="slow", count=1, target_count=1).validate()

    @pytest.mark.parametrize(
        "entry, path",
        [
            # JSON true must not slip through as window=1 / target_count=1.
            pytest.param(
                {"faults": [{"kind": "reputation-gaming", "count": 1, "window": True}]},
                "faults[0].window",
                id="window-true",
            ),
            pytest.param(
                {"faults": [{"kind": "equivocate", "count": 1, "target_count": True}]},
                "faults[0].target_count",
                id="target_count-true",
            ),
            pytest.param(
                {"faults": [{"kind": "silent-fanout", "count": 1, "targets": [True]}]},
                "faults[0].targets[0]",
                id="targets-true",
            ),
            pytest.param(
                {"faults": [{"kind": "reputation-gaming", "count": 1, "window": "9"}]},
                "faults[0].window",
                id="window-string",
            ),
            pytest.param(
                {"faults": [{"kind": "slow", "count": 1, "extra_delay": True}]},
                "faults[0].extra_delay",
                id="extra_delay-true",
            ),
            pytest.param({"disturbances": [{"jitter": True}]}, "disturbances[0].jitter", id="jitter-true"),
            pytest.param({"faults": [{"kind": "crash", "fraction": True}]}, "faults[0].fraction", id="fraction-true"),
            pytest.param(
                {"partitions": [{"groups": [[1, "a"]]}]}, "partitions[0].groups[0][1]", id="groups-string"
            ),
            pytest.param({"faults": [{"kind": "crash", "count": 2.5}]}, "faults[0].count", id="count-float"),
            pytest.param({"workload": {"end_tps": False}}, "workload.end_tps", id="retired-end_tps-false"),
            pytest.param({"commits_per_schedule": 2.5}, "commits_per_schedule", id="commits_per_schedule-float"),
            pytest.param(
                {"faults": [{"kind": "crash", "max_faulty": 1}]}, "faults[0].max_faulty", id="max_faulty-int"
            ),
            pytest.param(
                {"faults": [{"kind": "crash", "validators": [1.5]}]},
                "faults[0].validators[0]",
                id="validators-float",
            ),
            pytest.param({"loads": [float("inf")]}, "loads[0]", id="loads-infinity"),
            pytest.param({"delta": float("nan")}, "delta", id="delta-nan"),
            pytest.param({"gst": float("inf")}, "gst", id="gst-infinity"),
            pytest.param({"gst": 10**400}, "gst", id="gst-huge-int"),
        ],
    )
    def test_boolean_and_wrong_typed_fields_rejected(self, entry, path):
        with pytest.raises(ConfigurationError, match=re.escape(f"scenario spec.{path} must be ")):
            ScenarioSpec.from_dict({"name": "typed", **entry})

    def test_minimal_fault_plan_subclass_survives_a_run(self):
        # A FaultPlan subclass implementing only schedule() must not crash
        # the reputation-metrics path at result-build time.
        from repro.faults.base import FaultPlan
        from repro.sim.experiment import ExperimentConfig

        class NoopPlan(FaultPlan):
            def schedule(self, simulator, network, nodes):
                return None

            def describe(self):
                return "noop"

        config = ExperimentConfig(
            committee_size=4,
            input_load_tps=100.0,
            duration=4.0,
            warmup=1.0,
            extra_faults=(NoopPlan(),),
        )
        result = run_experiment(config)
        assert result.reputation["faulty_validators"] == []

    def test_window_only_for_reputation_gaming(self):
        FaultSpec(kind="reputation-gaming", count=1, window=4).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="equivocate", count=1, window=4).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="reputation-gaming", count=1, window=-1).validate()

    def test_behavior_window_end_allowed(self):
        spec = behavior_spec(kind="lazy-leader", count=1, at=2.0, end=10.0, extra_delay=1.0)
        (point,) = compile_spec(spec)
        (plan,) = point.config.extra_faults
        assert (plan.start, plan.end) == (2.0, 10.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, end=5.0).validate()

    def test_victims_resolve_from_the_head(self):
        spec = behavior_spec(kind="equivocate", count=1, target_count=2)
        (point,) = compile_spec(spec)
        (plan,) = point.config.extra_faults
        policy = plan.policy_factory()
        assert policy.victims == head_validators(Committee.build(7), 2) == (1, 2)

    def test_explicit_targets_respected(self):
        spec = behavior_spec(kind="silent-fanout", count=1, targets=(2, 3))
        (point,) = compile_spec(spec)
        (plan,) = point.config.extra_faults
        assert plan.policy_factory().targets == (2, 3)

    def test_smoke_shrinks_targeted_behaviors(self):
        spec = behavior_spec(kind="equivocate", count=1, targets=(5, 6))
        smoke = spec.smoke()
        (fault,) = smoke.faults
        assert fault.targets == ()
        assert fault.target_count == 1
        compile_spec(smoke)


class TestRetiredSchema:
    """Options no product run selected were retired from the schema.

    The version-1 keys they left behind (``latency_model`` and four
    workload fields) stay in the canonical form at their former
    defaults, so recorded digests hold; a spec may state them only there.
    """

    @pytest.mark.parametrize(
        "entry, path",
        [
            pytest.param({"workload": {"kind": "ramp"}}, "workload.kind", id="ramp"),
            pytest.param({"workload": {"kind": "diurnal"}}, "workload.kind", id="diurnal"),
            pytest.param({"stake": "zipf"}, "stake", id="zipf"),
            pytest.param({"latency_model": "uniform"}, "latency_model", id="uniform-latency"),
            pytest.param({"workload": {"steps": 2}}, "workload.steps", id="steps"),
            pytest.param({"workload": {"end_tps": 400.0}}, "workload.end_tps", id="end_tps"),
            pytest.param({"workload": {"amplitude": 50.0}}, "workload.amplitude", id="amplitude"),
            pytest.param({"workload": {"period": 10.0}}, "workload.period", id="period"),
            pytest.param({"workload": {"steps": 4.0}}, "workload.steps", id="steps-float-default"),
        ],
    )
    def test_retired_values_are_refused_by_path(self, entry, path):
        with pytest.raises(ConfigurationError, match=re.escape(f"scenario spec.{path} ")):
            ScenarioSpec.from_dict({"name": "retired", **entry})

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param({"latency_model": "geo"}, id="latency_model"),
            pytest.param({"workload": {"end_tps": 0.0}}, id="end_tps"),
            pytest.param({"workload": {"end_tps": 0}}, id="end_tps-int-zero"),
            pytest.param({"workload": {"steps": 4}}, id="steps"),
            pytest.param({"workload": {"amplitude": 0.0}}, id="amplitude"),
            pytest.param({"workload": {"period": 0.0}}, id="period"),
        ],
    )
    def test_a_retired_key_at_its_fixed_value_changes_nothing(self, entry):
        spec = ScenarioSpec.from_dict({"name": "retired", **entry})
        assert spec == ScenarioSpec(name="retired")
        assert spec.scenario_digest() == ScenarioSpec(name="retired").scenario_digest()

    def test_the_parents_form_keeps_its_digest(self):
        # Spec JSON as revisions before the retirement wrote it, every
        # retired key at its default; digests recorded then.
        old_form = {
            "name": "retired-defaults",
            "latency_model": "geo",
            "workload": {"kind": "constant", "tps": 1000.0, "end_tps": 0.0, "steps": 4, "amplitude": 0.0, "period": 0.0},
        }
        spec = ScenarioSpec.from_json(json.dumps(old_form))
        assert spec.scenario_digest() == "159b7f37a5dce4a74cb7f96f0620361891ea417d480c126b05912edca1419820"
        assert ScenarioSpec(name="retired-defaults").scenario_digest() == spec.scenario_digest()
        burst = {
            "name": "retired-burst",
            "stake": "geometric",
            "latency_model": "geo",
            "workload": {"kind": "burst", "tps": 800, "burst_tps": 2000, "burst_start": 5, "burst_end": 10, "steps": 4},
        }
        assert (
            ScenarioSpec.from_dict(burst).scenario_digest()
            == "4858147c2e7aa700c4964d1141b87cf79eab8c874df6a6211ced6e1994013dcb"
        )
        canonical = spec.to_dict()
        assert canonical["latency_model"] == "geo"
        assert {key: canonical["workload"][key] for key in ("end_tps", "steps", "amplitude", "period")} == {
            "end_tps": 0.0,
            "steps": 4,
            "amplitude": 0.0,
            "period": 0.0,
        }

    def test_a_spec_built_in_python_is_refused_too(self):
        with pytest.raises(ConfigurationError, match="zipf"):
            ScenarioSpec(name="retired", stake="zipf").validate()
        with pytest.raises(ConfigurationError, match="ramp"):
            ScenarioSpec(name="retired", workload=WorkloadSpec(kind="ramp")).validate()


class TestTimeExpressions:
    def test_resolution_per_committee_size(self):
        expression = {"base": 2.0, "per_validator": 0.5}
        assert resolve_time(expression, 10) == 7.0
        assert resolve_time(expression, 50) == 27.0
        assert resolve_time(3.5, 50) == 3.5
        assert resolve_time(None, 50) is None

    def test_fault_times_resolve_at_compile_time(self):
        spec = ScenarioSpec(
            name="relative",
            committee_sizes=(4, 10),
            loads=(200.0,),
            duration=60.0,
            warmup=5.0,
            faults=(
                FaultSpec(
                    kind="crash",
                    validators=(3,),
                    at={"base": 1.0, "per_validator": 0.5},
                ),
            ),
        )
        points = compile_spec(spec)
        starts = {
            point.committee_size: point.config.extra_faults[0].at_time
            for point in points
        }
        assert starts == {4: 3.0, 10: 6.0}

    def test_builtin_crash_time_resolves_too(self):
        spec = ScenarioSpec(
            name="relative-builtin",
            committee_sizes=(10,),
            loads=(200.0,),
            duration=60.0,
            faults=(
                FaultSpec(kind="crash", max_faulty=True, at={"per_validator": 0.25}),
            ),
        )
        (point,) = compile_spec(spec)
        assert point.config.fault_time == 2.5
        assert point.config.faults == 3

    def test_expression_round_trips_and_digests(self):
        spec = ScenarioSpec(
            name="expr",
            committee_sizes=(4,),
            duration=30.0,
            faults=(
                FaultSpec(
                    kind="slow",
                    count=1,
                    at={"base": 1.0, "per_validator": 0.5},
                    end={"base": 20.0},
                    extra_delay=0.3,
                ),
            ),
        )
        text = spec.to_json()
        clone = ScenarioSpec.from_json(text)
        assert clone == spec
        assert clone.scenario_digest() == spec.scenario_digest()
        assert json.loads(text)["faults"][0]["at"] == {"base": 1.0, "per_validator": 0.5}

    def test_bad_expressions_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, at={"surprise": 1.0}).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, at={}).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, at={"base": -1.0}).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, at={"base": True}).validate()

    def test_inverted_slow_window_fails_at_compile(self):
        # validate() cannot order an expression against a literal; the
        # compiler must reject the resolved inversion instead of letting
        # the restore event fire before the install.
        spec = ScenarioSpec(
            name="inverted-slow",
            committee_sizes=(25,),
            duration=60.0,
            faults=(
                FaultSpec(
                    kind="slow",
                    count=1,
                    at={"per_validator": 1.0},
                    end=20.0,
                    extra_delay=0.3,
                ),
            ),
        )
        with pytest.raises(ConfigurationError):
            compile_spec(spec)

    def test_unresolvable_recovery_order_fails_at_compile(self):
        spec = ScenarioSpec(
            name="bad-order",
            committee_sizes=(10,),
            duration=60.0,
            faults=(
                FaultSpec(
                    kind="crash-recovery",
                    validators=(9,),
                    at={"base": 0.0, "per_validator": 1.0},
                    recover_at=5.0,
                ),
            ),
        )
        with pytest.raises(ConfigurationError):
            compile_spec(spec)

    def test_smoke_resolves_expressions(self):
        spec = ScenarioSpec(
            name="expr-smoke",
            committee_sizes=(25,),
            duration=30.0,
            faults=(
                FaultSpec(kind="crash", count=1, at={"base": 2.0, "per_validator": 0.4}),
            ),
        )
        smoke = spec.smoke()
        (fault,) = smoke.faults
        # Resolved against the smoke committee (4), then time-scaled by 1/2.
        assert fault.at == pytest.approx(1.8)


class TestPartitionFailover:
    def test_field_round_trips(self):
        spec = ScenarioSpec(
            name="failover",
            committee_sizes=(8,),
            loads=(200.0,),
            duration=20.0,
            warmup=5.0,
            partitions=(PartitionSpec(isolate_fraction=0.25, start=5.0, end=12.0),),
            partition_failover=True,
        )
        clone = ScenarioSpec.from_json(spec.to_json())
        assert clone.partition_failover
        (point,) = compile_spec(clone)
        assert point.config.partition_failover

    def test_failover_starves_the_minority_side(self):
        def run(failover):
            spec = ScenarioSpec(
                name="failover-run",
                committee_sizes=(8,),
                loads=(400.0,),
                duration=16.0,
                warmup=2.0,
                seed=5,
                partitions=(PartitionSpec(groups=((6, 7),), start=2.0, end=14.0),),
                partition_failover=failover,
            )
            (point,) = compile_spec(spec)
            from repro.sim.runner import SimulationRunner

            runner = SimulationRunner(point.config)
            runner.run()
            return {
                validator: node.transaction_pool.received
                for validator, node in runner.nodes.items()
            }

        with_failover = run(True)
        without = run(False)
        # The minority side receives strictly less client load once
        # clients fail over; the majority side picks up the difference.
        assert with_failover[6] + with_failover[7] < without[6] + without[7]
        assert sum(with_failover.values()) >= sum(without.values())

    def test_default_off_preserves_legacy_behavior(self):
        spec = get_scenario("asymmetric-partition")
        assert not spec.partition_failover
        (point, *_) = compile_spec(spec)
        assert not point.config.partition_failover


class TestScenarioDigestStability:
    # scenario_digest() values recorded at the PR 3 HEAD (commit 69a3c5b),
    # before FaultSpec.targets/target_count/window and
    # ScenarioSpec.partition_failover existed.  The canonical dictionary
    # form omits those fields at their defaults, so specs that do not use
    # them must keep hashing exactly as they always did.
    PR3_SCENARIO_DIGESTS = {
        "faultless": "63cedb4a64322ee07a36686b4a260111cb76adafd5222daa72f5a1301bfd68fb",
        "figure2-faults": "0cbd9d48412843358a41c8c5099ce1ab9ac42108998fca5c12d4331b8b44e17a",
        "sui-incident": "6a43aba37fd0a61532508e8275c2da1c6572ba2d30013566fe5a60e3c8487966",
        "rolling-crash-churn": "596a5bebcdf0741ec8628d8b79daf44dd954c9e0037a6a3d7dcacb1d2a7b945a",
        "targeted-leader-attack": "144cd8c3f1a14cbfcae9c08c2a90b295c53a4d289ddaffc32baba51442b5472e",
        "asymmetric-partition": "be8d16af0fa4c5ce2e6b410998b636847cad1a40af0b2534577cceae6bf2a94b",
        "load-spike": "5b801cb94ba8889f064f911ff1b765aebc5e54364c5bfdfc9b97a2c06516b688",
        "mixed-adversary": "306f9268dbad2e69e1d24a42906751b15f13d691783b1e9a1d8ca045a017708b",
    }

    def test_pre_existing_scenario_digests_unchanged(self):
        for name, digest in self.PR3_SCENARIO_DIGESTS.items():
            assert get_scenario(name).scenario_digest() == digest, name

    # Every registered scenario's scenario_digest(): a spec field added,
    # removed or serialised differently must leave the specs that do not
    # use it hashing as they did.  A scenario whose own definition is
    # edited updates its entry here.
    REGISTERED_SCENARIO_DIGESTS = {
        **PR3_SCENARIO_DIGESTS,
        "equivocation-split": "025d5943e6ef266c06bb0894c56db15de11f5450fbb6a51049d94321df40e49a",
        "silent-saboteur": "dbc68b21c690e79b98173fb8d2e44f70a64cdec887e7560db6315cd7505244a2",
        "lazy-leader": "a7f3cbe8b719d17f8f19b39887ba3e79f38fb654c8d66ef8a25a9af803af99f0",
        "reputation-gamer": "d459ba5493815d5cc503d69a2a7fbbcd5f5cee5ad42ff59d2a2be532ad0c4d8e",
        "partition-failover": "4b45b91cb8dd9c59dd5e71e239dfd8aa2d687bcecdd76325f09125675597099a",
        "reputation-gamer-strict": "a523eca4cdc2a76e14a2662e8a3275e0fae18f18410c89c621817e7952fb581f",
        "colluding-silence": "223c84095172035eb840a2d3f40f958ef0497e12464cdf9d61a45875809514db",
        "adaptive-dos": "9813ffc99056774aee652dd54f11c0c8b8764380794d5d10587981d11caa3c84",
        "coalition-gaming": "8cd55c6b81a7bdb6696e1883523ac30373226d1627cbeef6565828f99ecdeed5",
        "adaptive-equivocation": "ce204f9de89751fa099fd31648c537f714c4d52202df60edb056e743cc2f7288",
        "maintenance-churn+recovery-spike": "59017a97a187cc3ad8a149299a87ac8cb7ae8cb9e0aad1402e535c1b02139558",
        "lossy-recovery": "96e2900070bccb96b05212fb01ec2810d886dd2fd52261df4033fe357196da13",
    }

    @pytest.mark.parametrize("name", sorted(REGISTERED_SCENARIO_DIGESTS))
    def test_registered_scenario_digest_is_pinned(self, name):
        assert get_scenario(name).scenario_digest() == self.REGISTERED_SCENARIO_DIGESTS[name]

    def test_every_registered_scenario_has_a_pinned_digest(self):
        assert set(all_scenarios()) == set(self.REGISTERED_SCENARIO_DIGESTS)

    def test_new_fields_participate_when_set(self):
        base = ScenarioSpec(name="digest-probe", committee_sizes=(4,), duration=20.0)
        assert (
            base.with_overrides(partition_failover=True).scenario_digest()
            != base.scenario_digest()
        )
        targeted = base.with_overrides(
            faults=(FaultSpec(kind="silent-fanout", count=1, target_count=1),)
        )
        retargeted = base.with_overrides(
            faults=(FaultSpec(kind="silent-fanout", count=1, target_count=2),)
        )
        assert targeted.scenario_digest() != retargeted.scenario_digest()


class TestRegistryAdditions:
    def test_new_scenarios_are_registered(self):
        expected = {
            "equivocation-split",
            "silent-saboteur",
            "lazy-leader",
            "reputation-gamer",
            "partition-failover",
            "maintenance-churn+recovery-spike",
        }
        assert expected <= set(scenario_names())
        assert len(scenario_names()) >= 14

    def test_adversarial_scenarios_compile_to_behavior_faults(self):
        policy_by_scenario = {
            "equivocation-split": EquivocationPolicy,
            "silent-saboteur": SilentFanoutPolicy,
            "lazy-leader": LazyLeaderPolicy,
            "reputation-gamer": ReputationGamingPolicy,
        }
        for name, policy_cls in policy_by_scenario.items():
            for point in compile_spec(get_scenario(name)):
                plans = [
                    plan
                    for plan in point.config.extra_faults
                    if isinstance(plan, BehaviorFault)
                ]
                assert plans, name
                assert isinstance(plans[0].policy_factory(), policy_cls)

    def test_combined_scenario_smokes_and_runs(self):
        smoke = get_scenario("maintenance-churn+recovery-spike").smoke()
        (point, *_) = compile_spec(smoke)
        result = run_experiment(point.config)
        assert result.report.committed_transactions > 0

    def test_all_scenarios_still_compile(self):
        for name, spec in all_scenarios().items():
            points = compile_spec(spec)
            assert points, name
            smoke_points = compile_spec(spec.smoke())
            assert smoke_points, name
