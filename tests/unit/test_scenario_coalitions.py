"""Scenario-engine tests for the coalition fault kinds, the coalition
selector, the scoring_rules sweep axis, and ScenarioSpec.then edge cases."""

import pytest

from repro.behavior import (
    AdaptiveEquivocationPolicy,
    AdaptiveSilentFanoutPolicy,
    CoalitionGamingPolicy,
    ColludingSilencePolicy,
)
from repro.errors import ConfigurationError
from repro.faults.behavior import BehaviorFault
from repro.scenarios import ScenarioSpec, compile_spec, get_scenario
from repro.scenarios.spec import FaultSpec


def behavior_plans(spec, committee_size=None):
    points = compile_spec(spec)
    if committee_size is not None:
        points = [p for p in points if p.committee_size == committee_size]
    return [
        plan
        for plan in points[0].config.extra_faults
        if isinstance(plan, BehaviorFault)
    ]


class TestCoalitionFaultSpecs:
    def test_coalition_selector_compiles_coordinated(self):
        spec = ScenarioSpec(
            name="c",
            committee_sizes=(10,),
            faults=(FaultSpec(kind="adaptive-dos", coalition=(7, 8, 9), stride=2),),
        ).validate()
        (plan,) = behavior_plans(spec)
        assert plan.coordinated
        assert tuple(plan.validators) == (7, 8, 9)
        policy = plan.policy_factory()
        assert isinstance(policy, AdaptiveSilentFanoutPolicy)
        assert policy.stride == 2

    def test_tail_selector_also_works_for_coalition_kinds(self):
        spec = ScenarioSpec(
            name="c",
            committee_sizes=(10,),
            faults=(FaultSpec(kind="coalition-gaming", count=3),),
        ).validate()
        (plan,) = behavior_plans(spec)
        assert plan.coordinated
        assert sorted(plan.validators) == [7, 8, 9]
        assert isinstance(plan.policy_factory(), CoalitionGamingPolicy)

    def test_colluding_silence_resolves_victims(self):
        spec = ScenarioSpec(
            name="c",
            committee_sizes=(10,),
            faults=(
                FaultSpec(
                    kind="colluding-silence",
                    coalition=(8, 9),
                    targets=(1, 2),
                    at=1.0,
                    end=5.0,
                ),
            ),
        ).validate()
        (plan,) = behavior_plans(spec)
        policy = plan.policy_factory()
        assert isinstance(policy, ColludingSilencePolicy)
        assert policy.victims == (1, 2)

    def test_adaptive_equivocation_is_not_coordinated(self):
        spec = ScenarioSpec(
            name="c",
            committee_sizes=(10,),
            faults=(FaultSpec(kind="adaptive-equivocation", validators=(9,)),),
        ).validate()
        (plan,) = behavior_plans(spec)
        assert not plan.coordinated
        assert isinstance(plan.policy_factory(), AdaptiveEquivocationPolicy)

    def test_coalition_selector_rejected_for_non_coalition_kinds(self):
        with pytest.raises(ConfigurationError, match="coalition"):
            FaultSpec(kind="lazy-leader", coalition=(8, 9)).validate()

    def test_coalition_and_count_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="exactly one selector"):
            FaultSpec(kind="adaptive-dos", coalition=(8, 9), count=2).validate()

    def test_duplicate_members_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            FaultSpec(kind="adaptive-dos", coalition=(8, 8)).validate()

    def test_stride_validation(self):
        with pytest.raises(ConfigurationError, match="stride"):
            FaultSpec(kind="lazy-leader", validators=(9,), stride=2).validate()
        with pytest.raises(ConfigurationError, match="at least 1"):
            FaultSpec(kind="adaptive-dos", coalition=(8, 9), stride=0).validate()

    def test_round_trip_preserves_coalition_fields(self):
        spec = ScenarioSpec(
            name="c",
            faults=(FaultSpec(kind="adaptive-dos", coalition=(7, 8, 9), stride=2),),
        ).validate()
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.scenario_digest() == spec.scenario_digest()

    def test_defaults_omitted_from_canonical_form(self):
        # Specs that do not use the new fields serialize exactly as
        # before, so historical scenario digests are untouched.
        data = get_scenario("reputation-gamer").to_dict()
        fault = data["faults"][0]
        assert "coalition" not in fault
        assert "stride" not in fault
        assert "scoring_rules" not in data

    def test_smoke_shrinks_coalition_to_two_members(self):
        spec = get_scenario("adaptive-dos").smoke()
        assert spec.committee_sizes == (4,)
        fault = spec.faults[0]
        assert fault.coalition == (3, 2)
        (plan,) = behavior_plans(spec)
        assert plan.coordinated


class TestScoringRulesAxis:
    def test_axis_fans_out_points_per_rule(self):
        spec = ScenarioSpec(
            name="axis",
            protocols=("hammerhead",),
            scoring_rules=("hammerhead", "completeness"),
        ).validate()
        points = compile_spec(spec)
        assert [point.scoring for point in points] == ["hammerhead", "completeness"]
        assert [point.config.scoring for point in points] == [
            "hammerhead",
            "completeness",
        ]

    def test_empty_axis_uses_the_single_rule(self):
        points = compile_spec(ScenarioSpec(name="single", scoring="shoal"))
        assert [point.scoring for point in points] == ["shoal", "shoal"] or [
            point.scoring for point in points
        ] == ["shoal"]
        assert all(point.config.scoring == "shoal" for point in points)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scoring rule"):
            ScenarioSpec(name="bad", scoring="nope").validate()
        with pytest.raises(ConfigurationError, match="scoring_rules"):
            ScenarioSpec(name="bad", scoring_rules=("hammerhead", "nope")).validate()

    def test_repeated_rule_rejected(self):
        with pytest.raises(ConfigurationError, match="repeat"):
            ScenarioSpec(
                name="bad", scoring_rules=("hammerhead", "hammerhead")
            ).validate()
