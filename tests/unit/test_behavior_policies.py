"""Unit tests for the behavior-policy engine and the curated adversaries."""

import pickle

import pytest

from repro.behavior import (
    HONEST,
    BehaviorPolicy,
    EquivocationPolicy,
    FanoutSend,
    HonestPolicy,
    LazyLeaderPolicy,
    ReputationGamingPolicy,
    SilentFanoutPolicy,
    VoteWithholdingPolicy,
    full_fanout,
)
from repro.committee import Committee
from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.faults.behavior import BehaviorFault
from repro.metrics.reputation import reputation_metrics
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.node.config import NodeConfig
from repro.node.messages import FetchRequest
from repro.node.validator import ValidatorNode
from repro.schedule.base import LeaderSchedule
from repro.schedule.round_robin import initial_schedule
from repro.types import VertexId, is_anchor_round
from tests.doubles import UniformLatencyModel


def build_cluster(size=4, seed=1, dynamic=False, commits_per_schedule=4):
    committee = Committee.build(size)
    simulator = Simulator(seed=seed)
    network = Network(
        simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.002)
    )
    node_config = NodeConfig(
        max_batch_size=50,
        min_round_interval=0.05,
        leader_timeout=0.5,
    )

    def manager_factory():
        schedule = initial_schedule(committee, seed=seed, permute=False)
        if dynamic:
            return HammerHeadScheduleManager(
                committee, schedule, policy=CommitCountPolicy(commits_per_schedule)
            )
        return StaticScheduleManager(committee, schedule)

    nodes = {}
    for validator in committee.validators:
        nodes[validator] = ValidatorNode(
            validator_id=validator,
            committee=committee,
            network=network,
            schedule_manager=manager_factory(),
            config=node_config,
        )
    return committee, simulator, network, nodes


def acked_digest(node, origin, round_number):
    """The digest ``node`` acknowledged for ``origin``'s proposal at ``round_number``."""
    acked = node.broadcast_protocol._acked.get(round_number)
    return None if acked is None else acked[origin]


def start_all(nodes):
    for node in nodes.values():
        node.start()


class TestPolicyPlumbing:
    def test_nodes_start_with_the_shared_honest_policy(self):
        _, _, _, nodes = build_cluster()
        for node in nodes.values():
            assert node.behavior is HONEST
            assert node.broadcast_protocol.policy is HONEST
        assert HONEST.transparent

    def test_set_behavior_attaches_and_syncs_the_protocol(self):
        _, _, _, nodes = build_cluster()
        node = nodes[1]
        policy = VoteWithholdingPolicy()
        node.set_behavior(policy)
        assert node.behavior is policy
        assert node.broadcast_protocol.policy is policy
        assert policy.node is node
        node.set_behavior(None)
        assert node.behavior is HONEST
        assert node.broadcast_protocol.policy is HONEST
        assert policy.node is None

    def test_policy_survives_crash_recovery(self):
        _, simulator, _, nodes = build_cluster()
        start_all(nodes)
        simulator.run(until=1.0)
        node = nodes[2]
        policy = SilentFanoutPolicy(targets=(1,))
        node.set_behavior(policy)
        node.crash()
        simulator.run(until=1.5)
        node.recover()
        # The rebuilt broadcast protocol shares the installed policy.
        assert node.broadcast_protocol.policy is policy

    def test_default_hooks_are_honest(self):
        policy = BehaviorPolicy()
        parents = [VertexId(round=1, source=0)]
        assert policy.select_parents(2, parents) == parents
        assert policy.proposal_delay(2) == 0.0
        assert policy.plan_fanout(object(), 2, (0, 1, 2)) is None
        assert policy.should_ack(1, 2)
        assert policy.should_serve_fetch(1)
        assert not policy.transparent
        assert HonestPolicy().transparent

    def test_full_fanout_excludes(self):
        plan = full_fanout((0, 1, 2, 3), exclude=(2,))
        assert [send.recipient for send in plan] == [0, 1, 3]
        assert all(send.payload is None and send.delay == 0.0 for send in plan)


class TestFanoutEnactment:
    def test_drop_delay_and_substitution_directives(self):
        """A custom plan drops one peer, delays another, keeps the rest."""

        class Shaper(BehaviorPolicy):
            def plan_fanout(self, message, round_number, recipients):
                plan = []
                for recipient in recipients:
                    if recipient == 1:
                        continue  # drop
                    plan.append(
                        FanoutSend(recipient, delay=0.5 if recipient == 2 else 0.0)
                    )
                return plan

        _, simulator, _, nodes = build_cluster()
        nodes[0].set_behavior(Shaper())
        start_all(nodes)
        simulator.run(until=0.3)
        # Node 1 never heard node 0's proposal directly: it has not acked it.
        assert acked_digest(nodes[1], origin=0, round_number=1) is None
        # Node 2's copy was held back by 0.5s and cannot have arrived yet.
        assert acked_digest(nodes[2], origin=0, round_number=1) is None
        simulator.run(until=1.5)
        assert acked_digest(nodes[2], origin=0, round_number=1) is not None


class TestVoteWithholding:
    def test_withholder_omits_leader_edges(self):
        _, simulator, _, nodes = build_cluster(dynamic=True)
        adversary = 3
        nodes[adversary].set_behavior(VoteWithholdingPolicy())
        start_all(nodes)
        simulator.run(until=4.0)
        observer = nodes[0]
        omitted = 0
        for round_number in range(2, observer.current_round - 1):
            if not is_anchor_round(round_number):
                continue
            leader = observer.schedule_manager.leader_for_round(round_number)
            if leader == adversary:
                continue
            vertex = observer.dag.vertex_of(round_number + 1, adversary)
            if vertex is None:
                continue
            leader_vertex = VertexId(round=round_number, source=leader)
            if leader_vertex not in vertex.edges:
                omitted += 1
        assert omitted > 0

    def test_withholder_scores_below_honest(self):
        _, simulator, _, nodes = build_cluster(dynamic=True, commits_per_schedule=50)
        nodes[3].set_behavior(VoteWithholdingPolicy())
        start_all(nodes)
        simulator.run(until=4.0)
        scores = nodes[0].schedule_manager.scores.as_dict()
        assert scores[3] < min(scores[v] for v in (0, 1, 2))


class TestEquivocation:
    def test_victims_ack_the_conflicting_digest_but_safety_holds(self):
        _, simulator, _, nodes = build_cluster()
        adversary, victim = 3, 1
        nodes[adversary].set_behavior(EquivocationPolicy(victims=(victim,)))
        start_all(nodes)
        simulator.run(until=4.0)
        diverged = [
            round_number
            for round_number, acked in nodes[victim].broadcast_protocol._acked.items()
            if acked[adversary] is not None
            and acked_digest(nodes[0], adversary, round_number) not in (None, acked[adversary])
        ]
        assert diverged, "the victim never saw a conflicting proposal"
        # The conflicting vertex must not have entered any DAG: every node
        # stores the same (certified) content for the adversary's rounds.
        for round_number in range(1, nodes[0].current_round - 1):
            digests = {
                node.dag.vertex_of(round_number, adversary).digest
                for node in nodes.values()
                if node.dag.vertex_of(round_number, adversary) is not None
            }
            assert len(digests) <= 1
        # Orderings agree everywhere (Integrity + Agreement preserved).
        assert len({node.consensus.ordering_digest for node in nodes.values()}) == 1

    def test_conflicting_vertex_differs_only_in_content(self):
        from repro.dag.vertex import make_vertex

        _, _, _, nodes = build_cluster()
        policy = EquivocationPolicy(victims=(1,))
        policy.attach(nodes[3])
        parents = [VertexId(round=0, source=validator) for validator in range(4)]
        vertex = make_vertex(1, 3, edges=parents, block=("tx",))
        twin = policy._conflicting_vertex(vertex)
        assert twin is not None
        assert twin.id == vertex.id
        assert twin.digest != vertex.digest


class TestSilentFanout:
    def test_target_is_starved_but_not_stalled(self):
        _, simulator, _, nodes = build_cluster()
        adversary, target = 3, 1
        nodes[adversary].set_behavior(SilentFanoutPolicy(targets=(target,)))
        start_all(nodes)
        simulator.run(until=5.0)
        # The adversary never acknowledged the target's broadcasts...
        target_acks = nodes[target].broadcast_protocol._ack_masks
        assert all(not mask >> adversary & 1 for mask in target_acks.values())
        # ...nor did the target ever hear a proposal from the adversary.
        assert all(
            acked[adversary] is None for acked in nodes[target].broadcast_protocol._acked.values()
        )
        # Liveness survives: the target keeps up through third parties.
        assert nodes[target].current_round > 10
        assert nodes[target].commit_count > 0
        assert len({node.consensus.ordering_digest for node in nodes.values()}) == 1

    def test_fetch_requests_from_targets_are_ignored(self):
        _, simulator, network, nodes = build_cluster()
        adversary, target = 3, 1
        nodes[adversary].set_behavior(SilentFanoutPolicy(targets=(target,)))
        start_all(nodes)
        simulator.run(until=1.0)
        sent_before = network.stats.messages_sent
        nodes[adversary].synchronizer.on_request(
            target, FetchRequest(requester=target, missing=(VertexId(round=1, source=0),))
        )
        assert network.stats.messages_sent == sent_before
        # An honest requester is still served.
        nodes[adversary].synchronizer.on_request(
            2, FetchRequest(requester=2, missing=(VertexId(round=1, source=0),))
        )
        assert network.stats.messages_sent == sent_before + 1


class TestLazyLeader:
    def test_delay_applies_only_to_own_leader_slots(self):
        _, _, _, nodes = build_cluster()
        node = nodes[1]
        policy = LazyLeaderPolicy(delay=2.0)
        policy.attach(node)
        own_slots = [
            round_number
            for round_number in range(2, 30, 2)
            if node.schedule_manager.leader_for_round(round_number) == node.id
        ]
        assert own_slots
        assert all(policy.proposal_delay(r) == 2.0 for r in own_slots)
        others = [r for r in range(2, 30, 2) if r not in own_slots]
        assert all(policy.proposal_delay(r) == 0.0 for r in others)
        assert all(policy.proposal_delay(r) == 0.0 for r in range(1, 30, 2))

    def test_lazy_leader_causes_leader_timeouts(self):
        _, simulator, _, nodes = build_cluster()
        nodes[3].set_behavior(LazyLeaderPolicy(delay=2.0))
        start_all(nodes)
        simulator.run(until=6.0)
        honest_timeouts = sum(nodes[v].leader_timeouts_suffered for v in (0, 1, 2))
        assert honest_timeouts > 0
        # The committee as a whole keeps committing despite the laziness.
        assert nodes[0].commit_count > 0


class TestReputationGaming:
    def test_honest_window_tracks_base_schedule_slots(self):
        _, _, _, nodes = build_cluster()
        node = nodes[2]
        policy = ReputationGamingPolicy(window=2)
        policy.attach(node)
        base = node.schedule_manager.history[0]
        for round_number in range(2, 40):
            anchors = [
                anchor
                for anchor in range(max(2, round_number - 2), round_number + 3)
                if anchor % 2 == 0
            ]
            expected = any(
                base.leader_for_round(anchor) == node.id for anchor in anchors
            )
            assert policy._near_own_slot(round_number) == expected

    def test_gamer_scores_between_withholder_and_honest(self):
        def epoch_scores(policy_factory):
            _, simulator, _, nodes = build_cluster(dynamic=True, commits_per_schedule=50)
            if policy_factory is not None:
                nodes[3].set_behavior(policy_factory())
            start_all(nodes)
            simulator.run(until=4.0)
            return nodes[0].schedule_manager.scores.as_dict()[3]

        honest = epoch_scores(None)
        gamer = epoch_scores(lambda: ReputationGamingPolicy(window=2))
        withholder = epoch_scores(VoteWithholdingPolicy)
        assert withholder < gamer <= honest

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            ReputationGamingPolicy(window=-1)


class TestBehaviorFault:
    def test_windowed_install_and_restore(self):
        _, simulator, network, nodes = build_cluster()
        fault = BehaviorFault(
            validators=(2, 3),
            policy_factory=VoteWithholdingPolicy,
            start=1.0,
            end=2.0,
        )
        observations = {}
        simulator.schedule_at(0.5, lambda: observations.update(before=type(nodes[2].behavior)))
        simulator.schedule_at(1.5, lambda: observations.update(during=type(nodes[2].behavior)))
        simulator.schedule_at(2.5, lambda: observations.update(after=type(nodes[3].behavior)))
        fault.schedule(simulator, network, nodes)
        start_all(nodes)
        simulator.run(until=3.0)
        assert observations["before"] is HonestPolicy
        assert observations["during"] is VoteWithholdingPolicy
        assert observations["after"] is HonestPolicy

    def test_each_validator_gets_its_own_policy_instance(self):
        _, simulator, network, nodes = build_cluster()
        fault = BehaviorFault(validators=(1, 2), policy_factory=VoteWithholdingPolicy)
        fault.schedule(simulator, network, nodes)
        start_all(nodes)
        simulator.run(until=0.5)
        assert nodes[1].behavior is not nodes[2].behavior
        assert nodes[1].behavior.node is nodes[1]
        assert nodes[2].behavior.node is nodes[2]

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            BehaviorFault(validators=(1,), policy_factory=VoteWithholdingPolicy, start=2.0, end=1.0)

    def test_describe_names_the_policy(self):
        fault = BehaviorFault(
            validators=(1,), policy_factory=VoteWithholdingPolicy, start=3.0
        )
        assert "vote withholding" in fault.describe()
        assert "[1]" in fault.describe()

    def test_compiled_behavior_plans_are_picklable(self):
        from repro.scenarios import get_scenario
        from repro.scenarios.spec import compile_spec

        for name in ("equivocation-split", "silent-saboteur", "lazy-leader", "reputation-gamer"):
            for point in compile_spec(get_scenario(name)):
                clone = pickle.loads(pickle.dumps(point.config))
                assert clone.extra_faults[0].describe() == point.config.extra_faults[0].describe()


class TestReputationMetrics:
    def test_metrics_from_fabricated_history(self):
        committee = Committee.build(4)
        manager = StaticScheduleManager(
            committee, LeaderSchedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3))
        )
        # Fabricate two schedule changes demoting validator 3.
        manager.history.append(LeaderSchedule(epoch=1, initial_round=10, slots=(0, 1, 2, 0)))
        manager.history.append(LeaderSchedule(epoch=2, initial_round=20, slots=(0, 1, 2, 3)))
        metrics = reputation_metrics(manager, faulty=(3,))
        assert metrics["faulty_validators"] == [3]
        assert metrics["schedule_changes"] == 2
        assert metrics["rounds_until_demotion"] == {3: 10}
        assert metrics["demoted_epochs"] == {3: 1}
        assert metrics["faulty_slot_share_initial"] == 0.25
        assert metrics["faulty_slot_share_final"] == 0.25
        assert metrics["faulty_slot_share_converged"] == pytest.approx(0.125)
        assert metrics["trajectory"] == []

    def test_never_demoted_is_none(self):
        committee = Committee.build(4)
        manager = StaticScheduleManager(
            committee, LeaderSchedule(epoch=0, initial_round=0, slots=(0, 1, 2, 3))
        )
        metrics = reputation_metrics(manager, faulty=(2,))
        assert metrics["rounds_until_demotion"] == {2: None}
        assert metrics["faulty_slot_share_converged"] == 0.25
