"""Property-based tests for consensus safety.

The central safety property (Total Order) must hold no matter in which
order vertices reach a validator and no matter which subsets of validators
participate in each round.  These tests build one global DAG, then feed it
to independent consensus instances in different randomized orders and
check that all instances produce the same total order (prefix-wise) and
the same schedule history.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.schedule.round_robin import initial_schedule
from tests.doubles import OrderRecorder


@st.composite
def dag_scenario(draw):
    """A random global DAG: committee size, rounds, per-round participants."""
    size = draw(st.integers(min_value=4, max_value=7))
    committee = Committee.build(size)
    rounds = draw(st.integers(min_value=4, max_value=12))
    quorum = committee.quorum_threshold
    participation = []
    for _ in range(rounds):
        participants = draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                min_size=quorum,
                max_size=size,
                unique=True,
            )
        )
        participation.append(sorted(participants))
    shuffle_seed = draw(st.integers(min_value=0, max_value=10_000))
    return committee, participation, shuffle_seed


def build_global_dag(committee, participation):
    """All vertices of a run where each round's participants reference every
    vertex of the previous round."""
    vertices = list(genesis_vertices(committee))
    previous = [vertex.id for vertex in vertices]
    for round_number, participants in enumerate(participation, start=1):
        current = []
        for source in participants:
            vertex = make_vertex(round_number, source, edges=previous)
            vertices.append(vertex)
            current.append(vertex.id)
        previous = current
    return vertices


def run_consensus(committee, vertices, order_seed, dynamic):
    """Feed ``vertices`` to a fresh consensus instance in a random order;
    return it, its schedule manager and the recorder of its ordered output."""
    dag = DagStore(committee)
    schedule = initial_schedule(committee, seed=0, permute=False)
    if dynamic:
        manager = HammerHeadScheduleManager(committee, schedule, policy=CommitCountPolicy(3))
    else:
        manager = StaticScheduleManager(committee, schedule)
    consensus = BullsharkConsensus(owner=0, committee=committee, dag=dag, schedule_manager=manager)
    order = OrderRecorder(consensus)
    shuffled = list(vertices)
    random.Random(order_seed).shuffle(shuffled)
    for vertex in shuffled:
        inserted_before = len(dag)
        dag.add(vertex)
        if len(dag) != inserted_before:
            consensus.try_commit()
    # One final attempt once everything is present.
    consensus.try_commit()
    return consensus, manager, order


class TestTotalOrderProperty:
    @given(dag_scenario())
    @settings(max_examples=40, deadline=None)
    def test_same_order_regardless_of_delivery_order_static(self, scenario):
        committee, participation, shuffle_seed = scenario
        vertices = build_global_dag(committee, participation)
        first, _, first_order = run_consensus(committee, vertices, order_seed=shuffle_seed, dynamic=False)
        second, _, second_order = run_consensus(committee, vertices, order_seed=shuffle_seed + 1, dynamic=False)
        assert first_order.ids() == second_order.ids()
        assert first.ordering_digest == second.ordering_digest

    @given(dag_scenario())
    @settings(max_examples=40, deadline=None)
    def test_same_order_regardless_of_delivery_order_hammerhead(self, scenario):
        committee, participation, shuffle_seed = scenario
        vertices = build_global_dag(committee, participation)
        _, manager_a, first = run_consensus(committee, vertices, order_seed=shuffle_seed, dynamic=True)
        _, manager_b, second = run_consensus(
            committee, vertices, order_seed=shuffle_seed + 17, dynamic=True
        )
        assert first.ids() == second.ids()
        # Schedule Agreement (Proposition 1): identical schedule histories.
        history_a = [(schedule.epoch, schedule.initial_round, schedule.slots) for schedule in manager_a.history]
        history_b = [(schedule.epoch, schedule.initial_round, schedule.slots) for schedule in manager_b.history]
        assert history_a == history_b

    @given(dag_scenario())
    @settings(max_examples=40, deadline=None)
    def test_no_duplicates_and_causal_order(self, scenario):
        committee, participation, shuffle_seed = scenario
        vertices = build_global_dag(committee, participation)
        _, _, order = run_consensus(committee, vertices, order_seed=shuffle_seed, dynamic=True)
        ordered = order.ids()
        assert len(ordered) == len(set(ordered))
        # Causal order: a vertex never appears before one of its ancestors.
        positions = {vertex_id: index for index, vertex_id in enumerate(ordered)}
        by_id = {vertex.id: vertex for vertex in vertices}
        for vertex_id in ordered:
            vertex = by_id[vertex_id]
            for parent in vertex.edges:
                if parent in positions:
                    assert positions[parent] < positions[vertex_id]

    @given(dag_scenario())
    @settings(max_examples=30, deadline=None)
    def test_static_prefix_of_partial_delivery(self, scenario):
        """A validator that has seen only a prefix of the DAG orders a prefix
        of what a validator with the full DAG orders (no divergence)."""
        committee, participation, shuffle_seed = scenario
        vertices = build_global_dag(committee, participation)
        max_round = max(vertex.round for vertex in vertices)
        cutoff = max(2, max_round - 2)
        partial_vertices = [vertex for vertex in vertices if vertex.round <= cutoff]
        _, _, partial = run_consensus(committee, partial_vertices, order_seed=shuffle_seed, dynamic=False)
        _, _, full = run_consensus(committee, vertices, order_seed=shuffle_seed, dynamic=False)
        partial_ids = partial.ids()
        full_ids = full.ids()
        assert partial_ids == full_ids[: len(partial_ids)]
