"""Property-based tests for DAG invariants and schedule-change invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.core.schedule_change import compute_next_schedule, select_swap_sets
from repro.core.scores import ReputationScores
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.schedule.base import LeaderSchedule
from repro.schedule.round_robin import initial_schedule
from tests.doubles import dag_vertices


# -- random DAG growth ---------------------------------------------------------------

committee_sizes = st.integers(min_value=4, max_value=10)


@st.composite
def dag_growth_plan(draw):
    """A random plan: committee size, rounds, and per-round participation."""
    size = draw(committee_sizes)
    committee = Committee.build(size)
    rounds = draw(st.integers(min_value=1, max_value=8))
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
    return committee, participation


def grow_dag(committee, participation, shuffle_seed=None):
    """Build a DAG following ``participation`` (who proposes per round)."""
    dag = DagStore(committee)
    vertices = list(genesis_vertices(committee))
    previous = {vertex.source: vertex.id for vertex in vertices}
    all_vertices = list(vertices)
    for round_index, participants in enumerate(participation, start=1):
        current = {}
        for source in participants:
            vertex = make_vertex(round_index, source, edges=list(previous.values()))
            current[source] = vertex.id
            all_vertices.append(vertex)
        previous = current
    return dag, all_vertices


class TestDagProperties:
    @given(dag_growth_plan())
    @settings(max_examples=60, deadline=None)
    def test_causal_completeness_in_any_insertion_order(self, plan):
        """Claim 1: a vertex only enters the DAG once its history is present,
        regardless of the order in which vertices arrive."""
        committee, participation = plan
        dag, vertices = grow_dag(committee, participation)
        # Insert in reverse round order (worst case for buffering).
        for vertex in sorted(vertices, key=lambda vertex: -vertex.round):
            dag.add(vertex)
            for inserted in dag_vertices(dag):
                for parent in inserted.edges:
                    assert parent in dag
        # Everything was eventually inserted.
        assert len(dag) == len(vertices)
        assert len(dag.pending_vertices()) == 0

    @given(dag_growth_plan())
    @settings(max_examples=60, deadline=None)
    def test_path_respects_round_monotonicity(self, plan):
        committee, participation = plan
        dag, vertices = grow_dag(committee, participation)
        for vertex in vertices:
            dag.add(vertex)
        highest = dag.highest_round()
        if highest < 1:
            return
        top = dag.vertices_at(highest)[0]
        for target in dag.vertices_at(0):
            # Full participation by construction of edges: every round-0
            # vertex referenced by round-1 is reachable from any top vertex.
            if dag.path(top.id, target.id):
                assert target.round <= top.round

    @given(dag_growth_plan())
    @settings(max_examples=60, deadline=None)
    def test_causal_history_is_downward_closed(self, plan):
        committee, participation = plan
        dag, vertices = grow_dag(committee, participation)
        for vertex in vertices:
            dag.add(vertex)
        highest = dag.highest_round()
        root = dag.vertices_at(highest)[0]
        history = dag.causal_history(root.id)
        history_ids = {vertex.id for vertex in history}
        for vertex in history:
            for parent in vertex.edges:
                assert parent in history_ids


# -- schedule-change properties -----------------------------------------------------------


@st.composite
def scored_committee(draw):
    size = draw(st.integers(min_value=4, max_value=16))
    committee = Committee.build(size)
    scores = ReputationScores(committee)
    for validator in committee.validators:
        scores.add(validator, float(draw(st.integers(min_value=0, max_value=50))))
    fraction = draw(st.sampled_from([0.2, 1.0 / 3.0, 0.25]))
    return committee, scores, fraction


class TestScheduleChangeProperties:
    @given(scored_committee())
    @settings(max_examples=100, deadline=None)
    def test_swap_sets_are_disjoint_equal_size_and_within_budget(self, data):
        committee, scores, fraction = data
        demoted, promoted = select_swap_sets(scores, committee, exclude_fraction=fraction)
        assert len(demoted) == len(promoted)
        assert not set(demoted) & set(promoted)
        assert committee.stake(demoted) <= int(fraction * committee.total_stake)

    @given(scored_committee())
    @settings(max_examples=100, deadline=None)
    def test_demoted_have_no_higher_score_than_promoted(self, data):
        committee, scores, fraction = data
        demoted, promoted = select_swap_sets(scores, committee, exclude_fraction=fraction)
        if not demoted:
            return
        worst_promoted = min(scores.as_dict()[validator] for validator in promoted)
        best_demoted = max(scores.as_dict()[validator] for validator in demoted)
        assert best_demoted <= worst_promoted

    @given(scored_committee(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_next_schedule_preserves_slot_count_and_membership(self, data, seed):
        committee, scores, fraction = data
        previous = initial_schedule(committee, seed=seed)
        next_schedule = compute_next_schedule(
            previous, scores, committee, new_initial_round=previous.initial_round + 20,
            exclude_fraction=fraction,
        )
        assert len(next_schedule.slots) == len(previous.slots)
        assert set(next_schedule.slots) <= set(committee.validators)
        assert next_schedule.epoch == previous.epoch + 1

    @given(scored_committee())
    @settings(max_examples=100, deadline=None)
    def test_untouched_validators_keep_their_slots(self, data):
        committee, scores, fraction = data
        previous = initial_schedule(committee, seed=1)
        demoted, _ = select_swap_sets(scores, committee, exclude_fraction=fraction)
        next_schedule = compute_next_schedule(
            previous, scores, committee, new_initial_round=previous.initial_round + 10,
            exclude_fraction=fraction,
        )
        for validator in committee.validators:
            if validator in demoted:
                continue
            assert next_schedule.slots_of(validator) >= previous.slots_of(validator)

    @given(scored_committee())
    @settings(max_examples=100, deadline=None)
    def test_schedule_change_is_deterministic(self, data):
        committee, scores, fraction = data
        previous = initial_schedule(committee, seed=2)
        first = compute_next_schedule(
            previous, scores, committee, new_initial_round=30, exclude_fraction=fraction
        )
        copy = ReputationScores(committee)
        for validator, value in scores.as_dict().items():
            copy.set(validator, value)
        second = compute_next_schedule(
            previous, copy, committee, new_initial_round=30, exclude_fraction=fraction
        )
        assert first == second


class TestLeaderScheduleProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_leader_lookup_is_total_over_anchor_rounds(self, slot_count, epoch, offset):
        slots = tuple(range(slot_count))
        initial_round = 2 + 2 * (epoch % 5)
        schedule = LeaderSchedule(epoch=epoch, initial_round=initial_round, slots=slots)
        round_number = initial_round + 2 * offset
        leader = schedule.leader_for_round(round_number)
        assert leader in slots

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=50)
    def test_rotation_visits_all_slots_equally(self, slot_count):
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=tuple(range(slot_count)))
        leaders = [
            schedule.leader_for_round(2 + 2 * index) for index in range(slot_count * 3)
        ]
        for slot in range(slot_count):
            assert leaders.count(slot) == 3
