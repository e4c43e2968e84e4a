"""Differential properties: the production engine vs the reference model.

The production commit path — the vote-stake gate and rescans of
``BullsharkConsensus``, the round-mask reachability descent, parking and
promotion, slab recycling and GC in ``DagStore``, ``_commit_anchor``, and
the whole ``HammerHeadScheduleManager`` — is checked against
``tests/reference_model.py``, which shares none of that code: for any
insertion sequence, fault pattern, GC horizon movement and schedule
dynamics both must order exactly the same vertices in the same order and
switch to the same schedules.  The model sees only what the public
``DagStore.on_insert`` hook reports, in arrival order, and the comparison
runs after every single step.
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
from repro.types import VertexId
from tests.conftest import model_mismatches, reference_model_for
from tests.doubles import OrderRecorder, dag_vertices


@st.composite
def equivalence_scenario(draw):
    """A randomized run: DAG shape, insertion order, GC and state sync."""
    size = draw(st.integers(min_value=4, max_value=7))
    committee = Committee.build(size)
    rounds = draw(st.integers(min_value=6, max_value=16))
    quorum = committee.quorum_threshold
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(rng_seed)
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
    dynamic = draw(st.booleans())
    commits_per_schedule = draw(st.integers(min_value=2, max_value=5))
    # Sprinkle GC calls (with varying keep windows) over the stream, and
    # possibly one state-sync fast-forward.
    gc_probability = draw(st.floats(min_value=0.0, max_value=0.3))
    keep_rounds = draw(st.integers(min_value=2, max_value=8))
    fast_forward_round = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=rounds)))
    return (
        committee,
        participation,
        rng,
        dynamic,
        commits_per_schedule,
        gc_probability,
        keep_rounds,
        fast_forward_round,
    )


def build_vertices(committee, participation, rng):
    """A global DAG where each vertex links to a random parent quorum.

    Random sub-quorum edge selection produces skipped anchors and varying
    vote patterns, which is what exercises the commit rule.
    """
    vertices = list(genesis_vertices(committee))
    previous = [vertex.id for vertex in vertices]
    quorum = committee.quorum_threshold
    for round_number, participants in enumerate(participation, start=1):
        current = []
        for source in participants:
            if len(previous) > quorum and rng.random() < 0.5:
                edge_count = rng.randint(quorum, len(previous))
                edges = rng.sample(previous, edge_count)
            else:
                edges = list(previous)
            current.append(make_vertex(round_number, source, edges=edges))
        vertices.extend(current)
        previous = [vertex.id for vertex in current]
    return vertices


def make_engine(committee, dynamic, commits_per_schedule):
    dag = DagStore(committee)
    schedule = initial_schedule(committee, seed=0, permute=False)
    if dynamic:
        manager = HammerHeadScheduleManager(
            committee, schedule, policy=CommitCountPolicy(commits_per_schedule)
        )
    else:
        manager = StaticScheduleManager(committee, schedule)
    return BullsharkConsensus(
        owner=0,
        committee=committee,
        dag=dag,
        schedule_manager=manager,
    )


def withhold_some(stream, rng):
    """Ids of a few vertices that never arrive: their descendants stay
    parked until GC purges or promotes them."""
    if len(stream) > 8 and rng.random() < 0.5:
        return {vertex.id for vertex in rng.sample(stream, rng.randint(1, 3))}
    return set()


@given(equivalence_scenario())
@settings(max_examples=40, deadline=None)
def test_engine_orders_and_schedules_like_the_model(scenario):
    (
        committee,
        participation,
        rng,
        dynamic,
        commits_per_schedule,
        gc_probability,
        keep_rounds,
        fast_forward_round,
    ) = scenario
    vertices = build_vertices(committee, participation, rng)
    stream = list(vertices)
    rng.shuffle(stream)
    withheld = withhold_some(stream, rng)
    engine = make_engine(committee, dynamic, commits_per_schedule)
    order = OrderRecorder(engine)
    model = reference_model_for(engine.schedule_manager)
    # Parked vertices reach the model only when the store promotes them.
    engine.dag.on_insert(model.insert)
    fast_forward_at = rng.randint(0, len(stream) - 1) if fast_forward_round else -1
    for position, vertex in enumerate(stream):
        if vertex.id in withheld:
            continue
        engine.dag.add(vertex)
        engine.try_commit()
        model.try_commit()
        if gc_probability > 0.0 and rng.random() < gc_probability:
            engine.garbage_collect(keep_rounds=keep_rounds)
            model.garbage_collect(keep_rounds)
        if position == fast_forward_at:
            engine.fast_forward(fast_forward_round)
            model.fast_forward(fast_forward_round)
            engine.try_commit()
            model.try_commit()
        assert model_mismatches(engine, model) == [], f"divergence at step {position}"
    engine.try_commit()
    model.try_commit()
    assert model_mismatches(engine, model) == []
    assert order.ids() == model.sequence


@given(equivalence_scenario())
@settings(max_examples=25, deadline=None)
def test_reachability_matches_model_search(scenario):
    """``DagStore.path`` / ``causal_history`` equal the model's
    breadth-first search on random DAGs, across insertions and GC."""
    committee, participation, rng, _, _, _, keep_rounds, _ = scenario
    vertices = build_vertices(committee, participation, rng)
    stream = list(vertices)
    rng.shuffle(stream)
    store = DagStore(committee)
    model = reference_model_for(
        StaticScheduleManager(committee, initial_schedule(committee, seed=0, permute=False))
    )
    store.on_insert(model.insert)
    for position, vertex in enumerate(stream):
        store.add(vertex)
        inserted = dag_vertices(store)
        # Interleave queries with insertions so the walk is exercised
        # against a growing DAG, not just the final one.
        if inserted and position % 3 == 0:
            for _ in range(4):
                descendant = rng.choice(inserted)
                ancestor = rng.choice(inserted)
                if ancestor.round > descendant.round:
                    descendant, ancestor = ancestor, descendant
                assert store.path(descendant.id, ancestor.id) == model.path(
                    descendant.id, ancestor.id
                ), f"path({descendant.id}, {ancestor.id}) diverged"
        if position % 7 == 0 and store.highest_round() > keep_rounds:
            horizon = store.highest_round() - keep_rounds
            store.garbage_collect(horizon)
            model.prune_below(horizon)
    inserted = dag_vertices(store)
    assert {vertex.id for vertex in inserted} == set(model.dag)
    # Exhaustive sweep at the end.
    for descendant in inserted:
        for ancestor in inserted:
            if ancestor.round >= descendant.round:
                continue
            assert store.path(descendant.id, ancestor.id) == model.path(
                descendant.id, ancestor.id
            )
    for descendant in inserted[:8]:
        history = store.causal_history(descendant.id)
        for target_round in range(max(store.lowest_round, descendant.round - 4), descendant.round):
            assert {vertex.source for vertex in history if vertex.round == target_round} == {
                source
                for source in committee.validators
                if model.path(descendant.id, VertexId(target_round, source))
            }
