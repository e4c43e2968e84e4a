"""The reference model itself: what it may import, what it computes on a
DAG small enough to check by hand, and that it catches defects in code
every production path shares."""

import ast
import hashlib
import random
from pathlib import Path

import pytest

import repro.core.schedule_change as schedule_change
import tests.reference_model as reference_model
from repro.committee import Committee
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from tests.conftest import (
    build_round,
    make_consensus,
    model_mismatches,
    reference_model_for,
    vid,
)
from tests.doubles import dag_vertices
from tests.reference_model import ReferenceModel

ALLOWED_IMPORTS = {
    "__future__",
    "hashlib",
    "typing",
    "repro.committee",
    "repro.dag.vertex",
    "repro.types",
}


def test_model_imports_stay_inside_the_allowlist():
    tree = ast.parse(Path(reference_model.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "the model must not use relative imports"
            imported.add(node.module)
    assert imported <= ALLOWED_IMPORTS, sorted(imported - ALLOWED_IMPORTS)


def test_model_orders_a_fully_connected_dag_by_hand(committee4):
    """Four validators, every vertex links to the whole previous round,
    leaders 0, 1 for anchor rounds 2, 4.  Round 3 votes commit the round-2
    anchor: it orders rounds 0 and 1 in (round, source) order, then itself.
    Round 5 votes commit round 4: the rest of round 2, round 3, the anchor."""
    model = ReferenceModel(committee4, initial_round=2, slots=(0, 1, 2, 3))
    store = DagStore(committee4)
    store.on_insert(model.insert)
    for vertex in genesis_vertices(committee4):
        store.add(vertex)
    for round_number in range(1, 6):
        build_round(store, committee4, round_number)
        model.try_commit()
        expected_last = {1: 0, 2: 0, 3: 2, 4: 2, 5: 4}[round_number]
        assert model.last_ordered_anchor_round == expected_last
    expected = (
        [vid(0, s) for s in range(4)]
        + [vid(1, s) for s in range(4)]
        + [vid(2, 0)]
        + [vid(2, 1), vid(2, 2), vid(2, 3)]
        + [vid(3, s) for s in range(4)]
        + [vid(4, 1)]
    )
    assert model.sequence == expected
    digest = hashlib.sha256()
    for vertex_id in expected:
        digest.update(f"{vertex_id.round}:{vertex_id.source};".encode("ascii"))
    assert model.ordering_digest == digest.hexdigest()
    assert model.commit_count == 2
    assert model.schedule_changes == []


def test_model_swaps_lowest_scorers_for_highest_by_hand(committee4):
    """Validator 3 never votes for a leader.  With one commit per epoch the
    round-4 commit (the first whose sub-DAG holds votes) demotes it: its
    slot in the initial cycle goes to the top scorer with the lowest id."""
    model = ReferenceModel(
        committee4, initial_round=2, slots=(0, 1, 2, 3), commits_per_schedule=1
    )
    store = DagStore(committee4)
    store.on_insert(model.insert)
    for vertex in genesis_vertices(committee4):
        store.add(vertex)
    build_round(store, committee4, 1)
    build_round(store, committee4, 2)
    # Round 3: validator 3 links to everyone but the round-2 leader (0).
    build_round(store, committee4, 3, parent_sources={3: [1, 2, 3]})
    model.try_commit()
    # The round-2 commit ends epoch 0 with no votes counted yet: all tied
    # at zero, the lowest id is demoted and the next lowest promoted.
    assert model.schedule_changes[0]["scores"] == {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}
    assert model.schedules[1] == (4, (1, 1, 2, 3))
    build_round(store, committee4, 4)
    build_round(store, committee4, 5)
    model.try_commit()
    change = model.schedule_changes[1]
    assert change["triggered_by_round"] == 4
    assert change["new_initial_round"] == 6
    assert change["scores"] == {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.0}
    assert model.schedules[2] == (6, (0, 1, 2, 0))
    assert change["demoted_slots"] == 2  # against (1, 1, 2, 3)
    assert model.leader(6) == 0 and model.leader(12) == 0 and model.leader(4) == 1


# -- the model catches defects in code all production paths share -------------


def drive_against_model(committee_size=7, rounds=16, seed=3):
    """A seeded random DAG through the production engine and the model;
    returns their disagreements."""
    committee = Committee.build(committee_size)
    rng = random.Random(seed)
    engine = make_consensus(committee, dynamic=True, commits_per_schedule=2)
    model = reference_model_for(engine.schedule_manager)
    for vertex in dag_vertices(engine.dag):
        model.insert(vertex)
    engine.dag.on_insert(model.insert)
    quorum = committee.quorum_threshold
    previous = [vertex.id for vertex in engine.dag.vertices_at(0)]
    for round_number in range(1, rounds + 1):
        sources = rng.sample(range(committee_size), rng.randint(quorum, committee_size))
        current = [
            make_vertex(
                round_number,
                source,
                edges=rng.sample(previous, rng.randint(quorum, len(previous))),
            )
            for source in sorted(sources)
        ]
        rng.shuffle(current)
        for vertex in current:
            engine.dag.add(vertex)
            engine.try_commit()
            model.try_commit()
        engine.garbage_collect(keep_rounds=6)
        model.garbage_collect(6)
        previous = [vertex.id for vertex in current]
    assert engine.schedule_manager.change_records, "the DAG must change schedules"
    return model_mismatches(engine, model)


def reverse_source_order(monkeypatch):
    """Linearize a committed sub-DAG by descending source within a round.

    Returns the list the mutation appends to each time it changes an
    order the engine goes on to commit."""
    original = DagStore.causal_history
    applied = []

    def mutated(self, root, exclude=None, floor=-1):
        history = original(self, root, exclude, floor)
        reordered = sorted(history, key=lambda vertex: (vertex.round, -vertex.source))
        if reordered != history:
            applied.append(root)
        return reordered

    monkeypatch.setattr(DagStore, "causal_history", mutated)
    return applied


def promote_in_reverse(monkeypatch):
    """Hand demoted slots to the promoted validators in reverse order."""
    original = schedule_change.select_swap_sets

    applied = []

    def mutated(*args, **kwargs):
        demoted, promoted = original(*args, **kwargs)
        if promoted != promoted[::-1]:
            applied.append(promoted)
        return demoted, promoted[::-1]

    monkeypatch.setattr(schedule_change, "select_swap_sets", mutated)
    return applied


def test_unmutated_engine_agrees_with_the_model():
    assert drive_against_model() == []


@pytest.mark.parametrize("mutate", [reverse_source_order, promote_in_reverse])
def test_model_catches_a_defect_in_shared_code(mutate, monkeypatch):
    """Both mutations sit in code that every production configuration
    runs, so no production-vs-production comparison could see them."""
    applied = mutate(monkeypatch)
    mismatches = drive_against_model()
    assert applied, "the mutation no longer sits on the path the engine commits through"
    assert mismatches != []
