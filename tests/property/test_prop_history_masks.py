"""The commit path's causal-history walk over round masks, against the
reference model's own search.

``DagStore.causal_history`` descends level by level over the round slabs,
one source bitmask per level, excluding what the consensus engine's
``ordered_sources`` masks name; ``BullsharkConsensus._commit_anchor`` sets
those bits.  ``tests/reference_model.py`` keeps a dict of vertices and a
set of ordered ids and walks edge by edge.  A case is a script — inserts,
prunes, adoptions of a peer's ordered ids, commits — and both sides must
order the same ids for every commit of it: from an excluded root, through
levels that are partly ordered, down to a GC horizon in the middle of the
history, through a straggler stored below that horizon, through decoded
vertices whose edges name any round (two levels down, sideways, upwards,
beyond the committee), on heterogeneous committees up to size 100.

Three source mutants, loaded by text replacement, must each be caught by a
fixed case; renaming a local in the walk can break a mutant's
occurrence-count assertion.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.consensus.bullshark as bullshark
import repro.dag.store as store
from repro.committee import Committee, geometric_stake
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import StaticScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.schedule.round_robin import initial_schedule
from repro.types import VertexId
from tests.mutants import load_mutant
from tests.reference_model import ReferenceModel
from tests.doubles import dag_vertices

SIZES = (4, 5, 10, 33, 64, 100)
_COMMITTEES = {}


def committee_of(size):
    """Geometric stake, so the committees are heterogeneous; built once per size."""
    if size not in _COMMITTEES:
        _COMMITTEES[size] = Committee.build(size, stake=geometric_stake(size, ratio=0.97))
    return _COMMITTEES[size]


def decoded(round_number, source, edges):
    """A vertex as the codec builds one: no ``make_vertex`` check on its edges."""
    return Vertex(id=VertexId(round_number, source), edges=frozenset(edges), block=(), digest=b"decoded")


# -- playing a case ---------------------------------------------------------------------------------

def play(size, steps, store_class=DagStore, engine_class=BullsharkConsensus):
    """Run ``steps`` through the engine and the model; the commits they disagree on."""
    committee = committee_of(size)
    dag = store_class(committee, require_edge_quorum=False)
    engine = engine_class(
        owner=0,
        committee=committee,
        dag=dag,
        schedule_manager=StaticScheduleManager(
            committee, initial_schedule(committee, seed=0, permute=False)
        ),
    )
    model = ReferenceModel(committee, initial_round=2, slots=committee.validators)
    dag.on_insert(model.insert)
    mismatches = []
    for kind, argument in steps:
        if kind == "add":
            dag.add(argument)
        elif kind == "gc":
            dag.garbage_collect(argument)
            model.prune_below(argument)
        elif kind == "adopt":
            engine.adopt_ordered(argument)
            model.ordered |= set(argument)
        else:
            root = dag.get(argument)
            already = len(model.sequence)
            model._commit(root)
            expected = model.sequence[already:]
            produced = [vertex.id for vertex in engine._commit_anchor(root, direct=True).vertices]
            if produced != expected or not set(expected) <= engine.ordered_from(0):
                mismatches.append((argument, produced, expected))
    return mismatches


# -- generated cases --------------------------------------------------------------------------------

@st.composite
def cases(draw):
    """``(size, steps)``; a production store is grown alongside to know what is stored."""
    size = draw(st.sampled_from(SIZES))
    committee = committee_of(size)
    dag = DagStore(committee, require_edge_quorum=False)
    steps = []

    def add(vertex):
        if vertex.id not in dag:
            steps.append(("add", vertex))
            assert dag.add(vertex)

    def stored_ids():
        return sorted(vertex.id for vertex in dag_vertices(dag))

    source_lists = st.lists(st.integers(0, size - 1), min_size=1, max_size=5, unique=True)
    for vertex in genesis_vertices(committee):
        add(vertex)
    rounds = draw(st.integers(2, 6))
    held_back = []
    for round_number in range(1, rounds + 1):
        previous = [vertex.id for vertex in dag.vertices_at(round_number - 1)]
        for source in draw(source_lists):
            parents = draw(st.lists(st.sampled_from(previous), unique=True, max_size=6)) if previous else []
            vertex = make_vertex(round_number, source, parents)
            if draw(st.integers(0, 5)) == 0:
                held_back.append(vertex)
            else:
                add(vertex)
    horizon = draw(st.integers(0, rounds))
    steps.append(("gc", horizon))
    dag.garbage_collect(horizon)
    for vertex in held_back:
        # Below the horizon this is a straggler insert: its parents count as present.
        if draw(st.booleans()):
            add(vertex)
    assume(len(dag))
    any_sources = st.integers(0, size + 2)
    for _ in range(draw(st.integers(0, 4))):
        round_number = draw(st.integers(0, rounds + 1))
        edges = draw(st.lists(st.sampled_from(stored_ids()), max_size=5, unique=True))
        if round_number < horizon:
            # Parents below the horizon need not be present: absent ids,
            # ids outside the committee, cycles.
            below_horizon = st.builds(VertexId, st.integers(0, horizon - 1), any_sources)
            edges += draw(st.lists(below_horizon, max_size=3))
        add(decoded(round_number, draw(st.integers(0, size - 1)), edges))
    for source in draw(source_lists):
        # A top round over everything stored, so commits reach the decoded vertices.
        edges = draw(st.lists(st.sampled_from(stored_ids()), min_size=1, max_size=8, unique=True))
        add(decoded(rounds + 2, source, edges))
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            any_ids = st.builds(VertexId, st.integers(0, rounds + 2), any_sources)
            steps.append(("adopt", frozenset(draw(st.lists(any_ids, max_size=6)))))
        steps.append(("commit", draw(st.sampled_from(stored_ids()))))
    return size, steps


@settings(max_examples=250, deadline=None)
@given(case=cases())
def test_commits_order_what_the_reference_model_orders(case):
    size, steps = case
    assert play(size, steps) == []


# -- fixed cases: every family at least once, and what the mutants must meet ------------------------

def full_rounds(size, rounds, skip=()):
    steps = [("add", vertex) for vertex in genesis_vertices(committee_of(size))]
    for round_number in range(1, rounds + 1):
        parents = [
            VertexId(round_number - 1, source)
            for source in range(size)
            if (round_number - 1, source) not in skip
        ]
        steps += [
            ("add", make_vertex(round_number, source, parents))
            for source in range(size)
            if (round_number, source) not in skip
        ]
    return steps


FIXED_CASES = {
    # The second commit meets a level that is half ordered; the third an excluded root.
    "partly-ordered-levels": (4, full_rounds(4, 4) + [
        ("commit", VertexId(2, 0)), ("commit", VertexId(4, 1)), ("commit", VertexId(4, 1)),
        ("commit", VertexId(3, 3)),
    ]),
    # Round 2 holds one straggler under the horizon; (2,3) is absent, and
    # (1,3), stored, is beneath nothing that is stored.
    "straggler-under-the-horizon": (4, full_rounds(4, 6) + [
        ("gc", 3),
        ("add", make_vertex(1, 3, [VertexId(0, 0)])),
        ("add", make_vertex(2, 0, [VertexId(1, 0), VertexId(1, 1), VertexId(1, 2)])),
        ("commit", VertexId(6, 0)),
    ]),
    # Edges two levels down, sideways and upwards: round 3 is visited three times.
    "edges-off-the-previous-round": (5, full_rounds(5, 3, skip={(1, 4), (2, 4), (3, 4)}) + [
        ("add", decoded(2, 4, [VertexId(0, 4), VertexId(1, 0)])),
        ("add", decoded(3, 4, [VertexId(2, 4), VertexId(3, 0), VertexId(1, 2)])),
        ("add", decoded(1, 4, [VertexId(3, 4), VertexId(0, 1)])),
        ("add", decoded(4, 0, [VertexId(1, 4), VertexId(3, 1)])),
        ("adopt", frozenset({VertexId(2, 1), VertexId(1, 7), VertexId(9, 0)})),
        ("commit", VertexId(2, 2)), ("commit", VertexId(4, 0)), ("commit", VertexId(3, 2)),
    ]),
    # Two stragglers under the horizon naming each other, an absent id and one outside the committee.
    "cycle-under-the-horizon": (4, full_rounds(4, 5) + [
        ("gc", 4),
        ("add", decoded(3, 0, [VertexId(3, 1), VertexId(2, 2)])),
        ("add", decoded(3, 1, [VertexId(3, 0), VertexId(2, 7)])),
        ("commit", VertexId(5, 2)),
    ]),
}


@pytest.mark.parametrize("name", sorted(FIXED_CASES))
def test_fixed_case_agrees_with_the_model(name):
    assert play(*FIXED_CASES[name]) == []


def test_the_straggler_case_walks_through_the_straggler_only():
    size, steps = FIXED_CASES["straggler-under-the-horizon"]
    dag = DagStore(committee_of(size), require_edge_quorum=False)
    for kind, argument in steps[:-1]:
        dag.add(argument) if kind == "add" else dag.garbage_collect(argument)
    history = [vertex.id for vertex in dag.causal_history(VertexId(6, 0))]
    assert history[0] == VertexId(2, 0) and VertexId(1, 3) not in history
    assert len(history) == 1 + 4 * 3 + 1


# -- source mutants ---------------------------------------------------------------------------------

SOURCE_MUTANTS = {
    "ordered-not-excluded-two-levels-down": ("store_class", store, "DagStore", [
        (
            "& ~visited & ~excluded.get(round_number, 0)\n",
            "& ~visited & (~excluded.get(round_number, 0) if round_number != root.round - 2 else -1)\n",
        ),
    ]),
    "ordered-bit-never-set": ("engine_class", bullshark, "BullsharkConsensus", [
        (
            "ordered_sources.get(round_number, 0) | 1 << vertex.source\n",
            "ordered_sources.get(round_number, 0)\n",
        ),
    ]),
    "descent-past-an-absent-vertex": ("store_class", store, "DagStore", [
        (
            "                if vertex is None:\n                    continue\n",
            "                if vertex is None:\n                    below |= 1 << source\n                    continue\n",
        ),
    ]),
}


@pytest.mark.parametrize("mutant", sorted(SOURCE_MUTANTS))
def test_fixed_cases_kill_the_source_mutant(mutant):
    argument, module, class_name, replacements = SOURCE_MUTANTS[mutant]
    mutated = {argument: getattr(load_mutant(module, replacements), class_name)}
    killed = [name for name, case in sorted(FIXED_CASES.items()) if play(*case, **mutated)]
    assert killed, f"{mutant} survives every fixed case"
    # ... and the unmutated source, loaded the same way, survives them all.
    intact = {argument: getattr(load_mutant(module, []), class_name)}
    for case in FIXED_CASES.values():
        assert play(*case, **intact) == []
