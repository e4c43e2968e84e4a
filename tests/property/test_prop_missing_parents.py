"""``DagStore.missing_parents`` against its per-edge definition.

The store answers the common case (every edge names ``round - 1`` and the
round holds every named source) from ``edge_mask`` and the per-round
source mask.  The definition is one lookup per edge: a parent is missing
when it is not part of the DAG and is at or above the GC horizon.  They
must agree on *any* ``Vertex`` object — a decoded vertex need not have
been built by ``make_vertex`` — over stores that were garbage collected,
hold a straggler below the horizon, or have vertices parked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.types import VertexId
from tests.doubles import dag_vertices

SIZE = 4
ROUNDS = 6


def definition(dag, vertex):
    return {
        parent for parent in vertex.edges if parent not in dag and parent.round >= dag.lowest_round
    }


def add_if_new(dag, vertex):
    """``dag.add`` unless the slot is taken (two vertices for one slot is equivocation)."""
    if vertex.id not in dag and all(vertex.id != parked.id for parked in dag.pending_vertices()):
        dag.add(vertex)


@st.composite
def stores(draw):
    """A store grown round by round from random participants and edge subsets."""
    committee = Committee.build(SIZE)
    dag = DagStore(committee, require_edge_quorum=False)
    for vertex in genesis_vertices(committee):
        dag.add(vertex)
    sources = st.lists(st.integers(0, SIZE - 1), min_size=1, max_size=SIZE, unique=True)
    skipped = []
    for round_number in range(1, ROUNDS + 1):
        previous = [vertex.id for vertex in dag.vertices_at(round_number - 1)]
        for source in draw(sources):
            parents = draw(st.lists(st.sampled_from(previous), unique=True)) if previous else []
            vertex = make_vertex(round_number, source, parents)
            # Held back: a parent its children will park on, or a straggler.
            if draw(st.integers(0, 4)) == 0:
                skipped.append(vertex)
            else:
                dag.add(vertex)
    # Children of held-back vertices park on them.
    for vertex in skipped:
        child = make_vertex(vertex.round + 1, vertex.source, [vertex.id])
        add_if_new(dag, child)
    horizon = draw(st.integers(0, ROUNDS))
    dag.garbage_collect(horizon)
    for vertex in skipped:
        # Below the horizon this is a straggler insert; above it, a late
        # parent that promotes what parked on it.
        if draw(st.booleans()):
            add_if_new(dag, vertex)
    return dag


# Rounds beyond the frontier, sources beyond the committee.
vertex_ids = st.builds(VertexId, st.integers(0, ROUNDS + 2), st.integers(0, SIZE + 3))
arbitrary_vertices = st.builds(
    lambda vertex_id, edges: Vertex(id=vertex_id, edges=frozenset(edges), block=(), digest=b"any"),
    vertex_ids,
    st.lists(vertex_ids, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(dag=stores(), vertex=arbitrary_vertices, adjacent_sources=st.sets(st.integers(0, SIZE + 3)))
def test_missing_parents_equals_the_per_edge_definition(dag, vertex, adjacent_sources):
    assert dag.missing_parents(vertex) == definition(dag, vertex)
    # The shape the mask path answers: every edge names ``round - 1``.
    adjacent = Vertex(
        id=vertex.id,
        edges=frozenset(VertexId(vertex.round - 1, source) for source in adjacent_sources),
        block=(),
        digest=b"any",
    )
    assert adjacent.edges_adjacent
    assert dag.missing_parents(adjacent) == definition(dag, adjacent)
    for parked in dag.pending_vertices():
        assert dag.missing_parents(parked) == definition(dag, parked)
    for stored in dag_vertices(dag):
        assert not dag.missing_parents(stored)


def test_the_flag_is_false_for_any_edge_off_the_previous_round():
    assert make_vertex(3, 0, [VertexId(2, 1), VertexId(2, 2)]).edges_adjacent
    assert make_vertex(0, 0, []).edges_adjacent
    for stray in (VertexId(1, 1), VertexId(3, 1), VertexId(4, 1)):
        vertex = Vertex(id=VertexId(3, 0), edges=frozenset({VertexId(2, 2), stray}), block=(), digest=b"any")
        assert not vertex.edges_adjacent
        # Same source bits as an adjacent edge set would give: only the flag tells them apart.
        assert vertex.edge_mask == 0b110
