"""Property tests for the frontier-aware fetch.

A fetch request carries the requester's GC horizon and one source
bitmask per stored round; the responder ships only the part of the
requested vertices' causal history the requester's DAG lacks.  Two
properties over random DAGs (some vertices decoded with edges below the
previous round beside their quorum) and random requester states (a GC
horizon, a causally closed but gappy DAG above it, parked vertices):

(a) the response is exactly ``ancestors(missing)`` minus the requester's
    DAG, never reaches below the requester's horizon, and keeps the
    per-requested-vertex (round, source) order;
(b) a requester that ingests it ends in the same state — DAG, parked
    buffer, per-round arrival order, ordered sequence, follow-up fetch
    requests — as one that is sent the whole causal history, which is
    what every response carried before the frontier existed.

The whole-history responder is the reference implementation and lives
here, as plain walks over ``DagStore.get``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.core.manager import StaticScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.node.config import NodeConfig
from repro.node.messages import FetchRequest, FetchResponse
from repro.node.validator import ValidatorNode
from repro.schedule.round_robin import initial_schedule
from repro.types import VertexId
from tests.conftest import bare_synchronizer, decoded_vertex
from tests.doubles import OrderRecorder, UniformLatencyModel, dag_vertices, deliver

REQUESTER = 0
RESPONDER = 1


# -- world generation ------------------------------------------------------------


@st.composite
def fetch_worlds(draw):
    """A DAG, a responder holding (most of) it, and a requester state."""
    size = draw(st.integers(min_value=4, max_value=7))
    committee = Committee.build(size)
    quorum = committee.quorum_threshold
    rounds = draw(st.integers(min_value=3, max_value=9))

    by_round: List[List[Vertex]] = [list(genesis_vertices(committee))]
    for round_number in range(1, rounds + 1):
        previous = [vertex.id for vertex in by_round[-1]]
        sources = draw(
            st.lists(st.integers(0, size - 1), min_size=quorum, max_size=size, unique=True)
        )
        level = []
        for source in sorted(sources):
            edges = draw(
                st.lists(
                    st.sampled_from(previous), min_size=quorum, max_size=len(previous), unique=True
                )
            )
            lower = [vertex.id for earlier in by_round[:-1] for vertex in earlier]
            if lower and draw(st.integers(0, 3)) == 0:
                # A decoded vertex: beside its quorum, edges to rounds below r-1.
                edges += draw(st.lists(st.sampled_from(lower), min_size=1, max_size=2, unique=True))
                level.append(decoded_vertex(round_number, source, edges))
            else:
                level.append(make_vertex(round_number, source, edges=edges))
        by_round.append(level)
    vertices = [vertex for level in by_round for vertex in level]

    responder_horizon = draw(st.integers(min_value=0, max_value=rounds - 1))
    horizon = draw(st.integers(min_value=0, max_value=rounds - 1))
    # The requester's DAG: the history, down to its horizon, of a few
    # seed vertices -- causally closed, with gaps wherever a round has a
    # vertex no seed descends from.
    seeds = draw(st.lists(st.sampled_from(vertices), max_size=4, unique_by=lambda v: v.id))
    index = {vertex.id: vertex for vertex in vertices}
    held: Set[VertexId] = set()
    stack = [seed.id for seed in seeds if seed.round >= horizon]
    while stack:
        vertex_id = stack.pop()
        if vertex_id in held:
            continue
        held.add(vertex_id)
        stack.extend(edge for edge in index[vertex_id].edges if edge.round >= horizon)
    others = [vertex for vertex in vertices if vertex.id not in held and vertex.round >= horizon]
    parked = draw(st.lists(st.sampled_from(others), max_size=4, unique_by=lambda v: v.id)) if others else []
    # What is asked for: anything the requester's DAG lacks (parked
    # vertices included, as the synchronizer asks for parked parents),
    # plus now and then a vertex nobody has.
    askable = [vertex.id for vertex in others] + [VertexId(rounds + 2, 0), VertexId(rounds, size)]
    missing = draw(st.lists(st.sampled_from(askable), min_size=1, max_size=4, unique=True))
    gc_depth = draw(st.sampled_from([0, 2]))
    return {
        "committee": committee,
        "vertices": vertices,
        "responder_horizon": responder_horizon,
        "horizon": horizon,
        "held": [vertex for vertex in vertices if vertex.id in held],
        "parked": parked,
        "missing": tuple(missing),
        "gc_depth": gc_depth,
    }


class Cluster:
    """One validator on its own simulator, with ``network.send`` recorded."""

    def __init__(self, committee: Committee, validator: int, gc_depth: int = 0) -> None:
        simulator = Simulator(seed=3)
        network = Network(simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.0))
        self.sent: List[Tuple[int, object]] = []
        network.send = lambda source, destination, message: self.sent.append((destination, message))
        self.node = ValidatorNode(
            validator_id=validator,
            committee=committee,
            network=network,
            schedule_manager=StaticScheduleManager(
                committee, initial_schedule(committee, seed=1, permute=False)
            ),
            config=NodeConfig(gc_depth=gc_depth),
        )
        self.order = OrderRecorder(self.node)


class Responder:
    """A bare synchronizer serving one DAG, with ``network.send`` recorded.

    Nothing commits under the store: the responder only serves.
    """

    def __init__(self, world) -> None:
        self.dag = DagStore(world["committee"])
        for vertex in world["vertices"]:
            self.dag.add(vertex)
        self.dag.garbage_collect(world["responder_horizon"])
        self.synchronizer = bare_synchronizer(world["committee"], self.dag, owner=RESPONDER)
        self.sent: List[Tuple[int, object]] = []
        self.synchronizer.network.send = lambda source, destination, message: self.sent.append(
            (destination, message)
        )


def build_requester(world) -> Cluster:
    cluster = Cluster(world["committee"], REQUESTER, gc_depth=world["gc_depth"])
    node = cluster.node
    node.dag.garbage_collect(world["horizon"])
    for vertex in world["held"]:
        node.dag.add(vertex)
    for vertex in world["parked"]:
        # Delivered, so the retry throttle is armed the way it is when a
        # real response comes back.
        deliver(node, vertex)
    del cluster.sent[:]
    return cluster


def request_of(node: ValidatorNode, missing: Sequence[VertexId]) -> FetchRequest:
    return FetchRequest(
        requester=node.id,
        missing=tuple(missing),
        horizon=node.dag.lowest_round,
        held=node.dag.held_sources(),
    )


def serve(responder: Responder, request: FetchRequest) -> Tuple[Vertex, ...]:
    del responder.sent[:]
    responder.synchronizer.on_request(request.requester, request)
    if not responder.sent:
        return ()
    ((destination, response),) = responder.sent
    assert destination == request.requester
    assert isinstance(response, FetchResponse)
    return response.vertices


# -- the reference: whole-history responses -------------------------------------------


def stored_history(dag: DagStore, root: VertexId) -> List[Vertex]:
    """``root`` and everything reachable from it through stored vertices."""
    found: Dict[VertexId, Vertex] = {}
    stack = [root]
    while stack:
        vertex = dag.get(stack.pop())
        if vertex is None or vertex.id in found:
            continue
        found[vertex.id] = vertex
        stack.extend(vertex.edges)
    return sorted(found.values(), key=lambda vertex: (vertex.round, vertex.source))


def whole_history_response(dag: DagStore, missing: Sequence[VertexId]) -> List[Vertex]:
    """What a responder unaware of the requester's frontier ships."""
    shipped: List[Vertex] = []
    seen: Set[VertexId] = set()
    for root in missing:
        for vertex in stored_history(dag, root):
            if vertex.id not in seen:
                seen.add(vertex.id)
                shipped.append(vertex)
    return shipped


# -- properties -----------------------------------------------------------------------


class TestFrontierResponse:
    @given(fetch_worlds())
    @settings(max_examples=120, deadline=None)
    def test_response_is_the_history_the_requesters_dag_lacks(self, world):
        responder = Responder(world)
        requester = build_requester(world).node
        request = request_of(requester, world["missing"])
        shipped = serve(responder, request)

        expected = [
            vertex
            for vertex in whole_history_response(responder.dag, request.missing)
            if vertex.round >= request.horizon and vertex.id not in requester.dag
        ]
        assert list(shipped) == expected
        assert all(vertex.round >= requester.dag.lowest_round for vertex in shipped)
        assert responder.synchronizer.vertices_served == len(shipped)

    @given(fetch_worlds())
    @settings(max_examples=120, deadline=None)
    def test_ingest_matches_the_whole_history_flow(self, world):
        responder = Responder(world)
        frontier_side = build_requester(world)
        reference_side = build_requester(world)
        request = request_of(frontier_side.node, world["missing"])
        assert request == request_of(reference_side.node, world["missing"])

        responses = {
            "frontier": serve(responder, request),
            "reference": tuple(whole_history_response(responder.dag, request.missing)),
        }
        states = {}
        for name, cluster in (("frontier", frontier_side), ("reference", reference_side)):
            node = cluster.node
            node._handle_fetch_response(
                RESPONDER,
                FetchResponse(
                    responder=RESPONDER,
                    vertices=responses[name],
                    responder_gc_round=responder.dag.lowest_round,
                )
            )
            states[name] = {
                "dag": {vertex.id for vertex in dag_vertices(node.dag)},
                "pending": {vertex.id for vertex in node.dag.pending_vertices()},
                "arrival": [node.dag.vertices_at(r) for r, _ in node.dag.held_sources()],
                "horizon": node.dag.lowest_round,
                "ordered": cluster.order.ids(),
                "follow_up": list(cluster.sent),
                "new": node.synchronizer.vertices_new,
            }
        assert states["frontier"] == states["reference"]
        # Nothing the frontier flow ships is wasted on this requester.
        assert frontier_side.node.synchronizer.vertices_received == states["frontier"]["new"]
        assert all(
            vertex.round >= frontier_side.node.dag.lowest_round
            for vertex in dag_vertices(frontier_side.node.dag)
        )
