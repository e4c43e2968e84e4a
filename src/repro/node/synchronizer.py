"""The synchronizer: every fetch decision of one validator.

It decides what to ask for (the parents a vertex the validator parked
waits on, handed over by :meth:`ValidatorNode.ingest
<repro.node.validator.ValidatorNode.ingest>` through :meth:`request`;
what parked vertices still wait on when the retry timer fires; what a
stalled caller such as a lockstep round still lacks), whom
(the vertex's source first, a random peer on every timer-driven
request), when (an id at most once per retry interval, one timer for
retries and stalls), and what to serve a peer (the history its frontier
lacks, plus a consensus snapshot when that frontier lies below this
validator's GC horizon; the wire side is described in
:mod:`repro.node.messages`).  A response's vertices go back through
``ingest``, lowest round first, each standing for its own slot.
Adopting a snapshot rewrites the commit record, so it is the
validator's decision; the synchronizer only counts, per peer, the
requests that peer has not answered yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Collection, Dict, List, Optional

from repro.dag.vertex import Vertex
from repro.network.simulator import EventHandle
from repro.node.messages import FetchRequest, FetchResponse
from repro.obs.trace import NULL_TRACER, Tracer
from repro.types import Round, SimTime, ValidatorId, VertexId

if TYPE_CHECKING:
    from repro.node.validator import ValidatorNode

# What a timer-driven request asks for, evaluated when the timer fires.
Wanted = Callable[[], Collection[VertexId]]


class Synchronizer:
    """Fetches the history one validator lacks and serves its peers'."""

    _tracer: Tracer = NULL_TRACER
    _tracing: bool = False

    def __init__(self, node: "ValidatorNode", retry_interval: SimTime) -> None:
        # The validator it works for.  Its DAG and behavior policy are
        # read through it at every use, never copied: recovery and state
        # sync replace the DAG, fault plans replace the policy.
        self.node = node
        self.owner = node.id
        self.committee = node.committee
        self.network = node.network
        self.simulator = node.network.simulator
        self.retry_interval = retry_interval
        # Missing vertex -> when it was last asked for.
        self.requested: Dict[VertexId, SimTime] = {}
        # Per peer, the requests sent to it that it has not answered:
        # only a peer with one open may hand the validator a snapshot to
        # adopt.  Each response closes one, once the validator decided
        # on its snapshot.
        self.open_requests = [0] * self.committee.size
        self._timer: Optional[EventHandle] = None
        # Fetch traffic and waste, counted where it happens: requests
        # sent, vertices put into responses, vertices received in
        # responses, and how many of those the DAG lacked.
        self.requests_sent = 0
        self.vertices_served = 0
        self.vertices_received = 0
        self.vertices_new = 0

    def install_tracer(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._tracing = tracer.enabled

    # -- lifecycle ----------------------------------------------------------------

    def stop(self) -> None:
        """Cancel the timer (the validator crashed)."""
        if self._timer is not None:
            self.simulator.cancel(self._timer)
            self._timer = None

    def forget_requests(self) -> None:
        """Forget when anything was asked for.

        After a recovery rebuilt the DAG, or a state sync moved its
        horizon, earlier requests say nothing about what is missing.
        The requests still open are kept: their answers are on the way.
        """
        self.requested.clear()

    def has_open_request(self, peer: ValidatorId) -> bool:
        """Whether ``peer`` has a request of ours it has not answered."""
        return 0 <= peer < len(self.open_requests) and self.open_requests[peer] > 0

    # -- requesting ---------------------------------------------------------------

    def request(self, missing: Collection[VertexId], preferred_peer: ValidatorId) -> None:
        """Ask ``preferred_peer`` (another peer if that is this validator)
        for every id in ``missing`` not asked for within the retry interval."""
        now = self.simulator.now
        to_request = []
        for vertex_id in missing:
            last = self.requested.get(vertex_id)
            if last is not None and now - last < self.retry_interval:
                continue
            self.requested[vertex_id] = now
            to_request.append(vertex_id)
        if not to_request:
            return
        self.requests_sent += 1
        dag = self.node.dag
        request = FetchRequest(
            requester=self.owner,
            missing=tuple(to_request),
            horizon=dag.lowest_round,
            held=dag.held_sources(),
        )
        target = preferred_peer if preferred_peer != self.owner else self._random_peer()
        self.open_requests[target] += 1
        self.network.send(self.owner, target, request)
        self._arm(self._retry_parked)

    def on_stall(self, wanted: Wanted) -> None:
        """The validator waits on what ``wanted()`` names.

        Unless the timer is already armed, a random peer is asked for
        whatever ``wanted()`` still names one retry interval from now.
        If it names nothing by then, the stall resolved on its own and
        nothing changes.
        """
        self._arm(lambda: self._ask_again(wanted()))

    def _arm(self, fire: Callable[[], None]) -> None:
        if self._timer is not None:
            return

        def fire_once() -> None:
            self._timer = None
            fire()

        self._timer = self.simulator.schedule(self.retry_interval, fire_once)

    def _retry_parked(self) -> None:
        # Parked vertices get a fresh round of asking even when none of
        # them waits any more.
        self.requested.clear()
        self._ask_again(self.node.dag.pending_missing())

    def _ask_again(self, missing: Collection[VertexId]) -> None:
        if not missing:
            return
        # A fresh round of asking, of a random peer: the previous target
        # may have crashed.
        self.requested.clear()
        self.request(missing, preferred_peer=self._random_peer())

    def _random_peer(self) -> ValidatorId:
        peers = [validator for validator in self.committee.validators if validator != self.owner]
        return self.simulator.rng.choice(peers)

    # -- serving ------------------------------------------------------------------

    def on_request(self, sender: ValidatorId, request: FetchRequest) -> None:
        """Send ``sender`` the history its request names and its DAG lacks."""
        policy = self.node.behavior
        if not policy.transparent and not policy.should_serve_fetch(sender):
            # Behavior policy: starve this peer's synchronizer.
            return
        found = self.unheld_history(request)
        if not found:
            return
        self.vertices_served += len(found)
        # The requester state-syncs only when our horizon is past its
        # frontier (``ValidatorNode._maybe_state_sync``), and its frontier
        # only grows while the response is in flight, so the snapshot is
        # built for the requests that can use it.
        horizon = self.node.dag.lowest_round
        requester_highest = max((round_number for round_number, _ in request.held), default=0)
        response = FetchResponse(
            responder=self.owner,
            vertices=tuple(found),
            responder_gc_round=horizon,
            snapshot=self.node.consensus_snapshot() if horizon > requester_highest + 1 else None,
        )
        self.network.send(self.owner, sender, response)

    def unheld_history(self, request: FetchRequest) -> List[Vertex]:
        """The causal history of ``request.missing`` the requester lacks.

        Each requested vertex this validator stores contributes, in
        ascending (round, source) order, the part of its causal history
        (``DagStore.causal_history``) that neither the requester's
        frontier nor an earlier root's shipment covers.  The walk stops at
        every vertex the requester's DAG holds — causal completeness puts
        everything beneath it, down to the requester's horizon, in that
        DAG too — and at the horizon itself, so it costs the vertices
        shipped plus their edges, not the size of the history.  Vertices
        this validator lacks block the walk.
        """
        dag = self.node.dag
        # Per round: sources the requester holds or an earlier root shipped.
        covered: Dict[Round, int] = dict(request.held)
        found: List[Vertex] = []
        for root in request.missing:
            if root not in dag:
                continue
            shipped = dag.causal_history(root, exclude=covered, floor=request.horizon)
            for vertex in shipped:
                covered[vertex.round] = covered.get(vertex.round, 0) | 1 << vertex.source
            found.extend(shipped)
        return found

    # -- receiving ----------------------------------------------------------------

    def on_response(self, sender: ValidatorId, response: FetchResponse) -> None:
        """Close one of ``sender``'s open requests, then ingest the
        response's vertices at or above the horizon, lowest round first."""
        if self.has_open_request(sender):
            self.open_requests[sender] -= 1
        dag = self.node.dag
        horizon = dag.lowest_round
        vertices = response.vertices
        # What the responder was asked for: history our DAG lacks.  A
        # vertex parked here counts as new, because parked parents are
        # requested by id like absent ones; the trace tells them apart.
        new = sum(1 for vertex in vertices if vertex.round >= horizon and vertex.id not in dag)
        self.vertices_received += len(vertices)
        self.vertices_new += new
        if self._tracing:
            parked = {vertex.id for vertex in dag.pending_vertices()}
            self._tracer.emit(
                "fetch_ingested",
                node=self.owner,
                responder=response.responder,
                received=len(vertices),
                new=new,
                parked=sum(1 for vertex in vertices if vertex.id in parked),
            )
        ingest = self.node.ingest
        for vertex in sorted(vertices, key=lambda vertex: vertex.round):
            # Ingesting can commit and raise the horizon mid-response;
            # whatever falls below it (or was sent below it by a stale
            # or hostile responder) is ordered history, not a straggler
            # to re-insert.
            if vertex.round >= dag.lowest_round:
                ingest(vertex, sender)
        dag.reconsider_pending()
