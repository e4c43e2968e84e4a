"""The validator node state machine.

The node glues the substrates together exactly the way the production
implementation does:

* it proposes one vertex per round, batching pending transactions;
* it disseminates vertices with the broadcast layer and inserts delivered
  vertices into its local DAG (fetching missing parents on demand);
* it advances rounds once a 2f+1 stake quorum of the current round is
  present, waiting up to ``leader_timeout`` for the anchor of even rounds
  (the Bullshark leader wait — the mechanism through which crashed leaders
  degrade the baseline);
* it runs the Bullshark commit rule on every insertion and feeds the
  ordered prefix to its schedule manager (static for the baseline,
  HammerHead for the paper's protocol);
* it persists vertices and consensus progress so a crashed validator can
  recover from its store.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.behavior import HONEST, BehaviorPolicy
from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.consensus.committed import CommittedSubDag, OrderedVertex
from repro.core.manager import ScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.errors import ConfigurationError
from repro.network.events import EventHandle
from repro.network.transport import Network
from repro.core.manager import HammerHeadScheduleManager
from repro.obs.trace import NULL_TRACER, Tracer
from repro.node.config import NodeConfig
from repro.node.messages import ConsensusSnapshot, FetchRequest, FetchResponse
from repro.rbc.base import Delivery
from repro.rbc.certified import CertifiedBroadcast
from repro.storage.store import PersistentStore
from repro.types import Round, SimTime, ValidatorId, VertexId, is_anchor_round
from repro.workload.transactions import Transaction, TransactionBatch


class ValidatorNode:
    """One validator participating in the protocol."""

    # Observability is opt-in: the class attributes keep untraced runs on
    # the zero-overhead path (one falsy attribute load per decision site)
    # and keep ``__init__`` signatures — and thus pickling — untouched.
    _tracer: Tracer = NULL_TRACER
    _tracing: bool = False
    _registry = None

    def __init__(
        self,
        validator_id: ValidatorId,
        committee: Committee,
        network: Network,
        schedule_manager: ScheduleManager,
        config: Optional[NodeConfig] = None,
        store: Optional[PersistentStore] = None,
        schedule_manager_factory: Optional[Callable[[], ScheduleManager]] = None,
    ) -> None:
        self.id = validator_id
        self.committee = committee
        self.network = network
        self.config = (config if config is not None else NodeConfig()).validate()
        self.schedule_manager = schedule_manager
        # Used on crash-recovery to rebuild a clean manager whose state is
        # then reconstructed deterministically by replaying the stored DAG.
        self.schedule_manager_factory = schedule_manager_factory
        self.store = store if store is not None else PersistentStore(owner=validator_id)
        # Hot-path handle: one vertex is persisted per insertion.
        self._vertices_family = self.store.family(PersistentStore.CF_VERTICES)

        self.simulator = network.simulator
        # Behavior policy governing this validator's decision points
        # (parent selection, proposal timing, fan-out, ack participation,
        # fetch service).  The honest default is transparent: decision
        # points skip the policy entirely, so honest runs stay
        # byte-identical to a build without the policy layer.  Installed
        # before the broadcast protocol so the protocol can share it.
        self.behavior: BehaviorPolicy = HONEST
        self.dag = DagStore(committee)
        self.consensus = BullsharkConsensus(
            owner=validator_id,
            committee=committee,
            dag=self.dag,
            schedule_manager=schedule_manager,
            record_sequence=self.config.record_sequence,
        )
        self.consensus.clock = lambda: self.simulator.now

        self.broadcast_protocol = self._build_broadcast()
        self._message_handlers = self._build_message_handlers()

        # Transaction pool (FIFO).
        self.transaction_pool = TransactionBatch(validator_id)
        # Round progression state.
        self.current_round: Round = 0
        self.started = False
        self.crashed = False
        self.last_proposal_time: SimTime = float("-inf")
        self._advance_handle: Optional[EventHandle] = None
        self._anchor_timer_handle: Optional[EventHandle] = None
        self._anchor_timer_round: Optional[Round] = None
        self._anchor_timeout_expired = False
        # Synchronizer state: missing parent -> last request time.
        self._fetch_requested: Dict[VertexId, SimTime] = {}
        self._fetch_timer: Optional[EventHandle] = None
        # One bit per peer a fetch request was ever sent to: only those
        # may hand this validator a snapshot to adopt.
        self._asked_peers = 0
        # Messages received before ``start()`` are buffered, not dropped:
        # with the tightest possible quorum (exactly 2f+1 alive validators)
        # a single lost acknowledgement would block certification forever.
        self._pre_start_buffer: List = []

        # Statistics.
        self.proposals_made = 0
        self.leader_timeouts_suffered = 0
        self.transactions_submitted = 0
        self.transactions_proposed = 0
        self.fetch_requests_sent = 0
        # Fetch waste, counted where it happens: vertices this node put
        # into responses, vertices it got back, and how many of those
        # its DAG lacked.
        self.fetch_vertices_served = 0
        self.fetch_vertices_received = 0
        self.fetch_vertices_new = 0
        self.recoveries = 0
        # Certified deliveries dropped because the vertex named another slot.
        self.slot_mismatches_dropped = 0

        self.network.register(validator_id, committee.region_of(validator_id), self._on_network_message)
        self.dag.on_insert(self._on_vertex_inserted)

    # -- observability ------------------------------------------------------------

    def install_observability(self, tracer: Tracer, registry=None) -> None:
        """Install a tracer (and optional instrumentation registry).

        Propagated into every protocol component the node owns; crash
        recovery rebuilds those components, so :meth:`recover` re-runs the
        propagation (``_tracing`` doubles as the "was observability ever
        installed" flag).
        """
        self._tracer = tracer
        self._tracing = tracer.enabled
        self._registry = registry
        self._propagate_observability()

    def _propagate_observability(self) -> None:
        self.dag.install_tracer(self._tracer, self.id)
        self.consensus.install_tracer(self._tracer)
        self.schedule_manager.install_tracer(self._tracer, self.id)
        self.broadcast_protocol.install_observability(self._tracer, self._registry)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Insert genesis, enter round 1, and propose the first vertex."""
        if self.started:
            raise ConfigurationError(f"validator {self.id} was already started")
        for vertex in genesis_vertices(self.committee):
            self.dag.add(vertex)
            self._persist_vertex(vertex)
        self.started = True
        self._enter_round(1)
        buffered, self._pre_start_buffer = self._pre_start_buffer, []
        for sender, message in buffered:
            self._on_network_message(sender, message)

    def crash(self) -> None:
        """Crash the node: it stops proposing and drops all traffic."""
        if self.crashed:
            return
        # Client arrivals up to this instant were accepted before the crash.
        self.simulator.settle()
        self.crashed = True
        self.network.set_crashed(self.id, True)
        self._cancel_timers()

    def recover(self) -> None:
        """Recover from a crash by replaying the persistent store.

        The in-memory protocol state (DAG, consensus, schedule manager,
        broadcast layer) is rebuilt from the persisted vertices; because
        the commit rule and the schedule changes are deterministic
        functions of the DAG, the recovered node reconstructs an ordering
        consistent with its pre-crash one before resuming.  The validator
        then re-broadcasts its highest pre-crash proposal (same digest, so
        this is not equivocation) and relies on the synchronizer to catch
        up with rounds it missed while down.

        Known simplification: the production system also persists the
        acknowledgement votes it cast for other validators' proposals; the
        simulation does not, which is harmless in crash-only executions
        (there is no equivocation to protect against).
        """
        if not self.crashed:
            return
        # Client arrivals during the downtime are dropped, not pooled.
        self.simulator.settle()
        self.recoveries += 1
        self.crashed = False
        self.network.set_crashed(self.id, False)
        if self.schedule_manager_factory is not None:
            self.schedule_manager = self.schedule_manager_factory()
        self._rebuild_from_store()
        self._rebuild_broadcast()
        if self._tracing or self._registry is not None:
            # The rebuild created fresh dag/consensus/broadcast objects
            # (and possibly a fresh schedule manager); re-thread the
            # observability hooks or the recovered node goes dark.
            self._propagate_observability()
        last_proposal = self._highest_persisted_proposal()
        self.last_proposal_time = self.simulator.now
        self._anchor_timeout_expired = False
        self._advance_handle = None
        self._anchor_timer_handle = None
        self._fetch_timer = None
        self._fetch_requested.clear()
        if last_proposal is None:
            self._enter_round(1)
            return
        self.current_round = last_proposal.round
        self.broadcast_protocol.broadcast(last_proposal, last_proposal.round)
        if is_anchor_round(self.current_round):
            self._start_anchor_timer(self.current_round)
        self._maybe_advance()

    def _rebuild_from_store(self) -> None:
        vertices = sorted(
            (value for _, value in self.store.family(PersistentStore.CF_VERTICES).items()),
            key=lambda vertex: (vertex.round, vertex.source),
        )
        self.dag = DagStore(self.committee)
        self.consensus = BullsharkConsensus(
            owner=self.id,
            committee=self.committee,
            dag=self.dag,
            schedule_manager=self.schedule_manager,
            record_sequence=self.config.record_sequence,
        )
        self.consensus.clock = lambda: self.simulator.now
        self.dag.on_insert(self._on_vertex_inserted_recovery)
        for vertex in vertices:
            self.dag.add(vertex)
        # Switch back to the live insertion callback for new traffic.
        self.dag.replace_insert_callbacks([self._on_vertex_inserted])

    def _build_broadcast(self):
        protocol = CertifiedBroadcast(
            self.id,
            self.committee,
            self.network,
            self._on_broadcast_delivery,
        )
        protocol.policy = self.behavior
        return protocol

    def set_behavior(self, policy: Optional[BehaviorPolicy]) -> None:
        """Install (or, with ``None``/honest, remove) a behavior policy.

        The policy is shared with the broadcast protocol so both layers
        consult the same object; fault plans call this on their timeline
        to turn a validator adversarial and back.
        """
        if policy is None:
            policy = HONEST
        previous = self.behavior
        if previous is not policy:
            previous.detach(self)
        self.behavior = policy
        policy.attach(self)
        self.broadcast_protocol.policy = policy

    def _rebuild_broadcast(self) -> None:
        self.broadcast_protocol = self._build_broadcast()
        self._message_handlers = self._build_message_handlers()

    def _highest_persisted_proposal(self) -> Optional[Vertex]:
        proposals = self.store.family("own_proposals")
        rounds = proposals.keys()
        if not rounds:
            return None
        return proposals.get(max(rounds))

    def _on_vertex_inserted_recovery(self, vertex: Vertex) -> None:
        """Replay path: run consensus but skip round-advancement side effects."""
        self.consensus.process_vertex(vertex)

    def _highest_quorum_round(self) -> Round:
        round_number = self.dag.highest_round()
        while round_number > 0 and not self.dag.has_quorum_at(round_number):
            round_number -= 1
        return round_number

    def _cancel_timers(self) -> None:
        for handle_name in ("_advance_handle", "_anchor_timer_handle", "_fetch_timer"):
            handle = getattr(self, handle_name)
            if handle is not None:
                self.simulator.cancel(handle)
                setattr(self, handle_name, None)

    # -- transactions ---------------------------------------------------------------

    def submit_transaction(self, transaction: Transaction) -> None:
        """Accept a client transaction (a counter increment submitted to
        this validator: the pool refuses any other) into the local pool."""
        if self.crashed:
            return
        self.transaction_pool.append(transaction)
        self.transactions_submitted += 1

    def submit_transactions(self, batch: TransactionBatch) -> None:
        """Accept a batch of client transactions into the local pool."""
        if self.crashed:
            return
        self.transaction_pool.extend(batch)
        self.transactions_submitted += len(batch)

    @property
    def pool_size(self) -> int:
        self.simulator.settle()
        return len(self.transaction_pool)

    # -- round progression --------------------------------------------------------------

    def _enter_round(self, round_number: Round) -> None:
        if self.config.max_round is not None and round_number > self.config.max_round:
            return
        self.current_round = round_number
        self._anchor_timeout_expired = False
        self._propose(round_number)
        if is_anchor_round(round_number):
            self._start_anchor_timer(round_number)
        # Vertices for this round may already be in the DAG (fast peers).
        self._maybe_advance()

    def _propose(self, round_number: Round) -> None:
        if self.crashed:
            return
        parents = [vertex.id for vertex in self.dag.vertices_at(round_number - 1)]
        behavior = self.behavior
        if not behavior.transparent:
            honest_parents = parents
            parents = behavior.select_parents(round_number, parents)
            if self._tracing and set(parents) != set(honest_parents):
                self._tracer.emit(
                    "adversary_parents",
                    node=self.id,
                    round=round_number,
                    honest=len(honest_parents),
                    chosen=len(parents),
                )
        batch = self._next_batch()
        vertex = make_vertex(
            round_number,
            self.id,
            edges=parents,
            block=batch,
            created_at=self.simulator.now,
        )
        self.proposals_made += 1
        self.transactions_proposed += len(batch)
        self.last_proposal_time = self.simulator.now
        if self._tracing:
            self._tracer.emit(
                "vertex_proposed",
                node=self.id,
                round=round_number,
                parents=len(parents),
                batch=len(batch),
            )
        # Persist the proposal before broadcasting so that a recovering
        # validator re-broadcasts the same vertex instead of equivocating.
        self.store.family("own_proposals").put(round_number, vertex)
        if not behavior.transparent:
            delay = behavior.proposal_delay(round_number)
            if delay > 0.0:
                if self._tracing:
                    self._tracer.emit(
                        "adversary_proposal_delay",
                        node=self.id,
                        round=round_number,
                        delay=delay,
                    )
                self._broadcast_later(vertex, round_number, delay)
                return
        self.broadcast_protocol.broadcast(vertex, round_number)

    def _broadcast_later(self, vertex: Vertex, round_number: Round, delay: SimTime) -> None:
        """Sit on an own proposal (lazy-leader behavior policies).

        The proposal is already persisted, so a crash before the delayed
        broadcast fires recovers into the normal re-broadcast path; the
        fire-time guards make the delayed event a no-op in that case
        (the rebuilt protocol instance owns the round by then).
        """
        protocol = self.broadcast_protocol

        def fire() -> None:
            if self.crashed or self.broadcast_protocol is not protocol:
                return
            protocol.broadcast(vertex, round_number)

        self.simulator.schedule(delay, fire)

    def _next_batch(self) -> Sequence:
        # Client load is a lazy source: what arrived by now enters the
        # pool here, when the pool is read, not one heap event at a time.
        self.simulator.settle()
        pool = self.transaction_pool
        return pool.take(self.config.max_batch_size) if pool else ()

    def _start_anchor_timer(self, round_number: Round) -> None:
        leader = self.schedule_manager.leader_for_round(round_number)
        if leader == self.id:
            return
        if self.dag.vertex_of(round_number, leader) is not None:
            return

        def on_timeout() -> None:
            self._anchor_timer_handle = None
            if self.current_round != round_number:
                return
            self._anchor_timeout_expired = True
            self.leader_timeouts_suffered += 1
            self._maybe_advance()

        self._anchor_timer_round = round_number
        self._anchor_timer_handle = self.simulator.schedule(
            self.config.leader_timeout, on_timeout
        )

    def _maybe_advance(self) -> None:
        """Advance to the next round when the Bullshark conditions hold."""
        if not self.started or self.crashed:
            return
        if self._advance_handle is not None:
            return
        if self.current_round < self.dag.lowest_round:
            # State sync moved the DAG past the round this validator was
            # proposing in; rejoin the committee at the current frontier.
            frontier = self._highest_quorum_round()
            if frontier >= self.dag.lowest_round:
                self._enter_round(frontier + 1)
            return
        round_number = self.current_round
        if self.config.max_round is not None and round_number >= self.config.max_round:
            return
        # Our own vertex must have been certified and delivered back to us.
        if self.dag.vertex_of(round_number, self.id) is None:
            return
        if not self.dag.has_quorum_at(round_number):
            return
        if is_anchor_round(round_number) and not self._anchor_timeout_expired:
            leader = self.schedule_manager.leader_for_round(round_number)
            if leader != self.id and self.dag.vertex_of(round_number, leader) is None:
                return
        self._schedule_advance()

    def _schedule_advance(self) -> None:
        earliest = self.last_proposal_time + self.config.min_round_interval
        delay = max(0.0, earliest - self.simulator.now)
        if self.dag.has_quorum_at(self.current_round + 1):
            # A quorum has already finished the round *after* ours: we are
            # lagging behind the frontier (for example after recovering from
            # a crash, or after being started late).  Skip the pacing delay
            # so the proposal phase re-synchronizes with the rest of the
            # committee; in steady state this condition never holds.
            delay = 0.0

        def advance() -> None:
            self._advance_handle = None
            if self.crashed:
                return
            if self._anchor_timer_handle is not None:
                self.simulator.cancel(self._anchor_timer_handle)
                self._anchor_timer_handle = None
            # A validator that fell far behind (for example after
            # recovering from a crash) jumps directly past the highest
            # round for which it holds a quorum, instead of replaying
            # every round it missed one by one.
            next_round = self.current_round + 1
            highest_quorum = self._highest_quorum_round()
            if highest_quorum > next_round + 1:
                next_round = highest_quorum + 1
            self._enter_round(next_round)

        self._advance_handle = self.simulator.schedule(delay, advance)

    # -- message handling -----------------------------------------------------------------

    def _on_network_message(self, sender: ValidatorId, message) -> None:
        if self.crashed:
            return
        if not self.started:
            self._pre_start_buffer.append((sender, message))
            return
        # Exact-class dispatch; this runs once per delivered message, so
        # the handler map replaces a chain of isinstance checks through
        # the broadcast layer.  Unknown classes fall back to the broadcast
        # protocol's own dispatch (custom protocols in tests may accept
        # message types the map does not know about).  The identity check
        # rebuilds the map if something replaced ``broadcast_protocol``
        # directly instead of going through ``_rebuild_broadcast`` — the
        # map must never dispatch into a dead protocol instance.
        if self.broadcast_protocol is not self._handlers_protocol:
            self._message_handlers = self._build_message_handlers()
        handler = self._message_handlers.get(message.__class__)
        if handler is not None:
            handler(sender, message)
            return
        self.broadcast_protocol.handle_message(sender, message)

    def _build_message_handlers(self) -> Dict[type, Callable]:
        """Flat message-class dispatch map for the delivery hot path.

        A substituted protocol without a dispatch map keeps its
        ``handle_message`` entry point via the dispatch fallback.
        """
        handlers: Dict[type, Callable] = {}
        protocol_handlers = getattr(self.broadcast_protocol, "_handlers", None)
        if protocol_handlers is not None:
            handlers.update(protocol_handlers)
        handlers[FetchRequest] = self._handle_fetch_request
        handlers[FetchResponse] = self._handle_fetch_response
        self._handlers_protocol = self.broadcast_protocol
        return handlers

    def _on_broadcast_delivery(self, delivery: Delivery) -> None:
        vertex = delivery.payload
        if not isinstance(vertex, Vertex):
            return
        if vertex.round != delivery.round or vertex.source != delivery.origin:
            # Acks bind a payload to the broadcaster's own slot, so it can
            # certify there a vertex whose id names an honest validator.
            self.slot_mismatches_dropped += 1
            if self._tracing:
                self._tracer.emit(
                    "slot_mismatch_dropped",
                    node=self.id,
                    round=delivery.round,
                    origin=delivery.origin,
                    vertex_round=vertex.round,
                    vertex_source=vertex.source,
                )
            return
        self._ingest_vertex(vertex)

    def _ingest_vertex(self, vertex: Vertex) -> None:
        inserted = self.dag.add(vertex)
        if not inserted and vertex.id not in self.dag:
            missing = self.dag.missing_parents(vertex)
            if missing:
                self._request_missing(missing, preferred_peer=vertex.source)

    # -- synchronizer (missing parent fetcher) ------------------------------------------------

    def _request_missing(self, missing, preferred_peer: ValidatorId) -> None:
        now = self.simulator.now
        to_request = []
        for vertex_id in missing:
            last = self._fetch_requested.get(vertex_id)
            if last is not None and now - last < self.config.fetch_retry_interval:
                continue
            self._fetch_requested[vertex_id] = now
            to_request.append(vertex_id)
        if not to_request:
            return
        self.fetch_requests_sent += 1
        request = FetchRequest(
            requester=self.id,
            missing=tuple(to_request),
            horizon=self.dag.lowest_round,
            held=self.dag.held_sources(),
        )
        target = preferred_peer if preferred_peer != self.id else self._random_peer()
        self._asked_peers |= 1 << target
        self.network.send(self.id, target, request)
        self._schedule_fetch_retry()

    def _schedule_fetch_retry(self) -> None:
        if self._fetch_timer is not None:
            return

        def retry() -> None:
            self._fetch_timer = None
            if self.crashed:
                return
            missing = self.dag.pending_missing()
            if not missing:
                self._fetch_requested.clear()
                return
            # Ask a random peer; the previous target may have crashed.
            self._fetch_requested.clear()
            self._request_missing(missing, preferred_peer=self._random_peer())

        self._fetch_timer = self.simulator.schedule(self.config.fetch_retry_interval, retry)

    def _random_peer(self) -> ValidatorId:
        peers = [validator for validator in self.committee.validators if validator != self.id]
        return self.simulator.rng.choice(peers)

    def _handle_fetch_request(self, sender: ValidatorId, request: FetchRequest) -> None:
        behavior = self.behavior
        if not behavior.transparent and not behavior.should_serve_fetch(sender):
            # Behavior policy: starve this peer's synchronizer.
            return
        found = self._unheld_history(request)
        if not found:
            return
        self.fetch_vertices_served += len(found)
        # The requester state-syncs only when our horizon is past its
        # frontier (``_maybe_state_sync``), and its frontier only grows
        # while the response is in flight, so the snapshot is built for
        # the requests that can use it.
        horizon = self.dag.lowest_round
        requester_highest = max((round_number for round_number, _ in request.held), default=0)
        response = FetchResponse(
            responder=self.id,
            vertices=tuple(found),
            responder_gc_round=horizon,
            snapshot=(
                self._consensus_snapshot() if horizon > requester_highest + 1 else None
            ),
        )
        self.network.send(self.id, sender, response)

    def _unheld_history(self, request: FetchRequest) -> List[Vertex]:
        """The causal history of ``request.missing`` the requester lacks.

        A level-wise walk over the round slabs, one source bitmask per
        level.  It stops at every vertex the requester's DAG holds —
        causal completeness puts everything beneath it, down to the
        requester's horizon, in that DAG too — and at the horizon
        itself, so it costs the vertices shipped plus their edges, not
        the size of the history.  Each requested vertex contributes, in
        ascending (round, source) order, what the ones before it did
        not; vertices this validator lacks block the walk.
        """
        round_map = self.dag.round_map
        sources_of = self.committee.stake_vector.validators_of_mask
        size = self.committee.size
        in_committee = (1 << size) - 1
        horizon = request.horizon
        # Per round: sources the requester holds or an earlier root shipped.
        covered: Dict[Round, int] = dict(request.held)
        found: List[Vertex] = []
        for root in request.missing:
            if not 0 <= root.source < size:
                continue
            round_number = root.round
            wanted = 1 << root.source
            levels: List[List[Vertex]] = []
            while round_number >= horizon:
                already = covered.get(round_number, 0)
                wanted &= ~already
                slots = round_map(round_number)
                if not wanted or not slots:
                    break
                covered[round_number] = already | wanted
                level: List[Vertex] = []
                parents = 0
                for source in sources_of(wanted):
                    vertex = slots[source]
                    if vertex is not None:
                        level.append(vertex)
                        parents |= vertex.edge_mask
                levels.append(level)
                wanted = parents & in_committee
                round_number -= 1
            for level in reversed(levels):
                found.extend(level)
        return found

    def _consensus_snapshot(self) -> ConsensusSnapshot:
        """Summarize committed state for a peer that may need state sync."""
        if isinstance(self.schedule_manager, HammerHeadScheduleManager):
            scores = self.schedule_manager.scores.as_dict()
            commits_in_epoch = self.schedule_manager.commits_in_epoch
        else:
            scores = {}
            commits_in_epoch = 0
        horizon = self.dag.lowest_round
        return ConsensusSnapshot(
            last_ordered_anchor_round=self.consensus.last_ordered_anchor_round,
            gc_round=horizon,
            schedules=tuple(self.schedule_manager.history),
            scores=scores,
            commits_in_epoch=commits_in_epoch,
            ordered_vertices=self.consensus.ordered_from(horizon),
            vote_accounting=self.schedule_manager.vote_accounting_snapshot(),
        )

    def _handle_fetch_response(self, sender: ValidatorId, response: FetchResponse) -> None:
        self._maybe_state_sync(sender, response)
        dag = self.dag
        horizon = dag.lowest_round
        vertices = response.vertices
        # What the responder was asked for: history our DAG lacks.  A
        # vertex parked here counts as new, because parked parents are
        # requested by id like absent ones; the trace tells them apart.
        new = sum(1 for vertex in vertices if vertex.round >= horizon and vertex.id not in dag)
        self.fetch_vertices_received += len(vertices)
        self.fetch_vertices_new += new
        if self._tracing:
            parked = {vertex.id for vertex in dag.pending_vertices()}
            self._tracer.emit(
                "fetch_ingested",
                node=self.id,
                responder=response.responder,
                received=len(vertices),
                new=new,
                parked=sum(1 for vertex in vertices if vertex.id in parked),
            )
        for vertex in sorted(vertices, key=lambda vertex: vertex.round):
            # Ingesting can commit and raise the horizon mid-response;
            # whatever falls below it (or was sent below it by a stale
            # or hostile responder) is ordered history, not a straggler
            # to re-insert.
            if vertex.round >= dag.lowest_round:
                self._ingest_vertex(vertex)
        dag.reconsider_pending()
        self._maybe_advance()

    def _maybe_state_sync(self, sender: ValidatorId, response: FetchResponse) -> None:
        """Fall back to state sync when the missing history was pruned.

        If the responder has already garbage-collected the rounds this
        validator is missing, vertex-by-vertex fetching can never complete.
        The production system downloads a certified checkpoint instead; the
        simulation models that by adopting the responder's committed
        position, ordered-vertex set, and schedule state, then resuming
        normal operation from the responder's GC horizon.  Only a peer
        this validator sent a fetch request to is trusted with that; an
        unsolicited snapshot is ignored (its vertices are still ingested).
        """
        if response.responder_gc_round <= self.dag.highest_round() + 1:
            return
        if not self._asked_peers >> sender & 1:
            return
        snapshot = response.snapshot
        if snapshot is None:
            return
        self.consensus.fast_forward(snapshot.last_ordered_anchor_round)
        self.consensus.adopt_ordered(snapshot.ordered_vertices)
        self.schedule_manager.adopt_state(
            list(snapshot.schedules),
            dict(snapshot.scores),
            snapshot.commits_in_epoch,
            vote_accounting=getattr(snapshot, "vote_accounting", None),
        )
        # The adopted schedule history can change any round's leader, so
        # the commit scan must re-derive its candidates.
        self.consensus.reset_candidates()
        self.dag.garbage_collect(snapshot.gc_round)
        self.dag.reconsider_pending()
        self._fetch_requested.clear()

    # -- DAG insertion reaction ---------------------------------------------------------------

    def _on_vertex_inserted(self, vertex: Vertex) -> None:
        self._persist_vertex(vertex)
        committed = self.consensus.process_vertex(vertex)
        if self.config.gc_depth and (committed or self.dag._stale_below_horizon):
            # The GC horizon only moves when a commit advanced the last
            # ordered round (or a state-sync straggler needs sweeping),
            # so the probe is skipped on the other ~95% of insertions.
            self.consensus.garbage_collect(keep_rounds=self.config.gc_depth)
        if vertex.round >= self.current_round - 1:
            self._maybe_advance()

    def _persist_vertex(self, vertex: Vertex) -> None:
        # Inlined ColumnFamily.put: one write per insertion.
        family = self._vertices_family
        family.writes += 1
        family._data[vertex.id] = vertex

    # -- convenience accessors -------------------------------------------------------------------

    def on_ordered(self, callback: Callable[[OrderedVertex], None]) -> None:
        self.consensus.on_ordered(callback)

    def on_commit(self, callback: Callable[[CommittedSubDag], None]) -> None:
        self.consensus.on_commit(callback)

    @property
    def ordered_count(self) -> int:
        return self.consensus.ordered_count

    @property
    def commit_count(self) -> int:
        return self.consensus.commit_count

    def describe(self) -> str:
        return (
            f"validator {self.id} (round {self.current_round}, "
            f"{self.commit_count} commits, {self.schedule_manager.describe()})"
        )
