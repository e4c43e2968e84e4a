"""The validator node state machine.

The node glues the substrates together exactly the way the production
implementation does:

* it proposes one vertex per round, batching pending transactions;
* it disseminates vertices with the broadcast layer and inserts each
  certified or fetched vertex into the local DAG in one function
  (:meth:`ValidatorNode.ingest`: the broadcast layer hands it the
  verified certificate, the synchronizer the fetched vertex, neither
  wrapped), which asks its synchronizer (:mod:`repro.node.synchronizer`)
  for the parents a parked vertex waits on and refuses, counts and
  traces a vertex the DAG cannot hold;
* it advances rounds once a 2f+1 stake quorum of the current round is
  present, waiting up to ``leader_timeout`` for the anchor of even rounds
  (the Bullshark leader wait — the mechanism through which crashed leaders
  degrade the baseline);
* it runs the Bullshark commit rule on every insertion and feeds the
  ordered prefix to its schedule manager (static for the baseline,
  HammerHead for the paper's protocol);
* it persists its latest proposal, captures the vertices above its GC
  horizon at a crash, and keeps its commit record (consensus engine and
  schedule manager) across the crash, so a crashed validator recovers in
  time and memory bounded by the GC window, not by the length of the run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.behavior import HONEST, BehaviorPolicy
from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.consensus.committed import CommittedSubDag, OrderedVertex
from repro.core.manager import HammerHeadScheduleManager, ScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.errors import ConfigurationError, DagError
from repro.network.simulator import EventHandle
from repro.network.transport import Network
from repro.obs.trace import NULL_TRACER, Tracer
from repro.node.config import NodeConfig
from repro.node.messages import ConsensusSnapshot, FetchRequest, FetchResponse
from repro.node.synchronizer import Synchronizer
from repro.rbc.certified import CertifiedBroadcast
from repro.rbc.messages import CertificateMessage
from repro.storage.store import PersistentStore
from repro.types import Round, SimTime, ValidatorId, is_anchor_round
from repro.workload.transactions import TransactionPool


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
    ) -> None:
        self.id = validator_id
        self.committee = committee
        self.network = network
        # The 2f+1 stake the round-advance gate compares against.
        self._quorum = committee.quorum_threshold
        self.config = (config if config is not None else NodeConfig()).validate()
        self.schedule_manager = schedule_manager
        self.store = PersistentStore()

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
        )
        self.consensus.clock = lambda: self.simulator.now
        self.synchronizer = Synchronizer(self, self.config.fetch_retry_interval)

        self.broadcast_protocol = self._build_broadcast()
        self._message_handlers = self._build_message_handlers()

        # Transaction pool (FIFO): windows the client arrivals open and
        # extend while the node is up (``repro.workload.generator``).
        self.transaction_pool = TransactionPool(validator_id)
        # Round progression state.
        self.current_round: Round = 0
        self.started = False
        self.crashed = False
        self.last_proposal_time: SimTime = float("-inf")
        self._advance_handle: Optional[EventHandle] = None
        self._anchor_timer_handle: Optional[EventHandle] = None
        self._anchor_timeout_expired = False
        # Messages received before ``start()`` are buffered, not dropped:
        # with the tightest possible quorum (exactly 2f+1 alive validators)
        # a single lost acknowledgement would block certification forever.
        self._pre_start_buffer: List = []

        # Statistics.
        self.proposals_made = 0
        self.leader_timeouts_suffered = 0
        self.transactions_proposed = 0
        self.recoveries = 0
        # Vertices recovery replayed from the store, over all recoveries.
        self.recovery_replayed = 0
        # Certified deliveries dropped because the vertex named another slot.
        self.slot_mismatches_dropped = 0
        # Certified or fetched vertices the DAG cannot hold (``ingest``).
        self.vertices_refused = 0

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
        self.synchronizer.install_tracer(self._tracer)
        self.schedule_manager.install_tracer(self._tracer, self.id)
        self.broadcast_protocol.install_observability(self._tracer, self._registry)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Insert genesis, enter round 1, and propose the first vertex."""
        if self.started:
            raise ConfigurationError(f"validator {self.id} was already started")
        for vertex in genesis_vertices(self.committee):
            self.dag.add(vertex)
        self.started = True
        self.network.route(self.id, self._message_handlers)
        self._enter_round(1)
        buffered, self._pre_start_buffer = self._pre_start_buffer, []
        for sender, message in buffered:
            handler = self._message_handlers.get(message.__class__)
            if handler is not None and not self.crashed:
                handler(sender, message)

    def crash(self) -> None:
        """Crash the node: it stops proposing and drops all traffic."""
        if self.crashed:
            return
        # Client arrivals up to this instant were accepted before the crash.
        self.simulator.settle()
        self.transaction_pool.detach()
        self.store.capture(self.dag)
        self.crashed = True
        self.network.set_crashed(self.id, True)
        self._cancel_timers()

    def recover(self) -> None:
        """Recover from a crash: keep the commit record, rebuild the DAG from the store.

        The consensus engine and the schedule manager change state only
        inside a commit, so they stand for the record the production
        consensus store writes at every commit: they are kept, with every
        subscriber registered through :meth:`on_ordered` /
        :meth:`on_commit`.  Everything else in memory is discarded.  The
        DAG is rebuilt from the store's horizon by replaying its vertex
        log, at most the GC window whatever the run's length, and the
        commit scan re-derives its candidates over it; the broadcast
        layer, parked vertices, fetch state and timers start afresh.  The
        validator then re-broadcasts its latest proposal (same digest, so
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
        self._rebuild_dag()
        self.synchronizer.forget_requests()
        self._rebuild_broadcast()
        if self._tracing or self._registry is not None:
            # Fresh dag and broadcast objects: re-thread the observability
            # hooks or the recovered node goes dark.
            self._propagate_observability()
        last_proposal = self.store.own_proposal
        self.last_proposal_time = self.simulator.now
        self._anchor_timeout_expired = False
        self._advance_handle = None
        self._anchor_timer_handle = None
        if last_proposal is None:
            self._enter_round(1)
            return
        self.current_round = last_proposal.round
        self.broadcast_protocol.broadcast(last_proposal, last_proposal.round)
        if is_anchor_round(self.current_round):
            self._start_anchor_timer(self.current_round)
        self._maybe_advance()

    def _rebuild_dag(self) -> None:
        """A DAG holding the store's vertex log above its horizon, under the kept consensus."""
        dag = DagStore(self.committee)
        # Parents below the horizon count as present: ordered history.
        dag.garbage_collect(self.store.horizon)
        vertices = self.store.replay_order()
        for vertex in vertices:
            dag.add(vertex)
        self.recovery_replayed += len(vertices)
        # The old DAG's insertion subscribers, the node's own included,
        # follow it; the replay itself is neither persisted nor committed.
        dag.replace_insert_callbacks(self.dag._on_insert)
        self.dag = self.consensus.dag = dag
        self.consensus.reset_candidates()

    def _build_broadcast(self):
        protocol = CertifiedBroadcast(
            self.id,
            self.committee,
            self.network,
            self.ingest,
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
        if self.started:
            self.network.route(self.id, self._message_handlers)

    def _highest_quorum_round(self) -> Round:
        round_number = self.dag.highest_round()
        while round_number > 0 and not self.dag.has_quorum_at(round_number):
            round_number -= 1
        return round_number

    def _cancel_timers(self) -> None:
        for handle_name in ("_advance_handle", "_anchor_timer_handle"):
            handle = getattr(self, handle_name)
            if handle is not None:
                self.simulator.cancel(handle)
                setattr(self, handle_name, None)
        self.synchronizer.stop()

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
        self.store.own_proposal = vertex
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

        self._anchor_timer_handle = self.simulator.schedule(
            self.config.leader_timeout, on_timeout
        )

    def _maybe_advance(self) -> None:
        """Advance to the next round when the Bullshark conditions hold."""
        if not self.started or self.crashed:
            return
        if self._advance_handle is not None:
            return
        dag = self.dag
        if self.current_round < dag.lowest_round:
            # State sync moved the DAG past the round this validator was
            # proposing in; rejoin the committee at the current frontier.
            frontier = self._highest_quorum_round()
            if frontier >= dag.lowest_round:
                self._enter_round(frontier + 1)
            return
        round_number = self.current_round
        if self.config.max_round is not None and round_number >= self.config.max_round:
            return
        # Our own vertex must have been certified and delivered back to
        # us; the round's source mask and stake are the DAG's read-only
        # attributes.
        present = dag.round_sources.get(round_number, 0)
        if not present >> self.id & 1:
            return
        if dag.round_stake.get(round_number, 0) < self._quorum:
            return
        # A started validator is at round 1 or above, so an even round is
        # an anchor round.
        if not round_number % 2 and not self._anchor_timeout_expired:
            leader = self.schedule_manager.leader_for_round(round_number)
            if leader != self.id and not present >> leader & 1:
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
        """The registered handler: what the class map does not route.

        Before :meth:`start` the map is not installed and every message
        lands here, to be buffered; after it, only a class no handler
        knows does, and is dropped.
        """
        if not self.started:
            self._pre_start_buffer.append((sender, message))

    def _build_message_handlers(self) -> Dict[type, Callable]:
        """Flat message-class dispatch map: the transport routes each
        delivery by its exact class through it (``Network.route``)."""
        handlers: Dict[type, Callable] = dict(self.broadcast_protocol._handlers)
        handlers[FetchRequest] = self.synchronizer.on_request
        handlers[FetchResponse] = self._handle_fetch_response
        return handlers

    def ingest(
        self, delivered: Union[CertificateMessage, Vertex], sender: Optional[ValidatorId] = None
    ) -> None:
        """Insert a delivered vertex, or ask for the parents it waits on.

        ``delivered`` is what the broadcast layer hands over, the
        certificate that delivered a payload for its round and origin, or
        a vertex the synchronizer fetched, which stands for its own slot;
        the synchronizer names the responder as ``sender`` (the origin
        stands for it otherwise).  Neither is wrapped in another object.
        A vertex the DAG cannot hold (a source or an edge source outside
        the committee, no 2f+1 parent quorum, a twin of a stored or parked
        vertex) is refused: counted in ``vertices_refused`` and traced
        with ``sender``, never raised into the message handler.
        """
        certified = delivered.__class__ is CertificateMessage
        vertex = delivered.payload if certified else delivered
        if not isinstance(vertex, Vertex):
            return
        if certified and (vertex.round != delivered.round or vertex.source != delivered.origin):
            # Acks bind a payload to the broadcaster's own slot, so it can
            # certify there a vertex whose id names an honest validator.
            self.slot_mismatches_dropped += 1
            if self._tracing:
                self._tracer.emit(
                    "slot_mismatch_dropped",
                    node=self.id,
                    round=delivered.round,
                    origin=delivered.origin,
                    vertex_round=vertex.round,
                    vertex_source=vertex.source,
                )
            return
        dag = self.dag
        try:
            if dag.add(vertex):
                return
        except DagError as error:
            if dag.get(vertex.id) is vertex:
                # Raised after the vertex went in: not a verdict on it.
                raise
            self.vertices_refused += 1
            if self._tracing:
                self._tracer.emit(
                    "vertex_refused",
                    node=self.id,
                    round=vertex.round,
                    source=vertex.source,
                    sender=vertex.source if sender is None else sender,
                    reason=type(error).__name__,
                )
            return
        if dag.awaited:
            self.synchronizer.request(dag.awaited, preferred_peer=vertex.source)

    # -- state sync ---------------------------------------------------------------------------

    def consensus_snapshot(self) -> ConsensusSnapshot:
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
        self.synchronizer.on_response(sender, response)
        self._maybe_advance()

    def _maybe_state_sync(self, sender: ValidatorId, response: FetchResponse) -> None:
        """Fall back to state sync when the missing history was pruned.

        If the responder has already garbage-collected the rounds this
        validator is missing, vertex-by-vertex fetching can never complete.
        The production system downloads a certified checkpoint instead; the
        simulation models that by adopting the responder's committed
        position, ordered-vertex set, and schedule state, then resuming
        normal operation from the responder's GC horizon.  Only a peer
        with a fetch request of this validator's still open is trusted
        with that; an unsolicited snapshot is ignored (its vertices are
        still ingested).
        """
        if response.responder_gc_round <= self.dag.highest_round() + 1:
            return
        if not self.synchronizer.has_open_request(sender):
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
        self.synchronizer.forget_requests()

    # -- DAG insertion reaction ---------------------------------------------------------------

    def _on_vertex_inserted(self, vertex: Vertex) -> None:
        committed = self.consensus.process_vertex(vertex)
        if self.config.gc_depth and (committed or self.dag._stale_below_horizon):
            # The GC horizon only moves when a commit advanced the last
            # ordered round (or a state-sync straggler needs sweeping),
            # so the probe is skipped on the other ~95% of insertions.
            self.consensus.garbage_collect(keep_rounds=self.config.gc_depth)
        if vertex.round >= self.current_round - 1:
            self._maybe_advance()

    # -- convenience accessors -------------------------------------------------------------------

    def on_ordered(self, callback: Callable[[OrderedVertex], None]) -> None:
        self.consensus.on_ordered(callback)

    def on_commit(self, callback: Callable[[CommittedSubDag], None]) -> None:
        self.consensus.on_commit(callback)

    @property
    def commit_count(self) -> int:
        return self.consensus.commit_count
