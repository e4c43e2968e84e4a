"""Unit tests for the validator node over a small simulated network."""

import collections
import dataclasses
import functools
from array import array

import pytest

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.node.config import NodeConfig
from repro.node.messages import FetchRequest, FetchResponse
from repro.node.validator import ValidatorNode
from repro.obs.consistency import check_run_consistency
from repro.schedule.round_robin import initial_schedule
from repro.errors import ConfigurationError
from repro.workload.generator import ClientArrivals, LoadGenerator, _Column
from repro.workload.phases import LoadPhase, spawn_phased_load
from tests.conftest import bare_synchronizer, build_round, decoded_vertex, vid
from tests.doubles import UniformLatencyModel, dag_vertices, deliver, pooled, record_orders


def build_cluster(size=4, seed=1, config=None, dynamic=False, commits_per_schedule=4):
    committee = Committee.build(size)
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.002))
    node_config = config if config is not None else NodeConfig(
        max_batch_size=50,
        min_round_interval=0.05,
        leader_timeout=0.5,
    )

    def manager_factory():
        schedule = initial_schedule(committee, seed=seed, permute=False)
        if dynamic:
            return HammerHeadScheduleManager(
                committee, schedule, policy=CommitCountPolicy(commits_per_schedule)
            )
        return StaticScheduleManager(committee, schedule)

    nodes = {}
    for validator in committee.validators:
        nodes[validator] = ValidatorNode(
            validator_id=validator,
            committee=committee,
            network=network,
            schedule_manager=manager_factory(),
            config=node_config,
        )
    return committee, simulator, network, nodes


def gc_config(gc_depth):
    return NodeConfig(
        max_batch_size=50,
        min_round_interval=0.05,
        leader_timeout=0.5,
        gc_depth=gc_depth,
    )


def logged_ids(node):
    return {vertex.id for vertices in node.store.rounds.values() for vertex in vertices}


def open_requests(synchronizer):
    """Peer -> requests sent to it and not answered, for the peers with any."""
    return {peer: count for peer, count in enumerate(synchronizer.open_requests) if count}


def dag_ids(node):
    return {vertex.id for vertex in dag_vertices(node.dag)}


def submit(node, count):
    """Pool ``count`` client transactions (ids from 0) at ``node``: one
    window on an arrival column of its own."""
    zeros = array("d", [0.0]) * count
    column = _Column(node, node.transaction_pool, zeros, array("d", zeros), array("q", [0]) * count, 0)
    node.transaction_pool.add(column, 0, count)


class TestNodeLifecycle:
    def test_nodes_make_progress(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        simulator.run(until=5.0)
        for node in nodes.values():
            assert node.current_round > 10
            assert node.commit_count > 0
            assert node.proposals_made > 10

    def test_double_start_rejected(self):
        committee, simulator, network, nodes = build_cluster()
        nodes[0].start()
        with pytest.raises(ConfigurationError):
            nodes[0].start()

    def test_max_round_stops_progress(self):
        config = NodeConfig(
            max_batch_size=10, min_round_interval=0.05, leader_timeout=0.5, max_round=6
        )
        committee, simulator, network, nodes = build_cluster(config=config)
        for node in nodes.values():
            node.start()
        simulator.run(until=5.0)
        assert all(node.current_round <= 6 for node in nodes.values())

    def test_all_nodes_order_the_same_prefix(self):
        committee, simulator, network, nodes = build_cluster()
        orders = record_orders(nodes)
        for node in nodes.values():
            node.start()
        simulator.run(until=5.0)
        sequences = [order.ids() for order in orders.values()]
        shortest = min(len(sequence) for sequence in sequences)
        assert shortest > 0
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference

    def test_transactions_flow_into_blocks(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        submit(nodes[0], 100)
        simulator.run(until=5.0)
        assert nodes[0].transactions_proposed == 100
        assert len(nodes[0].transaction_pool) == 0

    def test_pool_respects_batch_size(self):
        config = NodeConfig(max_batch_size=5, min_round_interval=0.05, leader_timeout=0.5)
        committee, simulator, network, nodes = build_cluster(config=config)
        submit(nodes[0], 12)
        nodes[0].start()
        # Only the first batch of five was proposed with the round-1 vertex.
        assert nodes[0].transactions_proposed == 5
        assert len(nodes[0].transaction_pool) == 7

    def test_crashed_node_rejects_transactions(self):
        committee, simulator, network, nodes = build_cluster()
        nodes[0].start()
        nodes[0].crash()
        generator = LoadGenerator(0, simulator, [nodes[0]], rate=100.0, duration=0.5)
        generator.start()
        simulator.run(until=1.0)
        assert generator.submitted == 50
        assert nodes[0].transaction_pool.received == 0
        assert not nodes[0].transaction_pool.windows

    def test_a_message_no_handler_knows_is_dropped(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        simulator.run(until=1.0)
        node = nodes[0]
        endpoint = network._endpoints[node.id]
        unrouted = []
        registered = endpoint.handler
        endpoint.handler = lambda sender, message: (unrouted.append(message), registered(sender, message))
        routed = collections.Counter()
        for kind, handler in list(node._message_handlers.items()):
            node._message_handlers[kind] = functools.partial(
                lambda kind, handler, sender, message: (routed.update([kind]), handler(sender, message)), kind, handler
            )
        network.send(1, 0, "opaque")
        simulator.run(until=1.5)
        # Everything else was routed by class; the string reached the
        # registered handler, which drops it once the node has started.
        assert unrouted == ["opaque"] and node._pre_start_buffer == []
        assert sum(routed.values()) > 0 and str not in routed
        assert node.current_round > 0 and node.commit_count > 0

    def test_traffic_before_start_is_buffered_and_replayed_in_order(self):
        committee, simulator, network, nodes = build_cluster()
        late = nodes[3]
        for node in list(nodes.values())[:3]:
            node.start()
        simulator.run(until=0.2)
        buffered = list(late._pre_start_buffer)
        assert len(buffered) > 3
        # No class map until the start: every delivery reaches the buffer.
        assert network._endpoints[late.id].routes == {}
        handled = []

        def recorded(handler, sender, message):
            handled.append((sender, message))
            handler(sender, message)

        late._message_handlers = {
            kind: functools.partial(recorded, handler) for kind, handler in late._message_handlers.items()
        }
        late.start()
        assert network._endpoints[late.id].routes is late._message_handlers
        assert handled == buffered and late._pre_start_buffer == []
        # From the start on, the class map routes every delivery.
        simulator.run(until=1.0)
        assert len(handled) > len(buffered) and late._pre_start_buffer == []
        assert late.commit_count > 0

    def test_a_crashed_validator_drops_and_counts_its_traffic(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        simulator.run(until=0.5)
        node = nodes[3]
        node.crash()
        handled = []
        for kind in list(node._message_handlers):
            node._message_handlers[kind] = lambda sender, message: handled.append(message)
        dropped = network.stats.messages_dropped
        network.send(0, 3, FetchRequest(requester=0, missing=()))
        simulator.run(until=0.6)
        assert handled == [] and node._pre_start_buffer == []
        assert network.stats.messages_dropped > dropped


class TestLeaderTimeouts:
    def test_crashed_leader_causes_timeouts(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        # Validator 0 leads round 2 under the non-permuted schedule; crash it
        # immediately so every anchor round it owns forces a timeout.
        nodes[0].crash()
        simulator.run(until=6.0)
        alive_timeouts = sum(
            node.leader_timeouts_suffered for node in nodes.values() if not node.crashed
        )
        assert alive_timeouts > 0

    def test_no_timeouts_when_all_leaders_alive(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        simulator.run(until=5.0)
        assert all(node.leader_timeouts_suffered == 0 for node in nodes.values())

    def test_progress_despite_crashed_leader(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        nodes[0].crash()
        simulator.run(until=8.0)
        for validator, node in nodes.items():
            if validator == 0:
                continue
            assert node.commit_count > 0
            assert node.current_round > 8


class TestCrashRecovery:
    def test_recovered_node_rejoins_and_catches_up(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        simulator.schedule_at(2.0, nodes[3].crash)
        simulator.schedule_at(4.0, nodes[3].recover)
        simulator.run(until=10.0)
        assert nodes[3].recoveries == 1
        assert not nodes[3].crashed
        # The recovered node keeps up with the rest of the committee.
        max_round = max(node.current_round for node in nodes.values())
        assert nodes[3].current_round >= max_round - 6
        assert nodes[3].commit_count > 0

    def test_recovery_preserves_total_order_prefix(self):
        committee, simulator, network, nodes = build_cluster()
        orders = record_orders(nodes)
        for node in nodes.values():
            node.start()
        simulator.schedule_at(2.0, nodes[2].crash)
        simulator.schedule_at(3.5, nodes[2].recover)
        simulator.run(until=10.0)
        recovered = orders[2].ids()
        reference = orders[0].ids()
        shortest = min(len(recovered), len(reference))
        assert shortest > 0
        assert recovered[:shortest] == reference[:shortest]

    def test_a_recovered_validator_routes_to_its_rebuilt_broadcast_layer(self):
        committee, simulator, network, nodes = build_cluster()
        node = nodes[3]
        for peer in nodes.values():
            peer.start()
        simulator.run(until=1.0)
        crashed_layer = node.broadcast_protocol
        node.crash()
        node.recover()
        rebuilt = node.broadcast_protocol
        assert rebuilt is not crashed_layer
        routes = network._endpoints[node.id].routes
        assert routes is node._message_handlers
        assert {handler.__self__ for kind, handler in routes.items() if kind in rebuilt._handlers} == {rebuilt}
        frozen, delivered = dict(crashed_layer._delivered), len(rebuilt._delivered)
        simulator.run(until=3.0)
        assert len(rebuilt._delivered) > delivered
        assert crashed_layer._delivered == frozen

    def test_recovery_without_crash_is_a_no_op(self):
        committee, simulator, network, nodes = build_cluster()
        nodes[0].start()
        nodes[0].recover()
        assert nodes[0].recoveries == 0

    def test_the_store_holds_the_dag_window_across_a_crash(self):
        committee, simulator, network, nodes = build_cluster(config=gc_config(gc_depth=4))
        node = nodes[1]
        for peer in nodes.values():
            peer.start()
        simulator.run(until=2.0)
        assert node.dag.lowest_round > 4
        # Of its own proposals it keeps the latest, the one it re-broadcasts.
        assert (node.store.own_proposal.source, node.store.own_proposal.round) == (node.id, node.current_round)
        window, horizon = dag_ids(node), node.dag.lowest_round
        node.crash()
        # The log is what the DAG held at the crash: every vertex above the horizon.
        assert (logged_ids(node), node.store.horizon) == (window, horizon)
        node.recover()
        assert dag_ids(node) == window
        assert node.recovery_replayed == len(window)
        simulator.run(until=4.0)
        window, horizon = dag_ids(node), node.dag.lowest_round
        assert horizon > max(vertex_id.round for vertex_id in logged_ids(node))
        node.crash()
        assert (logged_ids(node), node.store.horizon) == (window, horizon)
        node.recover()
        assert dag_ids(node) == window

    def test_each_crash_captures_the_window_per_insert_logging_held(self):
        """The reference: a log written at every insertion and pruned at
        every horizon move, kept beside the node through crash, recovery
        and a second crash; at each crash the captured log equals it."""
        committee, simulator, network, nodes = build_cluster(config=gc_config(gc_depth=4), dynamic=True)
        node = nodes[2]
        reference = {}

        def log(vertex):
            if vertex.round >= node.dag.lowest_round:
                reference[vertex.id] = vertex.round

        def check_and_crash():
            horizon = node.dag.lowest_round
            for vertex_id in [key for key, round_number in reference.items() if round_number < horizon]:
                del reference[vertex_id]
            node.crash()
            assert node.store.horizon == horizon
            assert logged_ids(node) == set(reference)
            captures.append(len(reference))

        captures = []
        node.dag.on_insert(log)
        for peer in nodes.values():
            peer.start()
        simulator.schedule_at(1.5, check_and_crash)
        simulator.schedule_at(1.8, node.recover)
        simulator.schedule_at(3.0, check_and_crash)
        simulator.schedule_at(3.2, node.recover)
        simulator.run(until=5.0)
        assert node.recoveries == 2 and len(captures) == 2 and min(captures) > 0
        assert node.commit_count > 0

    def test_subscribers_see_every_ordered_vertex_once_across_recovery(self):
        committee, simulator, network, nodes = build_cluster(dynamic=True)
        node = nodes[2]
        ordered, committed = [], []
        node.on_ordered(lambda record: ordered.append(record.vertex.id))
        node.on_commit(lambda subdag: committed.append(subdag.anchor.id))
        for peer in nodes.values():
            peer.start()
        simulator.schedule_at(2.0, node.crash)
        simulator.schedule_at(3.0, node.recover)
        simulator.run(until=6.0)
        assert node.recoveries == 1
        assert max(vertex_id.round for vertex_id in ordered) > node.dag.lowest_round
        assert len(set(ordered)) == len(ordered) == node.consensus.ordered_count
        assert len(committed) == node.commit_count

    def test_a_late_recovery_replays_the_gc_window_and_agrees_with_its_peers(self):
        gc_depth, size = 6, 4
        committee, simulator, network, nodes = build_cluster(
            config=gc_config(gc_depth=gc_depth), dynamic=True, commits_per_schedule=4
        )
        node = nodes[2]
        inserted = []
        node.dag.on_insert(inserted.append)
        at_crash = {}

        def crash():
            at_crash.update(horizon=node.dag.lowest_round, schedules=len(node.schedule_manager.history))
            node.crash()

        for peer in nodes.values():
            peer.start()
        simulator.schedule_at(3.0, crash)
        # Down for fewer rounds than the GC depth: the peers still hold what
        # it missed, so it catches up by fetching, not by state sync.
        simulator.schedule_at(3.15, node.recover)
        simulator.run(until=7.0)
        assert at_crash["horizon"] >= 3 * gc_depth
        assert node.consensus.state_sync_gaps == []
        # Schedules changed before the crash and after the recovery.
        assert 1 < at_crash["schedules"] < len(node.schedule_manager.history)
        # The GC window below the last ordered anchor (gc_depth + 1 rounds)
        # and the at most three rounds a committee builds above it before
        # its next commit: bounded by the GC depth, not the run's length.
        assert 0 < node.recovery_replayed <= (gc_depth + 4) * size
        assert check_run_consistency(
            {validator: (peer.consensus.ordered_count, peer.consensus.ordering_digest) for validator, peer in nodes.items()},
            {validator: peer.consensus.ordering_checkpoints for validator, peer in nodes.items()},
        ) == []
        histories = [list(peer.schedule_manager.history) for peer in nodes.values()]
        common = min(len(history) for history in histories)
        assert all(history[:common] == histories[0][:common] for history in histories)
        # The oracle: everything the node inserted, replayed from genesis into
        # a fresh consensus and a fresh manager, with nothing pruned.
        replay = BullsharkConsensus(
            owner=node.id,
            committee=committee,
            dag=DagStore(committee),
            schedule_manager=HammerHeadScheduleManager(
                committee, initial_schedule(committee, seed=1, permute=False), policy=CommitCountPolicy(4)
            ),
        )
        replay.dag.on_insert(replay.process_vertex)
        for vertex in sorted(inserted, key=lambda vertex: (vertex.round, vertex.source)):
            replay.dag.add(vertex)
        assert (
            replay.last_ordered_anchor_round,
            replay.ordered_count,
            replay.ordering_digest,
            replay.schedule_manager.history,
        ) == (
            node.consensus.last_ordered_anchor_round,
            node.consensus.ordered_count,
            node.consensus.ordering_digest,
            node.schedule_manager.history,
        )

    def test_recovered_node_does_not_equivocate(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        simulator.schedule_at(1.0, nodes[1].crash)
        simulator.schedule_at(2.0, nodes[1].recover)
        # If the recovered node equivocated, honest DAG stores would raise
        # EquivocationError and the run would crash.
        simulator.run(until=8.0)
        assert nodes[0].commit_count > 0


class TestUnheldHistory:
    """The fetch responder's walk: history a requester's frontier lacks."""

    @staticmethod
    def _responder(rounds=6, gc_before=0):
        committee = Committee.build(4)
        # A bare store: no consensus or GC running underneath the walk.
        dag = DagStore(committee)
        for vertex in genesis_vertices(committee):
            dag.add(vertex)
        for round_number in range(1, rounds + 1):
            build_round(dag, committee, round_number)
        if gc_before:
            dag.garbage_collect(gc_before)
        return bare_synchronizer(committee, dag), dag

    @staticmethod
    def _walk(synchronizer, roots, horizon=0, held=()):
        return synchronizer.unheld_history(FetchRequest(9, tuple(roots), horizon=horizon, held=held))

    def test_requester_holding_nothing_gets_the_whole_history(self):
        synchronizer, dag = self._responder()
        assert self._walk(synchronizer, [vid(6, 1)]) == dag.causal_history(vid(6, 1))

    def test_one_missing_vertex_gets_one_vertex(self):
        synchronizer, dag = self._responder()
        held = tuple(
            (round_number, mask & ~0b0010 if round_number == 6 else mask)
            for round_number, mask in dag.held_sources()
        )
        assert self._walk(synchronizer, [vid(6, 1)], held=held) == [dag.get(vid(6, 1))]

    def test_walk_stops_at_held_vertices_and_at_the_horizon(self):
        synchronizer, dag = self._responder()
        # The requester holds rounds up to 3 in full, plus validator 0's
        # round-4 vertex; its horizon is round 2.
        held = ((2, 0b1111), (3, 0b1111), (4, 0b0001))
        shipped = self._walk(synchronizer, [vid(6, 2)], horizon=2, held=held)
        assert [vertex.id for vertex in shipped] == [
            vid(4, 1), vid(4, 2), vid(4, 3),
            vid(5, 0), vid(5, 1), vid(5, 2), vid(5, 3),
            vid(6, 2),
        ]
        # A requester that holds nothing still gets nothing below its horizon.
        shipped = self._walk(synchronizer, [vid(6, 2)], horizon=5)
        assert {vertex.round for vertex in shipped} == {5, 6}
        assert self._walk(synchronizer, [vid(4, 0)], horizon=5) == []

    def test_each_root_adds_what_the_roots_before_it_did_not(self):
        synchronizer, dag = self._responder(rounds=3)
        held = ((0, 0b1111), (1, 0b1111))
        shipped = self._walk(synchronizer, [vid(3, 2), vid(3, 0), vid(3, 2)], held=held)
        assert [vertex.id for vertex in shipped] == [
            vid(2, 0), vid(2, 1), vid(2, 2), vid(2, 3), vid(3, 2), vid(3, 0),
        ]

    def test_unknown_and_out_of_committee_roots_are_skipped(self):
        synchronizer, dag = self._responder(rounds=2)
        assert self._walk(synchronizer, [vid(9, 0), vid(2, 4), vid(2, -1), vid(-3, 0)]) == []

    def test_vertices_the_responder_lacks_block_the_walk(self):
        synchronizer, dag = self._responder(rounds=4, gc_before=3)
        assert [vertex.round for vertex in self._walk(synchronizer, [vid(4, 0)])] == [3, 3, 3, 3, 4]

    def test_requested_vertex_the_requester_holds_is_not_served(self):
        synchronizer, dag = self._responder(rounds=2)
        assert self._walk(synchronizer, [vid(2, 1)], held=dag.held_sources()) == []

    def test_an_edge_below_the_previous_round_is_followed(self):
        committee = Committee.build(4)
        # A decoded vertex's edges may name any round; this one's quorum
        # is not checked, only what the walk makes of its edges.
        dag = DagStore(committee, require_edge_quorum=False)
        for vertex in genesis_vertices(committee):
            dag.add(vertex)
        build_round(dag, committee, 1)
        build_round(dag, committee, 2, parent_sources={source: (0, 1, 2) for source in range(4)})
        dag.add(decoded_vertex(3, 0, [vid(2, 0), vid(2, 1), vid(1, 3)]))
        # Nothing the requester holds is beneath (1, 3): round 2 never names it.
        held = ((0, 0b1111), (1, 0b0111), (2, 0b1111))
        shipped = self._walk(bare_synchronizer(committee, dag), [vid(3, 0)], held=held)
        assert [vertex.id for vertex in shipped] == [vid(1, 3), vid(3, 0)]


def run_cluster(until=3.0, gc_depth=50, on_insert=None):
    """A committee of four run until ``until``; ``on_insert`` watches validator 1's DAG."""
    committee, simulator, network, nodes = build_cluster(config=gc_config(gc_depth))
    if on_insert is not None:
        nodes[1].dag.on_insert(on_insert)
    for node in nodes.values():
        node.start()
    simulator.run(until=until)
    return committee, simulator, network, nodes


def fetch_from(committee, simulator, network, responder, request):
    """Send ``request`` from a fresh outside id; return the responses."""
    responses = []

    def collect(sender, message):
        # A registered id also receives the committee's broadcasts.
        if isinstance(message, FetchResponse):
            responses.append(message)

    network.register(request.requester, committee.region_of(0), collect)
    network.send(request.requester, responder, request)
    simulator.run(until=simulator.now + 1.0)
    return responses


class TestSynchronizer:
    def test_requester_holding_nothing_gets_the_causal_history(self):
        committee, simulator, network, nodes = run_cluster()
        recent_round = nodes[0].consensus.last_ordered_anchor_round
        target_vertex = nodes[0].dag.vertex_of(recent_round, 0)
        assert target_vertex is not None
        expected = nodes[0].dag.causal_history(target_vertex.id)
        responses = fetch_from(
            committee, simulator, network, 0,
            FetchRequest(requester=99, missing=(target_vertex.id,)),
        )
        assert len(responses) == 1
        assert list(responses[0].vertices) == expected
        assert len(expected) > 1
        assert nodes[0].synchronizer.vertices_served == len(expected)

    def test_requester_missing_one_vertex_gets_one_vertex(self):
        committee, simulator, network, nodes = run_cluster()
        dag = nodes[0].dag
        target_vertex = dag.vertex_of(nodes[0].consensus.last_ordered_anchor_round + 1, 1)
        assert target_vertex is not None
        # The requester's frontier is the responder's own, minus the target.
        held = tuple(
            (round_number, mask & ~(1 << 1) if round_number == target_vertex.round else mask)
            for round_number, mask in dag.held_sources()
        )
        request = FetchRequest(
            requester=98, missing=(target_vertex.id,), horizon=dag.lowest_round, held=held
        )
        responses = fetch_from(committee, simulator, network, 0, request)
        assert responses[0].vertices == (target_vertex,)
        assert responses[0].snapshot is None

    def test_nothing_is_served_below_the_requesters_horizon(self):
        committee, simulator, network, nodes = run_cluster()
        dag = nodes[0].dag
        target_vertex = dag.vertex_of(dag.highest_round() - 1, 2)
        horizon = target_vertex.round - 3
        responses = fetch_from(
            committee, simulator, network, 0,
            FetchRequest(requester=96, missing=(target_vertex.id,), horizon=horizon),
        )
        served_rounds = {vertex.round for vertex in responses[0].vertices}
        assert served_rounds == set(range(horizon, target_vertex.round + 1))

    def test_response_vertices_below_own_horizon_are_dropped(self):
        """Regression: a fetch response re-inserted ordered, pruned history
        as below-horizon stragglers (each one invalidating reachability
        entries and forcing a GC sweep)."""
        history = []
        committee, simulator, network, nodes = run_cluster(until=4.0, gc_depth=4, on_insert=history.append)
        node = nodes[1]
        horizon = node.dag.lowest_round
        assert horizon > 2
        pruned = [vertex for vertex in history if vertex.round < horizon]
        assert pruned
        inserted = []
        node.dag.on_insert(inserted.append)
        reclaimed_before = node.dag.gc_reclaimed_total
        node._handle_fetch_response(
            0, FetchResponse(responder=0, vertices=tuple(pruned), responder_gc_round=0)
        )
        assert inserted == []
        assert node.dag.gc_reclaimed_total == reclaimed_before
        assert node.synchronizer.vertices_received == len(pruned)
        assert node.synchronizer.vertices_new == 0

    def test_snapshot_is_attached_only_when_the_requester_can_use_it(self):
        committee, simulator, network, nodes = run_cluster(until=4.0, gc_depth=4)
        dag = nodes[0].dag
        assert dag.lowest_round > 1
        target_vertex = dag.vertex_of(dag.highest_round() - 1, 0)
        # A requester whose frontier ends below our horizon must state-sync.
        behind = fetch_from(
            committee, simulator, network, 0,
            FetchRequest(requester=95, missing=(target_vertex.id,)),
        )
        assert behind[0].snapshot is not None
        assert behind[0].snapshot.gc_round == behind[0].responder_gc_round
        # One whose frontier reaches our horizon never reads a snapshot.
        target_vertex = dag.vertex_of(dag.highest_round() - 1, 0)
        level = fetch_from(
            committee, simulator, network, 0,
            FetchRequest(
                requester=94,
                missing=(target_vertex.id,),
                horizon=dag.lowest_round,
                held=((dag.lowest_round - 1, 0b1),),
            ),
        )
        assert level[0].snapshot is None

    def test_the_requesters_highest_round_is_the_last_of_its_frontier(self):
        """``held`` is ascending, so its last round decides the snapshot: a
        frontier that starts far below the horizon but ends one round short
        of it reads none, one that ends two rounds short gets one."""
        committee, simulator, network, nodes = run_cluster(until=4.0, gc_depth=4)
        dag = nodes[0].dag
        assert dag.lowest_round > 3
        snapshots = []
        for requester, short_of_horizon in ((93, 1), (92, 2), (91, -3)):
            target_vertex = dag.vertex_of(dag.highest_round() - 1, 0)
            last = dag.lowest_round - short_of_horizon
            responses = fetch_from(
                committee, simulator, network, 0,
                FetchRequest(requester=requester, missing=(target_vertex.id,), held=((0, 0b1), (last, 0b11))),
            )
            snapshots.append(responses[0].snapshot is not None)
        assert snapshots == [False, True, False]

    @staticmethod
    def _lagging():
        """Validator 3, crashed from the start while the others ran with
        GC depth 4, and validator 0's answer past 3's frontier."""
        config = NodeConfig(
            max_batch_size=50, min_round_interval=0.05, leader_timeout=0.5, gc_depth=4
        )
        committee, simulator, network, nodes = build_cluster(config=config, dynamic=True)
        for node in nodes.values():
            node.start()
        lagging = nodes[3]
        lagging.crash()
        simulator.run(until=4.0)
        lagging.crashed = False  # handle directly; the network still drops its traffic
        donor = nodes[0]
        snapshot = donor.consensus_snapshot()
        assert len(snapshot.schedules) > len(lagging.schedule_manager.history)
        response = FetchResponse(
            responder=0, vertices=(), responder_gc_round=donor.dag.lowest_round, snapshot=snapshot
        )
        assert response.responder_gc_round > lagging.dag.highest_round() + 1
        return donor, lagging, response

    @staticmethod
    def _ask(node, peer):
        """Send ``peer`` a fetch request for a vertex no other request names."""
        node.synchronizer.request({vid(node.dag.highest_round() + 1, peer)}, preferred_peer=peer)

    @staticmethod
    def _synced_state(node):
        return node.consensus.last_ordered_anchor_round, list(node.schedule_manager.history)

    def test_a_snapshot_is_adopted_only_from_a_peer_that_was_asked(self):
        donor, lagging, response = self._lagging()
        before = self._synced_state(lagging)
        lagging._handle_fetch_response(0, response)
        assert self._synced_state(lagging) == before

        self._ask(lagging, 0)
        lagging._handle_fetch_response(0, response)
        snapshot = response.snapshot
        assert self._synced_state(lagging) == (
            snapshot.last_ordered_anchor_round, list(snapshot.schedules)
        )

    @pytest.mark.parametrize("sender", [0, 1, 2])
    def test_a_snapshot_from_the_one_peer_never_asked_is_ignored(self, sender):
        donor, lagging, response = self._lagging()
        for peer in {0, 1, 2} - {sender}:
            self._ask(lagging, peer)
        before = self._synced_state(lagging)
        lagging._handle_fetch_response(sender, dataclasses.replace(response, responder=sender))
        assert self._synced_state(lagging) == before

    @pytest.mark.parametrize("flaw", ["no-snapshot", "short-of-the-frontier"])
    def test_an_asked_peers_response_that_cannot_sync_changes_nothing(self, flaw):
        donor, lagging, response = self._lagging()
        self._ask(lagging, 0)
        if flaw == "no-snapshot":
            response = dataclasses.replace(response, snapshot=None)
        else:
            response = dataclasses.replace(
                response, responder_gc_round=lagging.dag.highest_round() + 1
            )
        before = self._synced_state(lagging)
        lagging._handle_fetch_response(0, response)
        assert self._synced_state(lagging) == before

    def test_an_unsolicited_response_still_delivers_its_vertices(self):
        donor, lagging, response = self._lagging()
        tip = donor.dag.vertex_of(donor.dag.highest_round() - 1, 0)
        vertices = tuple(donor.dag.causal_history(tip.id))
        assert all(vertex.round >= lagging.dag.lowest_round for vertex in vertices)
        before = self._synced_state(lagging)
        lagging._handle_fetch_response(0, dataclasses.replace(response, vertices=vertices))
        assert self._synced_state(lagging) == before
        assert lagging.synchronizer.vertices_received == lagging.synchronizer.vertices_new == len(vertices)
        # Their parents were pruned by the responder: parked, not lost.
        parked = {vertex.id for vertex in lagging.dag.pending_vertices()}
        assert {vertex.id for vertex in vertices} <= parked

    def test_new_vertices_are_counted_apart_from_received_ones(self):
        committee, simulator, network, nodes = run_cluster()
        donor, node = nodes[0], nodes[1]
        node.crash()
        simulator.run(until=4.0)
        node.crashed = False  # ingest directly; the network still drops its traffic
        tip = donor.dag.vertex_of(donor.dag.highest_round() - 1, 0)
        history = donor.dag.causal_history(tip.id)
        fresh = [vertex for vertex in history if vertex.id not in node.dag]
        assert fresh and len(fresh) < len(history)
        node._handle_fetch_response(
            0, FetchResponse(responder=0, vertices=tuple(history), responder_gc_round=0)
        )
        assert node.synchronizer.vertices_received == len(history)
        assert node.synchronizer.vertices_new == len(fresh)
        assert tip.id in node.dag

    def test_unknown_vertices_yield_no_response(self):
        committee, simulator, network, nodes = build_cluster()
        nodes[0].start()
        responses = []
        network.register(97, committee.region_of(0), lambda sender, message: responses.append(message))
        from repro.types import VertexId

        network.send(97, 0, FetchRequest(requester=97, missing=(VertexId(500, 2),)))
        simulator.run(until=1.0)
        assert responses == []


class TestFetchRequester:
    """The requester side of the synchronizer: the one way a validator
    recovers a vertex whose certificate never reached it."""

    @staticmethod
    def _requester(monkeypatch):
        """Validator 0 holding only genesis, every message it sends
        captured, and rounds 1-2 of a full history to feed it."""
        committee, simulator, network, nodes = build_cluster()
        node = nodes[0]
        for vertex in genesis_vertices(committee):
            node.dag.add(vertex)
        donor = DagStore(committee)
        for vertex in genesis_vertices(committee):
            donor.add(vertex)
        history = {round_number: build_round(donor, committee, round_number) for round_number in (1, 2)}
        sent = []
        monkeypatch.setattr(
            network, "send", lambda sender, target, message: sent.append((sender, target, message))
        )
        return simulator, node, history, sent

    @staticmethod
    def _requests(sent):
        return [(target, message) for _, target, message in sent if isinstance(message, FetchRequest)]

    def test_a_parked_vertex_asks_its_source_for_the_missing_parents(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        vertex = history[2][2]
        deliver(node, vertex)
        assert [parked.id for parked in node.dag.pending_vertices()] == [vertex.id]
        ((target, request),) = self._requests(sent)
        assert target == vertex.source
        assert request.requester == 0
        assert set(request.missing) == {parent.id for parent in history[1]}
        assert request.horizon == node.dag.lowest_round
        assert request.held == node.dag.held_sources()
        assert node.synchronizer.requests_sent == 1

    def test_an_id_asked_within_the_retry_interval_is_not_asked_again(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        for vertex in history[2]:
            deliver(node, vertex)
        # Every round-2 vertex waits on the same four parents: one request.
        assert len(node.dag.pending_vertices()) == 4
        assert len(self._requests(sent)) == 1
        assert node.synchronizer.requests_sent == 1

    def test_a_request_preferring_itself_goes_to_another_peer(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        node.synchronizer.request({vid(1, 3)}, preferred_peer=0)
        ((target, request),) = self._requests(sent)
        assert target != 0
        assert request.missing == (vid(1, 3),)

    @pytest.mark.parametrize("preferred", [2, 0], ids=["another-peer", "itself"])
    def test_a_request_records_the_peer_it_went_to(self, monkeypatch, preferred):
        simulator, node, history, sent = self._requester(monkeypatch)
        assert open_requests(node.synchronizer) == {}
        node.synchronizer.request({vid(1, 3)}, preferred_peer=preferred)
        ((target, _request),) = self._requests(sent)
        assert target != node.id and open_requests(node.synchronizer) == {target: 1}

    def test_a_request_with_nothing_left_to_ask_records_no_peer(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        node.synchronizer.request({vid(1, 3)}, preferred_peer=2)
        # Asked within the retry interval: nothing is sent, nobody is asked.
        node.synchronizer.request({vid(1, 3)}, preferred_peer=1)
        assert [target for target, _ in self._requests(sent)] == [2]
        assert open_requests(node.synchronizer) == {2: 1}

    def test_the_retry_records_its_random_peer(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        deliver(node, history[2][2])
        simulator.run(until=node.config.fetch_retry_interval * 1.5)
        targets = [target for target, _ in self._requests(sent)]
        assert len(targets) == 2
        assert open_requests(node.synchronizer) == dict(collections.Counter(targets))

    def test_a_lockstep_repair_records_the_peer_it_asks(self):
        from repro.netexec.lockstep import LockstepSimulationRunner
        from repro.sim.experiment import ExperimentConfig

        runner = LockstepSimulationRunner(
            ExperimentConfig(committee_size=7, input_load_tps=0.0, duration=5.0, warmup=0.0, seed=3)
        )
        sent = []
        runner.network.send = lambda sender, target, message: sent.append((target, message))
        runner.network.broadcast = lambda *args, **kwargs: None
        node = runner.nodes[1]
        node.start()
        # No vertex of its round arrives: the repair asks a random peer.
        node.synchronizer.on_stall(functools.partial(node._stalled_on, node.current_round))
        runner.simulator.run(until=node.config.fetch_retry_interval * 1.5)
        ((target, request),) = self._requests([(1, target, message) for target, message in sent])
        assert set(request.missing) == {vid(node.current_round, source) for source in range(7)}
        assert open_requests(node.synchronizer) == {target: 1}

    @staticmethod
    def _stalled():
        """A bare synchronizer over an empty DAG, every message it sends captured."""
        committee = Committee.build(4)
        synchronizer = bare_synchronizer(committee, DagStore(committee))
        sent = []
        synchronizer.network.send = lambda sender, target, message: sent.append((target, message))
        return synchronizer, sent

    def test_a_stall_asks_a_random_peer_for_what_is_still_wanted(self):
        synchronizer, sent = self._stalled()
        wanted = [vid(3, 1), vid(3, 2)]
        synchronizer.on_stall(lambda: list(wanted))
        # A second stall while the timer is armed does not replace it.
        synchronizer.on_stall(lambda: [vid(3, 3)])
        wanted.remove(vid(3, 1))  # arrives within the interval
        synchronizer.simulator.run(until=synchronizer.retry_interval * 1.5)
        ((target, request),) = sent
        assert target != 0 and request.missing == (vid(3, 2),)
        assert open_requests(synchronizer) == {target: 1}

    def test_a_stall_that_fills_in_time_asks_nothing(self):
        synchronizer, sent = self._stalled()
        synchronizer.on_stall(lambda: [])
        synchronizer.simulator.run(until=synchronizer.retry_interval * 3)
        assert sent == [] and open_requests(synchronizer) == {}
        assert synchronizer._timer is None

    def test_a_resolved_stall_keeps_the_retry_throttle(self):
        synchronizer, sent = self._stalled()
        interval = synchronizer.retry_interval
        synchronizer.on_stall(lambda: [])
        simulator = synchronizer.simulator
        simulator.schedule(interval / 2, lambda: synchronizer.request({vid(3, 1)}, preferred_peer=1))
        simulator.run(until=interval * 1.2)
        # The stall timer fired with nothing wanted; the id asked for
        # within the interval is still not asked for again.
        synchronizer.request({vid(3, 1)}, preferred_peer=2)
        assert [target for target, _ in sent] == [1]

    def test_the_retry_asks_a_random_peer_for_what_is_still_missing(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        deliver(node, history[2][2])
        # One parent arrives on its own; the retry asks only for the rest.
        deliver(node, history[1][1])
        simulator.run(until=node.config.fetch_retry_interval * 1.5)
        first, retry = self._requests(sent)
        assert retry[0] != 0
        assert set(retry[1].missing) == {vid(1, 0), vid(1, 2), vid(1, 3)}
        assert node.synchronizer.requests_sent == 2

    def test_the_retry_stops_once_nothing_is_missing(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        deliver(node, history[2][2])
        for parent in history[1]:
            deliver(node, parent)
        assert node.dag.pending_vertices() == ()
        simulator.run(until=node.config.fetch_retry_interval * 3)
        assert len(self._requests(sent)) == 1
        assert node.synchronizer.requested == {}
        assert node.synchronizer._timer is None

    def test_a_crashed_requester_does_not_retry(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        deliver(node, history[2][2])
        node.crash()
        simulator.run(until=node.config.fetch_retry_interval * 3)
        assert len(self._requests(sent)) == 1
        assert node.synchronizer.requests_sent == 1

    def test_a_fetch_response_promotes_the_parked_vertex(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        vertex = history[2][2]
        deliver(node, vertex)
        node._handle_fetch_response(
            2, FetchResponse(responder=2, vertices=tuple(reversed(history[1])), responder_gc_round=0)
        )
        assert vertex.id in node.dag
        assert all(parent.id in node.dag for parent in history[1])
        assert node.dag.pending_vertices() == ()
        assert node.synchronizer.vertices_received == node.synchronizer.vertices_new == 4

    def test_a_late_copy_of_a_fetched_vertex_is_neither_reinserted_nor_fetched(self, monkeypatch):
        simulator, node, history, sent = self._requester(monkeypatch)
        vertex = history[2][2]
        deliver(node, vertex)
        node._handle_fetch_response(
            2, FetchResponse(responder=2, vertices=tuple(history[1]), responder_gc_round=0)
        )
        inserted = []
        node.dag.on_insert(inserted.append)
        # The certificates lost earlier arrive after all.
        for late in (*history[1], vertex):
            deliver(node, late)
        assert inserted == []
        assert len(self._requests(sent)) == 1


class TestLazyClientLoad:
    """The four places a pool meets lazily materialised client arrivals."""

    @staticmethod
    def watch_proposals(observer):
        """validator -> its vertices in the order ``observer`` inserts them:
        every proposal that certified, one re-broadcast after a recovery
        included."""
        proposals = {}
        observer.dag.on_insert(lambda vertex: proposals.setdefault(vertex.source, []).append(vertex))
        return proposals

    @staticmethod
    def proposed_by(vertices):
        """transaction -> creation time of the proposal that carried it."""
        return {transaction: vertex.created_at for vertex in vertices for transaction in vertex.block}

    def crash_window_run(self):
        committee, simulator, network, nodes = build_cluster()
        proposals = self.watch_proposals(nodes[0])
        for node in nodes.values():
            node.start()
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[nodes[3]],
            rate=350.0,
            duration=3.0,
            start_time=1.0,
        )
        generator.start()
        pooled_at_crash = []

        def crash():
            nodes[3].crash()
            pooled_at_crash.extend(pooled(nodes[3].transaction_pool))

        simulator.schedule_at(2.0, crash)
        simulator.schedule_at(3.0, nodes[3].recover)
        simulator.run(until=8.0)
        return nodes[3], generator, pooled_at_crash, proposals[3]

    @staticmethod
    def submission_times(generator):
        return [
            generator._first_time + index * generator._interval
            for index in range(generator._count)
        ]

    def test_arrivals_before_a_crash_are_proposed_after_recovery(self):
        node, _generator, pooled_at_crash, proposals = self.crash_window_run()
        # What arrived since the last proposal went into the pool at the
        # crash instant, not later and not never.
        assert pooled_at_crash
        assert all(transaction.submitted_at + 0.040 <= 2.0 for transaction in pooled_at_crash)
        proposed = self.proposed_by(proposals)
        assert all(proposed[transaction] >= 3.0 for transaction in pooled_at_crash)

    def test_arrivals_during_downtime_are_dropped_but_counted(self):
        node, generator, _, proposals = self.crash_window_run()
        assert generator.submitted == 1050
        submitted = self.submission_times(generator)
        down = [t for t in submitted if 2.0 < t + 0.040 <= 3.0]
        assert len(down) == 350
        proposed = [transaction.submitted_at for transaction in self.proposed_by(proposals)]
        assert sorted(proposed) == sorted(set(submitted) - set(down))
        assert node.transaction_pool.received == 1050 - 350

    def test_a_crashed_pool_lets_its_column_drop_the_downtime(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        generator = LoadGenerator(0, simulator, [nodes[3]], rate=350.0, duration=20.0, start_time=1.0)
        generator.start()
        simulator.run(until=2.0)
        nodes[3].crash()
        pooled_at_crash = pooled(nodes[3].transaction_pool)
        assert pooled_at_crash
        simulator.run(until=18.0)
        simulator.settle()
        # Down for good: the rows pooled at the crash are still there, and
        # the column has dropped what arrived since, rows pooled included.
        (column,) = ClientArrivals.of(simulator)._columns
        assert column.first_id > pooled_at_crash[-1].tx_id
        assert 2 * column.position <= len(column.arrivals)
        assert pooled(nodes[3].transaction_pool) == pooled_at_crash

    def test_retargeting_redirects_only_later_arrivals(self):
        committee, simulator, network, nodes = build_cluster()
        proposals = self.watch_proposals(nodes[2])
        for node in nodes.values():
            node.start()
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[nodes[0]],
            rate=100.0,
            duration=2.0,
            start_time=1.0,
        )
        generator.start()
        # Retarget on the very instant transaction 70 arrives: it still
        # goes to the old target.
        switch = generator._first_time + 70 * generator._interval + generator.submission_delay
        simulator.schedule_at(switch, lambda: generator.set_targets([nodes[1]]))
        simulator.run(until=6.0)
        submitted = self.submission_times(generator)
        before, after = sorted(self.proposed_by(proposals[0])), sorted(self.proposed_by(proposals[1]))
        assert [t.submitted_at for t in before] == submitted[:71]
        assert [t.submitted_at for t in after] == submitted[71:]
        assert {t.target_validator for t in before} == {0}
        assert {t.target_validator for t in after} == {1}
        ids = [t.tx_id for t in before + after]
        assert len(set(ids)) == 200

    def test_the_columns_hold_only_what_is_still_to_arrive(self):
        committee, simulator, network, nodes = build_cluster()
        for node in nodes.values():
            node.start()
        # Forty 0.2 s phases cycling through three rates and a quiet one.
        rates = (400.0, 250.0, 100.0, 0.0) * 10
        phases = [LoadPhase(index * 0.2, (index + 1) * 0.2, tps) for index, tps in enumerate(rates)]
        quiet = {phase.start for phase in phases if phase.tps == 0.0}
        generators = spawn_phased_load(simulator, list(nodes.values()), phases)
        assert len(generators) > 20
        arrivals = ClientArrivals.of(simulator)
        waiting = []

        def look():
            simulator.settle()
            held = sum(len(column.arrivals) - column.position for column in arrivals._columns)
            waiting.append((held, sum(g._count - g.submitted for g in generators)))

        for instant in (1.0, 3.0, 5.0, 7.0):
            simulator.schedule_at(instant, look)
        simulator.run(until=9.0)
        # One column per validator however many phases there are, and in
        # them exactly the arrivals no client has delivered yet.
        assert len(arrivals._columns) == len(nodes)
        assert [held for held, _ in waiting] == [unfinished for _, unfinished in waiting]
        assert waiting[0][0] > waiting[-1][0] > 0
        assert all(column.position == len(column.arrivals) for column in arrivals._columns)
        assert sum(node.transaction_pool.received for node in nodes.values()) == sum(
            g._count for g in generators
        )
        assert quiet.isdisjoint(g.start_time for g in generators)


class TestForgedSlot:
    """A certified payload is bound to the broadcast slot that certified it."""

    @staticmethod
    def forged_slot_run():
        from repro.dag.vertex import make_vertex
        from repro.obs.trace import MemoryTracer

        committee, simulator, network, nodes = build_cluster()
        orders = record_orders(nodes)
        tracer = MemoryTracer(clock=lambda: simulator.now)
        for node in nodes.values():
            node.install_observability(tracer)
            node.start()
        forged = []

        def forge():
            # Validator 3 certifies, in a slot of its own, a vertex whose
            # id names validator 0.  Acks bind (origin, round, digest), so
            # every honest validator acknowledges it.  The slot is far
            # ahead so validator 3's own later rounds do not collide.
            byzantine = nodes[3]
            round_number = byzantine.current_round
            parents = [vertex.id for vertex in byzantine.dag.vertices_at(round_number - 1)]
            vertex = make_vertex(round_number, 0, parents, block=("forged",))
            forged.append(vertex)
            byzantine.broadcast_protocol.broadcast(vertex, round_number + 1000)

        simulator.schedule_at(1.0, forge)
        simulator.run(until=3.0)
        return nodes, orders, tracer, forged[0]

    def test_forged_vertex_is_dropped_and_the_run_completes(self):
        nodes, _orders, tracer, forged = self.forged_slot_run()
        # Certified and delivered everywhere, ingested nowhere.
        assert [node.slot_mismatches_dropped for node in nodes.values()] == [1, 1, 1, 1]
        for node in nodes.values():
            held = node.dag.get(forged.id)
            assert held is None or held.digest != forged.digest
            assert forged.id not in {vertex.id for vertex in node.dag.pending_vertices()}
            assert node.current_round > forged.round + 10
        dropped = [event for event in tracer.events if event["kind"] == "slot_mismatch_dropped"]
        assert len(dropped) == 4
        assert {(event["origin"], event["vertex_source"]) for event in dropped} == {(3, 0)}

    def test_honest_prefixes_stay_consistent(self):
        _nodes, orders, _tracer, forged = self.forged_slot_run()
        sequences = [orders[validator].ids() for validator in (0, 1, 2)]
        shortest = min(len(sequence) for sequence in sequences)
        assert shortest > 0 and any(vertex_id.round > forged.round for vertex_id in sequences[0])
        assert all(sequence[:shortest] == sequences[0][:shortest] for sequence in sequences)
