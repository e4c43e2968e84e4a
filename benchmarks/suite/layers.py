"""Unit costs: each layer's public functions on a fixed synthetic input.

One number per layer operation, in operations per cal (calibration.py),
so an end-to-end regression can name its layer and a layer optimisation
has a number of its own that no other layer moves.  Inputs are built
from the seed outside the timed window; only calls into ``repro`` are
timed.  Every function returns ``(operations, seconds)``; ``scale``
shrinks the repeat counts for the smoke run, never the input shapes.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.consensus.committed import OrderedVertex
from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.crypto.hashing import digest_of
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.metrics.collector import MetricsCollector
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.codec import decode, encode
from repro.netexec.transport import AsyncioTransport
from repro.network.latency import GeoLatencyModel
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.rbc.certified import CertifiedBroadcast
from repro.rbc.messages import AckMessage
from repro.schedule.round_robin import initial_schedule
from repro.types import VertexId
from repro.workload.generator import spawn_load
from repro.workload.transactions import Transaction

Measured = Tuple[float, float]

DAG_COMMITTEE = 50
DAG_ROUNDS = 40
RBC_COMMITTEE = 10
RBC_ROUNDS = 150


def _n(full: int, scale: float) -> int:
    return max(1, int(full * scale))


def _timed(call: Callable[[], Any]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def full_dag(committee: Committee, rounds: int) -> List[Vertex]:
    """Rounds 1..``rounds`` of a DAG where every vertex cites every parent."""
    vertices: List[Vertex] = []
    parents = [vertex.id for vertex in genesis_vertices(committee)]
    for round_number in range(1, rounds + 1):
        layer = [
            make_vertex(round_number, source, parents) for source in committee.validators
        ]
        vertices.extend(layer)
        parents = [vertex.id for vertex in layer]
    return vertices


def _fresh_store(committee: Committee) -> DagStore:
    store = DagStore(committee)
    for vertex in genesis_vertices(committee):
        store.add(vertex)
    return store


def _filled_store(committee: Committee, vertices: List[Vertex]) -> DagStore:
    store = _fresh_store(committee)
    for vertex in vertices:
        store.add(vertex)
    return store


# -- network ----------------------------------------------------------------


def simulator_events(rng: random.Random, scale: float) -> Measured:
    count = _n(120_000, scale)
    delays = [rng.random() * 10.0 for _ in range(count)]
    simulator = Simulator(seed=0)

    def noop() -> None:
        return None

    def run() -> None:
        schedule = simulator.schedule
        for delay in delays:
            schedule(delay, noop)
        simulator.run()

    return count, _timed(run)


def transport_deliveries(rng: random.Random, scale: float) -> Measured:
    committee = Committee.build(DAG_COMMITTEE)
    simulator = Simulator(seed=rng.randrange(4096))
    network = Network(simulator, latency_model=GeoLatencyModel())
    for validator in committee.validators:
        network.register(validator, committee.region_of(validator), lambda sender, message: None)
    message = object()

    def run() -> None:
        for index in range(_n(1200, scale)):
            network.broadcast(index % DAG_COMMITTEE, message)
        simulator.run()

    seconds = _timed(run)
    return network.stats.messages_delivered, seconds


def latency_delays(rng: random.Random, scale: float) -> Measured:
    committee = Committee.build(DAG_COMMITTEE)
    regions = [committee.region_of(validator) for validator in committee.validators]
    pairs = [(rng.choice(regions), rng.choice(regions)) for _ in range(_n(300_000, scale))]
    model = GeoLatencyModel()

    def run() -> None:
        one_way_delay = model.one_way_delay
        for sender, recipient in pairs:
            one_way_delay(sender, recipient, rng)

    return len(pairs), _timed(run)


# -- reliable broadcast (also yields the codec corpus) ----------------------------


def rbc_certificates(rng: random.Random, scale: float) -> Tuple[float, float, List[Any]]:
    """Ten protocol instances on one network, one broadcast each per round.

    Returns the wire messages it saw as well: the codec unit costs encode
    and decode exactly this propose / ack / certificate-batch mix.
    """
    committee = Committee.build(RBC_COMMITTEE)
    rounds = _n(RBC_ROUNDS, scale)
    payloads = full_dag(committee, rounds)
    simulator = Simulator(seed=rng.randrange(4096))
    network = Network(simulator, latency_model=GeoLatencyModel())
    delivered: List[Any] = []
    wire: List[Any] = []
    protocols: Dict[int, CertifiedBroadcast] = {}

    def handler_for(validator: int):
        def handle(sender: int, message: Any) -> None:
            wire.append(message)
            protocols[validator].handle_message(sender, message)

        return handle

    for validator in committee.validators:
        protocols[validator] = CertifiedBroadcast(
            validator, committee, network, on_deliver=delivered.append
        )
        network.register(validator, committee.region_of(validator), handler_for(validator))

    def run() -> None:
        for round_number in range(1, rounds + 1):
            for validator in committee.validators:
                payload = payloads[(round_number - 1) * RBC_COMMITTEE + validator]
                simulator.schedule(
                    round_number * 1.0,
                    lambda p=payload, r=round_number, v=validator: protocols[v].broadcast(p, r),
                )
        simulator.run()

    seconds = _timed(run)
    # One certificate per (origin, round), delivered at every validator.
    return len(delivered) / RBC_COMMITTEE, seconds, wire


def codec_throughput(wire: List[Any]) -> Tuple[Measured, Measured]:
    """(encode, decode) as (megabytes, seconds) over the captured messages."""
    # One copy per distinct message: a fan-out delivers the same object
    # to every recipient, but the socket transport encodes it once.
    corpus = list({id(message): message for message in wire}.values())[:12_000]
    frames: List[bytes] = []
    encode_s = _timed(lambda: frames.extend(encode(message) for message in corpus))
    megabytes = sum(len(frame) for frame in frames) / 1e6

    def decode_all() -> None:
        for frame in frames:
            decode(frame)

    return (megabytes, encode_s), (megabytes, _timed(decode_all))


def transport_frames(scale: float) -> Measured:
    """Two endpoints over Unix sockets, one direction, ack-sized frames."""
    count = _n(8000, scale)
    message = AckMessage(origin=0, round=1, digest=b"\x00" * 32, voter=1)

    async def run() -> float:
        loop = asyncio.get_running_loop()
        scheduler = MonotonicScheduler(loop, seed=0)
        received = 0
        done = loop.create_future()

        def sink(sender: int, incoming: Any) -> None:
            nonlocal received
            received += 1
            if received == count and not done.done():
                done.set_result(None)

        with tempfile.TemporaryDirectory(prefix="suite-frames-") as socket_dir:
            transport = AsyncioTransport(scheduler, socket_dir=socket_dir, family="uds")
            committee = Committee.build(2)
            transport.register(0, committee.region_of(0), lambda sender, incoming: None)
            transport.register(1, committee.region_of(1), sink)
            await transport.start()
            start = time.perf_counter()
            for _ in range(count):
                transport.send(0, 1, message)
            await asyncio.wait_for(done, timeout=60.0)
            seconds = time.perf_counter() - start
            await transport.shutdown()
        return seconds

    return count, asyncio.run(run())


# -- DAG, consensus, schedule -------------------------------------------------------


def dag_inserts(committee: Committee, vertices: List[Vertex], scale: float) -> Measured:
    stores = [_fresh_store(committee) for _ in range(_n(12, scale))]

    def run() -> None:
        for store in stores:
            add = store.add
            for vertex in vertices:
                add(vertex)

    return len(stores) * len(vertices), _timed(run)


def dag_ooo_inserts(committee: Committee, vertices: List[Vertex], rng: random.Random) -> Measured:
    """The same vertices shuffled inside 3-round windows, so parents park."""
    window = 3 * committee.size
    shuffled: List[Vertex] = []
    for start in range(0, len(vertices), window):
        chunk = vertices[start:start + window]
        rng.shuffle(chunk)
        shuffled.extend(chunk)
    store = _fresh_store(committee)

    def run() -> None:
        add = store.add
        for vertex in shuffled:
            add(vertex)

    seconds = _timed(run)
    if len(store) != len(vertices) + committee.size:
        raise AssertionError("out-of-order insertion left vertices parked")
    return len(vertices), seconds


def dag_path_queries(committee: Committee, vertices: List[Vertex], schedule) -> Measured:
    """Anchor -> anchor two, four and six rounds back, from every later vertex."""
    store = _filled_store(committee, vertices)
    queries = []
    for round_number in range(8, DAG_ROUNDS + 1):
        for back in (2, 4, 6):
            anchor_round = round_number - back - (round_number - back) % 2
            if anchor_round < 2:
                continue
            target = VertexId(anchor_round, schedule.leader_for_round(anchor_round))
            for source in committee.validators[:10]:
                queries.append((VertexId(round_number, source), target))

    def run() -> None:
        path = store.path
        for descendant, ancestor in queries:
            path(descendant, ancestor)

    return len(queries), _timed(run)


def bullshark_ordered(
    committee: Committee, vertices: List[Vertex], schedule, scale: float
) -> Measured:
    engines = [
        BullsharkConsensus(
            owner=0,
            committee=committee,
            dag=_filled_store(committee, vertices),
            schedule_manager=StaticScheduleManager(committee, schedule),
            record_sequence=False,
        )
        for _ in range(_n(10, scale))
    ]

    def run() -> None:
        for consensus in engines:
            process_vertex = consensus.process_vertex
            for vertex in vertices:
                process_vertex(vertex)

    seconds = _timed(run)
    return sum(consensus.ordered_count for consensus in engines), seconds


def manager_score_updates(
    committee: Committee, vertices: List[Vertex], schedule, scale: float
) -> Measured:
    managers = [HammerHeadScheduleManager(committee, schedule) for _ in range(_n(40, scale))]

    def run() -> None:
        for manager in managers:
            on_vertex_ordered = manager.on_vertex_ordered
            for vertex in vertices:
                on_vertex_ordered(vertex)

    return len(managers) * len(vertices), _timed(run)


def manager_schedule_changes(
    committee: Committee, vertices: List[Vertex], schedule, scale: float
) -> Measured:
    """``on_anchor_committed`` where every commit is a change point."""
    by_id = {vertex.id: vertex for vertex in vertices}
    managers = [
        HammerHeadScheduleManager(committee, schedule, policy=CommitCountPolicy(1))
        for _ in range(_n(150, scale))
    ]
    changes = 0

    def run() -> None:
        nonlocal changes
        for manager in managers:
            for round_number in range(2, DAG_ROUNDS + 1, 2):
                anchor = by_id[VertexId(round_number, manager.leader_for_round(round_number))]
                if manager.on_anchor_committed(anchor) is not None:
                    changes += 1

    seconds = _timed(run)
    return changes, seconds


# -- per-transaction layers -----------------------------------------------------------


class _Sink:
    def __init__(self, validator: int) -> None:
        self.id = validator

    def submit_transaction(self, transaction: Transaction) -> None:
        return None


def generator_transactions(scale: float) -> Measured:
    duration = 30.0 * scale
    simulator = Simulator(seed=0)
    generators: List[Any] = []

    def run() -> None:
        generators.extend(
            spawn_load(
                simulator=simulator,
                targets=[_Sink(validator) for validator in range(10)],
                total_rate=4000.0,
                duration=duration,
            )
        )
        simulator.run(until=duration)

    seconds = _timed(run)
    return sum(generator.submitted for generator in generators), seconds


def collector_transactions(committee: Committee, scale: float) -> Measured:
    collector = MetricsCollector(warmup=0.0)
    records = []
    tx_id = 0
    parents = [vertex.id for vertex in genesis_vertices(committee)]
    for position in range(_n(2000, scale)):
        block = []
        for _ in range(100):
            transaction = Transaction(tx_id, 0, tx_id * 0.00025, position % committee.size)
            collector.on_transaction_submitted(transaction)
            block.append(transaction)
            tx_id += 1
        vertex = make_vertex(1, position % committee.size, parents, block=block)
        records.append(OrderedVertex(vertex, 30.0 + position * 0.01, 2, position))

    def run() -> None:
        on_vertex_ordered = collector.on_vertex_ordered
        for record in records:
            on_vertex_ordered(record)

    seconds = _timed(run)
    if collector.committed != tx_id:
        raise AssertionError("the collector did not count every synthetic transaction")
    return tx_id, seconds


# -- committee and crypto -----------------------------------------------------------


def stake_quorum_checks(committee: Committee, rng: random.Random, scale: float) -> Measured:
    """20000 signer masks, each asked ten times (one miss, nine hits)."""
    vector = committee.stake_vector
    masks = [rng.getrandbits(committee.size) for _ in range(_n(20_000, scale))] * 10

    def run() -> None:
        mask_has_quorum = vector.mask_has_quorum
        for mask in masks:
            mask_has_quorum(mask)

    return len(masks), _timed(run)


def hashing_digests(rng: random.Random, scale: float) -> Measured:
    inputs = [
        (rng.randrange(1000), rng.randrange(50), tuple(range(rng.randrange(34, 50))), rng.randrange(200))
        for _ in range(_n(15_000, scale))
    ]

    def run() -> None:
        for values in inputs:
            digest_of(*values)

    return len(inputs), _timed(run)


def unit_costs(seed: int, scale: float = 1.0) -> Dict[str, Measured]:
    """Every unit cost for ``seed`` as (operations, seconds); the caller
    divides by its calibration to get operations per cal."""
    rng = random.Random(seed)
    committee = Committee.build(DAG_COMMITTEE, seed=seed)
    vertices = full_dag(committee, DAG_ROUNDS)
    schedule = initial_schedule(committee, seed=seed)
    certificates, rbc_seconds, wire = rbc_certificates(rng, scale)
    encoded, decoded = codec_throughput(wire)
    del wire
    return {
        "network.simulator.events_per_cal": simulator_events(rng, scale),
        "network.transport.deliveries_per_cal": transport_deliveries(rng, scale),
        "network.latency.delays_per_cal": latency_delays(rng, scale),
        "rbc.certified.certificates_per_cal": (certificates, rbc_seconds),
        "netexec.codec.encode_mb_per_cal": encoded,
        "netexec.codec.decode_mb_per_cal": decoded,
        "netexec.transport.frames_per_cal": transport_frames(scale),
        "dag.store.inserts_per_cal": dag_inserts(committee, vertices, scale),
        "dag.store.ooo_inserts_per_cal": dag_ooo_inserts(committee, vertices, rng),
        "dag.store.path_queries_per_cal": dag_path_queries(committee, vertices, schedule),
        "consensus.bullshark.ordered_per_cal": bullshark_ordered(
            committee, vertices, schedule, scale
        ),
        "core.manager.score_updates_per_cal": manager_score_updates(
            committee, vertices, schedule, scale
        ),
        "core.manager.schedule_changes_per_cal": manager_schedule_changes(
            committee, vertices, schedule, scale
        ),
        "workload.generator.tx_per_cal": generator_transactions(scale),
        "metrics.collector.tx_per_cal": collector_transactions(committee, scale),
        "committee.stake.quorum_checks_per_cal": stake_quorum_checks(committee, rng, scale),
        "crypto.hashing.digests_per_cal": hashing_digests(rng, scale),
    }
