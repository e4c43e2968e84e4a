"""Properties of the batched certificate fan-out.

Certificates travel in ``CertificateBatch`` envelopes.  Splitting a batch
must deliver exactly what the same certificates deliver one by one (same
set, same order, duplicates and invalid certificates skipped), and batch
ingest must park and promote out-of-order vertices like sequential
delivery does.  That whole runs order what the protocol says is checked
against the reference model in
``tests/integration/test_reference_model_runs.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.dag.store import DagStore
from repro.network.latency import UniformLatencyModel
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.rbc.certified import CertifiedBroadcast
from repro.rbc.messages import CertificateBatch, CertificateMessage


# -- protocol-level batch semantics ------------------------------------------


def certified_cluster(size=4, seed=3):
    committee = Committee.build(size)
    simulator = Simulator(seed=seed)
    network = Network(
        simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.002)
    )
    deliveries = {index: [] for index in range(size)}
    protocols = {}
    for index in range(size):
        protocol = CertifiedBroadcast(
            index,
            committee,
            network,
            lambda delivery, index=index: deliveries[index].append(delivery),
        )
        protocols[index] = protocol
        network.register(
            index,
            committee.region_of(index),
            lambda sender, message, index=index: protocols[index].handle_message(
                sender, message
            ),
        )
    return committee, simulator, network, protocols, deliveries


def harvest_certificates(rounds=3, size=4):
    """Real certificates produced by running the certified protocol."""
    committee, simulator, network, protocols, _ = certified_cluster(size=size)
    collected = {}

    original = Network.broadcast

    def capture(self, sender, message, include_self=True):
        if isinstance(message, CertificateBatch):
            for certificate in message.certificates:
                collected[(certificate.origin, certificate.round)] = certificate
        elif isinstance(message, CertificateMessage):
            collected[(message.origin, message.round)] = message
        return original(self, sender, message, include_self)

    Network.broadcast = capture
    try:
        for round_number in range(1, rounds + 1):
            for index in protocols:
                protocols[index].broadcast(f"payload-{index}-{round_number}", round_number)
            simulator.run_until_idle(max_time=10.0 * round_number)
    finally:
        Network.broadcast = original
    return committee, collected


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_split_dedup_matches_individual_delivery(data):
    """Splitting a CertificateBatch delivers exactly what the same
    certificates deliver individually: same set, same order, duplicates
    and invalid certificates ignored in both modes."""
    committee, certificates = harvest_certificates()
    pool = sorted(certificates.values(), key=lambda c: (c.round, c.origin))
    chosen = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=8), label="certs"
    )
    # Possibly corrupt some into invalid certificates (insufficient
    # signers); both paths must skip them.
    corrupted = []
    for certificate in chosen:
        if data.draw(st.booleans(), label="corrupt"):
            corrupted.append(
                CertificateMessage(
                    origin=certificate.origin,
                    round=certificate.round,
                    digest=certificate.digest,
                    payload=certificate.payload,
                    signers=certificate.signers[:1],
                )
            )
        else:
            corrupted.append(certificate)

    def fresh_receiver():
        received = []
        protocol = CertifiedBroadcast(
            0,
            committee,
            network=Network(Simulator(seed=0)),
            on_deliver=received.append,
        )
        return protocol, received

    batch_protocol, batch_deliveries = fresh_receiver()
    batch = CertificateBatch(
        origin=1, round=corrupted[0].round, digest=corrupted[0].digest,
        certificates=tuple(corrupted),
    )
    assert batch_protocol.handle_message(1, batch) is True

    single_protocol, single_deliveries = fresh_receiver()
    for certificate in corrupted:
        single_protocol.handle_message(1, certificate)

    assert [
        (d.origin, d.round, d.payload) for d in batch_deliveries
    ] == [(d.origin, d.round, d.payload) for d in single_deliveries]
    delivered_keys = [(d.origin, d.round) for d in batch_deliveries]
    assert len(delivered_keys) == len(set(delivered_keys))


def test_batch_ingest_parks_and_promotes_out_of_order_vertices():
    """Batched ingest interacts with ``DagStore._pending`` exactly like
    sequential delivery: a child arriving before its parent (inside one
    batch) parks and is promoted once the parent is split out."""
    from tests.conftest import build_round
    from repro.dag.vertex import genesis_vertices

    committee = Committee.build(4)
    reference = DagStore(committee)
    genesis = list(genesis_vertices(committee))
    for vertex in genesis:
        reference.add(vertex)
    round1 = build_round(reference, committee, 1)
    round2 = build_round(reference, committee, 2)

    out_of_order = DagStore(committee)
    for vertex in genesis:
        out_of_order.add(vertex)
    # Children first: every round-2 vertex parks...
    for vertex in round2:
        out_of_order.add(vertex)
    assert out_of_order.pending_count == len(round2)
    # ...until the parents arrive (later in the same batch) and the
    # whole buffer promotes.
    for vertex in round1:
        out_of_order.add(vertex)
    assert out_of_order.pending_count == 0
    assert sorted(v.id for v in out_of_order) == sorted(v.id for v in reference)
