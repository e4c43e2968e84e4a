"""Unit tests for the certified reliable broadcast (Definition 1)."""

import pytest

from repro.committee import Committee
from repro.network.latency import UniformLatencyModel
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.rbc.certified import CertifiedBroadcast
from repro.rbc.messages import CertificateMessage, ProposeMessage
from repro.errors import BroadcastError


def build_cluster(size=4, seed=0):
    """A committee of broadcast endpoints wired over a simulated network."""
    committee = Committee.build(size)
    simulator = Simulator(seed=seed)
    network = Network(simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.002))
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
            lambda sender, message, index=index: protocols[index].handle_message(sender, message),
        )
    return committee, simulator, network, protocols, deliveries


class TestReliableBroadcastProperties:
    def test_validity_all_honest_deliver(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocols[0].broadcast("payload", round_number=1)
        simulator.run()
        for index in deliveries:
            assert len(deliveries[index]) == 1
            delivery = deliveries[index][0]
            assert delivery.payload == "payload"
            assert delivery.origin == 0
            assert delivery.round == 1

    def test_integrity_single_delivery_per_origin_round(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocols[0].broadcast("payload", round_number=1)
        simulator.run()
        # Re-inject the final protocol messages by broadcasting again from a
        # fresh instance with the same payload: deliveries must not double.
        protocols[1].broadcast("other payload", round_number=5)
        simulator.run()
        for index in deliveries:
            rounds = [(delivery.origin, delivery.round) for delivery in deliveries[index]]
            assert len(rounds) == len(set(rounds))

    def test_multiple_broadcasters_are_independent(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        for index in range(4):
            protocols[index].broadcast(f"payload-{index}", round_number=2)
        simulator.run()
        for index in deliveries:
            payloads = {delivery.payload for delivery in deliveries[index]}
            assert payloads == {"payload-0", "payload-1", "payload-2", "payload-3"}

    def test_agreement_with_crashed_minority(self):
        committee, simulator, network, protocols, deliveries = build_cluster(size=4)
        network.set_crashed(3)
        protocols[0].broadcast("payload", round_number=1)
        simulator.run()
        for index in range(3):
            assert len(deliveries[index]) == 1
        assert deliveries[3] == []


class TestCertifiedBroadcastSpecifics:
    def test_double_broadcast_same_round_rejected(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocols[0].broadcast("a", round_number=1)
        with pytest.raises(BroadcastError):
            protocols[0].broadcast("b", round_number=1)

    def test_certificate_requires_quorum_of_signers(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        bogus = CertificateMessage(
            origin=2, round=4, digest=b"\x00" * 32, payload="forged", signers=(0,)
        )
        protocols[1].handle_message(2, bogus)
        assert deliveries[1] == []

    def test_certificate_with_wrong_digest_rejected(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        bogus = CertificateMessage(
            origin=2, round=4, digest=b"\x00" * 32, payload="forged", signers=(0, 1, 2)
        )
        protocols[1].handle_message(2, bogus)
        assert deliveries[1] == []

    def test_equivocating_proposals_cannot_both_certify(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        # A Byzantine origin (node 3) sends conflicting proposals directly.
        from repro.crypto.hashing import digest_of

        payload_a, payload_b = "version-a", "version-b"
        digest_a = digest_of("certified-broadcast", 3, 1, digest_of(payload_a))
        digest_b = digest_of("certified-broadcast", 3, 1, digest_of(payload_b))
        proposal_a = ProposeMessage(origin=3, round=1, digest=digest_a, payload=payload_a)
        proposal_b = ProposeMessage(origin=3, round=1, digest=digest_b, payload=payload_b)
        # Every honest node sees both proposals; each acknowledges only one.
        for index in range(3):
            protocols[index].handle_message(3, proposal_a)
            protocols[index].handle_message(3, proposal_b)
        simulator.run()
        # The acknowledgements all went to node 3 (the origin), which is
        # Byzantine and silent; no certificate can be formed for either
        # payload by honest nodes, and no honest node delivered anything.
        for index in range(3):
            assert deliveries[index] == []

    def test_ack_only_sent_for_first_proposal(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocols[0].broadcast("first", round_number=1)
        simulator.run()
        assert protocols[0].is_certified(1)
        # Certification happens as soon as a 2f+1 stake quorum acknowledges;
        # later acknowledgements are ignored.
        assert protocols[0].ack_count(1) == committee.quorum_threshold

    def test_propose_from_wrong_sender_ignored(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        from repro.crypto.hashing import digest_of

        digest = digest_of("certified-broadcast", 2, 1, digest_of("spoofed"))
        spoofed = ProposeMessage(origin=2, round=1, digest=digest, payload="spoofed")
        # Delivered as if sent by node 1, claiming origin 2.
        protocols[0].handle_message(1, spoofed)
        simulator.run()
        assert deliveries[0] == []
