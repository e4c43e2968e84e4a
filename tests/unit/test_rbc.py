"""Unit tests for the certified reliable broadcast (Definition 1)."""

import tracemalloc

import pytest

from repro.committee import Committee
from repro.committee.stake import StakeVector
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.rbc.certified import CertifiedBroadcast
from repro.rbc.messages import (
    AckMessage,
    CertificateBatch,
    CertificateMessage,
    ProposeMessage,
)
from repro.errors import BroadcastError
from repro.obs.trace import MemoryTracer
from tests.doubles import UniformLatencyModel


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


def traced(protocol):
    """A tracer installed on ``protocol``."""
    tracer = MemoryTracer(clock=lambda: 0.0)
    protocol.install_observability(tracer, None)
    return tracer


def certificates_formed(tracer):
    """``(round, signer count)`` of each certificate formed, from its trace."""
    return [(event["round"], event["signers"]) for event in tracer.events if event["kind"] == "vertex_certified"]


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

    def test_each_origin_and_round_is_delivered_once(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocols[0].broadcast("payload", round_number=1)
        simulator.run()
        for index in deliveries:
            assert [(delivery.origin, delivery.round) for delivery in deliveries[index]] == [(0, 1)]

    def test_messages_of_other_layers_are_left_to_the_caller(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        assert protocols[1].handle_message(0, "a vertex fetch, say") is False
        assert protocols[1].handle_message(0, protocols[0].make_propose("payload", 1)) is True

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
        tracer = traced(protocols[0])
        protocols[0].broadcast("first", round_number=1)
        simulator.run()
        # Certification happens as soon as a 2f+1 stake quorum acknowledges;
        # later acknowledgements are ignored.
        assert certificates_formed(tracer) == [(1, committee.quorum_threshold)]

    def test_a_certified_round_keeps_its_digest_not_its_payload(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        tracer = traced(protocols[0])
        protocols[0].broadcast("payload", round_number=1)
        own = protocols[0]._own_rounds[1]
        digest = own.digest
        simulator.run()
        assert certificates_formed(tracer) == [(1, committee.quorum_threshold)]
        assert (own.payload, own.digest, own.certified) == (None, digest, True)
        # Late acks still meet the certified round: nothing is sent and no
        # second certificate forms.  The round still refuses a second broadcast.
        sent = network.stats.messages_sent
        protocols[0].handle_message(3, AckMessage(origin=0, round=1, digest=digest, voter=3))
        assert certificates_formed(tracer) == [(1, committee.quorum_threshold)]
        assert network.stats.messages_sent == sent
        with pytest.raises(BroadcastError):
            protocols[0].broadcast("payload", round_number=1)

    def test_an_uncertified_round_keeps_its_payload(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        tracer = traced(protocols[0])
        network.set_crashed(1, True)
        network.set_crashed(2, True)
        protocols[0].broadcast("payload", round_number=1)
        simulator.run()
        assert certificates_formed(tracer) == []
        own = protocols[0]._own_rounds[1]
        assert (own.payload, own.certified) == ("payload", False)

    def test_repeated_and_late_acks_leave_one_certificate_in_one_batch(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocol = protocols[0]
        fanned_out = []
        broadcast = network.broadcast

        def recording_broadcast(sender, message, include_self=True):
            fanned_out.append(message)
            broadcast(sender, message, include_self=include_self)

        network.broadcast = recording_broadcast
        protocol.broadcast("payload", round_number=1)
        own = protocol._own_rounds[1]

        def ack(voter):
            protocol.handle_message(voter, AckMessage(origin=0, round=1, digest=own.digest, voter=voter))

        # Voters 2 and 0 repeat themselves before 3 completes the quorum of three.
        for voter in (2, 2, 0, 0, 2):
            ack(voter)
        assert (own.voters, own.stake, own.certified) == (0b101, 2, False)
        ack(3)
        assert (own.voters, own.stake, own.certified, own.payload) == (0b1101, 3, True, None)
        sent = network.stats.messages_sent
        # After certification: a new voter, and the quorum's voters again.
        for voter in (1, 3, 0, 1):
            ack(voter)
        assert own.voters == 0b1101
        assert network.stats.messages_sent == sent
        assert [type(message) for message in fanned_out] == [ProposeMessage, CertificateBatch]
        (certificate,) = fanned_out[1].certificates
        assert (certificate.origin, certificate.round, certificate.payload) == (0, 1, "payload")
        assert certificate.signers == (0, 2, 3)
        assert certificate.digest == own.digest

    def test_propose_from_wrong_sender_ignored(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        from repro.crypto.hashing import digest_of

        digest = digest_of("certified-broadcast", 2, 1, digest_of("spoofed"))
        spoofed = ProposeMessage(origin=2, round=1, digest=digest, payload="spoofed")
        # Delivered as if sent by node 1, claiming origin 2.
        protocols[0].handle_message(1, spoofed)
        simulator.run()
        assert deliveries[0] == []


class TestCertificateVerdictByIdentity:
    """One certificate object fans out to every recipient: the first success
    is remembered for *that object* under *that stake vector*, nothing else."""

    @staticmethod
    def genuine(origin=2, round_number=4, payload="payload", signers=(0, 1, 2)):
        digest = CertifiedBroadcast._broadcast_digest(origin, round_number, payload)
        return CertificateMessage(
            origin=origin, round=round_number, digest=digest, payload=payload, signers=signers
        )

    @pytest.fixture
    def full_checks(self, monkeypatch):
        """Full checks made under a committee's stake vector so far, counted
        by wrapping the signer check every full verification starts with."""
        checked = []
        check = StakeVector.signer_tuple_has_quorum

        def counted(vector, signers):
            checked.append(vector)
            return check(vector, signers)

        monkeypatch.setattr(StakeVector, "signer_tuple_has_quorum", counted)
        return lambda committee: sum(vector is committee.stake_vector for vector in checked)

    def test_later_recipients_are_answered_by_identity(self, full_checks):
        committee, simulator, network, protocols, deliveries = build_cluster()
        certificate = self.genuine()
        checked = full_checks(committee)
        protocols[0].handle_message(2, certificate)
        assert full_checks(committee) == checked + 1
        for index in (1, 2, 3):
            protocols[index].handle_message(2, certificate)
        assert full_checks(committee) == checked + 1
        for index in range(4):
            assert [delivery.payload for delivery in deliveries[index]] == ["payload"]

    def test_a_bare_certificate_is_a_batch_of_one(self):
        committee, simulator, network, protocols, deliveries = build_cluster()
        certificate = self.genuine()
        batch = CertificateBatch(origin=2, round=4, digest=certificate.digest, certificates=(certificate,))
        for message in (certificate, certificate, batch):
            assert protocols[1].handle_message(2, message) is True
        assert [(delivery.origin, delivery.round, delivery.payload) for delivery in deliveries[1]] == [
            (2, 4, "payload")
        ]

    def test_a_copy_is_verified_in_full_and_a_forged_copy_refused(self, full_checks):
        import copy
        import dataclasses

        committee, simulator, network, protocols, deliveries = build_cluster()
        certificate = self.genuine()
        assert protocols[0]._verify_certificate(certificate)
        checked = full_checks(committee)
        equal_copy = copy.copy(certificate)
        assert equal_copy == certificate and equal_copy is not certificate
        assert protocols[1]._verify_certificate(equal_copy)
        assert full_checks(committee) == checked + 1
        forged_digest = copy.copy(certificate)
        forged_digest.digest = b"\x00" * 32
        sub_quorum = dataclasses.replace(certificate, signers=(0, 1))
        for forged in (forged_digest, sub_quorum):
            for index in range(4):
                assert not protocols[index]._verify_certificate(forged)
                protocols[index].handle_message(2, forged)
        assert all(deliveries[index] == [] for index in range(4))

    def test_the_same_object_is_verified_again_under_a_second_committee(self, full_checks):
        committee, _simulator, _network, protocols, _deliveries = build_cluster(size=4)
        larger, _simulator, _network, larger_protocols, larger_deliveries = build_cluster(size=7)
        certificate = self.genuine()
        assert protocols[0]._verify_certificate(certificate)
        checked = full_checks(larger)
        # Three signers are a quorum of four validators, not of seven.
        assert not larger_protocols[0]._verify_certificate(certificate)
        assert full_checks(larger) == checked + 1
        larger_protocols[0].handle_message(2, certificate)
        assert larger_deliveries[0] == []
        # ... and the refusal there does not disturb the verdict here.
        assert protocols[1]._verify_certificate(certificate)

    def test_a_failed_object_is_checked_again_by_every_recipient(self, full_checks):
        committee, simulator, network, protocols, deliveries = build_cluster()
        bogus = self.genuine()
        bogus.digest = b"\x00" * 32
        checked = full_checks(committee)
        for index in (0, 1, 2, 3, 0, 1):
            assert not protocols[index]._verify_certificate(bogus)
        assert full_checks(committee) == checked + 6
        assert committee.stake_vector.verified_certificates == {}


class TestIdsOutsideTheCommittee:
    """A decoded id is bounded before it becomes a shift: ``1 << 2**33`` is
    a gigabyte, so each refusal is asserted by what it allocated."""

    HUGE = 2**33

    @staticmethod
    def peak_bytes(action):
        tracemalloc.start()
        try:
            action()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def forged(self, origin, signers=(0, 1, 2), round_number=4):
        return CertificateMessage(
            origin=origin,
            round=round_number,
            digest=CertifiedBroadcast._broadcast_digest(origin, round_number, "forged"),
            payload="forged",
            signers=signers,
        )

    @pytest.mark.parametrize("origin", [HUGE, 4, -1])
    def test_a_certificate_from_outside_is_refused_on_every_path(self, origin):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocol = protocols[1]
        certificate = self.forged(origin)
        # Quorum of signers, matching digest: only the origin is wrong.
        assert protocol._verify_certificate(certificate)

        def every_path():
            protocol.handle_message(2, certificate)
            protocol.handle_message(
                2, CertificateBatch(origin=2, round=4, digest=certificate.digest, certificates=(certificate,))
            )
            protocol.handle_message(
                origin, CertificateBatch(origin=origin, round=4, digest=certificate.digest, certificates=(certificate,))
            )

        assert self.peak_bytes(every_path) < 1 << 20
        assert deliveries[1] == []
        assert protocol._delivered == {}

    @pytest.mark.parametrize("sender", [HUGE, 4, -1])
    def test_a_proposal_from_outside_is_not_acknowledged(self, sender):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocol = protocols[1]
        proposal = ProposeMessage(
            origin=sender,
            round=1,
            digest=CertifiedBroadcast._broadcast_digest(sender, 1, "outsider"),
            payload="outsider",
        )
        assert self.peak_bytes(lambda: protocol.handle_message(sender, proposal)) < 1 << 20
        assert protocol._acked == {}
        assert network.stats.messages_sent == 0

    @pytest.mark.parametrize("sender", [HUGE, 4, -1])
    def test_an_ack_from_outside_is_not_counted(self, sender):
        committee, simulator, network, protocols, deliveries = build_cluster()
        protocol = protocols[1]
        tracer = traced(protocol)
        protocol.broadcast("payload", round_number=1)
        digest = protocol._own_rounds[1].digest
        ack = AckMessage(origin=1, round=1, digest=digest, voter=sender)
        assert self.peak_bytes(lambda: protocol.handle_message(sender, ack)) < 1 << 20
        # Had the outsider counted, two more acks would make the quorum of three.
        for voter in (0, 2):
            protocol.handle_message(voter, AckMessage(origin=1, round=1, digest=digest, voter=voter))
        assert certificates_formed(tracer) == []
        protocol.handle_message(3, AckMessage(origin=1, round=1, digest=digest, voter=3))
        assert certificates_formed(tracer) == [(1, 3)]

    @pytest.mark.parametrize("signers", [(0, 1, HUGE), (0, 1, 2, 4), (-1, 0, 1, 2)])
    def test_a_signer_from_outside_fails_the_certificate(self, signers):
        committee, simulator, network, protocols, deliveries = build_cluster()
        vector = committee.stake_vector
        certificate = self.forged(2, signers=signers)
        assert self.peak_bytes(lambda: protocols[1].handle_message(2, certificate)) < 1 << 20
        assert deliveries[1] == []
        assert not vector.signer_tuple_has_quorum(signers)
        # The same ids inside the committee are a quorum.
        assert vector.signer_tuple_has_quorum((0, 1, 2))
