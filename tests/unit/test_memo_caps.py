"""Regression tests: the memo tables a run keeps stay bounded and observable.

Every one of them must (a) stay under its cap -- a long run must never
grow one without bound -- and (b) where it lives on the committee,
surface its size in the always-on counters so a leak is visible in any
run's instrumentation snapshot, not just under a profiler.
"""

import repro.netexec.codec as codec
from repro.crypto.hashing import evict_oldest_half
from repro.dag.vertex import make_vertex
from repro.rbc.certified import VERIFIED_CERTIFICATE_ROUNDS
from repro.rbc.messages import ProposeMessage
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.runner import SimulationRunner
from repro.types import VertexId
from repro.workload.transactions import Transaction


class TestEvictionPolicy:
    def test_oldest_half_evicted_at_limit(self):
        entries = {index: index for index in range(8)}
        evict_oldest_half(entries, 8)
        assert list(entries) == [4, 5, 6, 7]

    def test_below_limit_untouched(self):
        entries = {index: index for index in range(7)}
        evict_oldest_half(entries, 8)
        assert len(entries) == 7


def held(memo):
    """The bytes a memo's two tables hold, counted from their entries."""
    return sum(len(encoded) for _, encoded in (*memo.entries.values(), *memo.frames.values()))


class TestVertexMemoCaps:
    """A transport's memo of vertex encodings and broadcast frames is
    bounded in entries per table and in bytes of both, and forgets its
    oldest entry first."""

    @staticmethod
    def proposals(count, kind_bytes=0):
        """Proposals of ``count`` distinct vertices, one per round."""
        block = (Transaction(1, 0, 0.5, 0, kind="k" * kind_bytes),) if kind_bytes else ()
        vertices = [
            make_vertex(
                round_number, 0,
                edges=[VertexId(round_number - 1, source) for source in range(3)], block=block,
            )
            for round_number in range(1, count + 1)
        ]
        return [ProposeMessage(0, vertex.round, vertex.digest, vertex) for vertex in vertices]

    def test_entries_stay_under_their_cap(self, monkeypatch):
        monkeypatch.setattr(codec, "_MEMO_ENTRIES", 8)
        memo = codec.VertexMemo()
        proposals = self.proposals(30)
        for proposal in proposals:
            codec.decode(codec.encode(proposal), memo)
            codec.encode(proposal, memo)
            assert len(memo.entries) <= 8
        # The newest four vertices, each once as decoded and once as encoded.
        assert [vertex.round for vertex, _ in memo.entries.values()] == [27, 27, 28, 28, 29, 29, 30, 30]
        assert memo.held_bytes == held(memo)

    def test_bytes_stay_under_their_cap(self, monkeypatch):
        proposals = self.proposals(30)
        size = len(codec.encode(proposals[0].payload))
        monkeypatch.setattr(codec, "_MEMO_BYTES", 5 * size)
        memo = codec.VertexMemo()
        for proposal in proposals:
            codec.encode(proposal, memo)
            assert memo.held_bytes <= 5 * size
        assert memo.held_bytes == held(memo)
        assert len(memo.entries) == 5 and codec._MEMO_ENTRIES > 5

    def test_the_real_caps_hold_a_long_stream(self):
        memo = codec.VertexMemo()
        for proposal in self.proposals(2 * codec._MEMO_ENTRIES):
            codec.encode(proposal, memo)
            codec.decode(codec.encode(proposal), memo)
        assert len(memo.entries) <= codec._MEMO_ENTRIES
        assert len(memo.frames) == codec._MEMO_FRAMES
        assert memo.held_bytes == held(memo) <= codec._MEMO_BYTES

    def test_frames_stay_under_their_cap(self):
        memo = codec.VertexMemo()
        proposals = self.proposals(3 * codec._MEMO_FRAMES)
        for proposal in proposals:
            codec.decode(codec.encode(proposal), memo)
            assert len(memo.frames) <= codec._MEMO_FRAMES
        # The newest frames, oldest first; their vertices are held apart.
        assert [message.round for message, _ in memo.frames.values()] == [
            proposal.round for proposal in proposals[-codec._MEMO_FRAMES:]
        ]
        assert memo.held_bytes == held(memo) <= codec._MEMO_BYTES

    def test_a_stream_of_distinct_large_frames_stays_under_the_byte_cap(self):
        """~20 KiB frames: the byte cap binds before the entry cap.  The
        vertex encodings are forgotten first, then the oldest frames."""
        memo = codec.VertexMemo()
        proposals = self.proposals(200, kind_bytes=20 * 1024)
        for proposal in proposals:
            body = codec.encode(proposal)
            assert 20 * 1024 < len(body) <= codec._MEMO_ENTRY_BYTES
            codec.decode(body, memo)
            assert memo.held_bytes == held(memo) <= codec._MEMO_BYTES
        kept = [message.round for message, _ in memo.frames.values()]
        assert kept == list(range(201 - len(kept), 201)) and 1 < len(kept) < codec._MEMO_FRAMES
        assert memo.entries == {}

    def test_a_frame_above_64_kib_is_not_remembered(self):
        memo = codec.VertexMemo()
        (proposal,) = self.proposals(1, kind_bytes=70 * 1024)
        assert codec.decode(codec.encode(proposal), memo) == proposal
        assert memo.frames == {} and memo.held_bytes == 0


class TestVerifiedCertificateCap:
    def test_verified_certificate_memo_stays_bounded(self, monkeypatch):
        import repro.rbc.certified as certified
        from repro.committee import Committee
        from repro.rbc.messages import CertificateMessage

        # Two rounds of a committee of four: eight certificates.
        monkeypatch.setattr(certified, "VERIFIED_CERTIFICATE_ROUNDS", 2)
        committee = Committee.build(4)
        protocol = certified.CertifiedBroadcast(0, committee, network=None, on_deliver=None)
        certificates = [
            CertificateMessage(
                origin=1,
                round=round_number,
                digest=protocol._broadcast_digest(1, round_number, "payload"),
                payload="payload",
                signers=(0, 1, 2),
            )
            for round_number in range(40)
        ]
        memo = committee.stake_vector.verified_certificates
        for certificate in certificates:
            assert protocol._verify_certificate(certificate)
            assert len(memo) <= 8
        # An evicted object is verified in full again, never refused.
        assert id(certificates[0]) not in memo
        assert protocol._verify_certificate(certificates[0])


class TestCountersExposeMemoSizes:
    def test_run_counters_carry_sizes_under_caps(self):
        result = run_experiment(
            ExperimentConfig(committee_size=4, duration=3.0, warmup=0.5, seed=3)
        )
        always = result.counters["always"]
        for key, cap in (
            ("memo.edge_quorum.size", 65536),
            ("memo.verified_certificates.size", VERIFIED_CERTIFICATE_ROUNDS * 4),
        ):
            assert key in always
            assert 0 <= always[key] <= cap


class TestPerSlotStateGrowsWithRoundsNotSlots:
    """Delivered, acknowledged and ordered slots are kept by round (a mask or
    a slab per round); keyed by ``(origin, round)`` they were rounds x
    committee entries per validator, for the whole run."""

    def test_tables_hold_one_entry_per_round_at_committee_ten(self):
        runner = SimulationRunner(ExperimentConfig(committee_size=10, duration=6.0, warmup=0.5, seed=3))
        result = runner.run()
        rounds = max(node.current_round for node in runner.nodes.values())
        assert rounds > 12
        sizes = {"rbc.delivered_rounds": 0, "rbc.acked_rounds": 0, "consensus.ordered_rounds": 0}
        for node in runner.nodes.values():
            tables = {
                "rbc.delivered_rounds": node.broadcast_protocol._delivered,
                "rbc.acked_rounds": node.broadcast_protocol._acked,
                "consensus.ordered_rounds": node.consensus.ordered_sources,
            }
            for name, table in tables.items():
                assert len(table) <= rounds + 1, name
                sizes[name] = max(sizes[name], len(table))
            # ... while the slots they record are rounds x committee.
            delivered_slots = sum(mask.bit_count() for mask in node.broadcast_protocol._delivered.values())
            assert delivered_slots > 5 * rounds
        always = result.counters["always"]
        assert {name: always[name] for name in sizes} == sizes
