"""Regression tests: process-wide memo tables stay bounded and observable.

The committee-100 work added two interning tables (vertex ids, vertex
digests) to the process-wide memo population that already held the
broadcast-digest memo and the quorum-verdict caches.  Every one of them
must (a) stay under its cap via the shared oldest-half eviction policy —
a long bench session or sweep worker must never grow without bound — and
(b) surface its size in the always-on counters so a leak is visible in
any run's instrumentation snapshot, not just under a profiler.
"""

import pytest

import repro.dag.vertex as vertex_module
from repro.committee.stake import StakeVector, equal_stake
from repro.crypto.hashing import evict_oldest_half
from repro.dag.vertex import intern_table_sizes, interned_vertex_id, make_vertex
from repro.rbc.certified import VERIFIED_CERTIFICATE_ROUNDS
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.runner import SimulationRunner


class TestEvictionPolicy:
    def test_oldest_half_evicted_at_limit(self):
        entries = {index: index for index in range(8)}
        evict_oldest_half(entries, 8)
        assert list(entries) == [4, 5, 6, 7]

    def test_below_limit_untouched(self):
        entries = {index: index for index in range(7)}
        evict_oldest_half(entries, 8)
        assert len(entries) == 7


class TestInternTableCaps:
    @pytest.fixture
    def small_limit(self, monkeypatch):
        # The cap is read as a module global on every interning call, so
        # shrinking it exercises the eviction path without building 2^17
        # vertices in a unit test.  The process-wide tables are emptied
        # first: eviction only chips away limit//2 entries per insert,
        # so a table pre-populated by earlier tests would otherwise mask
        # the bound under the shrunken cap.
        monkeypatch.setattr(vertex_module, "_INTERN_LIMIT", 64)
        vertex_module._VERTEX_ID_INTERN.clear()
        vertex_module._DIGEST_INTERN.clear()
        return 64

    def test_vertex_id_table_stays_bounded(self, small_limit):
        for round_number in range(small_limit * 3):
            interned_vertex_id(round_number, round_number % 7)
        assert intern_table_sizes()["vertex_id"] <= small_limit

    def test_digest_table_stays_bounded(self, small_limit):
        parents = []
        for round_number in range(small_limit * 2):
            vertex = make_vertex(round_number + 1, round_number % 5, edges=parents)
            parents = [vertex.id]
        assert intern_table_sizes()["digest"] <= small_limit

    def test_interning_returns_identical_objects(self):
        first = interned_vertex_id(3, 1)
        second = interned_vertex_id(3, 1)
        assert first is second

    def test_digest_interning_dedups_equal_digests(self):
        first = make_vertex(1, 0, edges=[])
        second = make_vertex(1, 0, edges=[])
        assert first.digest == second.digest
        assert first.digest is second.digest


class TestQuorumCacheCaps:
    def test_mask_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(StakeVector, "_SIGNER_CACHE_LIMIT", 32)
        vector = StakeVector(equal_stake(16).stakes)
        for mask in range(1, 200):
            vector.mask_has_quorum(mask)
        assert len(vector._mask_quorum_cache) <= 32

    def test_signer_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(StakeVector, "_SIGNER_CACHE_LIMIT", 32)
        vector = StakeVector(equal_stake(16).stakes)
        for validator in range(16):
            for other in range(validator + 1, 16):
                vector.signer_tuple_has_quorum((validator, other))
        assert len(vector._signer_quorum_cache) <= 32


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
            ("memo.mask_quorum.size", StakeVector._SIGNER_CACHE_LIMIT),
            ("memo.signer_quorum.size", StakeVector._SIGNER_CACHE_LIMIT),
            ("memo.intern.vertex_id.size", vertex_module._INTERN_LIMIT),
            ("memo.intern.digest.size", vertex_module._INTERN_LIMIT),
            ("memo.edge_quorum.size", 65536),
            ("memo.verified_certificates.size", VERIFIED_CERTIFICATE_ROUNDS * 4),
        ):
            assert key in always
            assert 0 <= always[key] <= cap
        assert always["memo.mask_quorum.hits"] >= 0
        assert always["memo.mask_quorum.misses"] >= 0


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
