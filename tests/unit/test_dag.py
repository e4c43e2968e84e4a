"""Unit tests for DAG vertices and the DAG store."""

import pytest

from repro.crypto.hashing import digest_of
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, check_edge_quorum, genesis_vertices, make_vertex
from repro.errors import DagError, EquivocationError
from tests.conftest import build_round, populate_dag, vid
from tests.doubles import dag_vertices
from tests.reference_model import ReferenceModel


def source_masks(vertex_ids):
    """``{round: source bitmask}`` naming ``vertex_ids`` (``causal_history``'s ``exclude``)."""
    masks = {}
    for round_number, source in vertex_ids:
        masks[round_number] = masks.get(round_number, 0) | 1 << source
    return masks


class TestVertexConstruction:
    def test_make_vertex_basic(self, committee4):
        parents = [vid(0, index) for index in range(4)]
        vertex = make_vertex(1, 2, edges=parents, block=("tx1", "tx2"))
        assert vertex.round == 1
        assert vertex.source == 2
        assert vertex.edges == tuple(parents)
        assert vertex.block == ("tx1", "tx2")

    def test_genesis_vertices_have_no_edges(self, committee4):
        vertices = genesis_vertices(committee4)
        assert len(vertices) == 4
        assert all(vertex.round == 0 and not vertex.edges for vertex in vertices)

    def test_genesis_with_edges_rejected(self):
        with pytest.raises(DagError):
            make_vertex(0, 0, edges=[vid(0, 1)])

    def test_edges_must_point_to_previous_round(self):
        with pytest.raises(DagError):
            make_vertex(3, 0, edges=[vid(1, 0)])
        with pytest.raises(DagError):
            make_vertex(3, 0, edges=[vid(3, 1)])

    def test_negative_round_rejected(self):
        with pytest.raises(DagError):
            make_vertex(-1, 0, edges=[])

    def test_digest_depends_on_edges(self):
        vertex_a = make_vertex(1, 0, edges=[vid(0, 0), vid(0, 1), vid(0, 2)])
        vertex_b = make_vertex(1, 0, edges=[vid(0, 0), vid(0, 1), vid(0, 3)])
        assert vertex_a.digest != vertex_b.digest

    def test_digest_is_the_digest_of_round_source_ascending_edges_and_block_length(self):
        edges = [vid(2, 3), vid(2, 0), vid(2, 1)]
        vertex = make_vertex(3, 2, edges=edges, block=("tx-a", "tx-b"))
        assert vertex.edges == (vid(2, 0), vid(2, 1), vid(2, 3))
        assert vertex.digest == digest_of(3, 2, ((2, 0), (2, 1), (2, 3)), 2)

    def test_digest_is_stable_under_edge_ordering(self):
        edges = [vid(0, 2), vid(0, 0), vid(0, 1)]
        assert make_vertex(1, 0, edges=edges).digest == make_vertex(1, 0, edges=reversed(edges)).digest

    def test_check_edge_quorum(self, committee4):
        good = make_vertex(1, 0, edges=[vid(0, 0), vid(0, 1), vid(0, 2)])
        bad = make_vertex(1, 0, edges=[vid(0, 0), vid(0, 1)])
        assert check_edge_quorum(good, committee4)
        assert not check_edge_quorum(bad, committee4)
        assert check_edge_quorum(genesis_vertices(committee4)[0], committee4)


class TestDagStoreInsertion:
    def test_add_genesis_and_rounds(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=3)
        assert dag.highest_round() == 3
        assert len(dag) == 4 * 4  # genesis + 3 rounds
        for round_number in range(4):
            assert dag.has_quorum_at(round_number)

    def test_duplicate_insert_is_ignored(self, committee4):
        dag = DagStore(committee4)
        vertex = genesis_vertices(committee4)[0]
        assert dag.add(vertex) is True
        assert dag.add(vertex) is False
        assert len(dag) == 1

    def test_equivocation_is_detected(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=1)
        honest = make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1), vid(1, 2)], block=("a",))
        conflicting = make_vertex(2, 0, edges=[vid(1, 1), vid(1, 2), vid(1, 3)], block=("b",))
        dag.add(honest)
        with pytest.raises(EquivocationError):
            dag.add(conflicting)

    def test_insufficient_edge_quorum_rejected(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=1)
        with pytest.raises(DagError):
            dag.add(make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1)]))

    def test_quorum_check_can_be_disabled(self, committee4):
        dag = DagStore(committee4, require_edge_quorum=False)
        populate_dag(dag, committee4, rounds=1)
        assert dag.add(make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1)]))

    def test_missing_parents_are_buffered(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        round1 = [make_vertex(1, index, edges=[vid(0, 0), vid(0, 1), vid(0, 2)]) for index in range(4)]
        orphan = make_vertex(2, 0, edges=[vertex.id for vertex in round1[:3]])
        assert dag.add(orphan) is False
        assert orphan.id not in dag
        assert len(dag.pending_vertices()) == 1
        # Parents arrive: the orphan is promoted automatically.
        for vertex in round1:
            dag.add(vertex)
        assert orphan.id in dag
        assert len(dag.pending_vertices()) == 0

    def test_pending_promotion_cascades(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        round1 = [make_vertex(1, index, edges=[vid(0, 0), vid(0, 1), vid(0, 2)]) for index in range(4)]
        round2 = [make_vertex(2, index, edges=[vertex.id for vertex in round1[:3]]) for index in range(4)]
        round3 = [make_vertex(3, index, edges=[vertex.id for vertex in round2[:3]]) for index in range(4)]
        # Insert out of order: rounds 3, then 2, then 1.
        for vertex in round3 + round2:
            assert dag.add(vertex) is False
        assert len(dag.pending_vertices()) == 8
        for vertex in round1:
            dag.add(vertex)
        assert len(dag.pending_vertices()) == 0
        assert dag.highest_round() == 3

    def test_pending_missing_lists_blocking_parents(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        round1 = [make_vertex(1, index, edges=[vid(0, 0), vid(0, 1), vid(0, 2)]) for index in range(3)]
        child = make_vertex(2, 0, edges=[vertex.id for vertex in round1])
        dag.add(child)
        assert dag.pending_missing() == {vertex.id for vertex in round1}
        assert dag.pending_vertices() == (child,)

    def test_insert_callback_fires_for_each_insert(self, committee4):
        dag = DagStore(committee4)
        seen = []
        dag.on_insert(lambda vertex: seen.append(vertex.id))
        populate_dag(dag, committee4, rounds=2)
        assert len(seen) == 12

    def test_replace_insert_callbacks(self, committee4):
        dag = DagStore(committee4)
        first, second = [], []
        dag.on_insert(lambda vertex: first.append(vertex.id))
        dag.replace_insert_callbacks([lambda vertex: second.append(vertex.id)])
        populate_dag(dag, committee4, rounds=1)
        assert not first
        assert len(second) == 8


class TestDagStoreQueries:
    def test_vertex_lookup(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=2)
        vertex = dag.vertex_of(2, 1)
        assert vertex is not None
        assert dag.get(vertex.id) is vertex
        assert dag.vertex_of(2, 99) is None

    def test_sources_and_stake(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=1)
        build_round(dag, committee4, 2, sources=[0, 1, 2])
        assert {vertex.source for vertex in dag.vertices_at(2)} == {0, 1, 2}
        assert dag.stake_at(2) == 3
        assert dag.has_quorum_at(2)
        build_round(dag, committee4, 3, sources=[0, 1])
        assert not dag.has_quorum_at(3)

    def test_path_direct_edge(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=2)
        assert dag.path(vid(2, 0), vid(1, 1))

    def test_path_multi_round(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=6)
        assert dag.path(vid(6, 3), vid(1, 0))
        assert dag.path(vid(6, 3), vid(0, 2))

    def test_path_to_self(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=1)
        assert dag.path(vid(1, 0), vid(1, 0))

    def test_no_path_forward(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=2)
        assert not dag.path(vid(1, 0), vid(2, 0))

    def test_no_path_when_disconnected(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        # Round 1 vertices from 0,1,2; round 2 vertex of 3 references only 0,1,2's
        # round-1 vertices; vertex (1,3) does not exist, so no path to it.
        build_round(dag, committee4, 1, sources=[0, 1, 2])
        build_round(dag, committee4, 2, sources=[3])
        assert not dag.path(vid(2, 3), vid(1, 3))

    def test_path_missing_descendant(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=1)
        assert not dag.path(vid(5, 0), vid(0, 0))

    def test_causal_history_is_complete_and_sorted(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=4)
        history = dag.causal_history(vid(4, 0))
        rounds = [vertex.round for vertex in history]
        assert rounds == sorted(rounds)
        # Full DAG: 4 genesis + 4 per round for rounds 1..3, plus the root.
        assert len(history) == 4 + 4 * 3 + 1

    def test_causal_history_excludes_given_set(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=4)
        already = {vertex.id for vertex in dag.causal_history(vid(2, 0))}
        fresh = dag.causal_history(vid(4, 0), exclude=source_masks(already))
        assert all(vertex.id not in already for vertex in fresh)
        assert all(vertex.round >= 1 for vertex in fresh)

    def test_causal_history_of_unknown_vertex_raises(self, committee4):
        dag = DagStore(committee4)
        with pytest.raises(DagError):
            dag.causal_history(vid(1, 0))

    def test_iteration_and_rounds(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=2)
        assert {vertex.round for vertex in dag_vertices(dag)} == {0, 1, 2}
        assert [round_number for round_number, _ in dag.held_sources()] == [0, 1, 2]


class TestLookupGuards:
    """Every id lookup reads the round slabs: an id outside the committee
    or below the horizon is absent, never another validator's vertex."""

    @pytest.mark.parametrize("source", [-1, 4])
    def test_a_source_outside_the_committee_is_absent(self, committee4, source):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=3)
        for round_number in range(4):
            stray = vid(round_number, source)
            assert dag.get(stray) is None
            assert stray not in dag
            assert not dag.path(stray, stray)
            assert not dag.path(stray, vid(0, 0))
            if round_number < 3:
                assert not dag.path(vid(3, 0), stray)

    def test_an_edge_to_a_source_outside_the_committee_is_missing(self, committee4):
        # The quorum check would refuse the unknown source first.
        dag = DagStore(committee4, require_edge_quorum=False)
        populate_dag(dag, committee4, rounds=1)
        stray = vid(1, 4)
        vertex = Vertex(id=vid(2, 0), edges=[vid(1, 0), vid(1, 1), vid(1, 2), stray], block=(), digest=b"any")
        assert dag.missing_parents(vertex) == {stray}
        assert dag.add(vertex) is False
        assert vertex.id not in dag and len(dag) == 8

    def test_pruned_rounds_are_absent(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=6)
        dag.garbage_collect(before_round=3)
        for round_number in range(3):
            for source in committee4.validators:
                pruned = vid(round_number, source)
                assert dag.get(pruned) is None
                assert pruned not in dag
                assert not dag.path(pruned, pruned)
                assert not dag.path(pruned, vid(0, 0))
        assert dag.get(vid(3, 0)) is dag.vertex_of(3, 0) is not None


class TestIterationAndLength:
    """``len()`` and iteration (rounds ascending, arrival order within a
    round) follow inserts, parked promotions, stragglers and GC."""

    @staticmethod
    def _tracked(committee4):
        """A DAG with genesis, and the log of every vertex it inserted."""
        dag = DagStore(committee4)
        inserted = []
        dag.on_insert(inserted.append)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        return dag, inserted

    @staticmethod
    def _assert_matches(dag, inserted):
        expected = sorted(
            (vertex for vertex in inserted if vertex.round >= dag.lowest_round or dag.get(vertex.id)),
            key=lambda vertex: vertex.round,
        )
        assert dag_vertices(dag) == expected
        assert len(dag) == len(expected)

    def test_arrival_order_within_a_round(self, committee4):
        dag, inserted = self._tracked(committee4)
        for source in (3, 1, 0, 2):
            dag.add(make_vertex(1, source, edges=[vid(0, s) for s in range(4)]))
        build_round(dag, committee4, 2)
        assert [vertex.source for vertex in dag.vertices_at(1)] == [3, 1, 0, 2]
        self._assert_matches(dag, inserted)

    def test_promotions_stragglers_and_gc(self, committee4):
        dag, inserted = self._tracked(committee4)
        build_round(dag, committee4, 1, sources=[0, 1, 2])
        for round_number in range(2, 5):
            build_round(dag, committee4, round_number)
        # Parked on round-5 parents that never arrive, then promoted by
        # the GC that moves the horizon past them (``reconsider_pending``).
        parked = [make_vertex(6, source, edges=[vid(5, 0), vid(5, 1), vid(5, 2)]) for source in (2, 0)]
        for vertex in parked:
            assert dag.add(vertex) is False
        self._assert_matches(dag, inserted)
        assert dag.garbage_collect(before_round=3) == 4 + 3 + 4
        self._assert_matches(dag, inserted)
        dag.garbage_collect(before_round=6)
        assert [vertex.id for vertex in dag_vertices(dag)] == [vertex.id for vertex in parked]
        self._assert_matches(dag, inserted)
        # A straggler below the horizon is stored until the next sweep.
        straggler = make_vertex(1, 3, edges=[vid(0, s) for s in range(4)])
        assert dag.add(straggler) is True
        assert dag_vertices(dag)[0] is straggler and len(dag) == 3
        self._assert_matches(dag, inserted)
        assert dag.garbage_collect(before_round=6) == 1
        assert len(dag) == 2
        self._assert_matches(dag, inserted)


class TestGarbageCollection:
    def test_gc_removes_old_rounds(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=6)
        removed = dag.garbage_collect(before_round=3)
        assert removed == 4 * 3  # rounds 0, 1, 2
        assert [round_number for round_number, _ in dag.held_sources()] == [3, 4, 5, 6]
        assert dag.lowest_round == 3

    def test_gc_is_idempotent(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=4)
        dag.garbage_collect(before_round=2)
        assert dag.garbage_collect(before_round=2) == 0

    def test_vertices_below_horizon_do_not_block_insertion(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=4)
        dag.garbage_collect(before_round=4)
        # A new vertex referencing pruned round-4 parents... round-5 vertex
        # references round-4 vertices which are still present.
        build_round(dag, committee4, 5)
        # Now prune round 5's parents and insert a round-6 vertex that
        # references them; the GC horizon treats them as present.
        dag.garbage_collect(before_round=5)
        vertex = make_vertex(6, 0, edges=[vid(5, 0), vid(5, 1), vid(5, 2)])
        dag.garbage_collect(before_round=6)
        assert dag.add(vertex) is True

    def test_causal_history_stops_at_gc_horizon(self, committee4):
        dag = DagStore(committee4)
        populate_dag(dag, committee4, rounds=6)
        dag.garbage_collect(before_round=3)
        history = dag.causal_history(vid(6, 0))
        assert all(vertex.round >= 3 for vertex in history)


class TestStragglerCacheInvalidation:
    """Below-horizon insertions invalidate per subtree, not wholesale."""

    def _grown_dag(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        for round_number in range(1, 7):
            build_round(dag, committee4, round_number)
        return dag

    def test_unreachable_straggler_keeps_cache_entries_warm(self, committee4):
        # Round 1 misses validator 3, so no stored edge ever names (1, 3):
        # a late delivery of that vertex reconnects nothing.
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        build_round(dag, committee4, 1, sources=[0, 1, 2])
        for round_number in range(2, 7):
            build_round(dag, committee4, round_number)
        root = dag.vertex_of(6, 0)
        for target in (2, 3, 4, 5):
            dag.path(root.id, vid(target, 0))
        dag.garbage_collect(2)
        warm_before = {
            vertex_id: dict(entry) for vertex_id, entry in dag._reach_cache.items()
        }
        assert warm_before, "the cache should hold entries after GC"
        genesis = [vid(0, source) for source in committee4.validators]
        straggler = make_vertex(1, 3, edges=genesis)
        assert dag.add(straggler) is True
        # Nothing reaches the straggler, so every warm entry survives.
        assert {
            vertex_id: dict(entry) for vertex_id, entry in dag._reach_cache.items()
        } == warm_before

    def test_reachable_straggler_invalidates_only_low_targets(self, committee4):
        dag = self._grown_dag(committee4)
        root = dag.vertex_of(6, 0)
        for target in (2, 3, 4, 5):
            dag.path(root.id, vid(target, 0))
        dag.garbage_collect(3)
        entry_before = dict(dag._reach_cache[root.id])
        assert set(entry_before) >= {3, 4, 5}
        # Re-deliver the pruned (2, 0) vertex: round-3 edges name it, so
        # every vertex above can reach it.
        straggler = make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1), vid(1, 2)])
        assert dag.add(straggler) is True
        entry_after = dag._reach_cache.get(root.id, {})
        # Targets above the straggler's round survive; lower ones are gone.
        assert set(entry_after) >= {3, 4, 5}
        assert all(target > 2 for target in entry_after)

    def test_straggler_results_match_model_after_invalidation(self, committee4):
        """Differential check: cached path() equals the model's search."""
        cached = self._grown_dag(committee4)
        cached.garbage_collect(3)
        # Warm every entry.
        for vertex in dag_vertices(cached):
            for target in range(3, vertex.round):
                cached.path(vertex.id, vid(target, 0))
        # Deliver a straggler below the horizon (state-sync replay).
        straggler = make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1), vid(1, 2)])
        cached.add(straggler)
        # The model holds the same content and searches it afresh.
        model = ReferenceModel(committee4, initial_round=2, slots=committee4.validators)
        for vertex in dag_vertices(cached):
            model.insert(vertex)
        for vertex in dag_vertices(cached):
            for target in range(vertex.round):
                for source in committee4.validators:
                    target_id = vid(target, source)
                    assert cached.path(vertex.id, target_id) == model.path(
                        vertex.id, target_id
                    ), f"path({vertex.id}, {target_id}) diverged from the model"


class TestCausalHistoryWalk:
    def test_history_matches_path_on_a_dag_with_holes(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        for round_number in range(1, 8):
            # Vary participation so the DAG has holes.
            sources = [0, 1, 2] if round_number % 3 == 0 else None
            build_round(dag, committee4, round_number, sources=sources)
        for vertex in dag_vertices(dag):
            reachable = [other for other in dag_vertices(dag) if dag.path(vertex.id, other.id)]
            reachable.sort(key=lambda other: (other.round, other.source))
            assert dag.causal_history(vertex.id) == reachable

    def test_excluded_vertices_stop_the_walk(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        for round_number in range(1, 4):
            build_round(dag, committee4, round_number)
        root = dag.vertex_of(3, 0)
        excluded = {vertex.id for vertex in dag.vertices_at(1)}
        history = dag.causal_history(root.id, exclude=source_masks(excluded))
        assert {vertex.round for vertex in history} == {2, 3}

    def test_history_includes_below_horizon_stragglers(self, committee4):
        """Regression: a stored straggler below the GC horizon is history too."""
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        for round_number in range(1, 7):
            build_round(dag, committee4, round_number)
        dag.garbage_collect(3)
        straggler = make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1), vid(1, 2)])
        assert dag.add(straggler) is True
        root = dag.vertex_of(6, 0)
        assert straggler.id in {vertex.id for vertex in dag.causal_history(root.id)}

    def test_history_ordering_is_round_then_source(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        for round_number in range(1, 5):
            build_round(dag, committee4, round_number)
        root = dag.vertex_of(4, 2)
        history = dag.causal_history(root.id)
        keys = [(vertex.round, vertex.source) for vertex in history]
        assert keys == sorted(keys)
        assert history[-1].id == root.id


class TestHeldSources:
    def test_held_sources_follow_insert_and_gc(self, committee4):
        dag = DagStore(committee4)
        assert dag.held_sources() == ()
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        build_round(dag, committee4, 1, sources=[0, 2, 3])
        parked = make_vertex(3, 1, edges=[vid(2, 0), vid(2, 1), vid(2, 2)])
        assert dag.add(parked) is False
        assert dag.held_sources() == ((0, 0b1111), (1, 0b1101))
        dag.garbage_collect(1)
        assert dag.held_sources() == ((1, 0b1101),)
