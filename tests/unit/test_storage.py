"""Unit tests for the storage substrate: the vertex log and the latest proposal."""

from repro.dag.vertex import genesis_vertices, make_vertex
from repro.storage.store import PersistentStore
from tests.conftest import vid


def vertex(round_number, source):
    return make_vertex(round_number, source, edges=[vid(round_number - 1, index) for index in range(3)])


class TestPersistentStore:
    def test_a_new_store_is_empty(self):
        store = PersistentStore()
        assert store.horizon == 0
        assert store.rounds == {}
        assert store.own_proposal is None
        assert store.replay_order() == []

    def test_vertices_are_logged_per_round_in_insertion_order(self):
        store = PersistentStore()
        logged = [vertex(2, 3), vertex(1, 2), vertex(2, 0), vertex(1, 0)]
        for item in logged:
            store.persist(item)
        assert [item.id for item in store.rounds[1]] == [vid(1, 2), vid(1, 0)]
        assert [item.id for item in store.rounds[2]] == [vid(2, 3), vid(2, 0)]

    def test_replay_puts_parents_first(self, committee4):
        store = PersistentStore()
        for item in [vertex(2, 3), vertex(1, 2), vertex(2, 0), vertex(1, 0), *genesis_vertices(committee4)]:
            store.persist(item)
        assert [item.id for item in store.replay_order()] == [
            vid(0, 0), vid(0, 1), vid(0, 2), vid(0, 3), vid(1, 0), vid(1, 2), vid(2, 0), vid(2, 3)
        ]

    def test_prune_drops_the_rounds_below_the_horizon(self):
        store = PersistentStore()
        for round_number in range(1, 7):
            store.persist(vertex(round_number, 0))
        store.prune(4)
        assert store.horizon == 4
        assert sorted(store.rounds) == [4, 5, 6]
        # The horizon never moves back.
        store.prune(2)
        assert store.horizon == 4
        assert sorted(store.rounds) == [4, 5, 6]

    def test_a_straggler_below_the_horizon_is_not_logged(self):
        store = PersistentStore()
        store.prune(5)
        store.persist(vertex(3, 1))
        store.persist(vertex(5, 1))
        assert [item.id for item in store.replay_order()] == [vid(5, 1)]

    def test_the_own_proposal_is_the_latest_one(self):
        store = PersistentStore()
        first, second = vertex(1, 2), vertex(2, 2)
        store.own_proposal = first
        store.own_proposal = second
        assert store.own_proposal is second
        # A proposal is not part of the log until it is inserted.
        assert store.rounds == {}
