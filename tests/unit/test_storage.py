"""Unit tests for the storage substrate: the vertex log and the latest proposal."""

from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.storage.store import PersistentStore
from tests.conftest import build_round, vid


def vertex(round_number, source):
    return make_vertex(round_number, source, edges=[vid(round_number - 1, index) for index in range(3)])


def grown_dag(committee, rounds, sources=None):
    dag = DagStore(committee)
    for item in genesis_vertices(committee):
        dag.add(item)
    for round_number in range(1, rounds + 1):
        build_round(dag, committee, round_number, sources=sources)
    return dag


class TestPersistentStore:
    def test_a_new_store_is_empty(self):
        store = PersistentStore()
        assert store.horizon == 0
        assert store.rounds == {}
        assert store.own_proposal is None
        assert store.replay_order() == []

    def test_a_capture_logs_every_round_of_the_dag_in_source_order(self, committee4):
        dag = DagStore(committee4)
        for item in genesis_vertices(committee4):
            dag.add(item)
        # Arrival order within a round is not source order.
        for item in [vertex(1, 2), vertex(1, 0), vertex(1, 1), vertex(2, 3), vertex(2, 0), vertex(2, 1)]:
            dag.add(item)
        store = PersistentStore()
        store.capture(dag)
        assert store.horizon == 0
        assert sorted(store.rounds) == [0, 1, 2]
        assert [item.id for item in store.rounds[1]] == [vid(1, 0), vid(1, 1), vid(1, 2)]
        assert [item.id for item in store.rounds[2]] == [vid(2, 0), vid(2, 1), vid(2, 3)]

    def test_replay_puts_parents_first(self, committee4):
        dag = grown_dag(committee4, rounds=2, sources=[3, 1, 2])
        store = PersistentStore()
        store.capture(dag)
        assert [item.id for item in store.replay_order()] == [
            vid(0, 0), vid(0, 1), vid(0, 2), vid(0, 3),
            vid(1, 1), vid(1, 2), vid(1, 3), vid(2, 1), vid(2, 2), vid(2, 3),
        ]

    def test_a_capture_starts_at_the_dag_horizon(self, committee4):
        dag = grown_dag(committee4, rounds=6)
        dag.garbage_collect(4)
        store = PersistentStore()
        store.capture(dag)
        assert store.horizon == 4
        assert sorted(store.rounds) == [4, 5, 6]
        assert len(store.replay_order()) == 3 * committee4.size

    def test_a_straggler_below_the_horizon_is_not_logged(self, committee4):
        dag = grown_dag(committee4, rounds=6, sources=[0, 1, 2])
        dag.garbage_collect(5)
        # A round-3 vertex delivered after its round was pruned: the DAG
        # holds it until its next sweep, the log never does.
        dag.add(vertex(3, 3))
        assert dag.get(vid(3, 3)) is not None
        store = PersistentStore()
        store.capture(dag)
        assert sorted(store.rounds) == [5, 6]

    def test_a_capture_replaces_the_previous_log(self, committee4):
        dag = grown_dag(committee4, rounds=3)
        store = PersistentStore()
        store.capture(dag)
        dag.garbage_collect(2)
        build_round(dag, committee4, 4)
        store.capture(dag)
        assert (store.horizon, sorted(store.rounds)) == (2, [2, 3, 4])

    def test_the_own_proposal_is_the_latest_one(self, committee4):
        store = PersistentStore()
        first, second = vertex(1, 2), vertex(2, 2)
        store.own_proposal = first
        store.own_proposal = second
        assert store.own_proposal is second
        # A proposal is not part of the log until a capture finds it in the DAG.
        assert store.rounds == {}
