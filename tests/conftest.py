"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence

import pytest

from repro.behavior import HONEST
from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.netexec.codec import split_frames
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.node.synchronizer import Synchronizer
from repro.schedule.round_robin import initial_schedule
from repro.types import Round, ValidatorId, VertexId
from tests.doubles import UniformLatencyModel
from tests.reference_model import ReferenceModel


def decode_frames(buffer: bytes):
    """``(values, remainder)``: every complete frame in ``buffer`` decoded,
    and the trailing partial frame (possibly empty)."""
    values: List = []
    consumed = split_frames(buffer, values.append)
    return tuple(values), buffer[consumed:]


@pytest.fixture
def committee4() -> Committee:
    """A minimal committee tolerating one fault (n=4, f=1)."""
    return Committee.build(4)


@pytest.fixture
def committee7() -> Committee:
    """A committee of seven validators (f=2)."""
    return Committee.build(7)


@pytest.fixture
def committee10() -> Committee:
    """The smallest committee size used in the paper's evaluation."""
    return Committee.build(10)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator(seed=7)


@pytest.fixture
def network(simulator) -> Network:
    return Network(simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.0))


# -- DAG construction helpers -------------------------------------------------------


def build_round(
    dag: DagStore,
    committee: Committee,
    round_number: Round,
    sources: Optional[Iterable[ValidatorId]] = None,
    parent_sources: Optional[Dict[ValidatorId, Iterable[ValidatorId]]] = None,
) -> List[Vertex]:
    """Add one full round of vertices to ``dag``.

    ``sources`` selects which validators produce a vertex (default: all).
    ``parent_sources`` optionally restricts, per source, which previous
    round vertices are referenced (default: every vertex of the previous
    round currently in the DAG).
    """
    chosen = list(sources) if sources is not None else list(committee.validators)
    previous = {vertex.source: vertex.id for vertex in dag.vertices_at(round_number - 1)}
    created = []
    for source in chosen:
        if parent_sources is not None and source in parent_sources:
            parents = [previous[parent] for parent in parent_sources[source] if parent in previous]
        else:
            parents = list(previous.values())
        vertex = make_vertex(round_number, source, edges=parents)
        dag.add(vertex)
        created.append(vertex)
    return created


def populate_dag(
    dag: DagStore,
    committee: Committee,
    rounds: int,
    sources: Optional[Sequence[ValidatorId]] = None,
) -> None:
    """Fill ``dag`` with ``rounds`` full rounds on top of genesis."""
    for vertex in genesis_vertices(committee):
        dag.add(vertex)
    for round_number in range(1, rounds + 1):
        build_round(dag, committee, round_number, sources=sources)


def make_consensus(
    committee: Committee,
    dynamic: bool = False,
    commits_per_schedule: int = 10,
    seed: int = 0,
) -> BullsharkConsensus:
    """A consensus engine over a fresh DAG with genesis inserted."""
    dag = DagStore(committee)
    for vertex in genesis_vertices(committee):
        dag.add(vertex)
    schedule = initial_schedule(committee, seed=seed, permute=False)
    if dynamic:
        from repro.core.schedule_change import CommitCountPolicy

        manager = HammerHeadScheduleManager(
            committee, schedule, policy=CommitCountPolicy(commits_per_schedule)
        )
    else:
        manager = StaticScheduleManager(committee, schedule)
    return BullsharkConsensus(
        owner=0,
        committee=committee,
        dag=dag,
        schedule_manager=manager,
    )


def drive_rounds(
    consensus: BullsharkConsensus,
    committee: Committee,
    rounds: int,
    sources: Optional[Sequence[ValidatorId]] = None,
) -> None:
    """Grow the consensus engine's DAG round by round, processing commits."""
    dag = consensus.dag
    for round_number in range(1, rounds + 1):
        for vertex in build_round(dag, committee, round_number, sources=sources):
            consensus.process_vertex(vertex)


def vid(round_number: Round, source: ValidatorId) -> VertexId:
    """Shorthand vertex-id constructor for tests."""
    return VertexId(round=round_number, source=source)


def bare_synchronizer(committee: Committee, dag: DagStore, owner: ValidatorId = 0) -> Synchronizer:
    """A synchronizer over ``dag`` alone: no validator, consensus or GC around it.

    Its node is a stand-in holding only what a synchronizer reads, and
    its network a fresh simulated one; tests replace ``network.send`` to
    capture what it sends.
    """
    network = Network(Simulator(seed=1), latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.0))
    node = SimpleNamespace(
        id=owner,
        committee=committee,
        network=network,
        dag=dag,
        behavior=HONEST,
        consensus_snapshot=lambda: None,
    )
    return Synchronizer(node, retry_interval=1.0)


# -- reference-model comparison -------------------------------------------------------


def reference_model_for(manager) -> ReferenceModel:
    """A reference model starting from ``manager``'s initial schedule.

    The protocol parameters (commit-count epoch length, exclude fraction)
    are read off the production manager; everything the model computes from
    them is its own.
    """
    initial = manager.history[0]
    if isinstance(manager, HammerHeadScheduleManager):
        return ReferenceModel(
            manager.committee,
            initial.initial_round,
            initial.slots,
            commits_per_schedule=manager.policy.commits,
            exclude_fraction=manager.exclude_fraction,
        )
    return ReferenceModel(manager.committee, initial.initial_round, initial.slots)


def record_insert_log(node) -> List[Vertex]:
    """The arrival-ordered insert log of ``node``'s DAG, filled as it runs.

    The log is put ahead of the node's own insertion callback: that
    callback can commit, prune and thereby promote parked vertices before
    it returns, and a callback registered behind it would see those nested
    insertions first.  Attach before the run starts.
    """
    log: List[Vertex] = []
    node.dag.replace_insert_callbacks([log.append, node._on_vertex_inserted])
    return log


def model_mismatches(consensus: BullsharkConsensus, model: ReferenceModel) -> List[str]:
    """Where ``consensus`` (and its schedule manager) disagree with ``model``."""
    manager = consensus.schedule_manager
    produced = {
        "ordering_digest": consensus.ordering_digest,
        "ordered_count": consensus.ordered_count,
        "last_ordered_anchor_round": consensus.last_ordered_anchor_round,
        "commit_count": consensus.commit_count,
        "schedules": [(s.epoch, s.initial_round, s.slots) for s in manager.history],
        "schedule_changes": [
            {
                "epoch": record.epoch,
                "triggered_by_round": record.triggered_by_round,
                "new_initial_round": record.new_initial_round,
                "scores": record.scores,
                "demoted_slots": record.demoted_slots,
            }
            for record in getattr(manager, "change_records", ())
        ],
    }
    expected = {
        "ordering_digest": model.ordering_digest,
        "ordered_count": model.ordered_count,
        "last_ordered_anchor_round": model.last_ordered_anchor_round,
        "commit_count": model.commit_count,
        "schedules": [
            (epoch, initial_round, slots)
            for epoch, (initial_round, slots) in enumerate(model.schedules)
        ],
        "schedule_changes": model.schedule_changes,
    }
    return [
        f"{key}: production {produced[key]!r} != model {expected[key]!r}"
        for key in produced
        if produced[key] != expected[key]
    ]
