"""Committee-100 smoke differential: arena/bitset tree vs the reference model.

The committee-100/200 scaling work (quorum bitsets, digest interning,
arena vertex storage) is pure optimization — at any committee size the
optimized tree must order exactly what the protocol says.  The property
suite pins that on small random committees; this smoke suite pins it at
the scale the sprint actually targets: a deterministic committee-100 DAG
driven through the production engine and through
``tests/reference_model.py``, plus a full-pipeline determinism check
through ``run_experiment``.

CI runs this file as its own ``committee-100-smoke`` step in the bench
job, so a divergence is reported as its own failure before the perf gate
muddies the water.
"""

import random

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.schedule.round_robin import initial_schedule
from repro.sim.experiment import ExperimentConfig, run_experiment
from tests.conftest import model_mismatches, reference_model_for

COMMITTEE_SIZE = 100
ROUNDS = 10


def build_committee100_dag(seed: int = 7):
    """A deterministic 100-validator DAG with sub-quorum edge variety."""
    committee = Committee.build(COMMITTEE_SIZE)
    rng = random.Random(seed)
    quorum = committee.quorum_threshold
    rounds = [list(genesis_vertices(committee))]
    previous = [vertex.id for vertex in rounds[0]]
    for round_number in range(1, ROUNDS + 1):
        # A handful of validators sit out each round so anchors are
        # sometimes skipped and vote stakes vary.
        absent = set(rng.sample(range(COMMITTEE_SIZE), rng.randint(0, 10)))
        current = []
        for source in range(COMMITTEE_SIZE):
            if source in absent:
                continue
            if rng.random() < 0.5:
                edges = rng.sample(previous, rng.randint(quorum, len(previous)))
            else:
                edges = list(previous)
            current.append(make_vertex(round_number, source, edges=edges))
        rounds.append(current)
        previous = [vertex.id for vertex in current]
    return committee, rounds


def make_engine(committee):
    schedule = initial_schedule(committee, seed=0, permute=False)
    manager = HammerHeadScheduleManager(
        committee, schedule, policy=CommitCountPolicy(2)
    )
    return BullsharkConsensus(
        owner=0,
        committee=committee,
        dag=DagStore(committee),
        schedule_manager=manager,
        record_sequence=True,
    )


def test_committee100_arena_matches_reference_model():
    committee, rounds = build_committee100_dag()
    engine = make_engine(committee)
    model = reference_model_for(engine.schedule_manager)
    engine.dag.on_insert(model.insert)
    for index, round_vertices in enumerate(rounds):
        for vertex in round_vertices:
            engine.dag.add(vertex)
        engine.try_commit()
        model.try_commit()
        if index % 4 == 0:
            # Exercise arena slab recycling mid-stream.
            engine.garbage_collect(keep_rounds=4)
            model.garbage_collect(4)
        assert model_mismatches(engine, model) == [], f"divergence after round {index}"
    assert engine.ordered_count > 0, "smoke DAG must actually order vertices"
    assert engine.schedule_manager.change_records, "smoke DAG must change schedules"
    assert engine.ordered_ids() == model.sequence


def smoke_config(**overrides) -> ExperimentConfig:
    base = dict(
        committee_size=COMMITTEE_SIZE,
        faults=0,
        input_load_tps=2000.0,
        duration=2.0,
        warmup=0.5,
        seed=2,
        commits_per_schedule=10,
        latency_model="geo",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_committee100_full_pipeline_is_deterministic():
    """Two identical committee-100 runs produce one ordering digest."""
    first = run_experiment(smoke_config())
    second = run_experiment(smoke_config())
    assert first.ordering_digests == second.ordering_digests
    count, _ = first.ordering_digests[0]
    assert count > 0


def test_committee100_bounded_tracing_is_digest_neutral():
    """A ring-buffer-bounded trace never perturbs the ordering."""
    plain = run_experiment(smoke_config())
    traced = run_experiment(smoke_config(trace=True, trace_limit=500))
    assert traced.ordering_digests == plain.ordering_digests
    assert len(traced.trace) <= 501  # ring bound + one truncation marker
