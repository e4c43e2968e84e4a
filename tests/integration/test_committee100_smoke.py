"""Committee-100 smoke differential: arena/bitset tree vs the reference model.

The committee-100/200 scaling work (quorum bitsets, digest interning,
arena vertex storage) is pure optimization — at any committee size the
optimized tree must order exactly what the protocol says.  The property
suite pins that on small random committees; this smoke suite pins it at
the scale the sprint actually targets: a deterministic committee-100 DAG
driven through the production engine and through
``tests/reference_model.py``, plus the observer's ordering pinned for the
full pipeline at committees 25, 50, 100 and 200.
"""

import random

import pytest

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.schedule.round_robin import initial_schedule
from repro.sim.experiment import ExperimentConfig, run_experiment
from tests.conftest import model_mismatches, reference_model_for
from tests.doubles import OrderRecorder

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
    )


def test_committee100_arena_matches_reference_model():
    committee, rounds = build_committee100_dag()
    engine = make_engine(committee)
    order = OrderRecorder(engine)
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
    assert order.ids() == model.sequence


def smoke_config(**overrides) -> ExperimentConfig:
    base = dict(
        committee_size=COMMITTEE_SIZE,
        faults=0,
        input_load_tps=2000.0,
        duration=2.0,
        warmup=0.5,
        seed=2,
        commits_per_schedule=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Faultless, 4000 tx/s, seed 2, geo latency, a schedule change every 10
# commits; the duration shrinks as the committee grows.  Per committee:
# (duration, warmup, ordered_count, ordering_digest of the observer).
COMMITTEE_STAGES = {
    25: (20.0, 5.0, 1051, "f31a77b95be1c6923e83d43754cca94d45a56911101d7dcb045d4992e5947721"),
    50: (10.0, 2.5, 1001, "ed561b22acdea10864ba7f665dc3e8d0746e886ccfe2f02b727cf198f2a7097b"),
    100: (5.0, 1.0, 801, "6e239ae9c737b21dac2c8eb3c424a044bf169cf62dc95bd0f3bb80427d9f26b2"),
    200: (2.0, 0.5, 401, "ba56ece34976be943c47aaf839ecc1e06caf97916ac7f716ea1a6ff5b4be2f87"),
}


@pytest.mark.parametrize("committee_size", sorted(COMMITTEE_STAGES))
def test_committee_stage_orders_its_pinned_history(committee_size):
    duration, warmup, count, digest = COMMITTEE_STAGES[committee_size]
    config = smoke_config(
        committee_size=committee_size,
        input_load_tps=4000.0,
        duration=duration,
        warmup=warmup,
    )
    result = run_experiment(config)
    assert tuple(result.ordering_digests[config.observer]) == (count, digest)


def test_committee100_bounded_tracing_is_digest_neutral():
    """A ring-buffer-bounded trace never perturbs the ordering."""
    plain = run_experiment(smoke_config())
    traced = run_experiment(smoke_config(trace=True, trace_limit=500))
    assert traced.ordering_digests == plain.ordering_digests
    assert len(traced.trace) <= 501  # ring bound + one truncation marker
