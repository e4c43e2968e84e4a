"""Typed columns against the list-and-loop oracles, end to end.

Since PR 24 every per-transaction column is a stdlib ``array`` — ``'q'``
for ids and clients, ``'d'`` for instants — from the generator's merged
schedule through the validator's pool and a vertex's block to the
collector's finality times and latency samples.  The oracles keep lists
of boxed numbers: ``tests/reference_load.py`` fires one event per
transaction, ``tests/reference_collector.py`` loops over transactions.

A script drives both sides through the whole path: clients deliver to
one pool (18 of them share submission instants pairwise), the pool is
also fed hand-built batches (ids next to ±2**63, duplicates of ids the
clients use, columns given as lists, tuples, iterators or arrays) and
single rows, it is read with limits that cut across the batches it was
extended by, and what it hands over is ordered — next to foreign blocks
and repeats — on both sides of a warm-up that the submissions straddle.
Every row taken, every latency and finality time, and p50, p95, the
average and the standard deviation must be the same float to the last
bit (compared as ``float.hex``).

Three source mutants of ``workload/transactions.py``, loaded by text
replacement, must each be caught by a fixed script: instants kept in
single precision, ids in 32 bits, and a ``take`` that hands out the
pool's own columns and deletes nothing.
"""

from array import array
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.committed import OrderedVertex
from repro.dag.vertex import make_vertex
from repro.errors import WorkloadError
from repro.metrics.collector import MetricsCollector
from repro.metrics.execution import ExecutionModel
from repro.network.simulator import Simulator
from repro.workload import transactions as transactions_module
from repro.workload.generator import spawn_load
from repro.workload.transactions import Transaction
from tests.conftest import vid
from tests.mutants import load_mutant
from tests.reference_collector import ReferenceCollector
from tests.reference_load import reference_spawn_load

TARGET = 3
DURATION = 12.0
# Clients submit within [0.01, 0.45]; nothing is ordered before 1.0.
LOAD_START = 0.01
FIRST_ORDERING = 1.0
TOP = 2**63 - 1


def exact(value):
    """``value`` with every float spelled to the last bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [exact(item) for item in value]
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    return value


class OraclePool:
    """Where the eager chain delivers: a FIFO of rows, in arrival order."""

    id = TARGET

    def __init__(self):
        self.rows = deque()
        self.arrived = 0

    def submit_transaction(self, delivered):
        # One build of the merged schedule, one target: ids are arrival indices.
        client, submitted_at, _ = delivered
        self.rows.append(Transaction(self.arrived, client, submitted_at, TARGET))
        self.arrived += 1


class ProductionPool:
    """A validator's batch seam over the ``TransactionBatch`` of ``module``."""

    id = TARGET

    def __init__(self, module):
        self.module = module
        self.pool = module.TransactionBatch(TARGET)

    def submit_transactions(self, batch):
        # Rebuilt from plain lists: the coercion every construction makes.
        self.pool.extend(
            self.module.TransactionBatch(TARGET, list(batch.ids), list(batch.clients), list(batch.submitted_at))
        )


CONTAINERS = {
    "list": lambda typecode, values: list(values),
    "tuple": lambda typecode, values: tuple(values),
    "iterator": lambda typecode, values: iter(values),
    # Of the column's own type: kept as it is, not copied.
    "array": array,
    # Eight bytes an item as well, but another type (where there is one): copied.
    "long-array": lambda typecode, values: array(typecode.replace("q", "l"), values),
}


def play(script, module=transactions_module):
    """Run ``script`` on both sides; returns (production, oracle) observations."""
    load, capacity, warmup, steps = script
    oracle_simulator, simulator = Simulator(seed=0), Simulator(seed=0)
    fifo = OraclePool()
    production_pool = ProductionPool(module)
    pool = production_pool.pool
    if load is not None:
        rate, duration, delay = load
        # Nothing is due while the clients start: the merged schedule is built once.
        reference_spawn_load(oracle_simulator, [fifo], rate, duration, LOAD_START, delay)
        spawn_load(simulator, [production_pool], rate, duration, LOAD_START, delay)
    collector = MetricsCollector(
        confirmation_delay=0.040,
        warmup=warmup,
        execution=None if capacity is None else ExecutionModel(capacity),
    )
    oracle = ReferenceCollector(confirmation_delay=0.040, warmup=warmup, capacity_tps=capacity)
    taken, expected_taken, blocks = [], [], []
    ordered_at = FIRST_ORDERING

    def order(block, rows):
        nonlocal ordered_at
        ordered_at += 0.125
        blocks.append((block, rows))
        vertex = make_vertex(3, len(blocks) % 4, [vid(2, index) for index in range(3)], block=block)
        collector.on_vertex_ordered(OrderedVertex(vertex, ordered_at, 4, len(blocks)))
        oracle.on_block(rows, ordered_at)

    for instant, step in sorted(steps, key=lambda item: item[0]):
        kind = step[0]
        oracle_simulator.run(until=instant)
        simulator.run(until=instant)
        # What arrived by now is in the pool before anything else joins or leaves it.
        simulator.settle()
        if kind == "take":
            batch = pool.take(step[1])
            rows = [fifo.rows.popleft() for _ in range(min(step[1], len(fifo.rows)))]
            taken.append(list(batch))
            expected_taken.append(rows)
            assert batch.sealed and len({len(batch.ids), len(batch.clients), len(batch.submitted_at)}) == 1
            # The collector reads a real batch by its columns, any other block row by row.
            order(batch if module is transactions_module else tuple(Transaction(*row) for row in batch), rows)
        elif kind == "extend":
            _, containers, rows = step
            rows = [Transaction(min(tx_id, TOP), client, submitted_at, TARGET) for tx_id, client, submitted_at in rows]
            columns = [
                CONTAINERS[container](typecode, [row[field] for row in rows])
                for field, (container, typecode) in enumerate(zip(containers, "qqd"))
            ]
            pool.extend(module.TransactionBatch(TARGET, *columns))
            fifo.rows.extend(rows)
        elif kind == "append":
            row = Transaction(*step[1], TARGET)
            pool.append(module.Transaction(*row))
            fifo.rows.append(row)
        elif kind == "foreign":
            block = [Transaction(item[0], 9, item[1], TARGET) if isinstance(item, tuple) else item for item in step[1]]
            order(tuple(block), block)
        elif blocks:
            order(*blocks[step[1] % len(blocks)])
    # The rest of the run, then one last read of everything.
    oracle_simulator.run()
    simulator.run()
    taken.append(list(pool.take(len(pool))))
    expected_taken.append(list(fifo.rows))
    order(tuple(Transaction(*row) for row in taken[-1]), expected_taken[-1])
    execution = collector.execution
    latency = collector.latency
    summary = oracle.summary()
    return exact(
        (
            {
                "taken": taken,
                "left": len(pool),
                "latencies": list(latency._samples),
                "finality": list(collector._finality_times),
                "committed": collector.committed,
                "duplicates": collector.duplicate_commits,
                "throughput": collector.throughput(DURATION),
                "busy_until": None if execution is None else execution._busy_until,
                "statistics": [*latency.percentiles(0.50, 0.95), latency.average(), latency.stdev()],
            },
            {
                "taken": expected_taken,
                "left": 0,
                "latencies": oracle.latencies,
                "finality": oracle.finality_times,
                "committed": oracle.committed,
                "duplicates": oracle.duplicate_commits,
                "throughput": oracle.throughput(DURATION),
                "busy_until": None if capacity is None else oracle.busy_until,
                "statistics": [summary["p50"], summary["p95"], summary["avg"], summary["stdev"]],
            },
        )
    )


# -- scripts ---------------------------------------------------------------------------------------
#
# (load or None, execution capacity or None, warm-up, [(instant, step)]);
# load is (rate, duration, delay): 6300 tx/s makes 18 clients, and clients
# 0 and 17 then submit on the same instants.

_times = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 1 / 3]), st.floats(min_value=0.0, max_value=0.5))
# Ids the clients use too, ids at both ends of 64 bits, ids 32 bits cannot hold.
_ids = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=-(2**63), max_value=-(2**63) + 8),
    st.integers(min_value=2**63 - 9, max_value=TOP),
    st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**53 + 1]),
)
_rows = st.one_of(
    st.lists(st.tuples(_ids, st.integers(min_value=0, max_value=2**40), _times), max_size=8),
    # A run of consecutive ids, cut off at the top (where it then repeats one).
    st.builds(
        lambda first, times: [(first + index, index, time) for index, time in enumerate(times)],
        _ids,
        st.lists(_times, max_size=8),
    ),
)
_steps = st.one_of(
    st.tuples(st.just("take"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("extend"), st.tuples(*[st.sampled_from(sorted(CONTAINERS))] * 3), _rows),
    st.tuples(st.just("append"), st.tuples(_ids, st.integers(min_value=0, max_value=5), _times)),
    st.tuples(
        st.just("foreign"),
        st.lists(st.one_of(st.tuples(_ids, _times), st.sampled_from(["opaque", 17, None])), max_size=6),
    ),
    st.tuples(st.just("again"), st.integers(min_value=0, max_value=6)),
)
_scripts = st.tuples(
    st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from([100.0, 350.0, 700.0, 6300.0]),
            st.sampled_from([0.05, 0.1, 0.2]),
            st.sampled_from([0.0, 0.040]),
        ),
    ),
    st.sampled_from([None, 2.0, 1000.0]),
    st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(min_value=0.0, max_value=0.5)),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5), _steps), max_size=8),
)


@settings(max_examples=120, deadline=None)
@given(script=_scripts)
def test_typed_columns_leave_what_lists_and_loops_leave(script):
    production, oracle = play(script)
    assert production == oracle


FIXED_SCRIPTS = {
    "paired-clients-read-across-deliveries": (
        (6300.0, 0.05, 0.040),
        1000.0,
        0.02,
        [(0.055, ("take", 7)), (0.07, ("take", 40)), (0.08, ("take", 3)), (0.3, ("again", 1))],
    ),
    "both-ends-of-64-bits": (
        None,
        None,
        0.1,
        [
            (0.0, ("extend", ("list", "tuple", "iterator"), [(-(2**63) + index, index, 0.1 * index) for index in range(4)])),
            (0.1, ("extend", ("array", "long-array", "array"), [(TOP - 2 + index, 2**40, 1 / 3) for index in range(5)])),
            (0.2, ("take", 6)),
            (0.3, ("append", (2**31, 1, 0.25))),
            (0.4, ("foreign", [(TOP, 0.3), "opaque", (-(2**63), 0.05), (TOP - 1, 0.3)])),
        ],
    ),
    "a-pool-read-twice": (
        (350.0, 0.1, 0.0),
        2.0,
        0.0,
        [(0.02, ("take", 4)), (0.05, ("extend", ("list", "list", "list"), [(3, 0, 0.01), (900, 0, 0.02)])), (0.08, ("take", 9))],
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED_SCRIPTS))
def test_fixed_scripts_agree(name):
    production, oracle = play(FIXED_SCRIPTS[name])
    assert oracle["committed"] > 0, "the script commits nothing"
    assert production == oracle


# -- source mutants --------------------------------------------------------------------------------

SOURCE_MUTANTS = {
    "instants-in-single-precision": [('"d"', '"f"', 3)],
    "ids-in-32-bits": [('"q"', '"i"', 5)],
    "take-hands-out-the-pools-own-columns": [
        (
            "self.target, self.ids[:limit], self.clients[:limit], self.submitted_at[:limit], sealed=True",
            "self.target, self.ids, self.clients, self.submitted_at, sealed=True",
        ),
        ("        del self.ids[:limit], self.clients[:limit], self.submitted_at[:limit]\n", ""),
    ],
}


def _agree(script, module):
    try:
        production, oracle = play(script, module)
    except WorkloadError:
        # A value the oracle's lists hold and the mutant's columns refuse.
        return False
    return production["taken"] == oracle["taken"]


@pytest.mark.parametrize("mutant", sorted(SOURCE_MUTANTS))
def test_fixed_scripts_kill_the_source_mutant(mutant):
    module = load_mutant(transactions_module, SOURCE_MUTANTS[mutant])
    killed = [name for name, script in sorted(FIXED_SCRIPTS.items()) if not _agree(script, module)]
    assert killed, f"{mutant} survives every fixed script"
    # ... and the unmutated source, loaded the same way, survives them all.
    intact = load_mutant(transactions_module, [])
    for script in FIXED_SCRIPTS.values():
        assert _agree(script, intact)
