"""Pools as windows on the arrival columns against the oracles, end to end.

A validator's pool holds no rows: the merged client arrivals open and
extend windows ``[start, stop)`` of ids on the target's column, skip the
rows that arrive while the validator is crashed, and ``take`` slices a
block out of the column.  The oracles hold rows: ``tests/reference_load.py``
fires one event per transaction into a FIFO that drops what arrives at a
crashed target, and ``tests/reference_collector.py`` loops over the
transactions of every block ordered.

A script drives both sides through the whole path on two targets:
clients deliver (18 of them share submission instants pairwise), a
target crashes and recovers mid-run (a window ends at the crash and the
next starts after the gap), clients are retargeted while rows are
pooled (a window keeps its old column across the rebuild), takes cut
windows anywhere (a column drops its prefix under a window only up to
the window), and every block taken is ordered, some twice, on both sides
of a warm-up that the submissions straddle.  Every row taken, every
latency and finality time, and p50, p95, the average and the standard
deviation must be the same float to the last bit (``float.hex``).

Source mutants of ``workload/generator.py`` and
``workload/transactions.py``, loaded by text replacement, must each be
caught by a fixed script.
"""

from collections import deque
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.committed import OrderedVertex
from repro.dag.vertex import make_vertex
from repro.metrics.collector import MetricsCollector
from repro.metrics.execution import ExecutionModel
from repro.network.simulator import Simulator
from repro.workload import generator as generator_module
from repro.workload import transactions as transactions_module
from repro.workload.transactions import Transaction
from tests.conftest import vid
from tests.mutants import load_mutant
from tests.reference_collector import ReferenceCollector
from tests.reference_load import reference_spawn_load

TARGETS = (3, 4)
DURATION = 12.0
LOAD_START = 0.01
FIRST_ORDERING = 1.0


def exact(value):
    """``value`` with every float spelled to the last bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [exact(item) for item in value]
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    return value


class OracleTarget:
    """Where the eager chain delivers: a FIFO of rows that a crash closes."""

    def __init__(self, target_id, simulator):
        self.id = target_id
        self.simulator = simulator
        self.crashed = False
        self.rows = deque()

    def submit_transaction(self, delivered):
        if not self.crashed:
            self.rows.append(delivered)

    def set_crashed(self, crashed):
        # ValidatorNode.crash()/recover(): settle, then flip.
        self.simulator.settle()
        self.crashed = crashed


class WindowTarget:
    """A validator's seams over the ``TransactionPool`` of ``module``."""

    def __init__(self, target_id, simulator, module):
        self.id = target_id
        self.simulator = simulator
        self.crashed = False
        self.transaction_pool = module.TransactionPool(target_id)

    def set_crashed(self, crashed):
        self.simulator.settle()
        if crashed:
            self.transaction_pool.detach()
        self.crashed = crashed


def play(script, generator=generator_module, transactions=transactions_module):
    """Run ``script`` on both sides; returns (production, oracle) observations."""
    load, capacity, warmup, steps = script
    rate, duration, delay = load
    oracle_simulator, simulator = Simulator(seed=0), Simulator(seed=0)
    oracle_targets = [OracleTarget(target, oracle_simulator) for target in TARGETS]
    targets = [WindowTarget(target, simulator, transactions) for target in TARGETS]
    oracle_clients = reference_spawn_load(oracle_simulator, oracle_targets, rate, duration, LOAD_START, delay)
    clients = generator.spawn_load(simulator, targets, rate, duration, LOAD_START, delay)
    collector = MetricsCollector(
        confirmation_delay=0.040,
        warmup=warmup,
        execution=None if capacity is None else ExecutionModel(capacity),
    )
    oracle = ReferenceCollector(confirmation_delay=0.040, warmup=warmup, capacity_tps=capacity)
    # The oracle's ids: one per (client, submission instant), in order of first sight.
    oracle_ids = {}
    taken, expected_taken, sizes, expected_sizes, blocks = [], [], [], [], []
    ids_seen = []
    ordered_at = FIRST_ORDERING

    def order(block, rows):
        nonlocal ordered_at
        ordered_at += 0.125
        blocks.append((block, rows))
        vertex = make_vertex(3, len(blocks) % 4, [vid(2, index) for index in range(3)], block=block)
        collector.on_vertex_ordered(OrderedVertex(vertex, ordered_at, 4, len(blocks)))
        oracle.on_block(rows, ordered_at)

    def take(index, limit):
        pool = targets[index].transaction_pool
        fifo = oracle_targets[index].rows
        rows = [fifo.popleft() for _ in range(min(limit, len(fifo)))]
        expected_taken.append([(client, submitted_at, TARGETS[index]) for client, submitted_at, _ in rows])
        if not pool:
            taken.append([])
            return
        batch = pool.take(limit)
        assert (batch.clients.typecode, batch.submitted_at.typecode) == ("q", "d")
        assert type(batch.ids) is range or batch.ids.typecode == "q"
        ids_seen.extend(batch.ids)
        taken.append([(row.client_id, row.submitted_at, row.target_validator) for row in batch])
        order(batch, [
            Transaction(oracle_ids.setdefault(row[:2], len(oracle_ids)), row[0], row[1], TARGETS[index])
            for row in rows
        ])

    for instant, step in sorted(steps, key=lambda item: item[0]):
        kind = step[0]
        oracle_simulator.run(until=instant)
        simulator.run(until=instant)
        # What arrived by now is in the pools before anything else joins or leaves them.
        simulator.settle()
        if kind == "take":
            take(step[1] % len(TARGETS), step[2])
        elif kind in ("crash", "recover"):
            oracle_targets[step[1] % len(TARGETS)].set_crashed(kind == "crash")
            targets[step[1] % len(TARGETS)].set_crashed(kind == "crash")
        elif kind == "retarget":
            chosen, stride = step[1], step[2]
            for group, chosen_targets in ((oracle_clients, oracle_targets), (clients, targets)):
                for client in group[::stride]:
                    client.set_targets([chosen_targets[index % len(TARGETS)] for index in chosen])
        elif blocks:
            order(*blocks[step[1] % len(blocks)])
        sizes.append([len(target.transaction_pool) for target in targets])
        expected_sizes.append([len(target.rows) for target in oracle_targets])
    # The rest of the run, then one last read of everything.
    oracle_simulator.run()
    simulator.run()
    for index in range(len(TARGETS)):
        take(index, len(oracle_targets[index].rows) + len(targets[index].transaction_pool))
    assert len(set(ids_seen)) == len(ids_seen), "an id was taken twice"
    execution = collector.execution
    latency = collector.latency
    summary = oracle.summary()
    return exact(
        (
            {
                "taken": taken,
                "sizes": sizes,
                "latencies": list(chain.from_iterable(latency.blocks)),
                "finality": list(chain.from_iterable(collector.finality_blocks)),
                "committed": collector.committed,
                "duplicates": collector.duplicate_commits,
                "throughput": collector.throughput(DURATION),
                "busy_until": None if execution is None else execution._busy_until,
                "statistics": [*latency.percentiles(0.50, 0.95), latency.average(), latency.stdev()],
            },
            {
                "taken": expected_taken,
                "sizes": expected_sizes,
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
# ((rate, duration, delay), execution capacity or None, warm-up, [(instant, step)]);
# 6300 tx/s makes 18 clients, and clients 0 and 17 then submit on the same instants.

_targets = st.integers(min_value=0, max_value=1)
_steps = st.one_of(
    st.tuples(st.just("take"), _targets, st.integers(min_value=0, max_value=60)),
    st.tuples(st.sampled_from(["crash", "recover"]), _targets),
    st.tuples(
        st.just("retarget"),
        st.lists(_targets, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(st.just("again"), st.integers(min_value=0, max_value=6)),
)
_scripts = st.tuples(
    st.tuples(
        st.sampled_from([100.0, 350.0, 700.0, 6300.0]),
        st.sampled_from([0.05, 0.1, 0.2, 0.4]),
        st.sampled_from([0.0, 0.040]),
    ),
    st.sampled_from([None, 2.0, 1000.0]),
    st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(min_value=0.0, max_value=0.5)),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.5), _steps), max_size=10),
)


@settings(max_examples=120, deadline=None)
@given(script=_scripts)
def test_windows_leave_what_rows_and_loops_leave(script):
    production, oracle = play(script)
    assert production == oracle


FIXED_SCRIPTS = {
    # Rows pooled before the crash and after the recovery, none between:
    # the last take spans the gap.
    "a-crash-gap-inside-a-take": (
        (700.0, 0.3, 0.040),
        1000.0,
        0.02,
        [(0.08, ("crash", 0)), (0.16, ("recover", 0)), (0.2, ("take", 0, 7)), (0.25, ("take", 0, 200))],
    ),
    # Everything to target 0 from 0.1 on while target 1 still pools from
    # its old column; then target 1's rows go in takes that cut its window.
    "retargeted-while-pooled": (
        (6300.0, 0.2, 0.0),
        2.0,
        0.0,
        [(0.1, ("retarget", [0], 1)), (0.15, ("take", 1, 30)), (0.18, ("take", 1, 400)), (0.3, ("again", 0))],
    ),
    # Small takes from 0.05 on: a window is cut at every take while the
    # column delivers far past half of itself and drops what was taken.
    "takes-that-cut-windows-while-columns-drop": (
        (350.0, 0.4, 0.040),
        None,
        0.1,
        [(0.05 + 0.03 * step, ("take", step, 9)) for step in range(12)],
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED_SCRIPTS))
def test_fixed_scripts_agree(name):
    production, oracle = play(FIXED_SCRIPTS[name])
    assert oracle["committed"] > 0, "the script commits nothing"
    assert production == oracle


# -- source mutants --------------------------------------------------------------------------------

SOURCE_MUTANTS = {
    "rows-pooled-while-the-target-is-crashed": (
        generator_module, [("            elif not target.crashed:\n", "            else:\n")],
    ),
    "a-prefix-dropped-under-a-window": (
        generator_module, [("keep = end if oldest is None else min(end, oldest - first_id)", "keep = end")],
    ),
    "a-rebuild-cuts-pooled-rows": (
        generator_module,
        [("low = column.position if oldest is None else oldest - column.first_id", "low = column.position")],
    ),
    "a-cut-window-keeps-its-taken-rows": (transactions_module, [("window[1] = stop", "window[1] = start")]),
}


def _agree(script, modules):
    try:
        production, oracle = play(script, **modules)
    except (AssertionError, ValueError):
        # An id taken twice, or a block's columns cut short by a row read past its column.
        return False
    return production == oracle


def _modules(module, replacements):
    """``play``'s keyword for ``module`` loaded with ``replacements``."""
    mutant = load_mutant(module, replacements)
    if module is generator_module:
        return {"generator": mutant}
    # Only the pool is the mutant's: its blocks hold the transactions the collector knows.
    mutant.Transaction = transactions_module.Transaction
    mutant.TransactionBatch = transactions_module.TransactionBatch
    return {"transactions": mutant}


@pytest.mark.parametrize("mutant", sorted(SOURCE_MUTANTS))
def test_fixed_scripts_kill_the_source_mutant(mutant):
    module, replacements = SOURCE_MUTANTS[mutant]
    killed = [
        name for name, script in sorted(FIXED_SCRIPTS.items()) if not _agree(script, _modules(module, replacements))
    ]
    assert killed, f"{mutant} survives every fixed script"
    # ... and the unmutated source, loaded the same way, survives them all.
    for script in FIXED_SCRIPTS.values():
        assert _agree(script, _modules(module, []))
