"""What a run keeps at rest and what it peaks at, in bytes, by ``tracemalloc``.

A validator persists only the vertex log above its GC horizon and its
latest own proposal, the broadcast layer drops a payload once it
certifies, and the generator drops the arrivals it delivered.  So once
ordered, a transaction is held in two 8-byte ``array`` cells only, the
collector's finality time and latency sample; everything else live after
a run is bounded by the GC window (vertices and their blocks) or grows
with rounds, not transactions (the per-round broadcast and consensus
tables, the capped process-wide memos).  A committee of four at 1000 tx/s
runs for 20 and for 40 sim-s, and:

* what ``metrics/`` holds at rest is the two cells and their blocks'
  slack: a column that becomes a ``list`` again costs 24-32 B more;
* what all of ``repro`` holds grows, between the two runs, by the two
  cells and the per-round tables, not by a vertex per proposal or a
  generator schedule kept whole (96 B per transaction while every vertex
  stayed persisted and every arrival scheduled);
* the peak above what stays at rest is the percentile selection's probe
  and windows; a boxed sort of the latency samples costs ~36 B per sample.

At committee 25 the DAG layer is measured on its own: every validator
stores every vertex of the GC window, and all of them share one object
per vertex.  What ``dag/store.py`` holds is then per (validator x stored
vertex): a slab cell, an arrival-list cell, the round tables and the
reachability memo, ~33 B (86 B while a second index keyed every vertex
by id).  What ``dag/vertex.py`` holds is per distinct vertex: the object,
its ascending edge tuple and the interned id and digest, ~520 B (2.4 KB
while the edges were a frozenset).
"""

import gc
import tracemalloc
from pathlib import Path

import repro
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner
from tests.doubles import dag_vertices

PACKAGE = Path(repro.__file__).parent
# Per transaction: two cells and block slack; growth of everything in the
# package between the two runs; peak above rest.
METRICS_AT_REST = 20
GROWTH = 40
PEAK_ABOVE_REST = 16


# Per (validator x stored vertex) in dag/store.py; per distinct vertex in
# dag/vertex.py, at committee 25.
STORE_PER_STORED_VERTEX = 48
VERTEX_PER_DISTINCT_VERTEX = 800


def measure(duration):
    """(submitted, bytes at rest in metrics/, in all of repro, traced peak)."""
    config = ExperimentConfig(committee_size=4, input_load_tps=1000.0, duration=duration, warmup=2.0, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        runner = SimulationRunner(config)
        result = runner.run()
        gc.collect()
        _, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    def live(pattern):
        traces = snapshot.filter_traces([tracemalloc.Filter(True, str(PACKAGE / pattern))])
        return sum(statistic.size for statistic in traces.statistics("filename"))

    assert result.report.committed_transactions >= 0.8 * result.report.submitted_transactions
    return result.report.submitted_transactions, live("metrics/*"), live("*"), peak


def test_memory_at_rest_is_the_gc_window_and_two_cells_a_transaction():
    short, long = measure(20.0), measure(40.0)
    assert short[0] >= 19_000 and long[0] >= 39_000
    for submitted, metrics, _, _ in (short, long):
        assert metrics / submitted <= METRICS_AT_REST, f"{metrics / submitted:.1f} B per transaction in metrics/"
    growth = (long[2] - short[2]) / (long[0] - short[0])
    assert growth <= GROWTH, f"{growth:.1f} B per extra transaction at rest"
    for submitted, _, at_rest, peak in (short, long):
        assert (peak - at_rest) / submitted <= PEAK_ABOVE_REST, f"{(peak - at_rest) / submitted:.1f} B per transaction above rest"


def test_the_dag_holds_each_vertex_once_at_committee_25():
    config = ExperimentConfig(committee_size=25, input_load_tps=200.0, duration=6.0, warmup=1.0, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        runner = SimulationRunner(config)
        runner.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    def live(name):
        traces = snapshot.filter_traces([tracemalloc.Filter(True, str(PACKAGE / "dag" / name))])
        return sum(statistic.size for statistic in traces.statistics("filename"))

    dags = [node.dag for node in runner.nodes.values()]
    stored = sum(len(dag) for dag in dags)
    distinct = len({vertex.id for dag in dags for vertex in dag_vertices(dag)})
    assert distinct >= 10 * 25 and stored >= 20 * distinct
    per_stored = live("store.py") / stored
    assert per_stored <= STORE_PER_STORED_VERTEX, f"{per_stored:.1f} B per stored vertex in dag/store.py"
    per_distinct = live("vertex.py") / distinct
    assert per_distinct <= VERTEX_PER_DISTINCT_VERTEX, f"{per_distinct:.1f} B per distinct vertex in dag/vertex.py"
