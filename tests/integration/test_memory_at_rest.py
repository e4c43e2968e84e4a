"""What a transaction costs at rest, in bytes, by the layer that allocated it.

After a run every transaction is still held several times over: in the
generator's merged schedule, in the block of the vertex that carried it
(each validator persists its own proposals), and in the collector's
finality times and latency samples.  As typed columns that is nine
8-byte cells, 72 B; as lists of boxed numbers it was ~200 B.  The bound
is on size, so this fails where a column quietly becomes a ``list``
again, however fast that list is.
"""

import gc
import tracemalloc
from pathlib import Path

import repro
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner

# Nine cells and the slack ``array`` keeps when it grows by appending.
BYTES_PER_TRANSACTION = 80


def test_a_transaction_at_rest_is_a_few_typed_cells():
    config = ExperimentConfig(committee_size=4, input_load_tps=1000.0, duration=20.0, warmup=2.0, seed=3)
    package = Path(repro.__file__).parent
    layers = [tracemalloc.Filter(True, str(package / layer / "*")) for layer in ("workload", "metrics")]
    tracemalloc.start()
    try:
        runner = SimulationRunner(config)
        result = runner.run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    submitted = result.report.submitted_transactions
    assert submitted >= 19_000 and result.report.committed_transactions >= 15_000
    live = sum(statistic.size for statistic in snapshot.filter_traces(layers).statistics("filename"))
    assert live / submitted <= BYTES_PER_TRANSACTION, f"{live / submitted:.1f} B per transaction at rest"
