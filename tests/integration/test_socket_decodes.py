"""A socket run decodes each vertex once, however many validators receive it.

The run is ``sockets-c7``'s smoke shape (committee 4, 8 lockstep rounds,
no client load, Unix domain sockets, no loss), with
``codec._build_vertex`` (the decode that recomputes a vertex's digest)
counted.  Every validator receives every vertex in a proposal and again
in a certificate, itself included; the transport's ``VertexMemo`` hands
each of them the vertex the first receiver's decode accepted, so the
count is one per distinct ``(id, digest)``: 32 for 32 here, against 128
when each receiving link end decoded its own copy.
"""

import collections

import repro.netexec.codec as codec
from repro.netexec.runner import run_net_experiment
from repro.sim.experiment import ExperimentConfig


def test_each_vertex_is_built_once_per_run(monkeypatch):
    built = collections.Counter()
    build_vertex = codec._build_vertex

    def counted(fields):
        vertex = build_vertex(fields)
        built[vertex.id, vertex.digest] += 1
        return vertex

    monkeypatch.setattr(codec, "_build_vertex", counted)
    config = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=8.0, warmup=0.0, seed=2)
    result = run_net_experiment(config, family="uds")
    assert result.report.commits > 0
    assert len(built) == 32, len(built)
    assert set(built.values()) == {1}, built.most_common(3)
