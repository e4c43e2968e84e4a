"""Run compiled scenarios and assemble reproducibility artifacts.

A scenario run fans its compiled points (and, for sweeps, all requested
seeds) through the :class:`~repro.sim.sweep.SweepEngine` as one batch, so
multi-core hosts overlap every experiment.  The outcome is an *artifact*:
a plain-JSON document echoing the full spec, its deterministic
``scenario_digest``, and — per point — the performance report and the
observer's ordering digest.  Two artifact files with equal digests were
produced by the same scenario definition; equal ordering digests mean the
runs ordered identical transaction sequences.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.scenarios.spec import CompiledPoint, ScenarioSpec, compile_spec
from repro.sim.experiment import ExperimentResult
from repro.sim.sweep import SweepEngine

ARTIFACT_VERSION = 1

# Execution backends for `run`:
#   sim      — the free-running discrete-event simulation (the default,
#              and the digest lineage every recorded baseline pins);
#   lockstep — the content-deterministic lockstep mode on the simulator
#              (the cross-validation oracle, repro.netexec.lockstep);
#   net      — the same lockstep mode over real asyncio sockets
#              (repro.netexec.runner).
# Lockstep-family digests are a different (deliberately time-free)
# lineage from plain sim digests; `lockstep` and `net` must match each
# other byte for byte, which the CI cross-backend-smoke job enforces.
BACKENDS = ("sim", "lockstep", "net")


def run_scenario(
    spec: ScenarioSpec,
    seeds: Optional[Sequence[int]] = None,
    parallelism: Optional[int] = None,
    trace_path: Optional[str] = None,
    backend: str = "sim",
) -> Dict[str, Any]:
    """Run every point of ``spec`` (per seed) and return the artifact.

    ``seeds`` defaults to the spec's own seed; passing several fans the
    whole (committee x protocol x load x seed) product through the sweep
    engine as a single batch.

    ``trace_path`` enables the deterministic tracer on every point and
    writes the combined event stream as JSONL (one file, each event
    tagged with its point label and seed).  Tracing is digest-neutral:
    the artifact is byte-identical with or without it.  On the ``net``
    backend the stamps are monotonic wall-clock times — diagnostics
    only, never digest-bearing.

    ``backend`` selects the execution engine (see :data:`BACKENDS`).
    The lockstep-family backends run their points serially: ``net``
    owns the process event loop, and the oracle is cheap at the small
    scales cross-validation targets.
    """
    if backend not in BACKENDS:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    run_seeds = list(seeds) if seeds else [spec.seed]
    points: List[CompiledPoint] = []
    for seed in run_seeds:
        points.extend(compile_spec(spec, seed=seed))
    configs = [point.config for point in points]
    if trace_path is not None:
        configs = [config.with_overrides(trace=True) for config in configs]
    if backend == "sim":
        results = SweepEngine(parallelism=parallelism).run(configs)
    elif backend == "lockstep":
        from repro.netexec.lockstep import run_lockstep_experiment

        results = [run_lockstep_experiment(config) for config in configs]
    else:
        from repro.netexec.runner import run_net_experiment

        results = [run_net_experiment(config) for config in configs]
    artifact = build_artifact(spec, run_seeds, points, results)
    artifact["backend"] = backend
    if trace_path is not None:
        write_trace(trace_path, artifact, results)
    return artifact


def build_artifact(
    spec: ScenarioSpec,
    seeds: Sequence[int],
    points: Sequence[CompiledPoint],
    results: Sequence[ExperimentResult],
) -> Dict[str, Any]:
    """Assemble the reproducibility artifact for a finished run."""
    artifact_points = []
    # With a scoring_rules sweep axis, the config label alone no longer
    # identifies a point; suffix the rule so artifact diffing and the
    # bench gate keep a unique per-point key.
    label_needs_rule = bool(spec.scoring_rules)
    for point, result in zip(points, results):
        observer = result.config.observer
        ordered_count, ordering_digest = result.ordering_digests[observer]
        label = result.config.label()
        if label_needs_rule:
            label = f"{label} [{result.config.scoring}]"
        artifact_points.append(
            {
                "committee_size": point.committee_size,
                "protocol": point.protocol,
                "load": point.load,
                "scoring": point.scoring,
                "seed": result.config.seed,
                "label": label,
                "report": result.report.as_dict(),
                "ordering_digest": ordering_digest,
                "ordered_count": ordered_count,
                # Periodic (count, digest) snapshots of the observer's
                # rolling ordering digest: the committed-prefix chain
                # `scenarios diff --prefix` compares when two artifacts
                # legitimately diverge (e.g. two scoring rules).
                "ordering_checkpoints": [
                    list(checkpoint)
                    for checkpoint in result.ordering_checkpoints.get(observer, ())
                ],
                "schedule_changes": result.report.schedule_changes,
                "crashed_validators": list(result.crashed_validators),
                # Reputation-reaction summary (observer's schedule history):
                # score trajectory per change, rounds-until-demotion and
                # leader-slot share of the fault-affected validators.
                "reputation": result.reputation,
                # Instrumentation snapshot (repro.obs).  The memo block
                # reports process-wide caches, so its numbers depend on
                # what else ran in the worker process; `scenarios diff`
                # and the bench gate compare digests/reports only and
                # ignore this key.
                "counters": result.counters,
            }
        )
    return {
        "artifact_version": ARTIFACT_VERSION,
        "scenario": spec.to_dict(),
        "scenario_digest": spec.scenario_digest(),
        "seeds": list(seeds),
        "points": artifact_points,
    }


def write_trace(
    path: str,
    artifact: Dict[str, Any],
    results: Sequence[ExperimentResult],
) -> str:
    """Write the per-point trace streams as one JSONL file.

    Each event is tagged with the artifact point's label and seed, so
    ``repro.obs timeline``/``explain`` can select a point out of a
    multi-point scenario.  Point order matches the artifact.
    """
    from repro.obs.trace import write_events

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for point, result in zip(artifact["points"], results):
            write_events(handle, result.trace, point=point["label"], seed=point["seed"])
    return path


def write_artifact(artifact: Dict[str, Any], path: str) -> str:
    """Write ``artifact`` as pretty-printed JSON; returns the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def default_artifact_path(spec: ScenarioSpec, suffix: str = "") -> str:
    """``scenario-<name>[<suffix>].json`` in the current directory."""
    return f"scenario-{spec.name}{suffix}.json"
