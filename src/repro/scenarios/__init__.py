"""Scenario engine: declarative adversarial/network scenario specs.

This package is the layer between "I want to see how the schedule behaves
under X" and the raw experiment harness.  A scenario is *data* — a
:class:`ScenarioSpec` describing committee/load presets, a phased
timeline of fault injections (crash, crash-recovery, slow, and the
behavior-policy adversaries: vote withholding, equivocation, selective
silence, lazy leaders, reputation gaming), network disturbances
(partitions, jitter/loss windows), and a workload shape (constant or
burst) — that serializes to JSON, validates on the way back in, and
hashes to a deterministic ``scenario_digest``.  Timeline instants may
be committee-size-relative expressions resolved per sweep point.

:func:`compile_spec` lowers a spec onto the existing simulation stack
(:class:`~repro.sim.experiment.ExperimentConfig` plus
:class:`~repro.faults.base.FaultPlan` timelines); :func:`run_scenario`
fans the compiled points through the parallel sweep engine and returns a
reproducibility artifact (spec echo + digests + per-point reports).

Command line::

    python -m repro.scenarios list
    python -m repro.scenarios describe sui-incident
    python -m repro.scenarios run sui-incident --output sui.json
    python -m repro.scenarios run mixed-adversary --smoke
    python -m repro.scenarios sweep figure2-faults --seeds 1 2 3
    python -m repro.scenarios matrix --smoke
    python -m repro.scenarios run --spec my_scenario.json

The registry ships twenty curated scenarios: the paper's evaluation
(``faultless``, ``figure2-faults``, ``sui-incident``), environmental
adversity (``rolling-crash-churn``, ``asymmetric-partition``,
``load-spike``, ``mixed-adversary``, ``partition-failover``,
``maintenance-churn+recovery-spike``, ``lossy-recovery``), the
behavior-policy attacks
(``targeted-leader-attack``, ``equivocation-split``, ``silent-saboteur``,
``lazy-leader``, ``reputation-gamer``, ``reputation-gamer-strict``,
``adaptive-equivocation``), and the coalition attacks
(``colluding-silence``, ``adaptive-dos``, ``coalition-gaming``).  The
``examples/`` figure scripts are thin wrappers over the first three;
``python -m repro.scenarios matrix`` runs the attack x scoring-rule
ablation over the curated attack set (:mod:`repro.scenarios.matrix`).
"""

from repro.scenarios.matrix import (
    DEFAULT_MATRIX_ATTACKS,
    format_matrix_table,
    run_matrix,
    summarize_matrix,
)
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    build_artifact,
    default_artifact_path,
    run_scenario,
    write_artifact,
)
from repro.scenarios.spec import (
    CompiledPoint,
    DisturbanceSpec,
    FaultSpec,
    PartitionSpec,
    ScenarioSpec,
    WorkloadSpec,
    compile_spec,
)

__all__ = [
    "ScenarioSpec",
    "FaultSpec",
    "PartitionSpec",
    "DisturbanceSpec",
    "WorkloadSpec",
    "CompiledPoint",
    "compile_spec",
    "register_scenario",
    "scenario_names",
    "get_scenario",
    "all_scenarios",
    "run_scenario",
    "build_artifact",
    "write_artifact",
    "default_artifact_path",
    "run_matrix",
    "summarize_matrix",
    "format_matrix_table",
    "DEFAULT_MATRIX_ATTACKS",
]
