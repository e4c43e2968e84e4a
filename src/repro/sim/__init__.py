"""Simulation harness: experiment configuration, runner, and sweeps."""

from repro.sim.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.sim.presets import (
    execution_capacity_for,
    node_config_for,
)
from repro.sim.runner import SimulationRunner

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "SimulationRunner",
    "node_config_for",
    "execution_capacity_for",
]
