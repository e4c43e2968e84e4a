"""HammerHead: Leader Reputation for Dynamic Scheduling — Python reproduction.

This package reproduces the system described in "HammerHead: Leader
Reputation for Dynamic Scheduling" (Tsimos, Kichidis, Sonnino,
Kokoris-Kogias; ICDCS 2024).  It contains:

* a discrete-event simulation substrate (network, storage, crypto);
* a Narwhal-style DAG mempool and the Bullshark consensus protocol;
* the HammerHead reputation-based dynamic leader schedule (the paper's
  contribution) and the static round-robin baseline;
* fault injection, workload generation, and metrics;
* an experiment harness regenerating every figure of the paper's
  evaluation;
* a scenario engine (:mod:`repro.scenarios`): declarative, serializable
  adversarial/network scenario specs, a registry of curated scenarios,
  and a CLI runner.

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        protocol="hammerhead",
        committee_size=10,
        faults=3,
        input_load_tps=500,
        duration=20.0,
    ))
    print(result.report.throughput_tps, result.report.avg_latency_s)

Scenarios (see :mod:`repro.scenarios` for the full catalogue)::

    python -m repro.scenarios list
    python -m repro.scenarios run sui-incident

    from repro import get_scenario, run_scenario
    artifact = run_scenario(get_scenario("mixed-adversary").smoke())
"""

from repro.lazy import lazy_exports

# The public names, by the module that defines them.  A name is imported
# at first use, so a run loads only the layers it executes: building a
# simulation never compiles the scenario engine or the adversary stack.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.committee": ("Committee", "equal_stake", "geometric_stake"),
    "repro.core": (
        "CarouselScoring",
        "CommitCountPolicy",
        "HammerHeadScheduleManager",
        "HammerHeadScoring",
        "ReputationScores",
        "ShoalScoring",
        "StaticScheduleManager",
        "compute_next_schedule",
    ),
    "repro.consensus": ("BullsharkConsensus", "CommittedSubDag", "OrderedVertex"),
    "repro.dag": ("DagStore", "Vertex", "genesis_vertices", "make_vertex"),
    "repro.metrics": (
        "ExecutionModel",
        "LatencyStats",
        "LeaderUtilizationStats",
        "MetricsCollector",
        "PerformanceReport",
        "format_table",
    ),
    "repro.network": (
        "GeoLatencyModel",
        "Network",
        "PartialSynchrony",
        "Simulator",
        "UniformLatencyModel",
    ),
    "repro.node": ("NodeConfig", "ValidatorNode"),
    "repro.schedule": ("LeaderSchedule", "initial_schedule"),
    "repro.sim": ("ExperimentConfig", "ExperimentResult", "SimulationRunner", "run_experiment"),
    "repro.workload": ("LoadGenerator", "LoadPhase", "Transaction", "spawn_load", "spawn_phased_load"),
    "repro.scenarios": ("ScenarioSpec", "compile_spec", "get_scenario", "run_scenario", "scenario_names"),
})

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # Committee / stake
    "Committee",
    "equal_stake",
    "geometric_stake",
    # Core (HammerHead)
    "ReputationScores",
    "HammerHeadScoring",
    "ShoalScoring",
    "CarouselScoring",
    "CommitCountPolicy",
    "compute_next_schedule",
    "HammerHeadScheduleManager",
    "StaticScheduleManager",
    # DAG / consensus
    "DagStore",
    "Vertex",
    "make_vertex",
    "genesis_vertices",
    "BullsharkConsensus",
    "CommittedSubDag",
    "OrderedVertex",
    # Schedules
    "LeaderSchedule",
    "initial_schedule",
    # Network / simulation substrate
    "Simulator",
    "Network",
    "GeoLatencyModel",
    "UniformLatencyModel",
    "PartialSynchrony",
    # Node
    "NodeConfig",
    "ValidatorNode",
    # Workload
    "Transaction",
    "LoadGenerator",
    "spawn_load",
    "LoadPhase",
    "spawn_phased_load",
    # Metrics
    "MetricsCollector",
    "ExecutionModel",
    "LatencyStats",
    "LeaderUtilizationStats",
    "PerformanceReport",
    "format_table",
    # Experiments
    "ExperimentConfig",
    "ExperimentResult",
    "SimulationRunner",
    "run_experiment",
    # Scenarios
    "ScenarioSpec",
    "compile_spec",
    "get_scenario",
    "run_scenario",
    "scenario_names",
]
