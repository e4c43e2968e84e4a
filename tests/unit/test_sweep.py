"""Tests for the parallel sweep engine."""

from __future__ import annotations

import warnings
from concurrent.futures import process
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError

import pytest

from repro.sim.experiment import ExperimentConfig
from repro.sim.sweep import (
    PARALLELISM_ENV,
    SweepEngine,
    default_parallelism,
    run_sweep,
)
from tests.doubles import FlatNetwork


def tiny_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        committee_size=4,
        input_load_tps=100.0,
        duration=6.0,
        warmup=1.0,
        min_round_interval=0.10,
        leader_timeout=1.0,
        seed=8,
        extra_faults=(FlatNetwork(),),
    )
    return base.with_overrides(**overrides)


class TestSweepEngine:
    def test_results_in_input_order(self):
        loads = [150.0, 50.0, 100.0]
        configs = [tiny_config(input_load_tps=load) for load in loads]
        results = SweepEngine(parallelism=2).run(configs)
        assert [result.config.input_load_tps for result in results] == loads

    def test_parallel_equals_serial(self):
        configs = [
            tiny_config(protocol=protocol, input_load_tps=load, faults=1, fault_time=2.0)
            for protocol in ("hammerhead", "bullshark")
            for load in (80.0, 160.0)
        ]
        serial = SweepEngine(parallelism=1).run(configs)
        # A serial fallback would compare the serial path with itself:
        # the batch must really cross worker processes.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            parallel = SweepEngine(parallelism=2).run(configs)
        for serial_result, parallel_result in zip(serial, parallel):
            assert serial_result.ordering_digests == parallel_result.ordering_digests
            assert serial_result.report.throughput_tps == parallel_result.report.throughput_tps
            assert serial_result.report.avg_latency_s == parallel_result.report.avg_latency_s
            assert serial_result.report.schedule_changes == parallel_result.report.schedule_changes
            assert serial_result.crashed_validators == parallel_result.crashed_validators
        assert all(result.crashed_validators for result in serial)
        assert any(result.report.schedule_changes for result in serial)

    def test_empty_batch(self):
        assert SweepEngine(parallelism=4).run([]) == []

    def test_unpicklable_config_falls_back_to_serial(self):
        class Unpicklable:
            at_time = 0.0
            validators = ()

            def __reduce__(self):
                raise TypeError("not picklable")

            def schedule(self, simulator, network, nodes):
                return None

        configs = [tiny_config(extra_faults=(FlatNetwork(), Unpicklable())) for _ in range(2)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = SweepEngine(parallelism=2).run(configs)
        assert len(results) == 2
        assert any("fell back to serial" in str(warning.message) for warning in caught)

    @pytest.mark.parametrize("error", [PicklingError, BrokenProcessPool, OSError], ids=lambda error: error.__name__)
    def test_a_pool_that_cannot_run_falls_back_to_serial_with_a_warning(self, monkeypatch, error):
        """The warning ``test_parallel_equals_serial`` turns into an error
        is the one every pool failure raises."""

        def failing_pool(max_workers):
            raise error("no worker processes here")

        monkeypatch.setattr(process, "ProcessPoolExecutor", failing_pool)
        configs = [tiny_config(input_load_tps=load) for load in (80.0, 160.0)]
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            results = SweepEngine(parallelism=2).run(configs)
        serial = SweepEngine(parallelism=1).run(configs)
        assert [one.ordering_digests for one in results] == [one.ordering_digests for one in serial]

    def test_experiment_errors_propagate_without_serial_rerun(self):
        """A failure inside run_experiment is not misread as a pool failure."""
        from repro.errors import ConfigurationError

        bad = tiny_config().with_overrides(faults=3)  # n=4 tolerates f=1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConfigurationError):
                SweepEngine(parallelism=2).run([tiny_config(), bad])
        assert not any("fell back to serial" in str(w.message) for w in caught)

    def test_default_parallelism_env_override(self, monkeypatch):
        monkeypatch.setenv(PARALLELISM_ENV, "3")
        assert default_parallelism() == 3
        monkeypatch.setenv(PARALLELISM_ENV, "zero")
        with pytest.raises(ValueError):
            default_parallelism()


class TestSweepHelpers:
    def test_run_sweep_matches_individual_runs(self):
        from repro.sim.experiment import run_experiment

        config = tiny_config(input_load_tps=90.0)
        direct = run_experiment(config)
        swept = run_sweep([config], parallelism=1)[0]
        assert direct.ordering_digests == swept.ordering_digests
