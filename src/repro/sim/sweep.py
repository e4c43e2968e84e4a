"""Parameter sweeps: a batch of experiments, possibly in parallel.

The examples, the figure benchmarks and the scenario engine build the
series plotted in Figures 1 and 2 of the paper as one batch of
configurations (one per system, committee size and input load) and hand
it to :func:`run_sweep`.

Sweeps are embarrassingly parallel — every experiment is an independent,
deterministic discrete-event simulation whose outcome depends only on its
:class:`ExperimentConfig` (including its seed) — so the
:class:`SweepEngine` fans a batch of configurations out over a
``ProcessPoolExecutor``:

* ``parallelism`` selects the worker count.  The default comes from the
  ``REPRO_SWEEP_PARALLELISM`` environment variable, falling back to the
  machine's CPU count; ``1`` runs serially in-process.
* Results are returned **in input order** regardless of which worker
  finishes first, so callers can zip them against their configurations.
* Results are identical whether a sweep runs serially or in parallel
  (determinism is per-experiment), which the test suite checks.
* If worker processes cannot be used (unpicklable fault plans in a
  config, restricted environments), the engine degrades to the serial
  path instead of failing the sweep.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import List, Optional, Sequence

from repro.sim.experiment import ExperimentConfig, ExperimentResult, run_experiment

# Environment knob for the default sweep parallelism.
PARALLELISM_ENV = "REPRO_SWEEP_PARALLELISM"


def default_parallelism() -> int:
    """Worker count used when a sweep does not specify one explicitly."""
    value = os.environ.get(PARALLELISM_ENV, "").strip()
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            raise ValueError(
                f"{PARALLELISM_ENV} must be a positive integer, got {value!r}"
            ) from None
    return max(1, os.cpu_count() or 1)


def _run_config(config: ExperimentConfig) -> ExperimentResult:
    """Worker entry point (module-level so it pickles under ``spawn``)."""
    return run_experiment(config)


class SweepEngine:
    """Runs batches of independent experiments, possibly in parallel."""

    def __init__(self, parallelism: Optional[int] = None) -> None:
        self.parallelism = default_parallelism() if parallelism is None else max(1, parallelism)

    def run(self, configs: Sequence[ExperimentConfig]) -> List[ExperimentResult]:
        """Run every configuration and return results in input order."""
        configs = list(configs)
        if not configs:
            return []
        workers = min(self.parallelism, len(configs))
        if workers <= 1:
            return [run_experiment(config) for config in configs]
        # Pre-flight: configs must survive the trip to a worker process.
        # Checking up front (rather than catching TypeError and friends
        # around pool.map) keeps the fallback from swallowing genuine
        # experiment failures — an exception raised *inside*
        # run_experiment propagates with completed results discarded only
        # once, exactly like the serial path.
        try:
            pickle.dumps(configs)
        except Exception as error:
            warnings.warn(
                f"parallel sweep fell back to serial execution "
                f"(configs are not picklable): {error!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return [run_experiment(config) for config in configs]
        # Imported where a pool is made: ~1 MB and ~10 ms that a serial run,
        # like every other importer of the package, does not pay.
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # ``map`` preserves input order; chunksize 1 keeps the
                # longest-running point from serializing a whole chunk
                # behind it.
                return list(pool.map(_run_config, configs, chunksize=1))
        except (pickle.PicklingError, BrokenProcessPool, OSError) as error:
            # Worker processes are an optimization, never a requirement:
            # environments without process support (or unpicklable
            # *results*) fall back to the exact serial semantics.  Genuine
            # experiment failures (e.g. a ConfigurationError) are *not*
            # caught here and propagate.
            warnings.warn(
                f"parallel sweep fell back to serial execution: {error!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return [run_experiment(config) for config in configs]


def run_sweep(
    configs: Sequence[ExperimentConfig], parallelism: Optional[int] = None
) -> List[ExperimentResult]:
    """Run a batch of experiments with a :class:`SweepEngine`."""
    return SweepEngine(parallelism=parallelism).run(configs)
