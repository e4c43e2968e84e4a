"""What a run imports: only the layers it executes.

``repro``, ``repro.faults`` and ``repro.behavior`` export their names
through a module-level ``__getattr__`` (``repro.lazy``), so importing a
runner compiles neither the scenario engine nor the adversary stack.
The first test looks from a fresh interpreter, where nothing else has
imported those modules yet; the rest hold the facades' public surface.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.behavior
import repro.faults

SRC = Path(repro.__file__).parent.parent

# Modules a simulated or socket run never executes.
NOT_RUN = (
    "repro.scenarios",
    "repro.sim.sweep",
    "repro.behavior.adversarial",
    "repro.behavior.coordination",
    "repro.faults.behavior",
    "repro.faults.slow",
)
FACADES = [repro, repro.faults, repro.behavior]


def test_a_run_imports_none_of_the_layers_it_does_not_execute():
    code = "import sys, repro.sim.runner, repro.netexec.runner; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "repro.netexec.runner" in loaded
    unexpected = [
        name for name in loaded
        if any(name == module or name.startswith(module + ".") for module in NOT_RUN)
    ]
    assert unexpected == []


@pytest.mark.parametrize("package", FACADES, ids=lambda package: package.__name__)
def test_every_exported_name_resolves_and_is_listed(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package", FACADES, ids=lambda package: package.__name__)
def test_an_unknown_name_raises_attribute_error_naming_it(package):
    with pytest.raises(AttributeError, match="no_such_export"):
        _ = package.no_such_export
    with pytest.raises(ImportError, match="no_such_export"):
        exec(f"from {package.__name__} import no_such_export", {})


def test_star_import_binds_the_exports_of_the_defining_modules():
    namespace = {}
    exec("from repro import *", namespace)
    from repro.scenarios import run_scenario
    from repro.sim.runner import SimulationRunner

    assert namespace["SimulationRunner"] is SimulationRunner
    assert namespace["run_scenario"] is run_scenario
    assert set(repro.__all__) <= set(namespace)
