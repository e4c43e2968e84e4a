"""Static checks of the reachability ledger (``tests/reachability.py``).

The ledger's own run takes minutes: every workload, scenario and CLI
command under a profile hook, then tier-1 under ``cProfile``.  These
checks need no run: how the ledger keys a function (the key a profiled
code object must find), and that every waiver names a function that still
exists in ``src/repro`` and gives a reason of a known kind.
"""

import ast
import json
import os
import runpy
import sys
import textwrap
from pathlib import Path

import pytest

from repro.scenarios import scenario_names
from tests import reachability


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """Write ``source`` as ``repro/module.py`` of a scratch source tree and
    return ``(path, where, lines)`` as the ledger reads that tree."""

    def build(source):
        (tmp_path / "repro").mkdir()
        path = tmp_path / "repro" / "module.py"
        path.write_text(textwrap.dedent(source))
        monkeypatch.setattr(reachability, "SRC", str(tmp_path))
        where, lines = reachability.defined()
        return os.path.realpath(path), where, lines

    return build


@pytest.fixture(scope="module")
def waivers():
    with open(reachability.WAIVERS, encoding="utf-8") as handle:
        return json.load(handle)


class TestFunctionKeys:
    def test_functions_and_methods_are_named_by_their_qualified_name(self, tree):
        path, where, _ = tree(
            """\
            def top():
                pass

            class Outer:
                def method(self):
                    pass

                class Inner:
                    def deep(self):
                        pass
            """
        )
        assert where == {
            (path, 1): "repro/module.py:top",
            (path, 5): "repro/module.py:Outer.method",
            (path, 9): "repro/module.py:Outer.Inner.deep",
        }

    def test_nested_functions_are_named_under_locals(self, tree):
        path, where, _ = tree(
            """\
            def outer():
                def inner():
                    pass
                return inner
            """
        )
        assert where[(path, 2)] == "repro/module.py:outer.<locals>.inner"

    def test_every_key_is_the_site_of_the_code_object_the_profiler_sees(self, tree):
        path, where, _ = tree(
            """\
            def keep(function):
                return function

            class Holder:
                @keep
                @staticmethod
                def decorated():
                    pass

                @property
                def value(self):
                    return 1

            async def waiting():
                pass
            """
        )
        namespace = runpy.run_path(path)
        holder = namespace["Holder"]
        codes = {
            "repro/module.py:keep": namespace["keep"].__code__,
            "repro/module.py:Holder.decorated": holder.decorated.__code__,
            "repro/module.py:Holder.value": holder.value.fget.__code__,
            "repro/module.py:waiting": namespace["waiting"].__code__,
        }
        for key, code in codes.items():
            assert where[(os.path.realpath(code.co_filename), code.co_firstlineno)] == key

    def test_line_counts_start_at_the_first_decorator_and_sum_same_named_definitions(self, tree):
        _, _, lines = tree(
            """\
            class Box:
                @property
                def size(self):
                    return self._size

                @size.setter
                def size(self, value):
                    self._size = value
            """
        )
        assert lines == {"repro/module.py:Box.size": 3 + 3}


class TestWaivers:
    def test_every_waiver_names_a_function_in_src(self, waivers):
        where, _ = reachability.defined()
        assert sorted(set(waivers) - set(where.values())) == []

    def test_every_reason_starts_with_a_kind(self, waivers):
        assert [key for key, why in waivers.items() if not why.startswith(reachability.KINDS)] == []

    def test_full_scale_waivers_name_a_registered_scenario(self, waivers):
        scenarios = {
            why[len("full-scale:"):].split()[0]
            for why in waivers.values()
            if why.startswith("full-scale:")
        }
        assert scenarios
        assert scenarios <= set(scenario_names())

    def test_the_ledger_imports_only_the_standard_library_at_module_level(self):
        module = ast.parse(Path(reachability.__file__).read_text())
        imported = {
            alias.name.split(".")[0]
            for node in module.body
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        imported |= {node.module.split(".")[0] for node in module.body if isinstance(node, ast.ImportFrom)}
        assert imported and imported <= sys.stdlib_module_names
