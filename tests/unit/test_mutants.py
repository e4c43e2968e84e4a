"""The source-mutant loader every mutant test goes through (tests/mutants.py)."""

import importlib.util
import sys
import textwrap

import pytest

from tests.mutants import load_mutant

SOURCE = textwrap.dedent(
    '''
    import dataclasses

    LIMIT = 3
    loads = []
    loads.append(LIMIT)

    def over(value):
        return value > LIMIT

    def clamp(value):
        return min(value, LIMIT)

    @dataclasses.dataclass
    class Box:
        size: int = LIMIT
    '''
)


@pytest.fixture
def module(tmp_path):
    """A small production-like module imported from its own file."""
    path = tmp_path / "limits.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("limits", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def test_an_empty_list_loads_the_intact_source(module):
    intact = load_mutant(module, [])
    assert intact.LIMIT == module.LIMIT
    assert [intact.over(value) for value in range(6)] == [module.over(value) for value in range(6)]
    assert intact.Box() == intact.Box(size=3)


def test_the_imported_module_is_left_untouched(module):
    mutant = load_mutant(module, [("value > LIMIT", "value >= LIMIT")])
    assert mutant.over(3) is True
    assert module.over(3) is False
    assert mutant is not module and mutant.over is not module.over


def test_each_load_is_a_fresh_module(module):
    first = load_mutant(module, [])
    second = load_mutant(module, [])
    first.loads.append("first only")
    assert second.loads == [3]
    assert module.loads == [3]


def test_the_mutant_is_named_after_its_module_and_not_left_registered(module):
    mutant = load_mutant(module, [])
    assert mutant.__name__ == "limits_mutant"
    assert "limits_mutant" not in sys.modules


@pytest.mark.parametrize(
    "entry, found, expected",
    [
        (("value >= LIMIT", "value > LIMIT"), 0, 1),
        (("LIMIT", "BOUND"), 5, 1),
        (("min(value, LIMIT)", "value", 2), 1, 2),
    ],
    ids=["no-longer-occurs", "occurs-more-often", "occurs-less-often"],
)
def test_an_original_that_does_not_occur_as_declared_fails_loudly(module, entry, found, expected):
    with pytest.raises(AssertionError, match=f"occurs {found} times in limits, not {expected}"):
        load_mutant(module, [entry])


def test_a_declared_count_replaces_every_occurrence(module):
    mutant = load_mutant(module, [("LIMIT", "BOUND", 5)])
    assert not hasattr(mutant, "LIMIT")
    assert mutant.BOUND == 3
    assert mutant.clamp(7) == 3
    assert mutant.Box().size == 3


def test_entries_apply_in_order_and_count_against_the_edited_source(module):
    mutant = load_mutant(
        module,
        [
            ("return min(value, LIMIT)", "return min(value, LIMIT + LIMIT)"),
            # The first entry made a sixth occurrence.
            ("LIMIT", "CAP", 6),
            ("CAP = 3", "CAP = 10"),
        ],
    )
    assert mutant.clamp(25) == 20
    assert mutant.over(10) is False


def test_a_dataclass_in_the_mutant_is_built_from_the_edited_source(module):
    mutant = load_mutant(module, [("size: int = LIMIT", "size: int = LIMIT * 2")])
    assert mutant.Box().size == 6
    assert mutant.Box.__module__ == "limits_mutant"
    assert module.Box().size == 3


@pytest.mark.parametrize(
    "entry, error",
    [
        (("def over(value):", "def over(value)"), SyntaxError),
        (("loads.append(LIMIT)", "loads.append(UNDEFINED)"), NameError),
    ],
    ids=["does-not-compile", "raises-while-loading"],
)
def test_a_mutant_that_fails_to_load_leaves_no_module_registered(module, entry, error):
    with pytest.raises(error):
        load_mutant(module, [entry])
    assert "limits_mutant" not in sys.modules


def test_code_in_the_mutant_names_the_production_file(module):
    mutant = load_mutant(module, [("value > LIMIT", "value >= LIMIT")])
    assert mutant.over.__code__.co_filename == module.__file__
