"""Package exports imported on first use (PEP 562).

A package that lists its public names in ``__all__`` but builds them in
submodules a run may never execute (the scenario engine, the adversary
policies) passes a module -> names table to :func:`lazy_exports` and
binds the two functions it returns as its ``__getattr__`` and
``__dir__``.  ``from package import name``, ``package.name`` and
``import *`` then import the defining module at first use and cache the
name in the package.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, modules: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` exporting ``modules``' names."""
    where = {name: module for module, names in modules.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
