"""Source mutants: a production module loaded again with its text edited.

A mutant test removes one check from the *source* of a module and asserts
that its suite notices.  :func:`load_mutant` is the one loader: it reads
the module's file, applies each replacement in order and executes the
result as a fresh module, leaving the imported module untouched.
"""

import sys
import types
from pathlib import Path


def load_mutant(module, replacements):
    """``module`` re-executed from its source with ``replacements`` applied.

    Each entry is ``(original, replacement)`` or ``(original, replacement,
    count)``: ``original`` must occur exactly ``count`` times (default 1)
    in the source as edited so far, and every occurrence is replaced.  A
    rewording of the production line therefore fails the mutant's test
    loudly instead of letting it load the unmutated source.  An empty
    list loads the intact source the same way.
    """
    source = Path(module.__file__).read_text()
    for original, replacement, *count in replacements:
        expected = count[0] if count else 1
        found = source.count(original)
        assert found == expected, (
            f"{original!r} occurs {found} times in {module.__name__}, not {expected}"
        )
        source = source.replace(original, replacement)
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__file__ = module.__file__
    # dataclasses looks the defining module up while the class body runs.
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source, module.__file__, "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant
