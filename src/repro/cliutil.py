"""Shared exit contract for every ``python -m repro.*`` entry point.

Both CLIs (``repro.scenarios``, ``repro.obs``) promise the same thing
to callers and CI:

- exit 0 on success,
- exit 1 when the command itself reports findings/mismatches,
- exit 2 on operational errors (:class:`ReproError`, filesystem
  trouble) with a single ``error: ...`` line on **stderr** and nothing
  on stdout — never a traceback,
- exit 0 on ``BrokenPipeError`` (a downstream pager/``head`` closing
  the pipe is not an error).

The clause order below is load-bearing: ``BrokenPipeError`` subclasses
``OSError``, so it must be caught first or a closed pipe would exit 2.
This helper replaced hand-rolled copies that had started to drift.
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.errors import ReproError

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def run_guarded(handler: Callable[[], int]) -> int:
    """Run a CLI command handler under the shared exit contract."""
    try:
        return handler()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_OK
    except OSError as error:
        print(f"error: {_describe_os_error(error)}", file=sys.stderr)
        return EXIT_ERROR


def _describe_os_error(error: OSError) -> str:
    """``str(error)`` plus errno/address context when it adds anything.

    Net-backend connection failures must be actionable from the one
    stderr line: which errno, which socket address.  ``str(OSError)``
    already embeds ``[Errno N]`` when the error was built from an errno
    pair, so context is appended only when missing — existing messages
    (and the tests pinning them) are unchanged.
    """
    message = str(error)
    details = []
    if error.errno is not None and f"[Errno {error.errno}]" not in message:
        details.append(f"errno {error.errno}")
    filename = error.filename
    if filename is not None and str(filename) not in message:
        details.append(f"address: {filename}")
    if details:
        return f"{message} ({', '.join(details)})"
    return message
