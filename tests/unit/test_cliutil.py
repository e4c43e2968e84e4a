"""The shared CLI guard: one exception-to-exit-code mapping for every CLI.

The ordering of the except clauses is load-bearing —
``BrokenPipeError`` subclasses ``OSError``, so catching ``OSError``
first would turn a closed pager into exit 2.  These tests pin the
contract the scenario and obs CLIs both inherit.
"""

import pytest

from repro.cliutil import EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, run_guarded
from repro.errors import ReproError


class TestRunGuarded:
    def test_success_passes_through_return_value(self):
        assert run_guarded(lambda: EXIT_OK) == EXIT_OK
        assert run_guarded(lambda: EXIT_FINDINGS) == EXIT_FINDINGS

    def test_repro_error_exits_2_with_stderr_line(self, capsys):
        def handler():
            raise ReproError("the spec is broken")

        assert run_guarded(handler) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the spec is broken\n"

    def test_broken_pipe_is_not_an_error(self, capsys):
        def handler():
            raise BrokenPipeError()

        assert run_guarded(handler) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_os_error_exits_2_with_stderr_line(self, capsys):
        def handler():
            raise OSError("disk on fire")

        assert run_guarded(handler) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "disk on fire" in captured.err

    def test_broken_pipe_precedence_over_oserror(self, capsys):
        """The subclass must win even though OSError is also caught."""
        assert issubclass(BrokenPipeError, OSError)

        def handler():
            raise BrokenPipeError("downstream closed")

        assert run_guarded(handler) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_os_error_appends_errno_context_when_missing(self, capsys):
        """The asyncio-error shape: errno set, but not rendered by str().

        ``OSError.__str__`` only embeds ``[Errno N]`` when ``strerror``
        or ``filename`` is populated; errors carrying a bare message
        plus an errno attribute (timeouts, some asyncio failures) used
        to lose the errno on the way to stderr.
        """
        import errno

        def handler():
            error = OSError("cannot connect to validator 3 within 5.0s")
            error.errno = errno.ECONNREFUSED
            raise error

        assert run_guarded(handler) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cannot connect to validator 3" in err
        assert f"errno {errno.ECONNREFUSED}" in err

    def test_os_error_with_address_stays_single_mention(self, capsys):
        """Net-backend connect failures carry (errno, message, address);
        str() already renders all three — nothing may be duplicated."""
        import errno

        def handler():
            raise OSError(
                errno.ECONNREFUSED,
                "cannot connect to validator 3 within 5.0s: connection refused",
                "/tmp/run/validator-3.sock",
            )

        assert run_guarded(handler) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("/tmp/run/validator-3.sock") == 1
        assert err.count(str(errno.ECONNREFUSED)) == 1

    def test_unexpected_exceptions_propagate(self):
        """Bugs must crash loudly, not hide behind exit 2."""

        def handler():
            raise ValueError("a programming error")

        with pytest.raises(ValueError):
            run_guarded(handler)
