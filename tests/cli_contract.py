"""Shared assertions for the repository's CLI exit-code contract.

Every ``python -m repro.*`` entry point routes its command handlers
through :func:`repro.cliutil.run_guarded` and therefore promises:

* exit 0 on success (including a downstream ``BrokenPipeError`` — a
  closed pager is not an error);
* exit 1 on findings/divergence (the handler's own return value);
* exit 2 on operational errors (``ReproError`` or ``OSError``), with a
  single ``error: ...`` line on stderr, nothing on stdout, and never a
  traceback.

The CLI test modules import these helpers (``from tests.cli_contract
import ...``) instead of copy-pasting the capsys plumbing and the
contract assertions per CLI.
"""

from repro.cliutil import EXIT_ERROR, EXIT_OK


def run_cli(main, capsys, *argv):
    """Invoke a CLI ``main`` and return ``(exit_code, stdout, stderr)``."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_ok(main, capsys, *argv):
    """Assert a clean run: exit 0, empty stderr.  Returns stdout."""
    code, out, err = run_cli(main, capsys, *argv)
    assert code == EXIT_OK, f"expected exit {EXIT_OK}, got {code} (stderr: {err!r})"
    assert err == ""
    return out


def assert_error_contract(main, capsys, *argv, match=None):
    """Assert the operational-error contract: exit 2, one stderr
    ``error:`` line, clean stdout.  Returns stderr for extra checks."""
    code, out, err = run_cli(main, capsys, *argv)
    assert code == EXIT_ERROR, f"expected exit {EXIT_ERROR}, got {code} (stdout: {out!r})"
    assert out == ""
    assert err.startswith("error:"), f"stderr must be a single 'error:' line, got {err!r}"
    assert "Traceback" not in err
    if match is not None:
        assert match in err, f"expected {match!r} in stderr, got {err!r}"
    return err
