"""``cli.main`` run in process, as the contract tests call it."""
import contextlib
import io
import warnings

from depthkit import cli


def run_cli(argv):
    """``cli.main(argv)`` in process: exit code, stderr and warnings."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, err.getvalue(), caught
