"""``cli.main`` run in process, as the contract tests call it, and the
traced memory peak of a call."""
import contextlib
import io
import tracemalloc
import warnings
from pathlib import Path

from depthkit import cli


def run_cli(argv):
    """``cli.main(argv)`` in process: exit code, stdout, stderr and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(out)):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue(), caught


def assert_contract(argv, codes=(0, 2, 3)):
    """Run ``argv`` and check the command-line contract: an exit code in
    ``codes``, no traceback and no warning.  A failure (exit 2, 3 or 4)
    prints one error line (``internal error:`` for exit 4, else
    ``error:``), nothing on stdout, and leaves no ``--out`` directory.
    Returns the exit code and stderr."""
    rc, out, err, caught = run_cli(argv)
    assert rc in codes, err
    assert "Traceback" not in err and "Warning" not in err, err
    assert caught == []
    if rc != 0:
        prefix = "internal error: " if rc == 4 else "error: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert out == "", out
        if "--out" in argv:
            assert not Path(argv[argv.index("--out") + 1]).exists(), err
    return rc, err


def numpy_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
