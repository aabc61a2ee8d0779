"""``cli.main`` run in process, as the contract tests call it, the
traced memory peak of a call, and the worker pool of a two-core
machine."""
import contextlib
import io
import tracemalloc
import warnings
from pathlib import Path

import pytest

from depthkit import _kernels, cli


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


@pytest.fixture
def two_cores(monkeypatch):
    """``_kernels`` as on a machine with two cores, with a pool of its own
    that is shut down after the test, so its threads are the only
    workers that take items."""
    monkeypatch.setattr(_kernels, "_cores", lambda: 2)
    monkeypatch.setattr(_kernels, "_pool", None)
    yield
    if _kernels._pool is not None:
        _kernels._pool.shutdown()
