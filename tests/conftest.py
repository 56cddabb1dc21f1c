"""Helpers shared by the test modules."""

import contextlib
import io
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qframes
import qframes.cli
import qframes.qlinalg

# The directory holding the qframes package under test, made absolute so a
# child process finds it from any working directory.
SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(qframes.__file__)))


def run_cli(args, cwd):
    """Run `qframes ARGS` in cwd in this process, as `python -m qframes.cli
    ARGS` would run it: stdout and stderr as text, and a SystemExit, such
    as argparse's on a usage error, as the interpreter's return code. A
    warning the test's filters turn into an error (RuntimeWarning, by
    pyproject) propagates; any other is written to stderr as the
    interpreter would print it."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno,
                                         line))

    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.showwarning = show
            try:
                code = qframes.cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(["qframes", *args], code,
                                       out.getvalue(), err.getvalue())


def run_child(args, cwd):
    """Run `python -m qframes.cli ARGS` in cwd as a child process against the
    package under test. Only tests of the process boundary itself use it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qframes.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture
def lapack_svd_calls(monkeypatch):
    """Record every np.linalg.svd call as "values", "thin" or "full".

    Reaching qframes.qlinalg.svd, which recovers quaternionic singular
    vectors, fails the test.
    """
    calls = []
    lapack_svd = np.linalg.svd

    def counting(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append("values" if not compute_uv
                     else "full" if full_matrices else "thin")
        return lapack_svd(a, full_matrices=full_matrices,
                          compute_uv=compute_uv, **kwargs)

    def recovering_svd(M):
        raise AssertionError("qlinalg.svd was reached")

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(qframes.qlinalg, "svd", recovering_svd)
    return calls


@pytest.fixture
def split_products(monkeypatch):
    """Record the inner dimension of every quaternionic product kernel call.

    Every quaternionic product, matrix by matrix or matrix by vector, is one
    call of qlinalg._split_matmul, of qlinalg._split_matmul_adjoint for a
    product X Y*, or of qlinalg._split_outer for a Hermitian X X*; its inner
    dimension is the column count of the left factor's first half.
    """
    inner = []

    def counting(kernel):
        def count(A1, *halves):
            inner.append(A1.shape[1])
            return kernel(A1, *halves)
        return count

    for name in ("_split_matmul", "_split_matmul_adjoint", "_split_outer"):
        monkeypatch.setattr(qframes.qlinalg, name,
                            counting(getattr(qframes.qlinalg, name)))
    return inner


class RecordingRng:
    """A numpy Generator that records the method and shape of every draw.

    It draws exactly what np.random.default_rng(seed) would, so a check run
    on it gives the same numbers; draws holds (method, shape) in order.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, np.shape(out)))
            return out
        return draw


@pytest.fixture
def recording_rng():
    """A RecordingRng seeded with 0, to hand to a check function."""
    return RecordingRng(0)
