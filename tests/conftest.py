"""Helpers shared by the test modules."""

import os
import subprocess
import sys

import qframes

# The directory holding the qframes package under test, made absolute so a
# child process finds it from any working directory.
SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(qframes.__file__)))


def run_cli(args, cwd):
    """Run `python -m qframes.cli ARGS` in cwd against the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qframes.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)
