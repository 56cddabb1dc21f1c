"""Smoke test of the benchmark: a few jobs of every workload, both modes.

    python -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import qframes.cli  # noqa: E402  (loaded so the snapshot covers it)

SEED = 3


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _library_bindings():
    """Every attribute of every qframes module and of the wrapped classes."""
    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "qframes" or n.startswith("qframes."))]
    owners += [qframes.frames.Frame, qframes.quaternion.Quaternion]
    return {(id(o), key): value for o in owners for key, value in vars(o).items()}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_end_to_end_metrics(name):
    out = _bench("--workload", name, "--seed", str(SEED), "--seconds", "0.01",
                 "--trace", "0")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    record = json.loads(next(x for x in lines if x.startswith("record: "))[8:])
    result = json.loads(lines[-1])
    for key, unit in run.END_TO_END_UNITS.items():
        assert record["metrics"][key]["unit"] == unit
        assert record["metrics"][key]["n"] >= 1
        assert any(line.split()[:2] == [name, key] for line in lines)
    assert record["metrics"]["fail_frac"]["value"] == 0
    assert record["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == run.RESULT_END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["env"]["pins"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_restores_the_library(name):
    before = _library_bindings()
    record = run.run_workload(name, SEED, 0.01, trace=True)
    after = _library_bindings()
    assert record["failed"] == 0 and record["errors"] == []
    for key, unit in tracing.PER_LAYER_UNITS.items():
        assert record["metrics"][key]["unit"] == unit
    assert record["metrics"]["qlinalg.herm_eig.calls"]["value"] >= 1
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench("--workload", "calc-generic", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
