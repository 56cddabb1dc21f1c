"""Mutation sweep of the library.

    python tools/mutate.py

Each mutant changes one site of one of six library modules, each of which
has a test file of its own: qlinalg.py, frames.py, frame_ops.py,
quaternion.py, cli.py and checks.py (sampling.py has none, and stays out).
A mutation is a comparison flipped (< and <=, > and >=), + and - swapped, a
literal 0.5 made 1.0, a `not` dropped, a module tolerance times 10 or times
0.1, max and min swapped, or a statement replaced by `pass`. A mutant runs in a scratch copy
of the checkout, made in the system's temporary directory, first against its
module's test file (pytest -x -q), then, if it survives that, against the
whole Tier-1 suite. A run that fails kills the mutant; a run that takes 10
times the clean run is stopped and counted as a timeout. Two mutants run at
a time. The report, with the first failing test of each killed mutant, goes
to .mutants/report.json; nothing else in the checkout is written.
"""

from __future__ import annotations

import ast
import bisect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "src/qframes/qlinalg.py": "tests/test_qlinalg.py",
    "src/qframes/frames.py": "tests/test_frames.py",
    "src/qframes/frame_ops.py": "tests/test_frame_ops.py",
    "src/qframes/quaternion.py": "tests/test_quaternion.py",
    "src/qframes/cli.py": "tests/test_cli.py",
    "src/qframes/checks.py": "tests/test_checks.py",
}
TIER1 = ["-m", "pytest", "-x", "-q", "--continue-on-collection-errors"]
WORKERS = 2
TIMEOUT_FACTOR = 10
OPERATORS = ("comparison", "plus-minus", "half", "not", "tolerance",
             "max-min", "pass")

_FLIP = {b"<": b"<=", b"<=": b"<", b">": b">=", b">=": b">",
         b"+": b"-", b"-": b"+", b"+=": b"-=", b"-=": b"+=",
         b"is not": b"is", b"not in": b"in"}
# An operator token between two operands; comments there are skipped.
_TOKEN = re.compile(rb"#[^\n]*|[<>+-]=?|is\s+not|not\s+in")


class Mutant(NamedTuple):
    path: str        # the module, relative to the checkout
    line: int
    operator: str
    start: int       # byte span of the site in the module's source
    end: int
    text: bytes      # what replaces it

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text + source[self.end:]

    def describe(self, source: bytes) -> str:
        return (f"{source[self.start:self.end].decode()} -> "
                f"{self.text.decode()}")


def mutants(path: str) -> list[Mutant]:
    """Every mutant of one module, in source order."""
    source = (ROOT / path).read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(line: int, col: int) -> int:
        return starts[line - 1] + col

    def span(node):
        return at(node.lineno, node.col_offset), at(node.end_lineno,
                                                     node.end_col_offset)

    found = []

    def add(operator, start, end, text):
        line = bisect.bisect(starts, start)
        found.append(Mutant(path, line, operator, start, end, text))

    def between(left, right, operator, tokens):
        """The operator token between two operands, flipped."""
        for m in _TOKEN.finditer(source, span(left)[1], span(right)[0]):
            token = re.sub(rb"\s+", b" ", m.group())
            if token in tokens:
                add(operator, m.start(), m.end(), _FLIP[token])
            if not token.startswith(b"#"):
                return

    tree = ast.parse(source)
    in_functions = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_functions.update((id(s), s) for s in ast.walk(node)
                                if isinstance(s, ast.stmt) and s is not node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators],
                                   node.comparators):
                between(left, right, "comparison",
                        (b"<", b"<=", b">", b">="))
                between(left, right, "not", (b"is not", b"not in"))
        elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                        (ast.Add, ast.Sub)):
            between(node.left, node.right, "plus-minus", (b"+", b"-"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op,
                                                            (ast.Add, ast.Sub)):
            between(node.target, node.value, "plus-minus",
                    (b"+=", b"-="))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value == 0.5):
            add("half", *span(node), b"1.0")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            operand = source[slice(*span(node.operand))]
            add("not", *span(node), b"(" + operand + b")")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in ("max", "min"):
                end = span(f)[1]
                add("max-min", end - 3, end,
                    b"min" if name == "max" else b"max")
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.isupper()
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is float):
            value = source[slice(*span(node.value))]
            for factor in (b"10", b"0.1"):
                add("tolerance", *span(node.value),
                    b"(" + value + b" * " + factor + b")")
    for node in in_functions.values():
        docstring = (isinstance(node, ast.Expr)
                     and isinstance(node.value, ast.Constant)
                     and isinstance(node.value.value, str))
        if docstring or isinstance(node, ast.Pass):
            continue
        start, end = span(node)
        decorators = getattr(node, "decorator_list", [])
        if decorators:  # the span starts at the first '@'
            start = at(decorators[0].lineno, decorators[0].col_offset - 1)
        add("pass", start, end, b"pass")
    return sorted(found, key=lambda m: (m.start, m.end, m.operator, m.text))


def _run(argv: list[str], mutant: Mutant | None, timeout: float | None):
    """(outcome, first failing test, seconds) of one pytest run in a fresh
    scratch copy of the checkout, with the mutant written into it."""
    with tempfile.TemporaryDirectory(prefix="qframes-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".mutants", ".hypothesis", ".pytest_cache",
            "__pycache__"))
        if mutant is not None:
            target = copy / mutant.path
            target.write_bytes(mutant.apply(target.read_bytes()))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        began = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=copy, env=env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", None, time.perf_counter() - began
        seconds = time.perf_counter() - began
    if proc.returncode == 0:
        return "survived", None, seconds
    failures = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return "killed", (failures[0] if failures else
                      f"exit code {proc.returncode}"), seconds


def _clean(argv: list[str]) -> float:
    outcome, _, seconds = _run(argv, None, None)
    if outcome != "survived":
        sys.exit(f"the unmutated checkout fails {' '.join(argv)}")
    return seconds


def _fractions(records: list[dict], key: str) -> dict:
    total, first, either = Counter(), Counter(), Counter()
    for r in records:
        total[r[key]] += 1
        first[r[key]] += r["module_tests"] != "survived"
        either[r[key]] += r["module_tests"] != "survived" or (
            r["tier1"] != "survived")
    return {k: {"mutants": total[k], "killed_by_module_tests": first[k],
                "killed": either[k],
                "killed_fraction": round(either[k] / total[k], 4)}
            for k in total}


def main() -> None:
    sources = {path: (ROOT / path).read_bytes() for path in MODULES}
    todo = [m for path in MODULES for m in mutants(path)]
    print(f"{len(todo)} mutants", flush=True)
    module_argv = {path: ["-m", "pytest", "-x", "-q", test]
                   for path, test in MODULES.items()}
    clean = {path: _clean(argv) for path, argv in module_argv.items()}
    clean["tier1"] = _clean(TIER1)

    def first_stage(m):
        return _run(module_argv[m.path], m, TIMEOUT_FACTOR * clean[m.path])

    with ThreadPoolExecutor(WORKERS) as pool:
        stage1 = []
        for result in pool.map(first_stage, todo):
            stage1.append(result)
            if len(stage1) % 50 == 0:
                print(f"{len(stage1)}/{len(todo)} run", flush=True)
        survivors = [m for m, r in zip(todo, stage1) if r[0] == "survived"]
        print(f"{len(survivors)} survive their module's tests; running "
              f"Tier-1 on each", flush=True)
        stage2 = dict(zip(survivors, pool.map(
            lambda m: _run(TIER1, m, TIMEOUT_FACTOR * clean["tier1"]),
            survivors)))
    records = []
    for m, (outcome, failure, _) in zip(todo, stage1):
        tier1, tier1_failure, _ = stage2.get(m, (None, None, None))
        records.append({
            "module": Path(m.path).stem, "line": m.line,
            "operator": m.operator, "site": m.describe(sources[m.path]),
            "module_tests": outcome, "first_failure": failure or tier1_failure,
            "tier1": tier1})
    report = {"clean_seconds": clean,
              "by_module": _fractions(records, "module"),
              "by_operator": _fractions(records, "operator"),
              "survivors": [r for r in records if r["tier1"] == "survived"],
              "mutants": records}
    out = ROOT / ".mutants"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for key in ("by_module", "by_operator"):
        for name, row in report[key].items():
            print(f"{name:>10}: {row['killed_by_module_tests']}/"
                  f"{row['mutants']} killed by the module's tests, "
                  f"{row['killed']} with Tier-1")
    for r in report["survivors"]:
        print(f"survivor {r['module']}:{r['line']} {r['operator']}: "
              f"{r['site']}")


if __name__ == "__main__":
    main()
