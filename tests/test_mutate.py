"""The mutant generator of tools/mutate.py, in process: every mutant is a
program, changes its module at one site, and stays inside the numerical
core. The sweep itself runs pytest once per mutant and is never part of
this suite."""

import ast
import importlib.util
import itertools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate",
                                               ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_the_scope_is_the_three_core_modules():
    assert set(mutate.MODULES) == {"src/qframes/qlinalg.py",
                                   "src/qframes/frames.py",
                                   "src/qframes/frame_ops.py"}
    for path, tests in mutate.MODULES.items():
        assert not path.startswith(("tests/", "perfbench/"))
        assert (ROOT / path).is_file() and (ROOT / tests).is_file()


def test_every_mutant_compiles_and_differs_at_one_site():
    seen, operators = set(), set()
    for path in mutate.MODULES:
        source = (ROOT / path).read_bytes()
        starts = [0, *itertools.accumulate(
            map(len, source.splitlines(keepends=True)))]
        # A module compiles exactly when each of its top-level statements
        # does, and a mutant touches one of them, so only that one is
        # compiled again.
        tops = [(starts[n.lineno - 1], starts[n.end_lineno])
                for n in ast.parse(source).body]
        for m in mutate.mutants(path):
            assert (m.path, m.start, m.end, m.text) not in seen
            seen.add((m.path, m.start, m.end, m.text))
            operators.add(m.operator)
            assert starts[m.line - 1] <= m.start < starts[m.line]
            assert source[m.start:m.end] != m.text
            out = m.apply(source)
            grown = len(out) - len(source)
            assert out[:m.start] == source[:m.start]
            assert out[m.end + grown:] == source[m.end:]
            lo, hi = next(t for t in tops if t[0] <= m.start and m.end <= t[1])
            compile(out[lo:hi + grown], path, "exec")
    assert operators == set(mutate.OPERATORS)
