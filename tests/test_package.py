"""The package namespace: every public name is bound by `import qframes`,
the package reaches LAPACK only through its named doors, and no relative
residual sits on a floor."""

import ast
import pathlib

import qframes
import qframes.checks
import qframes.frame_ops


def test_every_public_name_is_served():
    namespace = {}
    exec("from qframes import *", namespace)
    for name in qframes.__all__:
        assert namespace[name] is getattr(qframes, name)
    assert set(qframes.__all__) <= set(dir(qframes))
    assert qframes.run_checks is qframes.checks.run_checks
    assert qframes.intertwiner is qframes.frame_ops.intertwiner


# LAPACK is entered only through these doors, so scaling their input (or
# tracing their cost) covers every factorization the library runs.
LAPACK_DOORS = {"herm_eig", "_chi_svd", "_singular_values", "_polar"}
LAPACK_NAMES = {"svd", "eigh", "eigvalsh", "eig", "qr", "pinv", "lstsq",
                "solve", "inv"}


def _lapack_calls(tree):
    """(enclosing function, name) for every call of np.linalg.<name>, or of
    a name imported from numpy.linalg, with name in LAPACK_NAMES."""
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "numpy.linalg"
                for alias in node.names}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in LAPACK_NAMES
                    and isinstance(f.value, ast.Attribute)
                    and f.value.attr == "linalg"):
                found.append((where, f.attr))
            elif isinstance(f, ast.Name) and f.id in imported:
                found.append((where, f.id))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_lapack_is_entered_only_through_the_four_doors():
    package = pathlib.Path(qframes.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [(path.name, where, name) for where, name in _lapack_calls(tree)]
    outside = [c for c in calls if c[1] not in LAPACK_DOORS]
    assert outside == []
    assert {where for _, where, _ in calls} == LAPACK_DOORS


def _tiny_literals(tree):
    """Line numbers of float literals x with 0 < x < 1e-200."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value < 1e-200]


def test_relative_residuals_have_no_floor():
    # A ratio read as gap / max(size, floor) stops scaling with its input
    # below the floor; every relative residual goes through qlinalg._ratio.
    package = pathlib.Path(qframes.__file__).parent
    found = [(path.name, line) for path in sorted(package.glob("*.py"))
             for line in _tiny_literals(ast.parse(path.read_text(
                 encoding="utf-8")))]
    assert found == []
