"""The verification-suite runner: registry shape, determinism, overrides."""

import math

import numpy as np
import pytest

import qframes.checks
from qframes.checks import CHECKS, DEFAULT_SIZES, run_checks
from qframes.qlinalg import inner, operator_norm
from qframes.sampling import random_matrix, random_quaternion, random_vector

BY_NAME = {c.name: c for c in CHECKS}


def test_registry_names_are_unique_and_descriptive():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))
    for c in CHECKS:
        assert c.name == c.name.lower()
        assert " " not in c.name
        assert c.description
        assert 0 < c.tolerance < 1


def test_default_suite_passes():
    report = run_checks(seed=0)
    assert report["passed"] is True
    assert report["failures"] == 0
    assert report["sizes"] == [list(s) for s in DEFAULT_SIZES]
    for entry in report["checks"]:
        assert entry["passed"], entry
        assert entry["max_residual"] <= entry["tolerance"]


@pytest.mark.parametrize("residuals, expected", [
    ([], 0.0),
    ([0.5, 2.0, 1.0], 2.0),
    ([1.0, math.nan, 2.0], math.nan),
    ([2.0, math.inf, math.nan], math.nan),
    ([0.5, math.inf, 1.0], math.inf),
], ids=["none", "largest", "nan", "nan-after-inf", "inf"])
def test_a_check_returns_its_largest_residual_or_a_nan(monkeypatch, residuals,
                                                       expected):
    monkeypatch.setattr(qframes.checks, "CHECKS", [])
    qframes.checks._check("x", "y", 1.0)(lambda rng, sizes: iter(residuals))
    (check,) = qframes.checks.CHECKS
    got = check.fn(np.random.default_rng(0), DEFAULT_SIZES)
    assert got == expected or math.isnan(got) and math.isnan(expected)


def test_a_nan_identity_fails_its_check(monkeypatch):
    # the builtin max would drop a NaN that is not its first argument, and
    # these five would read a finite residual and pass; the bound readings
    # are taken in qframes.frames
    monkeypatch.setattr("qframes.checks.operator_norm", lambda M: math.nan)
    monkeypatch.setattr("qframes.frames.operator_norm", lambda M: math.nan)
    report = run_checks(seed=0)
    failing = [entry for entry in report["checks"] if not entry["passed"]]
    assert [entry["name"] for entry in failing] == [
        "adjoint-defining-identity", "embedding-star-homomorphism",
        "bound-formula-agreement", "coefficient-transport",
        "equivalence-classification"]
    for entry in failing:
        assert entry["max_residual"] is None
        assert entry["error"] == "residual is nan"


def test_runner_is_deterministic():
    assert run_checks(seed=3) == run_checks(seed=3)


def test_seed_reaches_the_samplers():
    a = run_checks(seed=0)
    b = run_checks(seed=1)
    ra = [c["max_residual"] for c in a["checks"]]
    rb = [c["max_residual"] for c in b["checks"]]
    assert ra != rb


def test_tolerance_override_applies_everywhere():
    report = run_checks(seed=0, tolerance=10.0)
    assert all(c["tolerance"] == 10.0 for c in report["checks"])
    assert report["passed"] is True
    strict = run_checks(seed=0, tolerance=1e-300)
    assert strict["passed"] is False
    assert strict["failures"] > 0


def test_custom_sizes_change_instances():
    small = run_checks(seed=0, sizes=[(2, 4)])
    assert small["sizes"] == [[2, 4]]
    assert small["passed"] is True


def test_sizes_validated():
    with pytest.raises(ValueError, match="positive dimensions"):
        run_checks(sizes=[(0, 3)])


def test_fewer_vectors_than_the_dimension_is_a_bad_size():
    # m < n vectors cannot span H^n: the input is wrong, not the library
    with pytest.raises(ValueError, match=r"n <= m.*\(6, 4\)"):
        run_checks(sizes=[(2, 6), (6, 4)])
    assert run_checks(seed=0, sizes=[(3, 3)])["passed"] is True


# The standard_normal draws of the checks whose loops draw in one call, at one
# size (n, m), in order: a frame or matrix first, then one draw per loop.
LOOP_DRAWS = {
    "inner-product-structure": lambda n, m: [(20, 2 * n + 1, 4)],
    "operator-right-linearity": lambda n, m: [(10, (n + 1) ** 2, 4)],
    "adjoint-defining-identity": lambda n, m: [(10, n * m + n + m, 4)],
    "minimal-norm-solution": lambda n, m: [(n, m, 4), (m, 4), (5, m - n, 4)],
    "frame-inequality": lambda n, m: [(m, n, 4), (10, n, 4)],
    "reconstruction-identity": lambda n, m: [(m, n, 4), (10, n, 4)],
    "coefficient-minimality": lambda n, m: [(m, n, 4), (5, m, 4)],
    "coefficient-route-agreement": lambda n, m: [(m, n, 4), (5, n, 4)],
    "parseval-normalization": lambda n, m: [(m, n, 4), (5, n, 4)],
    "coefficient-transport": lambda n, m: [(m, n, 4), (n, n, 4), (5, n, 4)],
}


@pytest.mark.parametrize("name", sorted(LOOP_DRAWS))
def test_each_loop_draws_once(recording_rng, name):
    BY_NAME[name].fn(recording_rng, DEFAULT_SIZES)
    expected = [("standard_normal", shape) for n, m in DEFAULT_SIZES
                for shape in LOOP_DRAWS[name](n, m)]
    assert recording_rng.draws == expected


@pytest.mark.parametrize("name", ["modulus-multiplicativity",
                                  "conjugation-antihomomorphism"])
def test_scalar_loops_draw_once(recording_rng, name):
    BY_NAME[name].fn(recording_rng, DEFAULT_SIZES)
    assert recording_rng.draws == [("standard_normal", (300, 8))]


def test_every_check_passes_for_the_first_sixteen_seeds():
    for seed in range(16):
        failing = [entry["name"] for entry in run_checks(seed=seed)["checks"]
                   if not entry["passed"]]
        assert failing == [], seed


def test_coefficient_routes_take_one_svd_per_solver_and_size(lapack_svd_calls):
    # pinv(T) and one block solve_min_norm(T, U) per size: 6, not 18
    BY_NAME["coefficient-route-agreement"].fn(np.random.default_rng(0),
                                              DEFAULT_SIZES)
    assert lapack_svd_calls == ["thin"] * 2 * len(DEFAULT_SIZES)


# Reference copies of the scalar checks as they were written before their
# loops drew in one call: one sampler call per random object, and every
# scale floored once more by _tiny.

def _rel(x, scale):
    return x / max(scale, 1e-300)


def _tiny(x):
    return max(x, 1e-300)


def _modulus_mult_per_draw(rng, sizes):
    worst = 0.0
    for _ in range(300):
        p, q = random_quaternion(rng), random_quaternion(rng)
        worst = max(worst, _rel(abs((p * q).modulus() - p.modulus() * q.modulus()),
                                p.modulus() * q.modulus()))
    return worst


def _conj_anti_per_draw(rng, sizes):
    worst = 0.0
    for _ in range(300):
        p, q = random_quaternion(rng), random_quaternion(rng)
        scale = _tiny(p.modulus() * q.modulus())
        worst = max(worst, _rel(((p * q).conjugate()
                                 - q.conjugate() * p.conjugate()).modulus(), scale))
        square = q.conjugate() * q
        worst = max(worst, _rel((square - q.modulus() ** 2).modulus(),
                                q.modulus() ** 2))
    return worst


def _inner_structure_per_draw(rng, sizes):
    worst = 0.0
    for n, _ in sizes:
        for _ in range(20):
            u, v = random_vector(n, rng), random_vector(n, rng)
            q = random_quaternion(rng)
            scale = _tiny(u.norm() * v.norm() * q.modulus())
            worst = max(worst, _rel((inner(v, u * q)
                                     - inner(v, u) * q).modulus(), scale))
            worst = max(worst, _rel((inner(u, v)
                                     - inner(v, u).conjugate()).modulus(),
                                    _tiny(u.norm() * v.norm())))
            gap = inner(u, v).modulus() - u.norm() * v.norm()
            worst = max(worst, _rel(max(gap, 0.0), _tiny(u.norm() * v.norm())))
    return worst


def _right_linearity_per_draw(rng, sizes):
    worst = 0.0
    for n, _ in sizes:
        for _ in range(10):
            M = random_matrix(n, n, rng)
            u, v = random_vector(n, rng), random_vector(n, rng)
            q = random_quaternion(rng)
            lhs = M @ (u * q + v)
            rhs = (M @ u) * q + M @ v
            worst = max(worst, _rel((lhs - rhs).norm(), _tiny(rhs.norm())))
    return worst


def _adjoint_identity_per_draw(rng, sizes):
    worst = 0.0
    for n, m in sizes:
        for _ in range(10):
            M = random_matrix(n, m, rng)
            u, v = random_vector(n, rng), random_vector(m, rng)
            lhs = inner(M.H @ u, v)
            rhs = inner(u, M @ v)
            scale = _tiny(operator_norm(M) * u.norm() * v.norm())
            worst = max(worst, _rel((lhs - rhs).modulus(), scale))
    return worst


@pytest.mark.parametrize("name, reference", [
    ("modulus-multiplicativity", _modulus_mult_per_draw),
    ("conjugation-antihomomorphism", _conj_anti_per_draw),
    ("inner-product-structure", _inner_structure_per_draw),
    ("operator-right-linearity", _right_linearity_per_draw),
    ("adjoint-defining-identity", _adjoint_identity_per_draw),
])
def test_one_draw_per_loop_keeps_the_scalar_residuals(name, reference):
    index = [c.name for c in CHECKS].index(name)
    for seed in range(4):
        for sizes in (DEFAULT_SIZES, [(1, 1), (5, 7)]):
            ours = BY_NAME[name].fn(np.random.default_rng([seed, index]), sizes)
            theirs = reference(np.random.default_rng([seed, index]), sizes)
            assert ours == theirs  # bit for bit


def test_failures_are_reported_not_raised():
    # a 1x1 "frame" drawn from one vector can be near-singular for some seeds;
    # whatever happens, the runner must return a report rather than raise
    report = run_checks(seed=12345, sizes=[(1, 1)])
    assert set(report) == {"seed", "sizes", "checks", "failures", "passed"}
    for entry in report["checks"]:
        assert entry["passed"] or entry["max_residual"] is None \
            or entry["max_residual"] > 0
