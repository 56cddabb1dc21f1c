"""The verification-suite runner: registry shape, determinism, overrides."""

import dataclasses
import math

import numpy as np
import pytest

import qframes.checks
from qframes.checks import CHECKS, DEFAULT_SIZES, _worst, run_checks
from qframes.frames import Frame
from qframes.qlinalg import QMatrix, QVector, inner, operator_norm
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


# CI's two small-size steps: 1 x 1 reaches every n = 1 branch, and the wide
# kernels of 1 x 6 and 6 x 30 reach the kernel paths
CI_SMALL_SIZES = [(1, 1), (3, 8), (5, 7)]


@pytest.mark.parametrize("seed, sizes", [(1, CI_SMALL_SIZES),
                                         (3, [(1, 6), (6, 30)])])
def test_the_small_size_suites_of_ci_pass(seed, sizes):
    report = run_checks(seed=seed, sizes=sizes)
    assert [e["name"] for e in report["checks"] if not e["passed"]] == []


def test_a_residual_equal_to_the_tolerance_passes():
    entry = run_checks(seed=0)["checks"][1]
    residual = entry["max_residual"]
    assert residual > 0
    (same,) = [e for e in run_checks(seed=0, tolerance=residual)["checks"]
               if e["name"] == entry["name"]]
    assert same["passed"] and same["max_residual"] == residual


def test_worst_takes_the_largest_column():
    assert _worst(np.array([1.0, 3.0, 2.0]), 2.0) == 1.5
    assert _worst(np.array([1.0, 3.0]), np.array([0.5, 6.0])) == 2.0


# How many residuals each check yields, at the default sizes and at CI's
# small sizes, read from the generator of residuals that _check returns.
RESIDUAL_COUNTS = {
    "unit-multiplication-table": ("_unit_table", 16, 16),
    "modulus-multiplicativity": ("_modulus_mult", 300, 300),
    "conjugation-antihomomorphism": ("_conj_anti", 600, 600),
    "inner-product-structure": ("_inner_structure", 180, 180),
    "operator-right-linearity": ("_right_linearity", 30, 30),
    "adjoint-defining-identity": ("_adjoint_identity", 30, 30),
    "embedding-star-homomorphism": ("_embedding_hom", 9, 9),
    "doubled-spectrum-recovery": ("_doubled_spectrum", 54, 54),
    "svd-factorization": ("_svd_factorization", 36, 36),
    "penrose-conditions": ("_penrose", 40, 36),
    "minimal-norm-solution": ("_min_norm", 9, 7),
    "frame-inequality": ("_frame_inequality", 12, 12),
    "optimal-bound-attainment": ("_bound_attainment", 6, 6),
    "bound-formula-agreement": ("_bound_formulas", 6, 6),
    "reconstruction-identity": ("_reconstruction", 9, 9),
    "coefficient-minimality": ("_coefficient_minimality", 6, 6),
    "coefficient-route-agreement": ("_coefficient_routes", 6, 6),
    "canonical-dual-reciprocity": ("_dual_reciprocity", 6, 6),
    "parseval-normalization": ("_parseval", 6, 6),
    "coefficient-transport": ("_transport", 6, 6),
    "operator-image-frames": ("_operator_images", 15, 13),
    "unitary-bound-invariance": ("_unitary_invariance", 3, 3),
    "projection-compression": ("_projection", 15, 10),
    "equivalence-classification": ("_equivalence", 12, 10),
    "prescribed-frame-operator": ("_prescribed_operator", 3, 3),
    "analysis-operator-bijection": ("_analysis_bijection", 3, 3),
}


def test_the_count_table_lists_every_check():
    assert list(RESIDUAL_COUNTS) == [c.name for c in CHECKS]


@pytest.mark.parametrize("name", RESIDUAL_COUNTS)
def test_each_check_yields_its_residuals(name):
    function, at_default, at_small = RESIDUAL_COUNTS[name]
    residuals = getattr(qframes.checks, function)
    for sizes, count in ((DEFAULT_SIZES, at_default),
                         (CI_SMALL_SIZES, at_small)):
        assert sum(1 for _ in residuals(np.random.default_rng(0),
                                        sizes)) == count


def test_projections_compress_to_a_proper_subspace(monkeypatch):
    # an orthonormal basis of n - 1 columns in H^n, for each n >= 2
    project, shapes = qframes.checks.project_frame, []

    def recording(basis, frame):
        shapes.append(basis.shape)
        return project(basis, frame)

    monkeypatch.setattr(qframes.checks, "project_frame", recording)
    BY_NAME["projection-compression"].fn(np.random.default_rng(0),
                                         CI_SMALL_SIZES)
    assert shapes == [(3, 2), (3, 2), (5, 4), (5, 4)]


def _not_a_frame(result):
    image, _ = result
    zero = QMatrix(np.zeros((image.dim, image.count, 4)))
    return Frame.from_synthesis(zero), None


def _zero_witness(verdict):
    zero = QVector(np.zeros((len(verdict.witness), 4)))
    return dataclasses.replace(verdict, witness=zero)


# Each fault replaces the result of one call of a library function the
# checks import: (check, function, call index, fault, calls expected). The
# calls run in order: map_frame of (L, F), (wide, F), (rank n - 1, F), and
# are_equivalent of (F, G), (F, F), (G, F), (F, H), (H, F), per size.
FAULTS = [
    ("operator-image-frames", "map_frame", 0, _not_a_frame, 1),
    ("operator-image-frames", "map_frame", 1, _not_a_frame, 6),
    ("operator-image-frames", "map_frame", 2,
     lambda result: (Frame.from_synthesis(QMatrix.identity(2)), None), 6),
    *[("equivalence-classification", "are_equivalent", call,
       lambda verdict, change=change: dataclasses.replace(verdict, **change),
       call + 1)
      for call, change in [
          (0, {"relation": "one-sided"}), (0, {"intertwiner": None}),
          (1, {"relation": "none"}), (2, {"relation": "one-sided"}),
          (3, {"relation": "equivalent"}), (3, {"intertwiner": None}),
          (3, {"witness": None}),
          (4, {"relation": "one-sided"}), (4, {"witness": None})]],
    ("equivalence-classification", "are_equivalent", 3, _zero_witness, 5),
    ("equivalence-classification", "are_equivalent", 4, _zero_witness, 5),
    ("analysis-operator-bijection", "bessel_from_operator", 0,
     lambda family: Frame.from_synthesis(family.synthesis.H), 1),
]


@pytest.mark.parametrize("name, function, call, fault, expected_calls",
                         FAULTS)
def test_a_broken_result_fails_its_check_and_ends_it(
        monkeypatch, name, function, call, fault, expected_calls):
    real, calls = getattr(qframes.checks, function), []

    def broken(*args):
        result = real(*args)
        calls.append(args)
        return fault(result) if len(calls) == call + 1 else result

    monkeypatch.setattr(qframes.checks, function, broken)
    report = run_checks(seed=0, sizes=[(2, 4), (3, 6)])
    (entry,) = [e for e in report["checks"] if not e["passed"]]
    assert entry["name"] == name
    assert entry["max_residual"] == 1.0 and "error" not in entry
    # a wrong classification yields 1.0 and stops the check, except where
    # a residual follows it in the same size
    assert len(calls) == expected_calls


def test_fewer_vectors_than_the_dimension_is_a_bad_size():
    # m < n vectors cannot span H^n: the input is wrong, not the library
    with pytest.raises(ValueError, match=r"n <= m.*\(6, 4\)"):
        run_checks(sizes=[(2, 6), (6, 4)])
    assert run_checks(seed=0, sizes=[(3, 3)])["passed"] is True


# The draws of the checks whose loops draw in one call, at one size (n, m),
# in order: a frame or matrix first, then one draw per loop; and of two checks
# whose draws show that every matrix they promise is drawn.
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
    # the full-rank matrix is drawn after the rank-deficient ones, k = n
    "penrose-conditions": lambda n, m: [
        draw for rank in sorted({0, 1, n // 2, n})
        for draw in (("uniform", (rank,)), (n, n, 4), (m, m, 4))],
    # F, L, then an (n - 1) x n surjection and a rank n - 1 operator
    "operator-image-frames": lambda n, m: [
        (m, n, 4), ("uniform", (n,)), (n, n, 4), (n, n, 4),
        ("uniform", (n - 1,)), (n - 1, n - 1, 4), (n, n, 4),
        ("uniform", (n - 1,)), (n, n, 4), (n, n, 4)],
}


@pytest.mark.parametrize("name", sorted(LOOP_DRAWS))
def test_each_loop_draws_once(recording_rng, name):
    BY_NAME[name].fn(recording_rng, DEFAULT_SIZES)
    # a bare shape is a standard_normal draw
    expected = [draw if isinstance(draw[0], str) else ("standard_normal", draw)
                for n, m in DEFAULT_SIZES for draw in LOOP_DRAWS[name](n, m)]
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
