"""Operators acting on frames: images, projections, equivalence classes."""

import numpy as np
import pytest

from qframes.frame_ops import (
    are_equivalent,
    bessel_from_operator,
    frame_with_frame_operator,
    intertwiner,
    map_frame,
    project_frame,
    unitary_invariance_check,
)
from qframes.frames import Frame
from qframes.qlinalg import QMatrix, QVector, inner, matrix_rank, operator_norm
from qframes.quaternion import I, J, K, Quaternion
from qframes.sampling import (
    random_frame,
    random_invertible,
    random_matrix,
    random_positive_definite,
    random_rank_deficient,
    random_unitary,
)

IMAGE_TOL = 1e-9        # relative residual for frame-operator conjugation
EQUIV_TOL = 1e-8        # per-vector residual allowed for intertwiners

e = QVector.basis


def orthonormal_pair() -> Frame:
    return Frame([e(2, 0), e(2, 1)])


# ---------------------------------------------------------------------------
# operator images


def test_map_frame_diagonal_stretch():
    fr = orthonormal_pair()
    L = QMatrix.diag([Quaternion(2), Quaternion(1)])
    image, report = map_frame(L, fr)
    assert image.is_frame
    assert report.status == "frame"
    lo, hi = image.optimal_bounds().as_tuple()
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(4.0)
    assert report.residuals["operator-conjugation"] <= 1e-12


def test_map_frame_conjugation_identity_random():
    rng = np.random.default_rng(51)
    for n, m in ((2, 5), (3, 7), (4, 9)):
        fr = random_frame(n, m, rng)
        L = random_invertible(n, rng)
        image, report = map_frame(L, fr)
        assert image.is_frame
        assert report.residuals["operator-conjugation"] <= IMAGE_TOL
        assert np.array_equal(image.synthesis.components,
                              (L @ fr.synthesis).components)


def test_map_frame_rank_deficient_image():
    rng = np.random.default_rng(52)
    fr = random_frame(3, 6, rng)
    L = random_rank_deficient(3, 3, 2, rng)
    image, report = map_frame(L, fr)
    assert not image.is_frame
    assert report.status == "rank-deficient"
    assert "operator-conjugation" not in report.residuals


def test_map_frame_into_bigger_space():
    fr = orthonormal_pair()
    L = QMatrix.from_columns([e(3, 0), e(3, 1)], dim=3)
    image, report = map_frame(L, fr)
    assert image.dim == 3
    assert not image.is_frame  # two vectors cannot span H^3


def test_map_frame_shape_mismatch():
    fr = orthonormal_pair()
    with pytest.raises(ValueError, match="operator acts on"):
        map_frame(QMatrix.identity(3), fr)


# ---------------------------------------------------------------------------
# unitary invariance


def test_unitary_invariance_concrete():
    fr = Frame([e(2, 0), e(2, 0), e(2, 1)])
    U = QMatrix.diag([J, K])
    before, after, drift = unitary_invariance_check(U, fr)
    assert before.as_tuple() == pytest.approx((1.0, 2.0))
    assert after.as_tuple() == pytest.approx((1.0, 2.0))
    assert drift <= 1e-12


def test_unitary_invariance_random():
    rng = np.random.default_rng(53)
    for n, m in ((2, 6), (3, 8)):
        fr = random_frame(n, m, rng)
        U = random_unitary(n, rng)
        before, after, drift = unitary_invariance_check(U, fr)
        assert drift <= IMAGE_TOL


def test_unitary_invariance_rejects_non_unitary():
    fr = orthonormal_pair()
    with pytest.raises(ValueError, match="not unitary"):
        unitary_invariance_check(QMatrix.diag([Quaternion(2), Quaternion(1)]), fr)
    with pytest.raises(ValueError, match="expected a unitary"):
        unitary_invariance_check(QMatrix.identity(3), fr)


# ---------------------------------------------------------------------------
# projection onto subspaces


def test_project_frame_concrete():
    fr = Frame([e(2, 0), e(2, 0), e(2, 1)])
    basis = QMatrix.from_columns([e(2, 0)])
    compressed, bounds = project_frame(basis, fr)
    assert compressed.dim == 1
    assert compressed.count == 3
    assert bounds.as_tuple() == pytest.approx((2.0, 2.0))


def test_project_frame_bounds_inside_envelope():
    rng = np.random.default_rng(54)
    for _ in range(10):
        fr = random_frame(4, 9, rng)
        lo, hi = fr.optimal_bounds().as_tuple()
        U = random_unitary(4, rng)
        basis = QMatrix.from_columns([U.column(0), U.column(1)])
        compressed, bounds = project_frame(basis, fr)
        assert bounds.lower >= lo * (1 - 1e-9)
        assert bounds.upper <= hi * (1 + 1e-9)


def test_project_frame_preserves_parseval():
    rng = np.random.default_rng(55)
    tight = random_frame(3, 8, rng).parseval_normalize()
    U = random_unitary(3, rng)
    basis = QMatrix.from_columns([U.column(0), U.column(2)])
    compressed, bounds = project_frame(basis, tight)
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)
    assert bounds.upper == pytest.approx(1.0, abs=1e-9)


def test_project_frame_validation():
    fr = orthonormal_pair()
    with pytest.raises(ValueError, match="basis columns live in"):
        project_frame(QMatrix.identity(3), fr)
    skew = QMatrix.from_columns([e(2, 0) + e(2, 1)])
    with pytest.raises(ValueError, match="not orthonormal"):
        project_frame(skew, fr)
    with pytest.raises(ValueError, match="at least one basis column"):
        project_frame(QMatrix.zeros(2, 0), fr)


# ---------------------------------------------------------------------------
# intertwiners


def test_intertwiner_between_diagonal_scalings():
    first = Frame([e(2, 0) * Quaternion(2), e(2, 1)])
    second = Frame([e(2, 0), e(2, 1) * Quaternion(3)])
    res = intertwiner(first, second)
    assert res.witness is None
    assert res.residual <= 1e-12
    L = res.operator
    assert L[0, 0].is_close(Quaternion(0.5), 1e-12)
    assert L[1, 1].is_close(Quaternion(3.0), 1e-12)
    assert L[0, 1].is_close(Quaternion(), 1e-12)


def test_intertwiner_witness_for_incompatible_kernels():
    first = Frame([e(2, 0), e(2, 0), e(2, 1)])
    second = Frame([e(2, 0), e(2, 1), e(2, 1)])
    res = intertwiner(first, second)
    assert res.operator is None
    w = res.witness
    # ker(T1) is spanned by (1, -1, 0)/sqrt(2); the witness is that line
    expected = QVector([Quaternion(1), Quaternion(-1), Quaternion()]) * \
        Quaternion(1 / np.sqrt(2))
    assert abs(abs(inner(w, expected).modulus()) - 1.0) <= 1e-10
    # and T2 genuinely fails to kill it
    assert (second.synthesis @ w).norm() == pytest.approx(1.0, rel=1e-9)


def test_intertwiner_requires_matching_counts():
    with pytest.raises(ValueError, match="share an index set"):
        intertwiner(orthonormal_pair(), Frame([e(2, 0)]))


def test_intertwiner_recovers_applied_operator():
    rng = np.random.default_rng(56)
    for n, m in ((2, 5), (3, 7)):
        fr = random_frame(n, m, rng)
        L = random_invertible(n, rng)
        image = Frame([L @ v for v in fr], dim=n)
        res = intertwiner(fr, image)
        assert res.witness is None
        assert res.residual <= EQUIV_TOL * operator_norm(image.synthesis)
        assert (res.operator - L).frobenius_norm() <= 1e-8 * L.frobenius_norm()


# ---------------------------------------------------------------------------
# equivalence classification


def test_equivalence_reflexive():
    fr = orthonormal_pair()
    res = are_equivalent(fr, fr)
    assert res.relation == "equivalent"
    assert (res.intertwiner - QMatrix.identity(2)).frobenius_norm() <= 1e-10
    assert res.witness is None


def test_equivalence_under_invertible_operator():
    rng = np.random.default_rng(57)
    fr = random_frame(3, 7, rng)
    L = random_invertible(3, rng)
    image = Frame([L @ v for v in fr], dim=3)
    res = are_equivalent(fr, image)
    assert res.relation == "equivalent"
    assert matrix_rank(res.intertwiner) == 3
    back = are_equivalent(image, fr)
    assert back.relation == "equivalent"
    prod = res.intertwiner @ back.intertwiner
    assert (prod - QMatrix.identity(3)).frobenius_norm() <= 1e-7


def test_equivalence_none_with_witness():
    first = Frame([e(2, 0), e(2, 0), e(2, 1)])
    second = Frame([e(2, 0), e(2, 1), e(2, 1)])
    res = are_equivalent(first, second)
    assert res.relation == "none"
    assert res.intertwiner is None
    assert res.witness is not None
    assert (first.synthesis @ res.witness).norm() <= 1e-12
    assert (second.synthesis @ res.witness).norm() > 0.5


def test_equivalence_one_sided():
    # ker(T1) is the line through (1, 1, -1); the second family satisfies the
    # same relation v1 + v2 - v3 = 0 but collapses onto one direction, so its
    # kernel is strictly bigger and only the forward inclusion holds
    first = Frame([e(2, 0), e(2, 1), e(2, 0) + e(2, 1)])
    second = Frame([e(2, 0), e(2, 0), e(2, 0) * Quaternion(2)])
    res = are_equivalent(first, second)
    assert res.relation == "one-sided"
    assert res.intertwiner is not None
    assert res.residual <= 1e-9
    # the witness breaks the backward inclusion: T2 kills it, T1 does not
    w = res.witness
    assert w.norm() == pytest.approx(1.0, rel=1e-10)
    assert (second.synthesis @ w).norm() <= 1e-10
    assert (first.synthesis @ w).norm() > 1e-9 * operator_norm(first.synthesis)


def test_equivalence_transitive():
    rng = np.random.default_rng(58)
    fr = random_frame(2, 5, rng)
    L1 = random_invertible(2, rng)
    L2 = random_invertible(2, rng)
    g = Frame([L1 @ v for v in fr], dim=2)
    h = Frame([L2 @ v for v in g], dim=2)
    assert are_equivalent(fr, g).relation == "equivalent"
    assert are_equivalent(g, h).relation == "equivalent"
    assert are_equivalent(fr, h).relation == "equivalent"


def test_equivalence_to_dict_optional_keys():
    fr = orthonormal_pair()
    d = are_equivalent(fr, fr).to_dict()
    assert d["relation"] == "equivalent"
    assert "intertwiner" in d and "residual" in d
    assert "witness" not in d
    first = Frame([e(2, 0), e(2, 0), e(2, 1)])
    second = Frame([e(2, 0), e(2, 1), e(2, 1)])
    d = are_equivalent(first, second).to_dict()
    assert d == {"relation": "none", "witness": d["witness"]}


# ---------------------------------------------------------------------------
# frames with a prescribed frame operator


def test_prescribed_operator_concrete():
    L = QMatrix.diag([Quaternion(4), Quaternion(1)])
    fr = frame_with_frame_operator(L)
    assert fr.count == 2
    assert fr[0][0].is_close(Quaternion(2), 1e-12)
    assert fr[1][1].is_close(Quaternion(1), 1e-12)
    assert (fr.frame_operator - L).frobenius_norm() <= 1e-12


def test_prescribed_operator_random():
    rng = np.random.default_rng(59)
    for n in (2, 3, 5):
        L = random_positive_definite(n, rng)
        fr = frame_with_frame_operator(L)
        assert fr.is_frame
        gap = (fr.frame_operator - L).frobenius_norm()
        assert gap <= 1e-10 * L.frobenius_norm()


def test_prescribed_operator_rejects_bad_input():
    with pytest.raises(ValueError, match="expected a square matrix"):
        frame_with_frame_operator(QMatrix.zeros(2, 3))
    with pytest.raises(ValueError):  # not Hermitian
        frame_with_frame_operator(QMatrix([[Quaternion(1), I],
                                           [I, Quaternion(1)]]))
    with pytest.raises(ValueError):  # indefinite
        frame_with_frame_operator(QMatrix.diag([Quaternion(1), Quaternion(-1)]))
    with pytest.raises(ValueError, match="not positive definite"):
        frame_with_frame_operator(QMatrix.diag([Quaternion(1), Quaternion(0)]))


# ---------------------------------------------------------------------------
# family attached to a given analysis operator


def test_bessel_from_operator_round_trip_exact():
    rng = np.random.default_rng(60)
    L = random_matrix(5, 3, rng)
    fam = bessel_from_operator(L)
    assert fam.dim == 3
    assert fam.count == 5
    # the analysis matrix of the family is L again, entry for entry
    assert (fam.synthesis.H - L).frobenius_norm() == 0.0


def test_bessel_from_operator_concrete():
    L = QMatrix([[I, J]])  # one row: a single analysis functional on H^2
    fam = bessel_from_operator(L)
    assert fam.count == 1
    assert fam[0][0] == -I
    assert fam[0][1] == -J
