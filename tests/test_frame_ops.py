"""Operators acting on frames: images, projections, equivalence classes."""

import warnings

import numpy as np
import pytest

from qframes.frame_ops import (
    KERNEL_RTOL,
    are_equivalent,
    bessel_from_operator,
    frame_with_frame_operator,
    intertwiner,
    map_frame,
    project_frame,
    unitary_invariance_check,
)
from qframes.frames import FRAME_RTOL, Frame
from qframes.qlinalg import (
    QMatrix,
    QVector,
    _norm,
    _over,
    complex_adjoint,
    inner,
    kernel_basis,
    matrix_rank,
    operator_norm,
    unembed_vector,
)
from qframes.quaternion import I, J, K, Quaternion
from qframes.sampling import (
    random_frame,
    random_invertible,
    random_matrix,
    random_positive_definite,
    random_rank_deficient,
    random_unitary,
    random_with_spectrum,
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


def test_map_frame_conjugation_residual_is_scale_free():
    # L 2^-505 makes ||L S L*||_F about 1.7e-302, below where a floor under
    # the size would have cut the ratio; the residual must read as L's
    # does. The gap itself, about 6e-318, is subnormal and carries about
    # six digits, so the two agree to about 4e-7 and no closer.
    fr = random_frame(3, 8, np.random.default_rng(3))
    L = random_invertible(3, np.random.default_rng(4))
    _, plain = map_frame(L, fr)
    _, tiny = map_frame(L * 2.0 ** -505, fr)
    assert tiny.residuals["operator-conjugation"] == pytest.approx(
        plain.residuals["operator-conjugation"], rel=1e-5, abs=0)


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


def test_unitary_invariance_reports_the_larger_drift():
    rng = np.random.default_rng(3)
    fr, U = random_frame(3, 8, rng), random_unitary(3, rng)
    before, after, drift = unitary_invariance_check(U, fr)
    assert drift == max(abs(after.lower - before.lower) / before.lower,
                        abs(after.upper - before.upper) / before.upper)


def test_unitary_invariance_rejects_non_unitary():
    fr = orthonormal_pair()
    with pytest.raises(ValueError, match="not unitary"):
        unitary_invariance_check(QMatrix.diag([Quaternion(2), Quaternion(1)]), fr)
    with pytest.raises(ValueError, match="expected a unitary"):
        unitary_invariance_check(QMatrix.identity(3), fr)


def test_unitary_invariance_rejects_a_nan_entry():
    arr = np.zeros((2, 2, 4))
    arr[0, 0, 0], arr[1, 1, 0] = 1.0, np.nan
    with pytest.raises(ValueError, match=r"not unitary: Gram entry \(0, 1\) "
                                         r"is off by nan"):
        unitary_invariance_check(QMatrix(arr), orthonormal_pair())


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


def test_project_frame_rejects_a_nan_basis():
    basis = QMatrix(np.full((2, 1, 4), np.nan))
    with pytest.raises(ValueError, match=r"not orthonormal: Gram entry "
                                         r"\(0, 0\) is off by nan"):
        project_frame(basis, orthonormal_pair())


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


def test_intertwiner_witness_from_a_big_kernel():
    # ker(T1) has quaternionic dimension 5, then 57; the witness is the
    # largest row of T2 projected onto the embedded kernel, with no
    # orthonormal basis built
    rng = np.random.default_rng(58)
    for n, m in ((3, 8), (3, 60)):
        first, second = random_frame(n, m, rng), random_frame(n, m, rng)
        res = intertwiner(first, second)
        assert res.operator is None
        w = res.witness
        assert abs(w.norm() - 1.0) <= 1e-14
        assert ((first.synthesis @ w).norm()
                <= 1e-12 * operator_norm(first.synthesis))
        assert ((second.synthesis @ w).norm()
                > KERNEL_RTOL * operator_norm(second.synthesis))


def test_intertwiner_witness_near_the_threshold():
    # T2 = L T1 + E with E supported on ker(T1) and just above the kernel
    # threshold: the escaping row is tiny against its unprojected length, and
    # the witness must still lie in ker(T1) to rounding
    rng = np.random.default_rng(62)
    for _ in range(10):
        T1 = random_frame(6, 30, rng).synthesis
        T2 = random_invertible(6, rng) @ T1
        E = random_matrix(6, 24, rng) @ kernel_basis(T1).H
        T2 = T2 + E * (3e-9 * operator_norm(T2) / operator_norm(E))
        F1, F2 = Frame.from_synthesis(T1), Frame.from_synthesis(T2)
        w = intertwiner(F1, F2).witness
        assert abs(w.norm() - 1.0) <= 1e-14
        assert (T1 @ w).norm() <= 1e-13 * operator_norm(T1)
        assert (T2 @ w).norm() > KERNEL_RTOL * operator_norm(T2)


def test_a_frame_family_is_factored_once(lapack_svd_calls):
    # a frame is factored by one thin SVD of its embedding, and only when its
    # kernel is tested: ||T2|| is bounded by the Frobenius norm, and a
    # canonical dual reads its frame's factors
    rng = np.random.default_rng(59)
    T1 = random_frame(3, 8, rng).synthesis
    T2 = random_frame(3, 8, rng).synthesis
    L = random_invertible(3, rng)
    # drawing L takes polar factors; the count starts after the draws
    lapack_svd_calls.clear()

    def fresh():
        return (Frame.from_synthesis(T1), Frame.from_synthesis(L @ T1),
                Frame.from_synthesis(T2))

    first, image, other = fresh()
    assert intertwiner(first, image).operator is not None
    assert lapack_svd_calls == ["thin"]
    lapack_svd_calls.clear()
    first, image, other = fresh()
    assert intertwiner(first, other).witness is not None
    assert lapack_svd_calls == ["thin"]
    lapack_svd_calls.clear()
    first, image, other = fresh()
    assert are_equivalent(first, image).relation == "equivalent"
    assert lapack_svd_calls == ["thin", "thin"]
    # a second pair sharing the first frame factors nothing new
    assert are_equivalent(first, other).relation == "none"
    assert lapack_svd_calls == ["thin", "thin"]
    lapack_svd_calls.clear()
    first, image, other = fresh()
    assert are_equivalent(first, other).relation == "none"
    assert lapack_svd_calls == ["thin"]
    lapack_svd_calls.clear()
    first, image, other = fresh()
    dual = first.canonical_dual()
    assert are_equivalent(first, dual).relation == "equivalent"
    assert lapack_svd_calls == []
    lapack_svd_calls.clear()
    # the dual's factors are cached, and its own dual reads them
    assert are_equivalent(dual, dual.canonical_dual()).relation == "equivalent"
    assert lapack_svd_calls == []


def _direct_kernel_escape(first, second):
    """The kernel test with ||T2|| taken from a LAPACK SVD of chi(T2) every
    time: (the witness or None, r / (KERNEL_RTOL ||T2||))."""
    Wr = first._factors.Wr
    chi2 = complex_adjoint(second.synthesis)
    top = chi2[:second.dim]
    R = top - (top @ Wr) @ Wr.conj().T
    norms = _norm(R, axis=1)
    i = int(np.argmax(norms))
    threshold = KERNEL_RTOL * np.linalg.svd(chi2, compute_uv=False)[0]
    if norms[i] <= threshold:
        return None, norms[i] / threshold
    z = R[i].conj()
    z -= Wr @ (Wr.conj().T @ z)
    return unembed_vector(_over(z, _norm(z.real, z.imag))), norms[i] / threshold


def test_frobenius_bounds_give_the_direct_verdict():
    # T2 = L T1 + t E with the rows of E in ker(T1): the largest projected
    # row r runs from 0.5 to 2 times KERNEL_RTOL ||T2||, below, inside and
    # above the band [||T2||_F / sqrt(k), ||T2||_F] where the SVD is read
    rng = np.random.default_rng(66)
    regions = set()
    for n, m in ((3, 8), (4, 6)):
        T1 = random_frame(n, m, rng).synthesis
        A = random_invertible(n, rng) @ T1
        E = random_matrix(n, m - n, rng) @ kernel_basis(T1).H
        # the projected rows of E have the largest norm row_E
        row_e = _norm(complex_adjoint(E)[:n], axis=1).max()
        for ratio in np.geomspace(0.5, 2.0, 12):
            T2 = A + E * (ratio * KERNEL_RTOL * operator_norm(A) / row_e)
            for k in (-990, 0, 996):
                c = 2.0 ** k
                F1 = Frame.from_synthesis(T1 * c)
                F2 = Frame.from_synthesis(T2 * c)
                forward, r_forward = _direct_kernel_escape(F1, F2)
                backward, r_backward = _direct_kernel_escape(F2, F1)
                for r in (r_forward, r_backward):
                    # neither rule may sit where rounding decides it
                    assert abs(r - 1.0) > 1e-12
                # r / KERNEL_RTOL against the band of the forward test
                row = r_forward * operator_norm(F2.synthesis)
                fro = F2.synthesis.frobenius_norm()
                regions.add(0 if row <= fro / np.sqrt(n)
                            else 2 if row > fro else 1)
                res = are_equivalent(F1, F2)
                if forward is not None:
                    expected, witness = "none", forward
                elif backward is not None:
                    expected, witness = "one-sided", backward
                else:
                    expected, witness = "equivalent", None
                assert res.relation == expected, (n, ratio, k)
                if witness is None:
                    assert res.witness is None
                else:
                    assert np.array_equal(res.witness.components,
                                          witness.components)
    assert regions == {0, 1, 2}


def test_kernel_tolerance_is_1e_9_against_the_operator_norm(
        lapack_svd_calls):
    # T1 = [I, 0] on H^4 with 6 vectors; T2 adds eps at (0, 4), in ker(T1),
    # so r = eps, ||T2|| is about 1 and ||T2||_F about 2 = sqrt(k) with
    # k = min(4, 6): the verdict follows eps / ||T2|| against 1e-9, and T2
    # is factored only where eps / 2 lies in the band (1e-9 / 2, 1e-9]
    t1 = np.zeros((4, 6, 4))
    t1[range(4), range(4), 0] = 1.0
    for eps, escapes, svds in ((2.5e-10, False, 1), (9e-10, False, 1),
                               (1.6e-9, True, 2), (4e-9, True, 1)):
        t2 = t1.copy()
        t2[0, 4, 0] = eps
        lapack_svd_calls.clear()
        result = intertwiner(Frame.from_synthesis(QMatrix(t1)),
                             Frame.from_synthesis(QMatrix(t2)))
        assert (result.witness is not None) == escapes, eps
        assert len(lapack_svd_calls) == svds, eps


def test_intertwiner_residual_is_the_two_call_form():
    # the gaps and the target sizes share one norm call; each column is
    # summed alone, so the residual keeps the bits of two separate calls,
    # on both sides of the rescaling
    rng = np.random.default_rng(98)
    for n, m in ((2, 5), (3, 7), (4, 10)):
        T1 = random_frame(n, m, rng).synthesis
        L = random_invertible(n, rng)
        for k in (-600, 0, 600):
            first = Frame.from_synthesis(T1 * 2.0 ** k)
            second = Frame.from_synthesis(L @ first.synthesis)
            res = intertwiner(first, second)
            T2 = second.synthesis
            gap = (res.operator @ first.synthesis - T2).column_norms().max()
            size = T2.column_norms().max()
            assert res.residual == float(gap / size)


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


def test_equivalence_relation_is_scale_invariant():
    # scaling either frame by 2^k leaves every relation as it is, also for a
    # rank-deficient frame whose noise singular values scale with it
    rng = np.random.default_rng(61)
    F = Frame.from_synthesis
    for n, m in ((3, 8), (12, 36)):
        T = random_frame(n, m, rng).synthesis
        pairs = {
            "equivalent": (T, random_invertible(n, rng) @ T),
            "one-sided": (T, random_rank_deficient(n, n, 1, rng) @ T),
            "none": (T, random_frame(n, m, rng).synthesis),
        }
        for relation, (T1, T2) in pairs.items():
            assert are_equivalent(F(T1), F(T2)).relation == relation
            for k in (-500, -200, 200, 500):
                c = 2.0 ** k
                assert are_equivalent(F(T1 * c), F(T2)).relation == relation
                assert are_equivalent(F(T1), F(T2 * c)).relation == relation


def test_equivalence_at_scales_whose_squares_leave_the_double_range():
    # Near 2^664 the rounding-level rows of the kernel test square past the
    # largest double; near 2^-560 the rows of an independent frame square
    # below the smallest. Neither may change the relation. At 2^-1020,
    # ||T||_F is about 5e-307, and the kernel test reads its ratios there
    # as at 2^0; at 2^-1040 the entries are subnormal.
    rng = np.random.default_rng(63)
    T, U = random_frame(2, 3, rng).synthesis, random_frame(2, 3, rng).synthesis
    for k in (-1040, -1030, -1020, -990, -560, 0, 664, 996):
        c = 2.0 ** k
        F, G = Frame.from_synthesis(T * c), Frame.from_synthesis(U * c)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert are_equivalent(F, F).relation == "equivalent", k
            res = are_equivalent(F, G)
            assert res.relation == "none", k
            w = res.witness
            assert (F.synthesis @ w).norm() \
                <= KERNEL_RTOL * operator_norm(F.synthesis) * w.norm(), k


def test_equivalence_of_frames_scaled_below_the_normal_range():
    # At 2^-1030 the entries are subnormal and no singular value has a
    # finite reciprocal; the intertwiner is still L, and the witness a unit
    c = 2.0 ** -1030
    T = random_frame(3, 8, np.random.default_rng(3)).synthesis
    L = random_invertible(3, np.random.default_rng(4))
    U = random_frame(3, 8, np.random.default_rng(5)).synthesis
    F = Frame.from_synthesis(T * c)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        image = are_equivalent(F, Frame.from_synthesis((L @ T) * c))
        other = are_equivalent(F, Frame.from_synthesis(U * c))
        itself = intertwiner(F, F)
    assert image.relation == "equivalent"
    assert (image.intertwiner - L).frobenius_norm() \
        <= 1e-12 * L.frobenius_norm()
    assert image.residual <= 1e-12
    assert other.relation == "none"
    assert other.witness.norm() == pytest.approx(1.0, rel=1e-12, abs=0)
    assert (itself.operator - QMatrix.identity(3)).frobenius_norm() <= 1e-12
    assert itself.residual <= 1e-12


@pytest.mark.parametrize("k", [-400, 0, 400])
def test_equivalence_verdicts_do_not_depend_on_a_held_spectrum(k):
    # A frame holding the eigensystem of S reads its factors off it, with a
    # projector off by about eps kappa^2 where the SVD's is off by eps; the
    # relation, the residual and the witnesses must not notice, from kappa =
    # 1 to just inside the is_frame boundary, at scales whose S stays normal.
    rng = np.random.default_rng(73)
    n, m = 3, 8
    c = 2.0 ** k
    edge = np.sqrt(1.0 / (n * FRAME_RTOL))
    for kappa in (1.0, 1e2, 1e4, 0.9 * edge):
        for _ in range(3):
            T1 = random_with_spectrum(n, m, np.geomspace(1.0, 1.0 / kappa, n),
                                      rng) * c
            pairs = {"equivalent": random_invertible(n, rng) @ T1,
                     "one-sided": random_rank_deficient(n, n, n - 1, rng) @ T1,
                     "none": random_frame(n, m, rng).synthesis * c}
            for relation, T2 in pairs.items():
                for held in ((), (0,), (0, 1)):
                    pair = Frame.from_synthesis(T1), Frame.from_synthesis(T2)
                    for i in held:
                        pair[i].spectrum
                    res = are_equivalent(*pair)
                    assert res.relation == relation, (kappa, held)
                    if res.residual is not None:
                        assert res.residual <= 1e-9, (kappa, held)
                    if res.witness is not None:
                        # the forward witness lies in ker(T1), the backward
                        # one in ker(T2)
                        T = T1 if relation == "none" else T2
                        w = res.witness
                        assert ((T @ w).norm() <= KERNEL_RTOL
                                * operator_norm(T) * w.norm()), (kappa, held)


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
