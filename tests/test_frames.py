"""Frame calculus: bounds, coefficients, duals, Parseval form, transport."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qframes.frame_ops import are_equivalent
from qframes.frames import FRAME_RTOL, Frame, PythagorasCheck
from qframes.qlinalg import (
    QMatrix,
    QVector,
    _fold,
    _over,
    complex_adjoint,
    herm_eig,
    kernel_basis,
    operator_norm,
    solve_min_norm,
)
from qframes.quaternion import I, J, K, Quaternion
from qframes.sampling import (
    random_frame,
    random_invertible,
    random_matrix,
    random_vector,
    random_with_spectrum,
)

RECON_TOL = 1e-9        # relative reconstruction residual for random frames
BOUND_TOL = 1e-9        # relative slack in frame-inequality checks

e = QVector.basis


def factored_pinv(factors) -> QMatrix:
    """pinv(M) from the thin SVD chi(M) = Wl diag(s) Wr* of Frame._factors,
    fold(Wr diag(1/s) Wl*), divided as the library divides."""
    return _fold(_over(factors.Wr, factors.s) @ factors.Wl.conj().T)


def doubled_basis(n: int = 2) -> Frame:
    # {e1, e1, e2}: frame operator diag(2, 1), bounds (1, 2)
    return Frame([e(n, 0), e(n, 0), e(n, 1)])


# ---------------------------------------------------------------------------
# construction and validation


def test_dim_inferred_from_first_vector():
    fr = Frame([e(3, 0), e(3, 2)])
    assert fr.dim == 3
    assert fr.count == 2
    assert len(fr) == 2


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError, match="vector 1 has length 3"):
        Frame([e(2, 0), e(3, 0)])


def test_numeric_strings_are_not_components():
    # a component is a number; "1.5" is refused wherever a vector comes from
    for vectors, where in (([[["1.5", 0, 0, 0]]], "vector 0, entry 0"),
                           ([[[1, 0, 0, 0]], [[0, 0, 0, 0], ["0", "1", "0", "0"]]],
                            "vector 1, entry 1"),
                           (np.array([[["1", "0", "0", "0"]]]), "vector 0, entry 0")):
        with pytest.raises(ValueError, match=where + ": .*string"):
            Frame(vectors)
    assert Frame([[[10**20, 0, 0, 0]]]).synthesis[0, 0] == Quaternion(1e20)


def test_empty_family_needs_dim():
    with pytest.raises(ValueError, match="explicit dim"):
        Frame([])
    fr = Frame([], dim=2)
    assert fr.count == 0
    assert not fr.is_frame


def test_dim_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        Frame([], dim=0)
    with pytest.raises(ValueError, match="at least 1"):
        Frame.from_synthesis(QMatrix.zeros(0, 3))


def test_zero_vectors_are_legal_members():
    fr = Frame([e(2, 0), QVector.zeros(2), e(2, 1)])
    assert fr.is_frame
    assert fr.optimal_bounds().as_tuple() == pytest.approx((1.0, 1.0))


def test_indexing_and_iteration():
    fr = doubled_basis()
    assert fr[2][1] == Quaternion(1)
    assert [v.norm() for v in fr] == pytest.approx([1.0, 1.0, 1.0])
    assert repr(fr) == "Frame(dim=2, count=3)"


def test_vectors_accept_raw_component_arrays():
    fr = Frame([[[1, 0, 0, 0], [0, 0, 0, 0]]])
    assert fr[0][0] == Quaternion(1)


# ---------------------------------------------------------------------------
# synthesis, analysis, frame operator


def test_synthesis_columns_are_the_vectors():
    fr = doubled_basis()
    T = fr.synthesis
    assert T.shape == (2, 3)
    for k in range(3):
        assert (T.column(k) - fr[k]).norm() == 0.0
    T = random_matrix(3, 5, np.random.default_rng(40))
    fr = Frame.from_synthesis(T)
    assert fr.synthesis is T
    assert (fr.dim, fr.count, len(fr)) == (3, 5, 5)
    for by_index, by_iter, held, col in zip(
            (fr[k] for k in range(5)), fr, fr.vectors, T.columns(), strict=True):
        for v in (by_index, by_iter, held):
            assert np.array_equal(v.components, col.components)
    # Frame(vectors) stacks the components once; T equals the column stack of
    # the parsed vectors, for every accepted form of a vector
    comps = T.components.transpose(1, 0, 2)
    quats = [[T[i, k] for i in range(3)] for k in range(5)]
    ints = np.arange(60).reshape(5, 3, 4) - 30
    for vectors in (T.columns(), comps, comps.tolist(), quats, ints):
        ref = QMatrix.from_columns([QVector(v) for v in vectors])
        for got, want in zip(Frame(vectors).synthesis.split, ref.split):
            assert np.array_equal(got, want)
    # an array is read in one step; a -0.0 component keeps its sign
    signed = comps.copy()
    signed[2, 1] = (-0.0, 1.0, -0.0, 2.0)
    got = Frame(signed, dim=3).synthesis.components
    assert np.array_equal(got, signed.transpose(1, 0, 2))
    assert np.signbit(got[1, 2, [0, 2]]).all()
    # a shape mismatch and an empty array keep the per-vector messages
    with pytest.raises(ValueError, match="vector 0 has length 2, expected 3"):
        Frame(np.ones((5, 2, 4)), dim=3)
    empty = Frame(np.zeros((0, 3, 4)), dim=3)
    assert empty.synthesis.shape == (3, 0)
    with pytest.raises(ValueError, match="an empty family needs an explicit dim"):
        Frame(np.zeros((0, 3, 4)))


def test_analysis_reads_inner_products():
    fr = doubled_basis()
    q = Quaternion(1, 2, -1, 3)
    u = e(2, 0) * q
    c = fr.analysis(u)
    assert c[0] == q
    assert c[1] == q
    assert c[2] == Quaternion()


def test_analysis_right_linearity():
    rng = np.random.default_rng(31)
    fr = random_frame(3, 6, rng)
    u = random_vector(3, rng)
    q = Quaternion(0.5, -1, 2, 0.25)
    gap = fr.analysis(u * q) - fr.analysis(u) * q
    assert gap.norm() <= 1e-12 * fr.analysis(u).norm()


def test_frame_operator_of_doubled_basis():
    S = doubled_basis().frame_operator
    assert S[0, 0] == Quaternion(2)
    assert S[1, 1] == Quaternion(1)
    assert S[0, 1] == Quaternion()


def test_frame_operator_matches_rank_one_sum():
    rng = np.random.default_rng(32)
    fr = random_frame(3, 7, rng)
    S = fr.frame_operator
    acc = QMatrix.zeros(3, 3)
    for v in fr:
        col = QMatrix.from_columns([v])
        acc = acc + col @ col.H
    assert (S - acc).frobenius_norm() <= 1e-12 * S.frobenius_norm()


def test_spectrum_descending():
    lam = doubled_basis().spectrum
    assert list(lam) == pytest.approx([2.0, 1.0])


# ---------------------------------------------------------------------------
# frame status and optimal bounds


def test_scaled_basis_bounds():
    fr = Frame([e(2, 0), e(2, 1) * Quaternion(0.5)])
    assert fr.is_frame
    bounds = fr.optimal_bounds()
    assert bounds.lower == pytest.approx(0.25)
    assert bounds.upper == pytest.approx(1.0)
    assert bounds.as_tuple() == pytest.approx((0.25, 1.0))


def test_short_family_is_not_a_frame():
    fr = Frame([e(2, 0)])
    assert not fr.is_frame
    with pytest.raises(ValueError, match="rank-deficient"):
        fr.optimal_bounds()


def test_collinear_family_is_not_a_frame():
    v = e(2, 0)
    fr = Frame([v, v * Quaternion(0, 1, 0, 0), v * Quaternion(2)])
    assert not fr.is_frame


def test_rank_deficient_family_blocks_coefficients():
    fr = Frame([e(2, 0)])
    for expand in (fr.coefficients, fr.natural_representation,
                   fr.dual_expansion):
        with pytest.raises(ValueError,
                           match="rank-deficient; operation needs a frame"):
            expand(e(2, 0))


def test_frame_inequality_random():
    rng = np.random.default_rng(33)
    for n, m in ((2, 5), (3, 7), (4, 9)):
        fr = random_frame(n, m, rng)
        lo, hi = fr.optimal_bounds().as_tuple()
        for _ in range(10):
            u = random_vector(n, rng)
            total = fr.analysis(u).norm() ** 2
            nsq = u.norm() ** 2
            assert total >= lo * nsq * (1 - BOUND_TOL)
            assert total <= hi * nsq * (1 + BOUND_TOL)


def test_bounds_are_attained_on_eigenvectors():
    rng = np.random.default_rng(34)
    fr = random_frame(3, 8, rng)
    lo, hi = fr.optimal_bounds().as_tuple()
    # the frame calculus reads S only through its spectrum and matrix
    # functions, so the quaternionic eigenvectors are built on request only
    fr.report()
    fr.canonical_dual()
    fr.parseval_normalize()
    fr.coefficients(random_vector(3, rng))
    assert "eigenvectors" not in fr._spectral.__dict__
    vecs = fr._spectral.eigenvectors
    assert "eigenvectors" in fr._spectral.__dict__
    top = vecs.column(0)
    bottom = vecs.column(2)
    assert fr.analysis(top).norm() ** 2 == pytest.approx(hi, rel=1e-8)
    assert fr.analysis(bottom).norm() ** 2 == pytest.approx(lo, rel=1e-8)


# ---------------------------------------------------------------------------
# coefficients and reconstruction


def test_coefficients_split_duplicated_vector():
    fr = doubled_basis()
    u = e(2, 0) * Quaternion(2)
    c = fr.coefficients(u)
    assert c[0].is_close(Quaternion(1), 1e-12)
    assert c[1].is_close(Quaternion(1), 1e-12)
    assert c[2].is_close(Quaternion(), 1e-12)


def test_reconstruct_applies_right_coefficients():
    fr = doubled_basis()
    coeffs = QVector([I, J, K])
    out = fr.reconstruct(coeffs)
    assert out[0] == I + J
    assert out[1] == K


def test_reconstruct_rejects_wrong_count():
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        doubled_basis().reconstruct(QVector([I, J]))
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        doubled_basis().reconstruct(QMatrix.zeros(2, 5))


# ---------------------------------------------------------------------------
# blocks: a QMatrix of vectors goes through the same products column by column


def _block_entry_points(F: Frame):
    return {
        "analysis": (F.analysis, F.dim),
        "coefficients": (F.coefficients, F.dim),
        "reconstruct": (F.reconstruct, F.count),
        "natural_representation": (F.natural_representation, F.dim),
        "dual_expansion": (F.dual_expansion, F.dim),
        "solve_min_norm": (lambda X: solve_min_norm(F.synthesis, X), F.dim),
    }


def _column_gap(block: QMatrix, j: int, column: QVector) -> float:
    return (block.column(j) - column).norm() / max(column.norm(), 1e-300)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 6),
       st.integers(0, 2 ** 32 - 1))
def test_block_calls_match_the_column_calls(n, extra, k, seed):
    rng = np.random.default_rng(seed)
    F = random_frame(n, n + extra, rng)
    bounds = F.optimal_bounds()
    # the block and the columns take the same cached operators through
    # products summed in another order: they agree to rounding times B/A
    tol = 1e-13 * bounds.upper / bounds.lower
    for name, (fn, rows) in _block_entry_points(F).items():
        X = QMatrix(rng.standard_normal((rows, k, 4)))
        block = fn(X)
        assert isinstance(block, QMatrix) and block.shape[1] == k, name
        for j in range(k):
            column = fn(X.column(j))
            assert isinstance(column, QVector), name
            assert _column_gap(block, j, column) <= tol, name


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3),
       st.lists(st.booleans(), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_solve_min_norm_block_names_the_first_column_off_the_range(
        q, extra, off_range, seed):
    # a tall M has a proper range: M x is in it, a Gaussian vector is not
    rng = np.random.default_rng(seed)
    M = random_matrix(q + extra, q, rng)
    comps = np.array((M @ QMatrix(rng.standard_normal(
        (q, len(off_range), 4)))).components)
    for j, off in enumerate(off_range):
        if off:
            comps[:, j] = rng.standard_normal((q + extra, 4))
    V = QMatrix(comps)
    failing = []
    for j in range(len(off_range)):
        try:
            solve_min_norm(M, V.column(j))
        except ValueError as exc:
            assert "column 0 is not in the range" in str(exc)
            failing.append(j)
    assert failing == [j for j, off in enumerate(off_range) if off]
    if failing:
        with pytest.raises(ValueError,
                           match=f"column {failing[0]} is not in the range"):
            solve_min_norm(M, V)
    else:
        X = solve_min_norm(M, V)
        for j in range(len(off_range)):
            column = solve_min_norm(M, V.column(j))
            assert _column_gap(X, j, column) <= 1e-12


def test_block_coefficients_are_one_product_through_the_cached_dual(
        split_products):
    rng = np.random.default_rng(71)
    F = random_frame(4, 10, rng)
    U = QMatrix(rng.standard_normal((4, 100, 4)))
    F.coefficients(U.column(0))  # forms and caches the dual D and its D*
    split_products.clear()
    C = F.coefficients(U)
    assert C.shape == (10, 100)
    assert split_products == [4]


def test_block_dual_expansion_is_two_products(split_products):
    rng = np.random.default_rng(72)
    F = random_frame(4, 10, rng)
    U = QMatrix(rng.standard_normal((4, 100, 4)))
    F.dual_expansion(U.column(0))  # forms and caches T* and the dual D
    split_products.clear()
    X = F.dual_expansion(U)
    assert X.shape == (4, 100)
    # T* U, then D (T* U)
    assert split_products == [4, 10]


def test_coefficients_are_the_analysis_of_the_canonical_dual():
    rng = np.random.default_rng(73)
    F = random_frame(4, 10, rng)
    U = QMatrix(rng.standard_normal((4, 7, 4)))
    assert np.array_equal(F.coefficients(U).components,
                          F.canonical_dual().analysis(U).components)
    u = U.column(0)
    assert np.array_equal(F.coefficients(u).components,
                          F.canonical_dual().analysis(u).components)


def test_natural_representation_recovers_vector():
    rng = np.random.default_rng(35)
    for n, m in ((2, 4), (3, 8), (5, 9)):
        fr = random_frame(n, m, rng)
        for _ in range(5):
            u = random_vector(n, rng)
            assert (fr.natural_representation(u) - u).norm() <= RECON_TOL * u.norm()


def test_dual_expansion_agrees_with_natural_route():
    rng = np.random.default_rng(36)
    fr = random_frame(4, 9, rng)
    for _ in range(10):
        u = random_vector(4, rng)
        a = fr.natural_representation(u)
        b = fr.dual_expansion(u)
        assert (a - u).norm() <= RECON_TOL * u.norm()
        assert (b - u).norm() <= RECON_TOL * u.norm()


def test_coefficients_have_minimal_norm():
    rng = np.random.default_rng(37)
    fr = random_frame(2, 6, rng)
    u = random_vector(2, rng)
    c = fr.coefficients(u)
    # perturb inside the kernel of the synthesis map: same vector, bigger norm
    from qframes.qlinalg import kernel_basis

    ker = kernel_basis(fr.synthesis)
    for k in range(ker.shape[1]):
        other = c + ker.column(k) * Quaternion(0.7, -0.3, 0.1, 0.2)
        assert (fr.reconstruct(other) - u).norm() <= 1e-8 * u.norm()
        assert other.norm() > c.norm()


# ---------------------------------------------------------------------------
# norm-splitting identity for alternate representations


def test_pythagoras_identity_concrete():
    fr = doubled_basis()
    u = e(2, 0) * Quaternion(2)
    offered = QVector([Quaternion(2), Quaternion(), Quaternion()])
    chk = fr.pythagoras_check(u, offered)
    assert isinstance(chk, PythagorasCheck)
    assert chk.lhs == pytest.approx(4.0)
    assert chk.rhs == pytest.approx(4.0)
    assert chk.residual <= 1e-12


def test_pythagoras_identity_random():
    rng = np.random.default_rng(38)
    fr = random_frame(3, 7, rng)
    from qframes.qlinalg import kernel_basis

    ker = kernel_basis(fr.synthesis)
    for _ in range(10):
        u = random_vector(3, rng)
        c = fr.coefficients(u)
        offered = c
        for k in range(ker.shape[1]):
            offered = offered + ker.column(k) * Quaternion(*rng.standard_normal(4))
        chk = fr.pythagoras_check(u, offered)
        assert chk.residual <= 1e-10
        assert offered.norm() >= c.norm()


def test_pythagoras_check_takes_a_block():
    rng = np.random.default_rng(39)
    fr = random_frame(3, 7, rng)
    ker = kernel_basis(fr.synthesis)
    U = QMatrix(rng.standard_normal((3, 4, 4)))
    offered = fr.coefficients(U) + ker @ QMatrix(
        rng.standard_normal((ker.shape[1], 4, 4)))
    chk = fr.pythagoras_check(U, offered)
    for j in range(4):
        one = fr.pythagoras_check(U.column(j), offered.column(j))
        for field in ("lhs", "rhs"):
            assert getattr(chk, field)[j] == pytest.approx(getattr(one, field),
                                                          rel=1e-12)
        assert max(chk.residual[j], one.residual) <= 1e-10
    bogus = np.array(offered.components)
    bogus[0, 2, 0] += 1.0
    with pytest.raises(ValueError, match="column 2 do not represent"):
        fr.pythagoras_check(U, QMatrix(bogus))


def test_pythagoras_rejects_non_representation():
    # also at scales whose squares overflow or underflow, as a vector and
    # as a one-column block
    fr = doubled_basis()
    u = e(2, 0)
    bogus = QVector([Quaternion(5), Quaternion(), Quaternion()])
    for c in (1.0, 1e160, 1e-170):
        for x, y in ((u * c, bogus * c),
                     (QMatrix.from_columns([u * c]),
                      QMatrix.from_columns([bogus * c]))):
            with pytest.raises(ValueError, match="do not represent"):
                fr.pythagoras_check(x, y)


def test_pythagoras_refuses_zeros_for_a_subnormal_vector():
    # u of norm 2.2e-319 is not sum u_i 0; subnormals carry about four
    # digits, so the frame's own coefficients are refused there too
    fr = random_frame(3, 7, np.random.default_rng(38))
    u = random_vector(3, np.random.default_rng(39)) * 2.0 ** -1060
    assert 0 < u.norm() < 1e-318
    with pytest.raises(ValueError, match="residual 1.000e"):
        fr.pythagoras_check(u, QVector.zeros(7))
    with pytest.raises(ValueError, match="do not represent"):
        fr.pythagoras_check(u, fr.coefficients(u))


def test_pythagoras_refuses_nan_coefficients():
    fr = random_frame(2, 5, np.random.default_rng(1))
    U = QMatrix(np.random.default_rng(2).standard_normal((2, 3, 4)))
    offered = np.array(fr.coefficients(U).components)
    offered[:, 1:] = np.nan
    with pytest.raises(ValueError, match="column 1 do not represent the "
                       "vector: relative residual nan"):
        fr.pythagoras_check(U, QMatrix(offered))


@pytest.mark.parametrize("k", [540, 1000])
def test_pythagoras_check_where_the_squares_overflow(k):
    fr = random_frame(3, 7, np.random.default_rng(38))
    U = QMatrix(np.random.default_rng(39).standard_normal((3, 2, 4))) * 2.0 ** k
    ker = kernel_basis(fr.synthesis)
    offered = fr.coefficients(U) + ker @ (
        QMatrix(np.random.default_rng(40).standard_normal((4, 2, 4))) * 2.0 ** k)
    chk = fr.pythagoras_check(U, offered)
    assert np.all(chk.residual <= 1e-10)
    assert np.all(np.isinf(chk.lhs)) and np.all(np.isinf(chk.rhs))
    one = fr.pythagoras_check(U.column(0), offered.column(0))
    assert one.residual <= 1e-10 and one.lhs == math.inf


def test_pythagoras_residual_keeps_its_bits_at_desk_scale():
    # scaling by a power of two before squaring is exact in the normal range
    rng = np.random.default_rng(41)
    for _ in range(30):
        fr = random_frame(3, 7, rng)
        ker = kernel_basis(fr.synthesis)
        U = QMatrix(rng.standard_normal((3, 10, 4)))
        offered = fr.coefficients(U) + ker @ QMatrix(
            rng.standard_normal((ker.shape[1], 10, 4)))
        chk = fr.pythagoras_check(U, offered)
        c = fr.coefficients(U)
        lhs = offered.column_norms() ** 2
        rhs = c.column_norms() ** 2 + (c - offered).column_norms() ** 2
        assert np.array_equal(chk.lhs, lhs) and np.array_equal(chk.rhs, rhs)
        assert np.array_equal(chk.residual,
                              np.abs(lhs - rhs) / np.maximum(lhs, rhs))


def test_pythagoras_rejects_wrong_length():
    fr = doubled_basis()
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        fr.pythagoras_check(e(2, 0), QVector([Quaternion(1)]))


# ---------------------------------------------------------------------------
# canonical dual and Parseval normalization


def test_canonical_dual_of_doubled_basis():
    dual = doubled_basis().canonical_dual()
    assert dual[0][0].is_close(Quaternion(0.5), 1e-12)
    assert dual[1][0].is_close(Quaternion(0.5), 1e-12)
    assert dual[2][1].is_close(Quaternion(1), 1e-12)
    lo, hi = dual.optimal_bounds().as_tuple()
    assert lo == pytest.approx(0.5)
    assert hi == pytest.approx(1.0)


def test_dual_bounds_are_reciprocal():
    rng = np.random.default_rng(39)
    for n, m in ((2, 5), (3, 6), (4, 10)):
        fr = random_frame(n, m, rng)
        lo, hi = fr.optimal_bounds().as_tuple()
        dlo, dhi = fr.canonical_dual().optimal_bounds().as_tuple()
        assert dlo == pytest.approx(1.0 / hi, rel=1e-9)
        assert dhi == pytest.approx(1.0 / lo, rel=1e-9)


def test_dual_of_dual_returns_original():
    rng = np.random.default_rng(40)
    fr = random_frame(3, 7, rng)
    back = fr.canonical_dual().canonical_dual()
    gap = (back.synthesis - fr.synthesis).frobenius_norm()
    assert gap <= 1e-9 * fr.synthesis.frobenius_norm()


def test_dual_pairing_reconstructs():
    # sum u_i <dual_i, u> = u: mixed expansion through the dual family
    rng = np.random.default_rng(41)
    fr = random_frame(3, 6, rng)
    dual = fr.canonical_dual()
    for _ in range(5):
        u = random_vector(3, rng)
        rebuilt = fr.reconstruct(dual.analysis(u))
        assert (rebuilt - u).norm() <= RECON_TOL * u.norm()


def test_parseval_normalize_concrete():
    tight = doubled_basis().parseval_normalize()
    r = 1.0 / np.sqrt(2.0)
    assert tight[0][0].is_close(Quaternion(r), 1e-12)
    assert tight[1][0].is_close(Quaternion(r), 1e-12)
    assert tight[2][1].is_close(Quaternion(1), 1e-12)


def test_parseval_normalize_random():
    rng = np.random.default_rng(42)
    for n, m in ((2, 4), (3, 8), (5, 11)):
        fr = random_frame(n, m, rng)
        tight = fr.parseval_normalize()
        gap = tight.frame_operator - QMatrix.identity(n)
        assert gap.frobenius_norm() <= 1e-10 * np.sqrt(n)
        lo, hi = tight.optimal_bounds().as_tuple()
        assert lo == pytest.approx(1.0, abs=1e-10)
        assert hi == pytest.approx(1.0, abs=1e-10)


def test_parseval_frame_is_fixed_by_normalization():
    rng = np.random.default_rng(43)
    tight = random_frame(3, 7, rng).parseval_normalize()
    again = tight.parseval_normalize()
    gap = (again.synthesis - tight.synthesis).frobenius_norm()
    assert gap <= 1e-9 * tight.synthesis.frobenius_norm()


def test_derived_frames_are_computed_once():
    rng = np.random.default_rng(44)
    fr = random_frame(3, 7, rng)
    fr.report()  # reads the Parseval frame for its residual
    tight = fr.parseval_normalize()
    dual = fr.canonical_dual()
    assert fr.parseval_normalize() is tight
    assert fr.canonical_dual() is dual
    assert np.array_equal(tight.synthesis.components,
                          (fr._inv_sqrt_operator @ fr.synthesis).components)
    assert np.array_equal(dual.synthesis.components,
                          (fr._inverse_operator @ fr.synthesis).components)


def test_dual_reads_its_frame_factors_through_a_weak_reference(
        lapack_svd_calls):
    # the canonical dual S^-1 T is pinv(T)*, so it shares T's singular
    # vectors; it keeps its frame only weakly, so no cycle holds the frame
    rng = np.random.default_rng(67)
    T = random_frame(3, 8, rng).synthesis
    other = Frame.from_synthesis(random_frame(3, 8, rng).synthesis)
    gc.disable()
    try:
        fr = Frame.from_synthesis(T)
        dual = fr.canonical_dual()
        factors = dual._factors
        assert lapack_svd_calls == []
        assert np.array_equal(dual.canonical_dual()._factors.Wr,
                              fr._factors.Wr)
        parent = weakref.ref(fr)
        del fr
        assert parent() is None
    finally:
        gc.enable()
    _, sigma, Wrh = np.linalg.svd(complex_adjoint(dual.synthesis),
                                  full_matrices=False)
    Wr = Wrh[:6].conj().T
    assert np.abs(factors.Wr @ factors.Wr.conj().T
                  - Wr @ Wr.conj().T).max() <= 1e-12
    assert np.abs(factors.s - sigma[:6]).max() <= 1e-12 * sigma[0]
    assert ((factored_pinv(factors) - T.H).frobenius_norm()
            <= 1e-12 * T.frobenius_norm())
    # a dual whose frame is gone factors its own T, to the same relations
    orphan = Frame.from_synthesis(T).canonical_dual()
    lapack_svd_calls.clear()
    assert orphan._factors.s.shape == factors.s.shape
    assert lapack_svd_calls == ["thin"]
    for d in (dual, orphan):
        assert are_equivalent(d, Frame.from_synthesis(T)).relation \
            == "equivalent"
        assert are_equivalent(d, other).relation == "none"


@pytest.mark.parametrize("n, m", [(3, 8), (4, 10)])
def test_factors_read_off_the_spectrum_match_a_direct_svd(n, m,
                                                          lapack_svd_calls):
    # The eigensystem computed for S = T T* is exact for some S + E with
    # ||E|| <= c eps ||S||, c growing with the size (forming S and eigh
    # both round). The derived projector chi(T)* (S + E)^-1 chi(T) and the
    # pseudoinverse T* (S + E)^-1 are then off by about ||E|| / lambda_min,
    # that is c eps kappa^2 relative, for kappa = sigma_max / sigma_min of T,
    # as is Wr* Wr from I; each sigma = sqrt(lambda) is off by at most
    # ||E|| / (2 sigma_min) = (c / 2) eps kappa sigma_max. c = 10 m covers
    # the largest ratio seen, about 9 eps kappa^2 for Wr* Wr at kappa = 1.
    eps = np.finfo(float).eps
    c = 10 * m
    rng = np.random.default_rng(71)
    edge = np.sqrt(1.0 / (n * FRAME_RTOL))  # kappa where is_frame flips
    for kappa in (1.0, 10.0, 1e2, 1e3, 1e4, 0.9 * edge):
        for _ in range(5):
            sigma = np.geomspace(1.0, 1.0 / kappa, n)
            T = random_with_spectrum(n, m, sigma, rng)
            fr = Frame.from_synthesis(T)
            assert fr.is_frame, kappa
            lapack_svd_calls.clear()
            factors = fr._factors
            assert lapack_svd_calls == [], kappa
            chi = complex_adjoint(T)
            _, s, Wrh = np.linalg.svd(chi, full_matrices=False)
            Wr = Wrh.conj().T
            tol = c * eps * kappa ** 2
            assert np.abs(factors.Wr @ factors.Wr.conj().T
                          - Wr @ Wr.conj().T).max() <= tol, kappa
            assert np.abs(factors.Wr.conj().T @ factors.Wr
                          - np.eye(2 * n)).max() <= tol, kappa
            assert np.abs(factors.s - s).max() <= c * eps * kappa * s[0], kappa
            assert (np.abs(complex_adjoint(factored_pinv(factors))
                           - np.linalg.pinv(chi))
                    .max() <= tol / s[-1]), kappa
    # just outside the boundary the family is no frame, and held eigenvalues
    # decide no rank: T takes its own SVD
    T = random_with_spectrum(n, m, np.geomspace(1.0, 1.0 / (1.1 * edge), n), rng)
    fr = Frame.from_synthesis(T)
    assert not fr.is_frame
    lapack_svd_calls.clear()
    assert len(fr._factors.s) == 2 * n
    assert lapack_svd_calls == ["thin"]


def test_frame_operator_beyond_the_double_range():
    vectors = np.random.default_rng(64).standard_normal((3, 2, 4)) * 1e200
    fr = Frame(vectors, dim=2)
    with pytest.raises(ValueError, match="frame bounds exceed the double "
                                         "range: entry \\(0, 0\\)"):
        fr.report()
    # a frame near 1e150 still fits: S is near 1e300
    assert Frame(vectors * 1e-50, dim=2).report().status == "frame"
    # S = 1.2e308 fits, although 2 * S does not
    x = np.sqrt(1.2e308)
    S = Frame([[[x, 0.0, 0.0, 0.0]]], dim=1).frame_operator
    assert S.components.tolist() == [[[x * x, 0.0, 0.0, 0.0]]]
    assert x * x == pytest.approx(1.2e308, rel=1e-15)


def test_frame_operator_below_the_double_range():
    # near 1e-160 the bounds fall below the normal range, and near 1e-170
    # S underflows to 0: both are named, neither divides nor reads as
    # rank-deficient
    vectors = np.random.default_rng(64).standard_normal((3, 2, 4))
    for scale in (1e-160, 1e-170):
        fr = Frame(vectors * scale, dim=2)
        with pytest.raises(ValueError, match="frame bounds fall below the "
                                             "double range"):
            fr.report()
    assert Frame(vectors * 1e-150, dim=2).report().status == "frame"
    assert Frame(vectors * 0.0, dim=2).report().status == "rank-deficient"


# ---------------------------------------------------------------------------
# coefficient transport


def test_transport_on_orthonormal_basis_is_the_operator():
    fr = Frame([e(2, 0), e(2, 1)])
    R = QMatrix([[I, J], [K, Quaternion(1)]])
    lam = fr.coefficient_transport(R)
    assert (lam - R).frobenius_norm() <= 1e-12


def test_transport_carries_coefficients():
    rng = np.random.default_rng(44)
    for n, m in ((2, 5), (3, 7)):
        fr = random_frame(n, m, rng)
        R = random_invertible(n, rng)
        lam = fr.coefficient_transport(R)
        for _ in range(5):
            u = random_vector(n, rng)
            via_matrix = lam @ fr.coefficients(u)
            direct = fr.coefficients(R @ u)
            assert (via_matrix - direct).norm() <= 1e-9 * max(direct.norm(), 1.0)


def test_transport_norm_bound():
    rng = np.random.default_rng(45)
    fr = random_frame(3, 8, rng)
    lo, hi = fr.optimal_bounds().as_tuple()
    R = random_invertible(3, rng)
    lam = fr.coefficient_transport(R)
    assert operator_norm(lam) <= (hi / lo) * operator_norm(R) * (1 + 1e-10)


def test_transport_rejects_wrong_shape():
    fr = doubled_basis()
    with pytest.raises(ValueError, match="expected an operator"):
        fr.coefficient_transport(QMatrix.identity(3))


# ---------------------------------------------------------------------------
# reporting and serialization


def test_report_of_frame():
    rep = doubled_basis().report()
    assert rep.status == "frame"
    assert rep.lower == pytest.approx(1.0)
    assert rep.upper == pytest.approx(2.0)
    assert set(rep.residuals) == {"reconstruction", "dual-reconstruction",
                                  "parseval"}
    assert all(r <= 1e-12 for r in rep.residuals.values())
    assert rep.spectrum == pytest.approx((2.0, 1.0))


def test_report_of_rank_deficient_family():
    rep = Frame([e(2, 0)]).report()
    assert rep.status == "rank-deficient"
    assert rep.residuals == {}
    assert rep.lower == pytest.approx(0.0, abs=1e-15)
    assert rep.upper == pytest.approx(1.0)


@pytest.mark.parametrize("n, m", [(3, 8), (12, 36), (64, 192)])
def test_report_matches_the_product_formulas(n, m):
    # the residuals read the cached S and dual; the reference forms every
    # product afresh: T (T* S^-1) - I and S^-1 (T T*) - I. S is formed as
    # the library defines it: for T = A + C*j its split is
    # (A A^H + C C^H, Z - Z^T) with Z = C A^T, made exactly Hermitian
    fr = random_frame(n, m, np.random.default_rng([n, m]))
    rep = fr.report()
    T = fr.synthesis
    a, c = T.split
    z = c @ a.T
    sa, sb = a @ a.conj().T + c @ c.conj().T, z - z.T
    S = QMatrix.from_split(0.5 * (sa + sa.conj().T), 0.5 * (sb - sb.T))
    spectral = herm_eig(S)
    lam = spectral.eigenvalues
    assert rep.status == ("frame" if lam[-1] > n * FRAME_RTOL * lam[0]
                          else "rank-deficient")
    assert (rep.lower, rep.upper) == (float(lam[-1]), float(lam[0]))
    assert rep.spectrum == tuple(float(x) for x in lam)
    inv = spectral.apply(lambda x: 1.0 / x)
    eye = QMatrix.identity(n)
    scale = np.sqrt(n)
    recon = (T @ (T.H @ inv) - eye).frobenius_norm() / scale
    dual = (inv @ (T @ T.H) - eye).frobenius_norm() / scale
    assert abs(rep.residuals["reconstruction"] - recon) <= 1e-15
    assert abs(rep.residuals["dual-reconstruction"] - dual) <= 1e-15


def test_frame_calculus_forms_each_product_once(split_products, monkeypatch):
    fr = random_frame(4, 40, np.random.default_rng(47))
    fr.report()
    fr.canonical_dual()
    fr.parseval_normalize()
    # S = T T*, T D*, S^-1 S, the Parseval frame's S, S^-1 T and S^-1/2 T
    assert len(split_products) == 6
    assert split_products.count(40) == 3
    # D* is formed once for coefficients and T* once for analysis, however
    # often each is applied
    adjoint = QMatrix.H.fget
    taken = []

    def recording(M):
        taken.append(M)
        return adjoint(M)

    monkeypatch.setattr(QMatrix, "H", property(recording))
    rng = np.random.default_rng(48)
    for _ in range(5):
        u = random_vector(4, rng)
        fr.coefficients(u)
        fr.analysis(u)
    assert len(taken) == 2
    assert taken[0] is fr.canonical_dual().synthesis
    assert taken[1] is fr.synthesis


def test_frame_calculus_copies_no_adjoint(monkeypatch):
    # S = T T* and the residual T D* are products with an adjoint, formed
    # without a copy of T* or D*
    adjoint = QMatrix.H.fget
    taken = []

    def recording(M):
        taken.append(M)
        return adjoint(M)

    monkeypatch.setattr(QMatrix, "H", property(recording))
    fr = random_frame(4, 40, np.random.default_rng(49))
    fr.report()
    fr.canonical_dual()
    fr.parseval_normalize()
    assert taken == []


def test_report_to_dict_shape():
    d = doubled_basis().report().to_dict()
    assert d["status"] == "frame"
    assert set(d["bounds"]) == {"lower", "upper"}
    assert isinstance(d["spectrum"], list)


def test_dict_round_trip():
    rng = np.random.default_rng(46)
    fr = random_frame(3, 6, rng)
    back = Frame.from_dict(fr.to_dict())
    assert back.dim == fr.dim
    assert back.count == fr.count
    assert (back.synthesis - fr.synthesis).frobenius_norm() == 0.0
    T = fr.synthesis
    assert Frame(T.columns(), dim=3).to_dict() == Frame.from_synthesis(T).to_dict()
    empty = Frame([], dim=2).to_dict()
    assert empty == {"dim": 2, "vectors": []}
    assert Frame.from_dict(empty).synthesis.shape == (2, 0)


def test_random_frame_draws_vector_by_vector():
    # the single (m, n, 4) draw consumes the stream exactly like m vector
    # draws, which keeps generated frame files stable for a fixed seed
    fr = random_frame(3, 5, np.random.default_rng(48))
    rng = np.random.default_rng(48)
    old = Frame([random_vector(3, rng) for _ in range(5)], dim=3)
    assert np.array_equal(fr.synthesis.components, old.synthesis.components)


def test_from_dict_rejects_bad_payloads():
    with pytest.raises(ValueError, match='"dim" and "vectors"'):
        Frame.from_dict({"vectors": []})
    with pytest.raises(ValueError, match="positive integer"):
        Frame.from_dict({"dim": 0, "vectors": []})
    with pytest.raises(ValueError, match="must be a list"):
        Frame.from_dict({"dim": 2, "vectors": "nope"})
    with pytest.raises(ValueError, match="vector 0"):
        Frame.from_dict({"dim": 2, "vectors": [[[1, 0, 0, 0]]]})
    with pytest.raises(ValueError, match="positive integer, got True"):
        Frame.from_dict({"dim": True, "vectors": [[[1, 0, 0, 0]]]})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="vector 1, entry 0: .* finite"):
            Frame.from_dict({"dim": 1, "vectors": [[[1, 0, 0, 0]],
                                                   [[0, bad, 0, 0]]]})


def per_vector_synthesis(data: dict) -> np.ndarray:
    """Reference for Frame.from_dict: convert, check and stack one vector at
    a time; returns the (dim, count, 4) components of T or raises."""
    dim = data["dim"]
    columns = []
    for i, entries in enumerate(data["vectors"]):
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (dim, 4):
            raise ValueError(f"vector {i}: expected {dim} entries of 4 "
                             f"components, got shape {arr.shape}")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise ValueError(f"vector {i}, entry {bad[0]}: components must "
                             f"be finite, got {arr[bad[0]].tolist()}")
        columns.append(arr)
    return np.stack(columns, axis=1) if columns else np.zeros((dim, 0, 4))


def test_from_dict_matches_the_per_vector_path():
    rng = np.random.default_rng(49)
    vectors = rng.standard_normal((7, 3, 4)).tolist()
    vectors[2][1] = [-0.0, 0, 5e-324, 1]     # a signed zero, ints, a subnormal
    for data in ({"dim": 3, "vectors": vectors}, {"dim": 3, "vectors": []}):
        got = Frame.from_dict(data).synthesis.components
        want = per_vector_synthesis(data)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("vectors", [
    [[[1, 0, 0, 0]] * 2] * 3,                                    # wrong dim
    [[[1, 0, 0, 0]] * 3, [[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]] * 3],  # short
    [[[1, 0, 0, 0]] * 3, [[1, 0, 0, 0], [0, np.inf, 0, 0], [1, 0, 0, 0]]],
    [[[1, 0, 0, 0]] * 3, [[1, 0, 0, 0]] * 2, [[0, np.nan, 0, 0]] * 3],
    [[[1, 0, 0]] * 4] * 3,                  # 3 x 4 x 3: the size of 3 x 3 x 4
], ids=["wrong-dim", "short-vector", "non-finite", "two-bad-vectors",
        "same-size-other-shape"])
def test_from_dict_errors_match_the_per_vector_path(vectors):
    data = {"dim": 3, "vectors": vectors}
    with pytest.raises(ValueError) as want:
        per_vector_synthesis(data)
    with pytest.raises(ValueError) as got:
        Frame.from_dict(data)
    assert str(got.value) == str(want.value)


def test_serialized_floats_are_exact():
    rng = np.random.default_rng(47)
    fr = random_frame(2, 5, rng)
    data = fr.to_dict()
    assert data["vectors"][0][0][0] == fr[0][0].a0
    # a zero keeps its sign on the way out
    data = Frame([-e(2, 0)]).to_dict()
    assert data["vectors"] == [[[-1.0, -0.0, -0.0, -0.0],
                                [-0.0, -0.0, -0.0, -0.0]]]
    assert np.all(np.signbit(np.asarray(data["vectors"])))
    assert json.dumps(data).count("-0.0") == 7
