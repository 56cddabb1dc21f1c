"""Frame calculus: bounds, coefficients, duals, Parseval form, transport."""

import numpy as np
import pytest

from qframes.frames import Frame, PythagorasCheck
from qframes.qlinalg import QMatrix, QVector, operator_norm
from qframes.quaternion import I, J, K, Quaternion
from qframes.sampling import (
    random_frame,
    random_invertible,
    random_matrix,
    random_vector,
)

RECON_TOL = 1e-9        # relative reconstruction residual for random frames
BOUND_TOL = 1e-9        # relative slack in frame-inequality checks

e = QVector.basis


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
    with pytest.raises(ValueError, match="rank-deficient"):
        fr.coefficients(e(2, 0))


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


def test_pythagoras_rejects_non_representation():
    fr = doubled_basis()
    u = e(2, 0)
    bogus = QVector([Quaternion(5), Quaternion(), Quaternion()])
    with pytest.raises(ValueError, match="do not represent"):
        fr.pythagoras_check(u, bogus)


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


def test_serialized_floats_are_exact():
    rng = np.random.default_rng(47)
    fr = random_frame(2, 5, rng)
    data = fr.to_dict()
    assert data["vectors"][0][0][0] == fr[0][0].a0
