"""Right-module linear algebra: inner products, adjoints, spectra, inverses."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qframes.qlinalg
from qframes.quaternion import I, J, K, ONE, Quaternion
from qframes.qlinalg import (
    HERMITIAN_TOL,
    POLISH_TOL,
    RANK_RTOL,
    QMatrix,
    QVector,
    _embedded_svd,
    _fold,
    _hermitian_outer,
    _over,
    _polar,
    _split_matmul_adjoint,
    _validate_pairing,
    complex_adjoint,
    embed_vector,
    herm_eig,
    inner,
    is_bounded_below,
    is_surjective,
    kernel_basis,
    matrix_rank,
    matvec,
    operator_norm,
    orthogonal_projector,
    pinv,
    solve_min_norm,
    sqrt_psd,
    svd,
    unembed_vector,
)
from qframes.sampling import (
    random_hermitian,
    random_matrix,
    random_rank_deficient,
    random_unitary,
    random_vector,
    random_with_spectrum,
)

FACTOR_TOL = 1e-9       # relative residual allowed in any factorization
UNITARY_TOL = 1e-10     # entrywise drift allowed in orthonormality checks

e = QVector.basis


def frob(M: QMatrix) -> float:
    return M.frobenius_norm()


# ---------------------------------------------------------------------------
# inner product


def test_norms_of_entries_beyond_the_square_root_of_the_largest_double():
    # the squares overflow (at 1e160) or underflow (at 1e-170); the norm is
    # summed again after scaling by a power of two
    for c in (1e160, 1e-170):
        v = QVector(np.ones((3, 4)) * c)
        assert v.norm() == pytest.approx(np.sqrt(12) * c, rel=1e-15)
        M = QMatrix(np.ones((2, 3, 4)) * c)
        assert M.frobenius_norm() == pytest.approx(np.sqrt(24) * c, rel=1e-15)
        assert M.column_norms() == pytest.approx(np.full(3, np.sqrt(8) * c),
                                                 rel=1e-15)
        assert M.entry_moduli() == pytest.approx(np.full((2, 3), 2 * c),
                                                 rel=1e-15)


def test_norms_of_ordinary_entries_are_the_plain_sum():
    # no rescaling when the sum of squares is finite: the same bits as ever
    rng = np.random.default_rng(62)
    v, M = random_vector(5, rng), random_matrix(3, 4, rng)
    for x, norm in ((v, v.norm()), (M, M.frobenius_norm())):
        a, b = x.split
        assert norm == float(np.sqrt(np.vdot(a, a).real + np.vdot(b, b).real))
    a, b = M.split
    plain = np.sqrt((a.conj() * a).real.sum(axis=0)
                    + (b.conj() * b).real.sum(axis=0))
    assert np.array_equal(M.column_norms(), plain)


def test_inner_right_linearity_on_basis():
    q = Quaternion(1, 0, 2, 0)  # 1 + 2j
    u = e(2, 0)
    assert inner(u, u * q) == q


def test_inner_orthonormal_basis():
    assert inner(e(2, 0), e(2, 1)) == Quaternion()


def test_inner_imaginary_example():
    # <(i,0), (j,0)> = conj(i) j = -i j = -k
    u = QVector([I, Quaternion()])
    v = QVector([J, Quaternion()])
    assert inner(u, v) == -K


def test_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        u, v = random_vector(3, rng), random_vector(3, rng)
        gap = inner(u, v) - inner(v, u).conjugate()
        assert gap.modulus() <= 1e-12 * (u.norm() * v.norm())


def test_inner_right_homogeneity_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u, v = random_vector(4, rng), random_vector(4, rng)
        q = Quaternion(*rng.standard_normal(4))
        gap = inner(v, u * q) - inner(v, u) * q
        assert gap.modulus() <= 1e-12 * (u.norm() * v.norm() * q.modulus() + 1)


def test_cauchy_schwarz():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        u, v = random_vector(3, rng), random_vector(3, rng)
        assert inner(u, v).modulus() <= u.norm() * v.norm() * (1 + 1e-12)


def test_inner_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        inner(e(2, 0), e(3, 0))


# ---------------------------------------------------------------------------
# matrix action


def test_identity_action():
    rng = np.random.default_rng(21)
    u = random_vector(3, rng)
    out = QMatrix.identity(3) @ u
    assert np.allclose(out.components, u.components, atol=0)


def test_diagonal_left_action_twists():
    # diag(j, j) applied to (i, 0): j i = -k in the first slot
    M = QMatrix.diag([J, J])
    u = QVector([I, Quaternion()])
    out = M @ u
    assert out[0] == -K
    assert out[1] == Quaternion()


def test_action_commutes_with_right_scalars():
    rng = np.random.default_rng(22)
    for _ in range(200):
        M = random_matrix(3, 3, rng)
        u = random_vector(3, rng)
        q = Quaternion(*rng.standard_normal(4))
        lhs = M @ (u * q)
        rhs = (M @ u) * q
        scale = operator_norm(M) * u.norm() * q.modulus() + 1
        assert (lhs - rhs).norm() <= 1e-12 * scale


def test_matmul_associates_with_action():
    rng = np.random.default_rng(23)
    M = random_matrix(4, 3, rng)
    N = random_matrix(3, 5, rng)
    u = random_vector(5, rng)
    lhs = (M @ N) @ u
    rhs = M @ (N @ u)
    assert (lhs - rhs).norm() <= 1e-12 * (lhs.norm() + 1)
    assert matvec(M, N @ u)[0] == rhs[0]


def test_shape_mismatch_messages():
    with pytest.raises(ValueError, match="cannot multiply"):
        QMatrix.identity(2) @ QMatrix.zeros(3, 1)
    with pytest.raises(ValueError, match="cannot apply"):
        QMatrix.identity(2) @ e(3, 0)


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_on_diagonal():
    M = QMatrix.diag([I])
    assert M.H[0, 0] == -I


def test_adjoint_fixes_real_symmetric():
    M = QMatrix.from_real([[1.0, 2.0], [2.0, 5.0]])
    assert np.allclose(M.H.components, M.components, atol=0)


def test_adjoint_defining_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        M = random_matrix(3, 4, rng)
        u, v = random_vector(3, rng), random_vector(4, rng)
        gap = inner(M.H @ u, v) - inner(u, M @ v)
        assert gap.modulus() <= 1e-11 * (operator_norm(M) * u.norm() * v.norm())


def test_adjoint_reverses_products():
    rng = np.random.default_rng(32)
    M = random_matrix(3, 4, rng)
    N = random_matrix(4, 2, rng)
    gap = (M @ N).H - N.H @ M.H
    assert frob(gap) <= 1e-12 * (frob(M) * frob(N))


# ---------------------------------------------------------------------------
# complex embedding


def test_complex_adjoint_of_j():
    chi = complex_adjoint(QMatrix([[J]]))
    assert np.allclose(chi, np.array([[0, 1], [-1, 0]], dtype=complex), atol=0)


def test_complex_adjoint_of_i():
    chi = complex_adjoint(QMatrix([[I]]))
    assert np.allclose(chi, np.diag([1j, -1j]), atol=0)


def test_embedding_is_star_homomorphism():
    rng = np.random.default_rng(41)
    for _ in range(50):
        M = random_matrix(3, 3, rng)
        N = random_matrix(3, 3, rng)
        lhs = complex_adjoint(M @ N)
        rhs = complex_adjoint(M) @ complex_adjoint(N)
        scale = np.linalg.norm(complex_adjoint(M)) * np.linalg.norm(complex_adjoint(N))
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale
        assert np.linalg.norm(complex_adjoint(M.H) - complex_adjoint(M).conj().T) \
            <= 1e-12 * np.linalg.norm(complex_adjoint(M))


def test_embedding_intertwines_vectors():
    rng = np.random.default_rng(42)
    M = random_matrix(4, 3, rng)
    A, B = M.split
    assert np.array_equal(complex_adjoint(M),
                          np.block([[A, B], [-B.conj(), A.conj()]]))
    u = random_vector(3, rng)
    gap = complex_adjoint(M) @ embed_vector(u) - embed_vector(M @ u)
    assert np.linalg.norm(gap) <= 1e-12 * (operator_norm(M) * u.norm())


def test_embed_round_trip_and_isometry():
    rng = np.random.default_rng(43)
    u = random_vector(5, rng)
    z = embed_vector(u)
    assert np.allclose(unembed_vector(z).components, u.components, atol=0)
    assert abs(np.linalg.norm(z) - u.norm()) <= 1e-13 * u.norm()


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition


def test_herm_eig_real_diagonal():
    eig = herm_eig(QMatrix.diag([2.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [2.0, 1.0], atol=1e-14)
    U = eig.eigenvectors
    # eigenvector columns are unique only up to a right unit scalar
    assert abs(U[0, 0].modulus() - 1) <= 1e-12
    assert abs(U[1, 1].modulus() - 1) <= 1e-12
    assert U[0, 1].modulus() <= 1e-12


def test_herm_eig_quaternionic_block():
    # [[1, j], [-j, 1]] squares to 2 M - 0, eigenvalues 2 and 0
    M = QMatrix([[ONE, J], [-J, ONE]])
    eig = herm_eig(M)
    assert np.allclose(eig.eigenvalues, [2.0, 0.0], atol=1e-12)
    U = eig.eigenvectors
    refactor = U @ QMatrix.diag(eig.eigenvalues) @ U.H - M
    assert frob(refactor) <= FACTOR_TOL * frob(M)


def test_herm_eig_zero_matrix():
    eig = herm_eig(QMatrix.zeros(3, 3))
    assert np.allclose(eig.eigenvalues, 0.0, atol=0)
    drift = (eig.eigenvectors.H @ eig.eigenvectors - QMatrix.identity(3))
    assert drift.entry_moduli().max() <= UNITARY_TOL


def test_herm_eig_random_bulk():
    rng = np.random.default_rng(51)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            M = random_hermitian(n, rng)
            eig = herm_eig(M)
            assert np.all(np.diff(eig.eigenvalues) <= 0)
            U = eig.eigenvectors
            refactor = U @ QMatrix.diag(eig.eigenvalues) @ U.H - M
            assert frob(refactor) <= FACTOR_TOL * max(frob(M), 1e-300)
            drift = U.H @ U - QMatrix.identity(n)
            assert drift.entry_moduli().max() <= UNITARY_TOL
            # matrix functions come from the embedded factors; they agree
            # with the recovered eigenvectors and are exactly Hermitian
            F = eig.apply(np.exp)
            reference = U @ QMatrix.diag(np.exp(eig.eigenvalues)) @ U.H
            assert frob(F - reference) <= 1e-12 * frob(reference)
            assert np.array_equal(F.components, F.H.components)


def test_herm_eig_degenerate_spectra():
    rng = np.random.default_rng(52)
    for lam in ([3.0, 3.0, 3.0], [2.0, 2.0, -1.0], [1.0, 1.0 + 5e-11, 1.0 - 5e-11],
                [7.0, 7.0, 7.0, 0.0, 0.0]):
        lam = np.asarray(lam)
        n = len(lam)
        Q = random_unitary(n, rng)
        M = Q @ QMatrix.diag(lam) @ Q.H
        eig = herm_eig(M)
        assert np.max(np.abs(np.sort(eig.eigenvalues) - np.sort(lam))) \
            <= 1e-10 * (1 + np.abs(lam).max())
        U = eig.eigenvectors
        refactor = U @ QMatrix.diag(eig.eigenvalues) @ U.H - M
        assert frob(refactor) <= FACTOR_TOL * frob(M)
        drift = U.H @ U - QMatrix.identity(n)
        assert drift.entry_moduli().max() <= UNITARY_TOL


def test_herm_eig_close_groups_stay_orthonormal(split_products):
    # 1 and 1 + 5e-10 lie just outside CLUSTER_TOL, so LAPACK's vectors of
    # the two groups carry cross terms of order 1e-6 that the polish has to
    # remove in Newton-Schulz steps; 1 and 1 + 5e-11 form one group whose
    # vectors must still follow their values: its polar factor is the
    # orthonormal block nearest to LAPACK's columns, so its polish stops at
    # the first Gram matrix
    rng = np.random.default_rng(57)
    for lam, products in (([3.0, 2.0, 1.0 + 5e-10, 1.0], (3, 4)),
                          ([3.0, 2.0, 1.0 + 5e-11, 1.0], (1,)),
                          ([1.0, 1.0, 1.0, 1.0 + 5e-11], (1,))):
        for _ in range(5):
            Q = random_unitary(4, rng)
            M = Q @ QMatrix.diag(lam) @ Q.H
            eig = herm_eig(M)
            split_products.clear()
            U = eig.eigenvectors
            assert len(split_products) in products
            refactor = U @ QMatrix.diag(eig.eigenvalues) @ U.H - M
            assert frob(refactor) <= 1e-14 * frob(M)
            drift = U.H @ U - QMatrix.identity(4)
            assert drift.entry_moduli().max() <= POLISH_TOL


def test_polish_stops_once_orthonormal(split_products):
    rng = np.random.default_rng(58)
    eig = herm_eig(random_hermitian(4, rng))
    assert split_products == []
    U = eig.eigenvectors
    # LAPACK's vectors of a simple spectrum are orthonormal to rounding: the
    # one product is the Gram matrix that shows it
    assert len(split_products) == 1
    assert (U.H @ U - QMatrix.identity(4)).entry_moduli().max() <= POLISH_TOL


def test_random_unitary_is_one_polar_factor(monkeypatch):
    # the polar factor of chi(X) for a Ginibre draw X keeps the embedding,
    # and folded it is unitary on both sides, with no eigen-recovery
    def unreachable(*args):
        raise AssertionError("a recovery path was reached")

    for name in ("herm_eig", "_recover", "_polish"):
        monkeypatch.setattr(qframes.qlinalg, name, unreachable)
    for n in range(1, 11):
        for seed in range(40):
            U = random_unitary(n, np.random.default_rng(seed))
            eye = QMatrix.identity(n)
            assert (U.H @ U - eye).entry_moduli().max() <= 1e-13
            assert (U @ U.H - eye).entry_moduli().max() <= 1e-13
            X = random_matrix(n, n, np.random.default_rng(seed))
            Q, _ = _polar(complex_adjoint(X))
            assert np.abs(Q - complex_adjoint(_fold(Q))).max() <= 1e-13
            assert np.array_equal(_fold(Q).components, U.components)


def test_hermitian_drift_matches_the_adjoint_difference():
    # the check reads the drift off chi(M); it must report the entries and
    # values of M - M* exactly
    rng = np.random.default_rng(60)
    comps = np.array(random_hermitian(3, rng).components)
    comps[2, 0] += [1e-6, -2e-6, 3e-7, 5e-7]
    M = QMatrix(comps)
    drift = (M - M.H).entry_moduli()
    i, k = np.unravel_index(int(np.argmax(drift)), drift.shape)
    scale = float(M.entry_moduli().max())
    assert drift[i, k] > HERMITIAN_TOL * scale
    with pytest.raises(ValueError) as info:
        herm_eig(M)
    assert str(info.value) == (
        f"matrix is not Hermitian: entry ({i}, {k}) differs from its "
        f"mirror by {drift[i, k]:.3e} against scale {scale:.3e}")


def test_herm_eig_doubling_visible_in_embedding():
    rng = np.random.default_rng(53)
    M = random_hermitian(4, rng)
    w = np.linalg.eigvalsh(complex_adjoint(M))
    assert np.all(np.abs(w[0::2] - w[1::2]) <= 1e-8 * (1 + np.abs(w[0::2])))


def test_the_smallest_subnormal_pairs_to_itself():
    # in a spectrum below 2^1023 a pair is summed before it is halved, so its
    # mean is correctly rounded: 0.5 * 5e-324 alone would round to 0
    M = QMatrix.diag([5e-324] * 4)
    assert herm_eig(M).eigenvalues.tolist() == [5e-324] * 4
    assert svd(M).singular_values.tolist() == [5e-324] * 4
    # 1.5 units of the last place rounds to even, 2 units; halving each
    # term first would read 1
    pair = _validate_pairing(np.array([1.0, 1.0, 1e-323, 5e-324]), "eigen")
    assert pair.tolist() == [1.0, 1e-323]


def test_pairing_of_opposite_values_near_the_largest_double():
    # the pairing test compares halved values, so |even - odd| never overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="at position 0: "
                           r"-1\.7e\+308 vs 1\.7e\+308"):
            _validate_pairing(np.array([-1.7e308, 1.7e308]), "eigen")
        # beside them a subnormal pair is still summed before it is halved
        pairs = np.array([1.7e308, 1.7e308, 1e-323, 5e-324])
        assert _validate_pairing(pairs, "eigen").tolist() == [1.7e308, 1e-323]


def test_pairing_width_is_relative_to_the_spectrum():
    # an unpaired spectrum is caught at any scale, and the noise values of a
    # rank-deficient matrix, which scale with its largest value, still pair
    unpaired = np.array([3.0, 3.0, 2.0, 1.0])
    paired_noise = np.array([1.0, 1.0, 3e-16, 1e-16])
    for scale in (1e-200, 1.0, 2.0 ** 500):
        with pytest.raises(np.linalg.LinAlgError, match="at position 2"):
            _validate_pairing(unpaired * scale, "singular")
        assert np.allclose(_validate_pairing(paired_noise * scale, "singular"),
                           [scale, 2e-16 * scale], rtol=1e-15, atol=0)


def test_herm_eig_rejects_non_hermitian():
    M = QMatrix([[ONE, ONE], [2 * ONE, ONE]])
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(M)
    rng = np.random.default_rng(54)
    M = random_hermitian(3, rng)
    comps = np.array(M.components)
    comps[0, 1, 0] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(QMatrix(comps))


def test_herm_eig_rejects_huge_non_hermitian():
    # moduli near 1e160 would overflow if squared, and the drift read inf
    # against an inf scale; it must still be named
    M = QMatrix.from_real(np.array([[1.0, 5.0], [0.0, 1.0]]) * 1e160)
    with pytest.raises(ValueError, match=r"not Hermitian: entry \(\d, \d\) "
                       r"differs from its mirror by 5\.000e\+160 against "
                       r"scale 5\.000e\+160"):
        herm_eig(M)


def test_pairing_failure_prints_plain_floats():
    with pytest.raises(np.linalg.LinAlgError) as info:
        _validate_pairing(np.array([1.0, 2.0]), "eigen")
    assert str(info.value) == ("embedded eigen spectrum failed to pair at "
                               "position 0: 1.0 vs 2.0")


def test_herm_eig_of_exactly_hermitian_input_matches_explicit_symmetrization():
    # S = T T* and (X + X*) / 2 are Hermitian bit for bit; in the normal
    # range their spectra have the bits of the explicit (chi + chi^H) / 2
    rng = np.random.default_rng(71)
    for n, m in ((1, 1), (3, 8), (6, 6), (12, 36)):
        for M in (_hermitian_outer(random_matrix(n, m, rng)),
                  random_hermitian(n, rng)):
            assert np.array_equal(M.components, M.H.components)
            chi = complex_adjoint(M)
            doubled, W = np.linalg.eigh(0.5 * (chi + chi.conj().T))
            eig = herm_eig(M)
            assert np.array_equal(eig.embedded, W)
            assert np.array_equal(eig.eigenvalues,
                                  _validate_pairing(doubled, "eigen")[::-1])


def test_herm_eig_hands_exactly_hermitian_input_to_lapack_unchanged(
        monkeypatch):
    # halving the odd subnormal 5e-324 rounds it to 0, so a symmetrized
    # copy of M would differ from chi(M) in those entries
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([[1.0, 3 * tiny + 1j * tiny], [3 * tiny - 1j * tiny, 2.0]])
    b = np.array([[0.0, tiny - 1j * tiny], [-tiny + 1j * tiny, 0.0]])
    M = QMatrix.from_split(a, b)
    assert np.array_equal(M.components, M.H.components)
    seen = []
    eigh = np.linalg.eigh

    def recording(x):
        seen.append(x.copy())
        return eigh(x)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    herm_eig(M)
    assert len(seen) == 1
    assert np.array_equal(seen[0], complex_adjoint(M))


def test_herm_eig_symmetrizes_input_inside_the_tolerance():
    rng = np.random.default_rng(72)
    for n in (1, 2, 5):
        comps = np.array(random_hermitian(n, rng).components)
        comps[n - 1, 0] += [3e-13, -2e-13, 1e-13, 4e-13]
        M = QMatrix(comps)
        assert not np.array_equal(M.components, M.H.components)
        # (M + M*) / 2 as QMatrix arithmetic, exactly Hermitian
        eig, ref = herm_eig(M), herm_eig((M + M.H) * 0.5)
        assert np.array_equal(eig.eigenvalues, ref.eigenvalues)
        assert np.array_equal(eig.embedded, ref.embedded)
        comps[n - 1, 0] += [0.0, 1e-6, 0.0, 0.0]
        with pytest.raises(ValueError, match=rf"not Hermitian: entry "
                           rf"\(({n - 1}, 0|0, {n - 1})\)"):
            herm_eig(QMatrix(comps))


def _apply_through_the_whole_embedding(eig, fn):
    """HermEig.apply as it was formed on the 2n x 2n array: symmetrize X,
    then fold it."""
    values = np.asarray(fn(eig.eigenvalues), dtype=float)
    W = eig.embedded
    X = (W * np.repeat(values[::-1], 2)) @ W.conj().T
    return _fold(0.5 * (X + X.conj().T))


@pytest.mark.parametrize("k", [-400, 0, 400])
def test_apply_folds_on_the_blocks(k):
    # Folding and symmetrizing on the n x n blocks averages the same four
    # blocks of X as symmetrizing X first, with one rounding of the sum
    # fewer: the two agree entrywise within 2 eps * max |fn|, and the blocks
    # are Hermitian and skew-symmetric bit for bit.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(73)
    spectra = (rng.standard_normal(6), [3.0, 3.0, 3.0, 1.0, 1.0, -2.0],
               [1.0, 1.0 + 5e-11, 1.0 - 5e-11, 2.0, 2.0 + 1e-9, 0.5],
               [7.0, 7.0, 7.0, 0.0, 0.0], [4.0])
    fns = (lambda v: v, np.square, lambda v: np.sqrt(np.abs(v)),
           lambda v: np.divide(1.0, v, out=np.zeros_like(v), where=v != 0))
    for lam in spectra:
        lam = np.ldexp(np.asarray(lam), k)
        Q = random_unitary(len(lam), rng)
        eig = herm_eig(Q @ QMatrix.diag(lam) @ Q.H)
        for fn in fns:
            F = eig.apply(fn)
            a, b = F.split
            assert np.array_equal(a, a.conj().T)
            assert np.array_equal(b, -b.T)
            ref = _apply_through_the_whole_embedding(eig, fn)
            gap = (F - ref).entry_moduli().max()
            assert gap <= 2 * eps * np.abs(fn(eig.eigenvalues)).max()


def test_apply_at_the_edge_of_the_double_range():
    # S = 2^-1022 is the smallest normal double; S^-1 = 2^1022 fits, though
    # twice it does not, and S^1/2 = 2^-511
    eig = herm_eig(QMatrix.from_real(np.array([[2.0 ** -1022]])))
    with np.errstate(all="raise"):
        inv = eig.apply(np.reciprocal)
        root = eig.apply(np.sqrt)
    assert inv.components.tolist() == [[[2.0 ** 1022, 0.0, 0.0, 0.0]]]
    assert root.components.tolist() == [[[2.0 ** -511, 0.0, 0.0, 0.0]]]


def _long(x: np.ndarray) -> np.ndarray:
    return x.astype(np.clongdouble)


def test_hermitian_products_match_a_long_double_reference():
    # S = T T* and S^-1, S^-1/2 from HermEig.apply, each against the same
    # formula summed in long double: S's split is (A A^H + C C^H,
    # C A^T - A C^T) for T = A + C*j, and a matrix function is the fold of
    # X = W diag(fn / 2) W* over all four blocks, symmetrized. Both stay
    # within 3 eps of the largest entry; they read about 1.7 eps and 1.5 eps
    eps = np.finfo(float).eps
    fns = (np.reciprocal, lambda v: 1.0 / np.sqrt(v))
    for n, m in ((1, 1), (3, 8), (5, 7), (12, 36), (64, 192)):
        T = random_matrix(n, m, np.random.default_rng([n, m, 99]))
        S = _hermitian_outer(T)
        a, c = (_long(x) for x in T.split)
        sa, sb = S.split
        gap = np.hypot(np.abs(sa - (a @ a.conj().T + c @ c.conj().T)),
                       np.abs(sb - (c @ a.T - a @ c.T)))
        assert float(gap.max()) <= 3 * eps * S.entry_moduli().max()
        eig = herm_eig(S)
        W = _long(eig.embedded)
        for fn in fns:
            values = fn(eig.eigenvalues)
            X = (W * np.repeat(values[::-1] / 2, 2)) @ W.conj().T
            p = X[:n, :n] + X[n:, n:].conj()
            q = X[:n, n:] - X[n:, :n].conj()
            fa, fb = eig.apply(fn).split
            gap = np.hypot(np.abs(fa - (p + p.conj().T) / 2),
                           np.abs(fb - (q - q.T) / 2))
            assert float(gap.max()) <= 3 * eps * np.abs(values).max()


@pytest.mark.parametrize("lam", ([1.7e308, 1e308, -1.7e308],
                                 [1e308, 1e308, 5e307],
                                 [1.7e308, 1e308, 1e300],
                                 [3e-323, 2e-323, 1e-323],
                                 [5e-324] * 4))
def test_vectors_at_the_ends_of_the_double_range(lam):
    # values near the largest double are grouped without overflow, so
    # distinct ones keep vectors of their own: each column lies on the
    # diagonal entries that hold its value; subnormal spectra recover too
    M = QMatrix.diag(lam)
    lam = np.asarray(lam)
    n = len(lam)
    eig, fac = herm_eig(M), svd(M)
    for U, values, diag in ((eig.eigenvectors, eig.eigenvalues, lam),
                            (fac.u, fac.singular_values, np.abs(lam)),
                            (fac.v, fac.singular_values, np.abs(lam))):
        assert (U.H @ U - QMatrix.identity(n)).entry_moduli().max() <= 1e-13
        if np.unique(diag).size > 1:
            off = diag[:, None] != values[None, :]
            assert U.entry_moduli()[off].max() <= 1e-15


def test_split_matmul_adjoint_is_the_product_with_the_adjoint():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(74)
    for m, n, k in ((1, 1, 1), (3, 4, 5), (4, 3, 1), (6, 6, 20), (2, 5, 0)):
        X, Y = random_matrix(m, k, rng), random_matrix(n, k, rng)
        a, b = _split_matmul_adjoint(*X.split, *Y.split)
        ref = X @ Y.H
        bound = 4 * k * eps * (X.entry_moduli().max(initial=0.0)
                               * Y.entry_moduli().max(initial=0.0))
        assert a.shape == b.shape == (m, n)
        assert (QMatrix.from_split(a, b) - ref).entry_moduli().max() <= bound


def test_herm_eig_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        herm_eig(QMatrix.zeros(2, 3))


# ---------------------------------------------------------------------------
# PSD square root


def test_sqrt_psd_diagonal():
    root = sqrt_psd(QMatrix.diag([4.0, 1.0]))
    assert np.allclose(root.components, QMatrix.diag([2.0, 1.0]).components,
                       atol=1e-13)


def test_sqrt_psd_identity():
    root = sqrt_psd(QMatrix.identity(3))
    assert np.allclose(root.components, QMatrix.identity(3).components,
                       atol=1e-13)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(61)
    for _ in range(20):
        X = random_matrix(4, 4, rng)
        M = X @ X.H
        root = sqrt_psd(M)
        assert frob(root @ root - M) <= 1e-10 * frob(M)
        # the principal root is Hermitian PSD itself
        assert (root - root.H).entry_moduli().max() <= 1e-12 * frob(M)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semidefinite"):
        sqrt_psd(QMatrix.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# SVD and norms


def test_svd_diagonal():
    fac = svd(QMatrix.diag([3.0, 0.0]))
    assert np.allclose(fac.singular_values, [3.0, 0.0], atol=1e-13)


def test_svd_of_unitary_is_flat():
    rng = np.random.default_rng(71)
    U = random_unitary(4, rng)
    fac = svd(U)
    assert np.max(np.abs(fac.singular_values - 1.0)) <= 1e-12


def test_svd_factorization_bulk():
    rng = np.random.default_rng(72)
    for m, n in ((3, 5), (5, 3), (4, 4), (1, 6), (6, 1)):
        for _ in range(5):
            M = random_matrix(m, n, rng)
            fac = svd(M)
            core = np.zeros((m, n))
            k = min(m, n)
            core[:k, :k] = np.diag(fac.singular_values)
            refactor = fac.u @ QMatrix.from_real(core) @ fac.v.H - M
            assert frob(refactor) <= FACTOR_TOL * frob(M)
            assert np.all(np.diff(fac.singular_values) <= 0)
            assert np.all(fac.singular_values >= 0)
            for f, d in ((fac.u, m), (fac.v, n)):
                drift = f.H @ f - QMatrix.identity(d)
                assert drift.entry_moduli().max() <= UNITARY_TOL


def test_svd_rank_deficient():
    # the zero singular values and the tail of the larger side span one null
    # space, so they are recovered as one group
    rng = np.random.default_rng(73)
    for m, n, rank in ((4, 6, 2), (3, 8, 1), (2, 7, 0), (7, 3, 1)):
        M = random_rank_deficient(m, n, rank, rng)
        fac = svd(M)
        assert fac.rank() == rank
        assert np.all(fac.singular_values[rank:] <= 1e-10)
        k = min(m, n)
        core = np.zeros((m, n))
        core[:k, :k] = np.diag(fac.singular_values)
        refactor = fac.u @ QMatrix.from_real(core) @ fac.v.H - M
        assert frob(refactor) <= FACTOR_TOL * max(frob(M), 1e-300)
        for f, d in ((fac.u, m), (fac.v, n)):
            drift = f.H @ f - QMatrix.identity(d)
            assert drift.entry_moduli().max() <= UNITARY_TOL
        null = kernel_basis(M)
        assert null.shape == (n, n - rank)
        assert frob(M @ null) <= FACTOR_TOL * max(frob(M), 1e-300)


def _power_iteration_norm(M: QMatrix, steps: int = 300) -> float:
    """Independent oracle for the operator norm: iterate v -> M* M v."""
    rng = np.random.default_rng(997)
    v = random_vector(M.shape[1], rng)
    v = v / v.norm()
    value = 0.0
    for _ in range(steps):
        w = M.H @ (M @ v)
        value = w.norm()
        if value == 0:
            return 0.0
        v = w / value
    return float(np.sqrt(value))


def test_operator_norm_against_power_iteration():
    rng = np.random.default_rng(74)
    for _ in range(10):
        M = random_matrix(4, 3, rng)
        assert abs(operator_norm(M) - _power_iteration_norm(M)) \
            <= 1e-6 * operator_norm(M)


def test_operator_norm_basics():
    assert operator_norm(QMatrix.identity(3)) == pytest.approx(1.0, abs=1e-13)
    assert operator_norm(QMatrix.diag([I * 2, ONE])) == pytest.approx(2.0, abs=1e-13)
    rng = np.random.default_rng(75)
    for _ in range(50):
        M = random_matrix(3, 3, rng)
        N = random_matrix(3, 3, rng)
        assert operator_norm(M @ N) \
            <= operator_norm(M) * operator_norm(N) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# pseudoinverse and solvers


def test_pinv_diagonal():
    P = pinv(QMatrix.diag([2.0, 0.0]))
    assert np.allclose(P.components, QMatrix.diag([0.5, 0.0]).components,
                       atol=1e-13)


def test_pinv_orthonormal_columns_is_adjoint():
    rng = np.random.default_rng(81)
    U = random_unitary(4, rng)
    ua, ub = U.split
    B = QMatrix.from_split(ua[:, :2], ub[:, :2])
    assert frob(pinv(B) - B.H) <= 1e-12


def test_penrose_conditions_all_ranks():
    rng = np.random.default_rng(82)
    for m, n in ((3, 5), (5, 3), (4, 4)):
        k = min(m, n)
        for rank in range(k + 1):
            if rank == k:
                M = random_with_spectrum(
                    m, n, np.sort(rng.uniform(0.5, 2.0, size=k))[::-1], rng)
            else:
                M = random_rank_deficient(m, n, rank, rng)
            P = pinv(M)
            scale_m = max(frob(M), 1e-300)
            scale_p = max(frob(P), 1e-300)
            fac = svd(M)
            r = fac.rank()
            ua, ub = fac.u.split
            va, vb = fac.v.split
            inv = 1.0 / fac.singular_values[:r]
            reference = (QMatrix.from_split(va[:, :r] * inv, vb[:, :r] * inv)
                         @ QMatrix.from_split(ua[:, :r], ub[:, :r]).H)
            assert frob(P - reference) <= 1e-12 * scale_p
            assert frob(M @ P @ M - M) <= FACTOR_TOL * scale_m
            assert frob(P @ M @ P - P) <= FACTOR_TOL * scale_p
            for proj in (M @ P, P @ M):
                assert (proj - proj.H).entry_moduli().max() <= FACTOR_TOL


def test_pinv_involution():
    rng = np.random.default_rng(83)
    M = random_matrix(3, 5, rng)
    assert frob(pinv(pinv(M)) - M) <= 1e-9 * frob(M)


def test_solve_min_norm_row_example():
    M = QMatrix([[ONE, ONE]])
    x = solve_min_norm(M, QVector([2.0]))
    assert np.allclose(x.components, [[1, 0, 0, 0], [1, 0, 0, 0]], atol=1e-12)


def test_solve_min_norm_identity():
    rng = np.random.default_rng(84)
    v = random_vector(3, rng)
    x = solve_min_norm(QMatrix.identity(3), v)
    assert (x - v).norm() <= 1e-12 * v.norm()


def test_solve_min_norm_minimality():
    rng = np.random.default_rng(85)
    M = random_matrix(2, 5, rng)
    v = M @ random_vector(5, rng)
    x = solve_min_norm(M, v)
    assert (M @ x - v).norm() <= 1e-9 * v.norm()
    null = kernel_basis(M)
    assert (null.H @ x).norm() <= 1e-9 * x.norm()
    for _ in range(20):
        other = x + null @ random_vector(null.shape[1], rng)
        assert x.norm() <= other.norm() * (1 + 1e-12)


def test_solve_min_norm_rejects_off_range():
    M = QMatrix([[ONE, Quaternion()], [ONE, Quaternion()]])  # range = span(e1+e2)
    with pytest.raises(ValueError, match="column 0 is not in the range"):
        solve_min_norm(M, QVector([0.0, 1.0]))
    V = QMatrix([[ONE, ONE, Quaternion()], [ONE, Quaternion(), ONE]])
    with pytest.raises(ValueError, match="column 1 is not in the range"):
        solve_min_norm(M, V)


def test_solve_min_norm_at_a_scale_whose_squares_overflow():
    v = QVector(np.ones((2, 4)) * 1e160)
    x = solve_min_norm(QMatrix.identity(2), v)
    assert x.norm() == pytest.approx(v.norm(), rel=1e-15)
    M = QMatrix([[ONE, Quaternion()], [ONE, Quaternion()]])
    with pytest.raises(ValueError, match="column 0 is not in the range"):
        solve_min_norm(M, QVector([0.0, 1e160]))


@pytest.mark.parametrize("k", [-1000, 0, 1000])
def test_the_range_gate_reads_the_same_at_every_scale(k):
    # a right-hand side wholly off the range is off by all of itself, also
    # where its size is below any fixed floor
    with pytest.raises(ValueError) as raised:
        solve_min_norm(QMatrix.diag([1.0, 0.0]), QVector([0.0, 2.0 ** k]))
    assert str(raised.value) == ("right-hand side column 0 is not in the "
                                 "range: relative residual 1.000e+00")


def test_the_range_gate_refuses_a_nan_column():
    with pytest.raises(ValueError) as raised:
        solve_min_norm(QMatrix.identity(2), QVector(np.full((2, 4), np.nan)))
    assert str(raised.value) == ("right-hand side column 0 is not in the "
                                 "range: relative residual nan")


# 2^-1030 is subnormal, and 1 / 2^-1030 overflows
TINY_SCALE = 2.0 ** -1030


def test_solve_min_norm_below_the_normal_range():
    # M and v scaled together keep the solution; the division by the
    # singular values must not pass through their reciprocals
    rng = np.random.default_rng(86)
    M = random_matrix(3, 5, rng)
    x = solve_min_norm(M, M @ random_vector(5, rng))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        y = solve_min_norm(M * TINY_SCALE, (M @ x) * TINY_SCALE)
    assert (y - x).norm() <= 1e-12 * x.norm()


def test_pinv_beyond_the_double_range_is_refused():
    # pinv(M c) = pinv(M) / c: at c = 2^-1000 it fits, at 2^-1030 it cannot;
    # 2^1023, whose double overflows, still fits
    M = random_matrix(3, 5, np.random.default_rng(87))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        P = pinv(M * 2.0 ** -1000)
        edge = pinv(QMatrix.diag([2.0 ** -1023] * 2))
        assert np.array_equal(edge.components,
                              QMatrix.diag([2.0 ** 1023] * 2).components)
        with pytest.raises(ValueError, match=r"^pseudoinverse exceeds the "
                           r"double range: entry \(\d+, \d+\) overflows$"):
            pinv(M * TINY_SCALE)
    assert frob(P * 2.0 ** -1000 - pinv(M)) <= 1e-12 * frob(pinv(M))


def test_solve_min_norm_checks_the_row_count():
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_min_norm(QMatrix.identity(2), QMatrix.zeros(3, 2))


# ---------------------------------------------------------------------------
# kernel, rank, predicates


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(QMatrix.identity(3)).shape == (3, 0)


def test_kernel_of_row():
    M = QMatrix([[ONE, ONE]])
    null = kernel_basis(M)
    assert null.shape == (2, 1)
    k = null.column(0)
    assert abs(k.norm() - 1) <= 1e-12
    assert (M @ k).norm() <= 1e-12
    # collinear with (1, -1)/sqrt(2) up to a right unit scalar
    reference = QVector([[2 ** -0.5, 0, 0, 0], [-(2 ** -0.5), 0, 0, 0]])
    assert abs(inner(reference, k).modulus() - 1) <= 1e-12


def test_rank_nullity():
    rng = np.random.default_rng(91)
    for m, n in ((3, 6), (6, 3), (4, 4), (12, 36)):
        for rank in range(min(m, n)):
            M = random_rank_deficient(m, n, rank, rng)
            assert matrix_rank(M) == rank == svd(M).rank()
            null = kernel_basis(M)
            assert null.shape == (n, n - rank)
            drift = null.H @ null - QMatrix.identity(n - rank)
            assert drift.entry_moduli().max(initial=0.0) <= UNITARY_TOL
            assert frob(M @ null) <= FACTOR_TOL * max(frob(M), 1e-300)


def test_kernel_basis_is_one_full_svd_and_one_polar_factor(lapack_svd_calls):
    # the kernel is read from one full SVD of the embedding, and its basis
    # from the thin SVD of one sketched 18 x 14 block; neither the left
    # factor nor the paired right vectors are recovered
    M = random_rank_deficient(4, 9, 2, np.random.default_rng(92))
    lapack_svd_calls.clear()
    assert kernel_basis(M).shape == (9, 7)
    assert lapack_svd_calls == ["full", "thin"]


def _columns(X: QMatrix, start: int) -> QMatrix:
    a, b = X.split
    return QMatrix.from_split(a[:, start:], b[:, start:])


def test_null_spaces_stay_orthonormal_at_every_rank_and_scale():
    # the null groups of kernel_basis and of both svd factors come from one
    # polar factor; the power-of-two scalings are exact
    rng = np.random.default_rng(94)
    for m, n in ((3, 6), (6, 3), (4, 4), (5, 9)):
        for rank in range(min(m, n)):
            M0 = random_rank_deficient(m, n, rank, rng)
            for k in (-500, 0, 500):
                M = M0 * 2.0 ** k
                fac = svd(M)
                for op, null in ((M, kernel_basis(M)),
                                 (M, _columns(fac.v, rank)),
                                 (M.H, _columns(fac.u, rank))):
                    d = null.shape[1]
                    drift = (null.H @ null - QMatrix.identity(d)).entry_moduli()
                    assert drift.max(initial=0.0) <= 1e-13
                    assert frob(op @ null) <= 1e-13 * frob(M)


@pytest.fixture
def polar_calls(monkeypatch):
    """Record the column count of every _polar call of the recovery."""
    calls = []
    polar = qframes.qlinalg._polar

    def counting(P):
        calls.append(P.shape[1])
        return polar(P)

    monkeypatch.setattr(qframes.qlinalg, "_polar", counting)
    return calls


def test_each_degenerate_group_takes_one_polar_factor(polar_calls):
    # a cluster of close values and a null space alike are one block
    # [Y, partner(Y)] of 2k columns, orthonormalized by one polar factor
    rng = np.random.default_rng(95)
    Q = random_unitary(4, rng)
    M = Q @ QMatrix.diag([3.0, 2.0, 1.0 + 5e-11, 1.0]) @ Q.H
    polar_calls.clear()
    herm_eig(M).eigenvectors
    assert polar_calls == [4]
    polar_calls.clear()
    herm_eig(QMatrix.zeros(3, 3)).eigenvectors
    assert polar_calls == [6]
    # rank 0 is left out: the LAPACK columns of a zero matrix are those of
    # an identity, which reach the sketch for even sizes (next test)
    for m, n in ((3, 8), (8, 3), (4, 4)):
        for rank in range(1, min(m, n)):
            M = random_rank_deficient(m, n, rank, rng)
            polar_calls.clear()
            kernel_basis(M)
            assert polar_calls == [2 * d for d in (n - rank,) if d > 1]
            polar_calls.clear()
            svd(M)
            assert polar_calls == [2 * d for d in (n - rank, m - rank)
                                   if d > 1]


def test_coinciding_values_reach_the_sketch_and_stay_orthonormal(
        polar_calls):
    # LAPACK's columns of an identity pair e_t with the partner of another
    # even column for even n, so that [Y, partner(Y)] is singular and the
    # group is taken from the sketch instead; the scalings are exact
    sketched = set()
    for n in range(1, 11):
        for k in (-600, 0, 600):
            M = QMatrix.identity(n) * 2.0 ** k
            polar_calls.clear()
            U = herm_eig(M).eigenvectors
            assert len(polar_calls) == (0 if n == 1 else 1 if n % 2 else 2)
            if len(polar_calls) == 2:
                sketched.add(n)
            drift = (U.H @ U - QMatrix.identity(n)).entry_moduli()
            assert drift.max() <= 1e-13
    assert sketched == {2, 4, 6, 8, 10}


def test_a_sketch_below_the_floor_is_used_only_when_needed(polar_calls,
                                                           monkeypatch):
    # a sketch with equal columns makes [Y, partner(Y)] singular, below
    # SKETCH_FLOOR: a null space whose LAPACK columns already span it never
    # reads the sketch, and a group that needs it fails to recover
    def degenerate(k):
        G = np.ones((2 * k, k), dtype=complex)
        G[:, 0] = np.arange(1, 2 * k + 1)
        return G

    monkeypatch.setattr(qframes.qlinalg, "_sketch", degenerate)
    M = random_rank_deficient(3, 7, 2, np.random.default_rng(96))
    null = kernel_basis(M)
    assert polar_calls == [10]
    drift = null.H @ null - QMatrix.identity(5)
    assert drift.entry_moduli().max() <= 1e-13
    assert frob(M @ null) <= 1e-13 * frob(M)
    with pytest.raises(np.linalg.LinAlgError,
                       match="failed to recover an orthonormal quaternionic "
                             "system from the embedded spectrum"):
        herm_eig(QMatrix.identity(4)).eigenvectors


def test_surjective_and_bounded_below():
    assert is_surjective(QMatrix.identity(2))
    assert is_bounded_below(QMatrix.identity(2))
    wide = QMatrix([[ONE, Quaternion(), Quaternion()],
                    [Quaternion(), ONE, Quaternion()]])
    assert is_surjective(wide)
    assert not is_bounded_below(wide)
    assert not is_surjective(QMatrix.diag([1.0, 0.0]))
    rng = np.random.default_rng(92)
    for _ in range(50):
        M = random_matrix(rng.integers(1, 5), rng.integers(1, 5), rng)
        assert is_surjective(M) == is_bounded_below(M.H)


@pytest.mark.parametrize("m, n", [(4, 12), (12, 4)])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_every_rank_reading_takes_the_one_cut(m, n, factor):
    # sigma = (1, 1, 1, r) with r just below or just above the cut
    # max(m, n) * RANK_RTOL * sigma_max
    r = factor * max(m, n) * RANK_RTOL
    M = random_with_spectrum(m, n, [1.0, 1.0, 1.0, r],
                             np.random.default_rng(97))
    rank = 4 if factor > 1 else 3
    assert matrix_rank(M) == rank
    assert svd(M).rank() == rank
    assert is_surjective(M) == (rank == m)
    assert is_bounded_below(M) == (rank == n)
    assert matrix_rank(pinv(M)) == rank
    assert len(_embedded_svd(M).s) // 2 == rank
    assert kernel_basis(M).shape[1] == n - rank


def test_orthogonal_projector():
    P = orthogonal_projector(QMatrix.from_columns([e(2, 0)]))
    assert np.allclose(P.components, QMatrix.diag([1.0, 0.0]).components,
                       atol=1e-14)
    rng = np.random.default_rng(93)
    U = random_unitary(4, rng)
    assert frob(orthogonal_projector(U) - QMatrix.identity(4)) <= 1e-12
    ua, ub = U.split
    B = QMatrix.from_split(ua[:, :2], ub[:, :2])
    P = orthogonal_projector(B)
    assert frob(P @ P - P) <= 1e-12
    assert (P - P.H).entry_moduli().max() <= 1e-13
    assert frob(P @ B - B) <= 1e-12


def test_orthogonal_projector_keeps_its_bits():
    # the terms are halved before the sum, which is exact in the normal
    # range: the complex half equals 0.5 * (P + P^H) for P = A A^H + C C^H
    # bit for bit, and the j-half of B = A + C*j is Z - Z^T for Z = C A^T,
    # already skew-symmetric, so symmetrizing keeps it
    rng = np.random.default_rng(97)
    for n, d in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 6)):
        ua, ub = random_unitary(n, rng).split
        B = QMatrix.from_split(ua[:, :d], ub[:, :d])
        pa = (B @ B.H).split[0]
        a, c = B.split
        z = c @ a.T
        P = orthogonal_projector(B)
        assert np.array_equal(P.split[0], 0.5 * (pa + pa.conj().T))
        assert np.array_equal(P.split[1], z - z.T)


def test_orthogonal_projector_rejects_skewed_columns():
    B = QMatrix([[ONE, ONE], [Quaternion(), ONE]])
    with pytest.raises(ValueError, match="not orthonormal"):
        orthogonal_projector(B)


# ---------------------------------------------------------------------------
# container mechanics


def test_vector_components_read_only():
    u = e(2, 0)
    with pytest.raises(ValueError):
        u.components[0, 0] = 5.0


def test_vector_from_split_copies_the_callers_arrays():
    v = np.array([1.0 + 2j, 3.0])
    u = QVector.from_split(v, v)
    v[0] = 7.0
    assert u[0] == Quaternion(1, 2, 1, 2)
    assert v.flags.writeable
    for half in u.split:
        assert not half.flags.writeable


def test_matrix_from_split_copies_the_callers_arrays():
    a = np.array([[1.0, 2j], [0.5, 4.0]])
    b = np.zeros((2, 2), complex)
    M = QMatrix.from_split(a, b)
    assert not np.shares_memory(M.split[0], a)
    assert not np.shares_memory(M.split[1], b)
    assert a.flags.writeable and b.flags.writeable
    a[0, 0] = 9.0
    assert M[0, 0] == ONE
    for half in M.split:
        assert not half.flags.writeable


def test_results_own_their_halves():
    rng = np.random.default_rng(97)
    A, B = random_matrix(2, 3, rng), random_matrix(3, 2, rng)
    u = random_vector(3, rng)
    q = Quaternion(*rng.standard_normal(4))
    for M in (A + A, A - A, -A, A * 2.0, A @ B, A.H, kernel_basis(A)):
        for half in M.split:
            assert half.dtype == complex and not half.flags.writeable
            assert half.flags.c_contiguous
    for w in (u + u, u - u, -u, u * 2.0, u * Fraction(1, 2), u * q, A @ u):
        for half in w.split:
            assert half.dtype == complex and not half.flags.writeable
    assert np.array_equal((A @ u).split[0], (A @ QMatrix.from_columns([u])).split[0][:, 0])


def test_scalar_actions_of_vectors_and_matrices():
    # real scalars act from either side and keep the type; a quaternion acts
    # on a vector from the right only, and a matrix takes neither a
    # quaternion nor a division
    rng = np.random.default_rng(98)
    A, u = random_matrix(2, 3, rng), random_vector(3, rng)
    q = Quaternion(*rng.standard_normal(4))
    for x in (A, u):
        for y in (2 * x, x * 2, x + x, x - x, -x):
            assert type(y) is type(x)
        assert np.array_equal((2 * x).components, (x * 2.0).components)
        with pytest.raises(TypeError):
            q * x
    assert np.array_equal((u / 2).components, (u * 0.5).components)
    assert (u * q)[0].components == pytest.approx((u[0] * q).components,
                                                  rel=1e-14)
    for bad in (lambda: A * q, lambda: A / 2, lambda: u / q):
        with pytest.raises(TypeError):
            bad()


def test_vector_division_by_a_tiny_real_is_exact():
    u = QVector([[1, 2, 0.5, -3], [0, -0.25, 4, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(((u * TINY_SCALE) / TINY_SCALE).components,
                              u.components)


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, np.float64(0), np.float32(0)],
                         ids=["int", "float", "minus", "float64", "float32"])
def test_vector_division_by_zero_raises(zero):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ZeroDivisionError):
            QVector([[1, 2, 0.5, -3]]) / zero


# Every binade of nonzero doubles with either sign, half of the draws from
# those below 2^-1022, whose reciprocals overflow or nearly do.
_divisors = st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
                      st.floats(1.0, 2.0, exclude_max=True),
                      st.one_of(st.integers(-1074, -1023),
                                st.integers(-1074, 1023)),
                      st.sampled_from([1.0, -1.0]))
# Signed zeros drawn often: numpy's complex / real turns them into NaN.
_planes = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(allow_nan=True, allow_infinity=True))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(_planes, _planes, _divisors), min_size=1,
                max_size=6))
@example([(0.0, 1.5, 2.0 ** -1030), (-0.0, math.inf, -5e-324)])
def test_over_is_one_ieee_division_per_plane(entries):
    re, im, d = (np.array(column) for column in zip(*entries))
    x = np.empty(len(entries), complex)
    x.real, x.imag = re, im
    first = entries[0][2]
    with np.errstate(over="ignore"):
        each, one = _over(x, d), _over(x, first)
    for k, (r, i, dk) in enumerate(entries):
        for got, want in ((each[k].real, r / dk), (each[k].imag, i / dk),
                          (one[k].real, r / first), (one[k].imag, i / first)):
            if math.isnan(want):
                assert math.isnan(got)
            else:  # the same bits, the sign of a zero included
                assert (got, math.copysign(1.0, got)) \
                    == (want, math.copysign(1.0, want))
    for out in (each, one):
        assert np.array_equal(np.isnan(out.real), np.isnan(re))
        assert np.array_equal(np.isnan(out.imag), np.isnan(im))


@pytest.mark.parametrize("build", [
    lambda: QVector([["1.5", "0", "0", "0"]]),
    lambda: QVector([ONE, ["1.5", 0, 0, 0]]),
    lambda: QVector(["1.5"]),
    lambda: QVector(np.array([["1", "0", "0", "0"]])),
    lambda: QVector(np.array([[1, 0, 0, 0], ["1.5", 0, 0, 0]], dtype=object)),
    lambda: QMatrix([[["1.5", 0, 0, 0]]]),
    lambda: QMatrix(np.array([[["1", "0", "0", "0"]]])),
    lambda: QMatrix.diag([["2", 0, 0, 0]]),
], ids=["vector-list", "vector-mixed", "vector-bare", "vector-array",
        "vector-object", "matrix-list", "matrix-array", "diag"])
def test_numeric_strings_are_not_components(build):
    with pytest.raises(ValueError, match=r"(entry|column) \d.*string"):
        build()


def test_huge_integers_are_still_components():
    u = QVector([[10**20, 0, 0, 0]])
    assert u[0] == Quaternion(1e20)
    M = QMatrix(np.array([[[10**20, 0, 0, 1]]], dtype=object))
    assert M[0, 0] == Quaternion(1e20, 0, 0, 1)
    assert QVector(np.array([[1, 2, 3, 4]], dtype=object))[0] == Quaternion(1, 2, 3, 4)


def test_vector_right_scalar_associativity():
    rng = np.random.default_rng(95)
    u = random_vector(3, rng)
    p = Quaternion(*rng.standard_normal(4))
    q = Quaternion(*rng.standard_normal(4))
    gap = u * (p * q) - (u * p) * q
    assert gap.norm() <= 1e-12 * (u.norm() * p.modulus() * q.modulus())


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1"):
        QMatrix([[ONE, ONE], [ONE]])


def test_vector_entry_parsing():
    u = QVector([1.0, Quaternion(0, 1), [0, 0, 1, 0]])
    assert u[0] == ONE
    assert u[1] == I
    assert u[2] == J
    assert QVector(u.components)[2] == J


def test_components_round_trip_bitwise():
    # the split is read from the components in place, so every bit, the
    # sign of a zero included, survives the round trip
    rng = np.random.default_rng(44)
    comps = rng.standard_normal((5, 4))
    comps[::2] = -0.0
    comps[1, 1] = comps[3, 3] = 0.0
    v = QVector(comps)
    for u in (v, -v, -e(3, 1)):
        back = QVector(u.components)
        for got, want in zip(back.split, u.split):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    # the halves are copies: editing the source array later changes nothing
    src = np.array([[1.0, 2.0, 3.0, 4.0]])
    u = QVector(src)
    src[0, 0] = 9.0
    assert u[0] == Quaternion(1, 2, 3, 4)


def test_components_are_read_in_place_from_any_strided_array():
    # a transposed array keeps its last axis contiguous and is read without
    # a copy; one whose last axis is strided is copied first; every half is
    # the same, signed zeros included, and owns its memory
    rng = np.random.default_rng(45)
    comps = rng.standard_normal((3, 5, 4))
    comps[0, ::2] = -0.0
    ref = QMatrix(comps.copy())
    wide = np.zeros((3, 5, 8))
    wide[..., ::2] = comps
    for view in (comps.transpose(1, 0, 2).copy().transpose(1, 0, 2),
                 wide[..., ::2]):
        got = QMatrix(view)
        for mine, want in zip(got.split, ref.split):
            assert np.array_equal(mine, want)
            assert np.array_equal(np.signbit(mine.real), np.signbit(want.real))
            assert mine.flags.c_contiguous and not np.shares_memory(mine, view)
    row = np.zeros((4, 8))
    row[:, ::2] = comps[0, :4]
    assert np.array_equal(QVector(row[:, ::2]).components, comps[0, :4])


@pytest.mark.parametrize("build, message", [
    (lambda: QVector([[1, 2, 3]]), r"entry 0: expected a quaternion, a real "
     r"number, or 4 components, got shape \(3,\)"),
    (lambda: QVector([]), "a vector needs at least one entry"),
    (lambda: QVector.from_split(np.zeros(2), np.zeros(3)),
     "split halves disagree in length"),
    (lambda: QMatrix([]), "a matrix needs at least one row"),
    (lambda: QMatrix.from_split(np.zeros((2, 2)), np.zeros((2, 3))),
     "split halves must be 2-d and of equal shape"),
    (lambda: QMatrix.from_columns([]),
     "cannot infer the dimension of an empty column family"),
    (lambda: QMatrix.from_columns([e(2, 0)], dim=3),
     r"columns live in H\^2, expected H\^3"),
    (lambda: unembed_vector(np.zeros(3)), "embedded vectors have even length"),
    (lambda: random_with_spectrum(2, 4, [1.0, 2.0, 3.0],
                                  np.random.default_rng(0)),
     r"expected 2 singular values, got \(3,\)"),
    (lambda: random_rank_deficient(2, 4, 2, np.random.default_rng(0)),
     r"rank must lie in \[0, 1\], got 2"),
])
def test_malformed_input_names_its_fault(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_an_empty_matrix_has_rank_zero():
    assert matrix_rank(QMatrix.zeros(0, 3)) == 0
    assert matrix_rank(QMatrix.zeros(3, 0)) == 0


def test_matrix_tolist_round_trip():
    rng = np.random.default_rng(96)
    M = random_matrix(2, 3, rng)
    again = QMatrix(np.asarray(M.tolist()))
    assert np.array_equal(again.components, M.components)
