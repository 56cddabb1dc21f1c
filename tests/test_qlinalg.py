"""Right-module linear algebra: inner products, adjoints, spectra, inverses."""

import numpy as np
import pytest

from qframes.quaternion import I, J, K, ONE, Quaternion
from qframes.qlinalg import (
    QMatrix,
    QVector,
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


def test_herm_eig_close_groups_stay_orthonormal():
    # 1 and 1 + 5e-10 lie just outside CLUSTER_TOL, so LAPACK's vectors of
    # the two groups carry cross terms of order 1e-6 that the polish has to
    # remove; 1 and 1 + 5e-11 form one group whose vectors must still follow
    # their values
    rng = np.random.default_rng(57)
    for lam in ([3.0, 2.0, 1.0 + 5e-10, 1.0], [3.0, 2.0, 1.0 + 5e-11, 1.0]):
        for _ in range(5):
            Q = random_unitary(4, rng)
            M = Q @ QMatrix.diag(lam) @ Q.H
            eig = herm_eig(M)
            U = eig.eigenvectors
            refactor = U @ QMatrix.diag(eig.eigenvalues) @ U.H - M
            assert frob(refactor) <= 1e-14 * frob(M)
            drift = U.H @ U - QMatrix.identity(4)
            assert drift.entry_moduli().max() <= 1e-14


def test_herm_eig_doubling_visible_in_embedding():
    rng = np.random.default_rng(53)
    M = random_hermitian(4, rng)
    w = np.linalg.eigvalsh(complex_adjoint(M))
    assert np.all(np.abs(w[0::2] - w[1::2]) <= 1e-8 * (1 + np.abs(w[0::2])))


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
    with pytest.raises(ValueError, match="not in the range"):
        solve_min_norm(M, QVector([0.0, 1.0]))


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
    for m, n in ((3, 6), (6, 3), (4, 4)):
        for rank in range(min(m, n)):
            M = random_rank_deficient(m, n, rank, rng)
            assert matrix_rank(M) == rank == svd(M).rank()
            assert kernel_basis(M).shape == (n, n - rank)


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


def test_matrix_tolist_round_trip():
    rng = np.random.default_rng(96)
    M = random_matrix(2, 3, rng)
    again = QMatrix(np.asarray(M.tolist()))
    assert np.array_equal(again.components, M.components)
