"""Numerical verification suite for the library's structural identities.

Every check draws seeded random instances at the requested sizes, evaluates
one identity or classification the library promises, and reports its worst
relative residual against a tolerance chosen for double precision at desk
scale. Boolean expectations (a classification coming out wrong) count as
residual 1.0. The suite is deterministic for a fixed seed: each check gets
its own generator derived from (seed, position), so subsets and reordering
do not change the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .frames import Frame
from .frame_ops import (
    are_equivalent,
    bessel_from_operator,
    frame_with_frame_operator,
    map_frame,
    project_frame,
    unitary_invariance_check,
)
from .qlinalg import (
    QMatrix,
    complex_adjoint,
    embed_vector,
    herm_eig,
    inner,
    kernel_basis,
    operator_norm,
    pinv,
    solve_min_norm,
    svd,
)
from .quaternion import ONE, I, J, K, Quaternion
from .sampling import (
    random_frame,
    random_hermitian,
    random_invertible,
    random_matrix,
    random_positive_definite,
    random_quaternion,
    random_rank_deficient,
    random_unitary,
    random_vector,
    random_with_spectrum,
)

DEFAULT_SIZES: tuple[tuple[int, int], ...] = ((2, 6), (3, 8), (4, 10))

Sizes = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class CheckDef:
    name: str
    description: str
    tolerance: float
    fn: Callable[[np.random.Generator, Sizes], float]


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    description: str
    tolerance: float
    max_residual: float | None
    passed: bool
    error: str | None = None


CHECKS: list[CheckDef] = []


def _check(name: str, description: str, tolerance: float):
    def register(fn):
        CHECKS.append(CheckDef(name, description, tolerance, fn))
        return fn
    return register


def _rel(x: float, scale: float) -> float:
    return x / max(scale, 1e-300)


def _tiny(x: float) -> float:
    return max(x, 1e-300)


# ---------------------------------------------------------------------------
# scalar algebra


@_check("unit-multiplication-table",
        "products of the basis units 1, i, j, k follow the Hamilton relations",
        1e-15)
def _unit_table(rng, sizes) -> float:
    units = {"1": ONE, "i": I, "j": J, "k": K}
    table = {
        ("i", "j"): K, ("j", "i"): -K,
        ("j", "k"): I, ("k", "j"): -I,
        ("k", "i"): J, ("i", "k"): -J,
        ("i", "i"): -ONE, ("j", "j"): -ONE, ("k", "k"): -ONE,
    }
    worst = 0.0
    for a, p in units.items():
        for b, q in units.items():
            expected = table.get((a, b))
            if expected is None:
                expected = q if a == "1" else p  # multiplying by 1
            worst = max(worst, (p * q - expected).modulus())
    return worst


@_check("modulus-multiplicativity",
        "|p q| = |p| |q| for random scalars",
        1e-13)
def _modulus_mult(rng, sizes) -> float:
    worst = 0.0
    for _ in range(300):
        p, q = random_quaternion(rng), random_quaternion(rng)
        worst = max(worst, _rel(abs((p * q).modulus() - p.modulus() * q.modulus()),
                                p.modulus() * q.modulus()))
    return worst


@_check("conjugation-antihomomorphism",
        "conj(p q) = conj(q) conj(p) and conj(q) q = |q|^2",
        1e-13)
def _conj_anti(rng, sizes) -> float:
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


# ---------------------------------------------------------------------------
# vectors, operators, embedding


@_check("inner-product-structure",
        "right-linearity, conjugate symmetry, and Cauchy-Schwarz for <.|.>",
        1e-12)
def _inner_structure(rng, sizes) -> float:
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


@_check("operator-right-linearity",
        "M (u q + v) = (M u) q + M v: the action commutes with right scalars",
        1e-12)
def _right_linearity(rng, sizes) -> float:
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


@_check("adjoint-defining-identity",
        "<M* u, v> = <u, M v> for random operators and vectors",
        1e-11)
def _adjoint_identity(rng, sizes) -> float:
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


@_check("embedding-star-homomorphism",
        "chi respects products, adjoints, and the vector embedding",
        1e-12)
def _embedding_hom(rng, sizes) -> float:
    worst = 0.0
    for n, _ in sizes:
        M = random_matrix(n, n, rng)
        N = random_matrix(n, n, rng)
        u = random_vector(n, rng)
        prod = np.linalg.norm(complex_adjoint(M @ N)
                              - complex_adjoint(M) @ complex_adjoint(N))
        scale = _tiny(np.linalg.norm(complex_adjoint(M))
                      * np.linalg.norm(complex_adjoint(N)))
        worst = max(worst, _rel(prod, scale))
        star = np.linalg.norm(complex_adjoint(M.H) - complex_adjoint(M).conj().T)
        worst = max(worst, _rel(star, _tiny(np.linalg.norm(complex_adjoint(M)))))
        vec = np.linalg.norm(complex_adjoint(M) @ embed_vector(u)
                             - embed_vector(M @ u))
        worst = max(worst, _rel(vec, _tiny(operator_norm(M) * u.norm())))
    return worst


@_check("doubled-spectrum-recovery",
        "Hermitian eigenfactorization survives degenerate and clustered spectra",
        1e-9)
def _doubled_spectrum(rng, sizes) -> float:
    worst = 0.0
    for n, _ in sizes:
        spectra = [None, None]  # two generic draws
        half = max(1, n // 2)
        spectra.append(np.array([2.0] * half + [-1.0] * (n - half)))
        spectra.append(np.full(n, 3.0))
        near = np.full(n, 1.0)
        near[-1] = 1.0 + 5e-11
        spectra.append(near)
        for lam in spectra:
            if lam is None:
                M = random_hermitian(n, rng)
            else:
                Q = random_unitary(n, rng)
                M = Q @ QMatrix.diag(lam) @ Q.H
            eig = herm_eig(M)
            U = eig.eigenvectors
            refactor = (U @ QMatrix.diag(eig.eigenvalues) @ U.H - M).frobenius_norm()
            worst = max(worst, _rel(refactor, _tiny(M.frobenius_norm())))
            unit = (U.H @ U - QMatrix.identity(n)).entry_moduli().max()
            worst = max(worst, float(unit))
            if np.any(np.diff(eig.eigenvalues) > 0):
                worst = max(worst, 1.0)
            if lam is not None:
                gap = np.max(np.abs(np.sort(eig.eigenvalues)
                                    - np.sort(np.asarray(lam, dtype=float))))
                worst = max(worst, _rel(gap, 1.0 + np.abs(lam).max()))
    return worst


@_check("svd-factorization",
        "M = U Sigma V* with orthonormal factors and descending values",
        1e-9)
def _svd_factorization(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        for M in (random_matrix(n, m, rng), random_matrix(m, n, rng),
                  random_rank_deficient(n, m, max(0, min(n, m) - 1), rng)):
            fac = svd(M)
            r, c = M.shape
            sig = np.zeros((r, c))
            k = min(r, c)
            sig[:k, :k] = np.diag(fac.singular_values)
            core = QMatrix.from_real(sig)
            refactor = (fac.u @ core @ fac.v.H - M).frobenius_norm()
            worst = max(worst, _rel(refactor, _tiny(M.frobenius_norm())))
            for f, d in ((fac.u, r), (fac.v, c)):
                unit = (f.H @ f - QMatrix.identity(d)).entry_moduli().max()
                worst = max(worst, float(unit))
            if np.any(np.diff(fac.singular_values) > 0) or np.any(
                    fac.singular_values < 0):
                worst = max(worst, 1.0)
    return worst


@_check("penrose-conditions",
        "the pseudoinverse satisfies all four Penrose identities at every rank",
        1e-9)
def _penrose(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        k = min(n, m)
        for rank in sorted({0, 1, k // 2, k}):
            if rank == k:
                sigma = np.sort(rng.uniform(0.5, 2.0, size=k))[::-1]
                M = random_with_spectrum(n, m, sigma, rng)
            else:
                M = random_rank_deficient(n, m, rank, rng)
            P = pinv(M)
            scale_m = _tiny(M.frobenius_norm())
            scale_p = _tiny(P.frobenius_norm())
            worst = max(worst, _rel((M @ P @ M - M).frobenius_norm(), scale_m))
            worst = max(worst, _rel((P @ M @ P - P).frobenius_norm(), scale_p))
            for proj in (M @ P, P @ M):
                drift = (proj - proj.H).entry_moduli()
                worst = max(worst, float(drift.max()) if drift.size else 0.0)
    return worst


@_check("minimal-norm-solution",
        "solve_min_norm lands in the range, orthogonal to the kernel, and is minimal",
        1e-9)
def _min_norm(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        M = random_matrix(n, m, rng)  # wide, surjective with probability one
        v = M @ random_vector(m, rng)
        x = solve_min_norm(M, v)
        worst = max(worst, _rel((M @ x - v).norm(), _tiny(v.norm())))
        null = kernel_basis(M)
        if null.shape[1]:
            worst = max(worst, _rel((null.H @ x).norm(), _tiny(x.norm())))
            for _ in range(5):
                shifted = x + null @ random_vector(null.shape[1], rng)
                worst = max(worst, _rel(max(x.norm() - shifted.norm(), 0.0),
                                        _tiny(x.norm())))
    return worst


# ---------------------------------------------------------------------------
# frame calculus


@_check("frame-inequality",
        "A ||u||^2 <= sum |<u_i, u>|^2 <= B ||u||^2 at the optimal bounds",
        1e-9)
def _frame_inequality(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        S = F.frame_operator
        for _ in range(10):
            u = random_vector(n, rng)
            power = F.analysis(u).norm() ** 2
            scale = _tiny(bounds.upper * u.norm() ** 2)
            worst = max(worst, _rel(max(bounds.lower * u.norm() ** 2 - power, 0.0),
                                    scale))
            worst = max(worst, _rel(max(power - bounds.upper * u.norm() ** 2, 0.0),
                                    scale))
            quad = inner(u, S @ u)
            worst = max(worst, _rel(abs(quad.a0 - power), scale))
            worst = max(worst, _rel(
                Quaternion(0.0, quad.a1, quad.a2, quad.a3).modulus(), scale))
    return worst


@_check("optimal-bound-attainment",
        "extreme eigenvectors of S attain the optimal bounds",
        1e-6)
def _bound_attainment(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        vecs = herm_eig(F.frame_operator).eigenvectors
        top, bottom = vecs.column(0), vecs.column(n - 1)
        worst = max(worst, _rel(abs(F.analysis(top).norm() ** 2 - bounds.upper),
                                bounds.upper))
        worst = max(worst, _rel(abs(F.analysis(bottom).norm() ** 2 - bounds.lower),
                                bounds.lower))
    return worst


@_check("bound-formula-agreement",
        "spectral, inverse-norm, and synthesis-norm readings of the bounds agree",
        1e-8)
def _bound_formulas(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        T = F.synthesis
        s_inv = herm_eig(F.frame_operator).apply(lambda lam: 1.0 / lam)
        lower = (bounds.lower, 1.0 / operator_norm(s_inv),
                 1.0 / operator_norm(pinv(T)) ** 2)
        upper = (bounds.upper, operator_norm(F.frame_operator),
                 operator_norm(T) ** 2)
        worst = max(worst, (max(lower) - min(lower)) / _tiny(min(lower)))
        worst = max(worst, (max(upper) - min(upper)) / _tiny(min(upper)))
    return worst


@_check("reconstruction-identity",
        "both canonical expansions of u through the frame return u",
        1e-9)
def _reconstruction(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        for _ in range(10):
            u = random_vector(n, rng)
            direct = F.natural_representation(u)
            mirrored = F.dual_expansion(u)
            worst = max(worst, _rel((direct - u).norm(), _tiny(u.norm())))
            worst = max(worst, _rel((mirrored - u).norm(), _tiny(u.norm())))
            worst = max(worst, _rel((direct - mirrored).norm(), _tiny(u.norm())))
    return worst


@_check("coefficient-minimality",
        "the norm-split identity holds and frame coefficients minimize the norm",
        1e-8)
def _coefficient_minimality(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        null = kernel_basis(F.synthesis)
        for _ in range(5):
            u = random_vector(n, rng)
            c = F.coefficients(u)
            offered = c + null @ random_vector(null.shape[1], rng)
            split = F.pythagoras_check(u, offered)
            worst = max(worst, split.residual)
            worst = max(worst, _rel(max(c.norm() - offered.norm(), 0.0),
                                    _tiny(c.norm())))
    return worst


@_check("coefficient-route-agreement",
        "frame coefficients, the pseudoinverse, and the least-norm solver agree",
        1e-9)
def _coefficient_routes(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        T = F.synthesis
        dagger = pinv(T)
        for _ in range(5):
            u = random_vector(n, rng)
            c1 = F.coefficients(u)
            c2 = dagger @ u
            c3 = solve_min_norm(T, u)
            scale = _tiny(c1.norm())
            worst = max(worst, _rel((c1 - c2).norm(), scale))
            worst = max(worst, _rel((c1 - c3).norm(), scale))
    return worst


@_check("canonical-dual-reciprocity",
        "dual bounds are the reciprocals and the dual of the dual returns the frame",
        1e-9)
def _dual_reciprocity(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        dual = F.canonical_dual()
        dbounds = dual.optimal_bounds()
        worst = max(worst, abs(dbounds.lower - 1.0 / bounds.upper)
                    * bounds.upper)
        worst = max(worst, abs(dbounds.upper - 1.0 / bounds.lower)
                    * bounds.lower)
        back = dual.canonical_dual()
        scale = _tiny(F.synthesis.column_norms().max())
        drift = (F.synthesis - back.synthesis).column_norms().max()
        worst = max(worst, _rel(drift, scale))
    return worst


@_check("parseval-normalization",
        "S^(-1/2) turns any frame into a Parseval frame with plain expansion",
        1e-9)
def _parseval(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        tight = F.parseval_normalize()
        drift = (tight.frame_operator - QMatrix.identity(n)).frobenius_norm()
        worst = max(worst, drift / np.sqrt(n))
        for _ in range(5):
            u = random_vector(n, rng)
            back = tight.synthesis @ tight.analysis(u)
            worst = max(worst, _rel((back - u).norm(), _tiny(u.norm())))
    return worst


@_check("coefficient-transport",
        "the transport matrix carries c(u) to c(R u) and obeys the norm bound",
        1e-9)
def _transport(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        R = random_matrix(n, n, rng)
        carrier = F.coefficient_transport(R)
        for _ in range(5):
            u = random_vector(n, rng)
            lhs = carrier @ F.coefficients(u)
            rhs = F.coefficients(R @ u)
            worst = max(worst, _rel((lhs - rhs).norm(), _tiny(rhs.norm())))
        cap = bounds.upper * operator_norm(R) / bounds.lower
        worst = max(worst, _rel(max(operator_norm(carrier) - cap * (1 + 1e-9), 0.0),
                                _tiny(cap)))
    return worst


# ---------------------------------------------------------------------------
# operators acting on frames


@_check("operator-image-frames",
        "surjective images stay frames with conjugated operator; deficient ones fail",
        1e-9)
def _operator_images(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        L = random_invertible(n, rng)
        image, report = map_frame(L, F)
        if not image.is_frame:
            return 1.0
        worst = max(worst, report.residuals["operator-conjugation"])
        sigma = svd(L).singular_values
        ibounds = image.optimal_bounds()
        floor = bounds.lower * sigma[-1] ** 2
        cap = bounds.upper * sigma[0] ** 2
        worst = max(worst, _rel(max(floor - ibounds.lower * (1 + 1e-9), 0.0),
                                _tiny(floor)))
        worst = max(worst, _rel(max(ibounds.upper - cap * (1 + 1e-9), 0.0),
                                _tiny(cap)))
        if n >= 2:
            wide = random_with_spectrum(
                n - 1, n, np.sort(rng.uniform(0.5, 2.0, size=n - 1))[::-1], rng)
            image, _ = map_frame(wide, F)
            if not image.is_frame:
                worst = max(worst, 1.0)
            broken, _ = map_frame(random_rank_deficient(n, n, n - 1, rng), F)
            if broken.is_frame:
                worst = max(worst, 1.0)
    return worst


@_check("unitary-bound-invariance",
        "unitary images keep the optimal bounds",
        1e-9)
def _unitary_invariance(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        U = random_unitary(n, rng)
        _, _, drift = unitary_invariance_check(U, F)
        worst = max(worst, drift)
    return worst


@_check("projection-compression",
        "projections keep Parseval frames Parseval and bounds inside the envelope",
        1e-9)
def _projection(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        if n < 2:
            continue
        F = random_frame(n, m, rng)
        d = n - 1
        basis_cols = random_unitary(n, rng)
        ba, bb = basis_cols.split
        basis = QMatrix.from_split(ba[:, :d], bb[:, :d])
        tight = F.parseval_normalize()
        sub, sub_bounds = project_frame(basis, tight)
        drift = (sub.frame_operator - QMatrix.identity(d)).frobenius_norm()
        worst = max(worst, drift / np.sqrt(d))
        worst = max(worst, abs(sub_bounds.lower - 1.0))
        worst = max(worst, abs(sub_bounds.upper - 1.0))
        plain, plain_bounds = project_frame(basis, F)
        env = F.optimal_bounds()
        worst = max(worst, _rel(max(env.lower - plain_bounds.lower * (1 + 1e-9),
                                    0.0), _tiny(env.lower)))
        worst = max(worst, _rel(max(plain_bounds.upper - env.upper * (1 + 1e-9),
                                    0.0), _tiny(env.upper)))
    return worst


@_check("equivalence-classification",
        "kernel comparison sorts frame pairs into equivalent, one-sided, none",
        1e-8)
def _equivalence(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        F = random_frame(n, m, rng)
        L = random_invertible(n, rng)
        G = Frame.from_synthesis(L @ F.synthesis)
        verdict = are_equivalent(F, G)
        if verdict.relation != "equivalent" or verdict.intertwiner is None:
            return 1.0
        scale = _tiny(operator_norm(G.synthesis))
        worst = max(worst, _rel(verdict.residual, scale))
        # reflexivity ties a frame to itself through the identity
        self_verdict = are_equivalent(F, F)
        if self_verdict.relation != "equivalent":
            return 1.0
        eye_drift = (self_verdict.intertwiner
                     - QMatrix.identity(n)).entry_moduli().max()
        worst = max(worst, float(eye_drift))
        if are_equivalent(G, F).relation != "equivalent":
            return 1.0
        # collapsing one direction produces one-sided, and only one-sided
        if n >= 2:
            P = random_rank_deficient(n, n, n - 1, rng)
            H = Frame.from_synthesis(P @ F.synthesis)
            down = are_equivalent(F, H)
            # one-sided verdicts still carry the forward intertwiner plus the
            # kernel vector breaking the backward inclusion
            if (down.relation != "one-sided" or down.intertwiner is None
                    or down.witness is None):
                return 1.0
            up = are_equivalent(H, F)
            if up.relation != "none" or up.witness is None:
                return 1.0
            for w in (down.witness, up.witness):
                worst = max(worst, _rel((H.synthesis @ w).norm(),
                                        _tiny(operator_norm(H.synthesis))))
                if (F.synthesis @ w).norm() <= 1e-6 * operator_norm(F.synthesis):
                    return 1.0
    return worst


@_check("prescribed-frame-operator",
        "a frame is built whose frame operator matches a given positive matrix",
        1e-9)
def _prescribed_operator(rng, sizes) -> float:
    worst = 0.0
    for n, _ in sizes:
        L = random_positive_definite(n, rng)
        F = frame_with_frame_operator(L)
        drift = (F.frame_operator - L).frobenius_norm()
        worst = max(worst, _rel(drift, _tiny(L.frobenius_norm())))
    return worst


@_check("analysis-operator-bijection",
        "reading a family off an operator's adjoint columns inverts analysis exactly",
        1e-15)
def _analysis_bijection(rng, sizes) -> float:
    worst = 0.0
    for n, m in sizes:
        L = random_matrix(m, n, rng)
        family = bessel_from_operator(L)
        if family.count != m or family.dim != n:
            return 1.0
        gap = np.abs(family.synthesis.H.components - L.components)
        worst = max(worst, float(gap.max()) if gap.size else 0.0)
    return worst


# ---------------------------------------------------------------------------
# runner


def run_checks(seed: int = 0, sizes: Sizes | None = None,
               tolerance: float | None = None) -> dict:
    """Run the whole suite; deterministic for a fixed seed and size list."""
    size_list = [tuple(s) for s in (sizes if sizes is not None else DEFAULT_SIZES)]
    for n, m in size_list:
        if n < 1 or m < 1:
            raise ValueError(f"sizes need positive dimensions, got ({n}, {m})")
    outcomes: list[CheckOutcome] = []
    for index, check in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        limit = tolerance if tolerance is not None else check.tolerance
        try:
            residual = float(check.fn(rng, size_list))
            outcomes.append(CheckOutcome(
                name=check.name, description=check.description,
                tolerance=limit, max_residual=residual,
                passed=bool(residual <= limit)))
        except Exception as exc:  # a blown identity is a failure, not a crash
            outcomes.append(CheckOutcome(
                name=check.name, description=check.description,
                tolerance=limit, max_residual=None, passed=False,
                error=f"{type(exc).__name__}: {exc}"))
    failures = sum(1 for o in outcomes if not o.passed)
    return {
        "seed": int(seed),
        "sizes": [list(s) for s in size_list],
        "checks": [
            {
                "name": o.name,
                "description": o.description,
                "max_residual": o.max_residual,
                "tolerance": o.tolerance,
                "passed": o.passed,
                **({"error": o.error} if o.error else {}),
            }
            for o in outcomes
        ],
        "failures": failures,
        "passed": failures == 0,
    }
