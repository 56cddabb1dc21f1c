"""Numerical verification suite for the library's structural identities.

Every check draws seeded random instances at the requested sizes, evaluates
one identity or classification the library promises, and yields its relative
residuals. The check's residual is the largest one yielded, or NaN if any is
NaN, and it passes within a tolerance chosen for double precision at desk
scale; a non-finite residual fails with an error instead. Boolean
expectations (a classification coming out wrong) yield residual 1.0. The
suite is deterministic for a fixed seed: each check gets its own generator
derived from (seed, position), so subsets and reordering do not change the
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .frames import (Frame, _bound_readings, _dual_residuals, _identity_drift,
                     _spread)
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
    QVector,
    _ratio,
    _singular_values,
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


CHECKS: list[CheckDef] = []


def _check(name: str, description: str, tolerance: float):
    """Register a generator of residuals as a check whose fn returns the
    largest one: 0.0 if it yields none, and NaN as soon as it yields a NaN,
    which the builtin max would drop."""
    def register(residuals):
        def largest(rng: np.random.Generator, sizes: Sizes) -> float:
            top = 0.0
            for x in residuals(rng, sizes):
                if not x <= top:  # x > top, or x is NaN
                    if x != x:
                        return x
                    top = x
            return top
        CHECKS.append(CheckDef(name, description, tolerance, largest))
        return residuals
    return register


def _worst(x: np.ndarray, scale) -> float:
    """The largest of the column-wise relative residuals _ratio(x, scale)."""
    return float(_ratio(x, scale).max())


def _block(draw: np.ndarray) -> QMatrix:
    """k vectors drawn as one (k, n, 4) array, as the columns of a block."""
    return QMatrix(draw.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# scalar algebra


@_check("unit-multiplication-table",
        "products of the basis units 1, i, j, k follow the Hamilton relations",
        1e-15)
def _unit_table(rng, sizes) -> Iterator[float]:
    units = {"1": ONE, "i": I, "j": J, "k": K}
    table = {
        ("i", "j"): K, ("j", "i"): -K,
        ("j", "k"): I, ("k", "j"): -I,
        ("k", "i"): J, ("i", "k"): -J,
        ("i", "i"): -ONE, ("j", "j"): -ONE, ("k", "k"): -ONE,
    }
    for a, p in units.items():
        for b, q in units.items():
            expected = table.get((a, b))
            if expected is None:
                expected = q if a == "1" else p  # multiplying by 1
            yield (p * q - expected).modulus()


@_check("modulus-multiplicativity",
        "|p q| = |p| |q| for random scalars",
        1e-13)
def _modulus_mult(rng, sizes) -> Iterator[float]:
    for row in rng.standard_normal((300, 8)).tolist():
        p, q = Quaternion(*row[:4]), Quaternion(*row[4:])
        yield _ratio(abs((p * q).modulus() - p.modulus() * q.modulus()),
                     p.modulus() * q.modulus())


@_check("conjugation-antihomomorphism",
        "conj(p q) = conj(q) conj(p) and conj(q) q = |q|^2",
        1e-13)
def _conj_anti(rng, sizes) -> Iterator[float]:
    for row in rng.standard_normal((300, 8)).tolist():
        p, q = Quaternion(*row[:4]), Quaternion(*row[4:])
        q_mod, q_conj = q.modulus(), q.conjugate()
        yield _ratio(((p * q).conjugate() - q_conj * p.conjugate()).modulus(),
                     p.modulus() * q_mod)
        q_sq = q_mod ** 2
        yield _ratio((q_conj * q - q_sq).modulus(), q_sq)


# ---------------------------------------------------------------------------
# vectors, operators, embedding


@_check("inner-product-structure",
        "right-linearity, conjugate symmetry, and Cauchy-Schwarz for <.|.>",
        1e-12)
def _inner_structure(rng, sizes) -> Iterator[float]:
    for n, _ in sizes:
        for draw in rng.standard_normal((20, 2 * n + 1, 4)):
            u, v = QVector(draw[:n]), QVector(draw[n:2 * n])
            q = Quaternion(*draw[2 * n])
            norms = u.norm() * v.norm()
            uv, vu = inner(u, v), inner(v, u)
            yield _ratio((inner(v, u * q) - vu * q).modulus(), norms * q.modulus())
            yield _ratio((uv - vu.conjugate()).modulus(), norms)
            gap = uv.modulus() - norms
            yield _ratio(max(gap, 0.0), norms)


@_check("operator-right-linearity",
        "M (u q + v) = (M u) q + M v: the action commutes with right scalars",
        1e-12)
def _right_linearity(rng, sizes) -> Iterator[float]:
    for n, _ in sizes:
        for draw in rng.standard_normal((10, (n + 1) ** 2, 4)):
            M = QMatrix(draw[:n * n].reshape(n, n, 4))
            u, v = QVector(draw[n * n:n * n + n]), QVector(draw[n * n + n:-1])
            q = Quaternion(*draw[-1])
            lhs = M @ (u * q + v)
            rhs = (M @ u) * q + M @ v
            yield _ratio((lhs - rhs).norm(), rhs.norm())


@_check("adjoint-defining-identity",
        "<M* u, v> = <u, M v> for random operators and vectors",
        1e-11)
def _adjoint_identity(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        for draw in rng.standard_normal((10, n * m + n + m, 4)):
            M = QMatrix(draw[:n * m].reshape(n, m, 4))
            u, v = QVector(draw[n * m:n * m + n]), QVector(draw[n * m + n:])
            lhs = inner(M.H @ u, v)
            rhs = inner(u, M @ v)
            scale = operator_norm(M) * u.norm() * v.norm()
            yield _ratio((lhs - rhs).modulus(), scale)


@_check("embedding-star-homomorphism",
        "chi respects products, adjoints, and the vector embedding",
        1e-12)
def _embedding_hom(rng, sizes) -> Iterator[float]:
    for n, _ in sizes:
        M = random_matrix(n, n, rng)
        N = random_matrix(n, n, rng)
        u = random_vector(n, rng)
        prod = np.linalg.norm(complex_adjoint(M @ N)
                              - complex_adjoint(M) @ complex_adjoint(N))
        scale = (np.linalg.norm(complex_adjoint(M))
                 * np.linalg.norm(complex_adjoint(N)))
        yield _ratio(prod, scale)
        star = np.linalg.norm(complex_adjoint(M.H) - complex_adjoint(M).conj().T)
        yield _ratio(star, np.linalg.norm(complex_adjoint(M)))
        vec = np.linalg.norm(complex_adjoint(M) @ embed_vector(u)
                             - embed_vector(M @ u))
        yield _ratio(vec, operator_norm(M) * u.norm())


@_check("doubled-spectrum-recovery",
        "Hermitian eigenfactorization survives degenerate and clustered spectra",
        1e-9)
def _doubled_spectrum(rng, sizes) -> Iterator[float]:
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
            yield _ratio(refactor, M.frobenius_norm())
            unit = (U.H @ U - QMatrix.identity(n)).entry_moduli().max()
            yield float(unit)
            yield float(np.any(np.diff(eig.eigenvalues) > 0))
            if lam is not None:
                gap = np.max(np.abs(np.sort(eig.eigenvalues)
                                    - np.sort(np.asarray(lam, dtype=float))))
                yield _ratio(gap, 1.0 + np.abs(lam).max())


@_check("svd-factorization",
        "M = U Sigma V* with orthonormal factors and descending values",
        1e-9)
def _svd_factorization(rng, sizes) -> Iterator[float]:
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
            yield _ratio(refactor, M.frobenius_norm())
            for f, d in ((fac.u, r), (fac.v, c)):
                unit = (f.H @ f - QMatrix.identity(d)).entry_moduli().max()
                yield float(unit)
            yield float(np.any(np.diff(fac.singular_values) > 0)
                        or np.any(fac.singular_values < 0))


@_check("penrose-conditions",
        "the pseudoinverse satisfies all four Penrose identities at every rank",
        1e-9)
def _penrose(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        k = min(n, m)
        for rank in sorted({0, 1, k // 2, k}):
            if rank == k:
                sigma = np.sort(rng.uniform(0.5, 2.0, size=k))[::-1]
                M = random_with_spectrum(n, m, sigma, rng)
            else:
                M = random_rank_deficient(n, m, rank, rng)
            P = pinv(M)
            scale_m = M.frobenius_norm()
            scale_p = P.frobenius_norm()
            yield _ratio((M @ P @ M - M).frobenius_norm(), scale_m)
            yield _ratio((P @ M @ P - P).frobenius_norm(), scale_p)
            for proj in (M @ P, P @ M):
                drift = (proj - proj.H).entry_moduli()
                yield float(drift.max()) if drift.size else 0.0


@_check("minimal-norm-solution",
        "solve_min_norm lands in the range, orthogonal to the kernel, and is minimal",
        1e-9)
def _min_norm(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        M = random_matrix(n, m, rng)  # wide, surjective with probability one
        v = M @ random_vector(m, rng)
        x = solve_min_norm(M, v)
        yield _ratio((M @ x - v).norm(), v.norm())
        null = kernel_basis(M)
        if null.shape[1]:
            yield _ratio((null.H @ x).norm(), x.norm())
            shifted = (QMatrix.from_columns([x] * 5)
                       + null @ _block(rng.standard_normal((5, null.shape[1], 4))))
            yield _worst(np.maximum(x.norm() - shifted.column_norms(), 0.0), x.norm())


# ---------------------------------------------------------------------------
# frame calculus


@_check("frame-inequality",
        "A ||u||^2 <= sum |<u_i, u>|^2 <= B ||u||^2 at the optimal bounds",
        1e-9)
def _frame_inequality(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        U = _block(rng.standard_normal((10, n, 4)))
        power = F.analysis(U).column_norms() ** 2
        size = U.column_norms() ** 2
        scale = bounds.upper * size
        # <u, S u> for each column u, on the diagonal of U* S U
        qa, qb = (np.diag(h) for h in (U.H @ (F.frame_operator @ U)).split)
        yield _worst(np.maximum(bounds.lower * size - power, 0.0), scale)
        yield _worst(np.maximum(power - bounds.upper * size, 0.0), scale)
        yield _worst(np.abs(qa.real - power), scale)
        yield _worst(np.hypot(qa.imag, np.abs(qb)), scale)


@_check("optimal-bound-attainment",
        "extreme eigenvectors of S attain the optimal bounds",
        1e-6)
def _bound_attainment(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        vecs = F._spectral.eigenvectors
        top, bottom = vecs.column(0), vecs.column(n - 1)
        yield _ratio(abs(F.analysis(top).norm() ** 2 - bounds.upper), bounds.upper)
        yield _ratio(abs(F.analysis(bottom).norm() ** 2 - bounds.lower),
                     bounds.lower)


@_check("bound-formula-agreement",
        "spectral, inverse-norm, and synthesis-norm readings of the bounds agree",
        1e-8)
def _bound_formulas(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        for readings in _bound_readings(random_frame(n, m, rng)):
            yield _spread(readings)


@_check("reconstruction-identity",
        "both canonical expansions of u through the frame return u",
        1e-9)
def _reconstruction(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        U = _block(rng.standard_normal((10, n, 4)))
        direct = F.natural_representation(U)
        mirrored = F.dual_expansion(U)
        size = U.column_norms()
        yield _worst((direct - U).column_norms(), size)
        yield _worst((mirrored - U).column_norms(), size)
        yield _worst((direct - mirrored).column_norms(), size)


@_check("coefficient-minimality",
        "the norm-split identity holds and frame coefficients minimize the norm",
        1e-8)
def _coefficient_minimality(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        null = kernel_basis(F.synthesis)
        draw = rng.standard_normal((5, n + null.shape[1], 4))
        U = _block(draw[:, :n])
        c = F.coefficients(U)
        offered = c + null @ _block(draw[:, n:])
        yield float(F.pythagoras_check(U, offered).residual.max())
        c_norm = c.column_norms()
        yield _worst(np.maximum(c_norm - offered.column_norms(), 0.0), c_norm)


@_check("coefficient-route-agreement",
        "frame coefficients, the pseudoinverse, and the least-norm solver agree",
        1e-9)
def _coefficient_routes(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        T = F.synthesis
        dagger = pinv(T)
        U = _block(rng.standard_normal((5, n, 4)))
        c = F.coefficients(U)
        scale = c.column_norms()
        yield _worst((c - dagger @ U).column_norms(), scale)
        yield _worst((c - solve_min_norm(T, U)).column_norms(), scale)


@_check("canonical-dual-reciprocity",
        "dual bounds are the reciprocals and the dual of the dual returns the frame",
        1e-9)
def _dual_reciprocity(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        yield from _dual_residuals(random_frame(n, m, rng)).values()


@_check("parseval-normalization",
        "S^(-1/2) turns any frame into a Parseval frame with plain expansion",
        1e-9)
def _parseval(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        tight = random_frame(n, m, rng).parseval_normalize()
        yield _identity_drift(tight.frame_operator)
        U = _block(rng.standard_normal((5, n, 4)))
        back = tight.synthesis @ tight.analysis(U)
        yield _worst((back - U).column_norms(), U.column_norms())


@_check("coefficient-transport",
        "the transport matrix carries c(u) to c(R u) and obeys the norm bound",
        1e-9)
def _transport(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        R = random_matrix(n, n, rng)
        carrier = F.coefficient_transport(R)
        U = _block(rng.standard_normal((5, n, 4)))
        lhs = carrier @ F.coefficients(U)
        rhs = F.coefficients(R @ U)
        yield _worst((lhs - rhs).column_norms(), rhs.column_norms())
        cap = bounds.upper * operator_norm(R) / bounds.lower
        yield _ratio(max(operator_norm(carrier) - cap * (1 + 1e-9), 0.0), cap)


# ---------------------------------------------------------------------------
# operators acting on frames


@_check("operator-image-frames",
        "surjective images stay frames with conjugated operator; deficient ones fail",
        1e-9)
def _operator_images(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        bounds = F.optimal_bounds()
        L = random_invertible(n, rng)
        image, report = map_frame(L, F)
        if not image.is_frame:
            yield 1.0
            return
        yield report.residuals["operator-conjugation"]
        sigma = _singular_values(L)
        ibounds = image.optimal_bounds()
        floor = bounds.lower * sigma[-1] ** 2
        cap = bounds.upper * sigma[0] ** 2
        yield _ratio(max(floor - ibounds.lower * (1 + 1e-9), 0.0), floor)
        yield _ratio(max(ibounds.upper - cap * (1 + 1e-9), 0.0), cap)
        if n >= 2:
            wide = random_with_spectrum(
                n - 1, n, np.sort(rng.uniform(0.5, 2.0, size=n - 1))[::-1], rng)
            image, _ = map_frame(wide, F)
            yield float(not image.is_frame)
            broken, _ = map_frame(random_rank_deficient(n, n, n - 1, rng), F)
            yield float(broken.is_frame)


@_check("unitary-bound-invariance",
        "unitary images keep the optimal bounds",
        1e-9)
def _unitary_invariance(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        U = random_unitary(n, rng)
        _, _, drift = unitary_invariance_check(U, F)
        yield drift


@_check("projection-compression",
        "projections keep Parseval frames Parseval and bounds inside the envelope",
        1e-9)
def _projection(rng, sizes) -> Iterator[float]:
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
        yield _identity_drift(sub.frame_operator)
        yield abs(sub_bounds.lower - 1.0)
        yield abs(sub_bounds.upper - 1.0)
        plain, plain_bounds = project_frame(basis, F)
        env = F.optimal_bounds()
        yield _ratio(max(env.lower - plain_bounds.lower * (1 + 1e-9), 0.0),
                     env.lower)
        yield _ratio(max(plain_bounds.upper - env.upper * (1 + 1e-9), 0.0),
                     env.upper)


@_check("equivalence-classification",
        "kernel comparison sorts frame pairs into equivalent, one-sided, none",
        1e-8)
def _equivalence(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        F = random_frame(n, m, rng)
        L = random_invertible(n, rng)
        G = Frame.from_synthesis(L @ F.synthesis)
        verdict = are_equivalent(F, G)
        if verdict.relation != "equivalent" or verdict.intertwiner is None:
            yield 1.0
            return
        yield verdict.residual
        # reflexivity ties a frame to itself through the identity
        self_verdict = are_equivalent(F, F)
        if self_verdict.relation != "equivalent":
            yield 1.0
            return
        eye_drift = (self_verdict.intertwiner
                     - QMatrix.identity(n)).entry_moduli().max()
        yield float(eye_drift)
        if are_equivalent(G, F).relation != "equivalent":
            yield 1.0
            return
        # collapsing one direction produces one-sided, and only one-sided
        if n >= 2:
            P = random_rank_deficient(n, n, n - 1, rng)
            H = Frame.from_synthesis(P @ F.synthesis)
            down = are_equivalent(F, H)
            # one-sided verdicts still carry the forward intertwiner plus the
            # kernel vector breaking the backward inclusion
            if (down.relation != "one-sided" or down.intertwiner is None
                    or down.witness is None):
                yield 1.0
                return
            up = are_equivalent(H, F)
            if up.relation != "none" or up.witness is None:
                yield 1.0
                return
            norm_h = operator_norm(H.synthesis)
            norm_f = operator_norm(F.synthesis)
            for w in (down.witness, up.witness):
                yield _ratio((H.synthesis @ w).norm(), norm_h)
                if (F.synthesis @ w).norm() <= 1e-6 * norm_f:
                    yield 1.0
                    return


@_check("prescribed-frame-operator",
        "a frame is built whose frame operator matches a given positive matrix",
        1e-9)
def _prescribed_operator(rng, sizes) -> Iterator[float]:
    for n, _ in sizes:
        L = random_positive_definite(n, rng)
        F = frame_with_frame_operator(L)
        drift = (F.frame_operator - L).frobenius_norm()
        yield _ratio(drift, L.frobenius_norm())


@_check("analysis-operator-bijection",
        "reading a family off an operator's adjoint columns inverts analysis exactly",
        1e-15)
def _analysis_bijection(rng, sizes) -> Iterator[float]:
    for n, m in sizes:
        L = random_matrix(m, n, rng)
        family = bessel_from_operator(L)
        if family.count != m or family.dim != n:
            yield 1.0
            return
        gap = np.abs(family.synthesis.H.components - L.components)
        yield float(gap.max()) if gap.size else 0.0


# ---------------------------------------------------------------------------
# runner


def run_checks(seed: int = 0, sizes: Sizes | None = None,
               tolerance: float | None = None) -> dict:
    """Run the whole suite; deterministic for a fixed seed and size list."""
    size_list = [tuple(s) for s in (sizes if sizes is not None else DEFAULT_SIZES)]
    for n, m in size_list:
        if n < 1 or m < 1:
            raise ValueError(f"sizes need positive dimensions, got ({n}, {m})")
        if n > m:
            raise ValueError(f"sizes need n <= m, as m vectors span H^n only "
                             f"if m >= n; got ({n}, {m})")
    entries: list[dict] = []
    for index, check in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        limit = tolerance if tolerance is not None else check.tolerance
        try:
            residual = float(check.fn(rng, size_list))
            error = None if np.isfinite(residual) else f"residual is {residual}"
        except Exception as exc:  # a blown identity is a failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        entry = {"name": check.name, "description": check.description,
                 "max_residual": None if error else residual, "tolerance": limit,
                 "passed": not error and residual <= limit}
        if error:
            entry["error"] = error
        entries.append(entry)
    failures = sum(1 for entry in entries if not entry["passed"])
    return {
        "seed": int(seed),
        "sizes": [list(s) for s in size_list],
        "checks": entries,
        "failures": failures,
        "passed": failures == 0,
    }
