"""Dense vectors and matrices over the quaternions with right-module semantics.

H^n is treated as a right module: matrices act on column vectors by left
multiplication and scalars multiply on the right, so the two actions commute.
Entries live in the Cayley-Dickson split q = z1 + z2*j, and every spectral
routine factors through the complex embedding

    chi(A + B*j) = [[A, B], [-conj(B), conj(A)]],

which is a *-algebra homomorphism, so it commutes with matrix functions and
pseudoinverses. Each quaternionic eigenvalue or singular value shows up twice
in the embedded problem. Once that doubling is validated, the LAPACK factors
of chi(M) are the one spectral representation: matrix functions,
pseudoinverses and minimal-norm solutions are formed from them and folded
back to the nearest quaternionic matrix, and ranks read the singular values
alone. Quaternionic eigenvectors and singular vectors are recovered only on
request: a simple value takes one embedded column of its pair, a degenerate
group is orthonormalized inside itself, and two Newton-Schulz steps make the
columns orthonormal to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .quaternion import Quaternion

# Tolerances. Relative to the scale of the input unless stated otherwise.
PAIR_TOL = 1e-8          # validation width for the doubled complex spectrum
CLUSTER_TOL = 1e-10      # grouping width for joint eigenvector recovery
HERMITIAN_TOL = 1e-10    # entrywise Hermiticity check, relative to max entry
ORTHONORMAL_TOL = 1e-10  # entrywise check for orthonormal-column inputs
RANK_RTOL = 1e-12        # rank cutoff is max(m, n) * RANK_RTOL * sigma_max
RANGE_RTOL = 1e-8        # admissible relative distance of a RHS from the range

__all__ = [
    "QVector", "QMatrix", "HermEig", "QSvd",
    "inner", "matvec", "adjoint", "complex_adjoint",
    "embed_vector", "unembed_vector",
    "herm_eig", "sqrt_psd", "svd", "operator_norm", "pinv",
    "matrix_rank", "kernel_basis", "solve_min_norm",
    "is_surjective", "is_bounded_below", "orthogonal_projector",
]


# ---------------------------------------------------------------------------
# construction helpers

def _entry_components(entry, where: str) -> tuple[float, float, float, float]:
    if isinstance(entry, Quaternion):
        return entry.components
    if isinstance(entry, Real):
        return (float(entry), 0.0, 0.0, 0.0)
    seq = np.asarray(entry, dtype=float)
    if seq.shape != (4,):
        raise ValueError(f"{where}: expected a quaternion, a real number, "
                         f"or 4 components, got shape {seq.shape}")
    return tuple(seq.tolist())


def _vector_components(entries, where: str = "entry") -> np.ndarray:
    if isinstance(entries, QVector):
        return entries.components
    if isinstance(entries, np.ndarray) and entries.ndim == 2 and entries.shape[1] == 4:
        return np.asarray(entries, dtype=float)
    comps = [_entry_components(e, f"{where} {i}") for i, e in enumerate(entries)]
    if not comps:
        raise ValueError("a vector needs at least one entry")
    return np.asarray(comps, dtype=float)


def _split_from_components(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = comps[..., 0] + 1j * comps[..., 1]
    b = comps[..., 2] + 1j * comps[..., 3]
    return a, b


def _components_from_split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    comps = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
    comps.flags.writeable = False
    return comps


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    out = []
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=complex)
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


class QVector:
    """Column vector in H^n. Scalars multiply on the right: (u * q)[k] = u[k] * q."""

    __slots__ = ("_a", "_b")

    def __init__(self, entries):
        comps = _vector_components(entries)
        self._a, self._b = _freeze(*_split_from_components(comps))

    @classmethod
    def from_split(cls, a: np.ndarray, b: np.ndarray) -> "QVector":
        self = object.__new__(cls)
        a = np.asarray(a, dtype=complex).reshape(-1)
        b = np.asarray(b, dtype=complex).reshape(-1)
        if a.shape != b.shape:
            raise ValueError("split halves disagree in length")
        self._a, self._b = _freeze(a, b)
        return self

    @classmethod
    def zeros(cls, n: int) -> "QVector":
        return cls.from_split(np.zeros(n, complex), np.zeros(n, complex))

    @classmethod
    def basis(cls, n: int, index: int) -> "QVector":
        a = np.zeros(n, complex)
        a[index] = 1.0
        return cls.from_split(a, np.zeros(n, complex))

    @property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        return self._a, self._b

    @property
    def components(self) -> np.ndarray:
        """Real components, shape (n, 4), rows are (a0, a1, a2, a3)."""
        return _components_from_split(self._a, self._b)

    def __len__(self) -> int:
        return self._a.shape[0]

    def __getitem__(self, index: int) -> Quaternion:
        return Quaternion.from_complex_pair(self._a[index], self._b[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def tolist(self) -> list[list[float]]:
        return self.components.tolist()

    def __add__(self, other: "QVector") -> "QVector":
        return QVector.from_split(self._a + other._a, self._b + other._b)

    def __sub__(self, other: "QVector") -> "QVector":
        return QVector.from_split(self._a - other._a, self._b - other._b)

    def __neg__(self) -> "QVector":
        return QVector.from_split(-self._a, -self._b)

    def __mul__(self, scalar) -> "QVector":
        if isinstance(scalar, Real):
            return QVector.from_split(self._a * scalar, self._b * scalar)
        if isinstance(scalar, Quaternion):
            z1, z2 = scalar.to_complex_pair()
            a, b = _right_scale(self._a, self._b, z1, z2)
            return QVector.from_split(a, b)
        return NotImplemented

    def __rmul__(self, scalar) -> "QVector":
        # Real scalars commute with everything, so left and right agree.
        if isinstance(scalar, Real):
            return self * scalar
        return NotImplemented

    def __truediv__(self, scalar) -> "QVector":
        if isinstance(scalar, Real):
            return self * (1.0 / scalar)
        return NotImplemented

    def norm(self) -> float:
        """Euclidean norm sqrt(Re<u|u>) = l2 norm of all 4n real components."""
        return float(np.sqrt(_split_norm_sq(self._a, self._b)))

    def __repr__(self) -> str:
        return f"QVector(n={len(self)})"


class QMatrix:
    """Dense m-by-n matrix over H, acting on QVector by left multiplication."""

    __slots__ = ("_a", "_b")

    def __init__(self, rows):
        if isinstance(rows, np.ndarray) and rows.ndim == 3 and rows.shape[2] == 4:
            comps = np.asarray(rows, dtype=float)
        else:
            parsed = []
            width = None
            for i, row in enumerate(rows):
                row_comps = [_entry_components(e, f"row {i}, column {k}")
                             for k, e in enumerate(row)]
                if width is None:
                    width = len(row_comps)
                elif len(row_comps) != width:
                    raise ValueError(f"row {i} has {len(row_comps)} entries, "
                                     f"expected {width}")
                parsed.append(row_comps)
            if not parsed:
                raise ValueError("a matrix needs at least one row")
            comps = np.asarray(parsed, dtype=float).reshape(len(parsed), width or 0, 4)
        self._a, self._b = _freeze(*_split_from_components(comps))

    @classmethod
    def from_split(cls, a: np.ndarray, b: np.ndarray) -> "QMatrix":
        self = object.__new__(cls)
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.ndim != 2 or a.shape != b.shape:
            raise ValueError("split halves must be 2-d and of equal shape")
        self._a, self._b = _freeze(a, b)
        return self

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMatrix":
        return cls.from_split(np.zeros((m, n), complex), np.zeros((m, n), complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_split(np.eye(n, dtype=complex), np.zeros((n, n), complex))

    @classmethod
    def diag(cls, entries) -> "QMatrix":
        comps = _vector_components(entries, "diagonal entry")
        a, b = _split_from_components(comps)
        return cls.from_split(np.diag(a), np.diag(b))

    @classmethod
    def from_real(cls, arr) -> "QMatrix":
        arr = np.asarray(arr, dtype=float)
        return cls.from_split(arr.astype(complex), np.zeros_like(arr, dtype=complex))

    @classmethod
    def from_columns(cls, columns: Sequence[QVector], dim: int | None = None) -> "QMatrix":
        if not columns:
            if dim is None:
                raise ValueError("cannot infer the dimension of an empty column family")
            return cls.zeros(dim, 0)
        a = np.column_stack([c.split[0] for c in columns])
        b = np.column_stack([c.split[1] for c in columns])
        if dim is not None and a.shape[0] != dim:
            raise ValueError(f"columns live in H^{a.shape[0]}, expected H^{dim}")
        return cls.from_split(a, b)

    @property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        return self._a, self._b

    @property
    def components(self) -> np.ndarray:
        """Real components, shape (m, n, 4)."""
        return _components_from_split(self._a, self._b)

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def __getitem__(self, key) -> Quaternion:
        i, k = key
        return Quaternion.from_complex_pair(self._a[i, k], self._b[i, k])

    def column(self, k: int) -> QVector:
        return QVector.from_split(self._a[:, k], self._b[:, k])

    def columns(self) -> list[QVector]:
        return [self.column(k) for k in range(self.shape[1])]

    def tolist(self) -> list[list[list[float]]]:
        return self.components.tolist()

    @property
    def H(self) -> "QMatrix":
        """Adjoint (conjugate transpose): split acts as (A, B) -> (A^H, -B^T)."""
        return QMatrix.from_split(self._a.conj().T, -self._b.T)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix.from_split(self._a + other._a, self._b + other._b)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix.from_split(self._a - other._a, self._b - other._b)

    def __neg__(self) -> "QMatrix":
        return QMatrix.from_split(-self._a, -self._b)

    def __mul__(self, scalar) -> "QMatrix":
        if isinstance(scalar, Real):
            return QMatrix.from_split(self._a * scalar, self._b * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, QMatrix):
            if self.shape[1] != other.shape[0]:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            a, b = _split_matmul(self._a, self._b, other._a, other._b)
            return QMatrix.from_split(a, b)
        if isinstance(other, QVector):
            if self.shape[1] != len(other):
                raise ValueError(f"cannot apply {self.shape} to a vector of "
                                 f"length {len(other)}")
            oa, ob = other.split
            a, b = _split_matmul(self._a, self._b, oa[:, None], ob[:, None])
            return QVector.from_split(a[:, 0], b[:, 0])
        return NotImplemented

    def frobenius_norm(self) -> float:
        return float(np.sqrt(_split_norm_sq(self._a, self._b)))

    def entry_moduli(self) -> np.ndarray:
        return np.sqrt(np.abs(self._a) ** 2 + np.abs(self._b) ** 2)

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of each column, as one array."""
        a, b = self._a, self._b
        return np.sqrt((a.conj() * a).real.sum(axis=0)
                       + (b.conj() * b).real.sum(axis=0))

    def __repr__(self) -> str:
        return f"QMatrix(shape={self.shape})"


# ---------------------------------------------------------------------------
# split-arithmetic kernels
#
# With p = a + b*j and q = c + d*j, the Hamilton relations give
#   p*q = (a*c - b*conj(d)) + (a*d + b*conj(c))*j
# and conj(p) = conj(a) - b*j. Everything below is that identity applied
# entrywise or summed over an index.

def _split_matmul(A1, B1, A2, B2):
    a = A1 @ A2 - B1 @ B2.conj()
    b = A1 @ B2 + B1 @ A2.conj()
    return a, b


def _right_scale(a, b, z1, z2):
    """(a + b*j) * (z1 + z2*j), scalar on the right."""
    return a * z1 - b * np.conj(z2), a * z2 + b * np.conj(z1)


def _split_inner(a1, b1, a2, b2) -> tuple[complex, complex]:
    """<u|v> = sum conj(u_k) v_k in split form; conjugate-linear first slot."""
    z1 = np.vdot(a1, a2) + np.vdot(b2, b1)
    z2 = np.vdot(a1, b2) - np.vdot(a2, b1)
    return complex(z1), complex(z2)


def _split_norm_sq(a, b) -> float:
    return float(np.vdot(a, a).real + np.vdot(b, b).real)


def inner(u: QVector, v: QVector) -> Quaternion:
    """Hermitian inner product <u|v>; right-linear in v, <u|v*q> = <u|v>*q."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    ua, ub = u.split
    va, vb = v.split
    return Quaternion.from_complex_pair(*_split_inner(ua, ub, va, vb))


def matvec(M: QMatrix, u: QVector) -> QVector:
    return M @ u


def adjoint(M: QMatrix) -> QMatrix:
    return M.H


def complex_adjoint(M: QMatrix) -> np.ndarray:
    """Complex image chi(M), shape (2m, 2n). Multiplicative and *-preserving."""
    A, B = M.split
    return np.block([[A, B], [-B.conj(), A.conj()]])


def embed_vector(u: QVector) -> np.ndarray:
    """Complex coordinates of u compatible with chi: chi(M) emb(u) = emb(M u)."""
    a, b = u.split
    return np.concatenate([a, -b.conj()])


def unembed_vector(z: np.ndarray) -> QVector:
    z = np.asarray(z, dtype=complex).reshape(-1)
    if z.shape[0] % 2:
        raise ValueError("embedded vectors have even length")
    n = z.shape[0] // 2
    return QVector.from_split(z[:n], -z[n:].conj())


# ---------------------------------------------------------------------------
# the embedded spectrum and the way back to quaternionic blocks

def _group_values(values: np.ndarray, scale: float) -> list[tuple[int, int]]:
    """Contiguous groups (start, stop) of near-coincident sorted values."""
    groups = []
    start = 0
    for t in range(1, len(values)):
        if abs(values[t] - values[t - 1]) > CLUSTER_TOL * (scale + abs(values[t])):
            groups.append((start, t))
            start = t
    if len(values):
        groups.append((start, len(values)))
    return groups


def _validate_pairing(doubled: np.ndarray, kind: str) -> np.ndarray:
    even, odd = doubled[0::2], doubled[1::2]
    widths = PAIR_TOL * (1.0 + np.abs(0.5 * (even + odd)))
    bad = np.abs(even - odd) > widths
    if np.any(bad):
        t = int(np.argmax(bad))
        raise np.linalg.LinAlgError(
            f"embedded {kind} spectrum failed to pair at position {2 * t}: "
            f"{even[t]!r} vs {odd[t]!r}")
    return 0.5 * (even + odd)


def _fold(X: np.ndarray) -> QMatrix:
    """The quaternionic matrix whose embedding is nearest to X, shape 2m x 2n."""
    m, n = X.shape[0] // 2, X.shape[1] // 2
    return QMatrix.from_split(0.5 * (X[:m, :n] + X[m:, n:].conj()),
                              0.5 * (X[:m, n:] - X[m:, :n].conj()))


def _partner(z: np.ndarray) -> np.ndarray:
    """Embedded coordinates of u*j, given those of u."""
    n = z.shape[0] // 2
    return np.concatenate([z[n:], -z[:n]]).conj()


def _group_basis(C: np.ndarray, need: int) -> np.ndarray:
    """`need` embedded vectors spanning the j-closed column space of C.

    Each step takes a pivot, the first candidate whose residual is at least
    half the largest, and projects it and its j-partner out of the others, so
    the chosen vectors are orthonormal in the quaternionic inner product.
    Taking the first rather than the largest keeps the vectors in the order
    of their values when a group holds close but distinct values.
    """
    C = C.copy()
    out = np.empty((C.shape[0], need), dtype=complex)
    for t in range(need):
        norms = np.linalg.norm(C, axis=0)
        if norms.max() < 1e-6:
            raise np.linalg.LinAlgError(
                "failed to recover an orthonormal quaternionic system from the "
                "embedded spectrum")
        p = int(np.argmax(norms >= 0.5 * norms.max()))
        z = C[:, p] / norms[p]
        out[:, t] = z
        E = np.column_stack([z, _partner(z)])
        C -= E @ (E.conj().T @ C)
    return out


def _recover(W: np.ndarray, values: np.ndarray, scale: float) -> np.ndarray:
    """One embedded quaternionic vector per value from the doubled columns W.

    The j-partner of an embedded eigenvector lies in its own eigenspace, so
    vectors of different groups are already quaternion-orthogonal: a simple
    value takes one column of its pair, and only degenerate groups are
    orthonormalized, inside the group.
    """
    Z = W[:, 0::2].copy()
    for start, stop in _group_values(values, scale):
        if stop - start > 1:
            Z[:, start:stop] = _group_basis(W[:, 2 * start:2 * stop], stop - start)
    return Z


def _polish(Z: np.ndarray) -> QMatrix:
    """The quaternionic columns of Z after two steps of U <- U (3I - U*U) / 2.

    Vectors of groups just over CLUSTER_TOL apart carry cross terms of order
    eps / gap, up to about 1e-6. Each Newton-Schulz step squares them (one
    step leaves about 1e-12), and the mixing it applies reaches a
    factorization only multiplied by the gap between the groups.
    """
    n = Z.shape[0] // 2
    a, b = Z[:n], -Z[n:].conj()
    eye = np.eye(Z.shape[1])
    for _ in range(2):
        ga, gb = _split_matmul(a.conj().T, -b.T, a, b)
        a, b = _split_matmul(a, b, 1.5 * eye - 0.5 * ga, -0.5 * gb)
    return QMatrix.from_split(a, b)


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition

@dataclass(frozen=True)
class HermEig:
    """Spectral factorization M = U diag(eigenvalues) U* of a Hermitian M.

    Eigenvalues are real and sorted descending. The factorization is held as
    `embedded`, the eigenvectors of chi(M) as eigh returned them (ascending,
    two per eigenvalue). Matrix functions are read off them directly; the
    quaternionic eigenvector columns, orthonormal in the quaternionic inner
    product, are recovered on first use.
    """

    eigenvalues: np.ndarray
    embedded: np.ndarray

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> QMatrix:
        """U diag(fn(eigenvalues)) U*, exactly Hermitian."""
        values = np.asarray(fn(self.eigenvalues), dtype=float)
        W = self.embedded
        X = (W * np.repeat(values[::-1], 2)) @ W.conj().T
        return _fold(0.5 * (X + X.conj().T))

    @cached_property
    def eigenvectors(self) -> QMatrix:
        lam = self.eigenvalues[::-1]
        spread = float(np.abs(lam).max()) if len(lam) else 0.0
        return _polish(_recover(self.embedded, lam, spread)[:, ::-1])


def herm_eig(M: QMatrix) -> HermEig:
    """Eigendecomposition of a Hermitian quaternionic matrix.

    The input must satisfy M = M* entrywise within HERMITIAN_TOL relative to
    its largest entry; anything else is rejected rather than symmetrized.
    """
    m, n = M.shape
    if m != n:
        raise ValueError(f"expected a square matrix, got {M.shape}")
    scale = float(M.entry_moduli().max()) if n else 0.0
    drift = (M - M.H).entry_moduli()
    if np.any(drift > HERMITIAN_TOL * scale):
        i, k = np.unravel_index(int(np.argmax(drift)), drift.shape)
        raise ValueError(
            f"matrix is not Hermitian: entry ({i}, {k}) differs from its "
            f"mirror by {drift[i, k]:.3e} against scale {scale:.3e}")

    chi = complex_adjoint(M)
    chi = 0.5 * (chi + chi.conj().T)
    doubled, W = np.linalg.eigh(chi)
    lam = _validate_pairing(doubled, "eigen")
    return HermEig(eigenvalues=np.ascontiguousarray(lam[::-1]), embedded=W)


def sqrt_psd(M: QMatrix) -> QMatrix:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    eig = herm_eig(M)
    lam = eig.eigenvalues
    top = float(max(lam[0], 0.0)) if len(lam) else 0.0
    if len(lam) and lam[-1] < -HERMITIAN_TOL * top:
        raise ValueError(f"matrix is not positive semidefinite: smallest "
                         f"eigenvalue {lam[-1]:.3e}")
    return eig.apply(lambda v: np.sqrt(np.clip(v, 0.0, None)))


# ---------------------------------------------------------------------------
# singular value decomposition

@dataclass(frozen=True)
class QSvd:
    """Full factorization M = u diag(singular_values) v.H (rectangular diag).

    u is m x m, v is n x n, both with orthonormal columns; singular values are
    nonnegative and sorted descending, min(m, n) of them.
    """

    u: QMatrix
    singular_values: np.ndarray
    v: QMatrix

    def rank(self, rtol: float | None = None) -> int:
        return _rank_from_sigma(self.singular_values, self.u.shape[0],
                                self.v.shape[0], rtol)


def _rank_from_sigma(sigma: np.ndarray, m: int, n: int, rtol: float | None) -> int:
    if len(sigma) == 0:
        return 0
    if rtol is None:
        rtol = max(m, n) * RANK_RTOL
    return int(np.count_nonzero(sigma > rtol * sigma[0]))


def _thin_svd(M: QMatrix, rtol: float | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (Wl, s, Wr) of chi(M), cut at twice the rank of M."""
    Wl, doubled, Wrh = np.linalg.svd(complex_adjoint(M), full_matrices=False)
    sigma = _validate_pairing(doubled, "singular")
    r = 2 * _rank_from_sigma(sigma, *M.shape, rtol)
    return Wl[:, :r], np.repeat(sigma, 2)[:r], Wrh[:r].conj().T


def svd(M: QMatrix) -> QSvd:
    """Singular value decomposition through the complex embedding.

    The right and left vectors of a nonzero singular value are recovered
    together, as one vector (v, u) of H^(n+m), so the columns chosen for v
    and for u are the ones LAPACK paired. The values grouped with zero and
    the tail of the larger side span the null spaces of M and M*, which are
    recovered on each side alone.
    """
    m, n = M.shape
    Wl, doubled, Wrh = np.linalg.svd(complex_adjoint(M))
    sigma = _validate_pairing(doubled, "singular")
    smax = float(sigma[0]) if len(sigma) else 0.0
    Wr = Wrh.conj().T
    z = _group_values(np.append(sigma, 0.0), smax)[-1][0]
    # The embedding of (v, u) stacks the halves as (v top, u top, v bottom,
    # u bottom); the scaling makes each stacked column a unit vector.
    both = np.concatenate([Wr[:n, :2 * z], Wl[:m, :2 * z],
                           Wr[n:, :2 * z], Wl[m:, :2 * z]]) / np.sqrt(2)
    Y = _recover(both, sigma[:z], smax) * np.sqrt(2)
    v = np.hstack([np.concatenate([Y[:n], Y[n + m:2 * n + m]]),
                   _recover(Wr[:, 2 * z:], np.zeros(n - z), smax)])
    u = np.hstack([np.concatenate([Y[n:n + m], Y[2 * n + m:]]),
                   _recover(Wl[:, 2 * z:], np.zeros(m - z), smax)])
    return QSvd(u=_polish(u), singular_values=np.ascontiguousarray(sigma),
                v=_polish(v))


def operator_norm(M: QMatrix) -> float:
    """Largest singular value, computed directly from the complex embedding."""
    if M.shape[0] == 0 or M.shape[1] == 0:
        return 0.0
    values = np.linalg.svd(complex_adjoint(M), compute_uv=False)
    return float(values[0]) if len(values) else 0.0


def matrix_rank(M: QMatrix, rtol: float | None = None) -> int:
    doubled = np.linalg.svd(complex_adjoint(M), compute_uv=False)
    return _rank_from_sigma(_validate_pairing(doubled, "singular"), *M.shape, rtol)


def pinv(M: QMatrix, rtol: float | None = None) -> QMatrix:
    """Moore-Penrose pseudoinverse, folded back from that of chi(M)."""
    Wl, s, Wr = _thin_svd(M, rtol)
    return _fold((Wr / s) @ Wl.conj().T)


def kernel_basis(M: QMatrix, rtol: float | None = None) -> QMatrix:
    """Orthonormal basis of the right null space, shape n x (n - rank)."""
    fac = svd(M)
    r = fac.rank(rtol)
    va, vb = fac.v.split
    return QMatrix.from_split(va[:, r:], vb[:, r:])


def solve_min_norm(M: QMatrix, v: QVector, rtol: float | None = None) -> QVector:
    """Minimal-norm solution of M x = v; rejects RHS outside the range."""
    if M.shape[0] != len(v):
        raise ValueError(f"shape mismatch: {M.shape} against length {len(v)}")
    Wl, s, Wr = _thin_svd(M, rtol)
    z = embed_vector(v)
    coeffs = Wl.conj().T @ z
    resid = float(np.linalg.norm(z - Wl @ coeffs))
    if resid > RANGE_RTOL * max(v.norm(), 1e-300):
        raise ValueError(f"right-hand side is not in the range: relative "
                         f"residual {resid / max(v.norm(), 1e-300):.3e}")
    return unembed_vector(Wr @ (coeffs / s))


def is_surjective(M: QMatrix, rtol: float | None = None) -> bool:
    return matrix_rank(M, rtol) == M.shape[0]


def is_bounded_below(M: QMatrix, rtol: float | None = None) -> bool:
    return matrix_rank(M, rtol) == M.shape[1]


def orthogonal_projector(B: QMatrix) -> QMatrix:
    """Projector B B* onto the column span of an orthonormal family B."""
    gram = B.H @ B
    drift = (gram - QMatrix.identity(B.shape[1])).entry_moduli()
    if drift.size and np.any(drift > ORTHONORMAL_TOL):
        i, k = np.unravel_index(int(np.argmax(drift)), drift.shape)
        raise ValueError(f"columns are not orthonormal: Gram entry ({i}, {k}) "
                         f"is off by {drift[i, k]:.3e}")
    P = B @ B.H
    pa, pb = P.split
    return QMatrix.from_split(0.5 * (pa + pa.conj().T), 0.5 * (pb - pb.T))
