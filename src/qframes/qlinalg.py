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
alone. The kernel of chi(M) is the embedded kernel of M, so a kernel basis
needs only the null columns of one full SVD. Quaternionic eigenvectors and
singular vectors are recovered only on request: a simple value takes one
embedded column of its pair, every degenerate group (a cluster of close
values, or a null space) is taken in one block from one polar factor, and
at most two Newton-Schulz steps make the columns orthonormal to rounding;
the polish stops as soon as they are.

The 2n x 2n embedding exists only inside the LAPACK calls and the GEMMs
around them. Every elementwise step (the Hermitian check, symmetrizing, the
fold of a matrix function) runs on the n x n split halves (A, B), and a
product X Y* reads the transposes of Y's halves as views instead of
forming Y*. A product known to be Hermitian forms each block once: X X*
(the frame operator, a projector, a Gram matrix) takes one GEMM for the
j-half and its transpose, and a matrix function never forms the lower
left block of its embedding, the conjugate transpose of the upper right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Real
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quaternion import Quaternion

# Tolerances. Relative to the scale of the input unless stated otherwise.
PAIR_TOL = 1e-8          # doubled-spectrum pairing width, relative to its max
CLUSTER_TOL = 1e-10      # grouping width for joint eigenvector recovery
HERMITIAN_TOL = 1e-10    # entrywise Hermiticity check, relative to max entry
ORTHONORMAL_TOL = 1e-10  # entrywise check for orthonormal-column inputs
RANK_RTOL = 1e-12        # rank cutoff is max(m, n) * RANK_RTOL * sigma_max
RANGE_RTOL = 1e-8        # admissible relative distance of a RHS from the range
POLISH_TOL = 1e-14       # entrywise U*U - I drift at which the polish stops
SKETCH_FLOOR = 1e-4      # least sigma_min / sigma_max of [Y, partner(Y)]

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

def _real_array(entries, where: str) -> np.ndarray:
    """entries as a float array; an entry that is not a number (a string that
    reads as one included), or lists of uneven length, raise a ValueError
    naming where."""
    try:
        arr = np.asarray(entries)
        # astype(float) would read a string such as "1.5" as a number, so
        # strings are refused first; integers beyond int64 arrive as an
        # object array, which may hold one too.
        if arr.dtype.kind in "SU" or (arr.dtype.kind == "O" and any(
                isinstance(x, str) for x in arr.flat)):
            raise TypeError("a component is a string")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: entries must be numbers in lists of equal "
                         f"length ({exc})") from None


def _entry_components(entry, where: str) -> tuple[float, float, float, float]:
    if isinstance(entry, Quaternion):
        return entry.components
    if isinstance(entry, Real):
        return (float(entry), 0.0, 0.0, 0.0)
    seq = _real_array(entry, where)
    if seq.shape != (4,):
        raise ValueError(f"{where}: expected a quaternion, a real number, "
                         f"or 4 components, got shape {seq.shape}")
    return tuple(seq.tolist())


def _vector_components(entries, where: str = "entry") -> np.ndarray:
    # A numeric (n, 4) array is read in one step; any other array goes entry
    # by entry, which names the first entry that is not a number.
    if isinstance(entries, QVector):
        return entries.components
    if (isinstance(entries, np.ndarray) and entries.dtype.kind in "biuf"
            and entries.ndim == 2 and entries.shape[1] == 4):
        return np.asarray(entries, dtype=float)
    comps = [_entry_components(e, f"{where} {i}") for i, e in enumerate(entries)]
    if not comps:
        raise ValueError("a vector needs at least one entry")
    return np.asarray(comps, dtype=float)


def _split_from_components(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Each pair of float components is read as one complex number in place, so
    # every bit (the sign of a zero included) survives; the halves are copied,
    # so they never alias the caller's array, and made read-only. The view
    # needs only the last axis contiguous, as it is in a transposed array, so
    # the components are copied only when numpy refuses it.
    try:
        z = comps.view(complex)
    except ValueError:
        z = np.ascontiguousarray(comps).view(complex)
    a, b = z[..., 0].copy(), z[..., 1].copy()
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _own(cls, a: np.ndarray, b: np.ndarray):
    """A QVector or QMatrix holding complex halves the library just allocated.

    Nothing else refers to them, so they are kept without a copy and only
    made read-only. Arrays from outside come in through from_split, which
    copies them.
    """
    a.setflags(write=False)
    b.setflags(write=False)
    self = object.__new__(cls)
    self._a, self._b = a, b
    return self


def _entry_moduli(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a + b*j| for each entry of the split halves; hypot cannot overflow."""
    return np.hypot(np.abs(a), np.abs(b))


_TINY = np.finfo(float).tiny


def _norm(a: np.ndarray, b: np.ndarray | None = None,
          axis: int | None = None):
    """sqrt(sum |a|^2 + |b|^2) over the entries of a and of b, if given: one
    float, or one norm per slice along axis (for 1-d arrays, every entry).

    The sum of squares is the plain one, so a result whose sum is finite and
    normal keeps its bits. A sum that overflowed, or fell below the normal
    range, is formed again from the real components scaled by the power of
    two that frexp reads off the largest of them; that scaling is exact.
    """
    parts = (a,) if b is None else (a, b)
    whole = axis is None or a.ndim == 1
    if whole:
        sq = float(np.vdot(a, a).real)
        if b is not None:
            sq += float(np.vdot(b, b).real)
        if _TINY <= sq < math.inf or not any(x.any() for x in parts):
            return math.sqrt(sq)
        parts, axis = [x.ravel() for x in parts], 0
    else:
        # The imaginary parts, thrown away, are inf * 0 for an infinite entry.
        with np.errstate(over="ignore", invalid="ignore"):
            sq = (a.conj() * a).real.sum(axis=axis)
            if b is not None:
                sq += (b.conj() * b).real.sum(axis=axis)
        if (_TINY <= sq.min(initial=math.inf)
                and sq.max(initial=0.0) < math.inf):
            return np.sqrt(sq)
    planes = [p for x in parts for p in (x.real, x.imag)]
    top = np.max([np.abs(p).max(axis=axis, initial=0.0) for p in planes],
                 axis=0)
    e = np.frexp(top)[1]
    down = np.expand_dims(-e, axis)
    scaled = sum((np.ldexp(p, down) ** 2).sum(axis=axis) for p in planes)
    norms = np.ldexp(np.sqrt(scaled), e)
    if whole:
        return float(norms)
    return np.where((sq >= _TINY) & (sq < math.inf), np.sqrt(sq), norms)


class _Split:
    """What QVector and QMatrix share: the complex halves a + b*j of their
    entries, and the arithmetic that acts on both halves alike."""

    __slots__ = ("_a", "_b")

    @property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        return self._a, self._b

    @property
    def components(self) -> np.ndarray:
        """Real components: shape + (4,), the last axis is (a0, a1, a2, a3)."""
        a, b = self._a, self._b
        comps = np.stack([a.real, a.imag, b.real, b.imag], axis=-1)
        comps.flags.writeable = False
        return comps

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    def tolist(self) -> list:
        return self.components.tolist()

    def __add__(self, other):
        return _own(type(self), self._a + other._a, self._b + other._b)

    def __sub__(self, other):
        return _own(type(self), self._a - other._a, self._b - other._b)

    def __neg__(self):
        return _own(type(self), -self._a, -self._b)

    def __mul__(self, scalar):
        if isinstance(scalar, Real):
            scalar = float(scalar)
            return _own(type(self), self._a * scalar, self._b * scalar)
        return NotImplemented

    def __rmul__(self, scalar):
        # Real scalars commute with everything, so left and right agree.
        if isinstance(scalar, Real):
            return self * scalar
        return NotImplemented


class QVector(_Split):
    """Column vector in H^n. Scalars multiply on the right: (u * q)[k] = u[k] * q."""

    __slots__ = ()

    def __init__(self, entries):
        comps = _vector_components(entries)
        self._a, self._b = _split_from_components(comps)

    @classmethod
    def from_split(cls, a: np.ndarray, b: np.ndarray) -> "QVector":
        """The vector a + b*j, holding copies of a and b."""
        a = np.array(a, dtype=complex, order="C").reshape(-1)
        b = np.array(b, dtype=complex, order="C").reshape(-1)
        if a.shape != b.shape:
            raise ValueError("split halves disagree in length")
        return _own(cls, a, b)

    @classmethod
    def zeros(cls, n: int) -> "QVector":
        return _own(cls, np.zeros(n, complex), np.zeros(n, complex))

    @classmethod
    def basis(cls, n: int, index: int) -> "QVector":
        a = np.zeros(n, complex)
        a[index] = 1.0
        return _own(cls, a, np.zeros(n, complex))

    def __len__(self) -> int:
        return self._a.shape[0]

    def __getitem__(self, index: int) -> Quaternion:
        return Quaternion.from_complex_pair(self._a[index], self._b[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __mul__(self, scalar) -> "QVector":
        if isinstance(scalar, Quaternion):
            z1, z2 = scalar.to_complex_pair()
            return _own(QVector, *_right_scale(self._a, self._b, z1, z2))
        return _Split.__mul__(self, scalar)

    def __truediv__(self, scalar) -> "QVector":
        """Each component divided by the real scalar (_over); dividing by a
        zero of any real type raises ZeroDivisionError."""
        if isinstance(scalar, Real):
            d = float(scalar)
            if d == 0.0:
                raise ZeroDivisionError("vector division by zero")
            return _own(QVector, _over(self._a, d), _over(self._b, d))
        return NotImplemented

    def norm(self) -> float:
        """Euclidean norm sqrt(Re<u|u>) = l2 norm of all 4n real components."""
        return _norm(self._a, self._b)

    def __repr__(self) -> str:
        return f"QVector(n={len(self)})"


class QMatrix(_Split):
    """Dense m-by-n matrix over H, acting on QVector by left multiplication."""

    __slots__ = ()

    def __init__(self, rows):
        # A numeric (m, n, 4) array is read in one step; any other array goes
        # entry by entry, which names the first entry that is not a number.
        if (isinstance(rows, np.ndarray) and rows.dtype.kind in "biuf"
                and rows.ndim == 3 and rows.shape[2] == 4):
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
        self._a, self._b = _split_from_components(comps)

    @classmethod
    def from_split(cls, a: np.ndarray, b: np.ndarray) -> "QMatrix":
        """The matrix A + B*j, holding copies of A and B."""
        a = np.array(a, dtype=complex, order="C")
        b = np.array(b, dtype=complex, order="C")
        if a.ndim != 2 or a.shape != b.shape:
            raise ValueError("split halves must be 2-d and of equal shape")
        return _own(cls, a, b)

    @classmethod
    def zeros(cls, m: int, n: int) -> "QMatrix":
        return _own(cls, np.zeros((m, n), complex), np.zeros((m, n), complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return _own(cls, np.eye(n, dtype=complex), np.zeros((n, n), complex))

    @classmethod
    def diag(cls, entries) -> "QMatrix":
        comps = _vector_components(entries, "diagonal entry")
        a, b = _split_from_components(comps)
        return _own(cls, np.diag(a), np.diag(b))

    @classmethod
    def from_real(cls, arr) -> "QMatrix":
        arr = np.asarray(arr, dtype=float)
        return _own(cls, arr.astype(complex), np.zeros_like(arr, dtype=complex))

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
        return _own(cls, a, b)

    def __getitem__(self, key) -> Quaternion:
        i, k = key
        return Quaternion.from_complex_pair(self._a[i, k], self._b[i, k])

    def column(self, k: int) -> QVector:
        return QVector.from_split(self._a[:, k], self._b[:, k])

    def columns(self) -> list[QVector]:
        return [self.column(k) for k in range(self.shape[1])]

    @property
    def H(self) -> "QMatrix":
        """Adjoint (conjugate transpose): split acts as (A, B) -> (A^H, -B^T)."""
        return _own(QMatrix, np.conjugate(self._a.T, order="C"),
                    np.negative(self._b.T, order="C"))

    def __matmul__(self, other):
        if isinstance(other, QMatrix):
            if self.shape[1] != other.shape[0]:
                raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
            return _own(QMatrix, *_split_matmul(self._a, self._b,
                                                 other._a, other._b))
        if isinstance(other, QVector):
            if self.shape[1] != len(other):
                raise ValueError(f"cannot apply {self.shape} to a vector of "
                                 f"length {len(other)}")
            return _own(QVector, *_split_matmul(self._a, self._b,
                                                 other._a, other._b))
        return NotImplemented

    def frobenius_norm(self) -> float:
        return _norm(self._a, self._b)

    def entry_moduli(self) -> np.ndarray:
        return _entry_moduli(self._a, self._b)

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of each column, as one array."""
        return _norm(self._a, self._b, axis=0)

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


def _split_matmul_adjoint(A1, B1, A2, B2):
    """(A1 + B1*j)(A2 + B2*j)*, with no copy of the adjoint: the split of
    the product is (A1 A2^H + B1 B2^H, B1 A2^T - A1 B2^T). The transposes
    are views that BLAS reads in place, so only the two conjugates are
    copies, where X @ Y.H makes four."""
    a = A1 @ A2.conj().T + B1 @ B2.conj().T
    b = B1 @ A2.T - A1 @ B2.T
    return a, b


def _split_outer(A, C):
    """(A + C*j)(A + C*j)*, in three GEMMs: the split is (A A^H + C C^H,
    Z - Z^T) with Z = C A^T, since the second term of the j-half, A C^T, is
    Z^T exactly."""
    Z = C @ A.T
    return A @ A.conj().T + C @ C.conj().T, Z - Z.T


def _matmul_adjoint(X: QMatrix, Y: QMatrix) -> QMatrix:
    """X Y*, formed by _split_matmul_adjoint without a copy of Y*."""
    return _own(QMatrix, *_split_matmul_adjoint(*X.split, *Y.split))


def _hermitian_part(a: np.ndarray, b: np.ndarray) -> QMatrix:
    """(P + P*) / 2, exactly Hermitian, for the square P = a + b*j. Each term
    is halved before its sum, so an entry that fits in a double stays finite;
    in the normal range halving is exact: the bits of 0.5 * (P + P*)."""
    a, b = 0.5 * a, 0.5 * b
    return _own(QMatrix, a + a.conj().T, b - b.T)


def _right_scale(a, b, z1, z2):
    """(a + b*j) * (z1 + z2*j), scalar on the right."""
    return a * z1 - b * np.conj(z2), a * z2 + b * np.conj(z1)


def _split_inner(a1, b1, a2, b2) -> tuple[complex, complex]:
    """<u|v> = sum conj(u_k) v_k in split form; conjugate-linear first slot."""
    z1 = np.vdot(a1, a2) + np.vdot(b2, b1)
    z2 = np.vdot(a1, b2) - np.vdot(a2, b1)
    return complex(z1), complex(z2)


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
    m, n = A.shape
    chi = np.empty((2 * m, 2 * n), dtype=complex)
    chi[:m, :n] = A
    chi[:m, n:] = B
    chi[m:, :n] = -B.conj()
    chi[m:, n:] = A.conj()
    return chi


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
    # Each term is halved before its difference and its sum, so values near
    # the largest double group without overflow; in the normal range halving
    # is exact.
    groups = []
    start = 0
    for t in range(1, len(values)):
        if (abs(0.5 * values[t] - 0.5 * values[t - 1])
                > CLUSTER_TOL * (0.5 * scale + 0.5 * abs(values[t]))):
            groups.append((start, t))
            start = t
    if len(values):
        groups.append((start, len(values)))
    return groups


def _validate_pairing(doubled: np.ndarray, kind: str) -> np.ndarray:
    """The quaternionic values of a doubled spectrum, sorted as LAPACK
    returns it, so its largest modulus sits at one end."""
    # Each pair mean is correctly rounded. Below 2^1023 no sum or difference
    # of two values overflows, and a sum is exact whenever it is subnormal,
    # so halving it rounds once and the smallest subnormal survives. From
    # 2^1023 up, the terms are halved before the sum and the pairing test
    # compares halved values; halving is exact from 2^-1021 up, and a pair
    # whose mean lies below 1 is summed first.
    even, odd = doubled[0::2], doubled[1::2]
    scale = max(abs(doubled[0]), abs(doubled[-1])) if len(doubled) else 0.0
    if scale < 2.0 ** 1023:
        mid = 0.5 * (even + odd)
        bad = np.abs(even - odd) > PAIR_TOL * scale + PAIR_TOL * np.abs(mid)
    else:
        mid = 0.5 * even + 0.5 * odd
        small = np.abs(mid) < 1.0
        mid[small] = 0.5 * (even[small] + odd[small])
        bad = (np.abs(0.5 * even - 0.5 * odd)
               > PAIR_TOL * (0.5 * scale + 0.5 * np.abs(mid)))
    if bad.any():
        t = int(np.argmax(bad))
        raise np.linalg.LinAlgError(
            f"embedded {kind} spectrum failed to pair at position {2 * t}: "
            f"{float(even[t])!r} vs {float(odd[t])!r}")
    return mid


def _fold(X: np.ndarray) -> QMatrix:
    """The quaternionic matrix whose embedding is nearest to X, shape 2m x 2n.
    Each block is halved before its sum, so an entry that fits in a double
    stays finite; in the normal range halving is exact."""
    m, n = X.shape[0] // 2, X.shape[1] // 2
    X = 0.5 * X
    return _own(QMatrix, X[:m, :n] + X[m:, n:].conj(),
                X[:m, n:] - X[m:, :n].conj())


def _partner(z: np.ndarray) -> np.ndarray:
    """Embedded coordinates of u*j, given those of u."""
    n = z.shape[0] // 2
    return np.concatenate([z[n:], -z[:n]]).conj()


def _polar(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polar factor Wl Wr* of a complex block P, the orthonormal factor
    nearest to it, and the singular values, from one LAPACK SVD.

    The factor is P (P* P)^(-1/2). When P* P has the block structure of an
    embedding, so does its inverse root, and the factor keeps the pairing of
    P: it is chi(Q) for P = chi(X), and [Z, partner(Z)] for P = [Y,
    partner(Y)], which is how a degenerate group is orthonormalized.
    """
    Wl, s, Wrh = np.linalg.svd(P, full_matrices=False)
    return Wl @ Wrh, s


@lru_cache(maxsize=16)
def _sketch(k: int) -> np.ndarray:
    """A fixed complex Gaussian 2k x k test matrix, read-only."""
    G = np.random.default_rng(k).standard_normal((2 * k, 2 * k)).view(complex)
    G.setflags(write=False)
    return G


def _group_basis(C: np.ndarray) -> np.ndarray:
    """k embedded vectors, orthonormal in the quaternionic inner product,
    spanning the j-closed column space of the orthonormal 2n x 2k block C.

    For a block Y of k columns in that space, P = [Y, partner(Y)] spans it
    whenever its quaternionic columns are independent, and the first k
    columns of the polar factor of P are then the basis, in one block. Y is
    first one column of each LAPACK pair. Those run in value order, and the
    polar factor is the orthonormal matrix nearest to P, so the vectors of
    close values keep their order. Coinciding values have no order to keep,
    and their pairs may mix so that this P is singular; Y is then the
    sketch C G. A P more ill-conditioned than SKETCH_FLOOR would lose digits
    of the span.
    """
    k = C.shape[1] // 2
    for sketched in (False, True):
        Y = C @ _sketch(k) if sketched else C[:, 0::2]
        Q, s = _polar(np.hstack([Y, _partner(Y)]))
        if s[-1] >= SKETCH_FLOOR * s[0]:
            return Q[:, :k]
    raise np.linalg.LinAlgError(
        "failed to recover an orthonormal quaternionic system from the "
        "embedded spectrum")


def _recover(W: np.ndarray, values: np.ndarray, scale: float) -> np.ndarray:
    """One embedded quaternionic vector per value from the doubled columns W.

    The j-partner of an embedded eigenvector lies in its own eigenspace, so
    vectors of different groups are already quaternion-orthogonal: a simple
    value takes one column of its pair, and only degenerate groups are
    orthonormalized, inside the group, each in one block (_group_basis).
    """
    Z = W[:, 0::2].copy()
    for start, stop in _group_values(values, scale):
        if stop - start > 1:
            Z[:, start:stop] = _group_basis(W[:, 2 * start:2 * stop])
    return Z


def _polish(Z: np.ndarray) -> QMatrix:
    """The quaternionic columns of Z after up to two steps of
    U <- U (3I - U*U) / 2, stopping once U*U = I within POLISH_TOL.

    Vectors of groups just over CLUSTER_TOL apart carry cross terms of order
    eps / gap, up to about 1e-6. Each Newton-Schulz step squares them (one
    step leaves about 1e-12), and the mixing it applies reaches a
    factorization only multiplied by the gap between the groups. Columns
    already orthonormal to rounding cost only the Gram matrix that shows it,
    U*U, which _split_outer forms as X X* for X = U*.
    """
    n = Z.shape[0] // 2
    a, b = Z[:n].copy(), -Z[n:].conj()
    eye = np.eye(Z.shape[1])
    for _ in range(2):
        ga, gb = _split_outer(a.conj().T, -b.T)
        if _entry_moduli(ga - eye, gb).max(initial=0.0) <= POLISH_TOL:
            break
        a, b = _split_matmul(a, b, 1.5 * eye - 0.5 * ga, -0.5 * gb)
    return _own(QMatrix, a, b)


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
        """U diag(fn(eigenvalues)) U*, exactly Hermitian.

        X = W diag(fn / 2) W* is formed in n x n blocks. For any W and real
        fn, conj(X21) = X12^T, so X21 is never formed: the top block row
        gives X11 and X12, and one n x 2n x n product gives X22. X is folded
        first, P = X11 + conj(X22) and Q = X12 - X12^T, and symmetrized
        second, as (P + P*) / 2 and (Q - Q^T) / 2, on the n x n blocks: both
        diagonal blocks still average, and the halves are Hermitian and
        skew-symmetric bit for bit. Each term is halved before its sum, so
        no sum exceeds max |fn| by more than rounding.
        """
        values = np.asarray(fn(self.eigenvalues), dtype=float)
        W = self.embedded
        n = W.shape[0] // 2
        V, Wh = W * np.repeat(0.5 * values[::-1], 2), W.conj().T
        top = V[:n] @ Wh
        x12 = top[:, n:]
        return _hermitian_part(top[:, :n] + (V[n:] @ Wh[:, n:]).conj(),
                               x12 - x12.T)

    @cached_property
    def eigenvectors(self) -> QMatrix:
        lam = self.eigenvalues[::-1]
        top = float(np.abs(lam).max()) if len(lam) else 0.0
        return _polish(_recover(self.embedded, lam, top)[:, ::-1])


def herm_eig(M: QMatrix) -> HermEig:
    """Eigendecomposition of a Hermitian quaternionic matrix.

    The input must satisfy M = M* entrywise within HERMITIAN_TOL relative to
    its largest entry; anything else is rejected, naming the entry furthest
    off. An input inside that tolerance but not exactly Hermitian is
    symmetrized to (M + M*) / 2 first. Validation and symmetrization run on
    the n x n split halves; only LAPACK sees the 2n x 2n embedding.
    """
    m, n = M.shape
    if m != n:
        raise ValueError(f"expected a square matrix, got {M.shape}")
    # The split of M - M* is (A - A^H, B + B^T). When it is exactly 0, as
    # for every S = T T* the library forms, M passes as it is; otherwise one
    # modulus pass over each pair reads the scale and the drift.
    A, B = M.split
    drift_a, drift_b = A - A.conj().T, B + B.T
    if drift_a.any() or drift_b.any():
        scale = float(_entry_moduli(A, B).max(initial=0.0))
        drift = _entry_moduli(drift_a, drift_b)
        if (drift > HERMITIAN_TOL * scale).any():
            i, k = np.unravel_index(int(np.argmax(drift)), drift.shape)
            raise ValueError(
                f"matrix is not Hermitian: entry ({i}, {k}) differs from its "
                f"mirror by {drift[i, k]:.3e} against scale {scale:.3e}")
        M = _hermitian_part(A, B)
    doubled, W = np.linalg.eigh(complex_adjoint(M))
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

    def rank(self) -> int:
        return _rank_from_sigma(self.singular_values, self.u.shape[0],
                                self.v.shape[0])


def _rank_from_sigma(sigma: np.ndarray, m: int, n: int) -> int:
    """The one rank cut: sigma above max(m, n) * RANK_RTOL * sigma_max."""
    if len(sigma) == 0:
        return 0
    return int(np.count_nonzero(sigma > max(m, n) * RANK_RTOL * sigma[0]))


def _chi_svd(M: QMatrix, full_matrices: bool) -> tuple[np.ndarray, ...]:
    """One LAPACK SVD chi(M) = Wl diag(s) Wr*, as (Wl, sigma, Wr): sigma holds
    the quaternionic singular values, read off s with its pairing validated."""
    Wl, doubled, Wrh = np.linalg.svd(complex_adjoint(M),
                                     full_matrices=full_matrices)
    return Wl, _validate_pairing(doubled, "singular"), Wrh.conj().T


class _EmbeddedSvd(NamedTuple):
    """Thin SVD chi(M) = Wl diag(s) Wr* cut at twice the rank of M.

    The factors come from one LAPACK SVD of chi(M) (_embedded_svd), or, for M of
    full row rank whose M M* is already factored, from that eigensystem
    (_svd_from_eig), whose Wr is orthonormal only to about eps * cond(M M*).
    The pseudoinverse of chi(M) is Wr diag(1/s) Wl*; a product X pinv(M)
    is fold(_over(chi(X) Wr, s) Wl*), which forms no 1/s.
    """

    Wl: np.ndarray
    s: np.ndarray
    Wr: np.ndarray

    def pinv_adjoint(self) -> "_EmbeddedSvd":
        """The same factorization of pinv(M)* = Wl diag(1/s) Wr*: the singular
        vectors are M's, and the columns run reversed so s stays descending."""
        return _EmbeddedSvd(self.Wl[:, ::-1], 1.0 / self.s[::-1],
                            self.Wr[:, ::-1])


def _embedded_svd(M: QMatrix) -> _EmbeddedSvd:
    """The thin _chi_svd cut at twice the rank."""
    Wl, sigma, Wr = _chi_svd(M, full_matrices=False)
    r = 2 * _rank_from_sigma(sigma, *M.shape)
    return _EmbeddedSvd(Wl[:, :r], np.repeat(sigma, 2)[:r], Wr[:, :r])


def _svd_from_eig(M: QMatrix, eig: HermEig) -> _EmbeddedSvd:
    """The thin SVD of chi(M), read off the eigensystem of M M*, with no
    LAPACK call; every eigenvalue must be positive, so M has full row rank.

    The left singular vectors of chi(M) are the eigenvectors of chi(M M*),
    reversed so s descends, and s is the root of each doubled eigenvalue;
    Wr = chi(M)* Wl / s. Wr* Wr departs from I by about eps * cond(M M*),
    since it is Wl* chi(M M*) Wl / s^2; it spans the row space of chi(M).
    """
    Wl = eig.embedded[:, ::-1]
    s = np.repeat(np.sqrt(eig.eigenvalues), 2)
    return _EmbeddedSvd(Wl, s, _over(complex_adjoint(M).conj().T @ Wl, s))


def svd(M: QMatrix) -> QSvd:
    """Singular value decomposition through the complex embedding.

    The right and left vectors of a nonzero singular value are recovered
    together, as one vector (v, u) of H^(n+m), so the columns chosen for v
    and for u are the ones LAPACK paired. The values grouped with zero and
    the tail of the larger side span the null spaces of M and M*, which are
    recovered on each side alone, each in one block from a polar factor.
    """
    m, n = M.shape
    Wl, sigma, Wr = _chi_svd(M, full_matrices=True)
    smax = float(sigma[0]) if len(sigma) else 0.0
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
    """Largest singular value; 0 for an empty matrix."""
    sigma = _singular_values(M)
    return float(sigma[0]) if len(sigma) else 0.0


def _singular_values(M: QMatrix) -> np.ndarray:
    """The singular values of M, descending, from one values-only LAPACK SVD
    of chi(M) with the pairing validated."""
    doubled = np.linalg.svd(complex_adjoint(M), compute_uv=False)
    return _validate_pairing(doubled, "singular")


def matrix_rank(M: QMatrix) -> int:
    return _rank_from_sigma(_singular_values(M), *M.shape)


def pinv(M: QMatrix) -> QMatrix:
    """Moore-Penrose pseudoinverse, folded back from that of chi(M),
    Wr diag(1/s) Wl*. A pseudoinverse with an entry beyond the double range
    raises a ValueError naming the entry."""
    Wl, s, Wr = _embedded_svd(M)
    with np.errstate(over="ignore", invalid="ignore"):
        P = _fold(_over(Wr, s) @ Wl.conj().T)
    bad = np.flatnonzero(~(np.isfinite(P.split[0]) & np.isfinite(P.split[1])))
    if bad.size:
        i, k = np.unravel_index(int(bad[0]), P.shape)
        raise ValueError(f"pseudoinverse exceeds the double range: entry "
                         f"({i}, {k}) overflows")
    return P


def kernel_basis(M: QMatrix) -> QMatrix:
    """Orthonormal basis of the right null space, shape n x (n - rank).

    Only the embedded kernel of chi(M) is recovered, as one group of zeros:
    the right columns of a full SVD past twice the rank span it (it is
    closed under the j-partner), and the thin SVD of one sketched block of
    them gives the basis.
    """
    _, sigma, Wr = _chi_svd(M, full_matrices=True)
    null = Wr[:, 2 * _rank_from_sigma(sigma, *M.shape):]
    return _polish(_recover(null, np.zeros(null.shape[1] // 2), 0.0))


def solve_min_norm(M: QMatrix, v: QVector | QMatrix) -> QVector | QMatrix:
    """Minimal-norm solution of M x = v, or of M X = V column by column for a
    block V; a right-hand side outside the range is rejected, naming the
    first column that is."""
    if M.shape[0] != v.shape[0]:
        raise ValueError(f"shape mismatch: {M.shape} against {v.shape}")
    Wl, s, Wr = _embedded_svd(M)
    va, vb = v.split
    z = np.concatenate([va, -vb.conj()])  # embed_vector of each column
    coeffs = Wl.conj().T @ z
    _require_columns_within(_norm(z - Wl @ coeffs, axis=0), _norm(z, axis=0),
                            RANGE_RTOL, "right-hand side column {} is not in "
                            "the range")
    x = Wr @ _over(coeffs.T, s).T
    n = M.shape[1]
    return type(v).from_split(x[:n], -x[n:].conj())


def is_surjective(M: QMatrix) -> bool:
    return matrix_rank(M) == M.shape[0]


def is_bounded_below(M: QMatrix) -> bool:
    return matrix_rank(M) == M.shape[1]


def _ratio(gap, size):
    """gap / size for numbers, or elementwise for arrays, read the same at
    every scale: 0 where the gap is 0, inf where only the size is, NaN where
    either is NaN, and no RuntimeWarning. There is no floor under size."""
    if isinstance(gap, np.ndarray) or isinstance(size, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(np.equal(gap, 0) & np.equal(size, size), 0.0,
                            np.divide(gap, size))
    if gap and size:  # NaN is truthy; Python floats divide without warnings
        return float(gap) / float(size)
    if gap != gap or size != size:
        return math.nan
    return math.inf if gap else 0.0


def _over(x: np.ndarray, d) -> np.ndarray:
    """x / d for complex x and real d, broadcast as numpy does (one d per
    column of a block): the real and the imaginary plane each take one IEEE
    division. numpy's complex / real, like x * (1 / d), forms 1 / d, which
    overflows for |d| below about 5.6e-309 however small x is, and then
    turns the 0 * inf of a zero plane into NaN. Here each plane is the
    correctly rounded quotient, NaN only where x or d is NaN or where both
    are zero or both infinite."""
    out = np.empty(np.broadcast(x, d).shape, complex)
    np.divide(x.real, d, out=out.real)
    np.divide(x.imag, d, out=out.imag)
    return out


def _require_columns_within(gap, size, tol: float, what: str) -> None:
    """Raise a ValueError, what.format(k) and the relative residual, for the
    first column k whose _ratio(gap, size) is not within tol, NaN included;
    gap and size hold one number, or one per column of a block. Subnormal
    entries carry only a few digits, so below about 1e-308 a gap of rounding
    alone can exceed tol.
    """
    ratio = np.ravel(_ratio(gap, size))
    bad = np.flatnonzero(~(ratio <= tol))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"{what.format(k)}: relative residual "
                         f"{ratio[k]:.3e}")


def _require_orthonormal(B: QMatrix, what: str) -> None:
    """Raise a ValueError starting with `what` unless B*B = I entrywise
    within ORTHONORMAL_TOL, naming the Gram entry furthest off, or the first
    NaN one."""
    a, b = B.split
    ga, gb = _split_outer(a.conj().T, -b.T)
    drift = _entry_moduli(ga - np.eye(B.shape[1]), gb)
    if not np.all(drift <= ORTHONORMAL_TOL):
        i, k = np.unravel_index(int(np.argmax(drift)), drift.shape)
        raise ValueError(f"{what}: Gram entry ({i}, {k}) is off by "
                         f"{drift[i, k]:.3e}")


def _hermitian_outer(B: QMatrix) -> QMatrix:
    """B B*, formed by _split_outer without a copy of B*, made exactly
    Hermitian."""
    return _hermitian_part(*_split_outer(*B.split))


def orthogonal_projector(B: QMatrix) -> QMatrix:
    """Projector B B* onto the column span of an orthonormal family B."""
    _require_orthonormal(B, "columns are not orthonormal")
    return _hermitian_outer(B)
