"""Finite frames in H^n: verification, optimal bounds, coefficients, duals.

A finite family {u_i} in H^n is a frame when A ||u||^2 <= sum |<u_i, u>|^2
<= B ||u||^2 for some 0 < A <= B. A Frame is its synthesis matrix T, the
n x m matrix whose columns are the u_i, and every derived family is a new T:

    Frame.from_synthesis(T)                      # the family {u_i}
    Frame.from_synthesis(L @ T)                  # its image {L u_i}

The frame operator is S = T T* = sum u_i u_i*, and the optimal bounds are the
extreme eigenvalues of S. Dual and normalization routines run through the
spectral factorization of S, and every expansion reads the canonical dual
D = S^-1 T: the frame coefficients are D* u. Families whose frame operator is
singular are reported as rank-deficient rather than rejected. The identities
that Frame.report, the command line and the check suite report are each
written once at the end of this module.

T, T* and S are right H-linear, so they act on a block U, a QMatrix whose
columns are vectors, column by column: analysis, coefficients, reconstruct,
natural_representation, dual_expansion and pythagoras_check take a QVector
or a block, and a QVector is the one-column case of the same products.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .qlinalg import (
    HermEig,
    QMatrix,
    QVector,
    _TINY,
    _EmbeddedSvd,
    _embedded_svd,
    _hermitian_outer,
    _matmul_adjoint,
    _norm,
    _ratio,
    _real_array,
    _require_columns_within,
    _svd_from_eig,
    _vector_components,
    herm_eig,
    operator_norm,
    pinv,
)

# A family counts as a frame when lambda_min(S) > dim * FRAME_RTOL * lambda_max(S).
FRAME_RTOL = 1e-10

# A claimed representation sum u_i q_i = u must hold within this relative slack.
REPRESENTATION_RTOL = 1e-8

__all__ = ["Frame", "FrameBounds", "FrameReport", "PythagorasCheck",
           "FRAME_RTOL", "REPRESENTATION_RTOL"]


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds: lower = lambda_min(S), upper = lambda_max(S)."""

    lower: float
    upper: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


class PythagorasCheck(NamedTuple):
    """Each field is one number, or one per column for a block."""

    lhs: float        # sum |q_i|^2 for the offered representation
    rhs: float        # sum |c_i|^2 + sum |c_i - q_i|^2
    residual: float   # |lhs - rhs| relative to their size


@dataclass(frozen=True)
class FrameReport:
    """Machine-checkable summary of a family's frame status."""

    status: str                      # "frame" or "rank-deficient"
    lower: float
    upper: float
    residuals: dict[str, float]
    spectrum: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "bounds": {"lower": self.lower, "upper": self.upper},
            "residuals": dict(self.residuals),
            "spectrum": list(self.spectrum),
        }


class Frame:
    """Immutable indexed family of vectors in H^n, held as its synthesis matrix.

    A frame is its n x m synthesis matrix T, whose i-th column is u_i; build
    one with Frame.from_synthesis(T), or with Frame(vectors, dim) from the
    vectors themselves. Vector count m may be anything, including zero; dim
    must be at least 1. Zero vectors are legal members. Whether the family
    actually spans is a question answered by is_frame, not by the constructor.
    """

    def __init__(self, vectors: Iterable, dim: int | None = None):
        # A real (count, dim, 4) array is T transposed: one QMatrix call. Any
        # other input goes vector by vector, which names the first bad one.
        if (isinstance(vectors, np.ndarray) and vectors.dtype.kind in "biuf"
                and vectors.ndim == 3 and len(vectors) and vectors.shape[2] == 4
                and vectors.shape[1] >= 1
                and (dim is None or vectors.shape[1] == dim)):
            self._synthesis = QMatrix(vectors.transpose(1, 0, 2))
            return
        columns = []
        for i, v in enumerate(vectors):
            comps = _vector_components(v, f"vector {i}, entry")
            if dim is None:
                dim = len(comps)
            elif len(comps) != dim:
                raise ValueError(f"vector {i} has length {len(comps)}, "
                                 f"expected {dim}")
            columns.append(comps)
        if dim is None:
            raise ValueError("an empty family needs an explicit dim")
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        comps = (np.stack(columns, axis=1) if columns
                 else np.zeros((int(dim), 0, 4)))
        self._synthesis = QMatrix(comps)

    @classmethod
    def from_synthesis(cls, T: QMatrix) -> "Frame":
        """The family of the columns of T, held without copying T."""
        if T.shape[0] < 1:
            raise ValueError(f"dim must be at least 1, got {T.shape[0]}")
        frame = cls.__new__(cls)
        frame._synthesis = T
        return frame

    # -- basic structure ------------------------------------------------

    @property
    def dim(self) -> int:
        return self._synthesis.shape[0]

    @property
    def count(self) -> int:
        return self._synthesis.shape[1]

    @cached_property
    def vectors(self) -> tuple[QVector, ...]:
        return tuple(self._synthesis.columns())

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, i: int) -> QVector:
        return self.vectors[i]

    def __repr__(self) -> str:
        return f"Frame(dim={self.dim}, count={self.count})"

    # -- operators ------------------------------------------------------

    @property
    def synthesis(self) -> QMatrix:
        """Synthesis matrix T, n x m, i-th column is u_i; T c = sum u_i c_i."""
        return self._synthesis

    @cached_property
    def _adjoint(self) -> QMatrix:
        """T*, m x n, the analysis operator, formed once for every later use.

        A canonical dual's D* is also its primal frame's coefficient map.
        S = T T* does not keep it: S is formed once, and the Parseval frame
        built only to be reported would hold its T* for nothing.
        """
        return self.synthesis.H

    @cached_property
    def frame_operator(self) -> QMatrix:
        """S = T T*, Hermitian positive semidefinite, exactly symmetrized.

        Raises a ValueError when S leaves the double range, or, naming the
        first one, when an entry of T is NaN or infinite. Its diagonal
        holds the squared row norms of T, and by Cauchy-Schwarz it bounds
        every other entry, so a finite diagonal means a finite S, and a
        diagonal below the normal range means that S, and with it every
        bound, has lost its digits, or underflowed to 0 for a family that
        is not 0.
        """
        T = self.synthesis
        with np.errstate(over="ignore", invalid="ignore"):
            S = _hermitian_outer(T)
        diagonal = S.split[0].diagonal()
        bad = np.flatnonzero(~np.isfinite(diagonal))
        if bad.size:
            a, b = T.split
            # (vector i, entry k) is entry (k, i) of T
            entries = np.argwhere(~(np.isfinite(a) & np.isfinite(b)).T)
            if len(entries):
                i, k = entries[0]
                kind = ("a NaN" if np.isnan([a[k, i], b[k, i]]).any()
                        else "an infinite")
                raise ValueError(f"vector {i}, entry {k} has {kind} component")
            raise ValueError(f"frame bounds exceed the double range: entry "
                             f"({bad[0]}, {bad[0]}) of S = T T* overflows")
        if (diagonal.real.max(initial=0.0) < _TINY
                and (T.split[0].any() or T.split[1].any())):
            raise ValueError(f"frame bounds fall below the double range: "
                             f"every diagonal entry of S = T T* is below "
                             f"{_TINY:.3e}")
        return S

    @cached_property
    def _spectral(self) -> HermEig:
        return herm_eig(self.frame_operator)

    # The frame whose canonical dual this one is, as a weak reference: a
    # strong one would tie the two frames into a cycle.
    _primal: weakref.ref | None = None

    @cached_property
    def _factors(self) -> _EmbeddedSvd:
        """Thin SVD of the embedding of T, cut at twice the rank of T.

        A canonical dual S^-1 T is pinv(T)*, so while its frame is alive and
        that frame's cut kept all 2n columns, it reads its factors off the
        frame's instead of factoring its own T. A frame that already holds
        the eigensystem of S = T T* reads them off that: Wl is its
        eigenvector block, s = sqrt(lambda), and Wr = chi(T)* Wl / s, which
        is orthonormal to about eps * B/A. Any other family takes one LAPACK
        SVD of chi(T); S is never factored just for this.
        """
        primal = self._primal() if self._primal is not None else None
        if primal is not None:
            factors = primal._factors
            if len(factors.s) == 2 * self.dim:
                return factors.pinv_adjoint()
        if "_spectral" in self.__dict__ and self.is_frame:
            return _svd_from_eig(self.synthesis, self._spectral)
        return _embedded_svd(self.synthesis)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the frame operator, descending."""
        return self._spectral.eigenvalues

    def analysis(self, u: QVector | QMatrix) -> QVector | QMatrix:
        """Coefficient readout (<u_i, u>)_i, the action of T*."""
        return self._adjoint @ u

    # -- frame status -----------------------------------------------------

    @property
    def is_frame(self) -> bool:
        lam = self.spectrum
        return bool(lam[-1] > self.dim * FRAME_RTOL * lam[0])

    def optimal_bounds(self) -> FrameBounds:
        if not self.is_frame:
            raise ValueError("family is rank-deficient; it has no frame bounds")
        lam = self.spectrum
        return FrameBounds(lower=float(lam[-1]), upper=float(lam[0]))

    def _require_frame(self) -> HermEig:
        if not self.is_frame:
            raise ValueError("family is rank-deficient; operation needs a frame")
        return self._spectral

    @cached_property
    def _inverse_operator(self) -> QMatrix:
        return self._require_frame().apply(lambda lam: 1.0 / lam)

    @cached_property
    def _inv_sqrt_operator(self) -> QMatrix:
        return self._require_frame().apply(lambda lam: 1.0 / np.sqrt(lam))

    # -- coefficients and reconstruction ---------------------------------

    def coefficients(self, u: QVector | QMatrix) -> QVector | QMatrix:
        """Frame coefficients c_i = <S^-1 u_i, u>, the minimal-norm expansion.

        They are the analysis of the canonical dual, D* u with D = S^-1 T:
        one product through the dual's cached D*.
        """
        return self._dual._adjoint @ u

    def reconstruct(self, coeffs: QVector | QMatrix) -> QVector | QMatrix:
        """Synthesize sum u_i c_i from a coefficient vector, or from each
        column of a block."""
        if coeffs.shape[0] != self.count:
            raise ValueError(f"expected {self.count} coefficients, "
                             f"got {coeffs.shape[0]}")
        return self.synthesis @ coeffs

    def natural_representation(self, u: QVector | QMatrix) -> QVector | QMatrix:
        """u written as sum u_i <u_i, S^-1 u>; equals u for any frame."""
        return self.reconstruct(self.coefficients(u))

    def dual_expansion(self, u: QVector | QMatrix) -> QVector | QMatrix:
        """The mirrored expansion sum (S^-1 u_i) <u_i, u>, that is D T* u;
        also equals u."""
        return self._dual.synthesis @ self.analysis(u)

    def pythagoras_check(self, u: QVector | QMatrix,
                         offered: QVector | QMatrix) -> PythagorasCheck:
        """Norm split of an arbitrary representation against the canonical one.

        For any q with sum u_i q_i = u, the identity
        sum |q_i|^2 = sum |c_i|^2 + sum |c_i - q_i|^2 holds, which is why the
        frame coefficients minimize the coefficient norm. Rejects offered
        coefficients that do not actually represent u, naming the first
        column that does not; a block is checked column by column.

        The residual reads the same at every scale: the three norms are
        scaled by the largest one's power of two, exactly, before they are
        squared, and lhs and rhs read inf or 0 where their squares leave
        the double range. Subnormal entries carry only a few digits, so for
        a u below about 1e-308 even the frame's own coefficients can fail
        the representation test.
        """
        # The norm of a vector, or of each column of a block.
        _require_columns_within(
            _norm(*(self.reconstruct(offered) - u).split, axis=0),
            _norm(*u.split, axis=0), REPRESENTATION_RTOL,
            "offered coefficients in column {} do not represent the vector")
        c = self.coefficients(u)
        norms = np.array([_norm(*x.split, axis=0) for x in (offered, c,
                                                             c - offered)])
        e = np.frexp(norms.max(axis=0))[1]
        q, p, d = np.ldexp(norms, -e)
        lhs, rhs = q ** 2, p ** 2 + d ** 2
        residual = _ratio(np.abs(lhs - rhs), np.maximum(lhs, rhs))
        with np.errstate(over="ignore"):
            return PythagorasCheck(lhs=np.ldexp(lhs, 2 * e),
                                   rhs=np.ldexp(rhs, 2 * e), residual=residual)

    # -- derived frames ---------------------------------------------------

    def canonical_dual(self) -> "Frame":
        """The frame {S^-1 u_i}, computed once; its bounds are (1/B, 1/A)."""
        return self._dual

    def parseval_normalize(self) -> "Frame":
        """The Parseval frame {S^(-1/2) u_i}, computed once; S becomes I."""
        return self._parseval

    @cached_property
    def _dual(self) -> "Frame":
        dual = Frame.from_synthesis(self._inverse_operator @ self.synthesis)
        dual._primal = weakref.ref(self)
        return dual

    @cached_property
    def _parseval(self) -> "Frame":
        return Frame.from_synthesis(self._inv_sqrt_operator @ self.synthesis)

    def coefficient_transport(self, R: QMatrix) -> QMatrix:
        """Matrix carrying the coefficients of u to those of R u.

        Entry (t, i) is <S^-1 u_t, R u_i>; the product with coefficients(u)
        gives coefficients(R u), and the operator norm is at most
        upper * ||R|| / lower for the optimal bounds.
        """
        if R.shape != (self.dim, self.dim):
            raise ValueError(f"expected an operator on H^{self.dim}, "
                             f"got shape {R.shape}")
        return self._dual._adjoint @ (R @ self.synthesis)

    # -- reporting and serialization --------------------------------------

    def report(self) -> FrameReport:
        """Status, raw spectrum, and deterministic operator-identity residuals.

        For a frame each residual is ||X - I||_F / sqrt(n), read from the
        cached operators, with D = S^-1 T the canonical dual's synthesis;
        T D* is formed without a copy of D*:

        - "reconstruction": X = T D*, the natural representation
          u = sum u_i <S^-1 u_i, u>, that is T T* S^-1 = I;
        - "dual-reconstruction": X = S^-1 S, the inverse of the frame
          operator S = T T*;
        - "parseval": X = S^-1/2 S S^-1/2, the frame operator of the
          Parseval frame {S^-1/2 u_i}.
        """
        lam = self.spectrum
        residuals: dict[str, float] = {}
        status = "frame" if self.is_frame else "rank-deficient"
        if status == "frame":
            residuals["reconstruction"] = _identity_drift(
                _matmul_adjoint(self.synthesis, self._dual.synthesis))
            residuals["dual-reconstruction"] = _identity_drift(
                self._inverse_operator @ self.frame_operator)
            residuals["parseval"] = _identity_drift(
                self.parseval_normalize().frame_operator)
        return FrameReport(status=status, lower=float(lam[-1]),
                           upper=float(lam[0]), residuals=residuals,
                           spectrum=tuple(float(x) for x in lam))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vectors": self._synthesis.components.transpose(1, 0, 2).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Frame":
        if not isinstance(data, dict) or "dim" not in data or "vectors" not in data:
            raise ValueError('frame data must carry "dim" and "vectors"')
        dim = data["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f'"dim" must be a positive integer, got {dim!r}')
        if 16 * dim * dim > np.iinfo(np.intp).max:  # bytes of S = T T*
            raise ValueError(f'"dim" is too large: numpy cannot shape the '
                             f'{dim} x {dim} frame operator')
        vectors = data["vectors"]
        if not isinstance(vectors, list):
            raise ValueError('"vectors" must be a list')
        # One conversion and one check for a well-formed file. Anything else
        # goes vector by vector below, which raises naming the first bad one.
        try:
            comps = (_real_array(vectors, "vectors") if vectors
                     else np.zeros((0, dim, 4)))
        except ValueError:
            comps = None
        if (comps is None or comps.shape != (len(vectors), dim, 4)
                or not np.isfinite(comps).all()):
            for i, entries in enumerate(vectors):
                arr = _real_array(entries, f"vector {i}")
                if arr.shape != (dim, 4):
                    raise ValueError(f"vector {i}: expected {dim} entries of 4 "
                                     f"components, got shape {arr.shape}")
                bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
                if bad.size:
                    raise ValueError(f"vector {i}, entry {bad[0]}: components "
                                     f"must be finite, got {arr[bad[0]].tolist()}")
        return cls.from_synthesis(QMatrix(comps.transpose(1, 0, 2)))


def _bound_readings(F: Frame) -> tuple[dict[str, float], dict[str, float]]:
    """Each optimal bound of a frame read three ways, lower then upper:
    A = lambda_min(S) = 1/||S^-1|| = 1/||T^+||^2 and
    B = lambda_max(S) = ||S|| = ||T||^2."""
    bounds = F.optimal_bounds()
    T = F.synthesis
    lower = {"spectral": bounds.lower,
             "inverse-operator-norm": 1.0 / operator_norm(F._inverse_operator),
             "synthesis-pseudoinverse": 1.0 / operator_norm(pinv(T)) ** 2}
    upper = {"spectral": bounds.upper,
             "frame-operator-norm": operator_norm(F.frame_operator),
             "synthesis-norm": operator_norm(T) ** 2}
    return lower, upper


def _spread(readings: dict[str, float]) -> float:
    """(max - min) / min of the readings as a _ratio: NaN if one is NaN,
    which the builtin max and min would drop."""
    values = np.array(list(readings.values()))
    return _ratio(values.max() - values.min(), values.min())


def _dual_residuals(F: Frame) -> dict[str, float]:
    """The canonical dual's bounds against (1/B, 1/A), the larger relative
    gap or NaN, and the dual of the dual against T, column by column."""
    bounds = F.optimal_bounds()
    dual = F.canonical_dual()
    dbounds = dual.optimal_bounds()
    reciprocity = np.max([abs(dbounds.lower - 1.0 / bounds.upper) * bounds.upper,
                          abs(dbounds.upper - 1.0 / bounds.lower) * bounds.lower])
    T = F.synthesis
    drift = (T - dual.canonical_dual().synthesis).column_norms().max()
    return {"bound-reciprocity": float(reciprocity), "dual-round-trip":
            _ratio(drift, T.column_norms().max())}


def _identity_drift(X: QMatrix) -> float:
    """||X - I||_F / sqrt(n) for an n x n matrix X."""
    a, b = X.split
    return _norm(a - np.eye(len(a)), b) / float(np.sqrt(len(a)))
