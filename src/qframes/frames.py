"""Finite frames in H^n: verification, optimal bounds, coefficients, duals.

A finite family {u_i} in H^n is a frame when A ||u||^2 <= sum |<u_i, u>|^2
<= B ||u||^2 for some 0 < A <= B. A Frame is its synthesis matrix T, the
n x m matrix whose columns are the u_i, and every derived family is a new T:

    Frame.from_synthesis(T)                      # the family {u_i}
    Frame.from_synthesis(L @ T)                  # its image {L u_i}

The frame operator is S = T T* = sum u_i u_i*, and the optimal bounds are the
extreme eigenvalues of S. Coefficient, dual, and normalization routines all
run through the spectral factorization of S; families whose frame operator is
singular are reported as rank-deficient rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .qlinalg import (
    HermEig,
    QMatrix,
    QVector,
    herm_eig,
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
        columns = []
        for i, v in enumerate(vectors):
            v = v if isinstance(v, QVector) else QVector(v)
            if dim is None:
                dim = len(v)
            elif len(v) != dim:
                raise ValueError(f"vector {i} has length {len(v)}, expected {dim}")
            columns.append(v)
        if dim is None:
            raise ValueError("an empty family needs an explicit dim")
        if dim < 1:
            raise ValueError(f"dim must be at least 1, got {dim}")
        self._synthesis = QMatrix.from_columns(columns, dim=int(dim))

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
    def frame_operator(self) -> QMatrix:
        """S = T T*, Hermitian positive semidefinite, exactly symmetrized."""
        T = self.synthesis
        S = T @ T.H
        sa, sb = S.split
        return QMatrix.from_split(0.5 * (sa + sa.conj().T), 0.5 * (sb - sb.T))

    @cached_property
    def _spectral(self) -> HermEig:
        return herm_eig(self.frame_operator)

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the frame operator, descending."""
        return self._spectral.eigenvalues

    def analysis(self, u: QVector) -> QVector:
        """Coefficient readout (<u_i, u>)_i, the action of T*."""
        return self.synthesis.H @ u

    # -- frame status -----------------------------------------------------

    @property
    def is_frame(self) -> bool:
        lam = self.spectrum
        return bool(lam[-1] > self.dim * FRAME_RTOL * lam[0]) if len(lam) else False

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

    def coefficients(self, u: QVector) -> QVector:
        """Frame coefficients c_i = <u_i, S^-1 u>, the minimal-norm expansion."""
        return self.synthesis.H @ (self._inverse_operator @ u)

    def reconstruct(self, coeffs: QVector) -> QVector:
        """Synthesize sum u_i c_i from a coefficient vector."""
        if len(coeffs) != self.count:
            raise ValueError(f"expected {self.count} coefficients, "
                             f"got {len(coeffs)}")
        return self.synthesis @ coeffs

    def natural_representation(self, u: QVector) -> QVector:
        """u written as sum u_i <u_i, S^-1 u>; equals u for any frame."""
        return self.reconstruct(self.coefficients(u))

    def dual_expansion(self, u: QVector) -> QVector:
        """The mirrored expansion sum (S^-1 u_i) <u_i, u>; also equals u."""
        return self._inverse_operator @ (self.synthesis @ self.analysis(u))

    def pythagoras_check(self, u: QVector, offered: QVector) -> PythagorasCheck:
        """Norm split of an arbitrary representation against the canonical one.

        For any q with sum u_i q_i = u, the identity
        sum |q_i|^2 = sum |c_i|^2 + sum |c_i - q_i|^2 holds, which is why the
        frame coefficients minimize the coefficient norm. Rejects offered
        coefficients that do not actually represent u.
        """
        if len(offered) != self.count:
            raise ValueError(f"expected {self.count} coefficients, "
                             f"got {len(offered)}")
        gap = (self.reconstruct(offered) - u).norm()
        if gap > REPRESENTATION_RTOL * max(u.norm(), 1e-300):
            raise ValueError(f"offered coefficients do not represent the "
                             f"vector: relative residual "
                             f"{gap / max(u.norm(), 1e-300):.3e}")
        c = self.coefficients(u)
        lhs = offered.norm() ** 2
        rhs = c.norm() ** 2 + (c - offered).norm() ** 2
        scale = max(lhs, rhs, 1e-300)
        return PythagorasCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / scale)

    # -- derived frames ---------------------------------------------------

    def canonical_dual(self) -> "Frame":
        """The frame {S^-1 u_i}; its bounds are (1/B, 1/A)."""
        return Frame.from_synthesis(self._inverse_operator @ self.synthesis)

    def parseval_normalize(self) -> "Frame":
        """The Parseval frame {S^(-1/2) u_i} with frame operator I."""
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
        dual_synthesis = self._inverse_operator @ self.synthesis
        return dual_synthesis.H @ (R @ self.synthesis)

    # -- reporting and serialization --------------------------------------

    def report(self) -> FrameReport:
        """Status, raw spectrum, and deterministic operator-identity residuals."""
        lam = self.spectrum
        lo = float(lam[-1]) if len(lam) else 0.0
        hi = float(lam[0]) if len(lam) else 0.0
        residuals: dict[str, float] = {}
        status = "frame" if self.is_frame else "rank-deficient"
        if status == "frame":
            T = self.synthesis
            n = self.dim
            eye = QMatrix.identity(n)
            recon = (T @ (T.H @ self._inverse_operator)) - eye
            dual = (self._inverse_operator @ (T @ T.H)) - eye
            tight = self.parseval_normalize().frame_operator - eye
            scale = float(np.sqrt(n))
            residuals["reconstruction"] = recon.frobenius_norm() / scale
            residuals["dual-reconstruction"] = dual.frobenius_norm() / scale
            residuals["parseval"] = tight.frobenius_norm() / scale
        return FrameReport(status=status, lower=lo, upper=hi,
                           residuals=residuals,
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
        vectors = data["vectors"]
        if not isinstance(vectors, list):
            raise ValueError('"vectors" must be a list')
        columns = []
        for i, entries in enumerate(vectors):
            arr = np.asarray(entries, dtype=float)
            if arr.shape != (dim, 4):
                raise ValueError(f"vector {i}: expected {dim} entries of 4 "
                                 f"components, got shape {arr.shape}")
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                raise ValueError(f"vector {i}, entry {bad[0]}: components must "
                                 f"be finite, got {arr[bad[0]].tolist()}")
            columns.append(arr)
        comps = np.stack(columns, axis=1) if columns else np.zeros((dim, 0, 4))
        return cls.from_synthesis(QMatrix(comps))
