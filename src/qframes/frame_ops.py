"""How operators move frames around: images, projections, equivalence.

The synthesis matrix of {L u_i} is L T, so the frame operator of the image
family is L S L*. A surjective L sends frames to frames; a rank-deficient L
cannot, because the image family no longer spans. Two frames with the same
index set are equivalent exactly when their synthesis matrices share a
kernel, and the connecting operator is recovered as T2 pinv(T1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .frames import Frame, FrameBounds, FrameReport
from .qlinalg import (
    ORTHONORMAL_TOL,
    QMatrix,
    QVector,
    kernel_basis,
    operator_norm,
    pinv,
    sqrt_psd,
)

# A kernel vector of T1 counts as annihilated by T2 when ||T2 k|| stays below
# KERNEL_RTOL * ||T2|| (kernel basis vectors are unit length).
KERNEL_RTOL = 1e-9

__all__ = ["IntertwinerResult", "EquivalenceResult", "map_frame",
           "unitary_invariance_check", "project_frame", "intertwiner",
           "are_equivalent", "frame_with_frame_operator",
           "bessel_from_operator", "KERNEL_RTOL"]


@dataclass(frozen=True)
class IntertwinerResult:
    """Outcome of looking for L with L u_i = v_i for all i.

    Such an L exists exactly when ker(T1) is contained in ker(T2). When it
    does, `operator` holds T2 pinv(T1) and `residual` the worst per-vector
    error max_i ||L u_i - v_i||. When it does not, `witness` holds a unit
    kernel vector of T1 that T2 fails to annihilate.
    """

    operator: QMatrix | None
    residual: float | None
    witness: QVector | None


@dataclass(frozen=True)
class EquivalenceResult:
    """Classification of a frame pair.

    relation is "equivalent" (kernels of the synthesis matrices agree, the
    intertwiner is invertible), "one-sided" (ker(T1) inside ker(T2) only; a
    non-invertible intertwiner still maps the first family onto the second),
    or "none" (not even the forward inclusion holds). The witness, when
    present, is the kernel vector breaking the missing inclusion.
    """

    relation: str
    intertwiner: QMatrix | None
    residual: float | None
    witness: QVector | None

    def to_dict(self) -> dict:
        out: dict = {"relation": self.relation}
        if self.intertwiner is not None:
            out["intertwiner"] = self.intertwiner.tolist()
        if self.residual is not None:
            out["residual"] = self.residual
        if self.witness is not None:
            out["witness"] = self.witness.tolist()
        return out


def map_frame(L: QMatrix, frame: Frame) -> tuple[Frame, FrameReport]:
    """Apply L to every vector; report whether the image is still a frame.

    For surjective L the image of a frame is a frame and its frame operator
    equals L S L*; the report carries the relative residual of that identity.
    """
    if L.shape[1] != frame.dim:
        raise ValueError(f"operator acts on H^{L.shape[1]}, frame lives "
                         f"in H^{frame.dim}")
    image = Frame.from_synthesis(L @ frame.synthesis)
    report = image.report()
    if image.is_frame and frame.is_frame:
        conjugated = L @ frame.frame_operator @ L.H
        drift = (image.frame_operator - conjugated).frobenius_norm()
        scale = max(conjugated.frobenius_norm(), 1e-300)
        residuals = dict(report.residuals)
        residuals["operator-conjugation"] = drift / scale
        report = replace(report, residuals=residuals)
    return image, report


def unitary_invariance_check(U: QMatrix, frame: Frame
                             ) -> tuple[FrameBounds, FrameBounds, float]:
    """Optimal bounds before and after a unitary, with their relative drift."""
    n = frame.dim
    if U.shape != (n, n):
        raise ValueError(f"expected a unitary on H^{n}, got shape {U.shape}")
    for gram in (U.H @ U, U @ U.H):
        drift = (gram - QMatrix.identity(n)).entry_moduli()
        if np.any(drift > ORTHONORMAL_TOL):
            raise ValueError("operator is not unitary: Gram drift "
                             f"{float(drift.max()):.3e}")
    before = frame.optimal_bounds()
    after = Frame.from_synthesis(U @ frame.synthesis).optimal_bounds()
    drift = max(abs(after.lower - before.lower) / before.lower,
                abs(after.upper - before.upper) / before.upper)
    return before, after, drift


def project_frame(basis: QMatrix, frame: Frame) -> tuple[Frame, FrameBounds]:
    """Compress a frame onto a subspace spanned by orthonormal columns.

    Returns the frame {B* u_i} written in the subspace coordinates of the
    columns of B, together with its recomputed optimal bounds. A frame of the
    big space always projects to a frame of the subspace, and the inherited
    envelope (the original bounds) contains the recomputed ones.
    """
    n, d = basis.shape
    if n != frame.dim:
        raise ValueError(f"basis columns live in H^{n}, frame in H^{frame.dim}")
    if d < 1:
        raise ValueError("the subspace needs at least one basis column")
    gram_drift = (basis.H @ basis - QMatrix.identity(d)).entry_moduli()
    if np.any(gram_drift > ORTHONORMAL_TOL):
        raise ValueError("basis columns are not orthonormal: Gram drift "
                         f"{float(gram_drift.max()):.3e}")
    compressed = Frame.from_synthesis(basis.H @ frame.synthesis)
    return compressed, compressed.optimal_bounds()


def intertwiner(first: Frame, second: Frame) -> IntertwinerResult:
    """Look for the operator sending the first family to the second, index-wise."""
    if first.count != second.count:
        raise ValueError(f"families must share an index set: "
                         f"{first.count} vs {second.count} vectors")
    T1 = first.synthesis
    T2 = second.synthesis
    scale2 = operator_norm(T2)
    null1 = kernel_basis(T1)
    escaped = np.flatnonzero((T2 @ null1).column_norms()
                             > KERNEL_RTOL * max(scale2, 1e-300))
    if escaped.size:
        return IntertwinerResult(operator=None, residual=None,
                                 witness=null1.column(escaped[0]))
    L = T2 @ pinv(T1)
    residual = float((L @ T1 - T2).column_norms().max(initial=0.0))
    return IntertwinerResult(operator=L, residual=residual, witness=None)


def are_equivalent(first: Frame, second: Frame) -> EquivalenceResult:
    """Classify a frame pair by the kernels of their synthesis matrices.

    Equivalent families are connected by an invertible operator; the returned
    intertwiner maps the first onto the second in both the equivalent and the
    one-sided case.
    """
    forward = intertwiner(first, second)
    if forward.operator is None:
        return EquivalenceResult(relation="none", intertwiner=None,
                                 residual=None, witness=forward.witness)
    backward = intertwiner(second, first)
    if backward.operator is None:
        return EquivalenceResult(relation="one-sided",
                                 intertwiner=forward.operator,
                                 residual=forward.residual,
                                 witness=backward.witness)
    return EquivalenceResult(relation="equivalent",
                             intertwiner=forward.operator,
                             residual=forward.residual, witness=None)


def frame_with_frame_operator(L: QMatrix) -> Frame:
    """A frame whose frame operator is the prescribed positive definite L.

    The columns of the principal square root do the job: with u_i = L^(1/2) e_i
    the synthesis matrix is L^(1/2) itself and T T* = L.
    """
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValueError(f"expected a square matrix, got {L.shape}")
    root = sqrt_psd(L)  # rejects non-Hermitian and indefinite input
    candidate = Frame.from_synthesis(root)
    if not candidate.is_frame:
        raise ValueError("matrix is not positive definite: the square-root "
                         "columns do not span")
    return candidate


def bessel_from_operator(L: QMatrix) -> Frame:
    """The unique family whose analysis operator is a given L: u_i = L* e_i.

    Columns of the adjoint are read off directly, so the round trip through
    the family's analysis matrix is exact, entry for entry.
    """
    return Frame.from_synthesis(L.H)
