"""How operators move frames around: images, projections, equivalence.

The synthesis matrix of {L u_i} is L T, so the frame operator of the image
family is L S L*. A surjective L sends frames to frames; a rank-deficient L
cannot, because the image family no longer spans. Two frames with the same
index set are equivalent exactly when their synthesis matrices share a
kernel, and the connecting operator is recovered as T2 pinv(T1).

Every test reads the thin SVD of the embedding that each Frame caches
(Frame._factors): one LAPACK SVD for a fresh family, or, for a frame that
already holds the eigensystem of S, read off that with no LAPACK call.
Its right factor Wr spans the row space of chi(T1), so I - Wr Wr*
projects onto the embedded kernel of T1, and T2 annihilates
ker(T1) exactly when the rows of chi(T2) projected that way vanish against
||T2||. The same factors give T2 pinv(T1), with no pseudoinverse formed.
||T2|| is bounded first by the Frobenius norm, ||T2||_F / sqrt(k) <= ||T2||
<= ||T2||_F with k = min(dim, count), and T2 is factored only when the
largest row lands in the band between the two, so a frame whose kernel is
not tested is never factored.
A canonical dual S^-1 T is pinv(T)*, with T's singular vectors, and reads
its factors off its frame's. A frame is factored at most once, whichever
pair and direction it takes part in. The intertwiner residual is relative
to the longest target vector, so it does not scale with the frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .frames import Frame, FrameBounds, FrameReport
from .qlinalg import (
    QMatrix,
    QVector,
    _fold,
    _norm,
    _over,
    _ratio,
    _require_orthonormal,
    complex_adjoint,
    sqrt_psd,
    unembed_vector,
)

# T2 counts as annihilating ker(T1) when, for every row i, the largest
# |(T2 x)_i| over unit vectors x of ker(T1) stays within KERNEL_RTOL * ||T2||.
KERNEL_RTOL = 1e-9

__all__ = ["IntertwinerResult", "EquivalenceResult", "map_frame",
           "unitary_invariance_check", "project_frame", "intertwiner",
           "are_equivalent", "frame_with_frame_operator",
           "bessel_from_operator", "KERNEL_RTOL"]


@dataclass(frozen=True)
class IntertwinerResult:
    """Outcome of looking for L with L u_i = v_i for all i.

    Such an L exists exactly when ker(T1) is contained in ker(T2), decided
    row by row: the inclusion fails when some entry (T2 x)_i exceeds
    KERNEL_RTOL * ||T2|| in modulus for a unit x in ker(T1). When it holds,
    `operator` holds T2 pinv(T1) and `residual` the worst per-vector error
    relative to the longest target, max_i ||L u_i - v_i|| / max_i ||v_i||
    (0 when every v_i is 0), so it does not scale with the frames. When it
    does not, `witness` holds a unit kernel vector of T1 that T2 fails to
    annihilate: the one that makes an entry of T2 x largest.
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
        residuals = dict(report.residuals)
        residuals["operator-conjugation"] = _ratio(
            drift, conjugated.frobenius_norm())
        report = replace(report, residuals=residuals)
    return image, report


def unitary_invariance_check(U: QMatrix, frame: Frame
                             ) -> tuple[FrameBounds, FrameBounds, float]:
    """Optimal bounds before and after a unitary, with their relative drift."""
    n = frame.dim
    if U.shape != (n, n):
        raise ValueError(f"expected a unitary on H^{n}, got shape {U.shape}")
    for X in (U, U.H):  # U*U = I and UU* = I
        _require_orthonormal(X, "operator is not unitary")
    before = frame.optimal_bounds()
    after = Frame.from_synthesis(U @ frame.synthesis).optimal_bounds()
    drift = np.max([_ratio(abs(after.lower - before.lower), before.lower),
                    _ratio(abs(after.upper - before.upper), before.upper)])
    return before, after, float(drift)


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
    _require_orthonormal(basis, "basis columns are not orthonormal")
    compressed = Frame.from_synthesis(basis.H @ frame.synthesis)
    return compressed, compressed.optimal_bounds()


def _kernel_escape(first: Frame, second: Frame) -> QVector | None:
    """A unit vector of ker(T1) that T2 fails to annihilate, or None.

    Row i of R, the top rows of chi(T2) projected onto the embedded kernel of
    T1, has norm max |(T2 x)_i| over unit x in ker(T1); the bottom rows are
    their j-partners and add nothing. T2 annihilates ker(T1) when the largest
    row norm r has _ratio(r, ||T2||) at most KERNEL_RTOL. Since
    ||T2||_F / sqrt(k) <= ||T2|| <= ||T2||_F for k = min(dim, count),
    r / ||T2||_F above KERNEL_RTOL escapes and below KERNEL_RTOL / sqrt(k)
    annihilates without factoring T2; only between the two is ||T2|| read
    from its SVD. The witness is the largest row, taken back to H^m: T2
    sends it to an entry of modulus r. The norms rescale when their squares
    leave the double range, and the ratios have no floor, so the test
    answers alike for T1 and T2 scaled by any power of two.
    """
    Wr = first._factors.Wr
    T2 = second.synthesis
    top = np.hstack(T2.split)  # the top block row of chi(T2), [A2, B2]
    R = top - (top @ Wr) @ Wr.conj().T
    norms = _norm(R, axis=1)
    i = int(np.argmax(norms))
    r = norms[i]
    ratio = _ratio(r, T2.frobenius_norm())
    if ratio <= KERNEL_RTOL / math.sqrt(max(min(T2.shape), 1)):
        return None
    if ratio <= KERNEL_RTOL and _ratio(r, second._factors.s[0]) <= KERNEL_RTOL:
        return None
    # One more projection keeps the witness in ker(T1) to rounding when the
    # row is small against its unprojected length.
    z = R[i].conj()
    z -= Wr @ (Wr.conj().T @ z)
    # Summed by real plane, as np.linalg.norm(z) sums it, so the witness a
    # caller prints keeps its bits.
    return unembed_vector(_over(z, _norm(z.real, z.imag)))


def intertwiner(first: Frame, second: Frame) -> IntertwinerResult:
    """Look for the operator sending the first family to the second, index-wise."""
    if first.count != second.count:
        raise ValueError(f"families must share an index set: "
                         f"{first.count} vs {second.count} vectors")
    witness = _kernel_escape(first, second)
    if witness is not None:
        return IntertwinerResult(operator=None, residual=None, witness=witness)
    T1, T2 = first.synthesis, second.synthesis
    # T2 pinv(T1) = fold(chi(T2) Wr diag(1/s) Wl*), with no pseudoinverse
    # and no 1/s formed, so frames scaled together give the same L.
    Wl, s, Wr = first._factors
    L = _fold(_over(complex_adjoint(T2) @ Wr, s) @ Wl.conj().T)
    # The gaps and the target sizes, column by column, in one norm call.
    ga, gb = (L @ T1 - T2).split
    ta, tb = T2.split
    norms = _norm(np.hstack([ga, ta]), np.hstack([gb, tb]), axis=0)
    gap = norms[:first.count].max(initial=0.0)
    size = norms[first.count:].max(initial=0.0)
    return IntertwinerResult(operator=L, residual=_ratio(gap, size),
                             witness=None)


def are_equivalent(first: Frame, second: Frame) -> EquivalenceResult:
    """Classify a frame pair by the kernels of their synthesis matrices.

    Equivalent families are connected by an invertible operator; the returned
    intertwiner maps the first onto the second in both the equivalent and the
    one-sided case. The backward direction is the kernel test alone.
    """
    forward = intertwiner(first, second)
    if forward.operator is None:
        return EquivalenceResult(relation="none", intertwiner=None,
                                 residual=None, witness=forward.witness)
    witness = _kernel_escape(second, first)
    return EquivalenceResult(
        relation="equivalent" if witness is None else "one-sided",
        intertwiner=forward.operator, residual=forward.residual,
        witness=witness)


def frame_with_frame_operator(L: QMatrix) -> Frame:
    """A frame whose frame operator is the prescribed positive definite L.

    The columns of the principal square root do the job: with u_i = L^(1/2) e_i
    the synthesis matrix is L^(1/2) itself and T T* = L.
    """
    root = sqrt_psd(L)  # rejects non-square, non-Hermitian and indefinite input
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
