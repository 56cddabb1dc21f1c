"""
Operators acting on frames
==========================

Invertible operators move frames to frames and the frame operator
conjugates along; unitaries keep the bounds on the nose; orthonormal
compressions keep Parseval frames Parseval. Two families are
equivalent exactly when their synthesis matrices share a kernel, and
the connecting operator is computable.
"""

import numpy as np

from qframes.frame_ops import (
    are_equivalent, frame_with_frame_operator, map_frame, project_frame,
    unitary_invariance_check,
)
from qframes.frames import Frame
from qframes.qlinalg import QMatrix, QVector
from qframes.quaternion import Quaternion
from qframes.sampling import random_frame, random_invertible, random_unitary

rng = np.random.default_rng(33)

# stretch a basis: the bounds pick up the squared singular values
e = QVector.basis
fr = Frame([e(2, 0), e(2, 1)])
L = QMatrix.diag([Quaternion(2), Quaternion(1)])
image, report = map_frame(L, fr)
print("image bounds:", image.optimal_bounds().as_tuple())
print("conjugation residual:", report.residuals["operator-conjugation"])

# a rank-deficient operator flattens the family out of frame-hood
flat = QMatrix.diag([Quaternion(1), Quaternion(0)])
broken, broken_report = map_frame(flat, fr)
print("rank-deficient image status:", broken_report.status)

# unitaries preserve the optimal bounds exactly
big = random_frame(3, 7, rng)
U = random_unitary(3, rng)
before, after, drift = unitary_invariance_check(U, big)
print("\nbounds before:", before.as_tuple())
print("bounds after: ", after.as_tuple())
print("relative drift:", drift)

# compressing a Parseval frame onto a subspace keeps it Parseval
tight = big.parseval_normalize()
basis = QMatrix.from_columns([U.column(0), U.column(1)])
compressed, bounds = project_frame(basis, tight)
print("\ncompressed Parseval bounds:", bounds.as_tuple())

# equivalence: an invertible map of a frame is equivalent to it...
W = random_invertible(3, rng)
moved = Frame.from_synthesis(W @ big.synthesis)  # the family {W u_i}
verdict = are_equivalent(big, moved)
print("\nrandom frame vs its invertible image:", verdict.relation,
      " residual:", verdict.residual)

# ...but redistributing multiplicity changes the kernel, and a witness
# vector certifies the failure
first = Frame([e(2, 0), e(2, 0), e(2, 1)])
second = Frame([e(2, 0), e(2, 1), e(2, 1)])
neg = are_equivalent(first, second)
print("doubled-e1 family vs doubled-e2 family:", neg.relation)
print("witness kernel vector:", [str(x) for x in neg.witness])

# any positive definite operator is the frame operator of some frame
S = QMatrix.diag([Quaternion(4), Quaternion(1)])
made = frame_with_frame_operator(S)
print("\nprescribed-operator frame bounds:", made.optimal_bounds().as_tuple())
