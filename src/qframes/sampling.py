"""Seeded generators for random quaternionic test objects.

Every function takes a numpy Generator so callers control determinism.
Random quaternions draw their four components as independent standard
normals; random unitaries come out of the eigendecomposition of a random
Hermitian matrix, which keeps them exactly orthonormal by construction.
"""

from __future__ import annotations

import numpy as np

from .frames import Frame
from .qlinalg import QMatrix, QVector, herm_eig
from .quaternion import Quaternion

__all__ = [
    "random_quaternion", "random_vector", "random_matrix", "random_hermitian",
    "random_unitary", "random_positive_definite", "random_with_spectrum",
    "random_invertible", "random_rank_deficient", "random_frame",
]


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion(*rng.standard_normal(4))


def random_vector(n: int, rng: np.random.Generator) -> QVector:
    return QVector(rng.standard_normal((n, 4)))


def random_matrix(m: int, n: int, rng: np.random.Generator) -> QMatrix:
    return QMatrix(rng.standard_normal((m, n, 4)))


def random_hermitian(n: int, rng: np.random.Generator) -> QMatrix:
    X = random_matrix(n, n, rng)
    return (X + X.H) * 0.5


def random_unitary(n: int, rng: np.random.Generator) -> QMatrix:
    return herm_eig(random_hermitian(n, rng)).eigenvectors


def random_positive_definite(n: int, rng: np.random.Generator,
                             shift: float = 0.5) -> QMatrix:
    """X X* + shift * I: Hermitian with spectrum bounded below by shift."""
    X = random_matrix(n, n, rng)
    return (X @ X.H) * (1.0 / n) + QMatrix.identity(n) * shift


def random_with_spectrum(m: int, n: int, sigma, rng: np.random.Generator) -> QMatrix:
    """U diag(sigma) V* with random unitary factors; len(sigma) = min(m, n)."""
    sigma = np.asarray(sigma, dtype=float)
    k = min(m, n)
    if sigma.shape != (k,):
        raise ValueError(f"expected {k} singular values, got {sigma.shape}")
    u = random_unitary(m, rng)
    v = random_unitary(n, rng)
    ua, ub = u.split
    core = np.zeros((m, n))
    core[:k, :k] = np.diag(sigma)
    # core is real, so scaling the split halves separately is exact
    scaled = QMatrix.from_split(ua @ core, ub @ core)
    return scaled @ v.H


def random_invertible(n: int, rng: np.random.Generator,
                      spread: tuple[float, float] = (0.5, 2.0)) -> QMatrix:
    """Square matrix with singular values drawn inside a controlled interval."""
    sigma = np.sort(rng.uniform(*spread, size=n))[::-1]
    return random_with_spectrum(n, n, sigma, rng)


def random_rank_deficient(m: int, n: int, rank: int,
                          rng: np.random.Generator) -> QMatrix:
    if not 0 <= rank < min(m, n):
        raise ValueError(f"rank must lie in [0, {min(m, n) - 1}], got {rank}")
    sigma = np.zeros(min(m, n))
    sigma[:rank] = np.sort(rng.uniform(0.5, 2.0, size=rank))[::-1]
    return random_with_spectrum(m, n, sigma, rng)


def random_frame(n: int, m: int, rng: np.random.Generator) -> Frame:
    """m independent Gaussian vectors in H^n; a frame with probability one."""
    vectors = rng.standard_normal((m, n, 4))
    return Frame.from_synthesis(QMatrix(vectors.transpose(1, 0, 2)))
