"""Symmetric-matrix numerics shared by the whole library.

Eigendecomposition with a fixed sign convention, ridge-regularized inverse
and inverse square root.  All functions are pure and operate on plain
numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveDefinite

# Relative ridge applied when the caller does not pass one explicitly.
DEFAULT_RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class EigenPairs:
    """Spectral decomposition: eigenvalues sorted descending, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.T


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate a dense symmetric matrix; returns it as a float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        # tolerate round-off asymmetry, reject anything structural
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise InvalidMatrix("matrix is not symmetric")
        a = 0.5 * (a + a.T)
    return a


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def eigendecompose(m: np.ndarray) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix, deterministic across runs.

    Eigenvalues come out sorted descending; each eigenvector is flipped so
    that its first component of non-negligible size is positive.
    """
    a = check_symmetric(m)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    sizable = np.abs(vecs) > 1e-12
    lead = vecs[sizable.argmax(axis=0), np.arange(vecs.shape[1])]
    flip = sizable.any(axis=0) & (lead < 0.0)
    vecs[:, flip] = -vecs[:, flip]
    return EigenPairs(eigenvalues=vals, eigenvectors=vecs)


def _default_ridge(vals: np.ndarray) -> float:
    return DEFAULT_RIDGE_SCALE * float(np.abs(vals).sum()) / len(vals)


def _shifted_spectrum(m: np.ndarray, ridge: float | None) -> tuple[np.ndarray, np.ndarray]:
    pairs = eigendecompose(m)
    if ridge is None:
        ridge = _default_ridge(pairs.eigenvalues)
    if ridge < 0.0:
        raise InvalidMatrix(f"ridge must be non-negative, got {ridge}")
    shifted = pairs.eigenvalues + ridge
    if shifted.min() <= 0.0:
        raise NotPositiveDefinite(
            f"eigenvalue {shifted.min():.3e} not positive after ridge {ridge:.3e}"
        )
    return shifted, pairs.eigenvectors


def inverse(m: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Inverse of (m + ridge*I).  ridge=None picks 1e-8 * trace/dim."""
    vals, vecs = _shifted_spectrum(m, ridge)
    return symmetrize((vecs / vals) @ vecs.T)


def inv_sqrt(m: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Inverse square root P of (m + ridge*I), so that P (m+ridge*I) P = I."""
    vals, vecs = _shifted_spectrum(m, ridge)
    return symmetrize((vecs / np.sqrt(vals)) @ vecs.T)
