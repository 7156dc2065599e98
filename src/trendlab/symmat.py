"""Symmetric-matrix numerics shared by the whole library.

Eigendecomposition with a fixed sign convention, ridge-regularized inverse
and inverse square root, and the ridge-shifted linear solve that every
portfolio book goes through.  All functions are pure and operate on plain
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
    """Validate a dense symmetric matrix or a stack of them; returns it as a float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    if not np.array_equal(a, at):
        # tolerate round-off asymmetry, reject anything structural
        if not np.allclose(a, at, rtol=0.0, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise InvalidMatrix("matrix is not symmetric")
        a = symmetrize(a)
    return a


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def eigendecompose(m: np.ndarray) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix, deterministic across runs.

    Eigenvalues come out sorted descending; each eigenvector is flipped so
    that its first component of non-negligible size is positive.
    """
    a = check_symmetric(m)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected one square matrix, got shape {a.shape}")
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


def solve(m: np.ndarray, b: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """x with (m + ridge*I) x = b for an (n, n) matrix or a (k, n, n) stack.

    b's last axis holds the right-hand sides, broadcast over the stack: (n,) or
    (k, n) for one per matrix.  ridge=None picks 1e-8 * trace/n per matrix,
    inverse's default on PSD input; NotPositiveDefinite if m + ridge*I is not.
    """
    a = check_symmetric(m)
    n = a.shape[-1]
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1) / n
    elif ridge < 0.0:
        raise InvalidMatrix(f"ridge must be non-negative, got {ridge}")
    shifted = a + np.multiply.outer(ridge, np.eye(n))
    try:
        np.linalg.cholesky(shifted)  # np.linalg.solve passes indefinite, non-singular input
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"not positive definite at ridge {np.min(ridge):.3e}") from None
    return np.linalg.solve(shifted, np.asarray(b, dtype=float)[..., None])[..., 0]
