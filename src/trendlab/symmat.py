"""Symmetric-matrix numerics shared by the whole library.

Eigendecomposition with a fixed sign convention, ridge-regularized inverse
and inverse square root, and the ridge-shifted linear solve that every
portfolio book and the optimal weight matrix go through.  All functions are
pure, operate on plain numpy arrays and take one (n, n) matrix or a
(..., n, n) stack of them; each matrix of a stack gets exactly the result of
its own one-matrix call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveDefinite

# Relative ridge applied when the caller does not pass one explicitly.
DEFAULT_RIDGE_SCALE = 1e-8


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Spectral decomposition: eigenvalues sorted descending, orthonormal columns;
    (..., n) and (..., n, n) for a stack."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ np.swapaxes(u, -1, -2)


def check_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate a dense symmetric matrix or a stack of them; returns it as a float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    a, faults = symmetry_faults(a)
    for message, bad in faults.items():
        if bad.any():
            raise InvalidMatrix(message)
    return a


def symmetry_faults(a: np.ndarray) -> tuple[np.ndarray, dict]:
    """A float stack of square matrices with round-off asymmetry removed, and the
    matrices that fail each check, by message, in check order."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    structural = np.zeros(a.shape[:-2], dtype=bool)
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
        # tolerate round-off asymmetry, reject anything structural; each matrix
        # of a stack is judged against its own scale (a non-finite one is judged as
        # zeros, and kept as it is)
        keep = finite[..., None, None]
        b = np.where(keep, a, 0.0)
        scale = np.maximum(1.0, np.abs(b).max(axis=(-2, -1), keepdims=True))
        structural = (np.abs(b - np.swapaxes(b, -1, -2)) > 1e-12 * scale).any(axis=(-2, -1))
        a = np.where(keep, symmetrize(b), a)
    return a, {"matrix has non-finite entries": ~finite, "matrix is not symmetric": structural}


def symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def eigendecompose(m: np.ndarray) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix or a stack, deterministic across runs.

    Eigenvalues come out sorted descending; each eigenvector is flipped so
    that its first component of non-negligible size is positive.
    """
    a = check_symmetric(m)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals, axis=-1)[..., ::-1]
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    sizable = np.abs(vecs) > 1e-12
    lead = np.take_along_axis(vecs, sizable.argmax(axis=-2)[..., None, :], axis=-2)[..., 0, :]
    flip = sizable.any(axis=-2) & (lead < 0.0)
    vecs = np.where(flip[..., None, :], -vecs, vecs)
    return EigenPairs(eigenvalues=vals, eigenvectors=vecs)


def _shifted_spectrum(m: np.ndarray, ridge: float | None) -> tuple[np.ndarray, np.ndarray]:
    pairs = eigendecompose(m)
    vals = pairs.eigenvalues
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.abs(vals).sum(axis=-1, keepdims=True) / vals.shape[-1]
    elif ridge < 0.0:
        raise InvalidMatrix(f"ridge must be non-negative, got {ridge}")
    shifted = vals + ridge
    if shifted.min() <= 0.0:
        raise NotPositiveDefinite(
            f"eigenvalue {shifted.min():.3e} not positive after ridge {np.max(ridge):.3e}"
        )
    return shifted, pairs.eigenvectors


def inverse(m: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Inverse of (m + ridge*I).  ridge=None picks 1e-8 * trace/dim per matrix."""
    vals, vecs = _shifted_spectrum(m, ridge)
    return symmetrize((vecs / vals[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def inv_sqrt(m: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """Inverse square root P of (m + ridge*I), so that P (m+ridge*I) P = I."""
    vals, vecs = _shifted_spectrum(m, ridge)
    return symmetrize((vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2))


def _shifted(m: np.ndarray, ridge: float | None) -> np.ndarray:
    """m + ridge*I, checked symmetric and positive definite, one matrix or a stack."""
    a = check_symmetric(m)
    n = a.shape[-1]
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1) / n
    elif ridge < 0.0:
        raise InvalidMatrix(f"ridge must be non-negative, got {ridge}")
    shifted = a + 0.0  # a copy, and the very sums a + ridge*I gives off the diagonal
    diagonal = np.arange(n)
    shifted[..., diagonal, diagonal] += np.asarray(ridge)[..., None]
    try:
        np.linalg.cholesky(shifted)  # np.linalg.solve passes indefinite, non-singular input
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"not positive definite at ridge {np.min(ridge):.3e}") from None
    return shifted


def solve(m: np.ndarray, b: np.ndarray, ridge: float | None = None) -> np.ndarray:
    """x with (m + ridge*I) x = b for an (n, n) matrix or a (..., n, n) stack.

    b's last axis holds the right-hand sides, broadcast over the stack: (n,) or
    (..., n) for one per matrix.  ridge=None picks 1e-8 * trace/n per matrix,
    inverse's default on PSD input; NotPositiveDefinite if m + ridge*I is not.
    """
    return np.linalg.solve(_shifted(m, ridge), np.asarray(b, dtype=float)[..., None])[..., 0]


def solve_sandwich(left: np.ndarray, core: np.ndarray, right: np.ndarray,
                   ridge: float | None = None) -> np.ndarray:
    """inv(left + ridge*I) core inv(right + ridge*I) by two solves, for one matrix or a stack.

    Each solve takes a whole (n, n) matrix as its right-hand sides, so each
    matrix is checked and LU-factored once: X = inv(left) core, then, right
    being symmetric, X inv(right) = (inv(right) X^T)^T.
    """
    half = np.linalg.solve(_shifted(left, ridge), np.asarray(core, dtype=float))
    return np.swapaxes(np.linalg.solve(_shifted(right, ridge), np.swapaxes(half, -1, -2)), -1, -2)
