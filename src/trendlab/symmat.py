"""Symmetric-matrix numerics shared by the whole library.

Eigendecomposition with a fixed sign convention, ridge-regularized inverse
and inverse square root, and System, the ridge-shifted linear system that
every LU solve of the library goes through (the portfolio books, the optimal
weight matrix and the oracle's sandwich) with its own ridge.  A System checks
and shifts its matrix once, on its first solve, however many right-hand sides
are solved against it.  Everything here is pure and takes one (n, n) matrix
or a (..., n, n) stack of them, as an array or, for solve_sandwich, a System;
each matrix of a stack gets exactly the result of its own one-matrix call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NotPositiveDefinite
from .signals import check_number

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
    """Validate a dense symmetric matrix or a stack of them; returns it as a float
    array with round-off asymmetry removed."""
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("matrix has non-finite entries")
    t = np.swapaxes(a, -1, -2)
    if not np.array_equal(a, t):
        # tolerate round-off asymmetry, reject anything structural; each matrix
        # of a stack is judged against its own scale
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), keepdims=True))
        if (np.abs(a - t) > 1e-12 * scale).any():
            raise InvalidMatrix("matrix is not symmetric")
        a = symmetrize(a)
    return a


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


def _check_ridge(ridge: float | None) -> float | None:
    """None (the default per matrix) or a finite, non-negative real; InvalidMatrix otherwise."""
    return ridge if ridge is None else check_number("ridge", ridge, "[0, inf)", error=InvalidMatrix)


def _shifted_spectrum(m: np.ndarray, ridge: float | None) -> tuple[np.ndarray, np.ndarray]:
    ridge = _check_ridge(ridge)
    pairs = eigendecompose(m)
    vals = pairs.eigenvalues
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * np.abs(vals).sum(axis=-1, keepdims=True) / vals.shape[-1]
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


class System:
    """The system m + ridge*I of one (n, n) matrix or a (..., n, n) stack.

    It checks its ridge when built and its matrix, symmetric and positive
    definite, on its first solve; the checked matrix is kept, so every later
    solve is one LU solve.  ridge=None picks 1e-8 * trace/n per matrix,
    inverse's default on PSD input.
    """

    def __init__(self, m, ridge: float | None = None):
        self.matrix = np.asarray(m, dtype=float)
        self.ridge = _check_ridge(ridge)

    @functools.cached_property
    def shifted(self) -> np.ndarray:
        """m + ridge*I; NotPositiveDefinite if it is not positive definite."""
        a = check_symmetric(self.matrix)
        n, ridge = a.shape[-1], self.ridge
        if ridge is None:
            ridge = DEFAULT_RIDGE_SCALE * np.diagonal(a, axis1=-2, axis2=-1).sum(axis=-1) / n
        shifted = a + 0.0  # a copy, and the very sums a + ridge*I gives off the diagonal
        diagonal = np.arange(n)
        shifted[..., diagonal, diagonal] += np.asarray(ridge)[..., None]
        try:
            np.linalg.cholesky(shifted)  # np.linalg.solve passes indefinite, non-singular input
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                f"not positive definite at ridge {np.min(ridge):.3e}") from None
        return shifted

    def solve(self, b) -> np.ndarray:
        """x with (m + ridge*I) x = b; b's last axis holds the right-hand sides,
        broadcast over the stack: (n,) or (..., n) for one per matrix."""
        return np.linalg.solve(self.shifted, np.asarray(b, dtype=float)[..., None])[..., 0]


def solve_sandwich(left: System, core: np.ndarray, right: System) -> np.ndarray:
    """inv(left) core inv(right) by two solves, for one system or a stack.

    Each solve takes a whole (n, n) matrix as its right-hand sides, so each
    side is LU-factored once: X = inv(left) core, then, right being symmetric,
    X inv(right) = (inv(right) X^T)^T.  One System passed as both sides is
    checked once.
    """
    half = np.linalg.solve(left.shifted, np.asarray(core, dtype=float))
    return np.swapaxes(np.linalg.solve(right.shifted, np.swapaxes(half, -1, -2)), -1, -2)
