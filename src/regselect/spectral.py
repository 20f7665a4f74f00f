"""Spectral regularization: filter families, solvers, truncation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DenseOperator, SpectralDecomposition


@dataclass(frozen=True)
class Tikhonov:
    """Filter sigma -> 1/(sigma + lam) on the spectrum of A^T A."""

    qualification: float = 1.0

    def factors(self, eigvals: np.ndarray, lam: float) -> np.ndarray:
        if lam <= 0:
            raise ValueError("lam must be positive")
        return 1.0 / (eigvals + lam)


@dataclass(frozen=True)
class Landweber:
    """Filter of floor(1/lam) gradient-descent steps with fixed stepsize."""

    stepsize: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.stepsize < 2.0:
            raise ValueError("stepsize must lie in (0, 2)")

    def factors(self, eigvals: np.ndarray, lam: float) -> np.ndarray:
        if np.any(self.stepsize * eigvals >= 2.0):
            raise ValueError("stepsize too large for the spectrum: needs stepsize * max eig < 2")
        return landweber_factors(eigvals, landweber_iterations(lam), self.stepsize)


@dataclass(frozen=True)
class SpectralCutoff:
    """Truncated pseudoinverse filter: keep eigenvalues >= lam."""

    def factors(self, eigvals: np.ndarray, lam: float) -> np.ndarray:
        if lam <= 0:
            raise ValueError("lam must be positive")
        out = np.zeros_like(eigvals, dtype=float)
        keep = eigvals >= lam
        out[keep] = 1.0 / eigvals[keep]
        return out


def landweber_iterations(lam):
    """Iteration count floor(1/lam) used by the Landweber filter; an array of
    lams gives an integer array of counts."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("lam must be positive")
    k = np.floor(1.0 / lam).astype(np.int64)
    return int(k) if k.ndim == 0 else k


def landweber_factors(eigvals: np.ndarray, k, stepsize: float) -> np.ndarray:
    """Filter factors of exactly k Landweber steps on the spectrum of A^T A.

    (1 - (1 - stepsize * e)^k) / e, extended continuously by stepsize * k at e = 0.
    An integer array k gives one row per count, each bit for bit the scalar call.
    """
    eigvals = np.asarray(eigvals, dtype=float)
    ks = np.asarray(k, dtype=np.int64)
    out = np.empty(ks.shape + eigvals.shape)
    out[...] = (stepsize * ks).reshape(ks.shape + (1,) * eigvals.ndim)
    pos = eigvals > 0
    base = 1.0 - stepsize * eigvals[pos]
    col = ks[..., None]
    # numpy evaluates base ** 2 for a Python int 2 by multiplication, not by
    # pow(); rows of k = 2 do the same, so every factor equals the one from
    # base ** int(k) bit for bit
    powers = np.where(col == 2, base * base, base ** col)
    out[..., pos] = (1.0 - powers) / eigvals[pos]
    return out


def spectral_filter_solve(decomp: SpectralDecomposition, filt, y, lam: float):
    """Reconstruct sum_i g_lam(sigma_i^2) sigma_i <u_i, y> v_i."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    y = np.asarray(y, dtype=float)
    sig = decomp.singular_values
    g = filt.factors(sig ** 2, lam)
    coeffs = (y @ decomp.left) * sig * g
    return coeffs @ decomp.right.T


def filter_grid_matrix(decomp: SpectralDecomposition, filt, lams) -> np.ndarray:
    """Filter factor table g_lam(sigma_i^2), one row per grid value."""
    eig = decomp.singular_values ** 2
    return np.stack([filt.factors(eig, lam) for lam in np.asarray(lams, dtype=float)])


def tikhonov_solve(op: DenseOperator, y, lam: float):
    """Minimize ||A x - y||^2 + lam ||x||^2 through the normal equations."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    a = op.matrix
    y = np.asarray(y, dtype=float)
    gram = a.T @ a + lam * np.eye(a.shape[1])
    return np.linalg.solve(gram, a.T @ y)


def landweber_solve(op, y, iterations: int, stepsize: float = 0.2):
    """Run gradient descent on ||A x - y||^2 from zero with fixed stepsize."""
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    nrm = op.operator_norm()
    if stepsize * nrm ** 2 >= 2.0:
        raise ValueError("stepsize too large: needs stepsize * ||A||^2 < 2")
    y = np.asarray(y, dtype=float)
    x = np.zeros(op.domain_dim)
    for _ in range(iterations):
        x = x + stepsize * op.adjoint_apply(y - op.apply(x))
    return x


def truncate(x, radius: float = 1.0):
    """Project onto the centered ball of the given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x)
    if nrm <= radius:
        return x
    return (radius / nrm) * x
