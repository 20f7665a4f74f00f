"""Reconstruction methods in the (y, lam) -> estimate form used by selection.

Each method is a callable; those with a `solve_grid` fast path evaluate a
whole parameter grid at once with results identical to per-call solves.
"""

from __future__ import annotations

import numpy as np

from ..selection import L1BregmanLoss, TruncatedSquaredLoss
from ..spectral import spectral_filter_solve, filter_grid_matrix
from ..variational import (
    SolverConfig,
    LASSO_CONFIG,
    TV_CONFIG,
    lasso_solve,
    regularization_path,
    soft_threshold,
    tv_denoise,
)


class SpectralFilterMethod:
    """Spectral filtering against a fixed operator's decomposition."""

    def __init__(self, operator, filt):
        self.operator = operator
        self.filt = filt
        self.decomp = operator.decomposition()
        self._tables: dict[bytes, np.ndarray] = {}

    def __call__(self, y, lam: float):
        return spectral_filter_solve(self.decomp, self.filt, y, lam)

    def filter_table(self, lams) -> np.ndarray:
        """Filter factors per grid value, cached per grid."""
        lams = np.asarray(lams, dtype=float)
        key = lams.tobytes()
        table = self._tables.get(key)
        if table is None:
            table = filter_grid_matrix(self.decomp, self.filt, lams)
            if len(self._tables) > 16:
                self._tables.clear()
            self._tables[key] = table
        return table

    def coefficients(self, ys) -> np.ndarray:
        """Filter-ready coefficients sigma_i <u_i, y>; reconstructions are
        (coefficients * factors) @ right.T."""
        dec = self.decomp
        return (np.asarray(ys, dtype=float) @ dec.left) * dec.singular_values

    def solve_grid(self, y, lams) -> np.ndarray:
        lams = np.asarray(lams, dtype=float)
        return (self.filter_table(lams) * self.coefficients(y)) @ self.decomp.right.T

    def squared_terms(self, data, lams):
        """(||X||^2, <X, x>) per pair and grid value, shapes (n, N), and
        ||x||^2 per pair, for the reconstructions X = self(y, lam).

        Exact because the right singular vectors are orthonormal, so norms
        and inner products against the truths reduce to coefficient sums.
        """
        xs = np.asarray(data.xs, dtype=float)
        truth_sq = np.einsum("ij,ij->i", xs, xs)
        coeffs = self.coefficients(data.ys)                    # (n, r)
        table = self.filter_table(lams)                        # (N, r)
        truth_coeffs = xs @ self.decomp.right                  # (n, r)
        recon_sq = (coeffs ** 2) @ (table ** 2).T              # (n, N) = ||X||^2
        cross = (coeffs * truth_coeffs) @ table.T              # (n, N) = <X, x>
        return recon_sq, cross, truth_sq

    def risk_curve(self, loss, data, lams):
        """Truncated-squared risk curve in coefficient space.

        Returns None when the loss or data fall outside the fast case.
        """
        if not isinstance(loss, TruncatedSquaredLoss) or np.ndim(data.xs) != 2:
            return None
        recon_sq, cross, truth_sq = self.squared_terms(data, lams)
        if np.any(truth_sq > loss.radius ** 2):
            return None  # truths would be truncated; use the generic path
        norms = np.sqrt(np.maximum(recon_sq, 0.0))
        scale = np.where(norms > loss.radius, loss.radius / np.maximum(norms, 1e-300), 1.0)
        losses = scale ** 2 * recon_sq - 2.0 * scale * cross + truth_sq[:, None]
        return losses.mean(axis=0)


class SoftThresholdMethod:
    """Componentwise shrinkage, the exact identity-operator lasso."""

    def __call__(self, y, lam: float):
        return soft_threshold(y, lam)

    def solve_grid(self, y, lams) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        lams = np.asarray(lams, dtype=float)
        return np.sign(y) * np.maximum(np.abs(y)[None, :] - lams[:, None], 0.0)

    def risk_curve(self, loss, data, lams):
        """l1-Bregman risk curve from one sort per pair.

        S_lam(y) has the sign of y where |y| > lam and is 0 elsewhere, so its
        loss ||x||_1 - <sign(S_lam(y)), x> is ||x||_1 minus the sum of
        sign(y_j) x_j over the coordinates with |y_j| > lam: a prefix sum in
        order of decreasing |y_j|.  Returns None when the loss or data fall
        outside this case.
        """
        if not isinstance(loss, L1BregmanLoss) or np.ndim(data.xs) != 2:
            return None
        ys = np.asarray(data.ys, dtype=float)
        xs = np.asarray(data.xs, dtype=float)
        lams = np.asarray(lams, dtype=float)
        n, d = ys.shape
        mags = np.abs(ys)
        order = np.argsort(mags, axis=1, kind="stable")  # increasing |y|
        sorted_mags = np.take_along_axis(mags, order, axis=1)
        # kept[i, j]: how many |y_ij| exceed lams[j]; side="right" keeps a
        # coordinate with |y_ij| == lams[j] out, as S_lam sets it to 0
        kept = d - np.stack([np.searchsorted(row, lams, side="right") for row in sorted_mags])
        kept_sums = np.zeros((n, d + 1))
        terms = np.take_along_axis(np.sign(ys) * xs, order, axis=1)[:, ::-1]
        np.cumsum(terms, axis=1, out=kept_sums[:, 1:])
        losses = np.abs(xs).sum(axis=1)[:, None] - np.take_along_axis(kept_sums, kept, axis=1)
        return losses.mean(axis=0)


class LassoMethod:
    """Accelerated proximal lasso against a fixed operator, warm-started on grids."""

    def __init__(self, operator, cfg: SolverConfig = LASSO_CONFIG):
        self.operator = operator
        self.cfg = cfg

    def __call__(self, y, lam: float, x0=None):
        return lasso_solve(self.operator, y, lam, self.cfg, x0)

    def solve_grid(self, y, lams) -> np.ndarray:
        solutions = regularization_path(
            lambda yy, lam, x0: lasso_solve(self.operator, yy, lam, self.cfg, x0),
            y, lams)
        return np.stack(solutions)


class TvDenoiseMethod:
    """TV denoising returning (image, dual certificate) pairs.

    The second element is the dual field divided by lam, certifying a TV
    subgradient at the reconstruction; TvBregmanLoss consumes the pair.
    """

    def __init__(self, cfg: SolverConfig = TV_CONFIG):
        self.cfg = cfg

    def __call__(self, y, lam: float):
        x, p = tv_denoise(y, lam, self.cfg, return_dual=True)
        eta = p / lam if lam > 0 else np.zeros_like(p)
        # Clip float dust so the certificate stays inside the unit box.
        return x, np.clip(eta, -1.0, 1.0)
