"""Grid construction and data-driven choice of the regularization parameter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .spectral import landweber_factors, landweber_iterations, truncate
from .variational import bregman_l1, bregman_tv


@dataclass(frozen=True)
class ParamGrid:
    """Geometric grid lam_j = lam_min * ratio^(j-1), j = 1..count."""

    lambda_min: float
    lambda_max: float
    count: int
    ratio: float
    values: np.ndarray

    def __len__(self) -> int:
        return self.count


def geometric_grid(lambda_min: float, lambda_max: float, count: int) -> ParamGrid:
    """Build the geometric grid with ratio (lambda_max/lambda_min)^(1/(count-1))."""
    if lambda_min <= 0 or lambda_max <= 0:
        raise ValueError("grid endpoints must be positive")
    if lambda_max < lambda_min:
        raise ValueError("lambda_max must be at least lambda_min")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count == 1:
        if lambda_max != lambda_min:
            raise ValueError("a single-point grid needs equal endpoints")
        return ParamGrid(lambda_min, lambda_max, 1, 1.0, np.array([lambda_min]))
    ratio = (lambda_max / lambda_min) ** (1.0 / (count - 1))
    values = lambda_min * ratio ** np.arange(count)
    return ParamGrid(lambda_min, lambda_max, count, float(ratio), values)


@dataclass(frozen=True)
class TrainingSet:
    """Paired observations ys[i] and ground truths xs[i], stacked on axis 0."""

    ys: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        if len(self.ys) != len(self.xs):
            raise ValueError("ys and xs must pair up")
        if len(self.ys) == 0:
            raise ValueError("training set must be nonempty")

    def __len__(self) -> int:
        return len(self.ys)

    @property
    def pairs(self):
        return zip(self.ys, self.xs)


@dataclass(frozen=True)
class TruncatedSquaredLoss:
    """Squared distance after projection onto the ball of the given radius."""

    radius: float = 1.0
    kind: ClassVar[str] = "truncated-squared"

    @property
    def bound(self) -> float:
        return 4.0 * self.radius ** 2

    def __call__(self, recon, truth) -> float:
        diff = truncate(recon, self.radius) - truncate(truth, self.radius)
        return float(diff @ diff)

    def batch(self, recons, truth) -> np.ndarray:
        recons = np.asarray(recons, dtype=float)
        nrms = np.linalg.norm(recons, axis=1)
        scale = np.where(nrms > self.radius, self.radius / np.maximum(nrms, 1e-300), 1.0)
        diffs = recons * scale[:, None] - truncate(truth, self.radius)
        return np.einsum("ij,ij->i", diffs, diffs)


@dataclass(frozen=True)
class L1BregmanLoss:
    """l1 Bregman divergence of the truth from the reconstruction.

    `bound` must dominate 2 ||truth||_1 over the data model; for s-sparse
    unit-norm truths 2 sqrt(s) works.
    """

    bound: float = 2.0
    kind: ClassVar[str] = "l1-bregman"

    def __call__(self, recon, truth) -> float:
        return bregman_l1(truth, recon)

    def batch(self, recons, truth) -> np.ndarray:
        recons = np.asarray(recons, dtype=float)
        truth = np.asarray(truth, dtype=float)
        return np.abs(truth).sum() - np.sign(recons) @ truth


@dataclass(frozen=True)
class TvBregmanLoss:
    """TV Bregman divergence of the truth from a (image, dual) reconstruction pair."""

    bound: float
    kind: ClassVar[str] = "tv-bregman"

    def __call__(self, recon, truth) -> float:
        img, eta = recon
        return bregman_tv(truth, img, eta)


def risk_curve(method, loss, data: TrainingSet, grid) -> np.ndarray:
    """Empirical risk (mean loss of method(y, lam) over the pairs) at every
    grid value, in grid order.

    Uses the method's vectorized risk_curve or solve_grid fast paths when
    present; a plain callable gets the per-call loop, which they match.
    """
    lams = np.asarray(getattr(grid, "values", grid), dtype=float)
    curve_hook = getattr(method, "risk_curve", None)
    if curve_hook is not None:
        curve = curve_hook(loss, data, lams)
        if curve is not None:
            return curve
    total = np.zeros(lams.size)
    solve_grid = getattr(method, "solve_grid", None)
    batch = getattr(loss, "batch", None)
    for y, x in data.pairs:
        if solve_grid is not None:
            recons = solve_grid(y, lams)
            if batch is not None:
                total += batch(recons, x)
            else:
                total += np.array([loss(r, x) for r in recons])
        else:
            total += np.array([loss(method(y, float(lam)), x) for lam in lams])
    return total / len(data)


def erm_select(method, loss, data: TrainingSet, grid):
    """Pick the grid value minimizing empirical risk; ties go to the smallest index.

    Returns (lambda_hat, risks) with risks the full curve over the grid.
    """
    lams = np.asarray(getattr(grid, "values", grid), dtype=float)
    risks = risk_curve(method, loss, data, lams)
    j = int(np.argmin(risks))
    return float(lams[j]), risks


def quasi_optimality_tikhonov(path, grid):
    """Index minimizing consecutive-solution distance along a Tikhonov path.

    Returns (index, lambda) with 0-based index into the grid; the last grid
    point has no successor and is never selected.
    """
    lams = np.asarray(getattr(grid, "values", grid), dtype=float)
    arr = np.asarray(path, dtype=float)
    if arr.shape[0] != lams.size:
        raise ValueError("path length must match the grid")
    if arr.shape[0] < 2:
        raise ValueError("need at least two grid points")
    arr = arr.reshape(arr.shape[0], -1)
    dists = np.linalg.norm(np.diff(arr, axis=0), axis=1)
    j = int(np.argmin(dists))
    return j, float(lams[j])


def quasi_optimality_landweber(op, y, grid, stepsize: float = 0.2):
    """Iterate-doubling selection for Landweber: minimize ||x_{2k} - x_k||.

    k is floor(1/lam) at the next grid point; returns (index, lambda) with
    0-based index, skipping the final grid point as in the Tikhonov rule.
    """
    lams = np.asarray(getattr(grid, "values", grid), dtype=float)
    if lams.size < 2:
        raise ValueError("need at least two grid points")
    decomp = op.decomposition()
    sig = decomp.singular_values
    eig = sig ** 2
    if np.any(stepsize * eig >= 2.0):
        raise ValueError("stepsize too large for the spectrum: needs stepsize * max eig < 2")
    coeffs = (np.asarray(y, dtype=float) @ decomp.left) * sig
    # One distance per distinct k: grid points sharing k tie exactly, so the
    # argmin still picks the first of them.
    ks, where = np.unique(landweber_iterations(lams[1:]), return_inverse=True)
    delta = (landweber_factors(eig, 2 * ks, stepsize) - landweber_factors(eig, ks, stepsize)) * coeffs
    dists = np.linalg.norm(delta, axis=1)[where]
    j = int(np.argmin(dists))
    return j, float(lams[j])
