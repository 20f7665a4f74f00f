"""Synthetic data models for the desk-scale experiments."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..operators import (
    ConvolutionOperator,
    DenseOperator,
    IdentityOperator,
    fractional_power_apply,
    gaussian_deriv2_kernel,
)
from ..selection import TrainingSet
from .idx import load_idx_images
from .risk import rng_from


def sample_unit_ball(d: int, rng: np.random.Generator, n: int | None = None):
    """Uniform samples from the unit ball: Gaussian direction, U^(1/d) radius.

    Returns a (d,) vector, or an (n, d) stack when n is given.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    count = 1 if n is None else n
    g = rng.standard_normal((count, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radius = rng.random(count) ** (1.0 / d)
    out = g * radius[:, None]
    return out[0] if n is None else out


@lru_cache(maxsize=8)
def _gaussian_operator(d: int, seed: int) -> DenseOperator:
    rng = rng_from(seed, "forward-operator")
    return DenseOperator(rng.standard_normal((d, d))).normalize()


@lru_cache(maxsize=4)
def _deblur_operator(d: int) -> ConvolutionOperator:
    return ConvolutionOperator(gaussian_deriv2_kernel(d)).normalize()


@dataclass(frozen=True)
class SpectralSource:
    """Truths X = (A^T A)^s Z with Z uniform in the unit ball, Y = A X + noise.

    A is a fixed normalized Gaussian matrix determined by operator_seed, so
    the whole dataset shares one forward operator.
    """

    d: int = 70
    source_exponent: float = 0.5
    noise_level: float = 0.01
    operator_seed: int = 0

    def operator(self) -> DenseOperator:
        return _gaussian_operator(self.d, self.operator_seed)

    def sample(self, rng: np.random.Generator, n: int) -> TrainingSet:
        op = self.operator()
        z = sample_unit_ball(self.d, rng, n)
        xs = fractional_power_apply(op.decomposition(), self.source_exponent, z)
        noise = rng.standard_normal((n, self.d))
        ys = op.apply(xs) + self.noise_level * noise
        assert np.all(np.linalg.norm(xs, axis=1) <= 1.0 + 1e-9)
        return TrainingSet(ys=ys, xs=xs)

    def describe(self) -> dict:
        return {
            "model": "spectral",
            "d": self.d,
            "source_exponent": self.source_exponent,
            "noise_level": self.noise_level,
            "operator_seed": self.operator_seed,
        }


def _sparse_truths(rng: np.random.Generator, n: int, d: int, sparsity: int) -> np.ndarray:
    """Unit-norm vectors with exactly `sparsity` nonzeros at uniform positions.

    Nonzero values are random signs times uniform magnitudes, rescaled to
    unit l2 norm.
    """
    xs = np.zeros((n, d))
    for i in range(n):
        support = rng.choice(d, size=sparsity, replace=False)
        magnitudes = rng.random(sparsity)
        signs = rng.choice([-1.0, 1.0], size=sparsity)
        values = signs * magnitudes
        nrm = np.linalg.norm(values)
        while nrm == 0.0:  # measure-zero draw, retry keeps the support
            magnitudes = rng.random(sparsity)
            values = signs * magnitudes
            nrm = np.linalg.norm(values)
        xs[i, support] = values / nrm
    return xs


@dataclass(frozen=True)
class SparseDenoise:
    """Sparse truths observed through the identity: y = x + noise."""

    d: int = 1024
    sparsity: int = 64
    noise_level: float = 0.1

    def __post_init__(self):
        if not 1 <= self.sparsity <= self.d:
            raise ValueError("sparsity must lie in [1, d]")

    def operator(self) -> IdentityOperator:
        return IdentityOperator(self.d)

    def sample(self, rng: np.random.Generator, n: int) -> TrainingSet:
        xs = _sparse_truths(rng, n, self.d, self.sparsity)
        ys = xs + self.noise_level * rng.standard_normal((n, self.d))
        assert np.all(np.abs(np.linalg.norm(xs, axis=1) - 1.0) <= 1e-9)
        return TrainingSet(ys=ys, xs=xs)

    def describe(self) -> dict:
        return {"model": "denoise", "d": self.d, "sparsity": self.sparsity,
                "noise_level": self.noise_level}


@dataclass(frozen=True)
class SparseDeblur:
    """Sparse truths blurred by the Gaussian-second-derivative kernel."""

    d: int = 256
    sparsity: int = 8
    noise_level: float = 0.01

    def __post_init__(self):
        if not 1 <= self.sparsity <= self.d:
            raise ValueError("sparsity must lie in [1, d]")

    def operator(self) -> ConvolutionOperator:
        return _deblur_operator(self.d)

    def sample(self, rng: np.random.Generator, n: int) -> TrainingSet:
        op = self.operator()
        xs = _sparse_truths(rng, n, self.d, self.sparsity)
        ys = op.apply(xs) + self.noise_level * rng.standard_normal((n, self.d))
        assert np.all(np.abs(np.linalg.norm(xs, axis=1) - 1.0) <= 1e-9)
        return TrainingSet(ys=ys, xs=xs)

    def describe(self) -> dict:
        return {"model": "deblur", "d": self.d, "sparsity": self.sparsity,
                "noise_level": self.noise_level}


@lru_cache(maxsize=8)
def _synthetic_images(side: int, count: int, seed: int) -> np.ndarray:
    """Piecewise-constant images in [0,1]: a few random bright rectangles."""
    rng = rng_from(seed, "tv-image-pool")
    imgs = np.zeros((count, side, side))
    for i in range(count):
        for _ in range(int(rng.integers(2, 5))):
            r = np.sort(rng.integers(0, side, size=2))
            c = np.sort(rng.integers(0, side, size=2))
            imgs[i, r[0]:r[1] + 1, c[0]:c[1] + 1] += rng.random()
        imgs[i] = np.clip(imgs[i], 0.0, 1.0)
    return imgs


@dataclass(frozen=True)
class TvImages:
    """Square images observed with additive Gaussian noise: y = x + noise.

    Ground truths come from an IDX image file when `source` is a path,
    otherwise from a deterministic synthetic pool of piecewise-constant
    images.  Sampling draws images independently (with replacement) from
    the pool.
    """

    source: str | None = None
    noise_level: float = 0.1
    side: int = 28
    pool_size: int = 256
    pool_seed: int = 0

    def pool(self) -> np.ndarray:
        """The (count, side, side) truth images, read-only."""
        return self._pool

    @cached_property
    def _pool(self) -> np.ndarray:
        # An IDX source is parsed once per instance, not once per use.
        if self.source is None:
            images = _synthetic_images(self.side, self.pool_size, self.pool_seed)
        else:
            images = load_idx_images(self.source)
            if images.shape[1] != images.shape[2]:
                raise ValueError("TV experiments need square images")
        images.flags.writeable = False
        return images

    def sample(self, rng: np.random.Generator, n: int) -> TrainingSet:
        pool = self.pool()
        idx = rng.integers(0, len(pool), size=n)
        xs = pool[idx]
        ys = xs + self.noise_level * rng.standard_normal(xs.shape)
        assert xs.min() >= 0.0 and xs.max() <= 1.0
        return TrainingSet(ys=ys, xs=xs)

    def describe(self) -> dict:
        """Descriptor with the pool's actual image side and count, which an
        IDX source sets rather than the side and pool_size fields."""
        count, side = self.pool().shape[:2]
        return {"model": "tv", "source": self.source or "synthetic",
                "noise_level": self.noise_level, "side": side,
                "pool_size": count, "pool_seed": self.pool_seed}
