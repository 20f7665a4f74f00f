"""Synthetic data models, seeded random streams, study drivers, and the CLI."""

from .models import (
    SparseDeblur,
    SparseDenoise,
    SpectralSource,
    TvImages,
    sample_unit_ball,
)
from .risk import RiskReport, rng_from
from .idx import load_idx_images

__all__ = [
    "SparseDeblur",
    "SparseDenoise",
    "SpectralSource",
    "TvImages",
    "sample_unit_ball",
    "RiskReport",
    "rng_from",
    "load_idx_images",
]
