"""Seeded random streams and the aggregated risk-curve report."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def rng_from(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator keyed by (master seed, role tags).

    Tags are hashed into the seed-sequence spawn key, so streams for
    different roles or trial indices never collide and adding trials
    leaves earlier streams untouched.
    """
    if not 0 <= int(master_seed) < 2 ** 64:
        raise ValueError("master seed must fit in 64 unsigned bits")
    words: list[int] = []
    for tag in tags:
        digest = hashlib.blake2s(repr(tag).encode()).digest()
        value = int.from_bytes(digest[:8], "little")
        words.extend((value & 0xFFFFFFFF, value >> 32))
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(words))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class RiskReport:
    """Aggregated risk curve over a grid with per-trial selections."""

    grid: np.ndarray
    risk_mean: np.ndarray
    risk_p05: np.ndarray
    risk_p95: np.ndarray
    lambda_hats: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.grid.size
        if not (self.risk_mean.size == self.risk_p05.size == self.risk_p95.size == n):
            raise ValueError("risk columns must have one row per grid value")
