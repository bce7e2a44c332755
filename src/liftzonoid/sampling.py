"""Deterministic randomness: per-task counter-based streams and direction grids.

Randomized routines draw from Philox streams keyed by (seed, task index),
so results never depend on how tasks are distributed over workers.
Direction grids are quasi-uniform (golden-angle on the circle, Fibonacci
lattice on the sphere) and fully determined by (dim, count, seed).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

GOLDEN_FRACTION = (math.sqrt(5.0) - 1.0) / 2.0


def task_stream(seed: int, task: int = 0) -> np.random.Generator:
    """Independent generator for task ``task`` under master ``seed``."""
    key = np.array([np.uint64(seed), np.uint64(task)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _seed_phase(seed: int) -> float:
    # deterministic rotation in [0, 2pi) derived from the seed
    return 2.0 * math.pi * math.modf(float(seed % (2**53)) * GOLDEN_FRACTION)[0]


def direction_grid(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform unit directions, shape (count, dim).

    dim 1 alternates +1/-1; dim 2 uses golden-angle spacing sorted by
    angle (so consecutive rows sweep the circle); dim 3 uses a Fibonacci
    sphere; higher dimensions fall back to normalized Gaussian draws from
    the (seed, dim)-keyed stream (a row shorter than 1e-8 has chance < 1e-32).
    """
    if dim < 1:
        raise DomainError(f"direction_grid: dim={dim} must be >= 1")
    if count < 1:
        raise DomainError(f"direction_grid: count={count} must be >= 1")
    if dim == 1:
        signs = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
        return signs[:, None]
    if dim == 2:
        phase = _seed_phase(seed)
        theta = (2.0 * math.pi) * np.modf(np.arange(count) * GOLDEN_FRACTION)[0] + phase
        theta = np.sort(np.mod(theta, 2.0 * math.pi))
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        phase = _seed_phase(seed)
        j = np.arange(count)
        z = 1.0 - (2.0 * j + 1.0) / count
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        theta = (2.0 * math.pi) * np.modf(j * GOLDEN_FRACTION)[0] + phase
        u = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
        return u / np.linalg.norm(u, axis=1, keepdims=True)
    rng = task_stream(seed, dim)
    u = rng.standard_normal((count, dim))
    return u / np.linalg.norm(u, axis=1, keepdims=True)
