"""Shared numeric plumbing: power-of-two grids, log-log fits, seeded RNG streams."""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

DEFAULT_SEED = 20127


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    n = int(n)
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def grid_for_degree(degree: int, factor: int = 8, minimum: int = 16) -> int:
    """Grid size for sampling a polynomial of the given degree.

    Uses factor * degree rounded up to a power of two, so quadrature of
    |f|^2 stays exact and sup norms are resolved well past the Nyquist rate.
    """
    return max(next_pow2(factor * max(int(degree), 1)), minimum)


def loglog_fit(logx, logy):
    """Least-squares slope and r^2 for already-logged data.

    logy is one series (returns two floats) or a 2-d array with one series
    per row, all against the shared logx (returns two arrays, one entry per
    row). Degenerate inputs get the fixed-point conventions used throughout:
    constant y fits perfectly with slope 0 (r^2 = 1), fewer than two
    distinct x values yield slope 0.
    """
    x = np.asarray(logx, dtype=float)
    y = np.asarray(logy, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise ValueError("mismatched fit inputs")
    slope = np.zeros(y.shape[:-1])
    r2 = np.ones(y.shape[:-1])
    if x.size >= 2:
        vx = x - x.mean()
        vy = y - y.mean(axis=-1, keepdims=True)
        sxx = float((vx * vx).sum())
        syy = (vy * vy).sum(axis=-1)
        flat = syy < 1e-30
        if sxx < 1e-30:
            r2 = np.where(flat, 1.0, 0.0)
        else:
            slope = (vy * vx).sum(axis=-1) / sxx
            resid = vy - slope[..., None] * vx
            r2 = np.where(flat, 1.0, 1.0 - (resid * resid).sum(axis=-1) / np.where(flat, 1.0, syy))
    if y.ndim == 1:
        return float(slope), float(r2)
    return slope, r2


def trial_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one trial, derived from a master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


def indexed_map(fn, items, threads: int = 1) -> list:
    """Map preserving order; optional thread pool for embarrassingly parallel trials."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def round_sig(x: float, digits: int = 12) -> float:
    """Round to a fixed number of significant digits (stable serialization)."""
    if x == 0 or not np.isfinite(x):
        return float(x)
    return float(format(float(x), f".{digits}g"))
