"""Shared numeric plumbing: power-of-two grids, log-log fits, seeded RNG streams."""
from __future__ import annotations

import math
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


def grid_for_degree(degree: int, factor: int = 8) -> int:
    """Grid size for sampling a polynomial of the given degree.

    Uses factor * degree rounded up to a power of two, at least 16, so quadrature
    of |f|^2 stays exact and sup norms are resolved well past the Nyquist rate.
    """
    return max(next_pow2(factor * max(int(degree), 1)), 16)


def fractional_part(x) -> np.ndarray:
    """x mod 1 in [0, 1): np.mod of a tiny negative number rounds up to 1, which is taken as 0."""
    f = np.mod(x, 1.0)
    return np.where(f < 1.0, f, 0.0)


# relative spread (root mean square over |mean|) up to which loglog_fit calls a series constant
_FLAT_RTOL = 1e-13


def _series_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a (entries, points), each point's sum bit for bit
    numpy's sum of that point's entries as one contiguous row.

    numpy adds a row of n < 8 entries in index order; a longer row in eight
    interleaved partial sums, combined pairwise, and then its last n mod 8
    entries in order; above 128 entries it splits the row at a multiple of
    8 near the middle. A reduction starts from 0.0, so a sum of -0.0 is 0.0.
    Here each of those additions is one vector add across the points.
    """
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _series_sums(a[:half]) + _series_sums(a[half:])
    if n < 8:
        total, rest = a[0].copy(), a[1:]
    else:
        lanes = a[:8].copy()
        for i in range(8, n - n % 8, 8):
            lanes += a[i : i + 8]
        total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
        total += (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        rest = a[n - n % 8 :]
    for row in rest:
        total += row
    return total + 0.0


def loglog_fit(logx, logy):
    """Least-squares slope and r^2 for already-logged data.

    logy is one series (returns two floats) or a 2-d array with one series
    per row, all against the shared logx (returns two arrays, one entry per
    row). Degenerate inputs get the fixed-point conventions used throughout:
    constant y fits perfectly (r^2 = 1), fewer than two distinct x values
    yield slope 0. A series is constant when its sum of squares about the
    mean is below 1e-30 or its root mean square spread is within _FLAT_RTOL
    of |mean|: the mean of equal values rounds at their own magnitude, so
    the absolute cut alone calls seven copies of log 17 noise (r^2 = 0).

    The fit runs on logy.T, entries by series, so each of its four sums over
    a series is a few vector adds across all series (_series_sums), in the
    order numpy sums one contiguous row: every bit is that of the row-wise
    fit of a C-contiguous logy, and logy may be any strided view.
    """
    x = np.asarray(logx, dtype=float)
    y = np.asarray(logy, dtype=float)
    if x.ndim != 1 or y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise ValueError("mismatched fit inputs")
    rows = y if y.ndim == 2 else y[None]
    slope, r2 = np.zeros(len(rows)), np.ones(len(rows))
    if x.size >= 2:
        # entries by series; two such buffers: the centered y, later the residuals, and one for each product
        vx = x - x.mean()
        mean = _series_sums(rows.T) / x.size
        vy = rows.T - mean
        buf = np.empty_like(vy)
        sxx = float((vx * vx).sum())
        vx = vx[:, None]
        syy = _series_sums(np.multiply(vy, vy, out=buf))
        flat = (syy < 1e-30) | (syy <= x.size * (_FLAT_RTOL * mean) ** 2)
        if sxx < 1e-30:
            r2 = np.where(flat, 1.0, 0.0)
        else:
            slope = _series_sums(np.multiply(vy, vx, out=buf)) / sxx
            resid = np.subtract(vy, np.multiply(vx, slope, out=buf), out=vy)
            r2 = np.where(flat, 1.0,
                          1.0 - _series_sums(np.multiply(resid, resid, out=buf)) / np.where(flat, 1.0, syy))
    if y.ndim == 1:
        return float(slope[0]), float(r2[0])
    return slope, r2


def trial_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one trial, derived from a master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),)))


# numpy's SeedSequence hash constants and the PCG64 (XSL-RR) multiplier's high and low words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MULT_HIGH, _MULT_LOW = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hash(value, consts):
    """SeedSequence's hashmix by consts[:-1], each stepped to the next constant to multiply; uint32 wraps as in C."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y, uint32 arrays."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


def _spawn_pools(seed: int, words: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(t,)).pool for each uint32 spawn word t of words, one row each.

    t is hashed into each word of SeedSequence(seed).pool by constants that do not depend on t:
    the seed's words (at least 4) took hash constants 0..15 and 4 more per word past the 4th.
    """
    pool = np.random.SeedSequence(seed).pool
    first = 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4)
    consts = np.array([_INIT_A * pow(_MULT_A, first + i, 1 << 32) % (1 << 32) for i in range(5)], np.uint32)
    return _mix(pool, _hash(words[:, None], consts))


def _mult64_high(x, y):
    """High word of the 128-bit product of uint64 words x and y, from 32-bit halves (numpy's _pcg_mult64)."""
    x0, x1, y0, y1 = x & 0xFFFFFFFF, x >> 32, y & 0xFFFFFFFF, y >> 32
    t = x1 * y0 + ((x0 * y0) >> 32)
    w1 = (t & 0xFFFFFFFF) + x0 * y1
    return x1 * y1 + (t >> 32) + (w1 >> 32)


def _add(a, b):
    """numpy's pcg128_add: a + b mod 2^128 on (high, low) uint64 words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _step(state, inc):
    """PCG64's step state * multiplier + inc mod 2^128: numpy's pcg128_mult, whose words wrap mod 2^64."""
    high, low = state
    high = high * _MULT_LOW + low * _MULT_HIGH + _mult64_high(low, _MULT_LOW)
    return _add((high, low * _MULT_LOW), inc)


def trial_uniform_rows(seed: int, trials: int, low: float, high: float, size: int) -> np.ndarray:
    """Row t is trial_rng(seed, t).uniform(low, high, size), bit for bit, for t < trials.

    numpy's generator, rebuilt once over all trials: each trial's pool
    (_spawn_pools) gives the 8 state words that seed PCG64, whose 128-bit
    LCG runs on (high, low) uint64 words as in the portable fallback of
    numpy's pcg64.h; each draw is low + (high - low) * (output >> 11) / 2^53.
    t must fit one 32-bit spawn word, so trials <= 2^32.
    """
    seed, trials, size = int(seed), int(trials), int(size)
    if not 0 <= trials <= 1 << 32:
        raise ValueError(f"trial indices must fit one 32-bit word, got {trials} trials")
    span = float(high) - float(low)
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if span < 0:
        raise ValueError("high - low < 0")
    pool = _spawn_pools(seed, np.arange(trials, dtype=np.uint32))  # (trials, 4)
    # generate_state(4, uint64): word i hashes pool word i % 4 by _INIT_B * _MULT_B^i, times _MULT_B^(i + 1)
    consts = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) % (1 << 32) for i in range(9)], np.uint32)
    w = _hash(np.tile(pool, 2), consts).astype(np.uint64)
    words = w[:, 0::2] | w[:, 1::2] << 32  # little-endian uint64 words 0..3
    # PCG's srandom: the state is (words 0, 1), the increment (words 2, 3) << 1 | 1;
    # one step from 0 gives inc, then add the state and step again
    inc = (words[:, 2] << 1 | words[:, 3] >> 63, words[:, 3] << 1 | 1)
    state = _step(_add(inc, (words[:, 0], words[:, 1])), inc)
    out = np.empty((trials, size))
    for j in range(size):
        state = _step(state, inc)
        x = state[0] ^ state[1]
        rot = state[0] >> 58
        x = x >> rot | x << ((64 - rot) & 63)
        out[:, j] = float(low) + span * ((x >> 11).astype(float) * (1.0 / 9007199254740992.0))
    return out


def indexed_map(fn, items, threads: int = 1) -> list:
    """Map preserving order; optional thread pool for embarrassingly parallel trials."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

