"""Divergence-index estimation, empirical level sets with box-dimension
readout, multifractal spectrum curves, and the finite-scale prevalence probe.

The divergence index at a point is estimated from the running maximum of
partial-sum moduli along a dyadic index schedule, fitted on the tail half
of the schedule where the block constructions have settled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construct import SaturatorFamily, disjoint_family
from .sets import BoxDimEstimate, box_dimension
from .trig import TrigPoly
from .util import DEFAULT_SEED, loglog_fit, trial_rng

_VANISH_TOL = 1e-14
_LOG_FLOOR = 1e-300


def dyadic_schedule(m_lo: int, m_hi: int) -> list[int]:
    if not (0 < m_lo < m_hi):
        raise ValueError("need 0 < m_lo < m_hi")
    return [1 << m for m in range(m_lo, m_hi + 1)]


def partial_sums_at(f: TrigPoly, xs, schedule) -> np.ndarray:
    """S_n f(x) for every x and every n in the schedule, shape (len(xs), len(schedule)).

    Coefficients are sorted by |frequency|, so each schedule entry adds one
    segment of them to the previous partial sum. On the uniform grid
    xs = arange(M)/M the point j/M sees frequency k only through k mod M:
    each segment is folded into one length-M spectrum and S_n f on the grid
    is M * ifft of that spectrum, exact for any degree (an evaluation, not
    an interpolation), in O(terms + M log M) per schedule entry. Any other
    points take the dense path, a chunked exp(2 pi i x k) outer product with
    one cumulative sum per point.
    """
    schedule = list(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not len(f):
        return np.zeros((xs.size, len(schedule)), dtype=complex)
    ks = np.array(f.frequencies())
    order = np.argsort(np.abs(ks), kind="stable")
    ks = ks[order]
    cs = np.array([f.coeff(int(k)) for k in ks])
    cuts = np.searchsorted(np.abs(ks), np.array(schedule), side="right")
    out = np.empty((xs.size, len(schedule)), dtype=complex)
    M = xs.size
    if xs.ndim == 1 and np.array_equal(xs, np.arange(M) / M):
        spec = np.zeros(M, dtype=complex)
        bins = ks % M
        start = 0
        for col, stop in enumerate(cuts):
            np.add.at(spec, bins[start:stop], cs[start:stop])
            out[:, col] = np.fft.ifft(spec) * M
            start = stop
        return out
    chunk = max(1, (1 << 22) // ks.size)
    for i in range(0, xs.size, chunk):
        block = xs[i : i + chunk]
        terms = np.exp(2j * np.pi * np.outer(block, ks)) * cs
        cum = np.cumsum(terms, axis=1)
        padded = np.concatenate([np.zeros((block.size, 1), dtype=complex), cum], axis=1)
        out[i : i + chunk] = padded[:, cuts]
    return out


@dataclass(frozen=True)
class DivergenceEstimate:
    beta_hat: float
    r2: float
    schedule: list[int]
    envelope: list[float]
    vanishing: bool = False


def _envelope_fits(sums: np.ndarray, schedule: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # one M x len(schedule) array holds the moduli, their running maximum and its log
    env = np.abs(sums)
    np.maximum.accumulate(env, axis=1, out=env)
    vanishing = env[:, -1] < _VANISH_TOL
    np.maximum(env, _LOG_FLOOR, out=env)
    np.log(env, out=env)
    tail = len(schedule) // 2
    logn = np.log(np.array(schedule[tail:], dtype=float))
    betas, r2s = loglog_fit(logn, env[:, tail:])
    betas[vanishing] = 0.0
    r2s[vanishing] = 1.0
    return betas, r2s, env, vanishing


def divergence_index(f: TrigPoly, x: float, schedule) -> DivergenceEstimate:
    """Tail-fitted growth exponent of the partial-sum envelope at one point."""
    schedule = list(schedule)
    sums = partial_sums_at(f, [x], schedule)
    betas, r2s, env, vanishing = _envelope_fits(sums, schedule)
    return DivergenceEstimate(
        beta_hat=float(betas[0]),
        r2=float(r2s[0]),
        schedule=schedule,
        envelope=[float(v) for v in env[0]],
        vanishing=bool(vanishing[0]),
    )


def divergence_profile(f: TrigPoly, xs, schedule) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized beta_hat and fit quality across many points."""
    schedule = list(schedule)
    sums = partial_sums_at(f, xs, schedule)
    betas, r2s, _, _ = _envelope_fits(sums, schedule)
    return betas, r2s


class LevelSetOracle:
    """Grid-backed membership oracle for one divergence level."""

    def __init__(self, points: np.ndarray, mask: np.ndarray, beta: float, tolerance: float):
        self.points = points
        self.mask = mask
        self.beta = beta
        self.tolerance = tolerance

    def __call__(self, x):
        idx = np.mod(np.rint(np.asarray(x, dtype=float) * self.points.size).astype(int), self.points.size)
        return self.mask[idx]

    @property
    def occupancy(self) -> float:
        return float(self.mask.mean())


def level_set(f: TrigPoly, beta: float, tolerance: float, grid: int, schedule) -> LevelSetOracle:
    """Marks grid points whose fitted divergence index is within tolerance of beta."""
    if grid < 16:
        raise ValueError("grid too coarse for a level set")
    points = np.arange(grid) / grid
    betas, _ = divergence_profile(f, points, schedule)
    mask = np.abs(betas - beta) <= tolerance
    return LevelSetOracle(points, mask, beta, tolerance)


def spectrum_curve(f: TrigPoly, beta_grid, p, schedule, grid: int = 1 << 12,
                   tolerance: float = 0.05, m_lo: int = 4, m_hi: int = 10) -> list[tuple[float, BoxDimEstimate]]:
    """Box dimension of each empirical level set along a grid of betas.

    One divergence profile is shared across all betas; the theoretical
    reference line is 1 - beta * p, attached by the callers that report.
    """
    points = np.arange(grid) / grid
    betas_hat, _ = divergence_profile(f, points, schedule)
    out = []
    for beta in beta_grid:
        mask = np.abs(betas_hat - float(beta)) <= tolerance
        oracle = LevelSetOracle(points, mask, float(beta), tolerance)
        est = box_dimension(oracle, m_lo, m_hi)
        out.append((float(beta), est))
    return out


@dataclass(frozen=True)
class ProbeConfig:
    """Finite-scale prevalence experiment on the coefficient cube [-R, R]^s."""

    s: int = 9
    alpha: float = 2.0
    p: float = 2.0
    beta: float = 0.2
    R: float = 1.0
    m_thresh: float = 1e-4
    trials: int = 200
    depth: int = 4
    jmax: int = 12
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("family size must be positive")
        if self.R <= 0:
            raise ValueError("degenerate cube half-width rejected")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.depth < 1:
            raise ValueError("test depth must be positive")
        if self.m_thresh <= 0:
            raise ValueError("growth threshold must be positive")
        if not (self.beta >= 0):
            raise ValueError("beta must be nonnegative")

    @property
    def rate_gap(self) -> float:
        """(1/p)(1 - 1/alpha) - beta, the gap the family size must dominate."""
        return (1.0 / self.p) * (1.0 - 1.0 / self.alpha) - self.beta

    @property
    def size_condition_met(self) -> bool:
        """Whether s exceeds 4 over the rate gap (recorded, not enforced)."""
        return self.rate_gap > 0 and self.s > 4.0 / self.rate_gap


def dyadic_test_points(alpha: float, depth: int) -> np.ndarray:
    """Depth-level dyadic centers plus the canonical half-gauge perturbations.

    Returns the 3 * 2^depth points K/2^depth + theta * 2^(-alpha*depth) for
    theta in {0, 1/2, -1/2}, wrapped to [0, 1).
    """
    centers = np.arange(1 << depth) / (1 << depth)
    gauge = 2.0 ** (-alpha * depth)
    pts = np.concatenate([centers, centers + gauge / 2, centers - gauge / 2])
    return np.mod(pts, 1.0)


@dataclass(frozen=True)
class ProbeResult:
    fraction: float
    trials: int
    failures: list
    forced_zero_success: bool
    forced_unit_success: bool
    config: ProbeConfig


def prevalence_probe(f: TrigPoly, config: ProbeConfig, family: SaturatorFamily | None = None) -> ProbeResult:
    """Monte-Carlo success fraction of the perturbed divergence lower bound.

    A trial draws c uniformly in the cube and succeeds when, at every test
    point, some schedule index n has |S_n(f + sum c_r g_r)| >= m_thresh * n^beta.
    The two forced trials (all-zero c, first-unit c) are evaluated alongside
    and never counted in the fraction.
    """
    if family is None:
        family = disjoint_family(config.s, config.alpha, config.p, config.jmax)
    if family.s != config.s:
        raise ValueError("family size disagrees with the probe config")
    top = (2 * config.s + 1) * (1 << (config.jmax + 1))
    schedule = dyadic_schedule(6, max(7, math.ceil(math.log2(top))))
    points = dyadic_test_points(config.alpha, config.depth)

    base = partial_sums_at(f, points, schedule)
    blocks = np.stack([partial_sums_at(family.member(r), points, schedule)
                       for r in range(1, config.s + 1)])
    growth = np.array(schedule, dtype=float) ** config.beta

    def succeeds(c: np.ndarray) -> bool:
        sums = base + np.tensordot(c, blocks, axes=1)
        ratios = np.abs(sums) / growth
        return bool(ratios.max(axis=1).min() >= config.m_thresh)

    failures = []
    hits = 0
    for t in range(config.trials):
        c = trial_rng(config.seed, t).uniform(-config.R, config.R, size=config.s)
        if succeeds(c):
            hits += 1
        else:
            failures.append(t)
    unit = np.zeros(config.s)
    unit[0] = 1.0
    return ProbeResult(
        fraction=hits / config.trials,
        trials=config.trials,
        failures=failures,
        forced_zero_success=succeeds(np.zeros(config.s)),
        forced_unit_success=succeeds(unit),
        config=config,
    )
