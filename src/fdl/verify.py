"""Empirical certification of the partial-sum inequalities.

Each checker returns a plain ratio (observed quantity over its claimed
bound) or a VerificationReport aggregating ratios across scales and
seeded trials. Ratios are grid quantities; the grids are sized so the
quadrature is exact for the polynomial degrees involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construct import HoloKernelParams, holo_kernel, holo_log_derivative
from .sets import comb_membership
from .trig import TrigPoly, dirichlet_eval, lp_norm, validate_norm_exponent
from .util import DEFAULT_SEED, grid_for_degree, trial_rng


@dataclass(frozen=True)
class VerificationReport:
    name: str
    trials: int
    worst_ratio: float
    fitted_constant: float
    scale_trend: list = field(default_factory=list)
    seed: int = DEFAULT_SEED


def rademacher_coeffs(degree: int, rng: np.random.Generator) -> np.ndarray:
    """Independent +-1 coefficients on [-degree, degree], index 0 = -degree."""
    return rng.integers(0, 2, size=2 * degree + 1).astype(float) * 2.0 - 1.0


def rademacher_poly(degree: int, rng: np.random.Generator) -> TrigPoly:
    c = rademacher_coeffs(degree, rng)
    return TrigPoly({k: c[k + degree] for k in range(-degree, degree + 1)})


def _max_dirichlet_values(u: np.ndarray, N: int, block: int = 64) -> np.ndarray:
    """max over 1 <= n <= N of |D_n(u)|, via the distance of (2n+1)u to 1/2.

    |D_n(u)| = |sin(pi (2n+1) u)| / |sin(pi u)| and the numerator is
    cos(pi d) with d the distance of frac((2n+1)u) to 1/2, so the greedy
    maximum needs one trigonometric evaluation after a pure arithmetic
    scan over n.
    """
    u = np.asarray(u, dtype=float)
    d = np.full(u.shape, 0.5)
    for start in range(1, N + 1, block):
        ns = np.arange(start, min(start + block, N + 1), dtype=float)
        f = np.mod(np.outer(2.0 * ns + 1.0, u), 1.0)
        np.minimum(d, np.abs(f - 0.5).min(axis=0), out=d)
    s = np.abs(np.sin(np.pi * u))
    near = s < 1e-12
    vals = np.cos(np.pi * d) / np.where(near, 1.0, s)
    return np.where(near, float(2 * N + 1), vals)


def dirichlet_rows(N: int, strategy: str, t_samples: int, seed: int = DEFAULT_SEED,
                   scales: list[int] | None = None) -> tuple[VerificationReport, list[tuple]]:
    """Variable-index Dirichlet integrals per shift t and per dyadic scale.

    Returns the aggregated report and (trial, seed, scale, ratio) rows.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    if strategy not in ("constant", "random", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if scales is None:
        scales = sorted({max(2, N >> 3), max(2, N >> 2), max(2, N >> 1), N})
    rng = trial_rng(seed, 0)
    ts = rng.uniform(0.0, 1.0, size=t_samples)
    rows = []
    trend = {}
    for scale in scales:
        M = grid_for_degree(scale)
        x = np.arange(M) / M
        for trial, t in enumerate(ts):
            u = x - t
            if strategy == "greedy":
                vals = _max_dirichlet_values(u, scale)
            elif strategy == "constant":
                vals = np.abs(dirichlet_eval(scale, u))
            else:
                n = trial_rng(seed, 1000 + trial).integers(1, scale + 1, size=M)
                s = np.abs(np.sin(np.pi * u))
                near = s < 1e-12
                vals = np.abs(np.sin(np.pi * (2 * n + 1) * u)) / np.where(near, 1.0, s)
                vals = np.where(near, (2 * n + 1).astype(float), vals)
            ratio = float(vals.mean() / math.log(scale))
            rows.append((trial, seed, scale, ratio))
            trend[scale] = max(trend.get(scale, 0.0), ratio)
    report = VerificationReport(
        name=f"dirichlet-{strategy}",
        trials=t_samples,
        worst_ratio=max(r[3] for r in rows),
        fitted_constant=trend[scales[-1]],
        scale_trend=sorted(trend.items()),
        seed=seed,
    )
    return report, rows


def check_variable_dirichlet(N: int, strategy: str = "greedy", t_samples: int = 2,
                             seed: int = DEFAULT_SEED) -> VerificationReport:
    report, _ = dirichlet_rows(N, strategy, t_samples, seed)
    return report


def _maximal_ratios(coeffs: np.ndarray, N: int, a: float, M: int) -> np.ndarray:
    """Batch ratio of the capped maximal function to the 1-norm.

    coeffs has shape (B, 2d+1) over frequencies -d..d; every row is scanned
    with one incremental partial sum per n, tracking the squared maximum of
    |S_n| / (log n)^(1+a) over 2 <= n <= min(N, max(d, 2)).
    """
    B, width = coeffs.shape
    d = (width - 1) // 2
    x = np.arange(M) / M
    e1 = np.exp(2j * np.pi * x)
    en = np.ones(M, dtype=complex)
    S = np.repeat(coeffs[:, d][:, None], M, axis=1).astype(complex)
    best = np.zeros((B, M))
    n_top = max(2, min(N, d))
    for n in range(1, n_top + 1):
        en = en * e1
        if n <= d:
            S = S + np.outer(coeffs[:, d + n], en) + np.outer(coeffs[:, d - n], np.conj(en))
        if n >= 2:
            w = math.log(n) ** -(2.0 * (1.0 + a))
            np.maximum(best, (S.real * S.real + S.imag * S.imag) * w, out=best)
    maximal = np.sqrt(best).mean(axis=1)
    norms = np.abs(S).mean(axis=1)
    return maximal / norms


def check_weak_maximal(f: TrigPoly, N: int, a: float) -> float:
    """Integral of max_{2<=n<=N} |S_n f| / (log n)^(1+a) over the 1-norm.

    Beyond the degree the partial sums are constant and the weight decays,
    so the scan stops at min(N, degree) without loss.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if a <= 0:
        raise ValueError("excess exponent must be positive")
    if not len(f):
        raise ValueError("zero polynomial has no maximal ratio")
    d = max(f.degree, 1)
    c = np.zeros(2 * d + 1, dtype=complex)
    for k, v in f.items():
        c[k + d] = v
    return float(_maximal_ratios(c[None, :], N, a, grid_for_degree(d))[0])


def maximal_rows(N: int, a: float, trials: int, seed: int = DEFAULT_SEED,
                 scales: list[int] | None = None) -> tuple[VerificationReport, list[tuple]]:
    """Rademacher-family maximal ratios across dyadic scales.

    Each scale uses fresh degree-scale polynomials, batched through one
    incremental scan; rows are (trial, seed, scale, ratio).
    """
    if scales is None:
        scales = sorted({max(4, N >> 3), max(4, N >> 2), max(4, N >> 1), N})
    rows = []
    trend = {}
    for scale in scales:
        coeffs = np.stack([rademacher_coeffs(scale, trial_rng(seed, (scale << 20) + t))
                           for t in range(trials)])
        ratios = _maximal_ratios(coeffs, scale, a, grid_for_degree(scale, factor=4))
        for t, ratio in enumerate(ratios):
            rows.append((t, seed, scale, float(ratio)))
        trend[scale] = float(ratios.max())
    report = VerificationReport(
        name="weak-maximal",
        trials=trials,
        worst_ratio=max(r[3] for r in rows),
        fitted_constant=trend[scales[0]],
        scale_trend=sorted(trend.items()),
        seed=seed,
    )
    return report, rows


def check_nikolsky(P: TrigPoly, p, q) -> float:
    """Ratio of the q-norm to the degree-corrected p-norm; must stay <= 3."""
    p = validate_norm_exponent(p)
    q = validate_norm_exponent(q)
    if q < p:
        raise ValueError("need p <= q")
    if not len(P):
        raise ValueError("zero polynomial rejected")
    n = max(P.degree, 1)
    M = grid_for_degree(P.degree)
    sig = P.sample(M).samples
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    ratio = lp_norm(sig, q) / (n ** (inv_p - inv_q) * lp_norm(sig, p))
    if ratio > 3.0:
        raise AssertionError(f"nikolsky ratio {ratio} exceeded tolerance 3")
    return float(ratio)


def check_derivative_bound(f: TrigPoly, n: int, p) -> float:
    """Sup norm of (S_n f)' against (log n) n^(1+1/p) times the p-norm."""
    if n < 2:
        raise ValueError("index must be at least 2")
    if not len(f):
        raise ValueError("zero input")
    p = validate_norm_exponent(p)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    deriv = f.truncate(n).derivative()
    num = deriv.norm(math.inf) if len(deriv) else 0.0
    return float(num / (math.log(n) * n ** (1.0 + inv_p) * f.norm(p)))


def check_localization(P: TrigPoly, a: float, interval_length: float, p, eps: float) -> float:
    """Mass of P on the interval around a peak point, against the decay rate.

    The rate factor is (log n)^(-(1+eps)/p) for p > 1 and picks up the extra
    1/log(1/|I|) at p = 1. The hypothesis |P(a)| >= ||P||_p is enforced.
    """
    p = validate_norm_exponent(p)
    if math.isinf(p):
        raise ValueError("localization rate is defined for finite p")
    n = P.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    if not (0 < interval_length <= 1.0 / n + 1e-15):
        raise ValueError("interval length must lie in (0, 1/degree]")
    peak = float(np.abs(P.evaluate(np.array([a], dtype=float)))[0])
    if peak < P.norm(p) - 1e-9:
        raise ValueError("hypothesis |P(a)| >= ||P||_p violated")
    if eps <= 0:
        raise ValueError("eps must be positive")
    ts = a + np.linspace(-0.5, 0.5, 513) * interval_length
    vals = np.abs(P.evaluate(ts)) ** p
    mass = float(np.trapezoid(vals, dx=interval_length / 512))
    lp_I = mass ** (1.0 / p)
    if p > 1:
        rate = math.log(n) ** (-(1.0 + eps) / p)
    else:
        rate = math.log(n) ** (-(1.0 + eps)) / math.log(1.0 / interval_length)
    return float(lp_I / (peak * interval_length ** (1.0 / p) * rate))


@dataclass(frozen=True)
class HoloBounds:
    """The four fitted margins of the comb-kernel estimates."""

    k: int
    omega: float
    c1: float
    c2: float
    c3: float
    c4: float
    min_re: float
    f0_error: float
    grid: int


def check_holo_bounds(params: HoloKernelParams, M: int = 1 << 14,
                      interior_samples: int = 1000, seed: int = DEFAULT_SEED) -> HoloBounds:
    """Boundary-grid margins of the kernel bounds, plus interior positivity.

    c1 = min Re f * omega k, c2 = min |f|/omega over the comb, c3 = max
    |f|/omega over the circle, c4 = max |f'/f| / (omega k). c4 must stay
    at or below 1 (no constant in that bound).
    """
    z = np.exp(2j * np.pi * np.arange(M) / M)
    f = holo_kernel(params, z)
    fd = holo_log_derivative(params, z)
    rng = trial_rng(seed, params.k)
    r = np.sqrt(rng.uniform(0.0, 1.0, interior_samples))
    zi = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, interior_samples))
    fi = holo_kernel(params, zi)
    fdi = holo_log_derivative(params, zi)
    min_re = float(min(f.real.min(), fi.real.min()))
    if min_re <= 0:
        raise AssertionError("Re f must stay positive on the closed disk")
    mask = comb_membership(params.comb, np.arange(M) / M)
    if not mask.any():
        raise ValueError("boundary grid resolves no comb point; increase M")
    c4 = float(max(np.abs(fd).max(), np.abs(fdi).max()) / (params.omega * params.k))
    if c4 > 1.0 + 1e-6:
        raise AssertionError(f"log-derivative bound violated: {c4}")
    return HoloBounds(
        k=params.k,
        omega=params.omega,
        c1=min_re * params.omega * params.k,
        c2=float(np.abs(f[mask]).min() / params.omega),
        c3=float(np.abs(f).max() / params.omega),
        c4=c4,
        min_re=min_re,
        f0_error=float(abs(holo_kernel(params, 0j) - 1.0)),
        grid=M,
    )


def holo_sweep(ks, M: int = 1 << 14, seed: int = DEFAULT_SEED) -> tuple[VerificationReport, list[HoloBounds]]:
    """Runs the bound check across tooth counts with omega = max(log k, 3)."""
    bounds = [check_holo_bounds(HoloKernelParams(k, max(math.log(k), 3.0)), M, seed=seed) for k in ks]
    report = VerificationReport(
        name="holo-bounds",
        trials=len(bounds),
        worst_ratio=max(b.c4 for b in bounds),
        fitted_constant=bounds[0].c2,
        scale_trend=[(b.k, b.c2) for b in bounds],
        seed=seed,
    )
    return report, bounds
