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


def scale_ladder(N: int) -> list[int]:
    """The dyadic scales N/8, N/4, N/2, N of a verify sweep, each at least 4, deduplicated."""
    return sorted({max(4, N >> 3), max(4, N >> 2), max(4, N >> 1), N})


def rademacher_coeffs(degree: int, rng: np.random.Generator) -> np.ndarray:
    """Independent +-1 coefficients on [-degree, degree], index 0 = -degree."""
    return rng.integers(0, 2, size=2 * degree + 1).astype(float) * 2.0 - 1.0


def rademacher_poly(degree: int, rng: np.random.Generator) -> TrigPoly:
    c = rademacher_coeffs(degree, rng)
    return TrigPoly({k: c[k + degree] for k in range(-degree, degree + 1)})


# Cap on partial quotients: a step this long is past every scan range, and
# the cap keeps E / delta finite when delta is tiny.
_CF_CAP = 2.0 ** 53


def _frac(x: np.ndarray) -> np.ndarray:
    """Fractional part in [0, 1); mod of a tiny negative number rounds up to 1."""
    f = np.mod(x, 1.0)
    return np.where(f < 1.0, f, 0.0)


def _first_return_argmin(alpha: np.ndarray, beta: np.ndarray, L: int) -> np.ndarray:
    """Per point, an index m in [0, L] minimising {beta + m alpha}.

    Walks the records of the orbit: from value v the next record is the
    shortest step s whose multiple s alpha falls short of an integer by at
    most v, and that s is a one-sided best approximation of alpha along its
    continued fraction. At each level q_lo falls short of an integer by E
    and q_hi exceeds one by delta (the gaps of the two latest convergents on
    either side), so the step s = q_lo + j q_hi lowers v by E - j delta.
    After the smallest such j with E - j delta <= v, the closing convergent
    q_lo + a q_hi is repeated while the value and the remaining budget
    L - m allow, and the next level starts. A point stops when the next
    step it needs no longer fits, or when its orbit is periodic (alpha = 0
    or a zero gap: v is then already the minimum), so each point costs
    O(log L) levels.
    """
    m = np.zeros(alpha.shape)
    idx = np.flatnonzero((alpha > 0) & (beta > 0) & (L >= 1))
    mi, v, delta = np.zeros(idx.size), beta[idx], alpha[idx]
    q_lo, E, q_hi = np.zeros(idx.size), np.ones(idx.size), np.ones(idx.size)
    while idx.size:
        dl = np.maximum(delta, E / _CF_CAP)
        a = np.floor(E / dl)
        # the shortest step q_lo + j q_hi that lowers v, if it fits
        j = np.maximum(np.ceil((E - v) / dl), 1.0)
        s, gap = q_lo + j * q_hi, E - j * dl
        step = (j <= a) & (gap > 0) & (s <= L - mi)
        mi += np.where(step, s, 0.0)
        v = np.where(step, np.maximum(v - gap, 0.0), v)
        # then the closing convergent, as often as the value and the budget allow
        q1 = q_lo + a * q_hi
        E1 = np.maximum(E - a * dl, 0.0)
        r = np.floor((L - mi) / q1)
        short = v < r * E1
        r = np.where(short, np.floor(v / np.where(short, E1, 1.0)), r)
        r = np.where(E1 > 0, r, 0.0)  # alpha = p/q1 exactly: the orbit repeats from here
        mi += r * q1
        v = np.maximum(v - r * E1, 0.0)
        # the next convergent on the other side
        E1 = np.maximum(E1, dl / _CF_CAP)
        a2 = np.floor(dl / E1)
        q2 = q_hi + a2 * q1
        delta = np.maximum(dl - a2 * E1, 0.0)
        m[idx] = mi
        # every later step is at least q1 + q2 long (beyond L once E1 = 0, by the cap)
        keep = (v > 0) & (delta > 0) & (q1 + q2 <= L - mi)
        idx, mi, v, delta = idx[keep], mi[keep], v[keep], delta[keep]
        q_lo, E, q_hi = q1[keep], E1[keep], q2[keep]
    return m


def _dirichlet_distance(u: np.ndarray, N: int) -> np.ndarray:
    """min over 1 <= n <= N of the distance of (2n+1)u - 1/2 to the integers.

    With n = m + 1 this is ||beta + m alpha|| for alpha = {2u},
    beta = {3u - 1/2} and 0 <= m < N, an inhomogeneous Diophantine minimum:
    its two one-sided minima come from the continued fraction of alpha in
    O(log N) per point (three-distance theorem), and the distance is
    evaluated at the two minimising indices as a scan over n evaluates it.
    """
    u = np.asarray(u, dtype=float)
    d = np.full(u.shape, 0.5)
    for sign in (1.0, -1.0):  # {beta + m alpha} from above, then from below
        alpha, beta = _frac(sign * 2.0 * u), _frac(sign * (3.0 * u - 0.5))
        n = _first_return_argmin(alpha, beta, N - 1) + 1.0
        np.minimum(d, np.abs(np.mod((2.0 * n + 1.0) * u, 1.0) - 0.5), out=d)
    return d


def _max_dirichlet_values(u: np.ndarray, N: int) -> np.ndarray:
    """max over 1 <= n <= N of |D_n(u)|, via the distance of (2n+1)u to 1/2.

    |D_n(u)| = |sin(pi (2n+1) u)| / |sin(pi u)| and the numerator is
    cos(pi d) with d the distance of (2n+1)u - 1/2 to the integers, so the
    greedy maximum needs one trigonometric evaluation after the
    continued-fraction minimum of d.
    """
    u = np.asarray(u, dtype=float)
    d = _dirichlet_distance(u, N)
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
        scales = scale_ladder(N)
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


# Columns of a maximal scan are independent, so it runs over blocks of this
# many columns: one block's partial sums, running maximum and temporaries
# stay in cache through all n. Rows much shorter than this make numpy's
# broadcast multiply several times slower per element.
_SCAN_COLUMNS = 4096


def _maximal_ratios(coeffs: np.ndarray, N: int, a: float, M: int) -> np.ndarray:
    """Batch ratio of the capped maximal function to the 1-norm.

    coeffs has shape (B, 2d+1) over frequencies -d..d; every row is scanned
    with one incremental partial sum per n, tracking the squared maximum of
    |S_n| / (log n)^(1+a) over 2 <= n <= min(N, max(d, 2)). Re S_n and
    Im S_n are kept as real arrays; c_n e^{inx} and then c_-n e^{-inx} are
    added in place in the order of the complex sum, so for real coefficients
    every rounding is that of a complex scan. Complex coefficients add
    their Im c terms after the Re c terms.
    """
    B, width = coeffs.shape
    d = (width - 1) // 2
    n_top = max(2, min(N, d))
    ks = np.arange(1, d + 1)

    def pairs(c, sign):
        # (c_n, sign * c_-n) for n = 1..d, shaped to multiply one row of cos nx or sin nx
        return np.stack((c[:, d + ks].T, sign * c[:, d - ks].T), axis=1)[..., None]

    re = np.asarray(coeffs.real, dtype=float)
    im = np.asarray(coeffs.imag, dtype=float) if np.iscomplexobj(coeffs) else None
    # (part of S_n it updates, coefficient pairs, 0 = cos nx / 1 = sin nx)
    updates = [(0, pairs(re, 1.0), 0), (1, pairs(re, -1.0), 1)]
    if im is not None and im.any():
        updates += [(0, -pairs(im, -1.0), 1), (1, pairs(im, 1.0), 0)]
    weights = [math.log(n) ** -(2.0 * (1.0 + a)) if n >= 2 else 0.0 for n in range(n_top + 1)]
    e1 = np.exp(2j * np.pi * (np.arange(M) / M))
    roots = np.empty((B, M))
    mods = np.empty((B, M))
    for lo in range(0, M, _SCAN_COLUMNS):
        cols = slice(lo, lo + _SCAN_COLUMNS)
        e = e1[cols]
        en = np.ones(e.size, dtype=complex)
        S = np.zeros((2, B, e.size))  # Re S_n, Im S_n
        S[0] = re[:, d, None]
        if im is not None:
            S[1] = im[:, d, None]
        best = np.zeros((B, e.size))
        T = np.empty((2, B, e.size))
        for n in range(1, n_top + 1):
            en = en * e
            if n <= d:
                waves = (en.real.copy(), en.imag.copy())
                for part, c, wave in updates:
                    np.multiply(c[n - 1], waves[wave], out=T)
                    S[part] += T[0]  # c_n e^{inx}
                    S[part] += T[1]  # then c_-n e^{-inx}
            if n >= 2:
                np.multiply(S, S, out=T)
                T[0] += T[1]
                T[0] *= weights[n]
                np.maximum(best, T[0], out=best)
        np.sqrt(best, out=roots[:, cols])
        mods[:, cols] = np.abs(S[0] + 1j * S[1])  # numpy's complex modulus, not hypot
    return roots.mean(axis=1) / mods.mean(axis=1)


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
        scales = scale_ladder(N)
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
