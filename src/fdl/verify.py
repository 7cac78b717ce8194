"""Empirical certification of the partial-sum inequalities.

Each checker returns a plain ratio (observed quantity over its claimed
bound) or a VerificationReport aggregating ratios across scales and
seeded trials. Ratios are grid quantities; the grids are sized so the
quadrature is exact for the polynomial degrees involved. The pole-comb
kernel bounds other than its comb minimum are closed forms.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .construct import holo_kernel
from .sets import CombParams, comb_membership
from .trig import TrigPoly, dirichlet_eval, lp_norm, validate_norm_exponent
from .util import DEFAULT_SEED, fractional_part, grid_for_degree, indexed_map, is_pow2, trial_rng

HOLO_GRID = 1 << 14  # the boundary grid of holo_sweep and holo_rows unless a caller sets M


@dataclass(frozen=True)
class VerificationReport:
    name: str
    trials: int  # the number of rows the sweep returned
    worst_ratio: float
    fitted_constant: float
    scale_trend: list = field(default_factory=list)
    seed: int = DEFAULT_SEED


def scale_ladder(N: int) -> list[int]:
    """The dyadic scales N/8, N/4, N/2, N of a verify sweep, each at least 4, deduplicated.

    N is at most 2^52, so that every frequency and every Dirichlet order 2n + 1 has an exact phase.
    """
    if not 4 <= N <= 1 << 52:
        raise ValueError(f"N must be at least 4 and at most 2^52, got {N}")
    return sorted({max(4, N >> 3), max(4, N >> 2), max(4, N >> 1), N})


def rademacher_coeffs(degree: int, rng: np.random.Generator) -> np.ndarray:
    """Independent +-1 coefficients on [-degree, degree], index 0 = -degree."""
    return rng.integers(0, 2, size=2 * degree + 1).astype(float) * 2.0 - 1.0


def rademacher_poly(degree: int, rng: np.random.Generator) -> TrigPoly:
    return TrigPoly.from_arrays(np.arange(-degree, degree + 1), rademacher_coeffs(degree, rng))


_TRIAL_BITS = 20  # at most 2^_TRIAL_BITS trials per scale keep every row's stream apart


def _row_rng(seed: int, scale: int, trial: int) -> np.random.Generator:
    """The generator of one Rademacher trial row at one scale of a sweep."""
    return trial_rng(seed, (scale << _TRIAL_BITS) + trial)


# Cap on partial quotients: a step this long is past every scan range, and
# the cap keeps E / delta finite when delta is tiny.
_CF_CAP = 2.0 ** 53


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


def _greedy_orders(u: np.ndarray, N: int) -> np.ndarray:
    """Per point, an order 1 <= n <= N minimising the distance of (2n+1)u - 1/2 to the integers.

    With n = m + 1 this is ||beta + m alpha|| for alpha = {2u},
    beta = {3u - 1/2} and 0 <= m < N, an inhomogeneous Diophantine minimum:
    its two one-sided minimisers come from the continued fraction of alpha
    in O(log N) per point (three-distance theorem), and n is the nearer of
    the two. Where neither is nearer than 1/2 (u = 0), n = N.
    """
    u = np.asarray(u, dtype=float)
    n, d = np.full(u.shape, float(N)), np.full(u.shape, 0.5)
    for sign in (1.0, -1.0):  # {beta + m alpha} from above, then from below
        alpha, beta = fractional_part(sign * 2.0 * u), fractional_part(sign * (3.0 * u - 0.5))
        side = _first_return_argmin(alpha, beta, N - 1) + 1.0
        dist = np.abs(np.mod((2.0 * side + 1.0) * u, 1.0) - 0.5)
        nearer = dist < d
        n[nearer], d[nearer] = side[nearer], dist[nearer]
    return n


def _max_dirichlet_values(u: np.ndarray, N: int) -> np.ndarray:
    """max over 1 <= n <= N of |D_n(u)| = |sin(pi (2n+1) u) / sin(pi u)|: dirichlet_eval at _greedy_orders."""
    return np.abs(dirichlet_eval(_greedy_orders(u, N), u))


def _sweep(name: str, scales: list[int], trials: int, seed: int, ratios, worst=max,
           fitted: int = -1) -> tuple[VerificationReport, list[tuple]]:
    """The report and the (trial, seed, scale, ratio) rows of one verify sweep.

    ratios(scales) yields the per-trial ratios scale by scale; it runs only
    once the trial count is valid: at least 1 and at most 2^20, past which
    _row_rng would give a row the stream of a row at another scale. The trend
    keeps the worst ratio at each scale, and the fitted constant is the trend
    value at scales[fitted].
    """
    if not 1 <= trials <= 1 << _TRIAL_BITS:
        raise ValueError(f"need at least one trial and at most 2^{_TRIAL_BITS}, got {trials}")
    rows = [(trial, seed, scale, float(ratio))
            for scale, per_trial in zip(scales, ratios(scales))
            for trial, ratio in enumerate(per_trial)]
    trend = [(scale, worst(row[3] for row in rows if row[2] == scale)) for scale in scales]
    report = VerificationReport(name, len(rows), worst(row[3] for row in rows), trend[fitted][1],
                                sorted(trend), seed)
    return report, rows


def _trial_sweep(name: str, N: int, trials: int, seed: int, threads: int, ratio_fn,
                 worst=max) -> tuple[VerificationReport, list[tuple]]:
    """A sweep of ratio_fn(scale, rng) over every (scale, trial) task in one
    indexed_map; each task draws its own generator, so threads change no row."""
    def ratios(scales):
        tasks = [(scale, t) for scale in scales for t in range(trials)]
        flat = indexed_map(lambda task: ratio_fn(task[0], _row_rng(seed, *task)), tasks, threads)
        return [flat[i:i + trials] for i in range(0, len(flat), trials)]

    return _sweep(name, scale_ladder(N), trials, seed, ratios, worst)


def dirichlet_rows(N: int, strategy: str, t_samples: int,
                   seed: int = DEFAULT_SEED) -> tuple[VerificationReport, list[tuple]]:
    """Variable-index Dirichlet integrals per shift t and per dyadic scale.

    Returns the aggregated report and (trial, seed, scale, ratio) rows.
    """
    if strategy not in ("constant", "random", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")

    def ratios(scales):
        ts = trial_rng(seed, 0).uniform(0.0, 1.0, size=t_samples)
        for scale in scales:
            M = grid_for_degree(scale)
            x = np.arange(M) / M
            per_trial = []
            for trial, t in enumerate(ts):
                u = x - t
                if strategy == "greedy":
                    vals = _max_dirichlet_values(u, scale)
                elif strategy == "constant":
                    vals = np.abs(dirichlet_eval(scale, u))
                else:
                    n = trial_rng(seed, 1000 + trial).integers(1, scale + 1, size=M)
                    vals = np.abs(dirichlet_eval(n, u))
                per_trial.append(vals.mean() / math.log(scale))
            yield per_trial

    return _sweep(f"dirichlet-{strategy}", scale_ladder(N), t_samples, seed, ratios)


# Columns of a maximal scan are independent, so it runs over blocks of this
# many columns: one block's partial sums, running maximum and temporaries
# stay in cache through all n. Rows much shorter than this make numpy's
# broadcast multiply several times slower per element.
_SCAN_COLUMNS = 4096


def _half_grid_mean(v: np.ndarray, M: int) -> np.ndarray:
    """Row means over the M-point grid of an even function of x, given on columns 0..M/2.

    Columns 1..M/2-1 stand for themselves and their mirror M - j, so the
    weights are 1, 2, ..., 2, 1 over M.
    """
    return (v[:, 0] + v[:, -1] + 2.0 * v[:, 1:-1].sum(axis=1)) / M


def _maximal_ratios(coeffs: np.ndarray, N: int, a: float, M: int) -> np.ndarray:
    """Batch ratio of the capped maximal function to the 1-norm on an even M-point grid.

    coeffs is a real (B, 2d+1) array over frequencies -d..d; every row is
    scanned with one incremental partial sum per n, tracking the squared
    maximum of |S_n| / (log n)^(1+a) over 2 <= n <= min(N, max(d, 2)).
    Real coefficients combine per n: Re S_n gains (c_n + c_-n) cos nx and
    Im S_n gains (c_n - c_-n) sin nx, by one multiply and one add over both
    parts. For +-1 rows the combined coefficients are 0 or +-2, exact, so
    each part takes one rounding per n; the ratios stay within 1e-13
    relative of a complex scan. Real coefficients also give
    conj S_n(x) = S_n(-x), so |S_n(j/M)| = |S_n((M-j)/M)|: only the
    columns 0..M/2 are scanned, and both means weigh them by _half_grid_mean.
    """
    B, width = coeffs.shape
    d = (width - 1) // 2
    n_top = max(2, min(N, d))
    ks = np.arange(1, d + 1)
    pos, neg = coeffs[:, d + ks].T, coeffs[:, d - ks].T
    # (c_n + c_-n, c_n - c_-n) for (cos nx, sin nx), n = 1..d, shaped to multiply one wave buffer
    ab = np.stack((pos + neg, pos - neg), axis=1)[..., None]
    weights = [math.log(n) ** -(2.0 * (1.0 + a)) if n >= 2 else 0.0 for n in range(n_top + 1)]
    half = M // 2
    e1 = np.exp(2j * np.pi * (np.arange(half + 1) / M))
    roots = np.empty((B, half + 1))
    mods = np.empty((B, half + 1))
    # the last block takes column M/2 as well, so no block is a lone column
    edges = [*range(0, half, _SCAN_COLUMNS), half + 1]
    for lo, hi in zip(edges, edges[1:]):
        cols = slice(lo, hi)
        e = e1[cols]
        en = np.ones(e.size, dtype=complex)
        waves = np.empty((2, 1, e.size))  # cos nx, sin nx
        S = np.zeros((2, B, e.size))  # Re S_n, Im S_n
        S[0] = coeffs[:, d, None]
        best = np.zeros((B, e.size))
        T = np.empty((2, B, e.size))
        for n in range(1, n_top + 1):
            en *= e
            if n <= d:
                waves[0, 0], waves[1, 0] = en.real, en.imag
                np.multiply(ab[n - 1], waves, out=T)
                S += T
            if n >= 2:
                np.square(S, out=T)
                T[0] += T[1]
                T[0] *= weights[n]
                np.maximum(best, T[0], out=best)
        np.sqrt(best, out=roots[:, cols])
        mods[:, cols] = np.abs(S[0] + 1j * S[1])  # numpy's complex modulus, not hypot
    return _half_grid_mean(roots, M) / _half_grid_mean(mods, M)


def maximal_rows(N: int, a: float, trials: int, seed: int = DEFAULT_SEED,
                 scales: list[int] | None = None) -> tuple[VerificationReport, list[tuple]]:
    """Rademacher-family maximal ratios across dyadic scales.

    Each scale uses fresh degree-scale polynomials, batched through one
    incremental scan; rows are (trial, seed, scale, ratio). The fitted
    constant is the worst ratio at the first scale. The weights
    (log n)^(-2(1+a)) peak at n = 2, where |S_2|^2 <= 25 for +-1
    coefficients, so an a whose weighted |S_2|^2 can overflow is refused.
    """
    if not 0 < a < math.inf:
        raise ValueError("excess exponent must be positive and finite")
    if 2.0 * (1.0 + a) * -math.log(math.log(2.0)) > math.log(sys.float_info.max / 32.0):  # 32: headroom over 25
        raise ValueError(f"excess exponent {a} overflows the weighted maximal scan")

    def ratios(scales):
        for scale in scales:
            coeffs = np.stack([rademacher_coeffs(scale, _row_rng(seed, scale, t)) for t in range(trials)])
            yield _maximal_ratios(coeffs, scale, a, grid_for_degree(scale, factor=4))

    scales = scale_ladder(N) if scales is None else scales
    return _sweep("weak-maximal", scales, trials, seed, ratios, fitted=0)


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
    sig = P.sample(M)
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
    return float(deriv.norm(math.inf) / (math.log(n) * n ** (1.0 + inv_p) * f.norm(p)))


# A float whose logarithm lies within +-708 is normal and finite (the range is
# about -708.4..709.8), with room to spare for the rounding of the logarithm.
_LOG_NORMAL = 708.0


def check_localization(P: TrigPoly, a: float, interval_length: float, p, eps: float, *,
                       _norm: float | None = None) -> float:
    """Mass of P on the interval around a peak point, against the decay rate.

    The rate factor is (log n)^(-(1+eps)/p) for p > 1 and picks up the extra
    1/log(1/|I|) at p = 1. The hypothesis |P(a)| >= ||P||_p is enforced, and
    an eps whose rate leaves the normal float range is refused: the rate's
    logarithm is checked before any power is taken, since log n < 1 at
    n = 2 turns a large eps into an overflow. The 513 trapezoid points form
    one arithmetic progression across the interval, evaluated by chirp z.
    _norm is P.norm(p) from a caller that already holds P's samples on the
    grid_for_degree grid (localization_rows); other callers leave it out.
    """
    p = validate_norm_exponent(p)
    if math.isinf(p):
        raise ValueError("localization rate is defined for finite p")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    n = P.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    if not (0 < interval_length <= 1.0 / n + 1e-15):
        raise ValueError("interval length must lie in (0, 1/degree]")
    peak = float(np.abs(P.evaluate(np.array([a], dtype=float)))[0])
    if peak < (P.norm(p) if _norm is None else _norm) - 1e-9:
        raise ValueError("hypothesis |P(a)| >= ||P||_p violated")
    # log of the (log n)^(-(1+eps)/p) power, then of the whole rate
    log_power = -(1.0 + eps) / p * math.log(math.log(n))
    log_rate = log_power - (math.log(math.log(1.0 / interval_length)) if p == 1 else 0.0)
    if max(abs(log_power), abs(log_rate)) > _LOG_NORMAL:
        cause = f"eps {eps}" + (f" with interval length {interval_length}" if p == 1 else "")
        raise ValueError(f"{cause} takes the localization rate at degree {n} out of the float range")
    h = interval_length / 512
    if h < sys.float_info.min:  # a subnormal step keeps too few bits to space the 513 points evenly
        raise ValueError(f"interval length {interval_length} leaves a subnormal trapezoid step |I|/512 = {h}; "
                         "a larger --ifrac keeps it normal")
    # as in lp_norm, the p-th powers are taken relative to the interval's own maximum m,
    # so none exceeds 1 at any p; lp_I is relative to the peak
    vals = np.abs(P.evaluate_progression(a - interval_length / 2, h, 513))
    m = float(vals.max())
    mass = float(np.trapezoid((vals / m) ** p, dx=h))
    lp_I = m / peak * mass ** (1.0 / p)
    rate = math.log(n) ** (-(1.0 + eps) / p)
    if p == 1:
        rate /= math.log(1.0 / interval_length)
    return float(lp_I / (interval_length ** (1.0 / p) * rate))


def nikolsky_rows(N: int, p, q, trials: int, seed: int = DEFAULT_SEED,
                  threads: int = 1) -> tuple[VerificationReport, list[tuple]]:
    """Nikolsky ratios of Rademacher polynomials of each dyadic degree."""
    return _trial_sweep("nikolsky", N, trials, seed, threads,
                        lambda scale, rng: check_nikolsky(rademacher_poly(scale, rng), p, q))


def derivative_rows(N: int, p, trials: int, seed: int = DEFAULT_SEED,
                    threads: int = 1) -> tuple[VerificationReport, list[tuple]]:
    """Derivative-bound ratios of Rademacher polynomials at index = degree."""
    return _trial_sweep("derivative", N, trials, seed, threads,
                        lambda scale, rng: check_derivative_bound(rademacher_poly(scale, rng), scale, p))


def localization_rows(N: int, p, eps: float, ifrac: float, trials: int, seed: int = DEFAULT_SEED,
                      threads: int = 1) -> tuple[VerificationReport, list[tuple]]:
    """Localization ratios of Rademacher polynomials around their grid peak.

    The interval has length ifrac / degree and is centred on the largest
    sample of the default degree grid; the worst ratio is the smallest.
    """
    def ratio(scale, rng):
        poly = rademacher_poly(scale, rng)
        M = grid_for_degree(poly.degree)
        samples = poly.sample(M)  # once, for the peak and for the norm
        peak = int(np.argmax(np.abs(samples)))
        return check_localization(poly, peak / M, ifrac / scale, p, eps, _norm=lp_norm(samples, p))

    return _trial_sweep("localization", N, trials, seed, threads, ratio, worst=min)


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


def check_holo_bounds(params: CombParams, M: int) -> HoloBounds:
    """Closed-form margins of the kernel bounds, plus the comb minimum on the grid.

    On the closed disk a^k fills |w| <= rho = (1+eps)^-k, where f = 1/(1-w)
    has min Re f = 1/(1+rho), sup |f| = 1/(1-rho) and sup |f'/f| =
    k rho/(1-rho). c1 = min Re f * omega k, c2 = min |f|/omega over the
    comb points of the M-point circle grid, evaluated there only and
    equal to the minimum over the masked holo_boundary(params, M) samples;
    c3 = sup |f|/omega, c4 = sup |f'/f| / (omega k). c4 = rho/((1 - rho) omega)
    is at most 1 for every admitted comb: Bernoulli gives (1+eps)^k >= 1 + k eps
    = 1 + 1/omega, so rho <= omega/(1 + omega) and 1 - rho >= 1/(1 + omega).
    """
    if not (is_pow2(M) and M < 1 << 63):  # numpy's arange(M) holds 0, the centre of a tooth, below 2^63
        raise ValueError(f"grid size must be a power of two below 2^63, got {M}")
    js = np.flatnonzero(comb_membership(params, np.arange(M) / M))
    # the expression of holo_boundary, on the comb points only, so c2 is the same to the bit
    comb = holo_kernel(params, np.exp(2j * np.pi * js / M))
    t = params.k * math.log1p(params.eps)
    rho, gap = math.exp(-t), -math.expm1(-t)  # gap = 1 - rho without cancellation
    min_re = 1.0 / (1.0 + rho)
    c4 = rho / (gap * params.omega)
    return HoloBounds(
        k=params.k,
        omega=params.omega,
        c1=min_re * params.omega * params.k,
        c2=float(np.abs(comb).min() / params.omega),
        c3=1.0 / (gap * params.omega),
        c4=c4,
        min_re=min_re,
        f0_error=float(abs(holo_kernel(params, 0j) - 1.0)),
        grid=M,
    )


def holo_sweep(ks, M: int = HOLO_GRID, seed: int = DEFAULT_SEED) -> tuple[VerificationReport, list[HoloBounds]]:
    """Runs the bound check across tooth counts with the default omega = max(log k, 3)."""
    params = [CombParams(k, CombParams.default_omega(k)) for k in ks]
    bounds = [check_holo_bounds(p, M) for p in params]
    report = VerificationReport(
        name="holo-bounds",
        trials=len(bounds),
        worst_ratio=max(b.c4 for b in bounds),
        fitted_constant=bounds[0].c2,
        scale_trend=[(b.k, b.c2) for b in bounds],
        seed=seed,
    )
    return report, bounds


def holo_rows(N: int, M: int = HOLO_GRID, seed: int = DEFAULT_SEED) -> tuple[VerificationReport, list[tuple]]:
    """The bound check at tooth counts 8, 16, 32, ... up to N, on the M-point boundary grid.

    Rows are (i, seed, k, c4) for the i-th tooth count; the ratio is c4.
    """
    if N < 8:
        raise ValueError("N must be at least 8")
    report, bounds = holo_sweep([8 << i for i in range((N // 8).bit_length())], M, seed)
    return report, [(i, seed, b.k, b.c4) for i, b in enumerate(bounds)]
