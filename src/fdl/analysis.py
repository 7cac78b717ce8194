"""Divergence-index estimation, empirical level sets with box-dimension
readout, multifractal spectrum curves, and the finite-scale prevalence probe.

The divergence index at a point is estimated from the running maximum of
partial-sum moduli along a dyadic index schedule, fitted on the tail half
of the schedule where the block constructions have settled, so a schedule
needs at least 3 entries. Partial sums on a uniform grid, shifted or not,
come from trig.grid_sums, the grid kernel that TrigPoly.sample also runs;
at any other points from trig.point_sums, the exact-phase off-grid kernel.
_envelope_fits folds them one schedule entry at a time. On the unit grid
divergence_profile asks partial_sums_at for a group of entries per call,
as many as fit in _PROFILE_CHUNK points x entries (at least one), whose
rows grid_sums transforms in one batched inverse FFT; so a grid profile,
a level set's among them, holds the fitted tail of the log envelope
(8 bytes per point per fitted entry) and one group's sums, never every
partial sum. At any other points it makes one call.
The prevalence probe draws all its trials at once
(util.trial_uniform_rows), bit for bit the per-trial trial_rng rows. A
level set is a mask over a uniform grid of such estimates, a
sets.GridOracle whose boxes box_dimension counts from the mask itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import disjoint_family
from .sets import BoxDimEstimate, GridOracle, box_dimension
from .trig import TrigPoly, grid_sums, point_sums
from .util import DEFAULT_SEED, fractional_part, loglog_fit, trial_uniform_rows

_VANISH_TOL = 1e-14
_LOG_FLOOR = 1e-300
_TRIAL_CHUNK = 1 << 15  # points x trials per chunk of _trial_passes
_FIT_CHUNK = 1 << 15  # points x fitted entries per loglog_fit call of _envelope_fits: a view, and two fit buffers
_GRID_CHUNK = 1 << 15  # points per comparison of _on_unit_grid
_PROFILE_CHUNK = 1 << 17  # points x schedule entries per partial_sums_at call of a unit-grid divergence_profile


def dyadic_schedule(m_lo: int, m_hi: int) -> list[int]:
    """The indices 2^m for m_lo <= m <= m_hi; m_hi <= 1023 keeps 2^m_hi, and so log n, a finite float."""
    if not (0 < m_lo < m_hi <= 1023):
        raise ValueError(f"schedule exponents must satisfy 0 < m_lo < m_hi <= 1023, got {m_lo} and {m_hi}")
    return [1 << m for m in range(m_lo, m_hi + 1)]


def _sorted_terms(f: TrigPoly, schedule: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f's frequencies and coefficients sorted by |k|, and each schedule entry's end in them."""
    order = np.argsort(np.abs(f.k), kind="stable")
    ks, cs = f.k[order], f.c[order]
    return ks, cs, np.searchsorted(np.abs(ks), np.array(schedule), side="right")


def _on_unit_grid(xs: np.ndarray) -> bool:
    """Whether xs is the uniform grid arange(M) / M, M >= 1, compared a block at a time.

    A grid profile asks for one group of schedule entries per call, one
    entry per call from 2^17 points up, and a whole-grid arange per call
    would churn two grid-sized temporaries through the heap.
    """
    M = xs.size
    return M >= 1 and xs.ndim == 1 and all(
        np.array_equal(xs[i : i + _GRID_CHUNK], np.arange(i, min(i + _GRID_CHUNK, M)) / M)
        for i in range(0, M, _GRID_CHUNK))


def partial_sums_at(f: TrigPoly, xs, schedule) -> np.ndarray:
    """S_n f(x) for every x and every n in the schedule, shape (len(xs), len(schedule)).

    Coefficients are sorted by |frequency|, so each schedule entry adds one
    segment of them to the previous partial sum. The uniform grid
    xs = arange(M)/M takes trig.grid_sums, in O(terms + M log M) per
    schedule entry. Any other points take trig.point_sums: phases reduced
    mod 1 from the exact frequencies, one matrix-vector product per
    schedule segment and a cumulative sum over the segments.
    """
    schedule = list(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks, cs, cuts = _sorted_terms(f, schedule)
    if _on_unit_grid(xs):
        return grid_sums(ks, cs, cuts, xs.size).T
    return point_sums(ks, cs, cuts, xs)


@dataclass(frozen=True)
class DivergenceEstimate:
    beta_hat: float
    r2: float
    schedule: list[int]
    envelope: list[float]
    vanishing: bool = False


def _envelope_fits(rows, schedule: list[int], keep: int | None = None):
    """Tail-fitted growth exponents of the partial-sum envelope at every point.

    rows yields S_n f at the points for each n of the schedule in turn, and
    each row is dropped before the next is drawn, so a generator that
    computes one row per entry holds one at a time. Their moduli go into a
    running maximum, whose log from schedule entry keep on (by default the
    fitted tail half) is kept as one row per entry. The fit then runs over
    chunks of points, each a (points, tail) view of those rows, not a copy:
    loglog_fit sums every point's series in the same order in any chunk and
    any layout. Returns beta_hat, r^2, the kept log envelope (entries x
    points) and the points where the envelope vanishes.
    """
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    if len(schedule) < 3:  # the fitted tail half would be one point
        raise ValueError(f"a divergence fit needs a schedule of at least 3 entries, got {len(schedule)}")
    tail = len(schedule) // 2
    keep = tail if keep is None else keep
    # the running maximum lives in env itself: up to entry keep it folds into env[0], with
    # env[1] (at least 2 rows when keep > 0) as the scratch modulus; then row r is the
    # maximum of row r - 1 and the new modulus, written in place
    rows = iter(rows)
    for n in range(len(schedule)):
        sums = next(rows)  # not enumerate, whose cached tuple would hold the last row meanwhile
        if n == 0:
            env = np.empty((len(schedule) - keep, sums.size))
            np.abs(sums, out=env[0])
        elif n > keep:
            np.maximum(env[n - keep - 1], np.abs(sums, out=env[n - keep]), out=env[n - keep])
        else:
            np.maximum(env[0], np.abs(sums, out=env[1]), out=env[0])
        del sums  # before the next row is computed
    del rows  # a generator holds its last group of rows until it is dropped
    vanishing = env[-1] < _VANISH_TOL
    np.maximum(env, _LOG_FLOOR, out=env)
    np.log(env, out=env)
    logn = np.log(np.array(schedule[tail:], dtype=float))
    betas, r2s = np.empty(env.shape[1]), np.empty(env.shape[1])
    chunk = max(1, _FIT_CHUNK // logn.size)
    for i in range(0, env.shape[1], chunk):
        betas[i : i + chunk], r2s[i : i + chunk] = loglog_fit(logn, env[tail - keep :, i : i + chunk].T)
    betas[vanishing] = 0.0
    r2s[vanishing] = 1.0
    return betas, r2s, env, vanishing


def divergence_index(f: TrigPoly, x: float, schedule) -> DivergenceEstimate:
    """Tail-fitted growth exponent of the partial-sum envelope at one point."""
    schedule = list(schedule)
    betas, r2s, env, vanishing = _envelope_fits(partial_sums_at(f, [x], schedule).T, schedule, keep=0)
    return DivergenceEstimate(
        beta_hat=float(betas[0]),
        r2=float(r2s[0]),
        schedule=schedule,
        envelope=[float(v) for v in env[:, 0]],
        vanishing=bool(vanishing[0]),
    )


def divergence_profile(f: TrigPoly, xs, schedule) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized beta_hat and fit quality across many points.

    On the unit grid arange(M) / M each partial_sums_at call takes the next
    max(1, _PROFILE_CHUNK // M) schedule entries, and _envelope_fits folds
    their rows and drops them before the next call: the profile holds one
    group's sums, at most _PROFILE_CHUNK complex values (2 MiB) or one
    entry's row, not every entry's. Any other points take one call.
    """
    schedule = list(schedule)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    group = max(1, _PROFILE_CHUNK // xs.size) if _on_unit_grid(xs) else len(schedule)

    def rows():
        for i in range(0, len(schedule), group):
            sums = partial_sums_at(f, xs, schedule[i : i + group]).T
            yield from sums  # a for loop's variable would keep the last row, and so the group, alive
            del sums  # before the next group is computed

    betas, r2s, _, _ = _envelope_fits(rows(), schedule)
    return betas, r2s


def _level_sets(f: TrigPoly, tolerance: float, grid: int, schedule):
    """Profiles the grid j/grid once; returns beta -> the GridOracle of that level."""
    if not 16 <= grid < 1 << 31:  # box counting reads a mask of fewer than 2^31 points in int64
        raise ValueError(f"level-set grid must lie in 16..2^31 - 1, got {grid}")
    if not tolerance >= 0:
        raise ValueError(f"level-set tolerance must be nonnegative, got {tolerance}")
    betas, _ = divergence_profile(f, np.arange(grid) / grid, schedule)
    return lambda beta: GridOracle(np.abs(betas - beta) <= tolerance)


def level_set(f: TrigPoly, beta: float, tolerance: float, grid: int, schedule) -> GridOracle:
    """Marks grid points whose fitted divergence index is within tolerance of beta."""
    return _level_sets(f, tolerance, grid, schedule)(beta)


def spectrum_curve(f: TrigPoly, beta_grid, schedule, grid: int, tolerance: float,
                   m_lo: int, m_hi: int) -> list[tuple[float, BoxDimEstimate]]:
    """Box dimension of each empirical level set along a grid of betas.

    One divergence profile is shared across all betas; the theoretical
    reference line is 1 - beta * p, attached by the callers that report.
    """
    oracle_at = _level_sets(f, tolerance, grid, schedule)
    return [(float(beta), box_dimension(oracle_at(float(beta)), m_lo, m_hi)) for beta in beta_grid]


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
        if not (self.R > 0 and math.isfinite(2.0 * self.R)):
            raise ValueError(f"cube half-width R must be positive with 2R finite, got {self.R}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 1 <= self.depth <= 53:  # so that every centre K/2^depth is an exact float
            raise ValueError(f"test depth must lie in 1..53, got {self.depth}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta) and math.isfinite(self.m_thresh)):
            raise ValueError("alpha, beta and the growth threshold must be finite")
        if not self.m_thresh > 0:
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


def _test_shifts(alpha: float, depth: int) -> tuple[float, float, float]:
    """The offsets 0 and +-2^(-alpha*depth)/2 of the three copies of the grid K/2^depth."""
    gauge = 2.0 ** (-alpha * depth)
    return 0.0, gauge / 2, -gauge / 2


def dyadic_test_points(alpha: float, depth: int) -> np.ndarray:
    """Depth-level dyadic centers plus the canonical half-gauge perturbations.

    Returns the 3 * 2^depth points K/2^depth + theta * 2^(-alpha*depth) for
    theta in {0, 1/2, -1/2}, wrapped to [0, 1).
    """
    centers = np.arange(1 << depth) / (1 << depth)
    return fractional_part(np.concatenate([centers + shift for shift in _test_shifts(alpha, depth)]))


def _test_point_sums(f: TrigPoly, alpha: float, depth: int, schedule: list[int]) -> np.ndarray:
    """partial_sums_at(f, dyadic_test_points(alpha, depth), schedule).T, one trig.grid_sums per copy.

    grid_sums sums at the exact points K/2^depth + shift, with the phase of
    every |k| <= 2^53 reduced exactly; dyadic_test_points holds their float
    roundings, up to ulp(1)/2 away.
    """
    ks, cs, cuts = _sorted_terms(f, schedule)
    return np.concatenate([grid_sums(ks, cs, cuts, 1 << depth, shift)
                           for shift in _test_shifts(alpha, depth)], axis=1)


def _trial_passes(base: np.ndarray, blocks: np.ndarray, growth: np.ndarray, m_thresh: float,
                  draws: np.ndarray) -> np.ndarray:
    """Per row c of draws, whether at every point some column has |S_n| / n^beta >= m_thresh.

    S_n = base[col] + sum_r c_r blocks[col, r]: base is (schedule, points)
    and blocks (schedule, s, points). Which column clears a point does not
    matter, so the columns go from the top n down, each as one real matmul
    over the trials of a chunk that still have an open point; a trial
    leaves once its last point clears. numpy rounds a one-row product
    otherwise than a row of a larger one, so a lone open trial is multiplied
    beside a closed one and a chunk holds at least two draws. The product,
    its modulus and the cleared points go into three chunk buffers,
    allocated once per call.
    """
    columns, points = base.shape
    per_column = blocks.view(float)  # Re and Im interleaved, so each column is one real matmul
    passes = np.empty(len(draws), dtype=bool)
    chunk = max(2, _TRIAL_CHUNK // points)
    product = np.empty((chunk, 2 * points))
    modulus = np.empty((chunk, points))
    cleared = np.empty((chunk, points), dtype=bool)
    for start in range(0, len(draws), chunk):
        start = max(0, min(start, len(draws) - 2))
        c = draws[start : start + chunk]
        open_points = np.ones((len(c), points), dtype=bool)
        rows = np.arange(len(c))
        for col in range(columns - 1, -1, -1):
            n = rows.size
            sums = np.matmul(c[rows], per_column[col], out=product[:n]).view(complex)
            sums += base[col]
            ratio = np.abs(sums, out=modulus[:n])
            ratio /= growth[col]
            # not (ratio >= m_thresh) rather than ratio < m_thresh: a NaN ratio leaves its point open
            hit = np.greater_equal(ratio, m_thresh, out=cleared[:n])
            open_points[rows] &= np.logical_not(hit, out=hit)
            rows = rows[open_points[rows].any(axis=1)]
            if not rows.size:
                break
            if rows.size == 1 and len(c) > 1:  # pair the lone open trial with trial 0 or 1, closed
                rows = np.array([0, rows[0] or 1])
        passes[start : start + chunk] = ~open_points.any(axis=1)
    return passes


@dataclass(frozen=True)
class ProbeResult:
    """The success fraction and the failed trials, beside the config's rate gap and size condition."""

    fraction: float
    trials: int
    failures: list
    forced_zero_success: bool
    forced_unit_success: bool
    rate_gap: float
    size_condition_met: bool


def prevalence_probe(f: TrigPoly, config: ProbeConfig) -> ProbeResult:
    """Monte-Carlo success fraction of the perturbed divergence lower bound.

    The perturbations g_r are the members of the family that the config
    names, disjoint_family(s, alpha, p, jmax), and the schedule 2^6, 2^7, ...
    reaches the family's top frequency. A trial draws c uniformly in the
    cube and succeeds when, at every test point, some schedule index n has
    |S_n(f + sum c_r g_r)| >= m_thresh * n^beta. The two forced trials
    (all-zero c, first-unit c) are evaluated alongside and never counted in
    the fraction.
    """
    family = disjoint_family(config.s, config.alpha, config.p, config.jmax)
    top = family.freq_constant << config.jmax
    schedule = dyadic_schedule(6, max(7, math.ceil(math.log2(top))))

    base = _test_point_sums(f, config.alpha, config.depth, schedule)
    blocks = np.stack([_test_point_sums(family.member(r), config.alpha, config.depth, schedule)
                       for r in range(1, config.s + 1)], axis=1)
    with np.errstate(over="ignore"):  # an infinite n^beta clears no point, the limit of a huge one
        growth = np.array(schedule, dtype=float) ** config.beta
    draws = trial_uniform_rows(config.seed, config.trials, -config.R, config.R, config.s)
    forced = np.zeros((2, config.s))  # all-zero c, then the first unit vector
    forced[1, 0] = 1.0
    passes = _trial_passes(base, blocks, growth, config.m_thresh, np.vstack([draws, forced]))
    failures = np.flatnonzero(~passes[: config.trials]).tolist()
    return ProbeResult(
        fraction=(config.trials - len(failures)) / config.trials,
        trials=config.trials,
        failures=failures,
        forced_zero_success=bool(passes[-2]),
        forced_unit_success=bool(passes[-1]),
        rate_gap=config.rate_gap,
        size_condition_met=config.size_condition_met,
    )
