"""Geometry of the exceptional sets: dyadic interval families, comb sets,
dyadic approximation exponents, gauge functions, and box-counting dimension.

Points live on the circle [0, 1). Dyadic families at level j consist of the
2^J intervals of radius 2^-j around the centers K/2^J, where J is derived
from the approximation exponent alpha. Box counting works on dyadic grids
anchored at 0 with a one-box circular dilation, which trades a constant
factor in the counts for stability of the fitted slope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .util import loglog_fit


@dataclass(frozen=True)
class DyadicFamilyParams:
    """Level j and exponent alpha; the coarse level J = floor(j/alpha) + 1.

    Validity requires J <= j - 2 so the doubled intervals stay disjoint
    (adjacent ones may touch at endpoints).
    """

    j: int
    alpha: float

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("level j must be a positive integer")
        if not (self.alpha > 1):
            raise ValueError("exponent alpha must exceed 1")
        if self.J > self.j - 2:
            raise ValueError(
                f"level {self.j} too small for alpha={self.alpha}: "
                f"J={self.J} exceeds j-2={self.j - 2}"
            )

    @property
    def J(self) -> int:
        return math.floor(self.j / self.alpha) + 1

    @property
    def center_count(self) -> int:
        return 1 << self.J

    @property
    def measure(self) -> float:
        """Total measure of the union: 2^J intervals of length 2^(1-j)."""
        return 2.0 ** (self.J - self.j + 1)


def smallest_admissible_level(alpha: float) -> int:
    """Least j with floor(j/alpha) + 1 <= j - 2."""
    if not (alpha > 1):
        raise ValueError("exponent alpha must exceed 1")
    j = 3
    while math.floor(j / alpha) + 1 > j - 2:
        j += 1
    return j


@dataclass(frozen=True)
class DyadicFamily:
    """Concrete interval family with vectorized membership tests."""

    params: DyadicFamilyParams

    def _center_distance(self, x) -> np.ndarray:
        # distance from x to the nearest center K/2^J, computed on the circle
        frac = np.mod(np.asarray(x, dtype=float) * (1 << self.params.J), 1.0)
        return np.minimum(frac, 1.0 - frac) / (1 << self.params.J)

    def contains(self, x):
        """Membership in the union of the radius 2^-j intervals."""
        return self._center_distance(x) <= 2.0 ** (-self.params.j) + 1e-18

    def contains_doubled(self, x):
        """Membership in the doubled intervals of radius 2^(1-j)."""
        return self._center_distance(x) <= 2.0 ** (1 - self.params.j) + 1e-18

    def intervals(self) -> list[tuple[float, float]]:
        """The 2^J intervals as (lo, hi) around K/2^J; K=0 extends below 0."""
        r = 2.0 ** (-self.params.j)
        step = 2.0 ** (-self.params.J)
        return [(K * step - r, K * step + r) for K in range(self.params.center_count)]

    def centers(self) -> np.ndarray:
        return np.arange(self.params.center_count) / (1 << self.params.J)

    @property
    def measure(self) -> float:
        return self.params.measure


def dyadic_family(params: DyadicFamilyParams) -> DyadicFamily:
    return DyadicFamily(params)


@dataclass(frozen=True)
class CombParams:
    """k teeth of half-width 1/(2*omega*k) centered at the points i/k."""

    k: int
    omega: float

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("comb needs at least 3 teeth")
        if not (self.omega > 1):
            raise ValueError("sharpness omega must exceed 1 so teeth are disjoint")

    @property
    def half_width(self) -> float:
        return 1.0 / (2.0 * self.omega * self.k)

    @property
    def measure(self) -> float:
        return 1.0 / self.omega


def comb_membership(params: CombParams, x):
    """True where dist(x, nearest tooth center i/k) <= half-width."""
    frac = np.mod(np.asarray(x, dtype=float) * params.k, 1.0)
    dist = np.minimum(frac, 1.0 - frac) / params.k
    return dist <= params.half_width + 1e-18


_FLOAT_DEPTH = 52  # deepest level a float x is trusted at


def _exponent_candidates(x, depth: int):
    # distance from x to the nearest k/2^j, exactly in Fraction arithmetic
    # when x is a Fraction, in floats otherwise (depth at most _FLOAT_DEPTH)
    exact = isinstance(x, Fraction)
    for j in range(1, depth + 1):
        if exact:
            t = x * (1 << j)
            r = (2 * t + 1) // 2  # nearest integer to t
            d = abs(t - r)
            if d == 0:
                yield j, math.inf
            else:
                # alpha_j = -log2(d / 2^j) / j
                yield j, (j + math.log2(d.denominator) - math.log2(d.numerator)) / j
        else:
            t = float(x) * (1 << j)
            d = abs(t - round(t))
            if d < 1e-300:
                yield j, math.inf
            else:
                yield j, (j - math.log2(d)) / j


def dyadic_approx_exponent(x, depth: int) -> float:
    """Best dyadic approximation exponent observed in the tail window.

    Scans levels j in [depth/2, depth] and returns the largest exponent
    alpha_j with |x - k/2^j| <= 2^(-alpha_j * j) achieved at some level;
    exact dyadic rationals give +inf. Accepts Fraction inputs for exact
    arithmetic beyond float resolution. A float is itself a dyadic rational
    (0.1 is exactly k/2^55), so past the 52 bits of its fraction the scan
    would only find the float's own exactness: float input is refused
    beyond depth 52.
    """
    if depth < 4:
        raise ValueError("depth must be at least 4")
    if depth > _FLOAT_DEPTH and not isinstance(x, Fraction):
        raise ValueError(f"depth {depth} exceeds float resolution ({_FLOAT_DEPTH} levels); "
                         "pass x as a fractions.Fraction")
    lo = max(1, depth // 2)
    best = 0.0
    for j, a in _exponent_candidates(x, depth):
        if j >= lo and a > best:
            best = a
            if math.isinf(best):
                break
    return best


@dataclass(frozen=True)
class GaugeSpec:
    """Power-law gauge s^(1-beta) with a log correction of order nu."""

    beta: float
    nu: float

    def __post_init__(self):
        if not (0 <= self.beta <= 1):
            raise ValueError("beta must lie in [0, 1]")
        if not (self.nu > 3):
            raise ValueError("log power nu must exceed 3")


def gauge_eval(spec: GaugeSpec, s: float) -> float:
    """s^(1-beta) / log(1/s)^nu on the scale range (0, 1/2)."""
    if not (0 < s < 0.5):
        raise ValueError("gauge defined for scales in (0, 1/2)")
    return s ** (1.0 - spec.beta) / math.log(1.0 / s) ** spec.nu


def limsup_membership(family_at, x, window) -> int:
    """Number of levels j in the window whose family contains x.

    family_at maps a level j to either a membership callable or an object
    with a contains method (a DyadicFamily works directly).
    """
    window = list(window)
    if not window:
        raise ValueError("window must be non-empty")
    hits = 0
    for j in window:
        member = family_at(j)
        test = member.contains if hasattr(member, "contains") else member
        if bool(np.asarray(test(x)).reshape(-1)[0]):
            hits += 1
    return hits


@dataclass(frozen=True)
class BoxDimEstimate:
    slope: float
    r2: float
    scales: list[int] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)


def _probe_hits(oracle, probe_exponent: int) -> np.ndarray:
    """Evaluate the membership oracle at box-center probes, chunked."""
    n = 1 << probe_exponent
    hits = np.empty(n, dtype=bool)
    chunk = 1 << 20
    for i in range(0, n, chunk):
        xs = (np.arange(i, min(i + chunk, n), dtype=float) + 0.5) / n
        out = oracle(xs)
        out = np.asarray(out, dtype=bool)
        if out.shape != xs.shape:  # scalar-only oracle
            out = np.fromiter((bool(oracle(float(x))) for x in xs), dtype=bool, count=xs.size)
        hits[i : i + xs.size] = out
    return hits


def count_occupied_boxes(hits: np.ndarray, m: int, dilate: bool = True) -> int:
    """Occupied dyadic boxes of size 2^-m, with circular one-box dilation."""
    occ = hits.reshape(1 << m, -1).any(axis=1)
    if dilate:
        occ = occ | np.roll(occ, 1) | np.roll(occ, -1)
    return int(occ.sum())


def box_dimension(oracle, m_lo: int, m_hi: int, probe_exponent: int | None = None) -> BoxDimEstimate:
    """Log-log slope of dilated box counts against scale.

    The oracle is probed once at the finest resolution and the counts at
    each scale come from collapsing that single hit vector, so the counts
    are monotone under set inclusion by construction.
    """
    if not (4 <= m_lo < m_hi <= 20):
        raise ValueError("scale exponents must satisfy 4 <= m_lo < m_hi <= 20")
    if probe_exponent is None:
        probe_exponent = min(24, max(m_hi + 6, 18))
    if probe_exponent < m_hi:
        raise ValueError("probe resolution must be at least as fine as the smallest box")
    hits = _probe_hits(oracle, probe_exponent)
    scales = list(range(m_lo, m_hi + 1))
    counts = [count_occupied_boxes(hits, m) for m in scales]
    if counts[0] == 0:
        return BoxDimEstimate(0.0, 1.0, scales, counts)
    logx = [m * math.log(2.0) for m in scales]
    logy = [math.log(c) for c in counts]
    slope, r2 = loglog_fit(logx, logy)
    return BoxDimEstimate(float(min(1.0, max(0.0, slope))), r2, scales, counts)


def scale_matched_dyadic_counts(alpha: float, m_lo: int, m_hi: int) -> BoxDimEstimate:
    """Box counts where the scale is matched to the family level.

    At each scale m the counted set is the level-m family itself, the
    finite-depth cover whose intersection over levels is the limsup set.
    """
    if not (4 <= m_lo < m_hi <= 20):
        raise ValueError("scale exponents must satisfy 4 <= m_lo < m_hi <= 20")
    if m_lo < smallest_admissible_level(alpha):
        raise ValueError(f"m_lo below the smallest admissible level for alpha={alpha}")
    scales = list(range(m_lo, m_hi + 1))
    counts = []
    for m in scales:
        fam = dyadic_family(DyadicFamilyParams(m, alpha))
        probe_exponent = min(24, m + 6)
        hits = _probe_hits(fam.contains, probe_exponent)
        counts.append(count_occupied_boxes(hits, m))
    logx = [m * math.log(2.0) for m in scales]
    logy = [math.log(c) for c in counts]
    slope, r2 = loglog_fit(logx, logy)
    return BoxDimEstimate(float(min(1.0, max(0.0, slope))), r2, scales, counts)


def middle_thirds_cantor(depth: int):
    """Membership oracle for the depth-n construction stage of the Cantor set.

    Keeps x whose first `depth` ternary digits avoid 1, i.e. the union of
    2^depth intervals of length 3^-depth.
    """
    if depth < 1:
        raise ValueError("depth must be positive")

    def oracle(x):
        y = np.mod(np.asarray(x, dtype=float), 1.0)
        keep = np.ones(y.shape, dtype=bool)
        for _ in range(depth):
            y = y * 3.0
            low = y < 1.0
            high = y >= 2.0
            keep &= low | high
            y = np.where(high, y - 2.0, y)
        return keep

    return oracle
