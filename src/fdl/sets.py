"""Geometry of the exceptional sets: dyadic interval families, comb sets,
and box-counting dimension.

Points live on the circle [0, 1). Dyadic families at level j consist of the
2^J intervals of radius 2^-j around the centers K/2^J, where J is derived
from the approximation exponent alpha. Box counting works on dyadic grids
anchored at 0 with a one-box circular dilation, which trades a constant
factor in the counts for stability of the fitted slope. box_dimension
probes a membership oracle at box centers; a GridOracle, a set marked on a
uniform grid, answers those probes from its mask without evaluating them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def smallest_admissible_level(alpha: float) -> int:
    """Least j >= 3 with floor(j/alpha) + 1 <= j - 2.

    The test is monotone in j, so doubling and then bisecting finds that j
    in O(log j) steps; near alpha = 1 it lies near 2/(alpha - 1).
    """
    if not (alpha > 1):
        raise ValueError("exponent alpha must exceed 1")

    def admissible(j):
        return math.floor(j / alpha) + 1 <= j - 2

    lo, hi = 2, 3  # lo is not admissible
    while not admissible(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if admissible(mid) else (mid, hi)
    return hi


def _center_distance(x, n: int) -> np.ndarray:
    """Distance on the circle from x to the nearest of the n centers i/n."""
    frac = np.mod(np.asarray(x, dtype=float) * n, 1.0)
    return np.minimum(frac, 1.0 - frac) / n


@dataclass(frozen=True)
class DyadicFamily:
    """Concrete interval family with a vectorized membership test."""

    params: DyadicFamilyParams

    def contains(self, x):
        """Membership in the union of the radius 2^-j intervals around K/2^J."""
        return _center_distance(x, 1 << self.params.J) <= 2.0 ** (-self.params.j) + 1e-18


@dataclass(frozen=True)
class CombParams:
    """The (k, omega) comb: k teeth of half-width 1/(2 omega k) centred at the
    points i/k, and the k poles 1 + eps, eps = 1/(omega k), of the comb
    kernel above them.

    Valid for k >= 3 and omega >= log k (so omega > 1 and the teeth are
    disjoint) while 1 + eps stays off the unit circle in float64.
    """

    k: int
    omega: float

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("comb needs at least 3 teeth")
        if not self.omega >= math.log(self.k):  # NaN too
            raise ValueError("sharpness omega must be at least log k")
        if 1.0 + self.eps == 1.0:
            raise ValueError(f"sharpness omega {self.omega} puts the poles 1 + 1/(omega k) on the unit circle")

    @staticmethod
    def default_omega(k: int) -> float:
        """The sharpness max(log k, 3) used when none is given."""
        return max(math.log(k), 3.0)

    @property
    def eps(self) -> float:
        return 1.0 / (self.omega * self.k)

    @property
    def half_width(self) -> float:
        return 1.0 / (2.0 * self.omega * self.k)

    @property
    def tooth(self) -> float:
        """The tooth half-width in y = k x, where every tooth is |y - i| <= 1/(2 omega)."""
        return 0.5 / self.omega


def comb_membership(params: CombParams, x):
    """True where dist(x, nearest tooth center i/k) <= half-width."""
    return _center_distance(x, params.k) <= params.half_width + 1e-18


@dataclass(frozen=True)
class BoxDimEstimate:
    slope: float
    r2: float
    scales: list[int] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)


class GridOracle:
    """Membership in a set marked on the uniform grid j/G: x reads its nearest
    grid point, mask[rint(frac(x) G) mod G], with frac(x) = x - floor(x),
    which is exact; a point that is not finite raises ValueError."""

    def __init__(self, mask: np.ndarray):
        self.mask = mask

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            raise ValueError("points must be finite")
        idx = np.mod(np.rint((x - np.floor(x)) * self.mask.size).astype(int), self.mask.size)
        return self.mask[idx]


def _mask_hits(mask: np.ndarray, n: int, m: int) -> np.ndarray:
    """_probe_hits of a GridOracle with 2^m boxes and n > G = mask.size probes.

    Probe i reads index ((2i + 1) G + n) // 2n, never a rounding tie, and
    consecutive probes step by less than one grid point. So the probes of a
    box read every index from its first probe's to its last probe's (index
    G is index 0), and one prefix sum over the mask tells whether any of
    them is marked.
    """
    G = mask.size
    q = n >> m
    # exact in int64 while G < 2^31
    starts = np.arange(0, n, q, dtype=np.int64)
    first = ((2 * starts + 1) * G + n) // (2 * n)
    last = ((2 * (starts + q) - 1) * G + n) // (2 * n)
    marked = np.concatenate(([0], np.cumsum(np.append(mask, mask[0]))))
    return marked[last + 1] > marked[first]


def _probe_hits(oracle, probe_exponent: int, m: int) -> np.ndarray:
    """Occupancy of the 2^m boxes [b, b + 1)/2^m by the oracle's hits among
    the 2^probe_exponent box-center probes (i + 1/2)/2^probe_exponent.

    A GridOracle with fewer grid points than probes answers from its mask;
    any other oracle is evaluated in chunks, each collapsed into its boxes.
    """
    n = 1 << probe_exponent
    if isinstance(oracle, GridOracle) and oracle.mask.size < n:
        return _mask_hits(oracle.mask, n, m)
    q = n >> m
    occ = np.empty(1 << m, dtype=bool)
    chunk = max(1 << 20, q)
    for i in range(0, n, chunk):
        xs = (np.arange(i, min(i + chunk, n), dtype=float) + 0.5) / n
        out = np.asarray(oracle(xs), dtype=bool)
        if out.shape != xs.shape:
            raise ValueError(f"oracle returned shape {out.shape} for probes of shape {xs.shape}")
        occ[i // q : (i + xs.size) // q] = out.reshape(-1, q).any(axis=1)
    return occ


def _dilated_counts(hits: np.ndarray, m_lo: int, m_hi: int) -> list[int]:
    """Occupied dyadic boxes of size 2^-m, with circular one-box dilation, for m = m_lo..m_hi.

    hits holds 2^P >= 2^m_hi equal cells of the circle; a box is occupied
    when any of its 2^(P - m) cells is. Any other size is a ValueError.
    From the occupancy of the hits' 2^P boxes, each coarser occupancy ORs
    pairs of adjacent boxes of the finer; OR is associative, so every scale
    reads the same boxes as a direct grouping of the hits. At scales m_hi
    down to m_lo the occupancy is dilated by one box either way, circularly,
    into one buffer, and counted.
    """
    P = max(hits.size.bit_length() - 1, 0)
    if hits.size != 1 << P or P < m_hi:
        raise ValueError(f"box counts at scale {m_hi} need 2^P hits with P >= {m_hi}, got {hits.size}")
    occ, buf, counts = hits, np.empty(1 << m_hi, dtype=bool), []
    for m in range(P, m_lo - 1, -1):
        if m <= m_hi:
            out = buf[: occ.size]
            np.bitwise_or(occ[:-1], occ[1:], out=out[:-1])
            out[-1] = occ[-1] | occ[0]
            out[1:] |= occ[:-1]
            out[0] |= occ[-1]
            counts.append(int(np.count_nonzero(out)))
        if m > m_lo:
            occ = occ[0::2] | occ[1::2]
    return counts[::-1]


def _box_scales(m_lo: int, m_hi: int) -> list[int]:
    if not (4 <= m_lo < m_hi <= 20):
        raise ValueError("scale exponents must satisfy 4 <= m_lo < m_hi <= 20")
    return list(range(m_lo, m_hi + 1))


def _box_fit(scales: list[int], counts: list[int]) -> BoxDimEstimate:
    """Log-log slope of the counts against the scales, clamped to [0, 1]; no boxes fit slope 0."""
    if counts[0] == 0:
        return BoxDimEstimate(0.0, 1.0, scales, counts)
    logx = [m * math.log(2.0) for m in scales]
    logy = [math.log(c) for c in counts]
    slope, r2 = loglog_fit(logx, logy)
    return BoxDimEstimate(float(min(1.0, max(0.0, slope))), r2, scales, counts)


def _probe_exponent(m_hi: int, grid: int = 0) -> int:
    """box_dimension probes 2^P box centers, P = min(24, max(m_hi + 6, 18)),
    raised on a grid of G points to the least P with 2^P > G.

    With 2^P <= G the probes would round ties (2^P = G) or skip grid
    points (2^P < G); with 2^P > G every grid point is read.
    """
    return max(min(24, max(m_hi + 6, 18)), grid.bit_length())


def box_dimension(oracle, m_lo: int, m_hi: int) -> BoxDimEstimate:
    """Log-log slope of dilated box counts against scale.

    The oracle is probed once at 2^_probe_exponent(m_hi) box centers, or
    2^_probe_exponent(m_hi, G) for a GridOracle of G points, which answers
    from its mask. The counts at each scale come from that one finest
    occupancy, each coarser one the pairwise OR of the one below, so they
    are monotone under set inclusion by construction.
    """
    scales = _box_scales(m_lo, m_hi)
    grid = oracle.mask.size if isinstance(oracle, GridOracle) else 0
    occ = _probe_hits(oracle, _probe_exponent(m_hi, grid), m_hi)
    return _box_fit(scales, _dilated_counts(occ, m_lo, m_hi))


def scale_matched_dyadic_counts(alpha: float, m_lo: int, m_hi: int) -> BoxDimEstimate:
    """Box counts where the scale is matched to the family level.

    At each scale m the counted set is the level-m family itself, the
    finite-depth cover whose intersection over levels is the limsup set.
    Its dilated count is 4 * 2^J in closed form: each centre K/2^J is a
    multiple of 2^-m whose radius-2^-m interval meets the two boxes beside
    it, dilation adds one box on either side, and J <= m - 2 keeps the
    centres at least 4 boxes apart.
    """
    scales = _box_scales(m_lo, m_hi)
    if m_lo < smallest_admissible_level(alpha):
        raise ValueError(f"m_lo below the smallest admissible level for alpha={alpha}")
    return _box_fit(scales, [4 * DyadicFamilyParams(m, alpha).center_count for m in scales])


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
