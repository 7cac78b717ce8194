"""Explicit constructions: plateau bumps, modulated saturating polynomials,
disjoint-spectrum families, the pole-comb kernel, the log-rate saturator
built from the kernel's closed-form log series, and the two-scale residual
witness.

Everything here is deterministic. Wherever a closed form exists for the
Fourier coefficients it is used directly, so the returned polynomials are
exact sparse objects. The certificates bound each polynomial rigorously
from one tooth of its decimation (tooth_bounds) rather than read a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import CombParams, DyadicFamilyParams, smallest_admissible_level
from .trig import PRUNE_TOL, SpectrumInterval, TrigPoly, fejer_mean, lp_norm, modulate, validate_norm_exponent
from .util import is_pow2, next_pow2


def chi_coefficients(params: DyadicFamilyParams) -> TrigPoly:
    """Exact Fourier coefficients of the plateau bump below frequency 2^j.

    The bump is the sum over centers K/2^J of a trapezoid with plateau
    radius 2^-j and support radius 2^(1-j); it equals the convolution of
    two box indicators scaled by 2^j, so its transform is a product of two
    sinc factors supported on multiples of 2^J.
    """
    j, J = params.j, params.J
    qmax = ((1 << j) - 1) >> J
    q = np.arange(-qmax, qmax + 1)
    u = q * 2.0 ** (J - j)
    vals = 3.0 * 2.0 ** (J - j) * np.sinc(3.0 * u) * np.sinc(u)
    return TrigPoly.from_arrays(q << J, vals)


def saturator_scale(params: DyadicFamilyParams, p) -> float:
    p = validate_norm_exponent(p)
    if math.isinf(p):
        return 1.0
    return 2.0 ** (-(params.J - params.j + 2) / p)


def saturator_pj(params: DyadicFamilyParams, p) -> TrigPoly:
    """Modulated Fejer-smoothed bump, normalized to unit p-norm scale.

    Fejer smoothing at order 2^j keeps only bump frequencies below 2^j;
    modulating by 2^j then puts the spectrum inside (0, 2^(j+1) - 1], and
    the scale factor 2^(-(J-j+2)/p) caps the p-norm at 1 while the modulus
    stays above the quarter of the scale on the target intervals. The
    spectrum reaches 2^(j+1) - 1, so j is at most 52, where every phase is exact.
    """
    if params.j > 52:
        raise ValueError(f"level j={params.j} puts the spectrum above 2^53, where no phase is exact")
    n = 1 << params.j
    chi = chi_coefficients(params)
    return modulate(fejer_mean(saturator_scale(params, p) * chi, n), n)


ROUNDING_SLACK = 1e-9  # times sum |c|: added to every sup bound and taken off every minimum bound


@dataclass(frozen=True)
class ToothBounds:
    """Bounds of |P| for P(x) = e(a x) Q(g x), read from the decimated Q.

    sup is at least max |P| over the circle and minimum at most min |P| over
    the target set (None when tooth_bounds got no half-width); modulus holds
    |Q(j/K)| for j < K, points is the number of tooth samples and l2 the
    exact L^2 norm sqrt(sum |c|^2).
    """

    sup: float
    minimum: float | None
    modulus: np.ndarray
    points: int
    l2: float

    @property
    def grid(self) -> int:
        """K, the size of the grid the sup bound sampled."""
        return self.modulus.size

    def norm(self, p) -> float:
        """The L^p norm of P: the sup bound at p = inf, exact at p = 2, the K-grid mean otherwise."""
        p = validate_norm_exponent(p)
        if math.isinf(p):
            return self.sup
        if p == 2:
            return self.l2
        return lp_norm(self.modulus, p)


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows as a bound that is not finite
def tooth_bounds(poly: TrigPoly, g: int, half_width: float | None = None) -> ToothBounds:
    """Certified sup and tooth minimum of |P| when every frequency difference is a multiple of g.

    Decimation: with q = (k - k_0)/g centred on the middle of its span, P(x)
    = e(a x) Q(g x), so |P| over the circle is |Q| over the circle, and a
    target set that repeats every 1/g and is the interval |x| <= half_width/g
    around 0 is the single tooth |y| <= half_width of Q (ValueError when
    some difference is not a multiple of g).

    Sup: |Q|^2 is a real trigonometric polynomial of degree span = q_max -
    q_min, so on K = 16 next_pow2(2 span) points max |Q| <= max_K |Q| /
    sqrt(cos(pi span/K)) (Ehlich and Zeller 1964).

    Minimum: the tooth is sampled at its K - 2s - 1 points y_i = -half_width
    + i h, endpoints included (the most whose chirp-z transform still has
    length K), where s = deg Q = ceil(span/2). By Bernstein's inequality
    |Q'| <= 2 pi s sup, so every point of the tooth, at most h/2 from a
    sample, has |Q| >= min_i |Q(y_i)| - pi s h sup.

    Both bounds carry ROUNDING_SLACK times sum |c| for the float64 rounding
    of the transforms. Coefficients so large that a transform overflows
    raise ValueError, as a bound that is not finite certifies nothing.
    """
    if g < 1:
        raise ValueError(f"decimation factor must be a positive integer, got {g}")
    base = int(poly.k[0]) if len(poly) else 0
    offsets = poly.k - base
    if np.any(offsets % g):
        raise ValueError(f"spectrum is not one residue class mod {g}")
    span = int(offsets[-1]) // g if len(poly) else 0
    s = (span + 1) // 2
    Q = TrigPoly.from_arrays(offsets // g - span // 2, poly.c)
    K = 16 * next_pow2(2 * span)
    modulus = np.abs(Q.sample(K))
    slack = ROUNDING_SLACK * float(np.abs(poly.c).sum())
    sup = float(modulus.max()) / math.sqrt(math.cos(math.pi * span / K)) + slack
    l2 = poly.norm(2)
    minimum, points = None, 0
    if half_width is not None:
        points = K - 2 * s - 1
        h = 2.0 * half_width / (points - 1)
        samples = np.abs(Q.evaluate_progression(-half_width, h, points))
        minimum = float(samples.min()) - math.pi * s * h * sup - slack
    if not (math.isfinite(sup) and math.isfinite(minimum or 0.0)):
        raise ValueError(f"coefficients too large to bound in float64: sup {sup}, minimum {minimum}")
    return ToothBounds(sup, minimum, modulus, points, l2)


def saturator_certificate(poly: TrigPoly, params: DyadicFamilyParams, p) -> dict:
    """The p-norm and a lower bound of the modulus over the target intervals.

    The spectrum is 2^j + 2^J q and the centres are K/2^J, so tooth_bounds
    reads one interval |y| <= 2^(J-j) of the decimated polynomial.
    AssertionError when the norm exceeds 1 or the minimum misses its bound.
    """
    bounds = tooth_bounds(poly, params.center_count, 2.0 ** (params.J - params.j))
    required = 0.25 * saturator_scale(params, p)
    cert = {
        "norm": bounds.norm(p),
        "min_on_target_set": bounds.minimum,
        "bound_required": required,
        "margin": bounds.minimum - required,
    }
    if cert["norm"] > 1.0:
        raise AssertionError(f"saturator norm {cert['norm']} exceeds 1")
    if cert["margin"] < 0.0:
        raise AssertionError(f"target-set minimum misses the bound by {-cert['margin']}")
    return cert


@dataclass(frozen=True)
class SaturatorFamily:
    """Family of s polynomials with pairwise disjoint block spectra."""

    s: int
    alpha: float
    p: float
    jmax: int
    j_min: int
    members: tuple
    blocks: dict
    tail_norm_bound: float
    freq_constant: int  # 2(2s + 1): every spectrum lies below freq_constant * 2^jmax

    def member(self, r: int) -> TrigPoly:
        if not (1 <= r <= self.s):
            raise ValueError("member index out of range")
        return self.members[r - 1]


def disjoint_family(s: int, alpha: float, p, jmax: int) -> SaturatorFamily:
    """Builds the s saturating sums with spectra shifted onto disjoint blocks.

    Member r is the sum over levels j of (1/j^2) times the level-j saturator
    modulated to start at (s+r)*2^(j+1). Blocks from different members and
    levels never overlap, so partial-sum differences isolate single blocks
    exactly on coefficients: the level-j blocks of members 1..s tile
    [(s+1) 2^(j+1), (2s+1) 2^(j+1)) in order, which ends below (s+1) 2^(j+2),
    where level j+1 starts; within a member, a collision would also be a
    repeated frequency, which TrigPoly.from_arrays refuses. Every spectrum
    lies below 2(2s+1) 2^jmax, which must not pass 2^53, the largest
    frequency with an exact float64 phase.
    """
    if s < 1:
        raise ValueError("family size must be positive")
    j_min = smallest_admissible_level(alpha)
    if jmax < j_min:
        raise ValueError(f"jmax must be at least {j_min} for alpha={alpha}")
    freq_constant = 2 * (2 * s + 1)
    if jmax > 53 or freq_constant << jmax > 1 << 53:
        raise ValueError(f"top frequency 2(2s+1) 2^jmax exceeds 2^53 at s={s}, jmax={jmax}")
    validate_norm_exponent(p)

    saturators = {j: saturator_pj(DyadicFamilyParams(j, alpha), p) for j in range(j_min, jmax + 1)}
    blocks = {(j, r): SpectrumInterval((s + r) << (j + 1), ((s + r + 1) << (j + 1)) - 1)
              for r in range(1, s + 1) for j in saturators}
    # the block spectra are disjoint, so a member is the concatenation of its blocks
    parts = [[(1.0 / (j * j)) * modulate(saturators[j], blocks[(j, r)].lo) for j in saturators]
             for r in range(1, s + 1)]
    members = [TrigPoly.from_arrays(np.concatenate([b.k for b in row]), np.concatenate([b.c for b in row]))
               for row in parts]

    tail = 1.0 / jmax
    return SaturatorFamily(
        s=s,
        alpha=float(alpha),
        p=float(p),
        jmax=jmax,
        j_min=j_min,
        members=tuple(members),
        blocks=blocks,
        tail_norm_bound=tail,
        freq_constant=freq_constant,
    )


def holo_kernel(params: CombParams, z):
    """Mean of the k pole terms of the comb; holomorphic on the closed disk, f(0) = 1.

    The poles sit at 1 + eps above the k-th roots of unity, so the mean is a
    roots-of-unity filter of the geometric series in a = z/(1+eps) and
    sums in closed form to 1/(1 - a^k).
    """
    a = np.asarray(z, dtype=complex) / (1.0 + params.eps)
    return 1.0 / (1.0 - a ** params.k)


def holo_boundary(params: CombParams, M: int) -> np.ndarray:
    """Kernel values at exp(2 pi i j/M) for j < M, M a power of two."""
    if not is_pow2(M):
        raise ValueError("grid size must be a power of two")
    return holo_kernel(params, np.exp(2j * np.pi * np.arange(M) / M))


def eps_floor(n: int) -> float:
    """Smallest admissible divergence rate at degree n: loglog(n)/(4 pi log n)."""
    if n < 3:
        raise ValueError("degree must be at least 3")
    return math.log(math.log(n)) / (4.0 * math.pi * math.log(n))


@dataclass(frozen=True)
class LogSaturator:
    """Degree-n polynomial whose partial sum is large on its comb set."""

    n: int
    eps_n: float
    floored: bool
    comb: CombParams  # the teeth the partial sum saturates on, and the kernel's poles
    grid_M: int  # K, the grid its sup bound sampled
    poly: TrigPoly
    sup_norm: float  # upper bound of max |poly| over the circle, at most 1

    @property
    def target_level(self) -> float:
        """The certified partial-sum level eps_n * log n."""
        return self.eps_n * math.log(self.n)


def log_saturator(n: int, eps_n: float | None = None) -> LogSaturator:
    """Builds the saturator with rate eps_n (floored at the admissible rate).

    The sharpness omega and tooth count k of its comb are derived from the
    rate; the polynomial is (2/pi) e_n sigma_n(Im g) with g = -log(1 - a^k)
    the boundary logarithm of the comb kernel. Its series sum_m q^m z^(km) / m,
    q = (1+eps)^-k, gives the Fejer-weighted coefficients in closed form,
    one conjugate pair per multiple mk below n: 1 <= m <= (n - 1) // k puts
    n - mk and n + mk in [1, 2n - 1]. Its spectrum is n mod k, so
    tooth_bounds certifies the sup norm here, once, from the polynomial
    decimated by k; a bound above 1 raises AssertionError.

    That branch is a certificate, but no input below n of about 2.6e6
    reaches it. In theta = 2 pi k x, |poly| is (2/pi) times the mean of
    h = -arg(1 - q e^(i theta)) against the kernel with coefficients
    (1 - |m| k/n) for |m| k < n. That kernel is nonnegative with mean 1
    (the triangle (1 - |t| k/n)_+ is positive definite), and |h| <= asin q,
    so |poly| <= (2/pi) asin q. Bernoulli gives q <= omega/(1 + omega).
    tooth_bounds samples at least 32 points per unit of span, so its
    Ehlich-Zeller factor is at most 1/sqrt(cos(pi/32)), about 1.0024. The
    certified sup then stays below 1, up to a slack of about 1e-8, whenever
    omega is below about 1.4e5. k >= 3 forces omega <= n/(6 pi), so this
    covers every admitted rate below n of about 2.6e6, where the tooth grid
    alone holds 2^26 complex values. At n = 2^16 and the largest admitted
    rate (k = 3, omega about 3477) the certified sup is 0.98462, against
    (2/pi) asin q = 0.98473.
    """
    floor = eps_floor(n)
    floored = eps_n is None or eps_n < floor
    eps = floor if floored else float(eps_n)
    log_omega = 4.0 * math.pi * math.log(n) * eps
    # omega above e^709 gives k = 0, which is refused below; exp would overflow on the way
    omega = math.exp(log_omega) if log_omega < 709.0 else math.inf
    k = int(n / (2.0 * math.pi * omega))
    if k < 3:
        raise ValueError(f"rate too aggressive at degree {n}: tooth count {k} < 3")
    comb = CombParams(k, omega)

    q = (1.0 + comb.eps) ** -k
    m = np.arange(1, (n - 1) // k + 1)
    # float_power rounds as libm pow, as q ** m on floats does; numpy's power differs in the last ulp
    c = (2.0 / math.pi) * (1.0 - m * k / n) * np.float_power(q, m) / m
    coeffs = np.zeros(2 * m.size, dtype=complex)
    coeffs.imag = np.concatenate((c / 2.0, -c / 2.0))
    poly = TrigPoly.from_arrays(np.concatenate((n - m * k, n + m * k)), coeffs)

    bounds = tooth_bounds(poly, k)
    if bounds.sup > 1.0:
        raise AssertionError(f"sup norm certificate failed: {bounds.sup}")
    return LogSaturator(
        n=n,
        eps_n=eps,
        floored=floored,
        comb=comb,
        grid_M=bounds.grid,
        poly=poly,
        sup_norm=bounds.sup,
    )


def logsat_certificate(sat: LogSaturator) -> dict:
    """The saturator's sup bound and a lower bound of its degree-n partial sum on the comb.

    The partial sum's spectrum is n mod k, and in y = k x every tooth i/k is
    the interval |y| <= sat.comb.tooth. AssertionError when the minimum
    misses the rate.
    """
    partial = tooth_bounds(sat.poly.truncate(sat.n), sat.comb.k, sat.comb.tooth)
    target = sat.target_level
    cert = {
        "n": sat.n,
        "eps_n": sat.eps_n,
        "omega": sat.comb.omega,
        "k": sat.comb.k,
        "floored": sat.floored,
        "sup_norm": sat.sup_norm,
        "min_partial_on_comb": partial.minimum,
        "target_level": target,
        "margin": partial.minimum - target,
        "points_per_tooth": partial.points,
    }
    if cert["margin"] < 0.0:
        raise AssertionError(f"comb minimum misses the rate by {-cert['margin']}")
    return cert


def residual_witness(g: TrigPoly, eta_j: float, sat: LogSaturator) -> TrigPoly:
    """Adds the saturator, of degree j = sat.n, scaled by eta_j / sat.eps_n and
    modulated by j, on top of a low-degree function.

    The input spectrum must fit inside [-j, j] and the added block lives in
    [j+1, 3j-1]. The difference S_2j - S_j recovers the modulated degree-j
    partial sum of the saturator, so its modulus on the comb set is at least
    eta_j * log j whenever the saturator certificate holds. The full block
    itself can vanish on the comb; only the two-scale difference saturates.
    """
    j = sat.n
    if g.degree > j:
        raise ValueError("base function degree exceeds the block level")
    scale = eta_j / sat.eps_n
    if not 0 < scale < math.inf:
        raise ValueError(f"target rate eta_j must be positive, with eta_j / eps_n finite; got {eta_j}")
    block = scale * modulate(sat.poly, j)
    if not len(block):  # the difference S_2j - S_j would be zero and miss the rate by eta_j log j
        raise ValueError(f"target rate eta_j = {eta_j} scales every saturator coefficient to at most "
                         f"the prune tolerance {PRUNE_TOL}, which drops the whole block")
    return g + block


def witness_certificate(witness: TrigPoly, eta_j: float, sat: LogSaturator) -> dict:
    """A lower bound of the two-scale difference S_2j - S_j on the comb against eta_j log j, j = sat.n.

    The difference is the saturator's partial sum modulated by j, with
    spectrum 2j mod k, so it reads the comb tooth as logsat_certificate
    does. AssertionError when the minimum misses that target.
    """
    j = sat.n
    diff = tooth_bounds(witness.truncate(2 * j) - witness.truncate(j), sat.comb.k, sat.comb.tooth)
    target = eta_j * math.log(j)
    cert = {
        "level": j,
        "eta": eta_j,
        "eps": sat.eps_n,
        "detector_scales": [j, 2 * j],
        "min_difference_on_comb": diff.minimum,
        "target_level": target,
        "margin": diff.minimum - target,
        "points_per_tooth": diff.points,
    }
    if cert["margin"] < 0.0:
        raise AssertionError(f"two-scale difference misses the rate by {-cert['margin']}")
    return cert
