"""Sparse trigonometric polynomials on the unit circle and their grid samples.

Frequencies are integers and the basis function at frequency k is
exp(2*pi*i*k*t) for t in [0, 1). A polynomial holds two arrays, its
frequencies in increasing order and their coefficients, pruned below
PRUNE_TOL so sparsity is preserved under arithmetic; the arithmetic rounds
exactly as Python's complex arithmetic on each coefficient. Samples are plain
arrays over grids j/M with M a power of two: the FFT round trip is then exact,
and the uniform Riemann sum integrates every polynomial of degree < M
exactly, which is what makes the grid norms of low-degree polynomials
certificates rather than estimates. There is one kernel per job: grid_sums
on a grid j/M + shift (TrigPoly.sample is its one-cut case), point_sums
off it, where each phase k x is reduced mod 1 from the exact integer k and
its cosine and sine come from one vectorised tangent of half the angle.
"""
from __future__ import annotations

import math
import numbers
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .util import grid_for_degree, is_pow2, next_pow2

PRUNE_TOL = 1e-15
_SIN_EPS = 1e-12
_JSON_REALS = (int, float)  # the number types json.loads makes


class AliasingError(ValueError):
    """Raised when a grid is too coarse to represent a polynomial faithfully."""


def validate_norm_exponent(p) -> float:
    """Check p >= 1 (math.inf allowed) and return it as a float."""
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return p


@dataclass(frozen=True)
class SpectrumInterval:
    """Half-open frequency window (lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError("empty spectrum interval must still have hi >= lo")

    def contains(self, k: int) -> bool:
        return self.lo < k <= self.hi

    def contains_spectrum(self, poly: "TrigPoly") -> bool:
        return not len(poly) or bool(self.contains(poly.k[0]) and self.contains(poly.k[-1]))

    def overlaps(self, other: "SpectrumInterval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)


class TrigPoly:
    """Trigonometric polynomial with sparse integer spectrum.

    k holds the frequencies (int64, strictly increasing) and c their
    coefficients (complex128, each above PRUNE_TOL in modulus); both arrays
    are read-only.
    """

    __slots__ = ("k", "c")

    def __init__(self, coeffs=None):
        """From a mapping frequency -> coefficient."""
        c = {int(k): complex(v) for k, v in dict(coeffs or {}).items()}
        self._store(np.fromiter(c, dtype=np.int64, count=len(c)),
                    np.fromiter(c.values(), dtype=complex, count=len(c)))

    @classmethod
    def from_arrays(cls, k, c) -> "TrigPoly":
        """From distinct integer frequencies k and their coefficients c, in any order."""
        poly = cls.__new__(cls)
        poly._store(np.asarray(k, dtype=np.int64), np.asarray(c, dtype=complex))
        return poly

    def _store(self, k: np.ndarray, c: np.ndarray) -> None:
        order = np.argsort(k, kind="stable")
        keep = np.abs(c[order]) > PRUNE_TOL
        k, c = k[order][keep], c[order][keep]
        if np.any(k[1:] == k[:-1]):
            raise ValueError("frequencies must be distinct")
        k.flags.writeable = c.flags.writeable = False
        self.k, self.c = k, c

    @classmethod
    def dirichlet(cls, n: int) -> "TrigPoly":
        """Kernel with unit coefficients on |k| <= n."""
        if n < 0:
            raise ValueError("dirichlet order must be nonnegative")
        return cls.from_arrays(np.arange(-n, n + 1), np.ones(2 * n + 1))

    @property
    def degree(self) -> int:
        return int(max(self.k[-1], -self.k[0])) if self.k.size else 0

    def coeff(self, k: int) -> complex:
        i = int(np.searchsorted(self.k, k))
        return complex(self.c[i]) if i < self.k.size and self.k[i] == k else 0j

    def items(self):
        return list(zip(self.k.tolist(), self.c.tolist()))

    def __len__(self) -> int:
        return self.k.size

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrigPoly) and np.array_equal(self.k, other.k)
                and np.array_equal(self.c, other.c))

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"TrigPoly({len(self)} terms, degree {self.degree})"

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        k = np.concatenate((self.k, other.k))
        k = k[np.argsort(k, kind="stable")]
        first = np.ones(k.size, dtype=bool)
        first[1:] = k[1:] != k[:-1]
        k = k[first]
        c = np.zeros(k.size, dtype=complex)
        c[np.searchsorted(k, self.k)] = self.c
        c[np.searchsorted(k, other.k)] += other.c  # 0j + v where only other has k
        return TrigPoly.from_arrays(k, c)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly.from_arrays(self.k, -self.c)

    def __mul__(self, scalar) -> "TrigPoly":
        return TrigPoly.from_arrays(self.k, _cmul(complex(scalar), self.c))

    __rmul__ = __mul__

    def derivative(self) -> "TrigPoly":
        nonzero = self.k != 0
        k = self.k[nonzero]
        return TrigPoly.from_arrays(k, _cmul(_cmul(2j * math.pi, k), self.c[nonzero]))

    def truncate(self, n: int) -> "TrigPoly":
        """Partial sum: keep frequencies with |k| <= n."""
        if n < 0:
            raise ValueError("truncation order must be nonnegative")
        keep = np.abs(self.k) <= n
        return TrigPoly.from_arrays(self.k[keep], self.c[keep])

    def evaluate(self, t):
        """Pointwise values at t, in t's shape (a scalar for scalar t), by point_sums with one cut."""
        return point_sums(self.k, self.c, [self.k.size], t).reshape(np.shape(t))[()]

    def evaluate_progression(self, t0: float, h: float, count: int) -> np.ndarray:
        """Values at t0 + i h for i = 0..count-1, by one chirp z-transform.

        Bluestein's identity k i = (k^2 + i^2 - (i-k)^2)/2 writes
        sum_k c_k e(k t0) e(k i h) as e(i^2 h/2) times the convolution of
        c_k e(k t0 + k^2 h/2), over the dense coefficients on [-d, d], with
        e(-m^2 h/2), m = i - k: three FFTs of length next_pow2(2d + 1 + count).
        Every phase is an exact integer k, k^2, m^2 or i^2 times t0 or h/2,
        reduced mod 1 by _phase before the exponential, so no phase carries
        a 2 pi k t rounding (Rabiner, Schafer & Rader 1969;
        Bluestein 1970).
        """
        d = self.degree
        c = np.zeros(2 * d + 1, dtype=complex)
        c[self.k + d] = self.c
        half = 0.5 * h
        k = np.arange(-d, d + 1, dtype=float)
        a = c * np.exp(2j * np.pi * (_phase(k, t0) + _phase(k * k, half)))
        m = np.arange(-d, count + d, dtype=float)
        chirp = np.exp(-2j * np.pi * _phase(m * m, half))
        L = next_pow2(2 * d + 1 + count)  # L >= 2d + count: the kept entries 2d..2d+count-1 do not wrap
        conv = np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(chirp, L))[2 * d:2 * d + count]
        i = np.arange(count, dtype=float)
        return np.exp(2j * np.pi * _phase(i * i, half)) * conv

    def _check_grid(self, M: int) -> None:
        """Refuse a grid j/M that is not a power of two or on which two frequencies alias."""
        if not is_pow2(M):
            raise ValueError(f"grid size must be a power of two, got {M}")
        if 2 * self.degree >= M:
            raise AliasingError(f"grid {M} too coarse for degree {self.degree}")

    def sample(self, M: int) -> np.ndarray:
        """Values at j/M for j < M, exact via inverse FFT: grid_sums with one cut.

        M must be a power of two and degree < M/2, so no frequency wraps
        onto another.
        """
        self._check_grid(M)
        return grid_sums(self.k, self.c, [self.k.size], M)[0]

    @np.errstate(over="ignore")  # the squares may overflow; the rescaled norm does not
    def norm(self, p) -> float:
        """L^p norm: at p = 2 by Parseval, sqrt(sum |c|^2), with no sampling
        (rescaled by the largest modulus where the squares overflow); any
        other p on the grid_for_degree grid, where p = inf is a dense-grid
        maximum."""
        p = validate_norm_exponent(p)
        if p == 2:
            l2 = float(np.linalg.norm(self.c))
            if not math.isfinite(l2):
                top = float(np.abs(self.c).max())
                l2 = top * float(np.linalg.norm(self.c / top))
            return l2
        return lp_norm(self.sample(grid_for_degree(self.degree)), p)

    def to_json_dict(self) -> dict:
        return {"coeffs": [[k, v.real, v.imag] for k, v in self.items()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPoly":
        """Inverse of to_json_dict; rejects anything but a list of [k, re, im] triples
        with finite re, im and distinct k, |k| <= 2^53 (the most point_sums reduces exactly)."""
        entries = data["coeffs"]
        if not isinstance(entries, list):
            raise ValueError(f"coeffs must be a list of [k, re, im] triples, got {entries!r}")
        coeffs = {}
        for entry in entries:
            # json.loads' own int and float pass on their exact type; any other type takes the
            # numbers ABCs, which bool, a subclass of int, fails
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and ((type(entry[0]) is int and type(entry[1]) in _JSON_REALS
                          and type(entry[2]) in _JSON_REALS)
                         or (all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entry)
                             and isinstance(entry[0], numbers.Integral)))):
                raise ValueError(f"coefficient entry {entry!r} is not an [integer, number, number] triple")
            k, re, im = entry
            if abs(k) > 1 << 53:
                raise ValueError(f"coefficient entry {entry!r} has |k| above 2^53")
            if not (abs(re) <= sys.float_info.max and abs(im) <= sys.float_info.max):
                raise ValueError(f"coefficient entry {entry!r} is not finite")
            if int(k) in coeffs:
                raise ValueError(f"coefficient entry {entry!r} repeats frequency {k}")
            coeffs[int(k)] = complex(re, im)
        return cls(coeffs)


def _cmul(a, b) -> np.ndarray:
    """a * b elementwise by Python's complex product, each real product rounded.

    numpy's complex multiply may fuse a multiply-add, which moves last bits
    and signs of zero; polynomial arithmetic stays bit-identical to complex
    arithmetic in Python this way.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


_PHASE_LIMIT = 1 << 27  # below this, one split of x makes n x exact; up to 2^53, n splits too
_EXACT_LIMIT = 1 << 53
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's constant for float64
_LIMB = float(1 << 26)
_POINT_CHUNK = 1 << 17  # points x terms per block of point_sums: a criterion-08 panel is one block
_WORKSPACE = threading.local()  # each thread's point_sums block buffers, see _block_workspace


def _frac(v: np.ndarray, scratch=None) -> np.ndarray:
    """v minus its nearest integer in place, exact for every float64; scratch, if given, takes the integers."""
    v -= np.rint(v, out=scratch)
    return v


def _phase(n, x, out=None, scratch=(None, None)) -> np.ndarray:
    """n x mod 1 within a few ulp, for integers |n| <= 2^53 (larger n raise), as a float below 2 in modulus.

    n (integer or integer-valued float) and x broadcast against each other.
    An x outside [-1, 1] is first replaced by x minus its nearest integer,
    which is exact and leaves n x mod 1 unchanged (and _SPLIT x finite).
    x then splits into hi + lo, each on 26 significant bits (Veltkamp), so
    for |n| < 2^27 the product n hi is exact and rint reduces it exactly;
    only the small n lo is rounded. Larger n split as n1 2^26 + n0 with
    0 <= n0 < 2^26: n1 (2^26 hi), n1 (2^26 lo) and n0 hi are then exact
    products, each reduced exactly, and n0 lo is small. The terms are
    summed left to right into out, a float64 array of the broadcast shape,
    with the products and their integers in scratch, a pair of such arrays;
    numpy allocates whichever is not given.
    """
    top = np.abs(n).max(initial=0)
    if top > _EXACT_LIMIT:
        raise ValueError("frequencies above 2^53 have no exact float64 phase")
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    x = np.where(np.abs(x) > 1, x - np.rint(x), x)
    c = _SPLIT * x
    hi = c - (c - x)
    lo = x - hi
    integers, term = scratch
    if top < _PHASE_LIMIT:
        out = _frac(np.multiply(n, hi, out=out), integers)
        out += np.multiply(n, lo, out=term)
        return out
    n1 = np.floor(n / _LIMB)
    n0 = n - n1 * _LIMB
    out = _frac(np.multiply(n1, hi * _LIMB, out=out), integers)
    out += _frac(np.multiply(n1, lo * _LIMB, out=term), integers)
    out += _frac(np.multiply(n0, hi, out=term), integers)
    out += np.multiply(n0, lo, out=term)
    return out


def _turns(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(2 pi i theta) from t = tan(pi theta), overwriting the float64 array theta.

    cos 2 pi theta = (1 - t^2)/(1 + t^2) and sin 2 pi theta = 2t/(1 + t^2)
    are written straight into the real and imaginary parts of out, a
    complex array of theta's shape; theta holds
    the denominator once t is spent. tan has period pi, so any finite theta
    works, and at theta = +-1/2 the tangent of the rounded pi/2 is about
    1.6e16, whose square is still finite.
    """
    t = np.tan(np.multiply(theta, np.pi, out=theta), out=theta)
    re, im = out.real, out.imag
    np.multiply(t, 2, out=im)
    np.multiply(t, t, out=re)
    denominator = np.add(re, 1, out=t)
    np.subtract(1, re, out=re)
    re /= denominator
    im /= denominator
    return out


def _block_workspace(size: int) -> tuple[np.ndarray, np.ndarray]:
    """A float64 and a complex buffer of at least size entries for one point_sums block.

    Up to _POINT_CHUNK entries they are this thread's pair, allocated at
    that size on its first call and kept for the thread's life (3 MB), so a
    run of calls reuses pages the first one faulted in instead of asking the
    allocator for fresh ones each time; threading.local keeps concurrent
    calls apart. A larger block (two points of more than _POINT_CHUNK / 2
    terms) takes a pair of its own.
    """
    if size > _POINT_CHUNK:
        return np.empty(size), np.empty(size, dtype=complex)
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None:
        buffers = _WORKSPACE.buffers = (np.empty(_POINT_CHUNK), np.empty(_POINT_CHUNK, dtype=complex))
    return buffers


def point_sums(k: np.ndarray, c: np.ndarray, cuts, xs) -> np.ndarray:
    """sum_{j < cut} c_j e(k_j x) for every x in xs and every cut, shape (xs.size, len(cuts)).

    The off-grid kernel, for integer |k| <= 2^53, increasing cuts into k and
    finite xs (others raise). Each phase theta = k x is reduced mod 1 from
    the exact integer k (_phase), rather than rounded at the magnitude of
    2 pi k x. Per block of points, _turns fills one complex buffer with
    e(theta) by the half-angle forms of the single tangent tan(pi theta).
    numpy's float64 tan is vectorised and its cos and sin are not: on a
    2-core Xeon with numpy 2.4.6 the 124,416 phases of one criterion-08
    panel (256 points x 486 terms) take a median of 1.4-1.6 ms this way
    against 3.5-3.8 ms for cos and sin. The phases, their scratch products
    (in the complex buffer's memory, unused until _turns) and the turns all
    live in the thread's block workspace (_block_workspace). Each segment
    of k between consecutive cuts is then one matrix-vector product, and a
    cumulative sum over the segments gives the partial sums at the cuts.
    numpy takes the product of a one-row matrix by dot, which rounds
    otherwise, so a block holds at least two points (a last point alone is
    recomputed beside its neighbour) and a point's sums do not depend on
    the other points of the call, unless it is the only one.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if not np.isfinite(xs).all():
        raise ValueError("points must be finite")
    out = np.empty((xs.size, len(cuts)), dtype=complex)
    segments = list(zip([0, *cuts[:-1]], cuts))
    chunk = max(2, _POINT_CHUNK // max(k.size, 1))
    phases, turns = _block_workspace(min(xs.size, chunk) * k.size)
    for i in range(0, xs.size, chunk):
        i = max(0, min(i, xs.size - 2))  # a last point alone would be summed by dot, not gemv: pair it
        x = xs[i : i + chunk, None]
        shape, size = (x.size, k.size), x.size * k.size
        theta = phases[:size].reshape(shape)
        terms = turns[:size].reshape(shape)
        _phase(k, x, out=theta, scratch=terms.view(float).reshape(2, *shape))
        _turns(theta, out=terms)
        block = out[i : i + chunk]
        for col, (start, stop) in enumerate(segments):
            block[:, col] = terms[:, start:stop] @ c[start:stop]
        np.cumsum(block, axis=1, out=block)
    return out


def grid_sums(k: np.ndarray, c: np.ndarray, cuts, M: int, shift: float = 0.0) -> np.ndarray:
    """sum_{j < cut} c_j e(k_j (i/M + shift)) for each cut and i < M, shape (len(cuts), M).

    The grid kernel, for integer |k| <= 2^53 and increasing cuts into k: a
    grid point sees k only through k mod M and e(k shift), k shift reduced
    mod 1 by _phase. Row r starts as a copy of row r - 1 (row 0 as zeros)
    and folds the segment between cuts r - 1 and r into it, so each row is
    the spectrum of its cut with every bin's additions in term order. One
    inverse FFT along axis 1 then transforms all rows in place, and M times
    it is the sums: numpy transforms each row of a batch to the same bits
    as that row alone, and a batch of rows costs less per row than single
    transforms. The scaling is the default norm and a multiply by M, since
    norm="forward" rounds differently on grids that are not powers of two.
    """
    if shift:
        c = c * np.exp(2j * np.pi * _phase(k, shift))
    out = np.zeros((len(cuts), M), dtype=complex)
    bins = k % M
    start = 0
    for r, stop in enumerate(cuts):
        if r:
            out[r] = out[r - 1]
        np.add.at(out[r], bins[start:stop], c[start:stop])
        start = stop
    np.fft.ifft(out, axis=1, out=out)
    out *= M
    return out


def dirichlet_eval(n, t) -> np.ndarray:
    """Closed-form kernel values sin(pi (2n+1) t) / sin(pi t); n is an order or an array of them.

    The numerator's phase (2n+1) t/2 is reduced mod 1 from the exact odd
    integer (_phase), so its sine does not carry a rounding of the order's size.
    """
    if np.min(n, initial=0) < 0:
        raise ValueError("dirichlet order must be nonnegative")
    ts = np.asarray(t, dtype=float)
    s = np.sin(np.pi * ts)
    near = np.abs(s) < _SIN_EPS
    safe = np.where(near, 1.0, s)
    vals = np.sin(2 * np.pi * _phase(2 * np.asarray(n) + 1, ts / 2)) / safe
    return np.where(near, 2 * n + 1.0, vals)


def fejer_mean(f: TrigPoly, n: int) -> TrigPoly:
    """Average of the first n partial sums: weight (1 - |k|/n) clipped at zero."""
    if n < 1:
        raise ValueError("fejer order must be positive")
    keep = np.abs(f.k) < n
    return TrigPoly.from_arrays(f.k[keep], _cmul(f.c[keep], 1 - np.abs(f.k[keep]) / n))


def modulate(f: TrigPoly, m: int) -> TrigPoly:
    """Multiply by the basis function at frequency m (spectrum shift by m)."""
    return TrigPoly.from_arrays(f.k + int(m), f.c)


def lp_norm(samples, p) -> float:
    """L^p norm of grid samples under the normalized counting measure."""
    p = validate_norm_exponent(p)
    v = np.abs(np.asarray(samples, dtype=complex))
    if v.size == 0:
        return 0.0
    if math.isinf(p):
        return float(v.max())
    if p == 1:
        return float(v.mean())
    if p == 2:
        return float(math.sqrt(np.mean(v * v)))
    m = v.max()  # scaling by the maximum keeps |v|^p in range for large p
    if m == 0:
        return 0.0
    return float(m * np.mean((v / m) ** p) ** (1 / p))
