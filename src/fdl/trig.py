"""Sparse trigonometric polynomials on the unit circle and dyadic grid signals.

Frequencies are integers and the basis function at frequency k is
exp(2*pi*i*k*t) for t in [0, 1). A polynomial is a dict from frequency to
complex coefficient, pruned below PRUNE_TOL so sparsity is preserved under
arithmetic. Grids always carry a power-of-two number of points M: the FFT
round trip is then exact, and the uniform Riemann sum integrates every
polynomial of degree < M exactly, which is what makes the grid norms of
low-degree polynomials certificates rather than estimates.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .util import grid_for_degree, is_pow2, next_pow2

PRUNE_TOL = 1e-15
_SIN_EPS = 1e-12


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
        return all(self.contains(k) for k in poly.frequencies())

    def overlaps(self, other: "SpectrumInterval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)


class TrigPoly:
    """Trigonometric polynomial with sparse integer spectrum."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, v in dict(coeffs).items():
                v = complex(v)
                if abs(v) > PRUNE_TOL:
                    c[int(k)] = v
        self._c = c

    @classmethod
    def dirichlet(cls, n: int) -> "TrigPoly":
        """Kernel with unit coefficients on |k| <= n."""
        if n < 0:
            raise ValueError("dirichlet order must be nonnegative")
        return cls({k: 1.0 for k in range(-n, n + 1)})

    @property
    def degree(self) -> int:
        if not self._c:
            return 0
        return max(max(self._c), -min(self._c))

    def coeff(self, k: int) -> complex:
        return self._c.get(int(k), 0j)

    def items(self):
        return sorted(self._c.items())

    def frequencies(self):
        return sorted(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, TrigPoly) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"TrigPoly({len(self._c)} terms, degree {self.degree})"

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0j) + v
        return TrigPoly(c)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly({k: -v for k, v in self._c.items()})

    def __mul__(self, scalar) -> "TrigPoly":
        s = complex(scalar)
        return TrigPoly({k: s * v for k, v in self._c.items()})

    __rmul__ = __mul__

    def derivative(self) -> "TrigPoly":
        return TrigPoly({k: 2j * math.pi * k * v for k, v in self._c.items() if k != 0})

    def truncate(self, n: int) -> "TrigPoly":
        """Partial sum: keep frequencies with |k| <= n."""
        if n < 0:
            raise ValueError("truncation order must be nonnegative")
        return TrigPoly({k: v for k, v in self._c.items() if abs(k) <= n})

    def evaluate(self, t):
        """Pointwise values at t (scalar or array), chunked to bound memory."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not self._c:
            out = np.zeros(ts.shape, dtype=complex)
            return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out
        ks = np.array(self.frequencies(), dtype=float)
        cs = np.array([self._c[int(k)] for k in ks], dtype=complex)
        flat = ts.reshape(-1)
        out = np.empty(flat.size, dtype=complex)
        chunk = max(1, (1 << 22) // max(ks.size, 1))
        for i in range(0, flat.size, chunk):
            block = flat[i : i + chunk]
            out[i : i + chunk] = np.exp(2j * np.pi * np.outer(block, ks)) @ cs
        out = out.reshape(ts.shape)
        return out[()] if np.ndim(t) == 0 else out

    def evaluate_progression(self, t0: float, h: float, count: int) -> np.ndarray:
        """Values at t0 + i h for i = 0..count-1, by one chirp z-transform.

        Bluestein's identity k i = (k^2 + i^2 - (i-k)^2)/2 writes
        sum_k c_k e(k t0) e(k i h) as e(i^2 h/2) times the convolution of
        c_k e(k t0 + k^2 h/2), over the dense coefficients on [-d, d], with
        e(-m^2 h/2), m = i - k: three FFTs of length next_pow2(2d + 1 + count).
        Every phase is an exact integer k, k^2, m^2 or i^2 times t0 or h/2,
        reduced mod 1 by _phase before the exponential, so no phase carries
        the 2 pi k t rounding of evaluate (Rabiner, Schafer & Rader 1969;
        Bluestein 1970).
        """
        d = self.degree
        c = np.zeros(2 * d + 1, dtype=complex)
        for k, v in self._c.items():
            c[k + d] = v
        half = 0.5 * h
        k = np.arange(-d, d + 1, dtype=float)
        a = c * np.exp(2j * np.pi * (_phase(k, t0) + _phase(k * k, half)))
        m = np.arange(-d, count + d, dtype=float)
        chirp = np.exp(-2j * np.pi * _phase(m * m, half))
        L = next_pow2(2 * d + 1 + count)  # L >= 2d + count: the kept entries 2d..2d+count-1 do not wrap
        conv = np.fft.ifft(np.fft.fft(a, L) * np.fft.fft(chirp, L))[2 * d:2 * d + count]
        i = np.arange(count, dtype=float)
        return np.exp(2j * np.pi * _phase(i * i, half)) * conv

    def sample(self, M: int) -> "GridSignal":
        """Values on the dyadic grid {j/M}, exact via inverse FFT.

        Requires degree < M/2 so no frequency wraps onto another.
        """
        if not is_pow2(M):
            raise ValueError(f"grid size must be a power of two, got {M}")
        if self._c and 2 * self.degree >= M:
            raise AliasingError(f"grid {M} too coarse for degree {self.degree}")
        spec = np.zeros(M, dtype=complex)
        for k, v in self._c.items():
            spec[k % M] = v
        return GridSignal(np.fft.ifft(spec) * M)

    def norm(self, p) -> float:
        """L^p norm on the grid_for_degree grid: the p = 2 value is exact and
        p = inf is a dense-grid maximum."""
        p = validate_norm_exponent(p)
        if not self._c:
            return 0.0
        return lp_norm(self.sample(grid_for_degree(self.degree)).samples, p)

    def to_json_dict(self) -> dict:
        return {"coeffs": [[k, v.real, v.imag] for k, v in self.items()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPoly":
        """Inverse of to_json_dict; rejects anything but a list of [k, re, im] triples
        with finite re, im and distinct k, |k| <= 2^53 (evaluate casts k to float64)."""
        entries = data["coeffs"]
        if not isinstance(entries, list):
            raise ValueError(f"coeffs must be a list of [k, re, im] triples, got {entries!r}")
        coeffs = {}
        for entry in entries:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entry)
                    and isinstance(entry[0], numbers.Integral)):
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


class GridSignal:
    """Complex samples on the uniform grid {j/M : 0 <= j < M}, M a power of two."""

    __slots__ = ("_v",)

    def __init__(self, samples):
        v = np.asarray(samples, dtype=complex)
        if v.ndim != 1 or not is_pow2(v.size):
            raise ValueError("samples must be a 1-d array of power-of-two length")
        v = v.copy()
        v.flags.writeable = False
        self._v = v

    @property
    def M(self) -> int:
        return self._v.size

    @property
    def samples(self) -> np.ndarray:
        return self._v

    def points(self) -> np.ndarray:
        return np.arange(self.M) / self.M

    def to_json_dict(self) -> dict:
        return {"M": self.M, "samples": [[v.real, v.imag] for v in self._v]}


_PHASE_LIMIT = 1 << 27  # _phase is exact for integers n with |n| below this


def _phase(n: np.ndarray, x: float) -> np.ndarray:
    """n x mod 1 (up to one added integer) for integers |n| < 2^27, within a few ulp of 1.

    x splits into hi + lo with hi on 26 significant bits (Veltkamp), so n hi
    is exact and reduces mod 1 exactly; only the small n lo is rounded.
    """
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return np.mod(n * hi, 1.0) + n * (x - hi)


def dirichlet_eval(n, t) -> np.ndarray:
    """Closed-form kernel values sin(pi (2n+1) t) / sin(pi t); n is an order or an array of them."""
    if np.min(n) < 0:
        raise ValueError("dirichlet order must be nonnegative")
    ts = np.asarray(t, dtype=float)
    s = np.sin(np.pi * ts)
    near = np.abs(s) < _SIN_EPS
    safe = np.where(near, 1.0, s)
    vals = np.sin(np.pi * (2 * n + 1) * ts) / safe
    return np.where(near, 2 * n + 1.0, vals)


def fejer_mean(f: TrigPoly, n: int) -> TrigPoly:
    """Average of the first n partial sums: weight (1 - |k|/n) clipped at zero."""
    if n < 1:
        raise ValueError("fejer order must be positive")
    return TrigPoly({k: v * (1 - abs(k) / n) for k, v in f.items() if abs(k) < n})


def modulate(f: TrigPoly, m: int) -> TrigPoly:
    """Multiply by the basis function at frequency m (spectrum shift by m)."""
    return TrigPoly({k + int(m): v for k, v in f.items()})


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
