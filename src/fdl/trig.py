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
from dataclasses import dataclass

import numpy as np

from .util import grid_for_degree, is_pow2

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
    def basis(cls, k: int, c=1.0) -> "TrigPoly":
        return cls({int(k): complex(c)})

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
        return max(abs(k) for k in self._c)

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

    def conjugate(self) -> "TrigPoly":
        return TrigPoly({-k: v.conjugate() for k, v in self._c.items()})

    def derivative(self) -> "TrigPoly":
        return TrigPoly({k: 2j * math.pi * k * v for k, v in self._c.items() if k != 0})

    def truncate(self, n: int) -> "TrigPoly":
        """Partial sum: keep frequencies with |k| <= n."""
        if n < 0:
            raise ValueError("truncation order must be nonnegative")
        return TrigPoly({k: v for k, v in self._c.items() if abs(k) <= n})

    def restrict(self, window: SpectrumInterval) -> "TrigPoly":
        return TrigPoly({k: v for k, v in self._c.items() if window.contains(k)})

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

    def norm(self, p, M: int | None = None) -> float:
        """Grid L^p norm; exact for p in {1, 2, inf up to resolution}.

        With the default grid the p = 2 value is exact and p = inf is a
        dense-grid maximum.
        """
        p = validate_norm_exponent(p)
        if not self._c:
            return 0.0
        if M is None:
            M = grid_for_degree(self.degree)
        return lp_norm(self.sample(M).samples, p)

    def to_json_dict(self) -> dict:
        return {"coeffs": [[k, v.real, v.imag] for k, v in self.items()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPoly":
        """Inverse of to_json_dict; rejects anything but a list of [k, re, im] triples."""
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

    def to_poly(self) -> TrigPoly:
        """Interpolating polynomial; index i maps to frequency i or i - M."""
        spec = np.fft.fft(self._v) / self.M
        half = self.M // 2
        c = {}
        for i, v in enumerate(spec):
            if abs(v) > PRUNE_TOL:
                c[i if i <= half else i - self.M] = complex(v)
        return TrigPoly(c)

    def to_json_dict(self) -> dict:
        return {"M": self.M, "samples": [[v.real, v.imag] for v in self._v]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridSignal":
        v = np.array([complex(re, im) for re, im in data["samples"]], dtype=complex)
        if v.size != int(data["M"]):
            raise ValueError("sample count disagrees with declared grid size")
        return cls(v)


def dirichlet_eval(n: int, t) -> np.ndarray:
    """Closed-form kernel values sin(pi (2n+1) t) / sin(pi t)."""
    if n < 0:
        raise ValueError("dirichlet order must be nonnegative")
    ts = np.asarray(t, dtype=float)
    s = np.sin(np.pi * ts)
    near = np.abs(s) < _SIN_EPS
    safe = np.where(near, 1.0, s)
    vals = np.sin(np.pi * (2 * n + 1) * ts) / safe
    return np.where(near, float(2 * n + 1), vals)


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
    return float(np.mean(v**p) ** (1 / p))
