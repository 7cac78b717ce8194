"""Fourier engine: coefficient algebra, sampling, kernels, norms, serialization."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdl.analysis import dyadic_schedule, partial_sums_at
from fdl.construct import (
    ROUNDING_SLACK,
    disjoint_family,
    holo_boundary,
    saturator_pj,
    tooth_bounds,
)
from fdl import trig
from fdl.sets import CombParams, DyadicFamilyParams
from fdl.trig import (
    PRUNE_TOL,
    AliasingError,
    SpectrumInterval,
    TrigPoly,
    _phase,
    _turns,
    dirichlet_eval,
    fejer_mean,
    grid_sums,
    lp_norm,
    modulate,
    point_sums,
    validate_norm_exponent,
)
from fdl.util import DEFAULT_SEED, grid_for_degree, indexed_map, trial_rng
from fdl.verify import rademacher_poly


def random_poly(rng, degree):
    ks = np.arange(-degree, degree + 1)
    c = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    return TrigPoly({int(k): complex(v) for k, v in zip(ks, c)})


def test_prune_drops_tiny_coefficients():
    assert len(TrigPoly({3: 1e-16})) == 0
    assert len(TrigPoly({3: 1e-14})) == 1


def test_empty_poly_is_inert():
    zero = TrigPoly({})
    assert zero.degree == 0
    assert [zero.norm(p) for p in (1, 2.0, 3, math.inf)] == [0.0] * 4
    assert zero.evaluate(0.37) == 0
    assert list(zero.items()) == []


def test_basis_and_dirichlet_constructors():
    assert TrigPoly({5: 1.0}).coeff(5) == 1.0
    d2 = TrigPoly.dirichlet(2)
    assert d2.k.tolist() == [-2, -1, 0, 1, 2]
    assert all(d2.coeff(k) == 1.0 for k in d2.k.tolist())
    with pytest.raises(ValueError, match="nonnegative"):
        TrigPoly.dirichlet(-1)


def test_exact_equality_and_hash():
    f = TrigPoly({1: 1.0 + 2.0j, -4: 0.5})
    g = TrigPoly({-4: 0.5, 1: 1.0 + 2.0j})
    assert f == g
    assert hash(f) == hash(g)
    assert f != TrigPoly({1: 1.0 + 2.0j})


def test_algebra_matches_coefficientwise_definitions():
    rng = trial_rng(11, 0)
    f = random_poly(rng, 6)
    g = random_poly(rng, 4)
    assert (f + g).coeff(3) == f.coeff(3) + g.coeff(3)
    assert (f - g).coeff(-2) == f.coeff(-2) - g.coeff(-2)
    assert (2.5 * f).coeff(1) == 2.5 * f.coeff(1)
    deriv = f.derivative()
    assert deriv.coeff(4) == 2j * math.pi * 4 * f.coeff(4)
    assert deriv.coeff(0) == 0


def _dict_poly(coeffs):
    """A polynomial as the dict {k: c} that TrigPoly stored before it held arrays."""
    return {int(k): complex(v) for k, v in coeffs.items() if abs(complex(v)) > PRUNE_TOL}


def _dict_add(a, b):
    c = dict(a)
    for k, v in b.items():
        c[k] = c.get(k, 0j) + v
    return _dict_poly(c)


def _dict_sample(a, M):
    spec = np.zeros(M, dtype=complex)
    for k, v in a.items():
        spec[k % M] = v
    return np.fft.ifft(spec) * M


def _dict_arrays(a):
    ks = np.array(sorted(a), dtype=np.int64)
    return ks, np.array([a[int(k)] for k in ks], dtype=complex)


def _dict_evaluate(a, ts):
    """The direct formula exp(2 pi i t k) @ c, with 2 pi k t rounded at its own magnitude."""
    ks, cs = _dict_arrays(a)
    return np.exp(2j * np.pi * np.outer(ts, ks.astype(float))) @ cs


def _bits(pairs):
    """(k, re, im) with re and im as float64 bit patterns, so -0.0 and 0.0 differ."""
    return [(k, *np.array([v.real, v.imag]).view(np.uint64).tolist()) for k, v in sorted(pairs)]


# signed zeros in either part, and values near PRUNE_TOL that sums cancel to
_EDGE_VALUES = [0j, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), complex(-1.0, 0.0),
                complex(0.0, -1.0), 2e-15, -2e-15j, 5e-16 + 5e-16j, 1.0, -1.0]
_values = st.one_of(st.sampled_from(_EDGE_VALUES),
                    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
_coeff_dicts = st.dictionaries(st.integers(-12, 12), _values, max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_coeff_dicts, b=_coeff_dicts, s=st.one_of(st.sampled_from([-0.0, -0.5, 1j, complex(-0.0, 2.0)]), _values),
       n=st.integers(0, 14), m=st.integers(-40, 40), ts=st.lists(st.floats(0.0, 1.0), max_size=5))
def test_array_arithmetic_is_bit_identical_to_dict_arithmetic(a, b, s, n, m, ts):
    f, g = TrigPoly(a), TrigPoly(b)
    da, db = _dict_poly(a), _dict_poly(b)
    cases = {
        "+": (f + g, _dict_add(da, db)),
        "-": (f - g, _dict_add(da, _dict_poly({k: -v for k, v in db.items()}))),
        "neg": (-f, _dict_poly({k: -v for k, v in da.items()})),
        "scalar *": (s * f, _dict_poly({k: complex(s) * v for k, v in da.items()})),
        "derivative": (f.derivative(), _dict_poly({k: 2j * math.pi * k * v for k, v in da.items() if k != 0})),
        "truncate": (f.truncate(n), _dict_poly({k: v for k, v in da.items() if abs(k) <= n})),
        "modulate": (modulate(f, m), _dict_poly({k + m: v for k, v in da.items()})),
        "fejer_mean": (fejer_mean(f, n + 1),
                       _dict_poly({k: v * (1 - abs(k) / (n + 1)) for k, v in da.items() if abs(k) < n + 1})),
    }
    for name, (got, want) in cases.items():
        assert _bits(got.items()) == _bits(want.items()), name
    M = grid_for_degree(f.degree)
    assert np.array_equal(f.sample(M).view(np.uint64), _dict_sample(da, M).view(np.uint64))
    ts = np.array(ts, dtype=float)
    ks, cs = _dict_arrays(da)
    want = point_sums(ks, cs, [ks.size], ts)[:, 0]
    assert np.array_equal(f.evaluate(ts).view(np.uint64), want.view(np.uint64))


def test_truncate_and_restrict_windows():
    f = TrigPoly({k: 1.0 for k in range(-5, 6)})
    assert f.truncate(2).k.tolist() == [-2, -1, 0, 1, 2]
    window = SpectrumInterval(1, 4)
    assert not window.contains(1)
    assert window.contains(4)
    assert [k for k in f.k.tolist() if window.contains(k)] == [2, 3, 4]
    with pytest.raises(ValueError, match="nonnegative"):
        f.truncate(-1)
    with pytest.raises(ValueError, match="hi >= lo"):
        SpectrumInterval(3, 2)


def test_sample_headroom_guard():
    f = TrigPoly.dirichlet(8)
    with pytest.raises(AliasingError):
        f.sample(16)
    assert f.sample(32).shape == (32,)
    with pytest.raises(ValueError, match="power of two"):
        f.sample(48)
    with pytest.raises(ValueError, match="power of two"):
        holo_boundary(CombParams(8, 3.0), 12)


def _coset_poly(rng, r, D, q):
    """Random coefficients on r + D i for |i| <= q: every difference is a multiple of D, and D is one of them."""
    ks = r + D * np.arange(-q, q + 1)
    return TrigPoly.from_arrays(ks, rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))


@pytest.mark.parametrize("D", [1, 2, 16, 512])
@pytest.mark.parametrize("r", [0, 5, -3])
def test_grid_modulus_is_one_period_of_the_sampled_modulus(D, r):
    # tooth_bounds samples |Q| on K points, where f(x) = e(a x) Q(D x): one period of |f| on D K points
    rng = trial_rng(DEFAULT_SEED, 100 * D + r)
    f = _coset_poly(rng, r, D, 6)
    bounds = tooth_bounds(f, D)
    assert bounds.grid == 16 * 32  # span 12
    full = np.abs(f.sample(D * bounds.grid))
    tol = 1e-13 * np.abs(f.c).sum()
    rows = full.reshape(D, -1)
    assert np.abs(rows - rows[0]).max() <= tol  # |f| repeats every K points
    assert np.abs(bounds.modulus - rows[0]).max() <= tol


def test_grid_modulus_of_one_term_and_of_nothing():
    empty = tooth_bounds(TrigPoly(), 7, 0.25)
    assert np.array_equal(empty.modulus, np.zeros(16))
    assert (empty.sup, empty.minimum, empty.points) == (0.0, 0.0, 15)
    one = tooth_bounds(TrigPoly({7: 2j}), 3, 0.25)
    assert np.allclose(one.modulus, np.full(16, 2.0), rtol=0, atol=1e-15)
    slack = 2 * ROUNDING_SLACK
    assert one.sup == pytest.approx(2.0 + slack, abs=1e-15)
    assert 2.0 - 2 * slack <= one.minimum <= 2.0
    assert tooth_bounds(TrigPoly({7: 2j}), 3).minimum is None


def test_sample_roundtrip_recovers_coefficients():
    rng = trial_rng(12, 0)
    f = random_poly(rng, 20)
    spec = np.fft.fft(f.sample(64)) / 64  # index i holds frequency i or i - 64
    back = TrigPoly({i if i <= 32 else i - 64: v for i, v in enumerate(spec) if abs(v) > 1e-15})
    assert back.k.tolist() == f.k.tolist()
    err = max(abs(back.coeff(k) - f.coeff(k)) for k in f.k.tolist())
    assert err < 1e-12


def test_riemann_mean_is_constant_coefficient():
    rng = trial_rng(13, 0)
    f = random_poly(rng, 15)
    mean = f.sample(64).mean()
    assert abs(mean - f.coeff(0)) < 1e-13


def test_evaluate_matches_grid_samples():
    rng = trial_rng(14, 0)
    f = random_poly(rng, 9)
    direct = f.evaluate(np.arange(32) / 32)
    assert np.abs(direct - f.sample(32)).max() < 1e-12


def test_sample_is_grid_sums_with_one_cut():
    f = random_poly(trial_rng(14, 1), 20)
    for M in (64, 256):
        want = grid_sums(f.k, f.c, [len(f)], M)[0]
        assert np.array_equal(f.sample(M).view(np.uint64), want.view(np.uint64))  # signs of zero too


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_grid_sums_past_the_grid_size_match_point_sums(shift):
    # degree 40 on 16 points: frequencies alias, and each row is still the partial sum at i/16 + shift
    rng = trial_rng(14, 2)
    k = np.array([0, 3, -17, 40, -33, 16])
    c = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
    cuts = [2, 4, 6]
    xs = np.arange(16) / 16 + shift
    got = grid_sums(k, c, cuts, 16, shift)
    assert got.shape == (3, 16)
    assert np.abs(got.T - point_sums(k, c, cuts, xs)).max() <= 1e-14 * np.abs(c).sum()


def _per_cut_grid_sums(k, c, cuts, M, shift=0.0):
    """grid_sums as a loop over the cuts: one running spectrum, one inverse FFT per cut into its row."""
    if shift:
        c = c * np.exp(2j * np.pi * _phase(k, shift))
    spec = np.zeros(M, dtype=complex)
    out = np.empty((len(cuts), M), dtype=complex)
    start = 0
    for row, stop in zip(out, cuts):
        np.add.at(spec, k[start:stop] % M, c[start:stop])
        np.fft.ifft(spec, out=row)
        row *= M
        start = stop
    return out


@pytest.mark.parametrize("shift", [0.0, 0.3])
@pytest.mark.parametrize("M", [16, 1000, 12345, 1 << 14, 1 << 16])
def test_grid_sums_transform_all_rows_as_the_per_cut_loop_does(M, shift):
    # frequencies up to 3M share bins, so each bin's additions must come in the same order; the
    # coefficients hold signed zeros, and a repeated cut leaves an empty segment
    rng = trial_rng(14, M)
    n = 400
    k = rng.integers(-3 * M, 3 * M + 1, size=n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c[::7] = complex(-0.0, 1.0)
    c[::11] = complex(1.0, -0.0)
    many = sorted(rng.choice(np.arange(1, n), size=16, replace=False).tolist()) + [n]
    for cuts in ([n], many, [0, 57, 57, 200, n]):
        got = grid_sums(k, c, cuts, M, shift)
        want = _per_cut_grid_sums(k, c, cuts, M, shift)
        assert got.shape == (len(cuts), M)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _peak(f):
    """The largest sample of f on its default grid, as check_localization's callers pick a."""
    M = grid_for_degree(f.degree)
    return int(np.argmax(np.abs(f.sample(M)))) / M


_PROGRESSION_POLYS = {
    "rademacher-2": lambda: rademacher_poly(2, trial_rng(15, 2)),
    "rademacher-64": lambda: rademacher_poly(64, trial_rng(15, 64)),
    "rademacher-1024": lambda: rademacher_poly(1024, trial_rng(15, 1024)),
    "pj-sparse": lambda: saturator_pj(DyadicFamilyParams(8, 2.0), 2),
    "complex": lambda: random_poly(trial_rng(15, 0), 40),
}


@pytest.mark.parametrize("name", sorted(_PROGRESSION_POLYS))
@pytest.mark.parametrize("where", ["peak", "zero", "off-grid"])
@pytest.mark.parametrize("count", [1, 513])
def test_evaluate_progression_matches_evaluate(name, where, count):
    f = _PROGRESSION_POLYS[name]()
    L = 1.0 / f.degree
    a = {"peak": _peak(f), "zero": 0.0, "off-grid": 0.37}[where]
    t0, h = (a, L) if count == 1 else (a - L / 2, L / 512)  # "zero": the progression starts below 0
    want = f.evaluate(t0 + np.arange(count) * h)
    got = f.evaluate_progression(t0, h, count)
    assert got.shape == (count,)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_evaluate_progression_is_at_least_as_close_as_evaluate_to_long_double():
    f = rademacher_poly(1024, trial_rng(15, 1024))
    t0, h, count = 0.37 - 0.5 / 1024, 1.0 / (1024 * 512), 513
    ks = f.k
    c = np.array([f.coeff(k).real for k in ks], dtype=np.longdouble)  # +-1, real
    t = np.longdouble(t0) + np.arange(count, dtype=np.longdouble) * np.longdouble(h)
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    phase = two_pi * np.mod(np.outer(t, ks.astype(np.longdouble)), 1)
    want = np.cos(phase) @ c + 1j * (np.sin(phase) @ c)
    top = float(np.abs(want).max())
    chirp_err = float(np.abs(f.evaluate_progression(t0, h, count) - want.astype(complex)).max()) / top
    direct = _dict_evaluate(dict(f.items()), t0 + np.arange(count) * h)
    direct_err = float(np.abs(direct - want.astype(complex)).max()) / top
    assert chirp_err <= direct_err
    assert chirp_err <= 1e-14


_TWO_PI = 2 * np.longdouble("3.14159265358979323846264338327950288")


def _exact_phases(ks, x):
    """k x mod 1 for each integer k, from x's exact ratio p/q and integer arithmetic, in long double."""
    p, q = float(x).as_integer_ratio()
    top = (np.array([int(k) for k in ks], dtype=object) * p % q << 64) // q  # (k x mod 1) 2^64, floored
    hi = np.array([int(v) >> 32 for v in top], dtype=np.longdouble)
    lo = np.array([int(v) & 0xFFFFFFFF for v in top], dtype=np.longdouble)
    return (hi * np.longdouble(2.0**32) + lo) / np.longdouble(2.0**64)


def test_point_sums_on_the_panel_shape_are_within_1e_15_of_long_double():
    # criterion 08's function, schedule and a 256-point panel; the oracle's phases are exact
    f = disjoint_family(3, 2.0, 2.0, 14).member(1)
    schedule = dyadic_schedule(6, 18)
    order = np.argsort(np.abs(f.k), kind="stable")
    ks, cs = f.k[order], f.c[order]
    cuts = np.searchsorted(np.abs(ks), schedule, side="right")
    xs = trial_rng(DEFAULT_SEED, 8000).uniform(0.0, 1.0, 256)
    got = point_sums(ks, cs, cuts, xs)
    re, im = cs.real.astype(np.longdouble), cs.imag.astype(np.longdouble)
    err = 0.0
    for x, row in zip(xs, got):
        theta = _TWO_PI * _exact_phases(ks, x)
        cos, sin = np.cos(theta), np.sin(theta)
        want_re = np.concatenate([[0], np.cumsum(cos * re - sin * im)])[cuts]
        want_im = np.concatenate([[0], np.cumsum(sin * re + cos * im)])[cuts]
        gap = np.hypot((row.real - want_re).astype(float), (row.imag - want_im).astype(float))
        err = max(err, float(gap.max()))
    assert err <= 1e-15 * np.abs(cs).sum()
    assert np.array_equal(partial_sums_at(f, xs, schedule), got)


def _cos_sin_point_sums(k, c, cuts, xs):
    """point_sums as it was before the half-angle form: cos and sin of 2 pi times the same reduced phases."""
    theta = _phase(k, np.asarray(xs, dtype=float)[:, None])
    theta *= 2 * np.pi
    terms = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=terms.real)
    np.sin(theta, out=terms.imag)
    segments = [terms[:, start:stop] @ c[start:stop] for start, stop in zip([0, *cuts[:-1]], cuts)]
    return np.cumsum(np.stack(segments, axis=1), axis=1)


def test_point_sums_match_the_cos_sin_kernel_on_the_panel_shape():
    f = disjoint_family(3, 2.0, 2.0, 14).member(1)
    schedule = dyadic_schedule(6, 18)
    order = np.argsort(np.abs(f.k), kind="stable")
    ks, cs = f.k[order], f.c[order]
    cuts = np.searchsorted(np.abs(ks), schedule, side="right")
    for panel in range(3):
        xs = trial_rng(DEFAULT_SEED, 8000 + panel).uniform(0.0, 1.0, 256)
        gap = np.abs(point_sums(ks, cs, cuts, xs) - _cos_sin_point_sums(ks, cs, cuts, xs)).max()
        assert gap <= 4e-16 * np.abs(cs).sum()


def test_point_sums_match_the_cos_sin_kernel_up_to_frequency_2_53():
    rng = trial_rng(DEFAULT_SEED, 53)
    top = 1 << 53
    ks = np.unique(np.concatenate([[-top, -1, 0, 1, top - 1, top], rng.integers(-top, top, size=400, endpoint=True)]))
    cs = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    cuts = np.array([1, 7, 100, 250, ks.size])
    xs = np.concatenate([[0.0, 0.5, -0.25, 1 / 3, 1e-9], rng.uniform(-2.0, 2.0, 64)])
    gap = np.abs(point_sums(ks, cs, cuts, xs) - _cos_sin_point_sums(ks, cs, cuts, xs)).max()
    assert gap <= 4e-16 * np.abs(cs).sum()


def _one_block_point_sums(k, c, cuts, xs):
    """point_sums in one block of fresh arrays: _turns(_phase(k, x)), then the segment matvecs."""
    theta = _phase(k, np.asarray(xs, dtype=float)[:, None])
    terms = _turns(theta, out=np.empty(theta.shape, dtype=complex))
    segments = [terms[:, start:stop] @ c[start:stop] for start, stop in zip([0, *cuts[:-1]], cuts)]
    return np.cumsum(np.stack(segments, axis=1), axis=1)


def _workspace_case(seed, top, terms, points):
    rng = trial_rng(DEFAULT_SEED, seed)
    ks = np.unique(rng.integers(-top, top, size=terms, endpoint=True))
    cs = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    cuts = np.unique(np.concatenate([rng.integers(1, ks.size, size=3), [ks.size]]))
    return ks, cs, cuts, rng.uniform(-2.0, 2.0, points)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("top", [(1 << 27) - 1, 1 << 53])  # both branches of _phase
def test_point_sums_workspace_matches_one_fresh_block_bit_for_bit(top):
    # 700 points x 480 terms span three blocks of the thread's workspace; the smaller call that
    # follows reads a slice of it; points of more terms than a block holds go two by two into
    # buffers of their own, the third beside the second again
    cases = [_workspace_case(1, top, 480, 700), _workspace_case(2, top, 37, 5),
             _workspace_case(3, top, (1 << 17) + 200, 3)]
    assert cases[0][0].size * cases[0][3].size > 2 * trig._POINT_CHUNK
    assert cases[2][0].size > trig._POINT_CHUNK
    for ks, cs, cuts, xs in cases:
        assert _same_bits(point_sums(ks, cs, cuts, xs), _one_block_point_sums(ks, cs, cuts, xs))
    assert sum(buffer.nbytes for buffer in trig._block_workspace(1)) <= 4 << 20


def test_point_sums_on_concurrent_threads_match_one_thread():
    # each thread fills its own workspace; four threads switching every microsecond interleave
    # their blocks, through point_sums directly and through TrigPoly.evaluate
    cases = [_workspace_case(seed, 1 << 40, 300 + 40 * seed, 500) for seed in range(8)]
    run = lambda case: (point_sums(*case), TrigPoly.from_arrays(*case[:2]).evaluate(case[3]))
    serial = indexed_map(run, cases, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = indexed_map(run, cases, threads=4)
    finally:
        sys.setswitchinterval(interval)
    for (sums, values), (sums_threaded, values_threaded) in zip(serial, threaded):
        assert _same_bits(sums, sums_threaded) and _same_bits(values, values_threaded)


def test_half_angle_turns_are_unit_phasors_up_to_and_past_a_half():
    past = [np.nextafter(0.5, 1.0), np.nextafter(np.nextafter(0.5, 1.0), 1.0), 0.5 + 4 * 2.0**-53]
    theta = np.array([0.0, 0.25, -0.25, 0.5, -0.5, *past, *(-np.array(past))])
    got = _turns(theta.copy(), out=np.empty(theta.shape, dtype=complex))
    angle = _TWO_PI * theta.astype(np.longdouble)
    assert np.isfinite(got.real).all() and np.isfinite(got.imag).all()
    assert np.abs((got.real - np.cos(angle)).astype(float)).max() <= 4e-16
    assert np.abs((got.imag - np.sin(angle)).astype(float)).max() <= 4e-16
    assert np.abs(np.hypot(got.real, got.imag) - 1).max() <= 4e-16
    assert got[0] == 1


def test_evaluate_at_huge_points_reduces_them_exactly():
    f = TrigPoly({3: 1, 100000: 0.5})
    for x in (1e308, -1e308, 1.5e300, 2.0**53, np.finfo(float).max):
        assert f.evaluate(x) == f.evaluate(0.0) == 1.5
    y = 0.3 + 2.0**40  # its distance to 2^40 is exact, and e(k y) = e(k (y - 2^40))
    assert f.evaluate(y) == f.evaluate(y - 2.0**40)
    assert f.evaluate(np.array([2.5, -7.5])) == pytest.approx([-0.5, -0.5], abs=1e-15)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_point_sums_refuse_points_that_are_not_finite(x):
    f = TrigPoly({3: 1, 100000: 0.5})
    with pytest.raises(ValueError, match="finite"):
        f.evaluate(x)
    with pytest.raises(ValueError, match="finite"):
        point_sums(f.k, f.c, [1, 2], np.array([0.25, x]))


@pytest.mark.parametrize("sign", [1, -1])
def test_phase_past_2_27_matches_exact_arithmetic(sign):
    rng = trial_rng(DEFAULT_SEED, 27)
    ks = sign * np.concatenate([[(1 << 27) - 1, 1 << 27, (1 << 53) - 1, 1 << 53],
                                rng.integers(1 << 27, 1 << 53, size=200, endpoint=True)])
    for x in [0.1, 0.37, 1 / 3, 0.999, 1e-9, 2.75, -0.625, *rng.uniform(-2.0, 2.0, 20)]:
        got = _phase(ks, x)
        assert got.shape == ks.shape and np.abs(got).max() <= 2.0
        for k, v in zip(ks.tolist(), got.tolist()):
            gap = Fraction(v) - k * Fraction(x)
            assert abs(gap - round(gap)) <= 4 * 2.0**-53, (k, x)


def test_evaluate_at_frequency_2_53_is_exact():
    f = TrigPoly.from_json_dict({"coeffs": [[1 << 53, 1.0, 0.0], [-(1 << 53) + 3, 0.0, 1.0]]})
    # at these points 2^53 x is an integer and (3 - 2^53) x is 3 x mod 1
    xs = np.array([0.5, 0.25, 1 / 1024])
    assert np.allclose(f.evaluate(xs), 1 + 1j * np.exp(2j * np.pi * 3 * xs), rtol=0, atol=1e-15)


def test_evaluate_refuses_frequencies_above_2_53():
    # 2^53 + 1 rounds to 2^53 in float64, where e(k/2) would read 1 instead of -1
    with pytest.raises(ValueError, match="2\\^53"):
        TrigPoly({(1 << 53) + 1: 1.0}).evaluate(0.5)
    with pytest.raises(ValueError, match="2\\^53"):
        _phase(np.array([-(1 << 60)]), 0.25)


def test_evaluate_progression_of_constants():
    assert np.array_equal(TrigPoly().evaluate_progression(0.3, 0.01, 4), np.zeros(4))
    assert np.allclose(TrigPoly({0: 2.5}).evaluate_progression(-0.3, 0.01, 3), 2.5, rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), degree=st.integers(0, 24))
def test_parseval_identity(seed, degree):
    # oracle: the mean square of the exact grid samples
    f = random_poly(trial_rng(seed, 0), degree)
    coeff_energy = sum(abs(v) ** 2 for _, v in f.items())
    assert f.norm(2.0) ** 2 == pytest.approx(coeff_energy, rel=1e-12)
    assert f.norm(2.0) == pytest.approx(lp_norm(f.sample(grid_for_degree(f.degree)), 2), rel=1e-12)


@pytest.mark.parametrize("coeffs", [{0: 1e200, 4: -3e199}, {-4: 3e180 + 4e180j, 8: -1e181j}, {0: 3.0, 4: -4j}])
def test_l2_norm_reads_the_coefficients_only(coeffs, monkeypatch):
    # above about 1e154 the squares overflow, but the norm does not
    monkeypatch.setattr(TrigPoly, "sample", None)
    assert TrigPoly(coeffs).norm(2) == pytest.approx(math.hypot(*(abs(v) for v in coeffs.values())), rel=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), degree=st.integers(0, 20),
       n=st.integers(0, 25), m=st.integers(0, 25))
def test_partial_sum_composition_is_exact(seed, degree, n, m):
    f = random_poly(trial_rng(seed, 1), degree)
    assert f.truncate(m).truncate(n) == f.truncate(min(n, m))


def test_fejer_dual_forms_agree():
    # independent oracle: average the cumulative partial sums pointwise
    rng = trial_rng(15, 0)
    f = random_poly(rng, 30)
    xs = rng.uniform(0.0, 1.0, 12)
    n = 24
    sums = partial_sums_at(f, xs, list(range(1, n)))
    averaged = (f.coeff(0) + sums.sum(axis=1)) / n
    assert np.abs(averaged - fejer_mean(f, n).evaluate(xs)).max() < 1e-12


def test_fejer_requires_positive_order():
    with pytest.raises(ValueError):
        fejer_mean(TrigPoly.dirichlet(2), 0)


def test_fejer_drops_top_frequency():
    f = TrigPoly.dirichlet(4)
    assert fejer_mean(f, 4).degree == 3
    assert fejer_mean(f, 4).coeff(2) == pytest.approx(0.5)


def test_dirichlet_eval_closed_form():
    rng = trial_rng(16, 0)
    ts = rng.uniform(0.0, 1.0, 50)
    n = 7
    direct = TrigPoly.dirichlet(n).evaluate(ts)
    assert np.abs(dirichlet_eval(n, ts) - direct.real).max() < 1e-9
    assert dirichlet_eval(n, 0.0) == 2 * n + 1
    assert dirichlet_eval(np.array([], dtype=int), np.array([])).shape == (0,)
    with pytest.raises(ValueError, match="nonnegative"):
        dirichlet_eval(np.array([3, -1]), 0.25)


def test_dirichlet_eval_reduces_its_phase_exactly():
    # the exact phase (2n+1) t/2 mod 1 from Fraction arithmetic; unreduced, the
    # numerator's phase carries a rounding of about (2n+1) ulp(t), 5e-8 here
    n = 1 << 20
    ts = trial_rng(DEFAULT_SEED, 16).uniform(-1.0, 1.0, 200)
    want = []
    for t in ts.tolist():
        phase = Fraction(2 * n + 1) * Fraction(t) / 2
        want.append(math.sin(2 * math.pi * float(phase - round(phase))) / math.sin(math.pi * t))
    assert np.abs(dirichlet_eval(n, ts) - np.array(want)).max() <= 1e-11


def test_dirichlet_one_l1_norm():
    closed = 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi
    assert lp_norm(TrigPoly.dirichlet(1).sample(1 << 16), 1.0) == pytest.approx(closed, abs=1e-9)


def test_modulate_shifts_frequencies_preserves_modulus():
    rng = trial_rng(17, 0)
    f = random_poly(rng, 5)
    shifted = modulate(f, 12)
    assert shifted.k.tolist() == [k + 12 for k in f.k.tolist()]
    xs = rng.uniform(0.0, 1.0, 20)
    assert np.abs(np.abs(shifted.evaluate(xs)) - np.abs(f.evaluate(xs))).max() < 1e-12


def test_lp_norm_paths_consistent():
    rng = trial_rng(18, 0)
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    mods = np.abs(samples)
    assert lp_norm(samples, 1.0) == pytest.approx(mods.mean(), rel=1e-13)
    assert lp_norm(samples, 2.0) == pytest.approx(math.sqrt((mods**2).mean()), rel=1e-13)
    assert lp_norm(samples, math.inf) == pytest.approx(mods.max(), rel=1e-13)
    assert lp_norm(samples, 4.0) == pytest.approx(((mods**4).mean()) ** 0.25, rel=1e-13)
    assert lp_norm(samples, 1.0) <= lp_norm(samples, 2.0) <= lp_norm(samples, math.inf)
    for p in (1000.0, 1e300):  # |v|^p overflows unless scaled by the maximum
        assert lp_norm(np.full(8, 5.0), p) == pytest.approx(5.0, rel=1e-12)


def test_norm_exponent_validation():
    with pytest.raises(ValueError):
        validate_norm_exponent(0.5)
    assert validate_norm_exponent(math.inf) == math.inf
    with pytest.raises(ValueError):
        TrigPoly.dirichlet(1).norm(0.0)


def test_json_roundtrips():
    rng = trial_rng(19, 0)
    f = random_poly(rng, 8)
    assert TrigPoly.from_json_dict(f.to_json_dict()) == f


def _malformed_entry(kind, data):
    """A coefficient list with one entry that from_json_dict must refuse, and that entry."""
    repeat = int(kind == "repeat")
    ks = data.draw(st.lists(st.integers(-64, 64), min_size=repeat, max_size=6, unique=True), label="ks")
    entries = [[k, float(k), -0.5] for k in ks]
    pos = data.draw(st.integers(repeat, len(entries)), label="pos")
    if repeat:
        bad = [data.draw(st.sampled_from(ks[:pos]), label="k"), 1.0, 0.0]
    elif kind == "frequency":
        k = data.draw(st.integers(2**53 + 1, 10**30), label="k")
        bad = [data.draw(st.sampled_from([k, -k])), 1.0, 0.0]
    else:
        x = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, 10**400]), label="x")
        bad = data.draw(st.sampled_from([[1000, x, 0.0], [1000, 0.0, x]]), label="bad")
    return entries[:pos] + [bad] + entries[pos:], bad


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["repeat", "frequency", "value"]), data=st.data())
def test_json_refuses_entries_it_cannot_represent(kind, data):
    entries, bad = _malformed_entry(kind, data)
    with pytest.raises(ValueError) as err:
        TrigPoly.from_json_dict({"coeffs": entries})
    assert repr(bad) in str(err.value)


class _Int(int):
    """An int that from_json_dict checks through the numbers ABCs, not by its exact type."""


class _Float(float):
    """A float that from_json_dict checks through the numbers ABCs, not by its exact type."""


def _abc_typed(entries):
    """The same entries with every plain int and float replaced by its subclass, repr unchanged."""
    def cast(x):
        return _Int(x) if type(x) is int else _Float(x) if type(x) is float else x
    return [[cast(x) for x in e] if isinstance(e, list) else e for e in entries]


_REFUSED = [
    ([[True, 1.0, 0.0]], "triple"),
    ([[1, False, 0.0]], "triple"),
    ([[1, 1.0, True]], "triple"),
    ([[1.0, 1.0, 0.0]], "triple"),
    ([[1, "1", 0.0]], "triple"),
    ([[1, None, 0.0]], "triple"),
    ([[1, 1.0]], "triple"),
    ([[1, 1.0, 0.0, 0.0]], "triple"),
    ([{"k": 1}], "triple"),
    ([[(1 << 53) + 1, 1.0, 0.0]], "2\\^53"),
    ([[-(1 << 53) - 1, 1.0, 0.0]], "2\\^53"),
    ([[1, math.inf, 0.0]], "not finite"),
    ([[1, 0.0, -math.inf]], "not finite"),
    ([[1, math.nan, 0.0]], "not finite"),
    ([[1, 10**400, 0.0]], "not finite"),
    ([[1, 1.0, 0.0], [2, 1.0, 0.0], [1, 2.0, 0.0]], "repeats frequency 1"),
]


@pytest.mark.parametrize("entries, message", _REFUSED)
def test_json_refuses_the_same_entries_through_both_type_checks(entries, message):
    # json.loads' own int and float are checked by exact type, any other number by the numbers
    # ABCs: an entry that one path refuses the other refuses too, with the same message
    texts = []
    for coeffs in (entries, _abc_typed(entries)):
        with pytest.raises(ValueError, match=message) as err:
            TrigPoly.from_json_dict({"coeffs": coeffs})
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    mixed = [[1, 1.0, 0.0], [_Int(1), _Float(2.0), 0.0]]  # a repeat across the two paths
    with pytest.raises(ValueError, match="repeats frequency 1"):
        TrigPoly.from_json_dict({"coeffs": mixed})


def test_json_accepts_the_same_entries_through_both_type_checks():
    entries = [[-(1 << 53), 1.0, 0.0], [1 << 53, 0, -2], [0, 0.5, 1e-300], [7, Fraction(1, 3), np.float64(2.0)],
               [np.int64(-3), 1, 1.5]]
    f = TrigPoly.from_json_dict({"coeffs": entries})
    assert f == TrigPoly.from_json_dict({"coeffs": _abc_typed(entries)})
    assert f == TrigPoly({-(1 << 53): 1.0, 1 << 53: -2j, 0: complex(0.5, 1e-300), 7: complex(1 / 3, 2.0), -3: 1 + 1.5j})


def test_grid_for_degree_floor():
    assert grid_for_degree(0) == 16
    assert grid_for_degree(100) == 1024
    assert grid_for_degree(100, factor=4) == 512
