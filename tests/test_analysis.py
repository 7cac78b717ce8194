"""Divergence-index fits, level sets, spectrum curves, prevalence probe."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdl
from fdl import analysis
from fdl.analysis import (
    _LOG_FLOOR,
    ProbeConfig,
    _grid_profile,
    _test_point_sums,
    _test_shifts,
    _trial_passes,
    divergence_index,
    divergence_profile,
    dyadic_schedule,
    dyadic_test_points,
    level_set,
    partial_sums_at,
    prevalence_probe,
    spectrum_curve,
)
from fdl.construct import disjoint_family
from fdl.sets import GridOracle, _probe_hits, box_dimension, count_occupied_boxes
from fdl.trig import TrigPoly
from fdl.util import DEFAULT_SEED, _series_sums, loglog_fit, trial_rng, trial_uniform_rows
from fdl.verify import rademacher_poly


def test_dyadic_schedule():
    assert dyadic_schedule(6, 8) == [64, 128, 256]
    with pytest.raises(ValueError):
        dyadic_schedule(0, 8)
    with pytest.raises(ValueError):
        dyadic_schedule(8, 8)
    # the fit takes log n of every entry as a float, and 2^1024 has none
    assert float(dyadic_schedule(1021, 1023)[-1]) == 2.0 ** 1023
    with pytest.raises(ValueError, match="m_hi <= 1023"):
        dyadic_schedule(6, 1024)


def test_partial_sums_match_truncations():
    rng = trial_rng(DEFAULT_SEED, 55)
    ks = rng.choice(np.arange(-300, 301), size=40, replace=False)
    f = TrigPoly({int(k): complex(*rng.normal(size=2)) for k in ks})
    xs = rng.uniform(0.0, 1.0, 7)
    schedule = [4, 32, 128, 512]
    sums = partial_sums_at(f, xs, schedule)
    assert sums.shape == (7, 4)
    for i, n in enumerate(schedule):
        # the direct formula exp(2 pi i x k) @ c of each truncation, the dense path before point_sums
        g = f.truncate(n)
        want = np.exp(2j * np.pi * np.outer(xs, g.k)) @ g.c
        assert np.max(np.abs(sums[:, i] - want)) < 1e-12


@pytest.mark.parametrize("case", ["block_member", "non_pow2", "empty", "single_point"])
def test_grid_partial_sums_match_truncations(case):
    # on xs = arange(M)/M partial_sums_at folds the spectrum mod M; the
    # truncations are evaluated pointwise as the oracle
    rng = trial_rng(DEFAULT_SEED, 56)
    schedule = dyadic_schedule(6, 18)
    if case == "block_member":
        f, M = disjoint_family(3, 2.0, 2.0, 14).member(1), 4096  # degree far above M
    elif case == "non_pow2":
        # unit 2-norm, frequencies up to 5000, and the cuts 999 and 1000 next to M
        ks = rng.choice(np.arange(-5000, 5001), size=60, replace=False)
        c = rng.normal(size=(60, 2)) / math.sqrt(120)
        f, M = TrigPoly({int(k): complex(*v) for k, v in zip(ks, c)}), 1000
        schedule = [250, 999, 1000, 2500, 5000]
    elif case == "empty":
        f, M = TrigPoly(), 64
    else:
        f, M = disjoint_family(2, 2.0, 2.0, 9).member(1), 1  # the grid of analyze index --x 0
    xs = np.arange(M) / M
    sums = partial_sums_at(f, xs, schedule)
    assert sums.shape == (M, len(schedule))
    for i, n in enumerate(schedule):
        assert np.max(np.abs(sums[:, i] - f.truncate(n).evaluate(xs))) <= 1e-11


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), terms=st.integers(1, 30), M=st.integers(2, 300),
       top=st.integers(1, 4000), cuts=st.integers(1, 6))
def test_grid_partial_sums_match_dense_path(seed, terms, M, top, cuts):
    # the same points in reverse order are not arange(M)/M and take the dense path
    rng = trial_rng(seed, 57)
    ks = rng.integers(-top, top + 1, size=terms)
    f = TrigPoly({int(k): complex(*rng.normal(size=2)) for k in ks})
    schedule = sorted({int(n) for n in rng.integers(0, top + 1, size=cuts)})
    xs = np.arange(M) / M
    grid = partial_sums_at(f, xs, schedule)
    dense = partial_sums_at(f, xs[::-1], schedule)[::-1]
    assert np.max(np.abs(grid - dense)) <= 1e-11


def _scalar_loglog_fit(x, y):
    # the one-series fit as it stood before rows were batched, with loglog_fit's flat rule
    if x.size < 2:
        return 0.0, 1.0
    vx = x - x.mean()
    vy = y - y.mean()
    sxx = float(vx @ vx)
    syy = float(vy @ vy)
    flat = syy < 1e-30 or syy <= x.size * (1e-13 * y.mean()) ** 2
    if sxx < 1e-30:
        return 0.0, 1.0 if flat else 0.0
    slope = float(vx @ vy) / sxx
    if flat:
        return slope, 1.0
    resid = vy - slope * vx
    return slope, 1.0 - float(resid @ resid) / syy


def test_batched_loglog_fit_matches_row_fits():
    rng = trial_rng(DEFAULT_SEED, 58)
    logx = np.log(np.array(dyadic_schedule(10, 16), dtype=float))
    rows = np.vstack([
        rng.normal(size=(20, logx.size)) + 0.3 * logx,
        np.full(logx.size, 2.5),                     # constant envelope
        np.full(logx.size, math.log(_LOG_FLOOR)),    # vanishing envelope
        0.25 * logx + 1.0,                           # exact line
    ])
    for x, y in [(logx, rows), (logx[:1], rows[:, :1]), (np.zeros(logx.size), rows)]:
        slopes, r2s = loglog_fit(x, y)
        assert slopes.shape == r2s.shape == (y.shape[0],)
        for row, slope, r2 in zip(y, slopes, r2s):
            one = loglog_fit(x, row)
            assert type(one[0]) is float and type(one[1]) is float
            ref = _scalar_loglog_fit(x, row)
            if np.all(row == row.mean()) or x.size < 2:  # exactly flat: beta = 0
                assert (slope, r2) == one == ref
            else:
                assert abs(slope - ref[0]) <= 1e-12 and abs(r2 - ref[1]) <= 1e-12
                assert abs(one[0] - ref[0]) <= 1e-12 and abs(one[1] - ref[1]) <= 1e-12
    slopes, r2s = loglog_fit(logx, rows)
    assert (slopes[-3], r2s[-3]) == (0.0, 1.0)
    assert slopes[-1] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        loglog_fit(logx, rows[:, :3])


@pytest.mark.parametrize("value", [math.log(17.0), 7.3])
def test_loglog_fit_calls_a_constant_series_flat_at_its_own_scale(value):
    # the mean of seven copies rounds off the value, leaving a spread of about ulp(value)
    x = np.log(2.0 ** np.arange(12, 19))
    y = np.full(7, value)
    assert np.any(y - y.mean() != 0.0)
    assert loglog_fit(x, y) == (0.0, 1.0)
    slopes, r2s = loglog_fit(x, np.vstack([y, 0.25 * x + value, y]))
    assert r2s.tolist() == [1.0, 1.0, 1.0] and slopes[0] == slopes[2] == 0.0


def test_loglog_fit_reuses_its_buffers_with_bit_identical_fits():
    # the envelope fit's shape: a strided tail of a running-maximum log envelope
    env = np.maximum.accumulate(trial_rng(DEFAULT_SEED, 59).normal(size=(1000, 13)), axis=1)
    x = np.log(np.array(dyadic_schedule(12, 18), dtype=float))
    y = env[:, 6:]
    before = y.copy()
    slopes, r2s = loglog_fit(x, y)
    # the same fit with a fresh temporary for every product
    vx = x - x.mean()
    vy = y - y.mean(axis=-1, keepdims=True)
    syy = (vy * vy).sum(axis=-1)
    slope = (vy * vx).sum(axis=-1) / float((vx * vx).sum())
    resid = vy - slope[:, None] * vx
    # a running maximum that settled before the tail
    flat = (syy < 1e-30) | (syy <= x.size * (1e-13 * y.mean(axis=-1)) ** 2)
    assert flat.any() and not flat.all()
    assert np.array_equal(slopes, slope)
    assert np.array_equal(r2s, np.where(flat, 1.0, 1.0 - (resid * resid).sum(axis=-1) / np.where(flat, 1.0, syy)))
    assert np.array_equal(y, before)


def _row_loglog_fit(logx, logy):
    """loglog_fit as it stood before it summed across series: numpy's reductions along each row, kept as an oracle."""
    x = np.asarray(logx, dtype=float)
    y = np.asarray(logy, dtype=float)
    slope = np.zeros(y.shape[:-1])
    r2 = np.ones(y.shape[:-1])
    if x.size >= 2:
        vx = x - x.mean()
        mean = y.mean(axis=-1, keepdims=True)
        vy = y - mean
        buf = np.empty_like(vy)
        sxx = float((vx * vx).sum())
        syy = np.multiply(vy, vy, out=buf).sum(axis=-1)
        flat = (syy < 1e-30) | (syy <= x.size * (1e-13 * mean[..., 0]) ** 2)
        if sxx < 1e-30:
            r2 = np.where(flat, 1.0, 0.0)
        else:
            slope = np.multiply(vy, vx, out=buf).sum(axis=-1) / sxx
            resid = np.subtract(vy, np.multiply(slope[..., None], vx, out=buf), out=vy)
            r2 = np.where(flat, 1.0,
                          1.0 - np.multiply(resid, resid, out=buf).sum(axis=-1) / np.where(flat, 1.0, syy))
    if y.ndim == 1:
        return float(slope), float(r2)
    return slope, r2


def _fit_series(rng, logx, points):
    """Noisy lines at several scales, beside a constant, a vanishing, a zero, a -0.0 and an exact line."""
    n = logx.size
    noisy = (rng.uniform(-1.0, 1.0, (points, 1)) * logx + rng.normal(0.0, 30.0, (points, 1))
             + rng.normal(size=(points, n)) * 10.0 ** rng.integers(-12, 2, (points, 1)))
    special = np.vstack([np.full(n, math.log(17.0)), np.full(n, math.log(_LOG_FLOOR)), np.zeros(n),
                         np.full(n, -0.0), 0.25 * logx + 1.0])
    return np.vstack([noisy, special])


def _layouts(rows):
    """The rows as a C array and three strided views of the same values."""
    n = rows.shape[1]
    wide = np.zeros((rows.shape[0], 2 * n))
    wide[:, ::2] = rows
    below = np.zeros((n + 3, rows.shape[0]))  # the envelope's layout: entries by points, fitted from a row on
    below[3:] = rows.T
    return {"C": np.ascontiguousarray(rows), "F": np.asfortranarray(rows), "step": wide[:, ::2], "envelope": below[3:].T}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 32), m_lo=st.integers(1, 900), points=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_loglog_fit_is_the_row_wise_fit(n, m_lo, points, seed):
    # up to 7 entries every layout fits to the bit; longer C rows too, while the row-wise fit of a
    # strided row with 8 or more entries took its mean in index order and its other sums pairwise
    logx = np.log(np.array(dyadic_schedule(m_lo, m_lo + n - 1), dtype=float))
    rows = _fit_series(np.random.default_rng(seed), logx, points)
    for layout, y in _layouts(rows).items():
        got, want = loglog_fit(logx, y), _row_loglog_fit(logx, y)
        if n <= 7 or layout == "C":
            assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want)), layout
        else:
            assert all(np.max(np.abs(g - w), initial=0.0) <= 1e-12 for g, w in zip(got, want)), layout
    for row in rows[-6:]:
        assert _bits(loglog_fit(logx, row)).tolist() == _bits(_row_loglog_fit(logx, row)).tolist()


def test_series_sums_are_numpys_row_sums_to_the_bit():
    # numpy's row sum starts from 0.0, so a row of -0.0 sums to 0.0, which no fit output shows
    rng = np.random.default_rng(62)
    for n in [*range(1, 41), 127, 128, 129, 136, 200, 511]:
        rows = rng.normal(size=(30, n)) * 10.0 ** rng.integers(-20, 20, size=(30, n))
        rows[0], rows[1, ::2] = -0.0, -0.0
        assert np.array_equal(_bits(_series_sums(rows.T)), _bits(rows.sum(axis=1))), n


@pytest.mark.parametrize("n", [8, 64, 127, 128, 129, 136, 200, 511])
def test_loglog_fit_of_long_c_rows_is_the_row_wise_fit_to_the_bit(n):
    # past 128 entries numpy splits a row's sum at a multiple of 8 near its middle
    logx = np.log(np.array(dyadic_schedule(4, n + 3), dtype=float))
    rows = _fit_series(np.random.default_rng(n), logx, 50)
    for got, want in zip(loglog_fit(logx, rows), _row_loglog_fit(logx, rows)):
        assert np.array_equal(_bits(got), _bits(want))


def test_partial_sums_schedule_must_increase():
    with pytest.raises(ValueError):
        partial_sums_at(TrigPoly({1: 1.0}), [0.1], [8, 8])
    # off the grid, on a 1024-point grid and on the one-point grid: +0 in every part of every sum
    for xs in ([0.1, 0.2], np.arange(1024) / 1024, [0.0]):
        zeros = partial_sums_at(TrigPoly(), xs, [8, 16])
        assert zeros.shape == (len(xs), 2) and not _bits([zeros.real, zeros.imag]).any()


def test_divergence_fits_need_three_schedule_entries():
    # two entries leave one point in the fitted tail half, whose slope would read 0 with r^2 = 1
    f = disjoint_family(2, 2.0, 2.0, 9).member(1)
    short = dyadic_schedule(5, 6)
    for fit in (lambda: divergence_index(f, 0.03125, short),
                lambda: divergence_profile(f, np.arange(64) / 64, short),
                lambda: level_set(f, 0.0, 0.05, 64, short),
                lambda: spectrum_curve(f, [0.0], short, grid=64, tolerance=0.05, m_lo=4, m_hi=10)):
        with pytest.raises(ValueError, match="at least 3 entries"):
            fit()
    assert divergence_profile(f, np.arange(64) / 64, dyadic_schedule(5, 7))[0].shape == (64,)


def test_divergence_index_constant_envelope():
    est = divergence_index(TrigPoly({1: 1.0}), 0.37, dyadic_schedule(6, 10))
    assert est.beta_hat == 0.0
    assert est.r2 == 1.0
    assert not est.vanishing
    assert est.envelope[0] == pytest.approx(0.0, abs=1e-12)  # log of modulus 1


def test_divergence_index_zero_polynomial_vanishes():
    est = divergence_index(TrigPoly(), 0.37, dyadic_schedule(6, 10))
    assert est.vanishing
    assert est.beta_hat == 0.0
    assert est.r2 == 1.0


def test_divergence_profile_agrees_with_pointwise():
    fam = disjoint_family(2, 2.0, 2.0, 9)
    f = fam.member(1)
    xs = np.array([0.0, 1.0 / 32.0, 0.37])
    schedule = dyadic_schedule(6, 11)
    betas, r2s = divergence_profile(f, xs, schedule)
    for x, beta, r2 in zip(xs, betas, r2s):
        est = divergence_index(f, float(x), schedule)
        assert est.beta_hat == pytest.approx(float(beta), abs=1e-15)
        assert est.r2 == pytest.approx(float(r2), abs=1e-15)


def _materialised_profile(f, xs, schedule):
    """The envelope fit as it stood before the rows were streamed: every partial sum held at once."""
    env = np.abs(partial_sums_at(f, xs, schedule), order="C")
    np.maximum.accumulate(env, axis=1, out=env)
    vanishing = env[:, -1] < 1e-14
    env = np.log(np.maximum(env, _LOG_FLOOR))
    tail = len(schedule) // 2
    betas, r2s = loglog_fit(np.log(np.array(schedule[tail:], dtype=float)), env[:, tail:])
    betas[vanishing] = 0.0
    r2s[vanishing] = 1.0
    return betas, r2s, vanishing


_STREAM_CASES = {
    # name: (f, schedule, M)
    "empty": (TrigPoly(), dyadic_schedule(6, 8), 16),
    # S_n = 2i sin(16 pi x) for every n, which vanishes at every fourth point of the 64-grid
    "vanishing": (TrigPoly({8: 1.0, -8: -1.0}), dyadic_schedule(4, 9), 64),
    # frequencies up to 2^53 fold mod M on the grid; off it _phase splits them
    "2^53": (TrigPoly({5: 1.0, 1 << 40: 0.25, -(1 << 53) + 3: 0.5j, 1 << 53: -0.75}),
             [4, 1 << 20, 1 << 40, (1 << 53) - 1, 1 << 53], 1024),
    "non_pow2": (rademacher_poly(700, trial_rng(DEFAULT_SEED, 60)), [1, 9, 100, 300, 699, 700], 1000),
    "block_member": (disjoint_family(3, 2.0, 2.0, 14).member(1), dyadic_schedule(6, 18), 1 << 14),
}


@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_streamed_profile_is_the_materialised_one_to_the_bit(case):
    # a level set's grid profile streams one partial_sums_at call per entry into the running
    # maximum; divergence_profile feeds the same fold the columns of one call, on the grid and off
    # it; each must be the all-at-once fit bit for bit
    f, schedule, M = _STREAM_CASES[case]
    assert 3 <= len(schedule) <= 13
    grid = np.arange(M) / M
    off = trial_rng(DEFAULT_SEED, M).uniform(0.0, 1.0, 257)
    for xs, got in ((grid, _grid_profile(f, M, schedule)), (grid, divergence_profile(f, grid, schedule)),
                    (off, divergence_profile(f, off, schedule))):
        betas, r2s, vanishing = _materialised_profile(f, xs, schedule)
        assert np.array_equal(got[0].view(np.uint64), betas.view(np.uint64))
        assert np.array_equal(got[1].view(np.uint64), r2s.view(np.uint64))
        if case == "vanishing" and xs is grid:
            assert vanishing.sum() == M // 4


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), terms=st.integers(0, 40), log_top=st.integers(1, 53),
       log_m=st.integers(4, 14), entries=st.integers(3, 13))
def test_streamed_grid_profile_matches_the_materialised_one(seed, terms, log_top, log_m, entries):
    rng = trial_rng(seed, 61)
    top = 1 << log_top
    f = TrigPoly({int(k): complex(*rng.normal(size=2)) for k in rng.integers(-top, top + 1, size=terms)})
    schedule = sorted({int(n) for n in rng.integers(0, top + 1, size=entries)} | {top})
    while len(schedule) < 3:  # a small top leaves too few distinct entries
        schedule.append(schedule[-1] + 1)
    M = 1 << log_m
    betas, r2s, _ = _materialised_profile(f, np.arange(M) / M, schedule)
    got = _grid_profile(f, M, schedule)
    assert np.array_equal(got[0].view(np.uint64), betas.view(np.uint64))
    assert np.array_equal(got[1].view(np.uint64), r2s.view(np.uint64))


def test_divergence_index_keeps_the_whole_envelope():
    f, schedule = disjoint_family(2, 2.0, 2.0, 9).member(1), dyadic_schedule(3, 11)
    est = divergence_index(f, 0.3, schedule)
    env = np.maximum.accumulate(np.abs(partial_sums_at(f, [0.3], schedule)[0]))
    assert est.envelope == np.log(np.maximum(env, _LOG_FLOOR)).tolist()
    assert len(est.envelope) == len(schedule)


def test_level_set_at_grid_2_16_peaks_below_6_5_mb():
    # At M = 2^16 and 13 schedule entries the streamed profile holds the fitted tail of the log
    # envelope (7 rows of M floats, 3.5 MB), the grid itself (0.5 MB) and, for one entry at a time,
    # grid_sums' spectrum and row (2 x 1 MB): 6 MB. The fit's chunks, betas and r^2 (1.75 MB) come
    # after the last row is freed. Holding the (13, M) complex sums would take 13 MB, a previous
    # entry's row kept while the next is computed 1 MB more
    f = disjoint_family(3, 2.0, 2.0, 14).member(1)
    tracemalloc.start()
    try:
        level_set(f, 0.2, 0.05, 1 << 16, dyadic_schedule(6, 18))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 << 19


def test_level_set_oracle_mapping():
    schedule = dyadic_schedule(6, 10)
    oracle = level_set(TrigPoly({1: 1.0}), 0.0, 0.05, 1 << 8, schedule)
    assert oracle.mask.mean() == 1.0
    assert oracle(np.array([0.0, 0.5, 0.999])).all()
    assert box_dimension(oracle, 4, 8).slope == pytest.approx(1.0)
    with pytest.raises(ValueError):
        level_set(TrigPoly({1: 1.0}), 0.0, 0.05, 8, schedule)
    with pytest.raises(ValueError, match="strictly increasing"):
        level_set(TrigPoly({1: 1.0}), 0.0, 0.05, 1 << 8, [64, 256, 128])


@pytest.mark.parametrize("grid, tolerance", [(0, 0.05), (8, 0.05), (256, -1.0), (1 << 31, 0.05)])
def test_level_set_and_spectrum_share_their_grid_and_tolerance_rules(grid, tolerance):
    f, schedule = TrigPoly({1: 1.0}), dyadic_schedule(6, 10)
    with pytest.raises(ValueError):
        level_set(f, 0.0, tolerance, grid, schedule)
    with pytest.raises(ValueError):
        spectrum_curve(f, [0.0], schedule, grid=grid, tolerance=tolerance, m_lo=4, m_hi=10)


def test_partial_sums_at_no_points():
    schedule = dyadic_schedule(6, 10)
    for f in (TrigPoly(), TrigPoly({1: 1.0, 300: 0.5})):
        assert partial_sums_at(f, [], schedule).shape == (0, len(schedule))


def test_spectrum_curve_shares_one_profile():
    schedule = dyadic_schedule(6, 10)
    curve = spectrum_curve(TrigPoly({1: 1.0}), [0.0, 0.1], schedule, grid=1 << 8,
                           tolerance=0.05, m_lo=4, m_hi=10)
    assert [(b, est.slope) for b, est in curve] == [(0.0, 1.0), (0.1, 0.0)]


def _probed(oracle):
    """The same membership test without the grid, so box_dimension evaluates every probe."""
    return lambda xs: oracle(xs)


@pytest.mark.parametrize("grid", [16, 17, 100, 1000, 3 << 12, 1 << 14, 20000])
def test_level_set_box_count_matches_the_probe_path(grid):
    # every grid here is below 2^18, the fewest probes box_dimension takes,
    # so the mask answers exactly the probes the generic path evaluates
    rng = trial_rng(DEFAULT_SEED, grid)
    for density in (0.0, 0.001, 0.05, 0.5, 1.0):
        oracle = GridOracle(rng.random(grid) < density)
        for m_hi in range(5, 15):
            assert box_dimension(oracle, 4, m_hi) == box_dimension(_probed(oracle), 4, m_hi), (density, m_hi)


@pytest.mark.parametrize("grid", [(1 << 18) - 1, 1 << 18, 1 << 19, 1 << 20])
def test_level_set_box_count_reads_every_grid_point(grid):
    # At m_hi = 10 the generic path probes 2^18 points: at 2^18 grid points
    # the probes are rounding ties, past it they skip grid points. A level
    # set takes the least 2^P > grid probes instead, answered from its mask,
    # and equals the generic path at that P.
    residues = [np.arange(grid) % 4 == r for r in range(4)]
    for mask in residues:
        est = box_dimension(GridOracle(mask), 4, 10)
        assert est.counts == [1 << m for m in range(4, 11)] and est.slope == 1.0
    sparse = trial_rng(DEFAULT_SEED, grid).random(grid) < 1e-4
    box_edges = np.zeros(grid, dtype=bool)
    box_edges[np.rint(np.arange(0, 1 << 10, 8) * grid / (1 << 10)).astype(int) % grid] = True
    for mask in residues + [sparse, box_edges]:
        oracle = GridOracle(mask)
        occ = _probe_hits(_probed(oracle), grid.bit_length(), 10)
        assert box_dimension(oracle, 4, 10).counts == [count_occupied_boxes(occ, m) for m in range(4, 11)]


def test_probing_a_level_set_at_its_grid_size_misses_residue_classes():
    # the generic path at its own 2^18 probes, pinned where it loses grid points
    def counts(grid, residue):
        oracle = GridOracle(np.arange(grid) % 4 == residue)
        return box_dimension(_probed(oracle), 4, 10).counts[0]

    # probe i sits on the tie (2i + 1)/2 and rounds to the even neighbour
    assert [counts(1 << 18, r) for r in range(4)] == [16, 0, 16, 0]
    # probe i reads grid point 4i + 2 and never another
    assert [counts(1 << 20, r) for r in range(4)] == [0, 0, 16, 0]


def test_spectrum_matches_per_beta_probe_counts_on_the_criterion_08_function():
    f = disjoint_family(3, 2.0, 2.0, 14).member(1)
    schedule = dyadic_schedule(6, 18)
    betas = np.linspace(0.0, 0.5, 11)
    curve = spectrum_curve(f, betas, schedule, grid=1 << 14, tolerance=0.05, m_lo=4, m_hi=14)
    oracle_at = lambda beta: level_set(f, beta, 0.05, 1 << 14, schedule)
    assert curve == [(float(beta), box_dimension(_probed(oracle_at(float(beta))), 4, 14)) for beta in betas]


def test_dyadic_test_points_layout():
    pts = dyadic_test_points(2.0, 3)
    assert pts.size == 3 * (1 << 3)
    assert np.unique(pts).size == pts.size
    assert pts.min() >= 0.0 and pts.max() < 1.0
    # a half gauge below ulp(1)/2: the copy -gauge/2 of the center 0 wraps to 0, not to 1.0
    for alpha, depth in ((10.0, 6), (30.0, 2)):
        pts = dyadic_test_points(alpha, depth)
        assert pts.size == 3 * (1 << depth)
        assert pts.min() >= 0.0 and pts.max() < 1.0


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(s=0)
    for R in (0.0, math.nan, math.inf, 1e308):  # 2R must stay finite for the uniform draw
        with pytest.raises(ValueError):
            ProbeConfig(R=R)
    with pytest.raises(ValueError):
        ProbeConfig(trials=0)
    for depth in (0, 54):  # up to depth 53 every centre K/2^depth is an exact float
        with pytest.raises(ValueError, match="1..53"):
            ProbeConfig(depth=depth)
    for m_thresh in (0.0, math.nan):
        with pytest.raises(ValueError):
            ProbeConfig(m_thresh=m_thresh)
    with pytest.raises(ValueError):
        ProbeConfig(beta=-0.1)


@pytest.mark.parametrize("field", ["alpha", "beta", "m_thresh"])
def test_probe_config_refuses_non_finite(field):
    # beta = inf or m_thresh = inf read as fraction 0.0; alpha = inf collapses the
    # three copies of the test grid onto one and read as fraction 1.0
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ProbeConfig(**{field: value})


def test_probe_config_rate_gap():
    cfg = ProbeConfig()
    assert cfg.rate_gap == pytest.approx(0.05)
    assert not cfg.size_condition_met  # s=9 falls short of 4/gap = 80
    assert ProbeConfig(s=17, beta=0.0).size_condition_met


def test_prevalence_probe_small_frozen():
    cfg = ProbeConfig(s=2, alpha=2.0, p=2.0, beta=0.2, R=1.0,
                      m_thresh=1e-4, trials=8, depth=3, jmax=7, seed=4242)
    res = prevalence_probe(TrigPoly(), cfg)
    assert res.fraction == 1.0
    assert res.failures == []
    assert not res.forced_zero_success  # zero input, zero coefficients: nothing grows
    assert res.forced_unit_success
    assert (res.rate_gap, res.size_condition_met) == (cfg.rate_gap, cfg.size_condition_met)
    assert prevalence_probe(TrigPoly(), cfg) == res


@pytest.mark.parametrize("seed", [0, 20127, (1 << 64) + 5, (1 << 96) + 11, (1 << 130) + 3])
@pytest.mark.parametrize("R, size", [(1.0, 9), (0.3, 2), (1e-3, 1), (7.77, 5)])
@pytest.mark.parametrize("count", [1, 97])
def test_trial_uniform_rows_are_bit_identical_to_trial_rng(seed, R, size, count):
    rows = trial_uniform_rows(seed, count, -R, R, size)
    want = np.array([trial_rng(seed, t).uniform(-R, R, size) for t in range(count)])
    assert rows.shape == (count, size)
    assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))


def test_trial_uniform_rows_refusals():
    with pytest.raises(ValueError, match="non-negative"):  # as SeedSequence(-1)
        trial_uniform_rows(-1, 3, -1.0, 1.0, 2)
    # the trial index is one 32-bit spawn word: t < 2^32, checked before any draw
    assert trial_uniform_rows(1, 0, -1.0, 1.0, 2).shape == (0, 2)
    with pytest.raises(ValueError, match="32-bit"):
        trial_uniform_rows(1, (1 << 32) + 1, -1.0, 1.0, 2)
    with pytest.raises(OverflowError):
        trial_uniform_rows(1, 3, -1e308, 1e308, 2)
    with pytest.raises(ValueError):
        trial_uniform_rows(1, 3, 1.0, -1.0, 2)


# the prevalence probe at the benchmark's shape: s = 9, jmax = 16, depth = 8, 2000 trials
_WORKLOAD = dict(jmax=16, depth=8, trials=2000)


def _probe_schedule(cfg: ProbeConfig) -> list[int]:
    top = (2 * cfg.s + 1) * (1 << (cfg.jmax + 1))
    return dyadic_schedule(6, max(7, math.ceil(math.log2(top))))


@pytest.fixture(scope="module")
def workload_family():
    return disjoint_family(9, 2.0, 2.0, 16)


@pytest.mark.parametrize("alpha", [2.0, 1.5, 1.3])  # 1.3 makes the shift non-dyadic
@pytest.mark.parametrize("depth", [2, 4, 8])
def test_shifted_grid_fold_matches_dense_path(workload_family, alpha, depth):
    schedule = _probe_schedule(ProbeConfig(**_WORKLOAD))
    points = dyadic_test_points(alpha, depth)
    base = rademacher_poly(256, trial_rng(DEFAULT_SEED, 9000))
    for g in (workload_family.member(1), workload_family.member(9), base):
        dense = partial_sums_at(g, points, schedule)
        scale = sum(abs(c) for _, c in g.items())
        # both paths reduce k x mod 1 exactly; the gap (at most 1.7e-12 of the scale) is the
        # rounding of the test points, the fold's FFT and the rounding of each sum
        assert np.abs(_test_point_sums(g, alpha, depth, schedule).T - dense).max() <= 1e-11 * scale


def test_shifted_grid_fold_matches_exact_phases_past_phase_limit():
    # |k| >= 2^27 needs a split of k as well as of x; the oracle reduces k x mod 1 in exact rationals
    g = TrigPoly({3: 1.0, 1 << 27: 0.5, -(1 << 27) - 5: 0.25j})
    alpha, depth = 1.3, 4
    schedule = dyadic_schedule(6, 28)
    points = [Fraction(K, 1 << depth) + Fraction(shift)
              for shift in _test_shifts(alpha, depth) for K in range(1 << depth)]
    phases = np.array([[float(k * x % 1) for k in g.k.tolist()] for x in points])
    within = np.abs(g.k)[:, None] <= np.array(schedule)  # (terms, schedule): term k is in S_n
    want = (np.exp(2j * np.pi * phases) * g.c) @ within
    scale = sum(abs(c) for _, c in g.items())
    assert np.abs(_test_point_sums(g, alpha, depth, schedule).T - want).max() <= 1e-14 * scale


def _probe_oracle(f: TrigPoly, cfg: ProbeConfig, blocks: np.ndarray):
    """The per-trial loop: dense partial sums and one tensordot per trial."""
    schedule = _probe_schedule(cfg)
    base = partial_sums_at(f, dyadic_test_points(cfg.alpha, cfg.depth), schedule)
    growth = np.array(schedule, dtype=float) ** cfg.beta

    def succeeds(c):
        ratios = np.abs(base + np.tensordot(c, blocks, axes=1)) / growth
        return bool(ratios.max(axis=1).min() >= cfg.m_thresh)

    failures = [t for t in range(cfg.trials)
                if not succeeds(trial_rng(cfg.seed, t).uniform(-cfg.R, cfg.R, size=cfg.s))]
    unit = np.zeros(cfg.s)
    unit[0] = 1.0
    return failures, succeeds(np.zeros(cfg.s)), succeeds(unit)


@pytest.fixture(scope="module")
def workload_blocks(workload_family):
    """The family members' dense partial sums at the workload's test points."""
    cfg = ProbeConfig(**_WORKLOAD)
    points = dyadic_test_points(cfg.alpha, cfg.depth)
    return np.stack([partial_sums_at(workload_family.member(r), points, _probe_schedule(cfg))
                     for r in range(1, cfg.s + 1)])


@pytest.mark.parametrize("base", ["zero", "rademacher"])
@pytest.mark.parametrize("seed", [20127, 7])
def test_prevalence_probe_matches_per_trial_loop(workload_blocks, base, seed):
    cfg = ProbeConfig(seed=seed, **_WORKLOAD)
    f = TrigPoly() if base == "zero" else rademacher_poly(256, trial_rng(seed, 9000))
    res = prevalence_probe(f, cfg)
    failures, zero_ok, unit_ok = _probe_oracle(f, cfg, workload_blocks)
    assert res.failures == failures
    assert res.fraction == (cfg.trials - len(failures)) / cfg.trials
    assert (res.forced_zero_success, res.forced_unit_success) == (zero_ok, unit_ok)


@pytest.mark.parametrize("beta, m_thresh", [(0.45, 3e-2), (0.2, 3e-2), (0.3, 1e-2)])
def test_prevalence_probe_matches_per_trial_loop_when_trials_fail(workload_blocks, beta, m_thresh):
    # a failing trial keeps its open points through every column
    cfg = ProbeConfig(beta=beta, m_thresh=m_thresh, **_WORKLOAD)
    res = prevalence_probe(TrigPoly(), cfg)
    failures, zero_ok, unit_ok = _probe_oracle(TrigPoly(), cfg, workload_blocks)
    assert len(failures) > cfg.trials // 2
    assert res.failures == failures
    assert (res.forced_zero_success, res.forced_unit_success) == (zero_ok, unit_ok)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("split", [False, True])
def test_trial_passes_decides_a_lone_open_trial_as_its_row_of_the_full_product(monkeypatch, seed, split):
    # the top column clears every point of every trial but the last, whose c_0 = 0 leaves it open
    # alone below; numpy rounds a one-row product otherwise than a row of a larger one, and the
    # threshold sits at the last trial's smallest |S_n| in the full product, so either rounding
    # flips one of the two decisions; split puts the last trial in a chunk of its own
    rng = np.random.default_rng(seed)
    s, points, trials = 9, 768, 9
    if split:
        monkeypatch.setattr(analysis, "_TRIAL_CHUNK", (trials - 1) * points)
    base = np.zeros((2, points), dtype=complex)
    blocks = np.zeros((2, s, points), dtype=complex)
    blocks[1, 0] = 1e3
    base[0] = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    blocks[0] = rng.standard_normal((s, points)) + 1j * rng.standard_normal((s, points))
    draws = rng.uniform(0.5, 1.0, (trials, s))
    draws[-1, 0] = 0.0
    full = np.matmul(draws, blocks[0].view(float)).view(complex) + base[0]
    m_thresh = np.abs(full[-1]).min()  # the growth is 1, so a ratio is |S_n| itself
    growth = np.ones(2)
    assert _trial_passes(base, blocks, growth, m_thresh, draws).all()
    above = _trial_passes(base, blocks, growth, np.nextafter(m_thresh, np.inf), draws)
    assert above.tolist() == [True] * (trials - 1) + [False]


@pytest.mark.parametrize("base", ["zero", "rademacher"])
def test_prevalence_probe_at_the_workload_shape_peaks_below_4_5_mb(base):
    # the family's test-point sums, stacked once in the per-column layout that the trial loop
    # multiplies, take 1.9 MB at this shape, and the member arrays they are stacked from as much
    # again; the trial loop adds only its chunk of product, modulus and cleared-point buffers.
    # A per-column copy of the stack would add 1.9 MB more
    f = TrigPoly() if base == "zero" else rademacher_poly(256, trial_rng(DEFAULT_SEED, 9000))
    cfg = ProbeConfig(**_WORKLOAD)
    tracemalloc.start()
    try:
        prevalence_probe(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 << 19


_PANEL_FAULTS = """
import resource
from fdl.analysis import divergence_profile, dyadic_schedule
from fdl.construct import disjoint_family
from fdl.util import DEFAULT_SEED, trial_rng
f = disjoint_family(3, 2.0, 2.0, 14).member(1)
schedule = dyadic_schedule(6, 18)
panels = [trial_rng(DEFAULT_SEED, 8000 + i).uniform(0.0, 1.0, 256) for i in range(10)]
divergence_profile(f, panels[0], schedule)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for xs in panels:
    divergence_profile(f, xs, schedule)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_divergence_panels_reuse_their_pages():
    # criterion 08's panel calls in a fresh interpreter, whose heap this suite has not shaped:
    # point_sums keeps its block buffers per thread, so once warm a panel touches no fresh page;
    # fresh phase and turn arrays per call cost about 940 faults a panel there
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-c", _PANEL_FAULTS],
                          env={**os.environ, "PYTHONPATH": str(Path(fdl.__file__).parents[1])},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100
