"""Inequality checkers: variable Dirichlet means, weak maximal ratios,
norm comparisons, localization rates, kernel bound margins."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdl import verify
from fdl.construct import holo_boundary, holo_kernel
from fdl.sets import CombParams, comb_membership
from fdl.trig import TrigPoly, dirichlet_eval
from fdl.util import DEFAULT_SEED, grid_for_degree, trial_rng
from fdl.verify import (
    _first_return_argmin,
    _greedy_orders,
    _max_dirichlet_values,
    _maximal_ratios,
    _row_rng,
    check_derivative_bound,
    check_holo_bounds,
    check_localization,
    check_nikolsky,
    derivative_rows,
    dirichlet_rows,
    holo_rows,
    holo_sweep,
    localization_rows,
    maximal_rows,
    nikolsky_rows,
    rademacher_coeffs,
    rademacher_poly,
    scale_ladder,
)


def test_rademacher_polys_are_reproducible_signs():
    a = rademacher_poly(16, trial_rng(DEFAULT_SEED, 7000))
    b = rademacher_poly(16, trial_rng(DEFAULT_SEED, 7000))
    assert a == b
    assert a.degree == 16
    assert all(a.coeff(k) in (-1.0, 1.0) for k in range(-16, 17))


def test_max_dirichlet_scan_matches_brute_force():
    us = trial_rng(DEFAULT_SEED, 1).uniform(0.0, 1.0, 20)
    fast = _max_dirichlet_values(us, 40)
    brute = np.max([np.abs(dirichlet_eval(n, us)) for n in range(1, 41)], axis=0)
    assert np.max(np.abs(fast - brute) / brute) < 1e-9


def test_max_dirichlet_scan_at_singular_point():
    assert _max_dirichlet_values(np.array([0.0]), 40)[0] == 81.0
    assert _max_dirichlet_values(np.array([]), 40).shape == (0,)


def _brute_dirichlet_distance(u, N, block=64):
    """The O(N M) scan over n of the distance of frac((2n+1)u) to 1/2, kept as an oracle."""
    u = np.asarray(u, dtype=float)
    d = np.full(u.shape, 0.5)
    for start in range(1, N + 1, block):
        ns = np.arange(start, min(start + block, N + 1), dtype=float)
        f = np.mod(np.outer(2.0 * ns + 1.0, u), 1.0)
        np.minimum(d, np.abs(f - 0.5).min(axis=0), out=d)
    return d


def _brute_max_dirichlet(u, N):
    u = np.asarray(u, dtype=float)
    s = np.abs(np.sin(np.pi * u))
    near = s < 1e-12
    vals = np.cos(np.pi * _brute_dirichlet_distance(u, N)) / np.where(near, 1.0, s)
    return np.where(near, float(2 * N + 1), vals)


def _assert_dirichlet_matches_brute_force(u, N):
    u = np.asarray(u, dtype=float)
    n = _greedy_orders(u, N)
    assert np.all((1 <= n) & (n <= N) & (n == np.rint(n)))
    greedy_distance = np.abs(np.mod((2.0 * n + 1.0) * u, 1.0) - 0.5)
    assert np.max(np.abs(greedy_distance - _brute_dirichlet_distance(u, N))) <= 1e-11
    # |d/dd cos(pi d)| <= pi, so the values differ by at most pi * 1e-11 / |sin(pi u)|
    s = np.abs(np.sin(np.pi * u))
    assert np.all(np.abs(_max_dirichlet_values(u, N) - _brute_max_dirichlet(u, N)) * s <= 4e-11)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(us=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64), N=st.integers(1, 2048))
def test_dirichlet_distance_matches_brute_force_at_random_points(us, N):
    _assert_dirichlet_matches_brute_force(us, N)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 17, 256, 8192])
def test_dirichlet_distance_matches_brute_force_at_rationals(N):
    M = grid_for_degree(256)
    t = trial_rng(DEFAULT_SEED, 0).uniform(0.0, 1.0)
    us = np.concatenate([np.arange(-64, 65) / 64, np.arange(-7, 8) / 7, np.arange(-12, 13) / 12,
                         np.arange(M) / M - t, [0.0, 0.5, -0.5]])
    _assert_dirichlet_matches_brute_force(us, N)


def test_first_return_argmin_is_the_first_minimiser_at_dyadic_rationals():
    # on multiples of 1/64 the orbit {beta + m alpha} is exact, ties and periods included
    grid = np.arange(64) / 64
    alpha, beta = np.repeat(grid, 64), np.tile(grid, 64)
    for L in (0, 1, 2, 5, 31, 63, 64, 200):
        orbit = np.mod(beta[None, :] + np.arange(L + 1)[:, None] * alpha[None, :], 1.0)
        assert np.array_equal(_first_return_argmin(alpha, beta, L), np.argmin(orbit, axis=0)), L


def test_greedy_strategy_dominates_pointwise():
    _, greedy = dirichlet_rows(64, "greedy", 2)
    _, constant = dirichlet_rows(64, "constant", 2)
    _, random_ = dirichlet_rows(64, "random", 2)
    assert all(g[3] >= c[3] - 1e-12 for g, c in zip(greedy, constant))
    assert all(g[3] >= r[3] - 1e-12 for g, r in zip(greedy, random_))


def test_dirichlet_report_frozen_constants():
    rep = dirichlet_rows(256, "greedy", 2)[0]
    assert rep.worst_ratio == pytest.approx(1.060988994429415, rel=1e-12)
    assert rep.fitted_constant == pytest.approx(0.9014646634232882, rel=1e-12)
    ratios = [r for _, r in rep.scale_trend]
    assert ratios == sorted(ratios, reverse=True)  # mean/log N settles downward


def test_verify_sweeps_share_one_scale_ladder():
    assert scale_ladder(64) == [8, 16, 32, 64]
    assert scale_ladder(8) == [4, 8]
    assert scale_ladder(4) == [4]
    assert scale_ladder(1 << 52)[-1] == 1 << 52
    with pytest.raises(ValueError, match="at most 2\\^52"):  # an order 2n + 1 past 2^53 has no exact phase
        scale_ladder((1 << 52) + 1)
    _, rows = dirichlet_rows(8, "constant", 1)
    assert [r[2] for r in rows] == [4, 8]
    _, rows = maximal_rows(8, 0.5, 1)
    assert [r[2] for r in rows] == [4, 8]


def test_dirichlet_rows_validation():
    with pytest.raises(ValueError):
        dirichlet_rows(3, "greedy", 2)
    with pytest.raises(ValueError):
        dirichlet_rows(64, "clever", 2)


@pytest.mark.parametrize("trials", [0, -1, (1 << 20) + 1])
@pytest.mark.parametrize("sweep", [
    lambda trials: dirichlet_rows(64, "greedy", trials),
    lambda trials: maximal_rows(64, 0.5, trials),
    lambda trials: nikolsky_rows(64, 2.0, math.inf, trials),
    lambda trials: derivative_rows(64, 2.0, trials),
    lambda trials: localization_rows(64, 2.0, 0.5, 1.0, trials),
], ids=["dirichlet", "maximal", "nikolsky", "derivative", "localization"])
def test_verify_sweeps_need_a_trial(sweep, trials):
    with pytest.raises(ValueError, match="need at least one trial"):
        sweep(trials)


def test_row_streams_repeat_past_2_20_trials():
    # why a sweep takes at most 2^20 trials: trial 5 * 2^20 at scale 5 would draw scale 10's trial 0
    rows = [rademacher_coeffs(10, _row_rng(DEFAULT_SEED, scale, trial)) for scale, trial in ((5, 5 << 20), (10, 0))]
    assert np.array_equal(*rows)


@pytest.mark.parametrize("sweep", [
    lambda threads: nikolsky_rows(64, 2.0, math.inf, 3, threads=threads),
    lambda threads: derivative_rows(64, 2.0, 3, threads=threads),
    lambda threads: localization_rows(64, 2.0, 0.5, 1.0, 3, threads=threads),
], ids=["nikolsky", "derivative", "localization"])
def test_trial_sweeps_return_the_same_rows_on_two_threads(sweep):
    assert sweep(2) == sweep(1)


@pytest.mark.parametrize("a", [0.0, -0.5, math.nan])
def test_maximal_rows_rejects_nonpositive_exponent(a):
    with pytest.raises(ValueError, match="excess exponent must be positive"):
        maximal_rows(64, a, 1)


def _half_mean(v, M):
    """The scan's weighted mean of the columns 0..M/2 of a full-grid (B, M) array."""
    return verify._half_grid_mean(v[:, :M // 2 + 1], M)


def _single_row_maximal(f, N, a, M):
    """One-row copy of the maximal scan on the full M-point grid, kept as an oracle."""
    d = max(f.degree, 1)
    c = np.zeros(2 * d + 1, dtype=complex)
    for k, v in f.items():
        c[k + d] = v
    e1 = np.exp(2j * np.pi * np.arange(M) / M)
    en = np.ones(M, dtype=complex)
    S = np.full(M, c[d], dtype=complex)
    best = np.zeros(M)
    for n in range(1, max(2, min(N, d)) + 1):
        en = en * e1
        if n <= d:
            S = S + c[d + n] * en + c[d - n] * np.conj(en)
        if n >= 2:
            w = math.log(n) ** -(2.0 * (1.0 + a))
            np.maximum(best, (S.real * S.real + S.imag * S.imag) * w, out=best)
    return float(_half_mean(np.sqrt(best)[None], M)[0] / _half_mean(np.abs(S)[None], M)[0])


def _complex_maximal_ratios(coeffs, N, a, M, mean=_half_mean):
    """The batched scan in complex arithmetic over the full grid, kept as an oracle.

    mean reduces the (B, M) root and modulus arrays; by default it is the
    scan's own weighted mean over columns 0..M/2.
    """
    B, width = coeffs.shape
    d = (width - 1) // 2
    e1 = np.exp(2j * np.pi * np.arange(M) / M)
    en = np.ones(M, dtype=complex)
    S = np.repeat(coeffs[:, d][:, None], M, axis=1).astype(complex)
    best = np.zeros((B, M))
    for n in range(1, max(2, min(N, d)) + 1):
        en = en * e1
        if n <= d:
            S = S + np.outer(coeffs[:, d + n], en) + np.outer(coeffs[:, d - n], np.conj(en))
        if n >= 2:
            w = math.log(n) ** -(2.0 * (1.0 + a))
            np.maximum(best, (S.real * S.real + S.imag * S.imag) * w, out=best)
    return mean(np.sqrt(best), M) / mean(np.abs(S), M)


def _assert_matches(got, want):
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("factor", [4, 8])
def test_real_maximal_scan_matches_complex_scan(B, factor):
    for d in (1, 2, 17, 64):
        coeffs = np.stack([rademacher_coeffs(d, trial_rng(DEFAULT_SEED, (d << 20) + t)) for t in range(B)])
        M = grid_for_degree(d, factor=factor)
        for N in sorted({2, max(2, d - 1), max(2, d), d + 1}):
            _assert_matches(_maximal_ratios(coeffs, N, 0.5, M), _complex_maximal_ratios(coeffs, N, 0.5, M))


@pytest.mark.parametrize("kind", ["gaussian", "symmetric", "antisymmetric"])
def test_real_maximal_scan_matches_complex_scan_on_general_real_rows(kind):
    rng = trial_rng(DEFAULT_SEED, 9000)
    for d in (1, 2, 17, 64):
        # rows scaled over 1e-3..1e3, so the combined coefficients c_n +- c_-n round
        coeffs = rng.standard_normal((4, 2 * d + 1)) * np.logspace(-3, 3, 4)[:, None]
        if kind == "symmetric":  # c_-n = c_n, so Im S_n = 0
            coeffs[:, :d] = coeffs[:, :d:-1]
        elif kind == "antisymmetric":  # c_-n = -c_n, so Re S_n = c_0
            coeffs[:, :d] = -coeffs[:, :d:-1]
        M = grid_for_degree(d)
        for N in (2, d, d + 3):
            _assert_matches(_maximal_ratios(coeffs, N, 0.5, M), _complex_maximal_ratios(coeffs, N, 0.5, M))


def test_real_maximal_scan_is_bit_identical_across_column_blocks(monkeypatch):
    coeffs = np.stack([rademacher_coeffs(64, trial_rng(DEFAULT_SEED, t)) for t in range(3)])
    M = grid_for_degree(64)
    monkeypatch.setattr(verify, "_SCAN_COLUMNS", M + 1)  # one block
    want = _maximal_ratios(coeffs, 64, 0.5, M)
    for columns in (48, 64):  # a short last block, even blocks
        monkeypatch.setattr(verify, "_SCAN_COLUMNS", columns)
        assert np.array_equal(_maximal_ratios(coeffs, 64, 0.5, M), want), columns


@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("factor", [4, 8])
def test_half_grid_maximal_scan_matches_full_grid_means(B, factor):
    def full_mean(v, M):
        return v.mean(axis=1)

    for d in (1, 2, 17, 64, 1000):
        coeffs = np.stack([rademacher_coeffs(d, trial_rng(DEFAULT_SEED, (d << 20) + t)) for t in range(B)])
        M = grid_for_degree(d, factor=factor)
        want = _complex_maximal_ratios(coeffs, d, 0.5, M, mean=full_mean)
        got = _maximal_ratios(coeffs, d, 0.5, M)
        assert np.max(np.abs(got - want) / want) <= 1e-13, d


def _real_row(f):
    """The (1, 2d+1) real coefficient row of f over frequencies -d..d."""
    d = max(f.degree, 1)
    return np.array([[f.coeff(k).real for k in range(-d, d + 1)]])


def test_weak_maximal_matches_single_row_scan():
    row_poly = rademacher_poly(32, trial_rng(DEFAULT_SEED, (32 << 20) + 0))  # maximal_rows' trial 0 at scale 32
    polys = [(TrigPoly({3: 1.0}), 64), (rademacher_poly(32, trial_rng(DEFAULT_SEED, 42)), 32), (row_poly, 32)]
    for f, N in polys:
        for factor in (4, 8):
            M = grid_for_degree(f.degree, factor=factor)
            _assert_matches(_maximal_ratios(_real_row(f), N, 0.5, M), _single_row_maximal(f, N, 0.5, M))
    _, rows = maximal_rows(32, 0.5, 1, seed=DEFAULT_SEED, scales=[32])
    assert rows[0][3] == _maximal_ratios(_real_row(row_poly), 32, 0.5, grid_for_degree(32, factor=4))[0]


# maximal_rows(2048, 0.5, 4) at seed 20127, the benchmark's verify maximal call, as the CSV prints it
_MAXIMAL_2048_ROWS = {
    256: ["0.187028906096", "0.191135297642", "0.179138938438", "0.181484715847"],
    512: ["0.138018325269", "0.138518869609", "0.138673352957", "0.137495517175"],
    1024: ["0.105324732371", "0.101648356639", "0.104400937525", "0.105130167076"],
    2048: ["0.0803150016566", "0.0781607184046", "0.0805397713377", "0.0799590740339"],
}


def test_maximal_rows_pinned_at_the_benchmark_call():
    _, rows = maximal_rows(2048, 0.5, 4, seed=20127)
    got = [(trial, seed, scale, format(ratio, ".12g")) for trial, seed, scale, ratio in rows]
    assert got == [(t, 20127, scale, v) for scale, vals in _MAXIMAL_2048_ROWS.items() for t, v in enumerate(vals)]


def test_weak_maximal_single_basis_closed_form():
    a = 0.5
    got = _maximal_ratios(_real_row(TrigPoly({3: 1.0})), 64, a, grid_for_degree(3))[0]
    assert got == pytest.approx(math.log(3.0) ** -(1.0 + a), rel=1e-12)


def test_maximal_rows_shape_and_determinism():
    rep_a, rows_a = maximal_rows(64, 0.5, 3)
    rep_b, rows_b = maximal_rows(64, 0.5, 3)
    assert rows_a == rows_b
    assert len(rows_a) == 12
    assert sorted({r[2] for r in rows_a}) == [8, 16, 32, 64]
    assert rep_a.fitted_constant == max(r[3] for r in rows_a if r[2] == 8)
    assert rep_a.worst_ratio == max(r[3] for r in rows_a)


def test_nikolsky_closed_forms():
    assert check_nikolsky(TrigPoly({5: 1.0}), 2, math.inf) == pytest.approx(5.0 ** -0.5, rel=1e-12)
    got = check_nikolsky(TrigPoly.dirichlet(8), 2, math.inf)
    assert got == pytest.approx(math.sqrt(17.0 / 8.0), rel=1e-12)
    assert check_nikolsky(TrigPoly({5: 3.0}), 1000, math.inf) == pytest.approx(5.0 ** (-1.0 / 1000), rel=1e-12)


def test_nikolsky_validation():
    with pytest.raises(ValueError):
        check_nikolsky(TrigPoly({5: 1.0}), math.inf, 2)
    with pytest.raises(ValueError):
        check_nikolsky(TrigPoly(), 2, math.inf)


def test_derivative_bound_closed_form():
    got = check_derivative_bound(TrigPoly({4: 1.0}), 8, 2)
    want = 2.0 * math.pi * 4.0 / (math.log(8.0) * 8.0 ** 1.5)
    assert got == pytest.approx(want, rel=1e-12)
    got = check_derivative_bound(TrigPoly({4: 3.0}), 8, 1000)
    assert got == pytest.approx(8.0 * math.pi / (math.log(8.0) * 8.0 ** (1.0 + 1.0 / 1000)), rel=1e-12)


def test_derivative_bound_validation():
    with pytest.raises(ValueError):
        check_derivative_bound(TrigPoly({4: 1.0}), 1, 2)
    with pytest.raises(ValueError):
        check_derivative_bound(TrigPoly(), 8, 2)


def test_localization_unimodular_closed_forms():
    n = 16
    P = TrigPoly({n: 1.0})
    assert check_localization(P, 0.25, 1.0 / n, 2, 0.5) == pytest.approx(
        math.log(n) ** 0.75, rel=1e-12)
    assert check_localization(P, 0.25, 1.0 / n, 1, 0.5) == pytest.approx(
        math.log(n) ** 1.5 * math.log(n), rel=1e-12)
    assert check_localization(3.0 * P, 0.25, 1.0 / n, 1000, 0.5) == pytest.approx(
        math.log(n) ** (1.5 / 1000), rel=1e-12)
    # at p = 1e308, chirp-z samples a few ulp above the peak must not overflow the p-th powers
    assert check_localization(3.0 * P, 0.25, 1.0 / n, 1e308, 0.5) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("N", [4, 64, 1024])
def test_localization_ratio_is_finite_at_huge_p(N):
    # at p = 1e308 the ratio is the interval's maximum of |P| over the grid peak, at least 1
    _, rows = localization_rows(N, 1e308, 0.5, 1.0, 2)
    assert all(1.0 - 1e-12 <= ratio < 1.1 for _, _, _, ratio in rows)


def test_localization_dirichlet_peak_frozen():
    got = check_localization(TrigPoly.dirichlet(16), 0.0, 1.0 / 16, 2, 0.5)
    assert got == pytest.approx(1.4218273303523337, rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_localization_rows_sample_each_polynomial_once(monkeypatch, p):
    # each row's ratio is bit-identical to check_localization sampling P again for its norm
    samples, checks = [], []
    sample, check = TrigPoly.sample, verify.check_localization

    def counted_sample(self, M):
        samples.append(M)
        return sample(self, M)

    def oracle_check(P, a, interval_length, p, eps, **private):
        got = check(P, a, interval_length, p, eps, **private)
        checks.append(got == check(P, a, interval_length, p, eps))
        return got

    monkeypatch.setattr(TrigPoly, "sample", counted_sample)
    monkeypatch.setattr(verify, "check_localization", oracle_check)
    _, rows = localization_rows(64, p, 0.5, 1.0, 3)
    assert len(checks) == len(rows) and all(checks)
    # once in localization_rows, once in the oracle's P.norm unless p = 2, which is Parseval
    assert len(samples) == (1 if p == 2 else 2) * len(rows)


def test_localization_guards():
    d8 = TrigPoly.dirichlet(8)
    with pytest.raises(ValueError):
        check_localization(d8, 0.3, 1.0 / 8, 2, 0.5)  # 0.3 is not a peak of D_8
    with pytest.raises(ValueError):
        check_localization(d8, 0.0, 0.5, 2, 0.5)  # interval longer than 1/degree
    with pytest.raises(ValueError):
        check_localization(d8, 0.0, 1.0 / 8, math.inf, 0.5)
    with pytest.raises(ValueError):
        check_localization(d8, 0.0, 1.0 / 8, 2, 0.0)
    with pytest.raises(ValueError, match="degree must be at least 2"):
        check_localization(TrigPoly.dirichlet(1), 0.0, 1.0, 2, 0.5)
    for p in (1, 2):  # log 2 < 1: a large eps overflows the rate at degree 2 and underflows it at 8
        with pytest.raises(ValueError, match="eps 4400 .* degree 2"):
            check_localization(TrigPoly.dirichlet(2), 0.0, 0.5, p, 4400)
        with pytest.raises(ValueError, match="eps 4400 .* degree 8"):
            check_localization(d8, 0.0, 1.0 / 8, p, 4400)
    # at p = 1 the rate divides by log(1/|I|), and 1/|I| overflows for a subnormal |I|
    with pytest.raises(ValueError, match="eps 0.5 with interval length 1e-320 takes .* degree 8"):
        check_localization(d8, 0.0, 1e-320, 1, 0.5)


def test_holo_bounds_frozen_at_k16():
    params = CombParams(16, 4.0)
    b = check_holo_bounds(params, 1 << 12)
    assert b.f0_error == 0.0
    assert b.c1 == pytest.approx(35.948842423388086, rel=1e-9)
    assert b.c2 == pytest.approx(0.35167401270184656, rel=1e-9)
    assert b.c3 == pytest.approx(1.1379550818004194, rel=1e-9)
    assert b.c4 == pytest.approx(0.8879550818004192, rel=1e-9)
    assert b.min_re == pytest.approx(0.5617006628654388, rel=1e-9)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k=st.one_of(st.integers(3, 64), st.integers(3, 10**12)), u=st.floats(0.0, 1.0))
def test_holo_c4_stays_at_most_1_for_every_admitted_comb(k, u):
    # the invariant check_holo_bounds relies on without a check (Bernoulli: rho <= omega/(1 + omega));
    # omega runs from log k to 1e16 on a log scale, below 2^52/k so that 1 + 1/(omega k) is not 1
    lo, hi = math.log(math.log(k)), math.log(min(1e16, 2.0**52 / k))
    params = CombParams(k, max(math.exp(lo + u * (hi - lo)), math.log(k)))
    assert check_holo_bounds(params, 16).c4 <= 1.0 + 1e-6


def _holo_grid_oracle(params, M=1 << 14, interior_samples=1000, seed=DEFAULT_SEED):
    """Grid estimates of the kernel bounds: the boundary grid plus seeded interior points."""
    rng = trial_rng(seed, params.k)
    r = np.sqrt(rng.uniform(0.0, 1.0, interior_samples))
    interior = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, interior_samples))
    z = np.concatenate([np.exp(2j * np.pi * np.arange(M) / M), interior])
    a = z / (1.0 + params.eps)
    f = holo_kernel(params, z)
    fd = params.k * a ** (params.k - 1) / ((1.0 + params.eps) * (1.0 - a ** params.k))  # f'/f
    min_re = float(f.real.min())
    return {
        "c1": min_re * params.omega * params.k,
        "c3": float(np.abs(f).max() / params.omega),
        "c4": float(np.abs(fd).max() / (params.omega * params.k)),
        "min_re": min_re,
    }


def test_holo_bounds_closed_forms_match_grid_oracle():
    for k in [*range(8, 257), 1000]:
        params = CombParams(k, max(math.log(k), 3.0))
        got = check_holo_bounds(params, 1 << 14)
        for key, want in _holo_grid_oracle(params).items():
            assert getattr(got, key) == pytest.approx(want, rel=1e-11), (k, key)


def test_holo_c2_is_the_masked_boundary_minimum_to_the_bit():
    # c2 evaluates the kernel at the comb points only; the full boundary and its mask are the oracle
    for M, omegas in ((1 << 14, (None,)), (1 << 12, (None, 5.7, 40.0)), (64, (None,))):
        for k in range(8, 257):
            for omega in omegas:
                params = CombParams(k, omega or CombParams.default_omega(k))
                mask = comb_membership(params, np.arange(M) / M)
                want = float(np.abs(holo_boundary(params, M)[mask]).min() / params.omega)
                assert check_holo_bounds(params, M).c2 == want, (M, k, omega)
    # every grid holds 0, the centre of tooth 0; numpy's arange(2^63) holds nothing, and is refused
    for M in (1000, 1 << 63):
        with pytest.raises(ValueError, match="power of two below 2\\^63"):
            check_holo_bounds(CombParams(16, 4.0), M)


@pytest.mark.parametrize("N, ks", [(8, [8]), (100, [8, 16, 32, 64]), (256, [8, 16, 32, 64, 128, 256])])
def test_holo_rows_double_the_tooth_count_from_8_up_to_N(N, ks):
    report, rows = holo_rows(N, 1 << 12, seed=7)
    want, bounds = holo_sweep(ks, 1 << 12, seed=7)
    assert report == want
    assert rows == [(i, 7, b.k, b.c4) for i, b in enumerate(bounds)]
    assert [k for _, _, k, _ in rows] == ks


@pytest.mark.parametrize("N", [-1, 0, 7])
def test_holo_rows_refuse_fewer_than_8_teeth(N):
    with pytest.raises(ValueError, match="at least 8"):
        holo_rows(N)


def test_holo_sweep_trend():
    rep, bounds = holo_sweep([8, 16, 32], M=1 << 12)
    assert rep.worst_ratio == pytest.approx(0.8671294979854607, rel=1e-9)
    assert rep.worst_ratio <= 1.0 + 1e-6
    assert [k for k, _ in rep.scale_trend] == [8, 16, 32]
    c2s = [c for _, c in rep.scale_trend]
    assert max(c2s) / min(c2s) < 2.0
    assert all(b.f0_error <= 1e-12 for b in bounds)
