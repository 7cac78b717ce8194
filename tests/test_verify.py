"""Inequality checkers: variable Dirichlet means, weak maximal ratios,
norm comparisons, localization rates, kernel bound margins."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdl import verify
from fdl.construct import HoloKernelParams
from fdl.trig import TrigPoly, dirichlet_eval
from fdl.util import DEFAULT_SEED, grid_for_degree, trial_rng
from fdl.verify import (
    _dirichlet_distance,
    _first_return_argmin,
    _max_dirichlet_values,
    _maximal_ratios,
    check_derivative_bound,
    check_holo_bounds,
    check_localization,
    check_nikolsky,
    check_variable_dirichlet,
    check_weak_maximal,
    dirichlet_rows,
    holo_sweep,
    maximal_rows,
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
    assert _max_dirichlet_values(np.array([0.0]), 40)[0] == pytest.approx(81.0)


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
    assert np.max(np.abs(_dirichlet_distance(u, N) - _brute_dirichlet_distance(u, N))) <= 1e-11
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
    rep = check_variable_dirichlet(256, "greedy", 2)
    assert rep.worst_ratio == pytest.approx(1.060988994429415, rel=1e-12)
    assert rep.fitted_constant == pytest.approx(0.9014646634232882, rel=1e-12)
    ratios = [r for _, r in rep.scale_trend]
    assert ratios == sorted(ratios, reverse=True)  # mean/log N settles downward


def test_verify_sweeps_share_one_scale_ladder():
    assert scale_ladder(64) == [8, 16, 32, 64]
    assert scale_ladder(8) == [4, 8]
    assert scale_ladder(4) == [4]
    _, rows = dirichlet_rows(8, "constant", 1)
    assert [r[2] for r in rows] == [4, 8]
    _, rows = maximal_rows(8, 0.5, 1)
    assert [r[2] for r in rows] == [4, 8]


def test_dirichlet_rows_validation():
    with pytest.raises(ValueError):
        dirichlet_rows(3, "greedy", 2)
    with pytest.raises(ValueError):
        dirichlet_rows(64, "clever", 2)


def _single_row_maximal(f, N, a):
    """One-row copy of the maximal scan on the factor-8 grid, kept as an oracle."""
    d = max(f.degree, 1)
    c = np.zeros(2 * d + 1, dtype=complex)
    for k, v in f.items():
        c[k + d] = v
    M = grid_for_degree(d)
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
    return float(np.sqrt(best).mean() / np.abs(S).mean())


def _complex_maximal_ratios(coeffs, N, a, M):
    """The batched scan in complex arithmetic, kept as an oracle."""
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
    return np.sqrt(best).mean(axis=1) / np.abs(S).mean(axis=1)


@pytest.mark.parametrize("B", [1, 4])
@pytest.mark.parametrize("factor", [4, 8])
def test_real_maximal_scan_is_bit_identical_to_complex_scan(B, factor):
    for d in (1, 2, 17, 64):
        coeffs = np.stack([rademacher_coeffs(d, trial_rng(DEFAULT_SEED, (d << 20) + t)) for t in range(B)])
        M = grid_for_degree(d, factor=factor)
        for N in sorted({2, max(2, d - 1), max(2, d), d + 1}):
            want = _complex_maximal_ratios(coeffs, N, 0.5, M)
            assert np.array_equal(_maximal_ratios(coeffs, N, 0.5, M), want), (d, N)
            assert np.array_equal(_maximal_ratios(coeffs.astype(complex), N, 0.5, M), want), (d, N)


def test_real_maximal_scan_is_bit_identical_across_column_blocks(monkeypatch):
    coeffs = np.stack([rademacher_coeffs(64, trial_rng(DEFAULT_SEED, t)) for t in range(3)])
    M = grid_for_degree(64)
    want = _complex_maximal_ratios(coeffs, 64, 0.5, M)
    for columns in (48, 64, M + 1):  # a short last block, even blocks, one block
        monkeypatch.setattr(verify, "_SCAN_COLUMNS", columns)
        assert np.array_equal(_maximal_ratios(coeffs, 64, 0.5, M), want), columns


def test_real_maximal_scan_matches_complex_scan_on_complex_coefficients():
    rng = trial_rng(DEFAULT_SEED, 43)
    coeffs = rng.normal(size=(3, 2 * 48 + 1)) + 1j * rng.normal(size=(3, 2 * 48 + 1))
    M = grid_for_degree(48)
    want = _complex_maximal_ratios(coeffs, 48, 0.5, M)
    assert np.max(np.abs(_maximal_ratios(coeffs, 48, 0.5, M) - want) / want) <= 1e-13


def test_weak_maximal_is_bit_identical_to_single_row_scan():
    polys = [
        (TrigPoly({3: 1.0}), 64),
        (rademacher_poly(32, trial_rng(DEFAULT_SEED, 42)), 32),
        (rademacher_poly(32, trial_rng(DEFAULT_SEED, (32 << 20) + 0)), 32),
    ]
    for f, N in polys:
        assert check_weak_maximal(f, N, 0.5) == _single_row_maximal(f, N, 0.5)


def test_weak_maximal_single_basis_closed_form():
    a = 0.5
    got = check_weak_maximal(TrigPoly({3: 1.0}), 64, a)
    assert got == pytest.approx(math.log(3.0) ** -(1.0 + a), rel=1e-12)


def test_weak_maximal_validation():
    with pytest.raises(ValueError):
        check_weak_maximal(TrigPoly({3: 1.0}), 1, 0.5)
    with pytest.raises(ValueError):
        check_weak_maximal(TrigPoly({3: 1.0}), 64, 0.0)
    with pytest.raises(ValueError):
        check_weak_maximal(TrigPoly(), 64, 0.5)


def test_maximal_rows_shape_and_determinism():
    rep_a, rows_a = maximal_rows(64, 0.5, 3)
    rep_b, rows_b = maximal_rows(64, 0.5, 3)
    assert rows_a == rows_b
    assert len(rows_a) == 12
    assert sorted({r[2] for r in rows_a}) == [8, 16, 32, 64]
    assert rep_a.fitted_constant == max(r[3] for r in rows_a if r[2] == 8)
    assert rep_a.worst_ratio == max(r[3] for r in rows_a)


def test_batched_maximal_agrees_with_single_scan():
    rng = trial_rng(DEFAULT_SEED, 42)
    coeffs = rademacher_coeffs(32, rng)
    poly = TrigPoly({k: coeffs[k + 32] for k in range(-32, 33)})
    single = check_weak_maximal(poly, 32, 0.5)
    _, rows = maximal_rows(32, 0.5, 1, seed=DEFAULT_SEED, scales=[32])
    # same polynomial only if the row rng matches; rebuild it the row way
    row_poly = rademacher_poly(32, trial_rng(DEFAULT_SEED, (32 << 20) + 0))
    assert rows[0][3] == pytest.approx(check_weak_maximal(row_poly, 32, 0.5), rel=2e-2)


def test_nikolsky_closed_forms():
    assert check_nikolsky(TrigPoly({5: 1.0}), 2, math.inf) == pytest.approx(5.0 ** -0.5, rel=1e-12)
    got = check_nikolsky(TrigPoly.dirichlet(8), 2, math.inf)
    assert got == pytest.approx(math.sqrt(17.0 / 8.0), rel=1e-12)


def test_nikolsky_validation():
    with pytest.raises(ValueError):
        check_nikolsky(TrigPoly({5: 1.0}), math.inf, 2)
    with pytest.raises(ValueError):
        check_nikolsky(TrigPoly(), 2, math.inf)


def test_derivative_bound_closed_form():
    got = check_derivative_bound(TrigPoly({4: 1.0}), 8, 2)
    want = 2.0 * math.pi * 4.0 / (math.log(8.0) * 8.0 ** 1.5)
    assert got == pytest.approx(want, rel=1e-12)


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


def test_localization_dirichlet_peak_frozen():
    got = check_localization(TrigPoly.dirichlet(16), 0.0, 1.0 / 16, 2, 0.5)
    assert got == pytest.approx(1.4218273303523337, rel=1e-9)


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


def test_holo_bounds_frozen_at_k16():
    b = check_holo_bounds(HoloKernelParams(16, 4.0), M=1 << 12, interior_samples=500)
    assert b.f0_error == 0.0
    assert b.c1 == pytest.approx(35.948842423388086, rel=1e-9)
    assert b.c2 == pytest.approx(0.35167401270184656, rel=1e-9)
    assert b.c3 == pytest.approx(1.1379550818004194, rel=1e-9)
    assert b.c4 == pytest.approx(0.8879550818004192, rel=1e-9)
    assert b.min_re == pytest.approx(0.5617006628654388, rel=1e-9)


def test_holo_sweep_trend():
    rep, bounds = holo_sweep([8, 16, 32], M=1 << 12)
    assert rep.worst_ratio == pytest.approx(0.8671294979854607, rel=1e-9)
    assert rep.worst_ratio <= 1.0 + 1e-6
    assert [k for k, _ in rep.scale_trend] == [8, 16, 32]
    c2s = [c for _, c in rep.scale_trend]
    assert max(c2s) / min(c2s) < 2.0
    assert all(b.f0_error <= 1e-12 for b in bounds)
