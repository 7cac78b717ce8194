"""Inequality checkers: variable Dirichlet means, weak maximal ratios,
norm comparisons, localization rates, kernel bound margins."""

import math

import numpy as np
import pytest

from fdl.construct import HoloKernelParams
from fdl.trig import TrigPoly, dirichlet_eval
from fdl.util import DEFAULT_SEED, grid_for_degree, trial_rng
from fdl.verify import (
    _max_dirichlet_values,
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
