"""Divergence-index fits, level sets, spectrum curves, prevalence probe."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdl.analysis import (
    _LOG_FLOOR,
    ProbeConfig,
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
from fdl.sets import box_dimension
from fdl.trig import TrigPoly
from fdl.util import DEFAULT_SEED, loglog_fit, trial_rng


def test_dyadic_schedule():
    assert dyadic_schedule(6, 8) == [64, 128, 256]
    with pytest.raises(ValueError):
        dyadic_schedule(0, 8)
    with pytest.raises(ValueError):
        dyadic_schedule(8, 8)


def test_partial_sums_match_truncations():
    rng = trial_rng(DEFAULT_SEED, 55)
    ks = rng.choice(np.arange(-300, 301), size=40, replace=False)
    f = TrigPoly({int(k): complex(*rng.normal(size=2)) for k in ks})
    xs = rng.uniform(0.0, 1.0, 7)
    schedule = [4, 32, 128, 512]
    sums = partial_sums_at(f, xs, schedule)
    assert sums.shape == (7, 4)
    for i, n in enumerate(schedule):
        want = f.truncate(n).evaluate(xs)
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
        # unit 2-norm: the oracle's phase round-off grows like |x k| * 1e-16 per term
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
    # the one-series fit as it stood before rows were batched
    if x.size < 2:
        return 0.0, 1.0
    vx = x - x.mean()
    vy = y - y.mean()
    sxx = float(vx @ vx)
    syy = float(vy @ vy)
    if sxx < 1e-30:
        return 0.0, 1.0 if syy < 1e-30 else 0.0
    slope = float(vx @ vy) / sxx
    if syy < 1e-30:
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


def test_partial_sums_schedule_must_increase():
    with pytest.raises(ValueError):
        partial_sums_at(TrigPoly({1: 1.0}), [0.1], [8, 8])
    zeros = partial_sums_at(TrigPoly(), [0.1, 0.2], [8, 16])
    assert zeros.shape == (2, 2) and not zeros.any()


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


def test_level_set_oracle_mapping():
    schedule = dyadic_schedule(6, 10)
    oracle = level_set(TrigPoly({1: 1.0}), 0.0, 0.05, 1 << 8, schedule)
    assert oracle.occupancy == 1.0
    assert oracle(np.array([0.0, 0.5, 0.999])).all()
    assert box_dimension(oracle, 4, 8).slope == pytest.approx(1.0)
    with pytest.raises(ValueError):
        level_set(TrigPoly({1: 1.0}), 0.0, 0.05, 8, schedule)


def test_spectrum_curve_shares_one_profile():
    schedule = dyadic_schedule(6, 10)
    curve = spectrum_curve(TrigPoly({1: 1.0}), [0.0, 0.1], 2.0, schedule, grid=1 << 8)
    assert [(b, est.slope) for b, est in curve] == [(0.0, 1.0), (0.1, 0.0)]


def test_dyadic_test_points_layout():
    pts = dyadic_test_points(2.0, 3)
    assert pts.size == 3 * (1 << 3)
    assert np.unique(pts).size == pts.size
    assert pts.min() >= 0.0 and pts.max() < 1.0


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(s=0)
    with pytest.raises(ValueError):
        ProbeConfig(R=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(trials=0)
    with pytest.raises(ValueError):
        ProbeConfig(depth=0)
    with pytest.raises(ValueError):
        ProbeConfig(m_thresh=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(beta=-0.1)


def test_probe_config_rate_gap():
    cfg = ProbeConfig()
    assert cfg.rate_gap == pytest.approx(0.05)
    assert not cfg.size_condition_met  # s=9 falls short of 4/gap = 80
    assert ProbeConfig(s=17, beta=0.0).size_condition_met


def test_prevalence_probe_small_frozen():
    cfg = ProbeConfig(s=2, alpha=2.0, p=2.0, beta=0.2, R=1.0,
                      m_thresh=1e-4, trials=8, depth=3, jmax=7, seed=4242)
    fam = disjoint_family(2, 2.0, 2.0, 7)
    res = prevalence_probe(TrigPoly(), cfg, fam)
    assert res.fraction == 1.0
    assert res.failures == []
    assert not res.forced_zero_success  # zero input, zero coefficients: nothing grows
    assert res.forced_unit_success
    assert prevalence_probe(TrigPoly(), cfg, fam) == res


def test_prevalence_probe_family_mismatch():
    cfg = ProbeConfig(s=2, jmax=7, trials=1)
    fam = disjoint_family(3, 2.0, 2.0, 7)
    with pytest.raises(ValueError):
        prevalence_probe(TrigPoly(), cfg, fam)
