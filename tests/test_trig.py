"""Fourier engine: coefficient algebra, sampling, kernels, norms, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdl.analysis import partial_sums_at
from fdl.trig import (
    AliasingError,
    GridSignal,
    SpectrumInterval,
    TrigPoly,
    dirichlet_eval,
    fejer_mean,
    lp_norm,
    modulate,
    validate_norm_exponent,
)
from fdl.util import grid_for_degree, trial_rng


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
    assert zero.norm(2.0) == 0.0
    assert zero.evaluate(0.37) == 0
    assert list(zero.items()) == []


def test_basis_and_dirichlet_constructors():
    assert TrigPoly.basis(5).coeff(5) == 1.0
    d2 = TrigPoly.dirichlet(2)
    assert d2.frequencies() == [-2, -1, 0, 1, 2]
    assert all(d2.coeff(k) == 1.0 for k in d2.frequencies())


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
    conj = f.conjugate()
    assert conj.coeff(-5) == f.coeff(5).conjugate()
    deriv = f.derivative()
    assert deriv.coeff(4) == 2j * math.pi * 4 * f.coeff(4)
    assert deriv.coeff(0) == 0


def test_truncate_and_restrict_windows():
    f = TrigPoly({k: 1.0 for k in range(-5, 6)})
    assert f.truncate(2).frequencies() == [-2, -1, 0, 1, 2]
    window = SpectrumInterval(1, 4)
    assert not window.contains(1)
    assert window.contains(4)
    assert f.restrict(window).frequencies() == [2, 3, 4]


def test_sample_headroom_guard():
    f = TrigPoly.dirichlet(8)
    with pytest.raises(AliasingError):
        f.sample(16)
    assert f.sample(32).M == 32


def test_sample_roundtrip_recovers_coefficients():
    rng = trial_rng(12, 0)
    f = random_poly(rng, 20)
    back = f.sample(64).to_poly()
    assert back.frequencies() == f.frequencies()
    err = max(abs(back.coeff(k) - f.coeff(k)) for k in f.frequencies())
    assert err < 1e-12


def test_riemann_mean_is_constant_coefficient():
    rng = trial_rng(13, 0)
    f = random_poly(rng, 15)
    mean = f.sample(64).samples.mean()
    assert abs(mean - f.coeff(0)) < 1e-13


def test_evaluate_matches_grid_samples():
    rng = trial_rng(14, 0)
    f = random_poly(rng, 9)
    sig = f.sample(32)
    direct = f.evaluate(sig.points())
    assert np.abs(direct - sig.samples).max() < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), degree=st.integers(0, 24))
def test_parseval_identity(seed, degree):
    f = random_poly(trial_rng(seed, 0), degree)
    coeff_energy = sum(abs(v) ** 2 for _, v in f.items())
    assert f.norm(2.0) ** 2 == pytest.approx(coeff_energy, rel=1e-12)


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


def test_dirichlet_one_l1_norm():
    closed = 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi
    assert TrigPoly.dirichlet(1).norm(1.0, 1 << 16) == pytest.approx(closed, abs=1e-9)


def test_modulate_shifts_frequencies_preserves_modulus():
    rng = trial_rng(17, 0)
    f = random_poly(rng, 5)
    shifted = modulate(f, 12)
    assert shifted.frequencies() == [k + 12 for k in f.frequencies()]
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
    sig = f.sample(32)
    back = GridSignal.from_json_dict(sig.to_json_dict())
    assert back.M == sig.M
    assert np.array_equal(back.samples, sig.samples)


def test_grid_signal_guards():
    with pytest.raises(ValueError):
        GridSignal(np.zeros(12, dtype=complex))
    sig = TrigPoly.dirichlet(1).sample(16)
    with pytest.raises(ValueError):
        sig.samples[0] = 1.0  # read-only view


def test_grid_for_degree_floor():
    assert grid_for_degree(0) == 16
    assert grid_for_degree(100) == 1024
    assert grid_for_degree(100, factor=4) == 512
