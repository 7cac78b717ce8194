"""Saturating polynomials, pole-comb kernels, log saturators, residual witnesses."""

import math

import numpy as np
import pytest

from fdl.construct import (
    HoloKernelParams,
    chi_coefficients,
    disjoint_family,
    eps_floor,
    holo_boundary,
    holo_kernel,
    log_saturator,
    logsat_certificate,
    residual_witness,
    saturator_certificate,
    saturator_pj,
    saturator_scale,
    witness_certificate,
)
from fdl.sets import DyadicFamilyParams
from fdl.trig import SpectrumInterval, TrigPoly, modulate
from fdl.verify import check_holo_bounds


def _bump_chi(params, M):
    """The plateau bump on the grid j/M: 1 within 2^-j of a center K/2^J, 0 beyond
    2^(1-j), and linear with slope 2^j in between."""
    frac = np.mod(np.arange(M) / M * (1 << params.J), 1.0)
    dist = np.minimum(frac, 1.0 - frac) / (1 << params.J)
    return np.clip(2.0 - dist * (1 << params.j), 0.0, 1.0)


def test_chi_coefficients_match_fft_of_samples():
    params = DyadicFamilyParams(8, 2.0)
    M = 1 << 15
    spec = np.fft.fft(_bump_chi(params, M)) / M
    chi = chi_coefficients(params)
    for k in chi.frequencies():
        assert abs(chi.coeff(k) - spec[k % M]) < 1e-5
    # off-lattice frequencies carry no mass beyond aliasing leakage
    assert abs(spec[params.J + 1]) < 1e-12 or (params.J + 1) % (1 << params.J) == 0


def test_chi_mean_is_closed_form():
    params = DyadicFamilyParams(8, 2.0)
    chi = chi_coefficients(params)
    assert chi.coeff(0) == pytest.approx(3.0 * 2.0 ** (params.J - params.j), abs=1e-15)
    assert chi.coeff(0) == pytest.approx(1.5 * params.measure, abs=1e-15)


def test_chi_spectrum_lives_on_center_lattice():
    params = DyadicFamilyParams(8, 2.0)
    chi = chi_coefficients(params)
    step = 1 << params.J
    assert all(k % step == 0 for k in chi.frequencies())
    assert chi.degree <= (1 << params.j) - 1


def test_saturator_spectrum_window_and_center_coefficient():
    params = DyadicFamilyParams(8, 2.0)
    poly = saturator_pj(params, 2)
    n = 1 << params.j
    window = SpectrumInterval(1, 2 * n - 1)
    assert window.contains_spectrum(poly)
    want = saturator_scale(params, 2) * 3.0 * 2.0 ** (params.J - params.j)
    assert poly.coeff(n) == pytest.approx(want, abs=1e-15)


def test_saturator_scale_paths():
    params = DyadicFamilyParams(8, 2.0)
    assert saturator_scale(params, math.inf) == 1.0
    assert saturator_scale(params, 2) == pytest.approx(2.0 ** (-(params.J - params.j + 2) / 2.0))


def test_saturator_certificate_margins():
    params = DyadicFamilyParams(8, 2.0)
    for p in (1, 2, math.inf):
        poly = saturator_pj(params, p)
        cert = saturator_certificate(poly, params, p)
        assert cert["norm"] <= 1.0 + 1e-9
        assert cert["bound_required"] == pytest.approx(0.25 * saturator_scale(params, p))
        assert cert["margin"] >= 0.0
    with pytest.raises(ValueError, match="grid must be a power of two with M >= 4096"):
        saturator_certificate(saturator_pj(params, 2), params, 2, M=2048)


def test_saturator_certificate_raises_on_failed_bounds():
    params = DyadicFamilyParams(8, 2.0)
    poly = saturator_pj(params, 2)
    with pytest.raises(AssertionError, match="target-set minimum misses the bound by"):
        saturator_certificate(0.1 * poly, params, 2)
    with pytest.raises(AssertionError, match="saturator norm .* exceeds 1"):
        saturator_certificate(2.0 * poly, params, 2)


def test_disjoint_family_blocks_are_isolated_by_truncation():
    fam = disjoint_family(3, 2.0, 2, 8)
    assert fam.j_min == 5
    for r in (1, 2, 3):
        for j in range(fam.j_min, fam.jmax + 1):
            window = fam.blocks[(j, r)]
            g = fam.member(r)
            isolated = g.truncate(window.hi) - g.truncate(window.lo - 1)
            assert isolated == TrigPoly({k: v for k, v in g.items() if window.contains(k)})


def test_disjoint_family_windows_never_overlap():
    fam = disjoint_family(3, 2.0, 2, 8)
    windows = sorted(fam.blocks.values(), key=lambda w: w.lo)
    for a, b in zip(windows, windows[1:]):
        assert a.hi < b.lo


def test_disjoint_family_summary_fields():
    fam = disjoint_family(3, 2.0, 2, 8)
    assert fam.tail_norm_bound == pytest.approx(1.0 / 8.0)
    assert fam.freq_constant == 2 * (2 * 3 + 1)
    with pytest.raises(ValueError):
        fam.member(0)
    with pytest.raises(ValueError):
        fam.member(4)


def test_disjoint_family_validation():
    with pytest.raises(ValueError):
        disjoint_family(0, 2.0, 2, 8)
    with pytest.raises(ValueError):
        disjoint_family(3, 2.0, 2, 4)  # below the smallest admissible level


def _pole_sum(params, z):
    """Explicit mean of the k pole terms."""
    w = np.conj(np.exp(2j * np.pi * np.arange(params.k) / params.k))
    one = 1.0 + params.eps
    return (one / (one - np.outer(z, w))).mean(axis=1)


def test_holo_kernel_closed_form():
    params = HoloKernelParams(k=16, omega=4.0)
    zs = 0.9 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 64, endpoint=False))
    want = _pole_sum(params, zs)
    assert np.max(np.abs(holo_kernel(params, zs) - want)) < 1e-12
    assert holo_kernel(params, 0.0) == pytest.approx(1.0)


def test_holo_params_validation():
    with pytest.raises(ValueError):
        HoloKernelParams(k=2, omega=4.0)
    with pytest.raises(ValueError):
        HoloKernelParams(k=16, omega=1.0)  # below log k
    assert HoloKernelParams(k=16, omega=4.0).eps == pytest.approx(1.0 / 64.0)


def test_holo_bounds_certificate():
    params = HoloKernelParams(k=16, omega=4.0)
    bounds = check_holo_bounds(params, holo_boundary(params, 1 << 12))
    assert bounds.f0_error <= 1e-12
    assert bounds.c4 <= 1.0 + 1e-6
    assert bounds.min_re > 0.0
    assert bounds.c1 > 0 and bounds.c2 > 0 and bounds.c3 > 0


@pytest.mark.parametrize("n", [256, 512])
def test_log_saturator_matches_grid_log_lift(n):
    # oracle: Fejer-weighted imaginary part of the FFT of the principal-branch
    # boundary logarithm of the comb kernel, on the saturator's own grid
    sat = log_saturator(n)
    M = sat.grid_M
    spec = np.fft.fft(np.log(holo_boundary(HoloKernelParams(sat.k, sat.omega), M))) / M
    q = np.arange(-(n - 1), n)
    grid = (2.0 / math.pi) * (1.0 - np.abs(q) / n) * (spec[q % M] - np.conj(spec[-q % M])) / 2j
    got = np.array([sat.poly.coeff(n + int(f)) for f in q])
    assert np.max(np.abs(got - grid)) < 1e-13
    mk = sat.k * np.arange(1, (n - 1) // sat.k + 1)
    assert sorted(sat.poly.frequencies()) == sorted(np.concatenate([n - mk, n + mk]).tolist())


def test_eps_floor_formula_and_guard():
    n = 1 << 10
    want = math.log(math.log(n)) / (4.0 * math.pi * math.log(n))
    assert eps_floor(n) == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        eps_floor(2)


def test_log_saturator_floors_small_rates():
    sat = log_saturator(512, eps_n=0.01)
    assert sat.floored
    assert sat.eps_n == pytest.approx(eps_floor(512))
    assert log_saturator(512).floored


def test_log_saturator_keeps_rates_above_floor():
    sat = log_saturator(512, eps_n=0.03)
    assert not sat.floored
    assert sat.eps_n == pytest.approx(0.03)


def test_log_saturator_rejects_tiny_degree():
    with pytest.raises(ValueError):
        log_saturator(50)


def test_log_saturator_certificate():
    sat = log_saturator(256)
    window = SpectrumInterval(1, 2 * 256 - 1)
    assert window.contains_spectrum(sat.poly)
    cert = logsat_certificate(sat)
    assert cert["sup_norm"] <= 1.0 + 1e-9
    assert cert["margin"] >= 0.0
    assert cert["points_per_tooth"] >= 32
    assert cert["target_level"] == pytest.approx(sat.eps_n * math.log(256))


def test_residual_witness_two_scale_identity_is_exact():
    j = 128
    sat = log_saturator(j)
    base = TrigPoly({0: 1.0, 3: 0.25})
    w = residual_witness(base, j, 0.05, sat)
    diff = w.truncate(2 * j) - w.truncate(j)
    assert diff == (0.05 / sat.eps_n) * modulate(sat.poly.truncate(j), j)
    assert w.truncate(j) == base


def test_residual_witness_comb_margin_frozen():
    j = 128
    sat = log_saturator(j)
    w = residual_witness(TrigPoly({0: 1.0, 3: 0.25}), j, 0.05, sat)
    cert = witness_certificate(w, j, 0.05, sat)
    target, observed = cert["target_level"], cert["min_difference_on_comb"]
    assert target == pytest.approx(0.242602, abs=5e-4)
    assert observed == pytest.approx(0.642431, abs=5e-4)
    assert observed >= target
    assert cert["margin"] == observed - target


def test_residual_witness_guards():
    j = 128
    sat = log_saturator(j)
    with pytest.raises(ValueError):
        residual_witness(TrigPoly({200: 1.0}), j, 0.05, sat)
    with pytest.raises(ValueError):
        residual_witness(TrigPoly(), j, 0.0, sat)
    with pytest.raises(ValueError, match="saturator degree 256 differs from the block level 128"):
        residual_witness(TrigPoly(), j, 0.05, log_saturator(256))
