"""Saturating polynomials, pole-comb kernels, log saturators, residual witnesses."""

import json
import math

import numpy as np
import pytest

import fdl.cli as cli
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
from fdl.sets import DyadicFamily, DyadicFamilyParams, comb_membership
from fdl.trig import SpectrumInterval, TrigPoly, lp_norm, modulate
from fdl.util import DEFAULT_SEED, trial_rng
from fdl.verify import check_holo_bounds, rademacher_poly


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


# The full-grid certificates: every site samples its polynomial on all M
# points and masks all M points. Kept here as the oracle of the one-period
# evaluation (TrigPoly.grid_modulus) the certificates use.


def _outcome(fn, *args):
    """The certificate as the CLI writes it, or the type of the exception it raises."""
    try:
        return cli._jsonable(fn(*args))
    except (AssertionError, ValueError) as exc:
        return type(exc)


def _full_grid_saturator_certificate(poly, params, p, M):
    sig = poly.sample(M)
    mask = DyadicFamily(params).contains(np.arange(M) / M)
    observed = float(np.abs(sig[mask]).min())
    required = 0.25 * saturator_scale(params, p)
    cert = {"norm": lp_norm(sig, p), "min_on_target_set": observed, "bound_required": required,
            "margin": observed - required, "grid": M}
    if cert["norm"] > 1.0 + 1e-9 or cert["margin"] < 0.0:
        raise AssertionError
    return cert


def _full_grid_logsat_certificate(sat):
    M = sat.grid_M
    sup = float(np.abs(sat.poly.sample(M)).max())
    partial = sat.poly.truncate(sat.n).sample(M)
    mask = comb_membership(sat.comb, np.arange(M) / M)
    observed = float(np.abs(partial[mask]).min())
    cert = {"n": sat.n, "eps_n": sat.eps_n, "omega": sat.omega, "k": sat.k, "floored": sat.floored,
            "sup_norm": sup, "min_partial_on_comb": observed, "target_level": sat.target_level,
            "margin": observed - sat.target_level, "points_per_tooth": int(mask.sum()) / sat.k,
            "grid": M}
    if sup > 1.0 + 1e-9 or cert["margin"] < 0.0:
        raise AssertionError
    return cert


def _full_grid_witness_certificate(witness, j, eta_j, sat):
    diff = witness.truncate(2 * j) - witness.truncate(j)
    sig = diff.sample(sat.grid_M)
    mask = comb_membership(sat.comb, np.arange(sat.grid_M) / sat.grid_M)
    observed = float(np.abs(sig[mask]).min())
    target = eta_j * math.log(j)
    cert = {"level": j, "eta": eta_j, "eps": sat.eps_n, "detector_scales": [j, 2 * j],
            "min_difference_on_comb": observed, "target_level": target, "margin": observed - target,
            "points_per_tooth": float(mask.sum()) / sat.k, "grid": sat.grid_M}
    if cert["margin"] < 0.0:
        raise AssertionError
    return cert


@pytest.mark.parametrize("j, alpha", [(j, alpha) for j in range(6, 17) for alpha in (1.5, 2.0, 3.0)
                                      if math.floor(j / alpha) + 1 <= j - 2])
def test_saturator_certificate_matches_the_full_grid(j, alpha):
    params = DyadicFamilyParams(j, alpha)
    M = 8 * (1 << (j + 1))
    for p in (1, 2, math.inf):
        poly = saturator_pj(params, p)
        want = _outcome(_full_grid_saturator_certificate, poly, params, p, M)
        assert isinstance(want, dict)
        assert _outcome(saturator_certificate, poly, params, p) == want


@pytest.mark.parametrize("n", [1 << e for e in range(7, 16)])
def test_logsat_certificate_matches_the_full_grid(n):
    sat = log_saturator(n)
    want = _outcome(_full_grid_logsat_certificate, sat)
    assert isinstance(want, dict)
    assert _outcome(logsat_certificate, sat) == want


@pytest.mark.parametrize("j", [1 << e for e in range(7, 14)])
def test_witness_certificate_matches_the_full_grid(j):
    sat = log_saturator(j)
    base = rademacher_poly(32, trial_rng(DEFAULT_SEED, j)) * 0.05
    w = residual_witness(base, j, 0.05, sat)
    want = _outcome(_full_grid_witness_certificate, w, j, 0.05, sat)
    assert isinstance(want, dict)
    assert _outcome(witness_certificate, w, j, 0.05, sat) == want


def _ifft_lengths(monkeypatch):
    lengths = []
    ifft = np.fft.ifft

    def counted(a, *args, **kwargs):
        lengths.append(len(a))
        return ifft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    return lengths


def test_certificates_transform_one_period_of_their_grid(monkeypatch, tmp_path):
    params = DyadicFamilyParams(16, 2.0)  # 2^J = 512 centres, spectrum 2^16 + 512 q, grid 2^20
    poly = saturator_pj(params, 2)
    lengths = _ifft_lengths(monkeypatch)
    assert saturator_certificate(poly, params, 2)["grid"] == 1 << 20
    assert lengths == [1 << 11]
    lengths.clear()
    # k = 144 teeth, k & -k = 16: the sup norm and the partial sum each on 2^19 / 16 points
    out = tmp_path / "sat.json"
    assert cli.run(["construct", "logsat", "--n", "8192", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certificates"]
    assert (cert["k"], cert["grid"]) == (144, 1 << 19)
    assert lengths == [1 << 15] * 2
