"""Saturating polynomials, pole-comb kernels, log saturators, residual witnesses."""

import math

import numpy as np
import pytest

import fdl.construct
from fdl.construct import (
    ROUNDING_SLACK,
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
    tooth_bounds,
    witness_certificate,
)
from fdl.sets import CombParams, DyadicFamily, DyadicFamilyParams, comb_membership, smallest_admissible_level
from fdl.trig import SpectrumInterval, TrigPoly, lp_norm, modulate
from fdl.util import DEFAULT_SEED, next_pow2, trial_rng
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
    for k in chi.k.tolist():
        assert abs(chi.coeff(k) - spec[k % M]) < 1e-5
    # off-lattice frequencies carry no mass beyond aliasing leakage
    assert abs(spec[params.J + 1]) < 1e-12 or (params.J + 1) % (1 << params.J) == 0


def test_chi_mean_is_closed_form():
    params = DyadicFamilyParams(8, 2.0)
    chi = chi_coefficients(params)
    assert chi.coeff(0) == pytest.approx(3.0 * 2.0 ** (params.J - params.j), abs=1e-15)
    # 1.5 times the measure of the union: 2^J intervals of length 2^(1-j)
    assert chi.coeff(0) == pytest.approx(1.5 * params.center_count * 2.0 ** (1 - params.j), abs=1e-15)


def test_chi_spectrum_lives_on_center_lattice():
    params = DyadicFamilyParams(8, 2.0)
    chi = chi_coefficients(params)
    step = 1 << params.J
    assert all(k % step == 0 for k in chi.k.tolist())
    assert chi.degree <= (1 << params.j) - 1


def test_saturator_spectrum_window_and_center_coefficient():
    params = DyadicFamilyParams(8, 2.0)
    poly = saturator_pj(params, 2)
    n = 1 << params.j
    window = SpectrumInterval(1, 2 * n - 1)
    assert window.contains_spectrum(poly)
    want = saturator_scale(params, 2) * 3.0 * 2.0 ** (params.J - params.j)
    assert poly.coeff(n) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError, match="above 2\\^53"):  # the spectrum of level 53 reaches 2^54 - 1
        saturator_pj(DyadicFamilyParams(53, 2.0), 2)


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
        assert "grid" not in cert


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


def _running_sum_member(s, alpha, p, jmax, r):
    """Member r as a running TrigPoly sum of its scaled, modulated level saturators."""
    g = TrigPoly()
    for j in range(smallest_admissible_level(alpha), jmax + 1):
        g = g + (1.0 / (j * j)) * modulate(saturator_pj(DyadicFamilyParams(j, alpha), p), (s + r) * (1 << (j + 1)))
    return g


@pytest.mark.parametrize("s, alpha, p, jmax", [(9, 2.0, 2, 12), (3, 2.0, 2, 14), (2, 1.5, 3, 10),
                                               (4, 2.5, math.inf, 13)])
def test_disjoint_family_members_are_the_running_sum_of_their_blocks(s, alpha, p, jmax):
    fam = disjoint_family(s, alpha, p, jmax)
    for r in range(1, s + 1):
        want = _running_sum_member(s, alpha, p, jmax, r)
        assert fam.member(r).k.tobytes() == want.k.tobytes()
        assert fam.member(r).c.tobytes() == want.c.tobytes()


def test_disjoint_family_refuses_a_block_that_escaped_its_window(monkeypatch):
    # a level-j block reaching 2^(j+2) into member 1 of a one-member family lands on the level-(j+1) block
    monkeypatch.setattr(fdl.construct, "saturator_pj",
                        lambda params, p: TrigPoly({1: 1.0, (1 << (params.j + 2)) + 1: 1.0}))
    with pytest.raises(ValueError, match="frequencies must be distinct"):
        disjoint_family(1, 2.0, 2, 6)


def test_disjoint_family_validation(monkeypatch):
    with pytest.raises(ValueError):
        disjoint_family(0, 2.0, 2, 8)
    with pytest.raises(ValueError):
        disjoint_family(3, 2.0, 2, 4)  # below the smallest admissible level
    # a top frequency 2(2s + 1) 2^jmax past 2^53 is refused before any saturator is built
    monkeypatch.setattr(fdl.construct, "saturator_pj", None)
    for s, jmax in ((1, 51), (1 << 62, 8), (9, 70), (2, 1 << 62)):
        with pytest.raises(ValueError, match="exceeds 2\\^53"):
            disjoint_family(s, 2.0, 2, jmax)


def _pole_sum(params, z):
    """Explicit mean of the k pole terms."""
    w = np.conj(np.exp(2j * np.pi * np.arange(params.k) / params.k))
    one = 1.0 + params.eps
    return (one / (one - np.outer(z, w))).mean(axis=1)


def test_holo_kernel_closed_form():
    params = CombParams(k=16, omega=4.0)
    zs = 0.9 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 64, endpoint=False))
    want = _pole_sum(params, zs)
    assert np.max(np.abs(holo_kernel(params, zs) - want)) < 1e-12
    assert holo_kernel(params, 0.0) == pytest.approx(1.0)


def test_holo_params_validation():
    with pytest.raises(ValueError):
        CombParams(k=2, omega=4.0)
    with pytest.raises(ValueError):
        CombParams(k=16, omega=1.0)  # below log k
    with pytest.raises(ValueError):
        CombParams(k=16, omega=math.nan)
    assert CombParams(k=16, omega=4.0).eps == pytest.approx(1.0 / 64.0)


@pytest.mark.parametrize("omega", [1e17, 1e308])
def test_holo_params_refuse_poles_on_the_circle(omega):
    # 1 + 1/(omega k) rounds to 1: the kernel would be 1/(1 - z^k), infinite on the grid
    with pytest.raises(ValueError, match="omega"):
        CombParams(k=3, omega=omega)
    assert CombParams(k=3, omega=1e15).eps > 0


def test_holo_bounds_certificate():
    params = CombParams(k=16, omega=4.0)
    bounds = check_holo_bounds(params, 1 << 12)
    assert bounds.f0_error <= 1e-12
    assert bounds.c4 <= 1.0 + 1e-6
    assert bounds.min_re > 0.0
    assert bounds.c1 > 0 and bounds.c2 > 0 and bounds.c3 > 0


@pytest.mark.parametrize("n", [256, 512])
def test_log_saturator_matches_grid_log_lift(n):
    # oracle: Fejer-weighted imaginary part of the FFT of the principal-branch
    # boundary logarithm of the comb kernel, on a grid far finer than the degree
    sat = log_saturator(n)
    M = 1 << 16
    spec = np.fft.fft(np.log(holo_boundary(sat.comb, M))) / M
    q = np.arange(-(n - 1), n)
    grid = (2.0 / math.pi) * (1.0 - np.abs(q) / n) * (spec[q % M] - np.conj(spec[-q % M])) / 2j
    got = np.array([sat.poly.coeff(n + int(f)) for f in q])
    assert np.max(np.abs(got - grid)) < 1e-13
    mk = sat.comb.k * np.arange(1, (n - 1) // sat.comb.k + 1)
    assert sat.poly.k.tolist() == sorted(np.concatenate([n - mk, n + mk]).tolist())


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


@pytest.mark.parametrize("eps", [10.0, 1e300])
def test_log_saturator_refuses_a_rate_whose_sharpness_overflows(eps):
    # omega = exp(4 pi log(n) eps) would overflow: no tooth is left, and exp is not called
    with pytest.raises(ValueError, match="rate too aggressive at degree 4096: tooth count 0 < 3"):
        log_saturator(4096, eps)


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
    w = residual_witness(base, 0.05, sat)
    diff = w.truncate(2 * j) - w.truncate(j)
    assert diff == (0.05 / sat.eps_n) * modulate(sat.poly.truncate(j), j)
    assert w.truncate(j) == base


def test_residual_witness_comb_margin_frozen():
    j = 128
    sat = log_saturator(j)
    w = residual_witness(TrigPoly({0: 1.0, 3: 0.25}), 0.05, sat)
    cert = witness_certificate(w, 0.05, sat)
    assert (cert["level"], cert["detector_scales"]) == (j, [j, 2 * j])  # j is the saturator's degree
    target, observed = cert["target_level"], cert["min_difference_on_comb"]
    assert target == pytest.approx(0.242602, abs=5e-4)
    # a lower bound of the comb minimum: below the 0.642431 that the grid of 2^16 points reads
    assert observed == pytest.approx(0.632954, abs=5e-4)
    assert target <= observed <= 0.642431
    assert cert["margin"] == observed - target


def test_residual_witness_guards():
    j = 128
    sat = log_saturator(j)
    with pytest.raises(ValueError):
        residual_witness(TrigPoly({200: 1.0}), 0.05, sat)
    with pytest.raises(ValueError):
        residual_witness(TrigPoly(), 0.0, sat)
    with pytest.raises(ValueError, match="eta_j / eps_n finite"):
        residual_witness(TrigPoly(), 1e308, sat)


def _coset_poly(rng, r, g, q):
    """Random coefficients on r + g i for |i| <= q: every difference is a multiple of g."""
    ks = r + g * np.arange(-q, q + 1)
    return TrigPoly.from_arrays(ks, rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))


def _span(poly, g):
    return int(poly.k[-1] - poly.k[0]) // g


def _dense_modulus(poly, g, lo, hi, count):
    """|P(y/g)| at count points y from lo to hi, endpoints included, by the direct sum."""
    return np.abs(poly.evaluate(np.linspace(lo, hi, count) / g))


@pytest.mark.parametrize("g", [1, 2, 23, 512])
@pytest.mark.parametrize("r", [0, 5, -3])
@pytest.mark.parametrize("q", [0, 1, 6, 40])
def test_tooth_bounds_hold_against_64_times_denser_samples(g, r, q):
    poly = _coset_poly(trial_rng(DEFAULT_SEED, 1000 * g + 10 * q + r), r, g, q)
    half_width = 0.1
    bounds = tooth_bounds(poly, g, half_width)
    span = _span(poly, g)
    K = 16 * next_pow2(2 * span)
    slack = ROUNDING_SLACK * np.abs(poly.c).sum()
    assert bounds.grid == K and bounds.points == K - 2 * ((span + 1) // 2) - 1
    # the sup bound is at least the maximum of Q = P(./g) on 64 K points, and at most
    # that maximum over the Ehlich-Zeller factors of both grids, plus the slack
    dense = _dense_modulus(poly, g, 0.0, 1.0 - 1.0 / (64 * K), 64 * K)
    assert bounds.sup >= dense.max()
    factor = math.sqrt(math.cos(math.pi * span / K) * math.cos(math.pi * span / (64 * K)))
    assert bounds.sup <= dense.max() / factor + slack
    # the minimum bound is at most the tooth's minimum 64 times more densely sampled
    tooth = _dense_modulus(poly, g, -half_width, half_width, 64 * bounds.points)
    assert bounds.minimum <= tooth.min()
    s = (span + 1) // 2
    h = 2 * half_width / (bounds.points - 1)
    assert bounds.minimum >= tooth.min() - math.pi * s * h * bounds.sup - slack - 1e-12
    assert bounds.norm(math.inf) == bounds.sup
    assert bounds.norm(2) == pytest.approx(math.sqrt(np.sum(np.abs(poly.c) ** 2)), rel=1e-15)
    # p = 1 is the mean of |Q(j/K)| = |P(j/(g K))|
    assert bounds.norm(1) == pytest.approx(_dense_modulus(poly, g, 0.0, 1.0 - 1.0 / K, K).mean(), rel=1e-12)


def test_tooth_minimum_bound_covers_a_zero_between_two_samples():
    # sin(2 pi (x - x0)) vanishes halfway between the first two tooth samples and falls
    # there at its full Bernstein rate 2 pi, so only the whole pi s h sup term reaches 0
    half_width, points = 0.1, 16 * 4 - 2 - 1
    x0 = -half_width + half_width / (points - 1)
    sine = TrigPoly({1: -0.5j * complex(math.cos(2 * math.pi * x0), -math.sin(2 * math.pi * x0)),
                     -1: 0.5j * complex(math.cos(2 * math.pi * x0), math.sin(2 * math.pi * x0))})
    bounds = tooth_bounds(sine, 1, half_width)
    assert bounds.points == points
    assert abs(sine.evaluate(x0)) < 1e-15
    assert -0.01 * math.pi * 2 * half_width / (points - 1) < bounds.minimum <= 0.0


def test_tooth_bounds_refuse_a_spectrum_off_its_residue_class():
    with pytest.raises(ValueError, match="not one residue class mod 2"):
        tooth_bounds(TrigPoly({0: 1.0, 3: 1.0}), 2)
    with pytest.raises(ValueError, match="not one residue class mod 23"):
        tooth_bounds(TrigPoly({1: 1.0, 24: 1.0, 46: 1.0}), 23)
    with pytest.raises(ValueError, match="positive integer"):
        tooth_bounds(TrigPoly({0: 1.0}), 0)


@pytest.mark.parametrize("scale", [1e306, 1e308])
def test_tooth_bounds_refuse_coefficients_whose_transforms_overflow(scale):
    # at 1e306 the sup bound is finite, but the tooth's chirp-z samples are not
    sat = log_saturator(256)
    with pytest.raises(ValueError, match="too large to bound"):
        tooth_bounds(scale * sat.poly.truncate(256), sat.comb.k, sat.comb.tooth)


@pytest.mark.parametrize("coeffs", [{0: 1e200, 4: -3e199}, {-4: 3e180 + 4e180j, 8: -1e181j}, {0: 3.0, 4: -4j}])
def test_tooth_bounds_l2_is_the_hypot_of_the_coefficients(coeffs):
    # above about 1e154 the squares overflow, but the norm and the sup bound do not
    bounds = tooth_bounds(TrigPoly(coeffs), 4)
    assert math.isfinite(bounds.sup)
    assert bounds.norm(2) == bounds.l2
    assert bounds.l2 == pytest.approx(math.hypot(*(abs(v) for v in coeffs.values())), rel=1e-15)


def _transform_lengths(monkeypatch):
    """Records the length of every FFT and inverse FFT."""
    lengths = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def counted(a, n=None, *args, _transform=transform, **kwargs):
            lengths.append(len(a) if n is None else n)
            return _transform(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return lengths


def test_certificates_transform_one_period_of_their_grid(monkeypatch):
    # one period of the decimated polynomial is K = 16 next_pow2(2 span) points
    params = DyadicFamilyParams(16, 2.0)  # 2^J = 512 centres
    pj = saturator_pj(params, 2)
    sat = log_saturator(1024)  # k = 23 teeth: an odd decimation
    witness = residual_witness(TrigPoly({0: 1.0, 3: 0.25}), 0.05, sat)
    diff = witness.truncate(2048) - witness.truncate(1024)
    lengths = _transform_lengths(monkeypatch)
    # each certificate: the sup bound on K points, then the tooth's three chirp-z transforms of length K
    saturator_certificate(pj, params, 2)
    assert lengths == [16 * next_pow2(2 * _span(pj, params.center_count))] * 4 == [1 << 13] * 4
    lengths.clear()
    # log_saturator already bounded the saturator's sup; the certificate reads its partial sum
    logsat_certificate(sat)
    assert lengths == [16 * next_pow2(2 * _span(sat.poly.truncate(1024), sat.comb.k))] * 4
    lengths.clear()
    witness_certificate(witness, 0.05, sat)
    assert lengths == [16 * next_pow2(2 * _span(diff, sat.comb.k))] * 4

# The full-grid certificates: every site samples its polynomial on all M
# points of a fine grid (at least 8 samples per degree) and masks all M
# points. A grid maximum is a lower bound of the sup and a grid minimum an
# upper bound of the minimum, so they are the oracle that the certified
# bounds must enclose, within their stated slack.


def _logsat_grid(sat):
    """The grid of at least 64 samples per degree and 32 per tooth."""
    k, omega = sat.comb.k, sat.comb.omega
    return max(next_pow2(32 * int(omega * k) + 1), next_pow2(64 * max(k, sat.n)))


def _full_grid_saturator_certificate(poly, params, p, M):
    sig = poly.sample(M)
    mask = DyadicFamily(params).contains(np.arange(M) / M)
    observed = float(np.abs(sig[mask]).min())
    required = 0.25 * saturator_scale(params, p)
    return {"norm": lp_norm(sig, p), "sup_norm": float(np.abs(sig).max()), "min_on_target_set": observed,
            "bound_required": required, "margin": observed - required, "grid": M}


def _full_grid_logsat_certificate(sat, M):
    sup = float(np.abs(sat.poly.sample(M)).max())
    partial = sat.poly.truncate(sat.n).sample(M)
    mask = comb_membership(sat.comb, np.arange(M) / M)
    observed = float(np.abs(partial[mask]).min())
    return {"sup_norm": sup, "partial_sup": float(np.abs(partial).max()), "min_partial_on_comb": observed,
            "margin": observed - sat.target_level, "grid": M}


def _full_grid_witness_certificate(witness, j, eta_j, sat, M):
    diff = witness.truncate(2 * j) - witness.truncate(j)
    sig = diff.sample(M)
    mask = comb_membership(sat.comb, np.arange(M) / M)
    observed = float(np.abs(sig[mask]).min())
    return {"diff_sup": float(np.abs(sig).max()), "min_difference_on_comb": observed,
            "margin": observed - eta_j * math.log(j), "grid": M}


def _assert_encloses(poly, g, half_width, sup, minimum, grid_sup, grid_min, M):
    """sup and minimum enclose the grid values of poly, each within its stated slack.

    The sup bound exceeds the true sup by at most the Ehlich-Zeller factor of
    its K grid, and the M grid reads at least the true sup times that of its
    own (spacing g/M in y). The minimum bound lies at most the Bernstein term
    of its tooth spacing below the true minimum, and the M grid's target
    points, which reach within g/M of every target point, at most
    2 pi s (g/M) sup above it.
    """
    span = _span(poly, g)
    s = (span + 1) // 2
    K = 16 * next_pow2(2 * span)
    slack = ROUNDING_SLACK * np.abs(poly.c).sum()
    assert grid_sup <= sup
    assert sup <= grid_sup / math.sqrt(math.cos(math.pi * span / K) * math.cos(math.pi * span * g / M)) + slack
    if minimum is not None:
        h = 2 * half_width / (K - 2 * s - 2)
        assert minimum <= grid_min
        assert grid_min - minimum <= math.pi * s * (h + 2 * g / M) * sup + slack


@pytest.mark.parametrize("j, alpha", [(j, alpha) for j in range(6, 17) for alpha in (1.5, 2.0, 3.0)
                                      if math.floor(j / alpha) + 1 <= j - 2])
def test_saturator_certificate_matches_the_full_grid(j, alpha):
    params = DyadicFamilyParams(j, alpha)
    M = 8 * (1 << (j + 1))
    for p in (1, 2, math.inf):
        poly = saturator_pj(params, p)
        want = _full_grid_saturator_certificate(poly, params, p, M)
        got = saturator_certificate(poly, params, p)
        assert set(got) == {"norm", "min_on_target_set", "bound_required", "margin"}
        assert got["bound_required"] == want["bound_required"]
        half_width = 2.0 ** (params.J - params.j)
        sup = tooth_bounds(poly, params.center_count).sup
        _assert_encloses(poly, params.center_count, half_width, sup, got["min_on_target_set"],
                         want["sup_norm"], want["min_on_target_set"], M)
        if p == 2:
            assert got["norm"] == pytest.approx(want["norm"], rel=1e-13)  # Parseval on both sides
        elif math.isinf(p):
            assert got["norm"] == sup
        assert got["margin"] == got["min_on_target_set"] - want["bound_required"]


@pytest.mark.parametrize("n", [1 << e for e in range(7, 16)])
def test_logsat_certificate_matches_the_full_grid(n):
    sat = log_saturator(n)
    M = _logsat_grid(sat)
    want = _full_grid_logsat_certificate(sat, M)
    got = logsat_certificate(sat)
    assert set(got) == {"n", "eps_n", "omega", "k", "floored", "sup_norm", "min_partial_on_comb",
                        "target_level", "margin", "points_per_tooth"}
    _assert_encloses(sat.poly, sat.comb.k, None, got["sup_norm"], None, want["sup_norm"], None, M)
    partial = sat.poly.truncate(n)
    _assert_encloses(partial, sat.comb.k, sat.comb.tooth, tooth_bounds(partial, sat.comb.k).sup,
                     got["min_partial_on_comb"], want["partial_sup"], want["min_partial_on_comb"], M)
    assert got["margin"] == got["min_partial_on_comb"] - sat.target_level >= 0.0
    assert sat.grid_M == 16 * next_pow2(2 * _span(sat.poly, sat.comb.k))


@pytest.mark.parametrize("j", [1 << e for e in range(7, 14)])
def test_witness_certificate_matches_the_full_grid(j):
    sat = log_saturator(j)  # j = 1024 has k = 23 teeth, an odd decimation
    base = rademacher_poly(32, trial_rng(DEFAULT_SEED, j)) * 0.05
    w = residual_witness(base, 0.05, sat)
    M = _logsat_grid(sat)
    want = _full_grid_witness_certificate(w, j, 0.05, sat, M)
    got = witness_certificate(w, 0.05, sat)
    diff = w.truncate(2 * j) - w.truncate(j)
    _assert_encloses(diff, sat.comb.k, sat.comb.tooth, tooth_bounds(diff, sat.comb.k).sup,
                     got["min_difference_on_comb"], want["diff_sup"], want["min_difference_on_comb"], M)
    assert got["margin"] == got["min_difference_on_comb"] - 0.05 * math.log(j) >= 0.0
    assert got["points_per_tooth"] == logsat_certificate(sat)["points_per_tooth"]
