"""Dyadic target sets, combs, box counting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdl.sets import (
    BoxDimEstimate,
    CombParams,
    DyadicFamily,
    DyadicFamilyParams,
    GridOracle,
    _box_fit,
    _probe_exponent,
    _probe_hits,
    box_dimension,
    comb_membership,
    count_occupied_boxes,
    middle_thirds_cantor,
    scale_matched_dyadic_counts,
    smallest_admissible_level,
)


def test_family_params_center_levels():
    assert DyadicFamilyParams(8, 2.0).J == 5
    assert DyadicFamilyParams(10, 2.0).J == 6
    assert DyadicFamilyParams(9, 1.5).J == 7
    assert DyadicFamilyParams(12, 3.0).J == 5


def test_family_params_admissibility():
    with pytest.raises(ValueError):
        DyadicFamilyParams(4, 2.0)  # J = 3 > j - 2
    with pytest.raises(ValueError):
        DyadicFamilyParams(8, 1.0)
    with pytest.raises(ValueError):
        DyadicFamilyParams(0, 2.0)


def _smallest_admissible_level_by_steps(alpha):
    """The step-by-step search over j, kept as an oracle."""
    j = 3
    while math.floor(j / alpha) + 1 > j - 2:
        j += 1
    return j


def test_smallest_admissible_levels():
    assert smallest_admissible_level(2.0) == 5
    assert smallest_admissible_level(1.5) == 7
    assert smallest_admissible_level(3.0) == 4
    alphas = np.concatenate([1.001 + np.geomspace(1e-9, 0.05, 1000), np.linspace(1.05, 10.0, 2000)])
    for alpha in alphas:
        assert smallest_admissible_level(alpha) == _smallest_admissible_level_by_steps(alpha), alpha
    assert smallest_admissible_level(1.0 + 1e-8) == 200000005  # the step search takes about 2e8 steps
    with pytest.raises(ValueError, match="exceed 1"):
        smallest_admissible_level(1.0)


def test_membership_geometry():
    params = DyadicFamilyParams(8, 2.0)
    fam = DyadicFamily(params)
    centers = np.arange(params.center_count) / params.center_count
    assert centers.size == 32
    assert fam.contains(centers).all()
    edge = centers[3] + 2.0 ** -8
    assert fam.contains(edge)
    outside = centers[3] + 2.0 ** -8 + 2.0 ** -11
    assert not fam.contains(outside)
    # the union's measure: 2^J intervals of length 2^(1-j)
    assert params.center_count * 2.0 ** (1 - params.j) == 2.0 ** (5 - 8 + 1)


def test_membership_wraps_around_the_circle():
    fam = DyadicFamily(DyadicFamilyParams(8, 2.0))
    assert fam.contains(1.0 - 2.0 ** -9)


def test_comb_membership_and_measure():
    params = CombParams(8, 4.0)
    assert params.half_width == pytest.approx(1.0 / 64.0)
    assert params.tooth == params.half_width * params.k == 0.125  # the half-width in y = k x
    assert params.k * 2.0 * params.half_width == pytest.approx(1.0 / params.omega)  # the comb's measure
    teeth = np.arange(8) / 8.0
    assert comb_membership(params, teeth).all()
    assert comb_membership(params, teeth[2] + params.half_width)
    assert not comb_membership(params, teeth[2] + 3.0 * params.half_width)


def test_comb_params_validation():
    with pytest.raises(ValueError):
        CombParams(2, 4.0)
    with pytest.raises(ValueError):
        CombParams(8, 1.0)
    with pytest.raises(ValueError, match="at least log k"):  # disjoint teeth (omega > 1), but omega < log k
        CombParams(100, 2.0)


def test_box_dimension_full_interval_and_point():
    full = box_dimension(lambda xs: np.ones(len(xs), dtype=bool), 4, 10)
    assert full.slope == pytest.approx(1.0, abs=1e-12)
    point = box_dimension(lambda xs: np.abs(xs - 0.37) < 1e-9, 4, 10)
    assert point.slope == pytest.approx(0.0, abs=1e-12)
    empty = box_dimension(lambda xs: np.zeros(len(xs), dtype=bool), 4, 10)
    assert (empty.slope, empty.r2) == (0.0, 1.0)


def test_box_dimension_refuses_an_oracle_of_the_wrong_shape():
    # m_hi = 10 probes 2^18 box centers in one chunk
    with pytest.raises(ValueError, match=r"shape \(\) for probes of shape \(262144,\)"):
        box_dimension(lambda xs: True, 4, 10)
    with pytest.raises(ValueError, match=r"shape \(524288,\) for probes of shape \(262144,\)"):
        box_dimension(lambda xs: np.ones(2 * xs.size, dtype=bool), 4, 10)


def test_box_dimension_validation():
    oracle = lambda xs: np.ones(len(xs), dtype=bool)
    with pytest.raises(ValueError):
        box_dimension(oracle, 3, 10)
    with pytest.raises(ValueError):
        box_dimension(oracle, 10, 10)
    with pytest.raises(ValueError):
        box_dimension(oracle, 4, 21)


def test_cantor_counts_frozen():
    est = box_dimension(middle_thirds_cantor(10), 4, 10)
    assert list(est.counts) == [14, 22, 38, 60, 100, 148, 230]
    assert est.slope == pytest.approx(0.6789420556062413, abs=1e-9)
    assert est.scales == list(range(4, 11))
    with pytest.raises(ValueError, match="depth must be positive"):
        middle_thirds_cantor(0)


def test_count_occupied_boxes_dilates_cyclically():
    hits = np.zeros(1 << 10, dtype=bool)
    hits[0] = True  # occupies box 0; dilation adds boxes 1 and 2^m - 1
    assert count_occupied_boxes(hits, 4) == 3


def _grouped_box_count(hits, m):
    """The box count as it stood before the scales were coarsened pairwise: each
    scale groups the hits afresh, kept as an oracle."""
    occ = hits.reshape(1 << m, -1).any(axis=1)
    return int((occ | np.roll(occ, 1) | np.roll(occ, -1)).sum())


@pytest.mark.parametrize("size, m", [(48, 4), (8, 4), (0, 4), (3 << 10, 6), ((1 << 12) + 1, 12)])
def test_count_occupied_boxes_refuses_hits_that_are_not_2_to_the_P_ge_m(size, m):
    # 48 hits at m = 4 would group by 3, which are not dyadic boxes; 8 cannot fill 16 boxes
    with pytest.raises(ValueError, match=rf"scale {m} need 2\^P hits with P >= {m}, got {size}$"):
        count_occupied_boxes(np.ones(size, dtype=bool), m)


def test_count_occupied_boxes_is_the_grouped_count_at_every_scale():
    rng = np.random.default_rng(3)
    for P in range(13):
        for density in (0.0, 0.01, 0.3, 1.0):
            hits = rng.random(1 << P) < density
            for m in range(P + 1):
                assert count_occupied_boxes(hits, m) == _grouped_box_count(hits, m), (P, density, m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=st.one_of(st.integers(16, 1 << 16), st.sampled_from([16, 1 << 10, (1 << 16) - 1, 1 << 16])),
       kind=st.sampled_from(["random", "empty", "full", "first", "last", "ends"]),
       density=st.sampled_from([1e-4, 0.01, 0.2, 0.7]), seed=st.integers(0, 2**32 - 1),
       m_hi=st.integers(5, 20))
def test_box_counts_are_the_grouped_counts_for_every_scale_pair(grid, kind, density, seed, m_hi):
    # the marks at index 0 and G - 1 sit in the first and last boxes, which the dilation wraps onto each other
    mask = np.random.default_rng(seed).random(grid) < density if kind == "random" else np.full(grid, kind == "full")
    mask[0] |= kind in ("first", "ends")
    mask[-1] |= kind in ("last", "ends")
    oracle = GridOracle(mask)
    occ = _probe_hits(oracle, _probe_exponent(m_hi, grid), m_hi)
    grouped = {m: _grouped_box_count(occ, m) for m in range(4, m_hi + 1)}
    for m_lo in range(4, m_hi):
        scales = list(range(m_lo, m_hi + 1))
        est = box_dimension(oracle, m_lo, m_hi)
        assert est.counts == [grouped[m] for m in scales]
        assert est == _box_fit(scales, [grouped[m] for m in scales])
    assert [count_occupied_boxes(occ, m) for m in grouped] == list(grouped.values())


def test_probe_hits_collapse_each_chunk_into_its_boxes():
    # 2^22 probes run in four chunks; the occupancy is that of the whole hit vector
    oracle = middle_thirds_cantor(12)
    n = 1 << 22
    hits = oracle((np.arange(n) + 0.5) / n)
    for m in (4, 16, 21):
        assert np.array_equal(_probe_hits(oracle, 22, m), hits.reshape(1 << m, -1).any(axis=1))


def test_grid_oracle_answers_from_its_mask_only_below_its_probe_count():
    mask = np.arange(1 << 10) % 4 == 1
    grid = GridOracle(mask)
    assert np.array_equal(grid(np.array([0.0, 1 / 1024, 0.9999])), [False, True, False])
    for exponent in (10, 11, 12):  # 2^10 probes are ties, so those are evaluated
        assert np.array_equal(_probe_hits(grid, exponent, 8), _probe_hits(lambda xs: grid(xs), exponent, 8))
    assert not _probe_hits(grid, 10, 8).any()
    assert box_dimension(grid, 4, 8).counts == [1 << m for m in range(4, 9)]


def test_grid_oracle_reduces_points_mod_1_and_refuses_non_finite():
    mask = np.arange(1 << 10) % 4 == 1
    grid = GridOracle(mask)
    # x - floor(x) is exact: -1023/1024 reads index 1, a huge x reads index 0, and -1e-20 rounds to 1 = index 0
    assert np.array_equal(grid(np.array([-1023 / 1024, 1e300, -1e-20, 5 + 1 / 1024])), [True, False, False, True])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            grid(np.array([0.5, bad]))


def test_scale_matched_limsup_cover():
    est = scale_matched_dyadic_counts(2.0, 6, 14)
    assert list(est.counts) == [64, 64, 128, 128, 256, 256, 512, 512, 1024]
    assert est.slope == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        scale_matched_dyadic_counts(2.0, 4, 10)  # below the smallest admissible level


@pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3])
def test_scale_matched_counts_are_the_probed_family_counts(alpha):
    # oracle: the level-m family probed at 2^(m+6) box centres and dilated
    m_lo = max(4, smallest_admissible_level(alpha))
    est = scale_matched_dyadic_counts(alpha, m_lo, 13)
    probed = [count_occupied_boxes(_probe_hits(DyadicFamily(DyadicFamilyParams(m, alpha)).contains, m + 6, m), m)
              for m in est.scales]
    assert list(est.counts) == probed


def test_box_dim_estimate_is_plain_data():
    est = BoxDimEstimate(0.5, 0.99, [4, 5], [2, 3])
    assert est.slope == 0.5
