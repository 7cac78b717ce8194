"""Dyadic target sets, combs, approximation exponents, box counting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fdl.sets import (
    BoxDimEstimate,
    CombParams,
    DyadicFamilyParams,
    box_dimension,
    comb_membership,
    count_occupied_boxes,
    dyadic_approx_exponent,
    dyadic_family,
    gauge_eval,
    GaugeSpec,
    limsup_membership,
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


def test_smallest_admissible_levels():
    assert smallest_admissible_level(2.0) == 5
    assert smallest_admissible_level(1.5) == 7
    assert smallest_admissible_level(3.0) == 4


def test_membership_geometry():
    params = DyadicFamilyParams(8, 2.0)
    fam = dyadic_family(params)
    centers = fam.centers()
    assert centers.size == 32
    assert fam.contains(centers).all()
    edge = centers[3] + 2.0 ** -8
    assert fam.contains(edge)
    outside = centers[3] + 2.0 ** -8 + 2.0 ** -11
    assert not fam.contains(outside)
    assert fam.contains_doubled(centers[3] + 2.0 ** -7.5)
    assert fam.measure == pytest.approx(2.0 ** (5 - 8 + 1))


def test_membership_wraps_around_the_circle():
    fam = dyadic_family(DyadicFamilyParams(8, 2.0))
    assert fam.contains(1.0 - 2.0 ** -9)


def test_comb_membership_and_measure():
    params = CombParams(8, 4.0)
    assert params.half_width == pytest.approx(1.0 / 64.0)
    assert params.measure == pytest.approx(0.25)
    teeth = np.arange(8) / 8.0
    assert comb_membership(params, teeth).all()
    assert comb_membership(params, teeth[2] + params.half_width)
    assert not comb_membership(params, teeth[2] + 3.0 * params.half_width)


def test_comb_params_validation():
    with pytest.raises(ValueError):
        CombParams(2, 4.0)
    with pytest.raises(ValueError):
        CombParams(8, 1.0)


def test_approx_exponent_fraction_paths():
    assert dyadic_approx_exponent(Fraction(3, 8), 12) == math.inf
    third = dyadic_approx_exponent(Fraction(1, 3), 40)
    assert third == pytest.approx(1.0792481250360577, abs=1e-12)
    lacunary = Fraction(1, 2) + Fraction(1, 4) + Fraction(1, 64) + Fraction(1, 2 ** 24)
    assert dyadic_approx_exponent(lacunary, 12) == pytest.approx(4.0, abs=1e-12)


def test_approx_exponent_float_path_matches_fraction():
    # the closest double to 1/3 drifts from the exact rational at depth 40
    assert dyadic_approx_exponent(1.0 / 3.0, 40) == pytest.approx(1.0792481250360577, abs=1e-9)
    assert dyadic_approx_exponent(0.375, 12) == math.inf


def test_approx_exponent_depth_guard():
    with pytest.raises(ValueError):
        dyadic_approx_exponent(0.3, 3)


def test_approx_exponent_refuses_floats_past_their_resolution():
    # 0.1 is exactly k/2^55 as a float, so a depth-60 float scan would report inf
    with pytest.raises(ValueError, match="Fraction"):
        dyadic_approx_exponent(0.1, 60)
    assert math.isfinite(dyadic_approx_exponent(0.1, 52))
    assert math.isfinite(dyadic_approx_exponent(Fraction(1, 10), 60))


def test_gauge_validation_and_monotonicity():
    spec = GaugeSpec(0.5, 4.0)
    assert gauge_eval(spec, 0.001) < gauge_eval(spec, 0.01) < gauge_eval(spec, 0.1)
    with pytest.raises(ValueError):
        GaugeSpec(1.5, 4.0)
    with pytest.raises(ValueError):
        GaugeSpec(0.5, 3.0)
    with pytest.raises(ValueError):
        gauge_eval(spec, 0.5)


def test_limsup_membership_counts():
    window = range(6, 11)
    family_at = lambda j: dyadic_family(DyadicFamilyParams(j, 2.0))
    assert limsup_membership(family_at, 0.0, window) == len(list(window))
    assert limsup_membership(family_at, 0.5, window) == len(list(window))
    generic = 1.0 / math.pi
    assert limsup_membership(family_at, generic, window) <= 2
    with pytest.raises(ValueError):
        limsup_membership(family_at, 0.0, [])


def test_box_dimension_full_interval_and_point():
    full = box_dimension(lambda xs: np.ones(len(xs), dtype=bool), 4, 10)
    assert full.slope == pytest.approx(1.0, abs=1e-12)
    point = box_dimension(lambda xs: np.abs(xs - 0.37) < 1e-9, 4, 10)
    assert point.slope == pytest.approx(0.0, abs=1e-12)
    empty = box_dimension(lambda xs: np.zeros(len(xs), dtype=bool), 4, 10)
    assert (empty.slope, empty.r2) == (0.0, 1.0)


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


def test_count_occupied_boxes_dilates_cyclically():
    hits = np.zeros(1 << 10, dtype=bool)
    hits[0] = True  # occupies box 0; dilation adds boxes 1 and 2^m - 1
    assert count_occupied_boxes(hits, 4, dilate=False) == 1
    assert count_occupied_boxes(hits, 4) == 3


def test_scale_matched_limsup_cover():
    est = scale_matched_dyadic_counts(2.0, 6, 14)
    assert list(est.counts) == [64, 64, 128, 128, 256, 256, 512, 512, 1024]
    assert est.slope == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        scale_matched_dyadic_counts(2.0, 4, 10)  # below the smallest admissible level


def test_box_dim_estimate_is_plain_data():
    est = BoxDimEstimate(0.5, 0.99, [4, 5], [2, 3])
    assert est.slope == 0.5
