"""End-to-end acceptance: ten numbered certificates, one test per criterion.

Each test prints a single verdict line and enforces its runtime budget, so
`pytest -v tests/test_acceptance.py` reads as a checklist. Tolerances are
pinned; random inputs are fully determined by the library seed discipline.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import fdl.cli as cli
from fdl.analysis import (
    ProbeConfig,
    divergence_profile,
    dyadic_schedule,
    partial_sums_at,
    prevalence_probe,
)
from fdl.construct import (
    disjoint_family,
    log_saturator,
    logsat_certificate,
    saturator_certificate,
    saturator_pj,
)
from fdl.sets import (
    DyadicFamilyParams,
    box_dimension,
    middle_thirds_cantor,
    scale_matched_dyadic_counts,
)
from fdl.trig import SpectrumInterval, TrigPoly, fejer_mean, grid_for_degree
from fdl.util import DEFAULT_SEED, trial_rng
from fdl.verify import dirichlet_rows, holo_sweep, maximal_rows, rademacher_poly, check_localization


@contextmanager
def criterion(number: int, name: str, budget_s: float | None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    over = budget_s is not None and elapsed > budget_s
    print(f"criterion {number:02d} {name}: {'FAIL' if over else 'PASS'} ({elapsed:.1f}s)")
    assert not over, f"runtime {elapsed:.1f}s exceeded the {budget_s}s budget"


def test_01_fourier_engine():
    with criterion(1, "fourier engine exactness", 10.0):
        rng = trial_rng(DEFAULT_SEED, 100)
        degrees = rng.integers(1, 4097, size=100)
        xs = rng.uniform(0.0, 1.0, 8)
        for d in degrees:
            d = int(d)
            nfreq = int(min(2 * d + 1, 129))
            ks = rng.choice(np.arange(-d, d + 1), size=nfreq, replace=False)
            cs = rng.normal(size=nfreq) + 1j * rng.normal(size=nfreq)
            f = TrigPoly({int(k): complex(c) for k, c in zip(ks, cs)})

            sig = f.sample(grid_for_degree(d))
            energy = float(np.mean(np.abs(sig) ** 2))
            exact = float(sum(abs(c) ** 2 for _, c in f.items()))
            assert abs(energy - exact) <= 1e-10 * exact

            n = int(rng.integers(0, d + 1))
            m = int(rng.integers(0, d + 1))
            assert f.truncate(n).truncate(m) == f.truncate(min(n, m))

            averaged = (f.coeff(0) + partial_sums_at(f, xs, list(range(1, 32))).sum(axis=1)) / 32.0
            multiplier = fejer_mean(f, 32).evaluate(xs)
            assert np.max(np.abs(multiplier - averaged)) < 1e-12


def test_02_saturator_certificates():
    with criterion(2, "dyadic-set saturator certificates", 60.0):
        for j in range(8, 17):
            for alpha in (1.5, 2.0, 3.0):
                params = DyadicFamilyParams(j, alpha)
                for p in (1, 2, math.inf):
                    poly = saturator_pj(params, p)
                    cert = saturator_certificate(poly, params, p)
                    assert cert["norm"] <= 1.0 + 1e-9, (j, alpha, p)
                    assert cert["margin"] >= 0.0, (j, alpha, p)


def test_03_holo_kernel_bounds():
    with criterion(3, "pole-comb kernel bounds", 120.0):
        report, bounds = holo_sweep([8, 16, 32, 64, 128, 256], M=1 << 14)
        assert report.worst_ratio <= 1.0 + 1e-6
        for b in bounds:
            assert b.min_re > 0.0
            assert b.f0_error <= 1e-12
        c2s = [b.c2 for b in bounds]
        c3s = [b.c3 for b in bounds]
        assert max(c2s) / min(c2s) < 2.0
        assert max(c3s) / min(c3s) < 2.0


def test_04_log_saturators():
    with criterion(4, "log-rate saturator certificates", 600.0):
        for e in range(10, 15):
            n = 1 << e
            sat = log_saturator(n)
            assert sat.floored
            window = SpectrumInterval(1, 2 * n - 1)
            assert window.contains_spectrum(sat.poly), n
            cert = logsat_certificate(sat)
            assert cert["sup_norm"] <= 1.0 + 1e-9, n
            assert cert["margin"] >= 0.0, n
            assert cert["points_per_tooth"] >= 32, n


def test_05_weak_maximal_stability():
    with criterion(5, "weak maximal inequality stability", 300.0):
        scales = [256, 512, 1024, 2048, 4096, 8192]
        report, rows = maximal_rows(8192, 0.5, 17, scales=scales)
        assert len(rows) == 17 * len(scales)  # 102 polynomials, over the required 100
        trend = dict(report.scale_trend)
        for a, b in zip(scales, scales[1:]):
            factor = trend[b] / trend[a]
            assert 0.5 < factor < 2.0, (a, b, factor)

        d_report, d_rows = dirichlet_rows(8192, "greedy", 2)
        fitted = d_report.fitted_constant
        assert max(r[3] for r in d_rows) <= 1.1 * fitted


def test_06_localization_family():
    with criterion(6, "peak localization lower bound", 120.0):
        family = [TrigPoly.dirichlet(64), saturator_pj(DyadicFamilyParams(8, 2.0), 2)]
        family += [rademacher_poly(256, trial_rng(DEFAULT_SEED, 7000 + t)) for t in range(20)]
        ratios = []
        for f in family:
            M = grid_for_degree(f.degree)
            sig = f.sample(M)
            a = float(np.argmax(np.abs(sig))) / M
            n = f.degree
            for p in (1, 2):
                for length in (1.0 / n, 0.5 / n):
                    ratios.append(check_localization(f, a, length, p, 0.5))
        assert len(ratios) == 88
        assert min(ratios) >= 0.01


def test_07_box_dimension_oracles():
    with criterion(7, "box-dimension oracle equivalence", 30.0):
        full = box_dimension(lambda xs: np.ones(len(xs), dtype=bool), 4, 12)
        assert abs(full.slope - 1.0) <= 0.02
        point = box_dimension(lambda xs: np.abs(xs - 0.5) < 1e-12, 4, 12)
        assert abs(point.slope) <= 0.02
        cantor = box_dimension(middle_thirds_cantor(10), 4, 12)
        assert abs(cantor.slope - 0.631) <= 0.05
        matched = scale_matched_dyadic_counts(2.0, 6, 14)
        assert abs(matched.slope - 0.5) <= 0.1


def test_08_divergence_index():
    with criterion(8, "divergence index at dyadic centers", 300.0):
        g1 = disjoint_family(3, 2.0, 2.0, 14).member(1)
        schedule = dyadic_schedule(6, 18)
        centers = np.concatenate([(2 * np.arange(16) + 1) / 32.0,
                                  (2 * np.arange(16) + 1) / 64.0])
        betas, _ = divergence_profile(g1, centers, schedule)
        assert betas.size == 32
        assert betas.min() >= 0.2

        panels_passed = 0
        for s in range(10):
            xs = trial_rng(DEFAULT_SEED, 8000 + s).uniform(0.0, 1.0, 32)
            off_betas, _ = divergence_profile(g1, xs, schedule)
            if float(np.mean(off_betas <= 0.1)) >= 0.9:
                panels_passed += 1
        assert panels_passed >= 9


def test_09_prevalence_probe():
    with criterion(9, "finite-scale prevalence probe", 600.0):
        cfg = ProbeConfig()
        res0 = prevalence_probe(TrigPoly(), cfg)
        assert res0.fraction >= 0.95
        assert not res0.forced_zero_success  # nothing grows without a perturbation
        assert res0.forced_unit_success

        f = rademacher_poly(256, trial_rng(DEFAULT_SEED, 9000))
        resf = prevalence_probe(f, cfg)
        assert resf.fraction >= 0.95
        assert resf.forced_unit_success


def test_10_determinism(tmp_path):
    with criterion(10, "byte-identical reruns", None):
        pj_out = tmp_path / "pj.json"
        commands = [
            ["construct", "pj", "--j", "8", "--alpha", "2", "--p", "2",
             "--out", str(pj_out)],
            ["verify", "maximal", "--N", "256", "--trials", "3",
             "--out", str(tmp_path / "max.json"), "--csv", str(tmp_path / "max.csv")],
            ["verify", "dirichlet", "--N", "256", "--trials", "2",
             "--out", str(tmp_path / "dir.json")],
            ["probe", "prevalence", "--s", "2", "--jmax", "7", "--trials", "4",
             "--depth", "2", "--out", str(tmp_path / "probe.json")],
        ]
        outputs = {
            0: [pj_out],
            1: [tmp_path / "max.json", tmp_path / "max.csv"],
            2: [tmp_path / "dir.json"],
            3: [tmp_path / "probe.json"],
        }
        for i, argv in enumerate(commands):
            assert cli.run(argv) == 0, argv
            first = [path.read_bytes() for path in outputs[i]]
            assert cli.run(argv) == 0, argv
            second = [path.read_bytes() for path in outputs[i]]
            assert first == second, argv

        level_argv = ["analyze", "levelset", "--in", str(pj_out), "--beta", "0.0",
                      "--grid", "1024", "--smlo", "6", "--smhi", "10",
                      "--mlo", "4", "--mhi", "8", "--csv", str(tmp_path / "level.csv")]
        assert cli.run(level_argv) == 0
        first = (tmp_path / "level.csv").read_bytes()
        assert cli.run(level_argv) == 0
        assert (tmp_path / "level.csv").read_bytes() == first
