"""Command-line contract: JSON/CSV layout, precedence, exit codes, determinism."""

import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fdl.cli as cli
import fdl.construct
import fdl.util
from fdl.analysis import DivergenceEstimate
from fdl.construct import holo_kernel, log_saturator, residual_witness
from fdl.sets import CombParams
from fdl.trig import TrigPoly
from fdl.util import next_pow2
from fdl.verify import VerificationReport, holo_rows


def run_ok(argv):
    code = cli.run(argv)
    assert code == 0, f"expected success for {argv}, got {code}"


def test_construct_pj_json_contract(tmp_path):
    out = tmp_path / "pj.json"
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2", "--out", str(out)])
    text = out.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert "coeffs" in data
    assert data["certificates"]["margin"] >= 0.0
    block = data["config"]
    assert block["command"] == "construct" and block["subcommand"] == "pj"
    assert block["seed"] == 20127
    assert not {"threads", "out", "csv"} & set(block)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == text


def test_infinite_p_serializes_as_string(tmp_path):
    out = tmp_path / "pj.json"
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "inf", "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["config"]["p"] == "inf"


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.run(["construct", "pj", "--alpha", "2", "--p", "2"]) == 1


def test_unknown_command_is_usage_error():
    assert cli.run(["destruct", "pj"]) == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    rows = tmp_path / "rows.csv"
    assert cli.run(["verify", "maximal", "--N", "16", "--trials", "1", "--threads", threads, "--csv", str(rows)]) == 1
    assert capsys.readouterr().err.startswith("error: --threads must be at least 1")
    assert not rows.exists()


def test_threads_above_one_only_where_a_pool_runs(tmp_path, capsys):
    pools = {key for key, entry in cli._COMMANDS.items() if entry.pool}
    assert pools == {("verify", "nikolsky"), ("verify", "derivative"), ("verify", "localization")}
    out = tmp_path / "pj.json"
    assert cli.run(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2", "--threads", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --threads must be 1: construct pj runs no worker pool, got 4\n"
    assert not out.exists()
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2", "--threads", "1", "--out", str(out)])


def test_domain_validation_maps_to_exit_1(tmp_path, capsys):
    out = tmp_path / "d.json"
    code = cli.run(["verify", "dirichlet", "--N", "3", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_assertion_failure_maps_to_exit_2(monkeypatch, capsys):
    def boom(cfg, threads):
        raise AssertionError("certificate broke")

    monkeypatch.setitem(cli._COMMANDS, ("construct", "pj"), cli._COMMANDS[("construct", "pj")]._replace(handler=boom))
    code = cli.run(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2"])
    assert code == 2
    assert "assertion failed" in capsys.readouterr().err


def test_an_error_without_a_message_prints_its_type(monkeypatch, capsys):
    def out_of_memory(cfg, threads):
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, ("construct", "pj"),
                        cli._COMMANDS[("construct", "pj")]._replace(handler=out_of_memory))
    assert cli.run(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2"]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_help_exits_zero():
    assert cli.run(["--help"]) == 0
    assert cli.run(["construct", "--help"]) == 0


def test_verify_maximal_csv_shape(tmp_path):
    csv_path = tmp_path / "rows.csv"
    run_ok(["verify", "maximal", "--N", "64", "--trials", "3", "--csv", str(csv_path)])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,seed,scale,ratio"
    assert len(lines) == 1 + 12  # 3 trials x 4 dyadic scales
    assert all(line.split(",")[1] == "20127" for line in lines[1:])


def test_seed_precedence_env_file_flag(tmp_path, monkeypatch):
    def recorded_seed(extra):
        out = tmp_path / "run.json"
        run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2",
                "--out", str(out)] + extra)
        return json.loads(out.read_text())["config"]["seed"]

    monkeypatch.setenv("FDL_SEED", "99")
    assert recorded_seed([]) == 99
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 5\n")
    assert recorded_seed(["--config", str(conf)]) == 5
    assert recorded_seed(["--config", str(conf), "--seed", "7"]) == 7


def test_runs_share_one_parser_and_keep_their_own_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("FDL_SEED", raising=False)

    def recorded_config(argv):
        out = tmp_path / "run.json"
        run_ok(argv + ["--out", str(out)])
        return json.loads(out.read_text())["config"]

    pj = ["construct", "pj", "--j", "6", "--p", "2"]
    probe = ["probe", "prevalence", "--s", "2", "--jmax", "7", "--trials", "2", "--depth", "2"]
    first = recorded_config(pj + ["--alpha", "3", "--seed", "7"])
    second = recorded_config(probe + ["--alpha", "2.5", "--p", "3"])
    third = recorded_config(pj + ["--alpha", "2"])
    fourth = recorded_config(probe)
    assert (first["alpha"], first["seed"]) == (3.0, 7)
    assert (second["alpha"], second["p"], second["seed"]) == (2.5, 3.0, 20127)
    assert (third["alpha"], third["seed"]) == (2.0, 20127)
    assert (fourth["alpha"], fourth["p"], fourth["s"]) == (2.0, 2.0, 2)
    assert cli._build_parser() is cli._build_parser()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("twist = 3\n")
    code = cli.run(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2",
                    "--config", str(conf)])
    assert code == 1


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "probe.json"
    argv = ["probe", "prevalence", "--s", "2", "--jmax", "7", "--trials", "2",
            "--depth", "2", "--out", str(out)]
    run_ok(argv)
    first = out.read_bytes()
    run_ok(argv)
    assert out.read_bytes() == first


def test_verify_localization_writes_the_same_bytes_on_two_threads(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        out, table = tmp_path / f"loc{threads}.json", tmp_path / f"loc{threads}.csv"
        run_ok(["verify", "localization", "--N", "64", "--trials", "3", "--threads", threads,
                "--out", str(out), "--csv", str(table)])
        outputs.append((out.read_bytes(), table.read_bytes()))
    assert outputs[0] == outputs[1]


def test_threads_default_to_one_and_only_an_explicit_value_builds_a_pool(tmp_path, monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(fdl.util, "ThreadPoolExecutor", RecordingPool)
    argv = ["verify", "localization", "--N", "64", "--trials", "3", "--csv", str(tmp_path / "loc.csv")]
    run_ok(argv)
    assert pools == []
    run_ok(argv + ["--threads", "2"])
    assert pools == [2]


def test_out_and_csv_naming_one_file_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.run(["verify", "maximal", "--N", "16", "--trials", "1",
                    "--out", "same.txt", "--csv", str(tmp_path / "same.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --out and --csv name the same file")
    assert not (tmp_path / "same.txt").exists()


def test_config_file_skips_blank_and_comment_lines_and_refuses_a_line_without_equals(tmp_path, capsys):
    conf, out = tmp_path / "run.conf", tmp_path / "run.json"
    conf.write_text("\n# alpha = 9\n   \nalpha = 3  # the only entry\n\n")
    argv = ["construct", "pj", "--j", "6", "--p", "2", "--config", str(conf), "--out", str(out)]
    run_ok(argv)
    assert json.loads(out.read_text())["config"]["alpha"] == 3.0
    conf.write_text("alpha = 3\nseed\n")
    out.unlink()
    assert cli.run(argv) == 1
    assert capsys.readouterr().err == "error: config line without '=': 'seed'\n"
    assert not out.exists()


def test_config_file_rejects_a_key_set_twice(tmp_path, capsys):
    conf = tmp_path / "twice.conf"
    conf.write_text("alpha = 2\nalpha = 3\n")
    out = tmp_path / "twice.json"
    code = cli.run(["construct", "pj", "--j", "6", "--p", "2", "--config", str(conf), "--out", str(out)])
    assert code == 1
    assert "'alpha' is set twice" in capsys.readouterr().err
    assert not out.exists()


def test_probe_payload_keys(tmp_path):
    out = tmp_path / "probe.json"
    run_ok(["probe", "prevalence", "--s", "2", "--jmax", "7", "--trials", "2",
            "--depth", "2", "--out", str(out)])
    data = json.loads(out.read_text())
    for key in ("fraction", "trials", "failures", "forced_zero_success",
                "forced_unit_success", "rate_gap", "size_condition_met", "config"):
        assert key in data
    assert isinstance(data["failures"], list)


def test_analyze_chain_runs_on_constructed_poly(tmp_path):
    poly_path = tmp_path / "g.json"
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2",
            "--out", str(poly_path)])

    index_path = tmp_path / "index.json"
    run_ok(["analyze", "index", "--in", str(poly_path), "--x", "0.03125",
            "--mlo", "6", "--mhi", "10", "--out", str(index_path)])
    idx = json.loads(index_path.read_text())
    for key in ("beta_hat", "r2", "vanishing", "schedule", "envelope", "config"):
        assert key in idx
    assert idx["schedule"] == [64, 128, 256, 512, 1024]

    level_csv = tmp_path / "level.csv"
    run_ok(["analyze", "levelset", "--in", str(poly_path), "--beta", "0.0",
            "--grid", "1024", "--smlo", "6", "--smhi", "10",
            "--mlo", "4", "--mhi", "8", "--csv", str(level_csv)])
    lines = level_csv.read_text().splitlines()
    assert lines[0] == "scale_exponent,m_boxes_occupied"
    assert len(lines) == 1 + 5


def test_spectrum_rejects_bad_arguments(tmp_path):
    poly_path = tmp_path / "g.json"
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2",
            "--out", str(poly_path)])
    assert cli.run(["analyze", "spectrum", "--in", str(poly_path), "--p", "inf"]) == 1
    assert cli.run(["analyze", "spectrum", "--in", str(poly_path), "--p", "2",
                    "--steps", "0"]) == 1


@pytest.mark.parametrize("argv, flag", [
    # 2^1100 has no float, so neither has its log; 2^1023 is the largest power of two that does
    ("analyze index --in g.json --x 0.1 --mhi 1100", "--mlo/--mhi"),
    ("analyze levelset --in g.json --beta 0.2 --smhi 1100", "--smlo/--smhi"),
    ("analyze spectrum --in g.json --p 2 --smhi 1100", "--smlo/--smhi"),
    ("analyze index --in g.json --x 0.1 --mlo 0", "--mlo/--mhi"),
    ("analyze spectrum --in g.json --p 2 --steps 9223372036854775808", "--steps"),
    ("analyze spectrum --in g.json --p 2 --steps 10001", "--steps"),
    ("analyze spectrum --in g.json --p 2 --steps 0", "--steps"),
    # the interval 2.5e-321 has a subnormal trapezoid step, which rounds the 513 points apart
    ("verify localization --N 4 --trials 1 --p 2 --ifrac 1e-320", "--ifrac"),
    # refused before any work: past 2^20 trials a row would reuse another scale's random stream,
    # past 2^53 a frequency has no exact phase, past 2^52 neither has a Dirichlet order 2N + 1
    ("verify maximal --N 64 --trials 4611686018427387904", "2^20"),
    ("verify dirichlet --N 9223372036854775808", "2^52"),
    ("construct family --s 4611686018427387904 --alpha 2 --p 2 --jmax 8", "2^53"),
    ("construct pj --j 53 --alpha 2 --p 2", "2^53"),
    ("probe prevalence --s 4611686018427387904", "2^53"),
    ("probe prevalence --jmax 70", "2^53"),
    ("probe prevalence --depth 4611686018427387904", "depth must lie in 1..53"),
    ("analyze levelset --in g.json --beta 0.2 --grid 2147483648", "2^31"),
    ("construct holo --k 16 --grid 9223372036854775808", "2^63"),
])
def test_refusals_name_their_flag(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2", "--out", "g.json"])
    assert cli.run(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == ""


def test_largest_schedule_exponents_are_accepted(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_ok(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2", "--out", "g.json"])
    run_ok("analyze index --in g.json --x 0.1 --mlo 1021 --mhi 1023".split())
    assert json.loads(capsys.readouterr().out)["schedule"] == [1 << 1021, 1 << 1022, 1 << 1023]


def test_construct_family_payload(tmp_path):
    out = tmp_path / "family.json"
    argv = ["construct", "family", "--s", "2", "--alpha", "2", "--p", "2", "--jmax", "6"]
    run_ok(argv + ["--out", str(out)])
    data = json.loads(out.read_text())
    assert set(data) == {"members", "blocks", "tail_norm_bound", "freq_constant", "config"}
    assert len(data["members"]) == 2 and "grid" not in data["config"]
    assert cli.run(argv + ["--grid", "4096"]) == 1


def test_construct_holo_payload(tmp_path):
    out = tmp_path / "holo.json"
    run_ok(["construct", "holo", "--k", "16", "--grid", "64", "--out", str(out)])
    data = json.loads(out.read_text())
    assert set(data) == {"M", "samples", "certificates", "config"}
    assert data["M"] == 64
    assert len(data["samples"]) == 64 and all(len(pair) == 2 for pair in data["samples"])
    got = np.array([complex(re, im) for re, im in data["samples"]])
    want = holo_kernel(CombParams(16, CombParams.default_omega(16)), np.exp(2j * np.pi * np.arange(64) / 64))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert set(data["certificates"]) == {"k", "omega", "c1", "c2", "c3", "c4", "min_re", "f0_error", "grid"}


def test_construct_holo_evaluates_the_boundary_once(tmp_path, monkeypatch):
    calls = []
    holo_boundary = fdl.construct.holo_boundary

    def counted(params, M):
        calls.append(M)
        return holo_boundary(params, M)

    for module in (cli, fdl.construct):  # fdl.verify evaluates only the comb points, by holo_kernel
        monkeypatch.setattr(module, "holo_boundary", counted)
    run_ok(["construct", "holo", "--k", "128", "--out", str(tmp_path / "holo.json")])
    assert calls == [1 << 14]


def _transform_lengths(monkeypatch):
    """Records the length of every FFT and inverse FFT: n, or else the size of the last axis, which
    the callers transform (len would give the row count of a batch of rows)."""
    lengths = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def counted(a, n=None, *args, _transform=transform, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return _transform(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return lengths


def _decimated_K(poly, g):
    """16 next_pow2(2 span), span the spread of the spectrum in steps of g."""
    return 16 * next_pow2(2 * int(poly.k[-1] - poly.k[0]) // g)


def test_construct_logsat_samples_on_its_grid_once_per_polynomial(tmp_path, monkeypatch):
    sat = log_saturator(1024)  # k = 23 teeth: an odd decimation
    base = TrigPoly({0: 1.0, 3: 0.25})
    (tmp_path / "base.json").write_text(json.dumps(base.to_json_dict()))
    diff = residual_witness(base, 0.05, sat)
    diff = diff.truncate(2048) - diff.truncate(1024)
    k = sat.comb.k
    K_sat, K_partial, K_diff = (_decimated_K(sat.poly, k), _decimated_K(sat.poly.truncate(1024), k),
                                _decimated_K(diff, k))
    assert sat.grid_M == K_sat
    lengths = _transform_lengths(monkeypatch)
    # the saturator's sup bound, then its partial sum: its sup bound and the tooth's three chirp-z transforms
    run_ok(["construct", "logsat", "--n", "1024", "--out", str(tmp_path / "sat.json")])
    assert lengths == [K_sat] + [K_partial] * 4
    lengths.clear()
    run_ok(["construct", "witness", "--j", "1024", "--eta", "0.05", "--in", str(tmp_path / "base.json"),
            "--out", str(tmp_path / "witness.json")])
    assert lengths == [K_sat] + [K_diff] * 4


@pytest.mark.parametrize("argv", [["construct", "pj", "--j", "8", "--alpha", "2", "--p", "2"],
                                  ["construct", "logsat", "--n", "1024"]])
def test_construct_pj_and_logsat_take_no_grid(tmp_path, argv):
    run_ok(argv + ["--out", str(tmp_path / "ok.json")])
    data = json.loads((tmp_path / "ok.json").read_text())
    assert "grid" not in data["config"] and "grid" not in data["certificates"]
    assert cli.run(argv + ["--grid", "1048576", "--out", str(tmp_path / "grid.json")]) == 1
    assert not (tmp_path / "grid.json").exists()


def test_construct_pj_sup_norm_is_proved_at_every_level(tmp_path):
    for j in range(8, 17):
        out = tmp_path / f"pj{j}.json"
        run_ok(["construct", "pj", "--alpha", "2", "--p", "inf", "--j", str(j), "--out", str(out)])
        cert = json.loads(out.read_text())["certificates"]
        assert cert["norm"] <= 0.97 and cert["margin"] >= 0.0, j


def test_verify_holo_csv_rows_are_holo_rows(tmp_path):
    rows_csv = tmp_path / "holo.csv"
    run_ok(["verify", "holo", "--N", "100", "--grid", "4096", "--seed", "7", "--csv", str(rows_csv)])
    _, rows = holo_rows(100, 4096, 7)
    assert rows_csv.read_text().splitlines() == ["trial,seed,scale,ratio"] + [
        f"{i},{seed},{k},{c4:.12g}" for i, seed, k, c4 in rows]


def test_missing_input_file_maps_to_exit_1(tmp_path):
    assert cli.run(["analyze", "index", "--in", str(tmp_path / "absent.json"),
                    "--x", "0.5"]) == 1


@pytest.mark.parametrize("payload", [
    {"coeffs": 5},
    {"coeffs": [[1, "a", 0]]},
    {"coeffs": [[1, math.nan, 0.0]]},
    {"coeffs": [[1, 1.0, math.inf]]},
    {"coeffs": [[10**30, 1.0, 0.0]]},
    {"coeffs": [[1, 1.0, 0.0], [1, 2.0, 0.0]]},
    [],
    {},
])
def test_malformed_coefficient_json_maps_to_exit_1(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["analyze", "index", "--in", str(path), "--x", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_analyze_index_at_a_huge_integer_point_reads_the_value_at_0(tmp_path):
    poly_path = tmp_path / "g.json"
    poly_path.write_text(json.dumps({"coeffs": [[3, 1.0, 0.0], [100000, 0.5, 0.0]]}))
    reports = {}
    for x in ("0", "1e308", "1.5e300"):
        out = tmp_path / f"index_{x}.json"
        run_ok(["analyze", "index", "--in", str(poly_path), "--x", x, "--out", str(out)])
        reports[x] = json.loads(out.read_text())
    for x in ("1e308", "1.5e300"):
        assert reports[x]["beta_hat"] == reports["0"]["beta_hat"]
        assert reports[x]["envelope"] == reports["0"]["envelope"]


def test_nan_in_payload_fails_naming_the_field(tmp_path, monkeypatch, capsys):
    def nan_estimate(f, x, schedule):
        return DivergenceEstimate(0.1, 0.9, schedule, [0.0, 1.0, math.nan], False)

    monkeypatch.setattr(cli, "divergence_index", nan_estimate)
    poly_path = tmp_path / "g.json"
    poly_path.write_text(json.dumps({"coeffs": [[1, 1.0, 0.0]]}))
    out = tmp_path / "index.json"
    code = cli.run(["analyze", "index", "--in", str(poly_path), "--x", "0.5",
                    "--mlo", "6", "--mhi", "8", "--out", str(out)])
    assert code == 2
    assert "envelope[2] is NaN" in capsys.readouterr().err
    assert not out.exists()


def test_nan_in_csv_row_fails_naming_the_cell(tmp_path, monkeypatch, capsys):
    def nan_rows(N, alpha, trials, seed):
        report = VerificationReport("weak-maximal", 2, 0.5, 0.5, [(4, 0.5)], seed)
        return report, [(0, seed, 4, 0.5), (1, seed, 4, math.nan)]

    monkeypatch.setattr(cli, "maximal_rows", nan_rows)
    out, rows = tmp_path / "report.json", tmp_path / "rows.csv"
    code = cli.run(["verify", "maximal", "--N", "4", "--trials", "2", "--out", str(out), "--csv", str(rows)])
    assert code == 2
    assert "csv row 1 column ratio is NaN" in capsys.readouterr().err
    assert not rows.exists() and not out.exists()


def test_nan_in_report_writes_neither_output(tmp_path, monkeypatch, capsys):
    def nan_report(N, alpha, trials, seed):
        return VerificationReport("weak-maximal", 1, 0.5, math.nan, [(4, 0.5)], seed), [(0, seed, 4, 0.5)]

    monkeypatch.setattr(cli, "maximal_rows", nan_report)
    out, rows = tmp_path / "report.json", tmp_path / "rows.csv"
    code = cli.run(["verify", "maximal", "--N", "4", "--trials", "1", "--out", str(out), "--csv", str(rows)])
    assert code == 2
    assert "payload.fitted_constant is NaN" in capsys.readouterr().err
    assert not rows.exists() and not out.exists()


@pytest.mark.parametrize("flags", [[], ["--out", "level.json"], ["--csv", "level.csv"],
                                   ["--out", "level.json", "--csv", "level.csv"]])
def test_output_routing_and_config_do_not_depend_on_paths(tmp_path, monkeypatch, capsys, flags):
    # the table goes to --csv or stdout; a subcommand with a table writes JSON only to --out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"coeffs": [[1, 1.0, 0.0], [64, 0.5, 0.0]]}))
    argv = ["analyze", "levelset", "--in", "g.json", "--beta", "0.0", "--grid", "256", "--smhi", "8", "--mhi", "6"]
    run_ok(argv + flags)
    stdout = capsys.readouterr().out
    table = (tmp_path / "level.csv").read_text() if "--csv" in flags else stdout
    assert table.startswith("scale_exponent,m_boxes_occupied\n")
    assert stdout == ("" if "--csv" in flags else table)
    if "--out" in flags:
        report = json.loads((tmp_path / "level.json").read_text())
        assert report["config"] == {"command": "analyze", "subcommand": "levelset", "in": "g.json", "beta": 0.0,
                                    "tol": 0.05, "grid": 256, "smlo": 6, "smhi": 8, "mlo": 4, "mhi": 6,
                                    "seed": 20127}


def test_failed_certificate_maps_to_exit_2(tmp_path, monkeypatch, capsys):
    saturator_pj = cli.saturator_pj
    monkeypatch.setattr(cli, "saturator_pj", lambda params, p: 0.1 * saturator_pj(params, p))
    out = tmp_path / "pj.json"
    assert cli.run(["construct", "pj", "--j", "6", "--alpha", "2", "--p", "2", "--out", str(out)]) == 2
    assert "target-set minimum misses the bound" in capsys.readouterr().err
    assert not out.exists()


_SWEEPS = ("dirichlet", "maximal", "nikolsky", "derivative", "localization")
# every float flag of the verify subcommands at +-inf, and every sweep below N = 4
_VERIFY_BAD_VALUES = [
    pytest.param(["verify", sub, "--N", "16", f"--{param.key}={value}", "--csv", "{csv}"],
                 id=f"{sub}-{param.key}={value}")
    for sub in (*_SWEEPS, "holo") for param in cli._COMMANDS[("verify", sub)].params if param.conv is float
    for value in ("inf", "-inf")
] + [
    pytest.param(["verify", sub, f"--N={n}", "--csv", "{csv}"], id=f"{sub}-N={n}")
    for sub in _SWEEPS for n in (-1, 0, 1, 3)
]
# the grid, tolerance and norm-exponent rules a subcommand shares with its twin
_TWIN_RULES = [pytest.param(argv, id=" ".join(a for a in argv if not a.startswith("{"))) for argv in (
    ["verify", "holo", "--N", "16", "--grid", "1000", "--csv", "{csv}"],
    ["construct", "holo", "--k", "16", "--grid", "1000"],
    ["analyze", "levelset", "--in", "{poly}", "--beta", "0.2", "--grid", "0", "--csv", "{csv}"],
    ["analyze", "levelset", "--in", "{poly}", "--beta", "0.2", "--grid", "8", "--csv", "{csv}"],
    ["analyze", "levelset", "--in", "{poly}", "--beta", "0.2", "--tol", "-1", "--csv", "{csv}"],
    ["analyze", "spectrum", "--in", "{poly}", "--p", "2", "--grid", "0", "--csv", "{csv}"],
    ["analyze", "spectrum", "--in", "{poly}", "--p", "2", "--grid", "8", "--csv", "{csv}"],
    ["analyze", "spectrum", "--in", "{poly}", "--p", "2", "--tol", "-1", "--csv", "{csv}"],
    ["analyze", "spectrum", "--in", "{poly}", "--p", "0.5", "--csv", "{csv}"],
)]


@pytest.mark.parametrize("argv", [
    ["probe", "prevalence", "--thresh", "nan"],
    ["probe", "prevalence", "--R", "nan"],
    ["probe", "prevalence", "--R", "inf"],
    ["probe", "prevalence", "--R", "1e308"],
    ["analyze", "index", "--in", "{poly}", "--x", "nan"],
    ["analyze", "index", "--in", "{poly}", "--x", "inf"],
    ["analyze", "levelset", "--in", "{poly}", "--beta", "nan", "--csv", "{csv}"],
    ["analyze", "levelset", "--in", "{poly}", "--beta", "0.2", "--tol", "nan", "--csv", "{csv}"],
    ["analyze", "spectrum", "--in", "{poly}", "--p", "nan", "--csv", "{csv}"],
    ["verify", "localization", "--N", "16", "--eps", "nan", "--csv", "{csv}"],
    ["verify", "maximal", "--N", "16", "--alpha", "nan", "--csv", "{csv}"],
    ["verify", "localization", "--N", "16", "--config", "{conf}", "--csv", "{csv}"],
    ["verify", "maximal", "--N", "8", "--trials", "1", "--alpha", "966", "--csv", "{csv}"],
    ["verify", "maximal", "--N", "8", "--trials", "1", "--alpha", "2000", "--csv", "{csv}"],
    ["verify", "localization", "--N", "8", "--trials", "1", "--eps", "4400", "--csv", "{csv}"],
    ["construct", "family", "--s", "1", "--alpha", "1.00000001", "--p", "2", "--jmax", "8"],
    # 2^45 dyadic centers: a 256 TiB arange, refused at once (x86-64 gives a process 128 TiB)
    ["probe", "prevalence", "--depth", "45", "--trials", "2"],
    ["probe", "prevalence", "--trials", "3", "--seed", "-1"],
    # one 32-bit spawn word per trial index: refused before any draw
    ["probe", "prevalence", "--trials", str((1 << 32) + 1)],
    # omega = exp(4 pi log(n) eps) would overflow; the witness's coefficients would overflow its transforms
    ["construct", "logsat", "--n", "4096", "--eps", "10"],
    ["construct", "witness", "--j", "4096", "--eta", "0.05", "--eps", "10"],
    ["construct", "witness", "--j", "256", "--eta", "1e305"],
    ["construct", "witness", "--j", "256", "--eta", "1e308"],
    *_VERIFY_BAD_VALUES,
    *_TWIN_RULES,
])
def test_nan_or_overflowing_flag_maps_to_exit_1(tmp_path, capsys, argv):
    paths = {"poly": tmp_path / "g.json", "conf": tmp_path / "run.conf",
             "csv": tmp_path / "rows.csv", "out": tmp_path / "out.json"}
    paths["poly"].write_text(json.dumps({"coeffs": [[1, 1.0, 0.0]]}))
    paths["conf"].write_text("eps = nan\n")
    argv = [a.format(**paths) for a in argv] + ["--out", str(paths["out"])]
    assert cli.run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not paths["csv"].exists() and not paths["out"].exists()


# --- the one-walk report writer against the two-step writer it replaced ---

def _old_round_sig(x):
    """The rounding to 12 significant digits that the two-step writer applied to each float."""
    if x == 0 or not np.isfinite(x):
        return float(x)
    return float(format(float(x), ".12g"))


def _old_jsonable(value, path="payload"):
    """The JSON-ready copy that json.dumps used to write, as cli built it before the one-walk renderer."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            raise AssertionError(f"{path} is NaN")
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return _old_round_sig(x)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _old_jsonable(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_old_jsonable(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if dataclasses.is_dataclass(value):
        return _old_jsonable(dataclasses.asdict(value), path)
    return value


def _old_report(payload, config):
    report = _old_jsonable(payload)
    report["config"] = _old_jsonable(config)
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


_PJ_ARGV = ["construct", "pj", "--j", "8", "--alpha", "2", "--p", "2", "--seed", "5"]
_PJ_CONFIG = {"command": "construct", "subcommand": "pj", "j": 8, "alpha": 2.0, "p": 2.0, "seed": 5}


def _run_with_payload(payload):
    """Exit code, stdout and stderr of cli.run(_PJ_ARGV) when the construct pj handler returns payload."""
    entry = cli._COMMANDS[("construct", "pj")]._replace(handler=lambda cfg, threads: (payload, None))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._COMMANDS, {("construct", "pj"): entry}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(_PJ_ARGV)
    return code, out.getvalue(), err.getvalue()


@dataclasses.dataclass
class _Record:
    a: object
    b: object


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits).filter(lambda x: x == x),
    st.floats(-2.3e-308, 2.3e-308),  # the subnormals and the smallest normals
    st.floats(1e11, 1e17).flatmap(lambda x: st.sampled_from([x, -x])),  # where repr drops the exponent below 1e16
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 1e12, 1e16, 999999999999.5, 9999999999999998.0]),
)
_LEAVES = st.one_of(
    _FLOATS,
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    _FLOATS.map(np.float64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
_VALUES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), kids, max_size=4),
    st.builds(_Record, kids, kids),
), max_leaves=24)
_PAYLOADS = st.one_of(
    st.dictionaries(st.text(max_size=6).filter(lambda k: k != "config"), _VALUES, max_size=5),
    st.builds(_Record, _VALUES, _VALUES),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_PAYLOADS)
def test_report_writer_matches_the_two_step_writer(payload):
    code, out, err = _run_with_payload(payload)
    assert (code, err) == (0, "")
    assert out == _old_report(payload, _PJ_CONFIG)


def _with_nan(value, n):
    """value with its n-th scalar leaf, counted depth first, replaced by NaN; and n less the leaves passed."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out[k], n = _with_nan(v, n)
        return out, n
    if isinstance(value, (list, tuple)):
        out = []
        for v in value:
            w, n = _with_nan(v, n)
            out.append(w)
        return type(value)(out), n
    if dataclasses.is_dataclass(value):
        fields = {}
        for f in dataclasses.fields(value):
            fields[f.name], n = _with_nan(getattr(value, f.name), n)
        return type(value)(**fields), n
    return (math.nan if n == 0 else value), n - 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=_PAYLOADS, data=st.data())
def test_report_writer_names_a_nan_at_any_depth_as_before(payload, data):
    leaves = -1 - _with_nan(payload, -1)[1]  # n = -1 replaces nothing and counts every leaf down
    assume(leaves > 0)
    payload = _with_nan(payload, data.draw(st.integers(0, leaves - 1)))[0]
    with pytest.raises(AssertionError) as old:
        _old_report(payload, _PJ_CONFIG)
    assert _run_with_payload(payload) == (2, "", f"assertion failed: {old.value}\n")


@pytest.mark.parametrize("payload, field", [
    ({"a": np.array([[1.0, 2.0], [np.nan, 4.0]])}, "payload.a[1][0]"),
    ({"b": [{"c": (1, math.nan)}]}, "payload.b[0].c[1]"),
    (_Record(a=[np.float32("nan")], b=0.0), "payload.a[0]"),
])
def test_report_writer_names_a_nan_in_arrays_tuples_and_dataclasses(payload, field):
    assert _run_with_payload(payload) == (2, "", f"assertion failed: {field} is NaN\n")


def test_report_writer_renders_numpy_arrays_and_booleans_as_python_values():
    rows = np.array([[1.5, -0.0], [np.inf, 1e300]])
    assert cli._json_text({"rows": rows}) == cli._json_text({"rows": rows.tolist()})
    assert cli._json_text(np.arange(3)) == cli._json_text([0, 1, 2])
    # the two-step writer refused numpy booleans with a TypeError; they render as true and false
    assert cli._json_text([np.bool_(True), np.bool_(False)]) == cli._json_text([True, False])
    with pytest.raises(TypeError, match="complex is not JSON serializable"):
        cli._json_text({"z": [1j]})


def test_float_text_is_repr_of_round_sig_on_random_bit_patterns():
    rng = np.random.default_rng(27)
    xs = np.frombuffer(rng.bytes(8 * 100_000), dtype=np.float64)
    # every decade boundary, where rounding to 12 digits can carry into the exponent
    decades = 10.0 ** np.arange(-323, 309)
    xs = np.concatenate([xs, decades, decades * (1 - 4e-13), decades * (1 + 4e-13), -decades])
    xs = xs[np.isfinite(xs)].tolist()
    assert len(xs) > 100_000
    assert [x for x in xs if cli._json_text(x) != repr(_old_round_sig(x))] == []
    # the CSV cells as the two-step writer formatted them
    assert cli._render_csv(("x",), [(x,) for x in xs]) == "x\n" + "".join(
        f"{format(_old_round_sig(x), '.12g')}\n" for x in xs)
    assert [cli._json_text(x) for x in (math.inf, -math.inf)] == ['"inf"', '"-inf"']


# --- the CLI contract over typed flag values ---

_CONTRACT_INPUTS = {"poly.json": json.dumps({"coeffs": [[0, 1.0, 0.0], [3, 0.25, 0.0], [40, 0.5, 0.5]]}),
                    "list.json": "[]", "object.json": "{}"}
# small valid values of each count flag, capped so that no draw does real work
_SMALL_COUNTS = {
    "j": (6, 8, 10), "s": (1, 2, 3), "jmax": (6, 8, 10), "k": (3, 8, 16), "grid": (16, 64, 1000, 4096),
    "n": (128, 1024, 4096), "N": (4, 8, 16, 64), "trials": (1, 2, 4), "mlo": (4, 6), "mhi": (8, 10),
    "smlo": (4, 6), "smhi": (8, 12), "steps": (1, 3), "depth": (1, 3), "seed": (0, 5, 20127),
}
_SMALL_COUNTS_OF = {("construct", "witness", "j"): (128, 256)}  # the witness needs a degree with 3 comb teeth
_REFUSED_COUNTS = (0, -1, 1 << 62, 1 << 63, 1 << 100)
_ODD_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1.0)


def _either_side(*bounds):
    return tuple(v for b in bounds for v in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)))


# each float flag's values well inside its documented bounds, then the floats either side of those bounds
_FLOATS_INSIDE = {
    "alpha": (2.0, 3.0), "p": (2.0, 3.0), "q": (4.0, math.inf), "eps": (0.03, 0.5), "ifrac": (0.5, 1.0),
    "eta": (0.05,), "omega": (5.0,), "x": (0.0, 0.3), "beta": (0.0, 0.2), "tol": (0.05,), "beta-min": (0.0,),
    "beta-max": (0.5,), "thresh": (1e-4,), "R": (1.0,),
}
_FLOAT_BOUNDS = {
    "alpha": _either_side(0.0, 1.0) + (962.0, 963.0),  # the maximal weights overflow past about 962.6
    "p": _either_side(1.0), "q": _either_side(1.0), "eps": _either_side(0.0) + (10.0,),
    "ifrac": _either_side(0.0, 1.0) + (1e-320,), "eta": _either_side(0.0) + (1e305,),
    "omega": _either_side(math.log(8), math.log(16)) + (1e17,), "x": _either_side(0.0, 1.0),
    "beta": _either_side(0.0), "tol": _either_side(0.0), "thresh": _either_side(0.0),
    "R": _either_side(0.0, sys.float_info.max / 2),
}


def _flag_text(command, param, clean):
    """A strategy for the text of one flag: a small valid value, or when not clean any typed value."""
    if param.key == "in":
        names = st.sampled_from(["poly.json"] if clean else [*_CONTRACT_INPUTS, "absent.json"])
        return names if param.required else st.one_of(st.none(), names)
    if param.key == "strategy":
        return st.sampled_from(param.choices if clean else (*param.choices, "other"))
    if param.conv is int:
        small = _SMALL_COUNTS_OF.get((*command, param.key), _SMALL_COUNTS[param.key])
        return st.sampled_from(small if clean else (*small, *_REFUSED_COUNTS)).map(str)
    inside = _FLOATS_INSIDE[param.key]
    return st.sampled_from(inside if clean else (*inside, *_FLOAT_BOUNDS.get(param.key, ()), *_ODD_FLOATS)).map(repr)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract")
    for name, text in _CONTRACT_INPUTS.items():
        (directory / name).write_text(text)
    return directory


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_subcommand_exits_0_1_or_2_on_typed_flag_values(contract_dir, data):
    command = data.draw(st.sampled_from(sorted(cli._COMMANDS)), label="command")
    params = cli._COMMANDS[command].params
    clean = data.draw(st.booleans(), label="clean")
    argv = list(command)
    for param in params:
        if param.key not in ("out", "csv"):
            text = data.draw(_flag_text(command, param, clean), label=param.key)
            if text is not None:
                argv.append(f"--{param.key}={contract_dir / text if param.key == 'in' else text}")
    outputs = []
    for param in params:
        if param.key in ("out", "csv"):
            path = contract_dir / f"output.{param.key}"
            path.unlink(missing_ok=True)
            if data.draw(st.booleans(), label=param.key):
                argv.append(f"--{param.key}={path}")
                outputs.append(path)
    argv += data.draw(st.sampled_from([[], ["--threads", "1"], ["--threads", "2"]]), label="threads")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    err = stderr.getvalue()
    if code == 0:
        texts = [stdout.getvalue()] + [path.read_text() for path in outputs]
        assert not any(re.search(r"\bnan\b", text, re.IGNORECASE) for text in texts)
    elif code == 1:
        assert re.search(r"(^|: )error: \S", err, re.MULTILINE), err
    else:
        assert code == 2 and err.startswith("assertion failed: "), (code, err)
