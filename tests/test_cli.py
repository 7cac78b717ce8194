"""Command-line contract: JSON/CSV layout, precedence, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import fdl.cli as cli
import fdl.construct
from fdl.analysis import DivergenceEstimate
from fdl.construct import HoloKernelParams, holo_kernel, log_saturator, residual_witness
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
    want = holo_kernel(HoloKernelParams(16, HoloKernelParams.default_omega(16)), np.exp(2j * np.pi * np.arange(64) / 64))
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
    """Records the length of every FFT and inverse FFT."""
    lengths = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def counted(a, n=None, *args, _transform=transform, **kwargs):
            lengths.append(len(a) if n is None else n)
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
    diff = residual_witness(base, 1024, 0.05, sat)
    diff = diff.truncate(2048) - diff.truncate(1024)
    K_sat, K_partial, K_diff = (_decimated_K(sat.poly, sat.k), _decimated_K(sat.poly.truncate(1024), sat.k),
                                _decimated_K(diff, sat.k))
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
