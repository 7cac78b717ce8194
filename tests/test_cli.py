"""Command-line contract: JSON/CSV layout, precedence, exit codes, determinism."""

import json
import math

import pytest

import fdl.cli as cli
from fdl.analysis import DivergenceEstimate
from fdl.verify import VerificationReport


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
    assert "threads" not in block
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

    monkeypatch.setitem(cli._HANDLERS, ("construct", "pj"), boom)
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


def test_missing_input_file_maps_to_exit_1(tmp_path):
    assert cli.run(["analyze", "index", "--in", str(tmp_path / "absent.json"),
                    "--x", "0.5"]) == 1


@pytest.mark.parametrize("payload", [{"coeffs": 5}, {"coeffs": [[1, "a", 0]]}])
def test_malformed_coefficient_json_maps_to_exit_1(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert cli.run(["analyze", "index", "--in", str(path), "--x", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


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
