"""Command-line front end for deterministic construct, verify, analyze, probe runs.

Every subcommand resolves its parameters from flags, then an optional flat
key=value config file, then defaults; the resolved set is embedded in each
JSON output. Exit codes: 0 success, 1 usage or validation error, 2 failed
certificate or inequality.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ProbeConfig,
    divergence_index,
    dyadic_schedule,
    level_set,
    prevalence_probe,
    spectrum_curve,
)
from .construct import (
    HoloKernelParams,
    disjoint_family,
    holo_boundary,
    log_saturator,
    logsat_certificate,
    residual_witness,
    saturator_certificate,
    saturator_pj,
)
from .sets import DyadicFamilyParams, box_dimension, comb_membership
from .trig import TrigPoly
from .util import DEFAULT_SEED, grid_for_degree, indexed_map, round_sig, trial_rng
from .verify import (
    VerificationReport,
    check_derivative_bound,
    check_localization,
    check_nikolsky,
    dirichlet_rows,
    holo_sweep,
    maximal_rows,
    rademacher_poly,
    scale_ladder,
)

_SEED_DEFAULT = object()


def _pnorm(text):
    t = str(text).strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    return float(t)


class _Param:
    __slots__ = ("key", "conv", "default", "required", "help", "choices")

    def __init__(self, key, conv, default, help, required=False, choices=None):
        self.key = key
        self.conv = conv
        self.default = default
        self.required = required
        self.help = help
        self.choices = choices


def _dest(key: str) -> str:
    return "infile" if key == "in" else key.replace("-", "_")


_SEED_PARAM = _Param("seed", int, _SEED_DEFAULT, "master seed (FDL_SEED overrides the default)")
_OUT_PARAM = _Param("out", str, None, "JSON output path (stdout when omitted)")
_CSV_PARAM = _Param("csv", str, None, "CSV output path (stdout when omitted)")

_SPECS = {
    ("construct", "pj"): [
        _Param("j", int, None, "dyadic family level", required=True),
        _Param("alpha", float, None, "approximation exponent, greater than 1", required=True),
        _Param("p", _pnorm, None, "norm exponent (number or inf)", required=True),
        _Param("grid", int, None, "sample grid size, power of two"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
    ("construct", "family"): [
        _Param("s", int, None, "number of members", required=True),
        _Param("alpha", float, None, "approximation exponent, greater than 1", required=True),
        _Param("p", _pnorm, None, "norm exponent (number or inf)", required=True),
        _Param("jmax", int, None, "top block level", required=True),
        _Param("grid", int, None, "sample grid size, power of two"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
    ("construct", "holo"): [
        _Param("k", int, None, "number of comb teeth, at least 3", required=True),
        _Param("omega", float, None, "pole offset parameter (default max(log k, 3))"),
        _Param("grid", int, 1 << 14, "boundary grid size, power of two"),
        _Param("interior", int, 1000, "random interior samples for the positivity check"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
    ("construct", "logsat"): [
        _Param("n", int, None, "target degree", required=True),
        _Param("eps", float, None, "divergence rate (default: admissible floor)"),
        _Param("grid", int, None, "sample grid size, power of two"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
    ("construct", "witness"): [
        _Param("j", int, None, "block level and detector scale", required=True),
        _Param("eta", float, None, "target rate for the two-scale difference", required=True),
        _Param("eps", float, None, "saturator rate (default: admissible floor)"),
        _Param("in", str, None, "coefficient JSON of the base function (default: zero)"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
    ("verify", "dirichlet"): [
        _Param("N", int, None, "top index of the sweep", required=True),
        _Param("strategy", str, "greedy", "index selection rule",
               choices=("constant", "random", "greedy")),
        _Param("trials", int, 2, "number of evaluation points t"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("verify", "maximal"): [
        _Param("N", int, None, "top index of the sweep", required=True),
        _Param("alpha", float, 0.5, "excess exponent in the log-power weight"),
        _Param("trials", int, 20, "random polynomials per scale"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("verify", "nikolsky"): [
        _Param("N", int, None, "top degree of the sweep", required=True),
        _Param("p", _pnorm, 2.0, "lower norm exponent"),
        _Param("q", _pnorm, math.inf, "upper norm exponent"),
        _Param("trials", int, 10, "random polynomials per scale"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("verify", "derivative"): [
        _Param("N", int, None, "top degree of the sweep", required=True),
        _Param("p", _pnorm, 2.0, "norm exponent"),
        _Param("trials", int, 10, "random polynomials per scale"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("verify", "localization"): [
        _Param("N", int, None, "top degree of the sweep", required=True),
        _Param("p", _pnorm, 2.0, "norm exponent (finite)"),
        _Param("eps", float, 0.5, "excess exponent in the log factor"),
        _Param("ifrac", float, 1.0, "interval length as a fraction of 1/degree"),
        _Param("trials", int, 10, "random polynomials per scale"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("verify", "holo"): [
        _Param("N", int, 256, "largest tooth count; sweep doubles from 8"),
        _Param("grid", int, 1 << 14, "boundary grid size, power of two"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("analyze", "index"): [
        _Param("in", str, None, "coefficient JSON of the function", required=True),
        _Param("x", float, None, "evaluation point in [0, 1)", required=True),
        _Param("mlo", int, 6, "smallest schedule exponent"),
        _Param("mhi", int, 18, "largest schedule exponent"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
    ("analyze", "levelset"): [
        _Param("in", str, None, "coefficient JSON of the function", required=True),
        _Param("beta", float, None, "level of the divergence index", required=True),
        _Param("tol", float, 0.05, "level-set tolerance around beta"),
        _Param("grid", int, 1 << 12, "number of profile points"),
        _Param("smlo", int, 6, "smallest schedule exponent"),
        _Param("smhi", int, 14, "largest schedule exponent"),
        _Param("mlo", int, 4, "smallest box scale exponent"),
        _Param("mhi", int, 10, "largest box scale exponent"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("analyze", "spectrum"): [
        _Param("in", str, None, "coefficient JSON of the function", required=True),
        _Param("p", _pnorm, None, "norm exponent for the reference line", required=True),
        _Param("beta-min", float, 0.0, "first beta on the grid"),
        _Param("beta-max", float, 0.5, "last beta on the grid"),
        _Param("steps", int, 11, "number of beta grid points"),
        _Param("tol", float, 0.05, "level-set tolerance around each beta"),
        _Param("grid", int, 1 << 12, "number of profile points"),
        _Param("smlo", int, 6, "smallest schedule exponent"),
        _Param("smhi", int, 14, "largest schedule exponent"),
        _Param("mlo", int, 4, "smallest box scale exponent"),
        _Param("mhi", int, 10, "largest box scale exponent"),
        _SEED_PARAM,
        _CSV_PARAM,
        _OUT_PARAM,
    ],
    ("probe", "prevalence"): [
        _Param("s", int, 9, "perturbation dimension"),
        _Param("alpha", float, 2.0, "approximation exponent of the family"),
        _Param("p", _pnorm, 2.0, "norm exponent of the family"),
        _Param("beta", float, 0.2, "growth exponent tested against"),
        _Param("R", float, 1.0, "half-width of the coefficient cube"),
        _Param("trials", int, 200, "Monte-Carlo trials"),
        _Param("thresh", float, 1e-4, "success threshold for the normalized envelope"),
        _Param("depth", int, 4, "level of the dyadic test points"),
        _Param("jmax", int, 12, "top block level of the family"),
        _Param("in", str, None, "coefficient JSON of the base function (default: zero)"),
        _SEED_PARAM,
        _OUT_PARAM,
    ],
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fdl", description=__doc__.splitlines()[0])
    commands = top.add_subparsers(dest="command", required=True)
    grouped: dict[str, list[str]] = {}
    for command, sub in _SPECS:
        grouped.setdefault(command, []).append(sub)
    for command, subs in grouped.items():
        cp = commands.add_parser(command)
        subparsers = cp.add_subparsers(dest="subcommand", required=True)
        for sub in subs:
            sp = subparsers.add_parser(sub)
            for param in _SPECS[(command, sub)]:
                sp.add_argument(f"--{param.key}", dest=_dest(param.key), type=param.conv,
                                default=None, choices=param.choices, help=param.help)
            sp.add_argument("--config", dest="config", default=None,
                            help="flat key=value file; flags override its entries")
            sp.add_argument("--threads", dest="threads", type=int, default=None,
                            help="worker pool size for trial batches (default: machine parallelism)")
    return top


def _read_config_file(path: str) -> dict:
    entries = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _resolve(ns: argparse.Namespace) -> dict:
    spec = _SPECS[(ns.command, ns.subcommand)]
    filecfg = _read_config_file(ns.config) if ns.config else {}
    unknown = set(filecfg) - {p.key for p in spec}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for param in spec:
        value = getattr(ns, _dest(param.key))
        if value is None and param.key in filecfg:
            value = param.conv(filecfg[param.key])
        if value is None:
            if param.default is _SEED_DEFAULT:
                env = os.environ.get("FDL_SEED")
                value = int(env) if env else DEFAULT_SEED
            elif param.required:
                raise ValueError(f"missing required parameter --{param.key}")
            else:
                value = param.default
        cfg[param.key] = value
    return cfg


def _config_block(command: str, subcommand: str, cfg: dict) -> dict:
    block = {"command": command, "subcommand": subcommand}
    for key, value in cfg.items():
        if isinstance(value, float) and math.isinf(value):
            value = "inf"
        block[key] = value
    return block


def _jsonable(value, path: str = "payload"):
    """JSON-ready copy of a payload; a NaN anywhere fails the run, naming its field."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            raise AssertionError(f"{path} is NaN")
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return round_sig(x)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def _emit_csv(header, rows, path: str | None) -> None:
    """Writes the rows under the header; a NaN cell fails the run before anything is written."""
    for i, row in enumerate(rows):
        for name, v in zip(header, row):
            if isinstance(v, (float, np.floating)) and math.isnan(v):
                raise AssertionError(f"csv row {i} column {name} is NaN")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".12g") if isinstance(v, (float, np.floating)) else v
                         for v in row])
    _write_text(buf.getvalue(), path)


def _load_poly(path: str) -> TrigPoly:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError(f"{path} is not a coefficient JSON file")
    return TrigPoly.from_json_dict(data)


def _verify_report_json(report: VerificationReport, rows, block: dict, path: str) -> None:
    payload = {
        "name": report.name,
        "trials": len(rows),
        "worst_ratio": report.worst_ratio,
        "fitted_constant": report.fitted_constant,
        "scale_trend": [[scale, value] for scale, value in report.scale_trend],
        "seed": report.seed,
        "config": block,
    }
    _emit_json(payload, path)


def _emit_verify(cfg: dict, subcommand: str, report: VerificationReport, rows) -> None:
    _emit_csv(("trial", "seed", "scale", "ratio"), rows, cfg["csv"])
    if cfg["out"]:
        _verify_report_json(report, rows, _config_block("verify", subcommand, cfg), cfg["out"])


def _run_construct_pj(cfg: dict, threads: int) -> None:
    params = DyadicFamilyParams(cfg["j"], cfg["alpha"])
    poly = saturator_pj(params, cfg["p"], cfg["grid"])
    cert = saturator_certificate(poly, params, cfg["p"], cfg["grid"])
    if cert["norm"] > 1.0 + 1e-9:
        raise AssertionError(f"saturator norm {cert['norm']} exceeds 1")
    if cert["margin"] < 0.0:
        raise AssertionError(f"target-set minimum misses the bound by {-cert['margin']}")
    payload = poly.to_json_dict()
    payload["certificates"] = cert
    payload["config"] = _config_block("construct", "pj", cfg)
    _emit_json(payload, cfg["out"])


def _run_construct_family(cfg: dict, threads: int) -> None:
    fam = disjoint_family(cfg["s"], cfg["alpha"], cfg["p"], cfg["jmax"], cfg["grid"])
    blocks = [[j, r, window.lo, window.hi]
              for (j, r), window in sorted(fam.blocks.items(), key=lambda kv: (kv[0][1], kv[0][0]))]
    payload = {
        "members": [fam.member(r).to_json_dict() for r in range(1, fam.s + 1)],
        "blocks": blocks,
        "tail_norm_bound": fam.tail_norm_bound,
        "freq_constant": fam.freq_constant,
        "grid": fam.grid_M,
        "config": _config_block("construct", "family", cfg),
    }
    _emit_json(payload, cfg["out"])


def _run_construct_holo(cfg: dict, threads: int) -> None:
    from .verify import check_holo_bounds

    if cfg["omega"] is None:
        cfg["omega"] = max(math.log(cfg["k"]), 3.0)
    params = HoloKernelParams(cfg["k"], cfg["omega"])
    bounds = check_holo_bounds(params, cfg["grid"], cfg["interior"], cfg["seed"])
    sig = holo_boundary(params, cfg["grid"])
    payload = sig.to_json_dict()
    payload["certificates"] = dataclasses.asdict(bounds)
    payload["config"] = _config_block("construct", "holo", cfg)
    _emit_json(payload, cfg["out"])


def _run_construct_logsat(cfg: dict, threads: int) -> None:
    sat = log_saturator(cfg["n"], cfg["eps"], cfg["grid"])
    cert = logsat_certificate(sat)
    if cert["sup_norm"] > 1.0 + 1e-9:
        raise AssertionError(f"sup norm {cert['sup_norm']} exceeds 1")
    if cert["margin"] < 0.0:
        raise AssertionError(f"comb minimum misses the rate by {-cert['margin']}")
    cfg["eps"] = sat.eps_n
    cfg["grid"] = sat.grid_M
    payload = sat.poly.to_json_dict()
    payload["certificates"] = cert
    payload["config"] = _config_block("construct", "logsat", cfg)
    _emit_json(payload, cfg["out"])


def _run_construct_witness(cfg: dict, threads: int) -> None:
    base = _load_poly(cfg["in"]) if cfg["in"] else TrigPoly({})
    sat = log_saturator(cfg["j"], cfg["eps"])
    witness = residual_witness(base, cfg["j"], cfg["eta"], sat.eps_n, sat)
    diff = witness.truncate(2 * cfg["j"]) - witness.truncate(cfg["j"])
    dsig = diff.sample(sat.grid_M)
    mask = comb_membership(sat.comb, dsig.points())
    observed = float(np.abs(dsig.samples[mask]).min())
    target = cfg["eta"] * math.log(cfg["j"])
    cert = {
        "level": cfg["j"],
        "eta": cfg["eta"],
        "eps": sat.eps_n,
        "detector_scales": [cfg["j"], 2 * cfg["j"]],
        "min_difference_on_comb": observed,
        "target_level": target,
        "margin": observed - target,
        "points_per_tooth": float(mask.sum()) / sat.k,
        "grid": sat.grid_M,
    }
    if cert["margin"] < 0.0:
        raise AssertionError(f"two-scale difference misses the rate by {-cert['margin']}")
    cfg["eps"] = sat.eps_n
    payload = witness.to_json_dict()
    payload["certificates"] = cert
    payload["config"] = _config_block("construct", "witness", cfg)
    _emit_json(payload, cfg["out"])


def _run_verify_scan(cfg: dict, threads: int, subcommand: str) -> None:
    if subcommand == "dirichlet":
        report, rows = dirichlet_rows(cfg["N"], cfg["strategy"], cfg["trials"], cfg["seed"])
    else:
        report, rows = maximal_rows(cfg["N"], cfg["alpha"], cfg["trials"], cfg["seed"])
    _emit_verify(cfg, subcommand, report, rows)


def _run_verify_rows(cfg: dict, threads: int, name: str, ratio_fn, worst=max) -> None:
    scales = scale_ladder(cfg["N"])
    tasks = [(t, scale) for scale in scales for t in range(cfg["trials"])]

    def one(task):
        trial, scale = task
        rng = trial_rng(cfg["seed"], (scale << 20) + trial)
        return (trial, cfg["seed"], scale, ratio_fn(scale, rng))

    rows = indexed_map(one, tasks, threads)
    trend = [(scale, worst(row[3] for row in rows if row[2] == scale)) for scale in scales]
    report = VerificationReport(name, cfg["trials"], worst(row[3] for row in rows), trend[-1][1],
                                trend, cfg["seed"])
    _emit_verify(cfg, name, report, rows)


def _run_verify_nikolsky(cfg: dict, threads: int) -> None:
    def ratio_fn(scale, rng):
        return check_nikolsky(rademacher_poly(scale, rng), cfg["p"], cfg["q"])

    _run_verify_rows(cfg, threads, "nikolsky", ratio_fn)


def _run_verify_derivative(cfg: dict, threads: int) -> None:
    def ratio_fn(scale, rng):
        return check_derivative_bound(rademacher_poly(scale, rng), scale, cfg["p"])

    _run_verify_rows(cfg, threads, "derivative", ratio_fn)


def _run_verify_localization(cfg: dict, threads: int) -> None:
    def ratio_fn(scale, rng):
        poly = rademacher_poly(scale, rng)
        sig = poly.sample(grid_for_degree(poly.degree))
        peak = int(np.argmax(np.abs(sig.samples)))
        return check_localization(poly, peak / sig.M, cfg["ifrac"] / scale, cfg["p"], cfg["eps"])

    _run_verify_rows(cfg, threads, "localization", ratio_fn, worst=min)


def _run_verify_holo(cfg: dict, threads: int) -> None:
    if cfg["N"] < 8:
        raise ValueError("N must be at least 8")
    ks = []
    k = 8
    while k <= cfg["N"]:
        ks.append(k)
        k <<= 1
    report, bounds = holo_sweep(ks, cfg["grid"], cfg["seed"])
    rows = [(i, cfg["seed"], b.k, b.c4) for i, b in enumerate(bounds)]
    _emit_verify(cfg, "holo", report, rows)


def _run_analyze_index(cfg: dict, threads: int) -> None:
    f = _load_poly(cfg["in"])
    est = divergence_index(f, cfg["x"], dyadic_schedule(cfg["mlo"], cfg["mhi"]))
    payload = {
        "beta_hat": est.beta_hat,
        "r2": est.r2,
        "vanishing": est.vanishing,
        "schedule": est.schedule,
        "envelope": est.envelope,
        "config": _config_block("analyze", "index", cfg),
    }
    _emit_json(payload, cfg["out"])


def _run_analyze_levelset(cfg: dict, threads: int) -> None:
    f = _load_poly(cfg["in"])
    oracle = level_set(f, cfg["beta"], cfg["tol"], cfg["grid"],
                       dyadic_schedule(cfg["smlo"], cfg["smhi"]))
    est = box_dimension(oracle, cfg["mlo"], cfg["mhi"])
    rows = list(zip(est.scales, est.counts))
    if cfg["csv"] or not cfg["out"]:
        _emit_csv(("scale_exponent", "m_boxes_occupied"), rows, cfg["csv"])
    if cfg["out"]:
        payload = {
            "slope": est.slope,
            "r2": est.r2,
            "scales": list(est.scales),
            "config": _config_block("analyze", "levelset", cfg),
        }
        _emit_json(payload, cfg["out"])


def _run_analyze_spectrum(cfg: dict, threads: int) -> None:
    if math.isinf(cfg["p"]):
        raise ValueError("the reference line needs a finite norm exponent")
    if cfg["steps"] < 1:
        raise ValueError("need at least one beta grid point")
    f = _load_poly(cfg["in"])
    betas = np.linspace(cfg["beta-min"], cfg["beta-max"], cfg["steps"])
    curve = spectrum_curve(f, betas, cfg["p"], dyadic_schedule(cfg["smlo"], cfg["smhi"]),
                           cfg["grid"], cfg["tol"], cfg["mlo"], cfg["mhi"])
    rows = [(beta, est.slope, est.r2, 1.0 - beta * cfg["p"]) for beta, est in curve]
    _emit_csv(("beta", "dimension", "r2", "theory"), rows, cfg["csv"])
    if cfg["out"]:
        payload = {
            "curve": [[beta, est.slope, est.r2, 1.0 - beta * cfg["p"]] for beta, est in curve],
            "config": _config_block("analyze", "spectrum", cfg),
        }
        _emit_json(payload, cfg["out"])


def _run_probe_prevalence(cfg: dict, threads: int) -> None:
    probe_cfg = ProbeConfig(
        s=cfg["s"], alpha=cfg["alpha"], p=cfg["p"], beta=cfg["beta"], R=cfg["R"],
        m_thresh=cfg["thresh"], trials=cfg["trials"], depth=cfg["depth"],
        jmax=cfg["jmax"], seed=cfg["seed"],
    )
    f = _load_poly(cfg["in"]) if cfg["in"] else TrigPoly({})
    result = prevalence_probe(f, probe_cfg)
    payload = {
        "fraction": result.fraction,
        "trials": result.trials,
        "failures": result.failures,
        "forced_zero_success": result.forced_zero_success,
        "forced_unit_success": result.forced_unit_success,
        "rate_gap": probe_cfg.rate_gap,
        "size_condition_met": probe_cfg.size_condition_met,
        "config": _config_block("probe", "prevalence", cfg),
    }
    _emit_json(payload, cfg["out"])


_HANDLERS = {
    ("construct", "pj"): _run_construct_pj,
    ("construct", "family"): _run_construct_family,
    ("construct", "holo"): _run_construct_holo,
    ("construct", "logsat"): _run_construct_logsat,
    ("construct", "witness"): _run_construct_witness,
    ("verify", "dirichlet"): functools.partial(_run_verify_scan, subcommand="dirichlet"),
    ("verify", "maximal"): functools.partial(_run_verify_scan, subcommand="maximal"),
    ("verify", "nikolsky"): _run_verify_nikolsky,
    ("verify", "derivative"): _run_verify_derivative,
    ("verify", "localization"): _run_verify_localization,
    ("verify", "holo"): _run_verify_holo,
    ("analyze", "index"): _run_analyze_index,
    ("analyze", "levelset"): _run_analyze_levelset,
    ("analyze", "spectrum"): _run_analyze_spectrum,
    ("probe", "prevalence"): _run_probe_prevalence,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve(ns)
        threads = ns.threads if ns.threads and ns.threads > 0 else (os.cpu_count() or 1)
        _HANDLERS[(ns.command, ns.subcommand)](cfg, threads)
        return 0
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
