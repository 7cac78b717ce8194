"""Command-line front end for deterministic construct, verify, analyze, probe runs.

Every subcommand resolves its parameters from flags, then an optional flat
key=value config file, then defaults; the resolved set, less the output
paths, is embedded in each JSON report. A table goes to --csv, or to stdout;
the JSON report goes to --out, or to stdout when the subcommand writes no
table. Exit codes: 0 success, 1 usage or validation error, 2 failed
certificate or inequality.
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
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
    disjoint_family,
    holo_boundary,
    log_saturator,
    logsat_certificate,
    residual_witness,
    saturator_certificate,
    saturator_pj,
    witness_certificate,
)
from .sets import CombParams, DyadicFamilyParams, box_dimension
from .trig import TrigPoly, validate_norm_exponent
from .util import DEFAULT_SEED
from .verify import (
    HOLO_GRID,
    check_holo_bounds,
    derivative_rows,
    dirichlet_rows,
    holo_rows,
    localization_rows,
    maximal_rows,
    nikolsky_rows,
)


def _pnorm(text):
    t = str(text).strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    return float(t)


_Param = collections.namedtuple("_Param", "key conv default help required choices", defaults=(False, None))

_SEED_PARAM = _Param("seed", int, None, "master seed (FDL_SEED overrides the default)")
_OUT_PARAM = _Param("out", str, None, "JSON report path (default: stdout, when there is no table)")
_CSV_PARAM = _Param("csv", str, None, "CSV table path (stdout when omitted)")
_PATH_KEYS = ("out", "csv")  # where the outputs go, not what they hold: left out of the recorded config
_FUNCTION_PARAM = _Param("in", str, None, "coefficient JSON of the function", required=True)
# the profile and box-count flags of analyze levelset and analyze spectrum, in their help order
_LEVEL_PARAMS = (
    _Param("tol", float, 0.05, "level-set tolerance around beta"),
    _Param("grid", int, 1 << 12, "number of profile points"),
    _Param("smlo", int, 6, "smallest schedule exponent"),
    _Param("smhi", int, 14, "largest schedule exponent"),
    _Param("mlo", int, 4, "smallest box scale exponent"),
    _Param("mhi", int, 10, "largest box scale exponent"),
)

_MAX_STEPS = 10_000  # beta grid points of analyze spectrum, one box count each

# A handler maps (config, threads) to (payload, table): the JSON report without
# its config block, as a dict or a dataclass, and the CSV (header, rows) or
# None. run renders and writes both.
_Command = collections.namedtuple("_Command", "handler params")


def _command(handler, *params, table=False) -> _Command:
    """A subcommand: its handler and its own flags, then --seed, --csv if it writes a table, and --out."""
    return _Command(handler, (*params, _SEED_PARAM, *((_CSV_PARAM,) if table else ()), _OUT_PARAM))


def _load_poly(path: str) -> TrigPoly:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValueError(f"{path} is not a coefficient JSON file")
    return TrigPoly.from_json_dict(data)


def _run_construct_pj(cfg: dict, threads: int):
    params = DyadicFamilyParams(cfg["j"], cfg["alpha"])
    poly = saturator_pj(params, cfg["p"])
    payload = poly.to_json_dict()
    payload["certificates"] = saturator_certificate(poly, params, cfg["p"])
    return payload, None


def _run_construct_family(cfg: dict, threads: int):
    fam = disjoint_family(cfg["s"], cfg["alpha"], cfg["p"], cfg["jmax"])
    blocks = [[j, r, window.lo, window.hi]
              for (j, r), window in sorted(fam.blocks.items(), key=lambda kv: (kv[0][1], kv[0][0]))]
    payload = {
        "members": [fam.member(r).to_json_dict() for r in range(1, fam.s + 1)],
        "blocks": blocks,
        "tail_norm_bound": fam.tail_norm_bound,
        "freq_constant": fam.freq_constant,
    }
    return payload, None


def _run_construct_holo(cfg: dict, threads: int):
    if cfg["omega"] is None:
        cfg["omega"] = CombParams.default_omega(cfg["k"])
    params = CombParams(cfg["k"], cfg["omega"])
    samples = holo_boundary(params, cfg["grid"])
    payload = {"M": samples.size, "samples": [[v.real, v.imag] for v in samples]}
    payload["certificates"] = check_holo_bounds(params, cfg["grid"])
    return payload, None


def _run_construct_logsat(cfg: dict, threads: int):
    sat = log_saturator(cfg["n"], cfg["eps"])
    cfg["eps"] = sat.eps_n
    payload = sat.poly.to_json_dict()
    payload["certificates"] = logsat_certificate(sat)
    return payload, None


def _run_construct_witness(cfg: dict, threads: int):
    base = _load_poly(cfg["in"]) if cfg["in"] else TrigPoly({})
    sat = log_saturator(cfg["j"], cfg["eps"])
    cfg["eps"] = sat.eps_n
    witness = residual_witness(base, cfg["eta"], sat)
    payload = witness.to_json_dict()
    payload["certificates"] = witness_certificate(witness, cfg["eta"], sat)
    return payload, None


def _run_verify(sweep):
    """The handler of a verify sweep; sweep(cfg, threads) returns the report and its rows."""
    def handler(cfg: dict, threads: int):
        report, rows = sweep(cfg, threads)
        return report, (("trial", "seed", "scale", "ratio"), rows)
    return handler


def _schedule(cfg: dict, lo: str, hi: str) -> list[int]:
    """dyadic_schedule of the exponent flags lo and hi; a refusal names both flags."""
    try:
        return dyadic_schedule(cfg[lo], cfg[hi])
    except ValueError as exc:
        raise ValueError(f"--{lo}/--{hi}: {exc}") from None


def _run_analyze_index(cfg: dict, threads: int):
    f = _load_poly(cfg["in"])
    return divergence_index(f, cfg["x"], _schedule(cfg, "mlo", "mhi")), None


def _run_analyze_levelset(cfg: dict, threads: int):
    f = _load_poly(cfg["in"])
    oracle = level_set(f, cfg["beta"], cfg["tol"], cfg["grid"], _schedule(cfg, "smlo", "smhi"))
    est = box_dimension(oracle, cfg["mlo"], cfg["mhi"])
    table = (("scale_exponent", "m_boxes_occupied"), list(zip(est.scales, est.counts)))
    return {"slope": est.slope, "r2": est.r2, "scales": list(est.scales)}, table


def _run_analyze_spectrum(cfg: dict, threads: int):
    if math.isinf(validate_norm_exponent(cfg["p"])):
        raise ValueError("the reference line needs a finite norm exponent")
    if not 1 <= cfg["steps"] <= _MAX_STEPS:
        raise ValueError(f"--steps must lie in 1..{_MAX_STEPS}, got {cfg['steps']}")
    f = _load_poly(cfg["in"])
    betas = np.linspace(cfg["beta-min"], cfg["beta-max"], cfg["steps"])
    curve = spectrum_curve(f, betas, _schedule(cfg, "smlo", "smhi"),
                           cfg["grid"], cfg["tol"], cfg["mlo"], cfg["mhi"])
    rows = [(beta, est.slope, est.r2, 1.0 - beta * cfg["p"]) for beta, est in curve]
    return {"curve": [list(row) for row in rows]}, (("beta", "dimension", "r2", "theory"), rows)


def _run_probe_prevalence(cfg: dict, threads: int):
    probe_cfg = ProbeConfig(
        s=cfg["s"], alpha=cfg["alpha"], p=cfg["p"], beta=cfg["beta"], R=cfg["R"],
        m_thresh=cfg["thresh"], trials=cfg["trials"], depth=cfg["depth"],
        jmax=cfg["jmax"], seed=cfg["seed"],
    )
    f = _load_poly(cfg["in"]) if cfg["in"] else TrigPoly({})
    return prevalence_probe(f, probe_cfg), None


_COMMANDS = {
    ("construct", "pj"): _command(
        _run_construct_pj,
        _Param("j", int, None, "dyadic family level", required=True),
        _Param("alpha", float, None, "approximation exponent, greater than 1", required=True),
        _Param("p", _pnorm, None, "norm exponent (number or inf)", required=True),
    ),
    ("construct", "family"): _command(
        _run_construct_family,
        _Param("s", int, None, "number of members", required=True),
        _Param("alpha", float, None, "approximation exponent, greater than 1", required=True),
        _Param("p", _pnorm, None, "norm exponent (number or inf)", required=True),
        _Param("jmax", int, None, "top block level", required=True),
    ),
    ("construct", "holo"): _command(
        _run_construct_holo,
        _Param("k", int, None, "number of comb teeth, at least 3", required=True),
        _Param("omega", float, None, "pole offset parameter (default max(log k, 3))"),
        _Param("grid", int, HOLO_GRID, "boundary grid size, power of two"),
    ),
    ("construct", "logsat"): _command(
        _run_construct_logsat,
        _Param("n", int, None, "target degree", required=True),
        _Param("eps", float, None, "divergence rate (default: admissible floor)"),
    ),
    ("construct", "witness"): _command(
        _run_construct_witness,
        _Param("j", int, None, "block level and detector scale", required=True),
        _Param("eta", float, None, "target rate for the two-scale difference", required=True),
        _Param("eps", float, None, "saturator rate (default: admissible floor)"),
        _Param("in", str, None, "coefficient JSON of the base function (default: zero)"),
    ),
    ("verify", "dirichlet"): _command(
        _run_verify(lambda cfg, threads: dirichlet_rows(cfg["N"], cfg["strategy"], cfg["trials"], cfg["seed"])),
        _Param("N", int, None, "top index of the sweep", required=True),
        _Param("strategy", str, "greedy", "index selection rule",
               choices=("constant", "random", "greedy")),
        _Param("trials", int, 2, "number of evaluation points t"),
        table=True,
    ),
    ("verify", "maximal"): _command(
        _run_verify(lambda cfg, threads: maximal_rows(cfg["N"], cfg["alpha"], cfg["trials"], cfg["seed"])),
        _Param("N", int, None, "top index of the sweep", required=True),
        _Param("alpha", float, 0.5, "excess exponent in the log-power weight"),
        _Param("trials", int, 20, "random polynomials per scale"),
        table=True,
    ),
    ("verify", "nikolsky"): _command(
        _run_verify(lambda cfg, threads: nikolsky_rows(cfg["N"], cfg["p"], cfg["q"], cfg["trials"],
                                                       cfg["seed"], threads)),
        _Param("N", int, None, "top degree of the sweep", required=True),
        _Param("p", _pnorm, 2.0, "lower norm exponent"),
        _Param("q", _pnorm, math.inf, "upper norm exponent"),
        _Param("trials", int, 10, "random polynomials per scale"),
        table=True,
    ),
    ("verify", "derivative"): _command(
        _run_verify(lambda cfg, threads: derivative_rows(cfg["N"], cfg["p"], cfg["trials"], cfg["seed"], threads)),
        _Param("N", int, None, "top degree of the sweep", required=True),
        _Param("p", _pnorm, 2.0, "norm exponent"),
        _Param("trials", int, 10, "random polynomials per scale"),
        table=True,
    ),
    ("verify", "localization"): _command(
        _run_verify(lambda cfg, threads: localization_rows(cfg["N"], cfg["p"], cfg["eps"], cfg["ifrac"],
                                                           cfg["trials"], cfg["seed"], threads)),
        _Param("N", int, None, "top degree of the sweep", required=True),
        _Param("p", _pnorm, 2.0, "norm exponent (finite)"),
        _Param("eps", float, 0.5, "excess exponent in the log factor"),
        _Param("ifrac", float, 1.0, "interval length as a fraction of 1/degree"),
        _Param("trials", int, 10, "random polynomials per scale"),
        table=True,
    ),
    ("verify", "holo"): _command(
        _run_verify(lambda cfg, threads: holo_rows(cfg["N"], cfg["grid"], cfg["seed"])),
        _Param("N", int, 256, "largest tooth count; sweep doubles from 8"),
        _Param("grid", int, HOLO_GRID, "boundary grid size, power of two"),
        table=True,
    ),
    ("analyze", "index"): _command(
        _run_analyze_index,
        _FUNCTION_PARAM,
        _Param("x", float, None, "evaluation point in [0, 1)", required=True),
        _Param("mlo", int, 6, "smallest schedule exponent"),
        _Param("mhi", int, 18, "largest schedule exponent"),
    ),
    ("analyze", "levelset"): _command(
        _run_analyze_levelset,
        _FUNCTION_PARAM,
        _Param("beta", float, None, "level of the divergence index", required=True),
        *_LEVEL_PARAMS,
        table=True,
    ),
    ("analyze", "spectrum"): _command(
        _run_analyze_spectrum,
        _FUNCTION_PARAM,
        _Param("p", _pnorm, None, "norm exponent for the reference line", required=True),
        _Param("beta-min", float, 0.0, "first beta on the grid"),
        _Param("beta-max", float, 0.5, "last beta on the grid"),
        _Param("steps", int, 11, f"number of beta grid points, 1 to {_MAX_STEPS}"),
        *_LEVEL_PARAMS,
        table=True,
    ),
    ("probe", "prevalence"): _command(
        _run_probe_prevalence,
        _Param("s", int, ProbeConfig.s, "perturbation dimension"),
        _Param("alpha", float, ProbeConfig.alpha, "approximation exponent of the family"),
        _Param("p", _pnorm, ProbeConfig.p, "norm exponent of the family"),
        _Param("beta", float, ProbeConfig.beta, "growth exponent tested against"),
        _Param("R", float, ProbeConfig.R, "half-width of the coefficient cube"),
        _Param("trials", int, ProbeConfig.trials, "Monte-Carlo trials"),
        _Param("thresh", float, ProbeConfig.m_thresh, "success threshold for the normalized envelope"),
        _Param("depth", int, ProbeConfig.depth, "level of the dyadic test points"),
        _Param("jmax", int, ProbeConfig.jmax, "top block level of the family"),
        _Param("in", str, None, "coefficient JSON of the base function (default: zero)"),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process.

    Every parameter flag defaults to None and _resolve fills in the
    defaults, so one parse leaves nothing behind for the next.
    """
    top = argparse.ArgumentParser(prog="fdl", description=__doc__.splitlines()[0])
    commands = top.add_subparsers(dest="command", required=True)
    subcommands = {}
    for (command, sub), entry in _COMMANDS.items():
        if command not in subcommands:
            subcommands[command] = commands.add_parser(command).add_subparsers(dest="subcommand", required=True)
        sp = subcommands[command].add_parser(sub)
        for param in entry.params:
            sp.add_argument(f"--{param.key}", dest=param.key, type=param.conv,
                            default=None, choices=param.choices, help=param.help)
        sp.add_argument("--config", help="flat key=value file; flags override its entries")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker pool size for trial batches (default: 1, serial)")
    return top


def _read_config_file(path: str) -> dict:
    entries = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"config key {key!r} is set twice")
        entries[key] = value
    return entries


def _resolve(ns: argparse.Namespace) -> dict:
    spec = _COMMANDS[(ns.command, ns.subcommand)].params
    filecfg = _read_config_file(ns.config) if ns.config else {}
    unknown = set(filecfg) - {p.key for p in spec}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for param in spec:
        value = getattr(ns, param.key)
        if value is None and param.key in filecfg:
            value = param.conv(filecfg[param.key])
        if value is None:
            if param is _SEED_PARAM:
                env = os.environ.get("FDL_SEED")
                value = int(env) if env else DEFAULT_SEED
            elif param.required:
                raise ValueError(f"missing required parameter --{param.key}")
            else:
                value = param.default
        if isinstance(value, float) and math.isnan(value):
            raise ValueError(f"--{param.key} must be a number, got nan")
        if param.conv is float and value is not None and math.isinf(value):
            raise ValueError(f"--{param.key} must be finite, got {value}")
        cfg[param.key] = value
    if cfg.get("out") and cfg.get("csv") and Path(cfg["out"]).resolve() == Path(cfg["csv"]).resolve():
        raise ValueError(f"--out and --csv name the same file: {cfg['out']}")
    return cfg


def _json_text(value, pad: str = "\n") -> str:
    """What json.dumps(sort_keys=True, indent=2) writes for value, in one walk: each float as
    repr(util.round_sig(x)), an infinity as "inf" or "-inf"; pad opens a line at value's depth.
    Floats, plain ints and lists make up most of a payload, so their type checks come first."""
    if isinstance(value, (float, np.floating)):
        text = "%.12g" % value  # as _render_csv writes a float
        if text == "nan":  # each container the error leaves adds its key to its args, innermost first
            raise FloatingPointError()
        if text[-1] == "f":
            return f'"{text}"'
        if "e+1" in text or "e-3" in text:  # repr writes 1e12..1e16 unexponented, a subnormal in fewer digits
            return repr(float(text))
        return text if "." in text or "e" in text else text + ".0"
    if type(value) is int:
        return repr(value)
    inner, texts = pad + "  ", []
    if isinstance(value, (list, tuple, np.ndarray)):
        try:
            for v in value.tolist() if isinstance(value, np.ndarray) else value:
                texts.append(_json_text(v, inner))
        except FloatingPointError as exc:
            exc.args += (f"[{len(texts)}]",)
            raise
        return "[" + inner + ("," + inner).join(texts) + pad + "]" if texts else "[]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, dict):
        try:
            for key, v in sorted({str(k): v for k, v in value.items()}.items()):
                texts.append(f"{encode_basestring_ascii(key)}: {_json_text(v, inner)}")
        except FloatingPointError as exc:
            exc.args += (f".{key}",)
            raise
        return "{" + inner + ("," + inner).join(texts) + pad + "}" if texts else "{}"
    if dataclasses.is_dataclass(value):  # checked last, so that the many leaves above never pay for it
        return _json_text(dataclasses.asdict(value), pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_csv(header, rows) -> str:
    """The rows under the header, floats to 12 digits; a NaN cell fails the run, naming its row and column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        cells = ["%.12g" % v if isinstance(v, (float, np.floating)) else v for _, v in zip(header, row)]
        if "nan" in cells:
            raise AssertionError(f"csv row {i} column {header[cells.index('nan')]} is NaN")
        writer.writerow(cells)
    return buf.getvalue()


def run(argv) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve(ns)
        if ns.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {ns.threads}")
        payload, table = _COMMANDS[(ns.command, ns.subcommand)].handler(cfg, ns.threads)
        # both texts are rendered, and so NaN-checked, before either is written
        outputs = [] if table is None else [(_render_csv(*table), cfg["csv"])]
        if table is None or cfg["out"]:
            report = {**(dataclasses.asdict(payload) if dataclasses.is_dataclass(payload) else payload),
                      "config": {"command": ns.command, "subcommand": ns.subcommand,
                                 **{k: v for k, v in cfg.items() if k not in _PATH_KEYS}}}
            try:
                outputs.append((_json_text(report) + "\n", cfg["out"]))
            except FloatingPointError as exc:
                raise AssertionError(f"payload{''.join(reversed(exc.args))} is NaN") from None
        for text, path in outputs:
            if path is None:
                sys.stdout.write(text)
            else:
                Path(path).write_text(text, encoding="utf-8")
        return 0
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
