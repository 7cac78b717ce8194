"""The four benchmark workloads: seeded inputs, call lists and correctness gates.

Each workload is a fixed list of ``fdl.cli.run([...])`` calls, plus
acceptance-criterion library calls where the CLI has no entry. ``setup``
writes the workload's inputs from the seed and returns its calls; the
worker runs the list and applies every call's gate after each pass.

A gate checks invariants that hold for any seed (certificate margins,
trend factors, probe fractions, box slopes) and returns the call's key
scalars, which the worker compares with ``reference.json`` at the default
seed and full size. Output bytes are digested, never gated: a later change
may legitimately alter them (the closed-form log saturator does).
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import fdl
import fdl.analysis
import fdl.cli

DEFAULT_SEED = fdl.DEFAULT_SEED
NORM_CAP = 1.0 + 1e-9

# Per-pass sizes. "full" is what the benchmark measures; "tiny" keeps the
# same call shapes small enough for the harness smoke test.
SIZES = {
    "full": {
        "maximal": ("2048", "4"), "dirichlet": ("2048", "1"), "localization": ("1024", "10"),
        "logsat": range(10, 14), "witness": "1024", "holo": "128", "pj": range(8, 17),
        "grid": "16384", "smhi": "18", "mhi": "14",
        "probe": ("16", "8", "2000"), "panels": (64, 256),
    },
    "tiny": {
        "maximal": ("64", "2"), "dirichlet": ("2048", "1"), "localization": ("32", "2"),
        "logsat": range(10, 11), "witness": "256", "holo": "16", "pj": range(8, 10),
        "grid": "1024", "smhi": "16", "mhi": "8",
        "probe": ("12", "4", "50"), "panels": (4, 64),
    },
}


class Call:
    """One entry of a call list: a CLI argv or a library function, and its gate.

    ``gate(call)`` returns (problems, scalars): the broken invariants, and
    the key scalars compared against the reference at the default seed.
    """

    def __init__(self, label, gate, argv=None, fn=None, outputs=()):
        self.label = label
        self.gate = gate
        self.argv = argv
        self.fn = fn
        self.outputs = [Path(p) for p in outputs]
        self.result = None

    def execute(self, threads=None) -> int:
        """Runs the call; returns its exit code (library calls return 0 or raise)."""
        if self.argv is None:
            self.result = self.fn()
            return 0
        argv = list(self.argv)
        if threads is not None:
            argv += ["--threads", str(threads)]
        return fdl.cli.run(argv)

    def digests(self) -> dict:
        if self.argv is None:
            blob = json.dumps(self.result, sort_keys=True).encode()
            return {self.label: hashlib.sha256(blob).hexdigest()}
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in self.outputs}


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _csv_ratios(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row["ratio"]) for row in csv.DictReader(fh)]


def _problems(*checks):
    return [message for ok, message in checks if not ok]


def _gate_pj(call):
    cert = _json(call.outputs[0])["certificates"]
    return _problems((cert["norm"] <= NORM_CAP, f"norm {cert['norm']} exceeds 1"),
                     (cert["margin"] >= 0.0, f"margin {cert['margin']} < 0")), {}


def _gate_logsat(call):
    cert = _json(call.outputs[0])["certificates"]
    return _problems((cert["sup_norm"] <= NORM_CAP, f"sup norm {cert['sup_norm']} exceeds 1"),
                     (cert["margin"] >= 0.0, f"margin {cert['margin']} < 0")), {}


def _gate_witness(call):
    cert = _json(call.outputs[0])["certificates"]
    return _problems((cert["margin"] >= 0.0, f"margin {cert['margin']} < 0")), {}


def _report_scalars(report):
    return {"worst_ratio": report["worst_ratio"], "fitted_constant": report["fitted_constant"]}


def _gate_holo(call):
    report = _json(call.outputs[0])
    c4 = _csv_ratios(call.outputs[1])
    return _problems((max(c4) <= 1.0 + 1e-6, f"log-derivative ratio {max(c4)} exceeds 1")), \
        _report_scalars(report)


def _gate_maximal(call):
    report = _json(call.outputs[0])
    trend = [value for _, value in report["scale_trend"]]
    factors = [b / a for a, b in zip(trend, trend[1:])]
    return _problems((all(0.5 < f < 2.0 for f in factors), f"trend factors {factors} leave (0.5, 2)")), \
        _report_scalars(report)


def _gate_dirichlet(call):
    report = _json(call.outputs[0])
    top = max(_csv_ratios(call.outputs[1]))
    bound = 1.1 * report["fitted_constant"]
    return _problems((top <= bound, f"greedy max {top} exceeds 1.1 x fitted {bound / 1.1}")), \
        _report_scalars(report)


def _gate_localization(call):
    report = _json(call.outputs[0])
    return _problems((report["worst_ratio"] >= 0.01, f"localization ratio {report['worst_ratio']} < 0.01")), \
        _report_scalars(report)


def _gate_levelset(call):
    slope = _json(call.outputs[0])["slope"]
    return _problems((0.0 <= slope <= 1.0, f"box slope {slope} outside [0, 1]")), {"slope": slope}


def _gate_spectrum(call):
    slopes = [row[1] for row in _json(call.outputs[0])["curve"]]
    return _problems((all(0.0 <= s <= 1.0 for s in slopes), f"box slopes {slopes} outside [0, 1]")), \
        {"slope": slopes}


def _gate_probe(call):
    out = _json(call.outputs[0])
    return _problems((out["fraction"] >= 0.95, f"probe fraction {out['fraction']} < 0.95"),
                     (out["forced_unit_success"] is True, "forced unit trial failed")), \
        {"fraction": out["fraction"]}


def _gate_panels(call):
    res = call.result
    return _problems((res["fraction"] >= 0.9, f"only {res['fraction']} of the off-grid panels pass"),
                     (res["center_min_beta"] >= 0.2, f"center beta {res['center_min_beta']} < 0.2")), res


def _write_poly(path: Path, poly) -> None:
    path.write_text(json.dumps(poly.to_json_dict()), encoding="utf-8")


def _unit_rademacher(degree: int, seed: int, index: int):
    poly = fdl.rademacher_poly(degree, fdl.trial_rng(seed, index))
    return poly * (1.0 / math.sqrt(2 * degree + 1))


def _verify_scans(seed, size, work):
    s = str(seed)
    (n_max, t_max), (n_dir, t_dir), (n_loc, t_loc) = size["maximal"], size["dirichlet"], size["localization"]
    return [
        Call("verify maximal", _gate_maximal, outputs=[work / "maximal.json", work / "maximal.csv"],
             argv=["verify", "maximal", "--N", n_max, "--trials", t_max, "--seed", s,
                   "--out", str(work / "maximal.json"), "--csv", str(work / "maximal.csv")]),
        Call("verify dirichlet", _gate_dirichlet, outputs=[work / "dirichlet.json", work / "dirichlet.csv"],
             argv=["verify", "dirichlet", "--N", n_dir, "--strategy", "greedy", "--trials", t_dir,
                   "--seed", s, "--out", str(work / "dirichlet.json"), "--csv", str(work / "dirichlet.csv")]),
        Call("verify localization", _gate_localization,
             outputs=[work / "localization.json", work / "localization.csv"],
             argv=["verify", "localization", "--N", n_loc, "--trials", t_loc, "--seed", s,
                   "--out", str(work / "localization.json"), "--csv", str(work / "localization.csv")]),
    ]


def _construct_certify(seed, size, work):
    s = str(seed)
    j = size["witness"]
    # The witness base must fit inside [-j, j]; it cancels in the certified
    # two-scale difference, so any seeded base keeps the margin.
    _write_poly(work / "witness_base.json", _unit_rademacher(min(64, int(j) // 2), seed, 9100))
    calls = [
        Call(f"construct logsat n=2^{e}", _gate_logsat, outputs=[work / f"logsat{e}.json"],
             argv=["construct", "logsat", "--n", str(1 << e), "--seed", s,
                   "--out", str(work / f"logsat{e}.json")])
        for e in size["logsat"]
    ]
    calls.append(Call("construct witness", _gate_witness, outputs=[work / "witness.json"],
                      argv=["construct", "witness", "--j", j, "--eta", "0.05", "--seed", s,
                            "--in", str(work / "witness_base.json"), "--out", str(work / "witness.json")]))
    calls.append(Call("verify holo", _gate_holo, outputs=[work / "holo.json", work / "holo.csv"],
                      argv=["verify", "holo", "--N", size["holo"], "--seed", s,
                            "--out", str(work / "holo.json"), "--csv", str(work / "holo.csv")]))
    calls += [
        Call(f"construct pj j={level}", _gate_pj, outputs=[work / f"pj{level}.json"],
             argv=["construct", "pj", "--j", str(level), "--alpha", "2", "--p", "2", "--seed", s,
                   "--out", str(work / f"pj{level}.json")])
        for level in size["pj"]
    ]
    return calls


def _analyze_grid(seed, size, work):
    s = str(seed)
    # Criterion-08 function plus a seeded perturbation of 2-norm 1e-3 and
    # degree 32, below the first schedule entry 2^6: every partial sum in the
    # schedule moves by the same small function, the block structure stays.
    g = fdl.disjoint_family(3, 2.0, 2.0, 14).member(1) + _unit_rademacher(32, seed, 9200) * 1e-3
    _write_poly(work / "g.json", g)
    common = ["--in", str(work / "g.json"), "--grid", size["grid"], "--smhi", size["smhi"],
              "--mhi", size["mhi"], "--seed", s]
    return [
        Call("analyze levelset", _gate_levelset, outputs=[work / "levelset.json", work / "levelset.csv"],
             argv=["analyze", "levelset", "--beta", "0.2", *common,
                   "--out", str(work / "levelset.json"), "--csv", str(work / "levelset.csv")]),
        Call("analyze spectrum", _gate_spectrum, outputs=[work / "spectrum.json", work / "spectrum.csv"],
             argv=["analyze", "spectrum", "--p", "2", *common,
                   "--out", str(work / "spectrum.json"), "--csv", str(work / "spectrum.csv")]),
    ]


def _probe_offgrid(seed, size, work):
    s = str(seed)
    jmax, depth, trials = size["probe"]
    n_panels, panel_points = size["panels"]
    # Criterion 09's base (exactly it at the default seed) and criterion 08's
    # function, panels and dyadic centers.
    _write_poly(work / "probe_base.json", fdl.rademacher_poly(256, fdl.trial_rng(seed, 9000)))
    g1 = fdl.disjoint_family(3, 2.0, 2.0, 14).member(1)
    panels = [fdl.trial_rng(seed, 8000 + i).uniform(0.0, 1.0, panel_points) for i in range(n_panels)]
    centers = np.concatenate([(2 * np.arange(16) + 1) / 32.0, (2 * np.arange(16) + 1) / 64.0])
    schedule = fdl.dyadic_schedule(6, 18)

    def divergence_panels():
        passed = 0
        for xs in panels:
            betas, _ = fdl.analysis.divergence_profile(g1, xs, schedule)
            passed += float(np.mean(betas <= 0.1)) >= 0.9
        betas, _ = fdl.analysis.divergence_profile(g1, centers, schedule)
        return {"fraction": passed / len(panels), "center_min_beta": float(betas.min())}

    probe = ["probe", "prevalence", "--jmax", jmax, "--depth", depth, "--trials", trials, "--seed", s]
    return [
        Call("probe prevalence zero base", _gate_probe, outputs=[work / "probe_zero.json"],
             argv=probe + ["--out", str(work / "probe_zero.json")]),
        Call("probe prevalence rademacher base", _gate_probe, outputs=[work / "probe_base_out.json"],
             argv=probe + ["--in", str(work / "probe_base.json"), "--out", str(work / "probe_base_out.json")]),
        Call("divergence_profile panels", _gate_panels, fn=divergence_panels),
    ]


WORKLOADS = {
    "verify-scans": _verify_scans,
    "construct-certify": _construct_certify,
    "analyze-grid": _analyze_grid,
    "probe-offgrid": _probe_offgrid,
}


def setup(name: str, seed: int, size: str, work: Path) -> list[Call]:
    """Writes the workload's seeded inputs under ``work`` and returns its calls."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, SIZES[size], work)
