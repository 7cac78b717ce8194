"""Spans around fdl's public functions, recorded from outside the package.

``from .x import y`` binds a copy of ``y`` in every importing module, so a
wrapped function is installed in every ``fdl`` namespace that holds the
original object; methods are patched on their class. Spans (name, start,
end, parent) stay in memory and are written as JSON lines when the traced
pass ends. A span's self time is its duration minus the part of it that its
child spans cover; time in an unwrapped helper counts as self time of the
nearest wrapped caller. A span started on a worker thread with no open span
of its own takes the main thread's innermost open span as its parent, so
self times summed over threads can exceed the wall time of a parallel pass.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _grid_share(xs) -> float:
    xs = np.asarray(xs, dtype=float)
    return float(xs.ndim == 1 and np.array_equal(xs, np.arange(xs.size) / xs.size))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts read from the arguments the library itself passes to its
# private kernels, so they follow any change of probe resolution or grid.
def _probes(args, kwargs, result):
    return {"probes": 1 << int(_arg(args, kwargs, 1, "probe_exponent"))}


def _maximal_cells(args, kwargs, result):
    # one returned ratio per coefficient row, each a scan of N scales over M points
    return {"scan_cells": len(result) * int(_arg(args, kwargs, 1, "N")) * int(_arg(args, kwargs, 3, "M"))}


def _dirichlet_cells(args, kwargs, result):
    return {"scan_cells": int(np.size(args[0])) * int(_arg(args, kwargs, 1, "N"))}


def _cli_bytes(args, kwargs, result):
    argv = list(args[0])
    paths = [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--out", "--csv")]
    return {"bytes_written": sum(Path(p).stat().st_size for p in paths if Path(p).is_file())}


# (layer, name in the module, counter of work from arguments and result).
TARGETS = [
    ("trig", "TrigPoly.sample", lambda a, k, r: {"grid_points": int(a[1] if len(a) > 1 else k["M"])}),
    ("trig", "TrigPoly.evaluate", lambda a, k, r: {"point_terms": int(np.size(a[1])) * len(a[0])}),
    ("trig", "TrigPoly.norm", None),
    ("trig", "TrigPoly.truncate", None),
    ("trig", "TrigPoly.to_json_dict", None),
    ("trig", "TrigPoly.from_json_dict", None),
    ("trig", "lp_norm", None),
    ("trig", "dirichlet_eval", None),
    ("trig", "modulate", None),
    ("sets", "box_dimension", None),
    ("sets", "_probe_hits", _probes),
    ("sets", "comb_membership", None),
    ("sets", "count_occupied_boxes", None),
    ("sets", "DyadicFamily.contains", None),
    ("construct", "chi_coefficients", None),
    ("construct", "saturator_pj", None),
    ("construct", "saturator_certificate", None),
    ("construct", "disjoint_family", None),
    ("construct", "holo_kernel", lambda a, k, r: {"point_poles": int(np.size(a[1])) * a[0].k}),
    ("construct", "holo_log_derivative", lambda a, k, r: {"point_poles": int(np.size(a[1])) * a[0].k}),
    ("construct", "holo_boundary", None),
    ("construct", "log_lift", None),
    ("construct", "negative_frequency_ratio", None),
    ("construct", "log_saturator", lambda a, k, r: {"grid_points": r.grid_M, "terms": len(r.poly)}),
    ("construct", "logsat_certificate", None),
    ("construct", "residual_witness", None),
    ("verify", "rademacher_poly", None),
    ("verify", "maximal_rows", None),
    ("verify", "_maximal_ratios", _maximal_cells),
    ("verify", "dirichlet_rows", None),
    ("verify", "_max_dirichlet_values", _dirichlet_cells),
    ("verify", "check_localization", None),
    ("verify", "check_holo_bounds", None),
    ("verify", "holo_sweep", None),
    ("analysis", "partial_sums_at", lambda a, k, r: {"point_terms": int(np.size(a[1])) * len(a[0]),
                                                     "grid_share": _grid_share(a[1])}),
    ("analysis", "divergence_profile", None),
    ("analysis", "level_set", None),
    ("analysis", "spectrum_curve", None),
    ("analysis", "prevalence_probe", lambda a, k, r: {"trials": r.trials}),
    ("analysis", "dyadic_test_points", None),
    ("util", "loglog_fit", None),
    ("util", "trial_rng", None),
    ("cli", "run", _cli_bytes),
]


class Tracer:
    """Installs span wrappers on fdl, collects spans, and removes the wrappers."""

    def __init__(self):
        self.spans = []  # [id, parent, name, layer, thread, start, end, counts]
        self._ids = itertools.count()
        self._stacks = {}
        self._main = threading.get_ident()
        self._patches = []

    def _wrap(self, name, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and tid != tracer._main else None
            span = [next(tracer._ids), parent, name, layer, tid, perf_counter(), None, None]
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span[7] = counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [m for n, m in sys.modules.items() if n == "fdl" or n.startswith("fdl.")]
        for layer, qualname, counter in TARGETS:
            module = sys.modules[f"fdl.{layer}"]
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(f"{layer}.{attr}", layer, raw.__func__, counter))
                else:
                    new = self._wrap(f"{layer}.{attr}", layer, raw, counter)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(module, attr, None)
            if original is None and attr.startswith("_"):
                continue  # a private kernel that a later version dropped: its count reads 0
            new = self._wrap(f"{layer}.{attr}", layer, original, counter)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span[1] is not None:
                children[span[1]].append((span[5], span[6]))
        out = {}
        for sid, _, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[sid] = (end - start) - covered
        return out

    def write_jsonl(self, path: Path, origin: float) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, tid, start, end, counts in sorted(self.spans, key=lambda s: s[5]):
                record = {"id": sid, "parent": parent, "name": name, "layer": layer, "thread": tid,
                          "start_s": start - origin, "end_s": end - origin, "self_s": selfs[sid]}
                if counts:
                    record.update(counts)
                fh.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = tracer.self_times()
    m = defaultdict(float)
    grid_terms = 0.0
    for sid, _, name, layer, _, start, end, counts in tracer.spans:
        m[f"{layer}.self_s"] += selfs[sid]
        m[f"{name}.s"] += end - start
        m[f"{name}.self_s"] += selfs[sid]
        m[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            if key != "grid_share":
                m[f"{name}.{key}"] += value
        if name == "analysis.partial_sums_at":
            grid_terms += counts["grid_share"] * counts["point_terms"]
    names = {span[0]: span[2] for span in tracer.spans}
    for parent, child, key in (("sets.box_dimension", "sets._probe_hits", "probes"),
                               ("verify.maximal_rows", "verify._maximal_ratios", "scan_cells"),
                               ("verify.dirichlet_rows", "verify._max_dirichlet_values", "scan_cells")):
        m[f"{parent}.{key}"] = float(sum(span[7][key] for span in tracer.spans
                                         if span[2] == child and names.get(span[1]) == parent))
    m["construct.pole_comb.s"] = m["construct.holo_kernel.s"] + m["construct.holo_log_derivative.s"]
    m["construct.pole_comb.point_poles"] = (m["construct.holo_kernel.point_poles"]
                                            + m["construct.holo_log_derivative.point_poles"])
    terms = m["analysis.partial_sums_at.point_terms"]
    m["analysis.partial_sums_at.grid_share"] = grid_terms / terms if terms else 0.0
    m["cli.bytes_written"] = m["cli.run.bytes_written"]
    m["trace.accounted_share"] = sum(selfs.values()) / wall
    return dict(m)
