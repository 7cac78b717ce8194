"""Runs one workload in a fresh interpreter and prints its measurements.

Started by run.py, once per measured run and once per set-up sample. The
worker imports fdl from the checkout's ``src``, writes the workload's seeded
inputs, runs one discarded warm-up pass of the call list, then timed passes
until ``--seconds`` have passed (at least MIN_PASSES). Before every timed
pass, and after the last one, it times CAL_PER_PASS samples of the host
calibration kernel (hostcal.py), which turn the median pass time into
``wall_s`` at the reference host speed. With ``--trace 1`` the first two
timed passes are traced, one with the default thread count and a serial one
with ``--threads 1``. Every pass is gated. The last stdout line is a JSON
object for run.py; ``.perfbench_work/<workload>/run.json`` keeps the raw
pass and kernel times, gate findings, output digests and provenance.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostcal

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_RTOL = 1e-6
MIN_PASSES = 3
MAX_PROBLEMS = 20
CAL_PER_PASS = 3
CAL_PER_SETUP = 3


def _import_checked():
    """Imports fdl from the checkout's src tree, never from an installed copy."""
    if not (SRC / "fdl" / "__init__.py").is_file():
        raise SystemExit(f"error: no fdl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdl

    if SRC.resolve() not in Path(fdl.__file__).resolve().parents:
        raise SystemExit(f"error: fdl was imported from {fdl.__file__}, not from {SRC}")


def _blas_threads():
    """OpenBLAS thread count read from the library numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "fdl").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def reference_mismatches(expected: dict, observed: dict) -> list[str]:
    """Key scalars that differ from the reference by more than REFERENCE_RTOL."""
    out = []
    for key, want in expected.items():
        got = observed.get(key)
        pairs = list(zip(np.atleast_1d(want), np.atleast_1d(got))) if got is not None else []
        if len(pairs) != np.size(want) or any(
                not math.isclose(g, w, rel_tol=REFERENCE_RTOL, abs_tol=1e-12) for w, g in pairs):
            out.append(f"{key} = {got}, reference {want}")
    return out


class Session:
    """Runs passes of one call list and gates every pass; output bytes must repeat the first pass."""

    def __init__(self, calls, reference):
        self.calls = calls
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None
        self.scalars = {}

    def run_pass(self, threads=None) -> float:
        codes = []
        start = time.perf_counter()
        for call in self.calls:
            try:
                codes.append(call.execute(threads))
            except Exception as exc:  # a raising library call is a failed call, not a crash
                codes.append(repr(exc))
        wall = time.perf_counter() - start
        self._gate(codes)
        return wall

    def _gate(self, codes):
        first = self.digests is None
        if first:
            self.digests = {}
        for call, code in zip(self.calls, codes):
            problems = [] if code == 0 else [f"exit {code}"]
            if not problems:
                try:
                    found, scalars = call.gate(call)
                    digests = call.digests()
                except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                    found, scalars, digests = [f"unreadable output: {exc!r}"], {}, None
                problems += found
                if first:
                    self.digests[call.label] = digests
                elif digests != self.digests.get(call.label):
                    problems.append("output bytes differ from the first pass")
                self.scalars[call.label] = scalars
                if self.reference is not None:
                    expected = self.reference.get(call.label)
                    problems += (["no reference values"] if expected is None
                                 else reference_mismatches(expected, scalars))
            self.attempted += 1
            if problems:
                self.failed += 1
                self._note(f"{call.label}: {'; '.join(problems)}")

    def _note(self, problem):
        if problem not in self.problems and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def _timed_passes(session, calibration, seconds, start) -> tuple[list[float], list[float]]:
    """Untraced passes until ``seconds`` have passed, with kernel samples around each."""
    walls, cals = [], calibration.samples(CAL_PER_PASS)
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        walls.append(session.run_pass())
        cals += calibration.samples(CAL_PER_PASS)
    return walls, cals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the inputs are written; print the monotonic clock and kernel times")
    args = parser.parse_args(argv)

    _import_checked()
    import workloads

    work = ROOT / ".perfbench_work" / args.workload
    calls = workloads.setup(args.workload, args.seed, args.size, work)
    if args.setup_only:
        done = time.monotonic()
        hostcal.sample()  # warm-up, discarded
        print(json.dumps({"setup_done": done, "cal_s": hostcal.samples(CAL_PER_SETUP)}))
        return 0

    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    gated = args.seed == workloads.DEFAULT_SEED and args.size == "full"
    session = Session(calls, references.get(args.workload, {}) if gated else None)
    record = {"workload": args.workload, "size": args.size, "trace": args.trace,
              "provenance": _provenance(args.seed)}
    session.run_pass()  # warm-up, discarded: first-call costs are not what a pass measures
    calibration = hostcal.Helper()
    try:
        walls, cals, out = _measure(args, session, calibration, work)
    finally:
        calibration.close()
    out.update(attempted=session.attempted, failed=session.failed, passes=len(walls),
               raw_wall_s=statistics.median(walls), cal_s=statistics.median(cals), problems=session.problems)
    record.update(out, pass_walls_s=walls, cal_samples_s=cals, digests=session.digests, scalars=session.scalars)
    (work / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(out))
    return 0


def _measure(args, session, calibration, work):
    """Timed (and, with --trace 1, traced) passes; returns pass times, kernel times and metrics."""
    from tracer import Tracer, layer_metrics

    start = time.perf_counter()
    out = {}
    if args.trace:
        traced = []
        for threads, name in ((None, "trace.jsonl"), (1, "trace_serial.jsonl")):
            tracer = Tracer()
            tracer.install()
            try:
                origin = time.perf_counter()
                wall = session.run_pass(threads)
            finally:
                tracer.uninstall()
            tracer.write_jsonl(work / name, origin)
            traced.append((tracer, wall))
        walls, cals = _timed_passes(session, calibration, args.seconds, start)
        (tracer, wall), (_, serial_wall) = traced
        out["metrics"] = layer_metrics(tracer, wall)
        out["metrics"].update({
            "trace.wall_s": wall,
            "trace.serial_wall_s": serial_wall,
            "trace.overhead_s": wall - statistics.median(walls),
        })
    else:
        walls, cals = _timed_passes(session, calibration, args.seconds, start)
        out["metrics"] = {
            "wall_s": statistics.median(walls) * hostcal.scale(cals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return walls, cals, out


if __name__ == "__main__":
    sys.exit(main())
