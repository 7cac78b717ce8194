"""fdl benchmark: one workload per call, measured in fresh interpreters.

    python3 perfbench/run.py --workload verify-scans --seed 20127 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 20127 --seconds 20 --trace 0

Prints one line per metric with its unit, then, as the last line, a JSON
object with the keys correct, attempted, failed and metrics. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones. ``--workload all`` runs every workload in turn and ends with
one JSON object keyed by workload. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostcal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
TIME_LIMIT_S = 170.0


class HarnessError(RuntimeError):
    pass


def _worker(args, deadline, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker for {args.workload} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, bench) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    metrics = {}
    notes = []
    if not args.trace:
        setups, cals = [], []
        for _ in range(SETUP_SAMPLES):
            started = time.monotonic()
            sample = _worker(args, deadline, "--setup-only")
            setups.append(sample["setup_done"] - started)
            cals += sample["cal_s"]
        metrics["setup_s"] = statistics.median(setups) * hostcal.scale(cals)
        notes.append(("setup_raw_s", statistics.median(setups), "s"))
    result = _worker(args, deadline)
    if not args.trace:
        notes += [("wall_raw_s", result["raw_wall_s"], "s"),
                  ("host_speed", hostcal.CAL_REF_S / result["cal_s"], "ratio"),
                  ("fail_frac", result["failed"] / result["attempted"], "ratio")]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # A layer the workload never enters has no spans: its metrics are 0.
        metrics.update({spec["name"]: 0.0 for spec in specs})
    metrics.update(result["metrics"])
    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    if missing:
        raise HarnessError(f"worker did not report {missing}")
    attempted, failed = result["attempted"], result["failed"]
    for spec in specs:
        print(f"{args.workload:<18} {spec['name']:<38} {metrics[spec['name']]:>14.6g} {spec['unit']}")
    for name, value, unit in notes:
        print(f"{args.workload:<18} {name:<38} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:<18} {failed} of {attempted} calls failed, {result['passes']} timed passes")
    for problem in result["problems"]:
        print(f"{args.workload:<18} FAILED {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]} for spec in specs},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every call for the harness smoke test")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if not (ROOT / "src" / "fdl" / "__init__.py").is_file():
        print(f"error: no fdl sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args, bench)))
            return 0
        results = {}
        for name in names:
            args.workload = name
            results[name] = run_workload(args, bench)
        print(json.dumps(results))
        return 0
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
