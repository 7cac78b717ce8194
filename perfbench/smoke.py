"""Harness smoke test: every workload at tiny sizes, in well under a minute.

    python3 perfbench/smoke.py

Checks that each run prints a result line with exactly the keys the
benchmark contract names, that every metric of BENCHMARK.json is emitted with
its unit, that no call fails (fail_frac 0), that every per-layer metric is
nonzero on some workload, and that the benchmark refuses to run without the
fdl sources. Exits non-zero on the first broken expectation.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, "perfbench/run.py", "--seed", "20127", "--seconds", "1", "--size", "tiny"]


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(RUN + ["--workload", workload, "--trace", str(trace)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nonzero = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            res = _result(workload, trace)
            where = f"{workload} --trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{where}: result keys {sorted(res)}")
            if res["failed"] != 0 or not res["correct"] or res["attempted"] < 1:
                raise SystemExit(f"{where}: {res['failed']} of {res['attempted']} calls failed")
            expected = {spec["name"]: spec["unit"] for spec in specs}
            got = {name: metric["unit"] for name, metric in res["metrics"].items()}
            if got != expected:
                raise SystemExit(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
            nonzero |= {name for name, metric in res["metrics"].items() if metric["value"] != 0}
            print(f"ok  {where}: {res['attempted']} calls, fail_frac 0")
    idle = {spec["name"] for spec in bench["per_layer"]} - nonzero
    if idle:
        raise SystemExit(f"per-layer metrics zero on every workload: {sorted(idle)}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(RUN + ["--workload", bench["workloads"][0]["name"], "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("the benchmark ran without the fdl sources")
    print("ok  refuses to run without src/fdl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
