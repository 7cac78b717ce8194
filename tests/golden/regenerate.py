"""Golden CLI outputs: a fixed call list and the sha256 of everything it prints.

Each call of CALLS is one ``fdl`` command line, run in process through
``fdl.cli.run`` from a scratch directory that holds the INPUTS files, so
every ``--in``, ``--out`` and ``--csv`` path is relative. A call's record is
its exit code, the sha256 of its stdout, and the sha256 of each file that its
``--out``/``--csv`` flags name (null when the call left no such file). Its
stderr is kept for ``tests/test_golden.py`` to read, not digested. The
calls run in list order, so a later call may read an earlier call's output.

    python tests/golden/regenerate.py

rewrites ``digests.json`` beside this script, with the numpy and Python
versions and the platform it ran on; ``tests/test_golden.py`` reruns the list
and compares. A change that alters output bytes reruns this script and names
each changed call and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("digests.json")

INPUTS = {
    "base.json": json.dumps({"coeffs": [[0, 1.0, 0.0], [3, 0.25, 0.0]]}),
    "bad.json": json.dumps({"coeffs": 5}),
    "pj.conf": "alpha = 3\nseed = 5  # flags override these\n",
    "nan.conf": "eps = nan\n",
    "unknown.conf": "twist = 3\n",
    "twice.conf": "alpha = 2\nalpha = 3\n",
}

_LEVELSET = "analyze levelset --in pj.json --beta 0.2 --grid 1024 --smhi 10 --mhi 8"
_SPECTRUM = "analyze spectrum --in pj.json --p 2 --steps 5 --grid 1024 --smhi 10 --mhi 8"

CALLS = [
    # the README commands, at small sizes
    "construct pj --j 8 --alpha 2 --p 2 --out pj.json",
    "construct logsat --n 4096 --out sat.json",
    "construct witness --j 256 --eta 0.05 --in base.json --out witness.json",
    "verify dirichlet --N 512 --strategy greedy --trials 2 --out dir.json",
    "verify maximal --N 128 --trials 3 --csv rows.csv --out report.json",
    "verify holo --N 64 --out holo.json",
    "analyze index --in pj.json --x 0.03125 --mlo 6 --mhi 12 --out index.json",
    f"{_LEVELSET} --csv boxes.csv",
    f"{_SPECTRUM} --csv spectrum.csv",
    "probe prevalence --s 3 --jmax 8 --depth 3 --trials 20 --out probe.json",
    # the construct-certify benchmark calls, at the default seed
    *(f"construct logsat --n {1 << e} --out logsat{e}.json" for e in range(10, 14)),
    "construct witness --j 1024 --eta 0.05 --in base.json --out witness1024.json",
    "verify holo --N 128 --out holo128.json --csv holo128.csv",
    *(f"construct pj --j {j} --alpha 2 --p 2 --out pj{j}.json" for j in range(9, 17)),
    # every other subcommand, norm and strategy, and both routes of each output
    "construct pj --j 8 --alpha 2 --p inf",
    "construct pj --j 8 --alpha 3 --p 1 --out pj_p1.json",
    "construct pj --j 6 --p 2 --config pj.conf --alpha 2 --out pj_conf.json",
    "construct family --s 2 --alpha 2 --p 2 --jmax 8 --out family.json",
    "construct holo --k 16 --grid 64 --out holo_k16.json",
    "construct holo --k 8 --omega 4 --grid 256",
    "construct logsat --n 1024 --eps 0.03",
    "verify dirichlet --N 256 --strategy constant --trials 2 --csv dir_constant.csv --out dir_constant.json",
    "verify dirichlet --N 256 --strategy random --trials 2 --csv dir_random.csv --out dir_random.json",
    "verify maximal --N 32 --alpha 1 --trials 2 --seed 7",
    "verify nikolsky --N 32 --trials 2 --csv nikolsky.csv --out nikolsky.json",
    "verify nikolsky --N 32 --p 1 --q 3 --trials 2",
    "verify derivative --N 32 --p inf --trials 2 --csv derivative.csv --out derivative.json",
    "verify localization --N 32 --trials 2 --csv localization.csv --out localization.json",
    "verify localization --N 16 --p 1 --trials 2",
    "verify localization --N 16 --p 3 --eps 0.25 --ifrac 0.5 --trials 2 --csv loc_p3.csv",
    "verify localization --N 16 --p 1000 --trials 2",
    "verify localization --N 4 --p 1e308 --trials 1",
    "verify holo --N 16 --grid 4096 --seed 3 --csv holo16.csv",
    "analyze index --in witness.json --x 0.5 --mlo 6 --mhi 10",
    _LEVELSET,
    f"{_LEVELSET} --out level.json",
    f"{_LEVELSET} --out level_both.json --csv level_both.csv",
    f"{_SPECTRUM} --out spectrum.json --csv spectrum_both.csv",
    "probe prevalence --s 2 --jmax 7 --depth 2 --trials 4 --in base.json --out probe_base.json",
    "probe prevalence --s 2 --jmax 7 --depth 2 --trials 2",
    # exit 1: usage, config and input errors
    "construct pj --alpha 2 --p 2",
    "destruct pj",
    "construct pj --j 6 --alpha 2 --p 2 --config unknown.conf --out unknown.json",
    "verify localization --N 16 --config nan.conf --csv nan_conf.csv",
    "analyze index --in absent.json --x 0.5 --out absent_index.json",
    "analyze index --in bad.json --x 0.1",
    "verify nikolsky --N 8 --trials 1 --threads 0",
    # exit 1: NaN, infinite and out-of-range values
    "analyze spectrum --in pj.json --p nan --csv nan_p.csv",
    "probe prevalence --thresh nan",
    "construct pj --j 8 --alpha inf --p 2",
    "verify localization --N 16 --eps=-inf --csv neg_inf.csv",
    "verify maximal --N 16 --alpha 1e400 --csv big_alpha.csv",
    "verify maximal --N 16 --trials 0",
    "verify dirichlet --N 3 --out dir3.json",
    "verify holo --N 4",
    "probe prevalence --R 0",
    "probe prevalence --R 1e308",
    "probe prevalence --trials 3 --seed -1",
    "probe prevalence --trials 4294967297",
    "probe prevalence --depth 45 --trials 2",
    "verify maximal --N 8 --trials 1 --alpha 966 --csv alpha966.csv",
    "verify localization --N 8 --trials 1 --eps 4400 --csv eps4400.csv",
    "construct family --s 1 --alpha 1.00000001 --p 2 --jmax 8",
    "construct logsat --n 64",
    "construct logsat --n 4096 --eps 10 --out overflow_logsat.json",
    "construct witness --j 4096 --eta 0.05 --eps 10",
    "construct witness --j 256 --eta 1e304 --out eta304.json",
    "construct witness --j 256 --eta 1e305",
    "construct witness --j 256 --eta 1e308",
    # exit 1: flags a subcommand does not take, and the grid and tolerance rules
    "construct pj --j 8 --alpha 2 --p 2 --grid 4096 --out grid.json",
    "construct logsat --n 1024 --grid 4096",
    "construct family --s 2 --alpha 2 --p 2 --jmax 6 --grid 4096",
    "verify holo --N 16 --grid 1000 --csv holo_grid.csv",
    "construct holo --k 16 --grid 1000",
    "construct holo --k 3 --omega 1 --grid 64",
    f"{_LEVELSET.replace('1024', '8')} --csv grid8.csv",
    f"{_LEVELSET} --tol -1",
    "analyze spectrum --in pj.json --p inf",
    "analyze spectrum --in pj.json --p 0.5",
    "analyze spectrum --in pj.json --p 2 --steps 0",
    # exit 1: an omega whose poles 1 + 1/(omega k) round onto the circle
    "construct holo --k 3 --omega 1e17",
    "construct holo --k 3 --omega 1e308",
    # exit 1: a two-entry schedule, whose fitted tail half is one point
    "analyze index --in pj.json --x 0.03125 --mlo 5 --mhi 6",
    "analyze levelset --in pj.json --beta 0 --grid 1024 --smlo 5 --smhi 6 --mhi 8 --csv short_level.csv",
    # exit 1: two outputs routed to one file, and a config key set twice
    "verify maximal --N 16 --trials 1 --out same.txt --csv same.txt",
    "construct pj --j 6 --p 2 --config twice.conf --out twice.json",
    # exit 0: a beta whose n^beta overflows, so every trial fails
    "probe prevalence --s 3 --jmax 8 --depth 3 --trials 20 --beta 200 --out probe_beta.json",
    # exit 1: a schedule exponent past 1023, whose 2^m has no float logarithm
    "analyze index --in pj.json --x 0.03125 --mhi 1100",
    "analyze levelset --in pj.json --beta 0.2 --grid 1024 --smhi 1100 --mhi 8 --csv smhi1100.csv",
    "analyze spectrum --in pj.json --p 2 --grid 1024 --smhi 1100 --mhi 8 --csv spectrum_smhi1100.csv",
    # exit 1: a beta grid past the stated maximum of --steps
    "analyze spectrum --in pj.json --p 2 --steps 9223372036854775808 --csv steps_huge.csv",
    "analyze spectrum --in pj.json --p 2 --steps 10001",
    # exit 1: a localization interval whose trapezoid step |I|/512 is subnormal
    "verify localization --N 4 --trials 1 --p 2 --ifrac 1e-320 --csv ifrac_subnormal.csv",
    # exit 0: fitted tails of 8 or more entries (10 and 9), one on a grid that is not a power of two
    "analyze index --in pj.json --x 0.3 --mlo 4 --mhi 22",
    "analyze spectrum --in pj.json --p 2 --grid 1000 --smlo 4 --smhi 21 --mhi 8",
    # exit 1 before any work: counts past which a row would reuse another scale's random stream
    # (2^20 trials), a frequency would have no exact phase (2^53) or an array no int64 index
    "verify maximal --N 64 --trials 4611686018427387904 --csv trials_huge.csv",
    "verify dirichlet --N 9223372036854775808 --csv n_huge.csv",
    "construct family --s 4611686018427387904 --alpha 2 --p 2 --jmax 8",
    "construct pj --j 53 --alpha 2 --p 2",
    "probe prevalence --s 4611686018427387904",
    "probe prevalence --jmax 70",
    "probe prevalence --depth 4611686018427387904",
    "analyze levelset --in pj.json --beta 0.2 --grid 2147483648 --csv grid_huge.csv",
    "construct holo --k 16 --grid 9223372036854775808",
    # exit 1: --threads above 1 on a subcommand that runs no worker pool
    "construct pj --j 6 --alpha 2 --p 2 --threads 4 --out threads4.json",
    # exit 1: an eta so small that the prune tolerance drops the whole scaled saturator block
    "construct witness --j 256 --eta 1e-17 --out eta_tiny.json",
    # exit 0: the spectrum of the p = 1 saturator against its 1 - beta line
    "analyze spectrum --in pj_p1.json --p 1 --steps 5 --beta-max 1 --grid 1024 --smhi 10 --mhi 8 --csv spectrum_p1.csv",
]


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(), "machine": platform.machine()}


def _named_outputs(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--out", "--csv")]


def run_calls(directory: Path) -> dict:
    """Runs CALLS in directory; maps each call to (exit code, stdout, stderr, {output name: bytes or None}).

    RuntimeWarnings are errors, as in the test suite: a call that starts to
    warn fails here instead of passing with a changed digest.
    """
    import fdl.cli  # here, so that the script can put src on the path first

    cwd = Path.cwd()
    os.chdir(directory)
    try:
        for name, text in INPUTS.items():
            Path(name).write_text(text, encoding="utf-8")
        results = {}
        for call in CALLS:
            argv = call.split()
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                code = fdl.cli.run(argv)
            files = {name: Path(name).read_bytes() if Path(name).exists() else None
                     for name in _named_outputs(argv)}
            results[call] = (code, stdout.getvalue(), stderr.getvalue(), files)
        return results
    finally:
        os.chdir(cwd)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(results: dict) -> dict:
    return {call: {"exit": code, "stdout": _sha(stdout.encode()),
                   "files": {name: None if data is None else _sha(data) for name, data in files.items()}}
            for call, (code, stdout, _, files) in results.items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        calls = digests(run_calls(Path(tmp)))
    DIGESTS.write_text(json.dumps({"versions": versions(), "calls": calls}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(calls)} calls to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
