"""Host-speed calibration: a fixed kernel timed next to the measured work.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over minutes, while the work per pass stays the same. Each run
therefore times this kernel, which does not touch fdl, between the passes
it measures, and reports its times scaled to a reference host speed:

    reported = measured * CAL_REF_S / median(kernel times of the same run)

A change to fdl moves the measured times and leaves the kernel alone, so it
moves the reported figure by the same share. The kernel mixes the three
kinds of work the workloads do: interpreter loops, cache-resident numpy
arithmetic, and first touches of freshly mapped memory (page faults, which
are a fifth to a third of a pass on the heavier workloads). CAL_REF_S only
fixes the unit: it is the kernel's median time on the 2-vCPU Intel Xeon
virtual machine the benchmark was tuned on, so there a reported second is
about a wall second.

``Helper`` runs the kernel in a child process, so that its memory does not
count in the measured process's peak RSS. Run as a script, this module is
that child: it reads a sample count per line and answers with the times.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

CAL_REF_S = 0.040


def sample() -> float:
    """Seconds for one fixed unit of interpreter, FFT and fresh-memory work."""
    start = perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 1 << 16)
    for _ in range(12):
        np.fft.rfft(x)
    y = np.empty(1 << 22)  # 32 MiB, mapped fresh on every call
    y.fill(1.0)
    y *= 1.0000001
    del y
    return perf_counter() - start


def samples(count: int) -> list[float]:
    return [sample() for _ in range(count)]


def scale(times: list[float]) -> float:
    """Factor that converts times measured next to these kernel times to the reference speed."""
    return CAL_REF_S / statistics.median(times)


class Helper:
    """The kernel in a child process; ``close`` ends it and waits for it."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.samples(1)  # warm-up, discarded

    def samples(self, count: int) -> list[float]:
        self._proc.stdin.write(f"{count}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration helper exited")
        return json.loads(line)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def _serve() -> None:
    for line in sys.stdin:
        print(json.dumps(samples(int(line))), flush=True)


if __name__ == "__main__":
    _serve()
