"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed available to one process drifts by tens
of percent over minutes, and a whole run can land in a slow or a fast
stretch.  The worker therefore times this fixed kernel, which spatialzeno
never runs, before the first measured pass and after every pass.  Each
pass time is scaled by CAL_REF_S over the mean of the two calibrations
on either side of it, and ``pass_s`` is built from the scaled passes.
run.py runs the kernel in its own process just before starting each
set-up process and scales that set-up time by CAL_REF_S over it.  Both
are thus seconds of a machine on which the kernel takes CAL_REF_S.
The kernel mixes the two kinds of work the workloads do: numpy
operations on arrays of about a million complex values and many small
numpy and Python calls.  It runs in a helper process (``Calibrator``), so
its arrays do not count towards the workload's ``peak_rss_mb``.  The raw
wall times stay in the result record.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# the kernel's time on the 2-vCPU Xeon virtual machine where the benchmark was defined
CAL_REF_S = 0.3


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 1 << 20)
    for i in range(6):
        y = np.exp(1j * (i + 1.0) * x)
        float(np.abs(np.diff(y)).sum())
    small = np.linspace(0.0, 1.0, 33)
    acc = 0.0
    for i in range(3000):
        acc += float(np.sum(np.sin(small * (i % 5))))
        d = {"a": i, "b": (i, i + 1)}
        acc += len(d) + sum(d["b"])
    return time.perf_counter() - t0


class Calibrator:
    """A helper process that runs ``calibrate`` whenever asked."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
