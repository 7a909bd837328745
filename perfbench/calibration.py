"""A fixed reference kernel that tracks the speed of the machine.

The benchmark runs on shared virtual machines whose speed drifts by 20-30%
over tens of seconds to minutes, as other tenants come and go.  A drift that
lasts longer than a run cannot be averaged away inside the run.  So every
timed unit is bracketed by two runs of this kernel, each about a quarter of a
second, and the unit's times are multiplied by ``REFERENCE_S / mean(kernel
before, kernel after)``: a time then reads as seconds at the speed the
machine had when ``REFERENCE_S`` was measured.  A unit that the machine
slowed down is scaled down by about as much as the kernels next to it were
slowed.  Wall times are scaled by the kernel's wall time, and CPU times by
its CPU time, which like theirs leaves out time the host gave to other
tenants.  A set-up probe is short and is scaled by the kernel just before
it.

The kernel uses numpy only, never rff_lab, so a change to the program does
not move it; the ratio of a unit's time to the kernel's is the program's
cost.  Its mix follows a sweep trial: per-device generator set-up, normal
draws, ratios, column normalization and a small Gram matrix.  Its arrays are
small, so it does not raise the run's peak RSS.  BLAS is pinned to one thread
by the caller.
"""

from __future__ import annotations

import time

import numpy as np

#: median seconds of `kernel_seconds` on the 2-core x86-64 machine where the
#: benchmark's first numbers were taken (Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
REFERENCE_S = 0.220

DEVICES = 80
SAMPLES, SUBCARRIERS = 200, 52
REPEATS = 4


def _kernel() -> float:
    acc = 0.0
    for device in range(DEVICES):
        rng = np.random.default_rng([7, device])
        g = rng.standard_normal((SAMPLES, SUBCARRIERS))
        h = rng.standard_normal((SAMPLES, SUBCARRIERS))
        r = np.abs(g / (h + 3.0))
        r -= r.mean(axis=0)
        r /= r.std(axis=0) + 1.0
        acc += float((r.T @ r).trace())
    return acc


def kernel_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed amount of numpy work, about 0.22 s each."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(REPEATS):
        _kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def scale(*kernel_times: float) -> float:
    """The factor that takes a time measured next to these kernel runs to reference speed."""
    return REFERENCE_S * len(kernel_times) / sum(kernel_times)
