"""One float64 scratch buffer per thread, for calls that return only floats.

Two callers draw into it, so a thread that makes many calls faults its
draw-sized pages in once: `mc_ratio_detail` takes 2 rows, or 3 for the
cross-difference form (``validate-claims`` runs two forms on a helper
thread when it may use 2 CPUs, so 3 + 2 rows in all), and the trial
loop `experiments._run_trials`, behind `run_trial` and every sweep, takes 2
rows (train and test) per trial in flight: 2, or 4 in a one-worker sweep
that draws ahead, which fills one half on a helper thread while the calling
thread scores the other.  A thread keeps its buffer, grown to its largest
request, until the thread exits.  A caller must return no view of it and
must not call another user while it holds one: the next request on the
thread hands out the same memory.

Both helper threads run only when `usable_cpus` is at least 2.  On one CPU
a helper only time-shares with the calling thread, while its buffer is
memory the process would not otherwise hold.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_local = threading.local()


def scratch(rows: int, size: int) -> np.ndarray:
    """This thread's buffer as ``rows`` C-contiguous rows of ``size`` float64 entries.

    The contents are whatever the thread's last caller left.  The buffer is
    reallocated only when it holds fewer than ``rows * size`` entries.
    """
    buffer = getattr(_local, "buffer", None)
    if buffer is None or buffer.size < rows * size:
        buffer = _local.buffer = np.empty(rows * size)
    return buffer[: rows * size].reshape(rows, size)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1
