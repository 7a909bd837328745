"""One float64 scratch buffer per thread, for calls that return only floats.

A call takes ``rows`` rows of ``size`` entries of its thread's buffer, so a
thread that makes many calls faults its draw-sized pages in once.  The
thread keeps the buffer, grown to its largest request, until the thread
exits.  A caller must return no view of it and hold none across a call to
another user: the next request on the thread hands out the same memory.
How many rows each caller takes is documented with it: `mc_ratio_detail`
and `experiments._run_trials`.
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
    """CPUs this process may run on: its affinity mask, where the platform has one.

    Callers start a helper thread only when this is at least 2: on one CPU a
    helper only time-shares with the calling thread, while its buffer is
    memory the process would not otherwise hold.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1
