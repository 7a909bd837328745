"""One float64 scratch buffer per thread, for calls that return only floats.

`run_trial` and `mc_ratio_detail` draw into it, so a thread that makes many
calls faults its draw-sized pages in once.  A thread keeps its buffer, grown
to its largest request, until the thread exits.  A caller must return no
view of it and must not call another user while it holds one: the next
request on the thread hands out the same memory.
"""

from __future__ import annotations

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
