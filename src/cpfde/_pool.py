"""The thread pool that the large M-row stages of a realization share.

numpy's FFT, matmul, einsum, inv and searchsorted release the GIL, so a large
call splits its antenna rows (or its subbands, or its blocks) over threads.
Every pool lives for one call: no thread outlives it, so a process forked
later inherits none.  Each job runs the serial arithmetic on its own rows, so
results are bitwise the same for any thread count.

Work on the pool calls only private helpers: a tracer may wrap the public
functions of the calling modules, and a wrapper keeps a single span stack.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

# A call on fewer bytes than this runs serially in the calling thread;
# desk-scale streams (1-2 MB) stay below it.
_PARALLEL_MIN_BYTES = 4 << 20

# A pooled call is cut into this many jobs per thread, so that a thread whose
# CPU another process takes for a while hands its share to the others instead
# of holding up the whole call.
_JOBS_PER_THREAD = 4

_threads: int | None = None  # pool threads; None means every usable CPU


def _thread_count() -> int:
    if _threads is not None:
        return _threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _set_threads(n: int) -> None:
    """Process-pool initializer: give this worker process n pool threads."""
    global _threads
    _threads = n


def _map(fn, jobs: list[tuple], nbytes: int | None = None) -> None:
    """Run fn(*job) for every job: on the calling thread and helper threads of
    a pool of its own, or inline with one thread or job, or for a call on
    fewer than _PARALLEL_MIN_BYTES nbytes.

    The threads take the jobs in order, one at a time, as they come free, and
    the calling thread works rather than waits.  An exception in any job is
    raised here once every thread has stopped.
    """
    n = min(_thread_count(), len(jobs))
    if n < 2 or (nbytes is not None and nbytes < _PARALLEL_MIN_BYTES):
        for job in jobs:
            fn(*job)
        return
    pending, lock = iter(jobs), threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            fn(*job)

    with ThreadPoolExecutor(max_workers=n - 1, thread_name_prefix="cpfde-pool") as pool:
        helpers = [pool.submit(drain) for _ in range(n - 1)]
        drain()
    for helper in helpers:
        helper.result()


def _split(rows: int, nbytes: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges that share rows out evenly, _JOBS_PER_THREAD per thread.

    A call on fewer than _PARALLEL_MIN_BYTES bytes, or with one thread, gets
    the one range (0, rows).
    """
    threads = _thread_count()
    serial = nbytes < _PARALLEL_MIN_BYTES or threads < 2
    n = 1 if serial else max(1, min(_JOBS_PER_THREAD * threads, rows))
    return [(i * rows // n, (i + 1) * rows // n) for i in range(n)]
