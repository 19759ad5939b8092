"""The thread pool that the large M-row stages of a realization share.

numpy's FFT, matmul, searchsorted, random draws and elementwise arithmetic
release the GIL, so a large call splits its antenna rows (or its subbands, or
its blocks) over threads, and a sequence of small calls can run one ahead of
the caller on a helper thread (_ahead).  Every pool lives for one call or one
with block: no thread outlives it, so a process forked later inherits none.
Each job runs the serial arithmetic on its own rows, so results are bitwise
the same for any thread count.

Work on the pool calls only private helpers: a tracer may wrap the public
functions of the calling modules, and a wrapper keeps a single span stack.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

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


def _map(fn, jobs: list[tuple]) -> None:
    """Run fn(*job) for every job: on the calling thread and helper threads of
    a pool of its own, or inline with one thread or job.

    The threads take the jobs in order, one at a time, as they come free, and
    the calling thread works rather than waits.  An exception in any job is
    raised here once every thread has stopped.
    """
    n = min(_thread_count(), len(jobs))
    if n < 2:
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


@contextmanager
def _ahead(fn, jobs: list[tuple]) -> Iterator:
    """Yield an iterator over fn(*job) for the jobs in order, each computed on
    one helper thread while the caller works on the result before it.

    Job 0 starts when the with block opens, and job i + 1 when the caller
    asks for result i, so it may write into the buffer of result i - 1.  The
    helper thread lives for the with block: it has stopped when the block
    exits, also when the block raises.  An exception in a job is raised
    where its result is taken.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="cpfde-pool-ahead") as helper:

        def results(future):
            for job in jobs[1:]:
                done = future.result()
                future = helper.submit(fn, *job)
                yield done
            yield future.result()

        yield results(helper.submit(fn, *jobs[0]))


def _split(rows: int, nbytes: int) -> list[tuple[int, int]]:
    """(lo, hi) ranges that share rows out evenly, _JOBS_PER_THREAD per thread.

    A call on fewer than _PARALLEL_MIN_BYTES bytes, or with one thread, gets
    the one range (0, rows).
    """
    threads = _thread_count()
    serial = nbytes < _PARALLEL_MIN_BYTES or threads < 2
    n = 1 if serial else max(1, min(_JOBS_PER_THREAD * threads, rows))
    return [(i * rows // n, (i + 1) * rows // n) for i in range(n)]
