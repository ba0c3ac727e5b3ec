"""One order-preserving thread pool for the lab's independent work items
(ensemble draws, the kernel's Levin point batches and Gauss-Kronrod panel
chunks).

The items release the interpreter lock inside numpy, so threads run them
in parallel.  Each caller's results depend only on the items, never on
the worker count.
"""

from __future__ import annotations

import os
import threading


def pool_map(fn, items, jobs: int | None) -> list:
    """[fn(item) for item in items] on up to jobs threads, in item order;
    jobs None means every core this process may run on.  The calling
    thread is one of the jobs: it starts jobs - 1 threads (none for jobs
    <= 1 or at most one item) and takes items from the same queue, in
    order, as they do.  After an exception from fn no item is started, the
    threads are joined, and the exception of the earliest failed item
    propagates."""
    items = list(items)
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    results, failed = [None] * len(items), {}
    queue, lock = iter(range(len(items))), threading.Lock()

    def work():
        while True:
            with lock:
                i = None if failed else next(queue, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as err:
                with lock:
                    failed[i] = err

    # a worker thread gets a malloc arena of its own, which keeps its own
    # high-water mark, so the caller working too lowers the peak RSS
    threads = [threading.Thread(target=work) for _ in range(min(jobs, len(items)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results
