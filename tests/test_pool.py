import sys
import threading
import time

import pytest

from ostrovsky.pool import pool_map


def _slow_square(item):
    time.sleep(0.002 * (item % 3))  # uneven items, so the workers finish out of order
    return item * item


class TestPoolMap:
    @pytest.mark.parametrize("jobs", [1, 2, 3, None])
    def test_results_in_item_order(self, jobs):
        items = range(23)  # more items than workers
        assert pool_map(_slow_square, items, jobs) == [i * i for i in items]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_at_most_jobs_threads_the_callers_among_them(self, jobs):
        seen, caller = set(), threading.get_ident()

        def record(item):
            seen.add(threading.get_ident())
            time.sleep(0.002)
            return item

        pool_map(record, range(12), jobs)
        assert caller in seen and len(seen) <= jobs

    def test_every_item_runs_once_under_frequent_switches(self):
        # more workers than cores, switching threads every microsecond: an
        # item handed out twice, or lost, shows in the items that ran
        ran, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = pool_map(lambda item: ran.append(item) or -item, range(3000), 8)
        finally:
            sys.setswitchinterval(interval)
        assert results == [-i for i in range(3000)] and sorted(ran) == list(range(3000))

    def test_lone_item_runs_in_the_callers_thread(self):
        caller = threading.get_ident()
        assert pool_map(lambda _: threading.get_ident() == caller, [0], 2) == [True]
        assert pool_map(lambda _: threading.get_ident() == caller, [0], None) == [True]

    def test_no_items(self):
        assert pool_map(lambda item: item, [], 2) == []

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_exception_propagates_and_no_worker_is_left(self, jobs):
        before, started = threading.active_count(), []

        def fail_at_five(item):
            started.append(item)
            if item == 5:
                raise ValueError("item 5")
            time.sleep(0.001)
            return item

        with pytest.raises(ValueError, match="item 5"):
            pool_map(fail_at_five, range(40), jobs)
        assert threading.active_count() == before
        count = len(started)
        time.sleep(0.01)
        assert len(started) == count < 40  # nothing runs on, and the rest never started
