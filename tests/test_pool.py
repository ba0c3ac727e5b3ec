import threading

from ostrovsky.pool import pool_map


class TestPoolMap:
    def test_lone_item_runs_in_the_callers_thread(self):
        caller = threading.get_ident()
        assert pool_map(lambda _: threading.get_ident() == caller, [0], 2) == [True]
        assert pool_map(lambda _: threading.get_ident() == caller, [0], None) == [True]

    def test_no_items(self):
        assert pool_map(lambda item: item, [], 2) == []
