from __future__ import annotations

import os

from logsynth import parallel
from logsynth.parallel import ordered_map


def _offset(context, item):
    return context + item


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        return [fn(chunk) for chunk in chunks]


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class _Clock:
    """Stands in for perf_counter: each `_tick` advances it one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tick(clock, item):
    clock.now += 1.0
    return item * 10, os.getpid()


def test_serial_map_keeps_input_order():
    assert ordered_map(_offset, 100, range(5), workers=1) == [100, 101, 102, 103, 104]
    assert ordered_map(_offset, 100, [], workers=4) == []


def test_pool_never_outnumbers_its_chunks(monkeypatch):
    monkeypatch.setattr(parallel, "_BUDGET_S", 0)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(parallel, "_WORKER", ())
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    assert ordered_map(_offset, 1, range(10), workers=64) == list(range(1, 11))
    assert ordered_map(_offset, 1, range(100), workers=2) == list(range(1, 101))
    # 10 items make 10 one-item chunks; 100 items on 2 workers make 13
    assert _InProcessPool.sizes == [10, 2]


def test_process_pool_returns_items_in_order(monkeypatch):
    monkeypatch.setattr(parallel, "_BUDGET_S", 0)
    items = list(range(37))
    assert ordered_map(_offset, 5, items, workers=2) == [5 + i for i in items]


def test_work_inside_the_budget_starts_no_pool(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pool)
    items = list(range(1000))
    assert ordered_map(_offset, 5, items, workers=2) == [5 + i for i in items]


def test_work_past_the_budget_pools_only_the_rest(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(parallel, "perf_counter", clock)
    monkeypatch.setattr(parallel, "_BUDGET_S", 2.5)
    out = ordered_map(_tick, clock, range(20), workers=2)
    assert [value for value, _ in out] == [i * 10 for i in range(20)]
    # the clock reads 0, 1 and 2 before items 0-2, then 3: over the budget
    ran_here = [pid == os.getpid() for _, pid in out]
    assert ran_here == [True] * 3 + [False] * 17
