from __future__ import annotations

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


def test_serial_map_keeps_input_order():
    assert ordered_map(_offset, 100, range(5), workers=1) == [100, 101, 102, 103, 104]
    assert ordered_map(_offset, 100, [], workers=4) == []


def test_pool_never_outnumbers_its_chunks(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(parallel, "_WORKER", ())
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    assert ordered_map(_offset, 1, range(10), workers=64) == list(range(1, 11))
    assert ordered_map(_offset, 1, range(100), workers=2) == list(range(1, 101))
    # 10 items make 10 one-item chunks; 100 items on 2 workers make 13
    assert _InProcessPool.sizes == [10, 2]


def test_process_pool_returns_items_in_order():
    items = list(range(37))
    assert ordered_map(_offset, 5, items, workers=2) == [5 + i for i in items]
