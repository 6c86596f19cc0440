"""Parallel dataset generation: an ordered map over a process pool that
receives its shared context once per worker.  Analysis never uses it.

Callers pass a module-level `task(context, item)`.  The result is always
`[task(context, item) for item in items]`, in input order, so the worker
count never changes what a caller sees.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

_MIN_POOLED = 4  # fewer items never repay starting a pool

_WORKER: tuple = ()  # (task, context), set once in each pool worker


def _init_worker(task, context) -> None:
    global _WORKER
    _WORKER = (task, context)


def _run_chunk(chunk: list) -> list:
    task, context = _WORKER
    return [task(context, item) for item in chunk]


def ordered_map(task, context, items, workers: int) -> list:
    """`[task(context, item) for item in items]`, in-process when `workers`
    is at most 1, otherwise in chunks on at most `workers` processes and
    never more processes than chunks."""
    items = list(items)
    if workers <= 1 or len(items) < _MIN_POOLED:
        return [task(context, item) for item in items]
    size = max(1, len(items) // (workers * 4))
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker, initargs=(task, context),
    ) as pool:
        return [out for part in pool.map(_run_chunk, chunks) for out in part]
