"""Parallel dataset generation: an ordered map that starts a process pool
only for work that outlasts the pool's own start-up.  Analysis never uses
it.

Callers pass a module-level `task(context, item)`.  The result is always
`[task(context, item) for item in items]`, in input order, so the worker
count never changes what a caller sees.  With more than one worker the
map first runs items in process, in input order, and hands the rest to
a pool only once those have taken `_BUDGET_S` of wall time; a short run
therefore starts no process at all.  The pool receives the shared
context once per worker.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

# In-process wall time after which the remaining items go to a pool.  A
# 2-worker pool that returns 1,000 empty results takes 11-22 ms to start,
# run and stop (2 CPUs, Python 3.11.7); work shorter than a few times that
# cannot repay it.
_BUDGET_S = 0.05

_WORKER: tuple = ()  # (task, context), set once in each pool worker


def _init_worker(task, context) -> None:
    global _WORKER
    _WORKER = (task, context)


def _run_chunk(chunk: list) -> list:
    task, context = _WORKER
    return [task(context, item) for item in chunk]


def ordered_map(task, context, items, workers: int) -> list:
    """`[task(context, item) for item in items]`, in-process when `workers`
    is at most 1.  Otherwise items run in process until they have taken
    `_BUDGET_S` seconds, and any left over run in chunks on at most
    `workers` processes, never more processes than chunks."""
    items = list(items)
    if workers <= 1:
        return [task(context, item) for item in items]
    done = []
    deadline = perf_counter() + _BUDGET_S
    for item in items:
        if perf_counter() >= deadline:
            break
        done.append(task(context, item))
    rest = items[len(done):]
    if not rest:
        return done
    size = max(1, len(rest) // (workers * 4))
    chunks = [rest[i:i + size] for i in range(0, len(rest), size)]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker, initargs=(task, context),
    ) as pool:
        return done + [out for part in pool.map(_run_chunk, chunks)
                       for out in part]
