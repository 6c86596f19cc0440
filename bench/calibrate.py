"""A fixed piece of pure-Python work that measures how fast the machine
runs Python right now.

On a shared machine the same work runs up to twice as fast or slow from
one second to the next, and the slow spells last seconds to minutes
(README.md, "Run-to-run spread").  The harness runs `calibrate` right
before and right after each command and divides the command's wall time
by the speed the two calls measured, which cancels most of that drift.

The kernel uses only builtins, allocates little and runs with the
garbage collector off, so its time depends on the machine and not on
the program under test or the size of its heap.
"""

from __future__ import annotations

import gc
from time import perf_counter

# About the kernel's time on a 2-CPU machine (Python 3.11.7) when it
# runs fast.  A calibrated time is the time a command would take at
# that speed.
REFERENCE_S = 0.017


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key):
        self.key = key
        self.kids = []


def _reach(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node.key not in seen:
            seen.add(node.key)
            stack.extend(node.kids)
    return len(seen)


def kernel(n: int = 1500, rounds: int = 20) -> int:
    """Graph reachability, dictionary counting and string joining, the
    kinds of work the analysis and the walker do."""
    nodes = [_Node(i) for i in range(n)]
    for i, node in enumerate(nodes):
        for j in (2 * i + 1, 2 * i + 2, (i * 7919) % n):
            if j < n:
                node.kids.append(nodes[j])
    total = 0
    counts: dict[str, int] = {}
    for r in range(rounds):
        total += _reach(nodes[0])
        for i in range(n):
            key = f"e{(i * 31 + r) % 997}"
            counts[key] = counts.get(key, 0) + len(key)
        total += len(",".join(sorted(counts)))
    return total


def calibrate() -> float:
    """Wall time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
