"""An in-memory span recorder for the benchmark.

A span is (name, start, end, parent index, run id).  The benchmark opens
spans around its own calls into each layer; `patch` additionally wraps
library functions at the module or class attribute through which the
library calls them, so their internal calls show up as child spans.
Spans recorded inside pool worker processes stay in those processes and
are lost, so a pooled call appears as one span.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self):
        self.records: list[list] = []  # [name, start, end, parent, run]
        self.run = 0
        self._by_run: dict[int, list[int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append([name, perf_counter(), None, parent, self.run])
        self._by_run.setdefault(self.run, []).append(idx)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.records[idx][2] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    # ── wrapping library functions ──────────────────────────────────

    def patch(self, targets) -> None:
        """Wrap each (owner, attribute, span name) in `targets`."""
        for owner, attr, name in targets:
            original = getattr(owner, attr)

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                with self.span(_name):
                    return _fn(*args, **kwargs)

            functools.update_wrapper(wrapper, original)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ── queries ─────────────────────────────────────────────────────

    def of_run(self, run: int) -> list[int]:
        return self._by_run.get(run, [])

    def duration(self, idx: int) -> float:
        _, start, end, _, _ = self.records[idx]
        return end - start

    def self_time(self, idx: int) -> float:
        """Duration minus the time the span's children cover."""
        run = self.records[idx][4]
        children = sum(self.duration(i) for i in self.of_run(run)
                       if self.records[i][3] == idx)
        return self.duration(idx) - children

    def find(self, run: int, name: str, under: str | None = None) -> list[int]:
        """The run's spans called `name`, optionally only those with an
        ancestor called `under`."""
        return [i for i in self.of_run(run) if self.records[i][0] == name
                and (under is None or self._has_ancestor(i, under))]

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.records[idx][3]
        while parent is not None:
            if self.records[parent][0] == name:
                return True
            parent = self.records[parent][3]
        return False

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "run": r}
                for n, s, e, p, r in self.records]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
