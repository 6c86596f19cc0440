"""Phase 2a: prune the call graph down to the methods that log or lead
to methods that log.

Kept methods are exactly those from which a LogMethod is reachable: the
LogMethods plus all of their ancestors in the call graph, found with one
sweep over the reversed call edges.  Keeping is all-or-nothing per
strongly connected component, because its members reach each other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import MethodId, sweep
from .probing import CallGraph


class Classification(enum.Enum):
    LOG_METHOD = "LOG_METHOD"
    LOG_INDUCING = "LOG_INDUCING"
    PRUNED = "PRUNED"


@dataclass
class PrunedCallGraph:
    kept: frozenset[MethodId]
    edges: frozenset[tuple[MethodId, MethodId]]
    classification: dict[MethodId, Classification]

    def entry_candidates(self) -> list[MethodId]:
        """Kept methods nobody calls, in id order."""
        called = {callee for _, callee in self.edges}
        return sorted(m for m in self.kept if m not in called)


def prune(cg: CallGraph, log_methods: set[MethodId]) -> PrunedCallGraph:
    callers: dict[MethodId, list[tuple[MethodId, MethodId, None]]] = {}
    for caller, callee in cg.edges:
        callers.setdefault(callee, []).append((callee, caller, None))
    kept = frozenset(sweep(callers, log_methods))
    classification = {}
    for m in cg.nodes:
        if m in log_methods:
            classification[m] = Classification.LOG_METHOD
        elif m in kept:
            classification[m] = Classification.LOG_INDUCING
        else:
            classification[m] = Classification.PRUNED
    return PrunedCallGraph(
        kept=kept,
        edges=frozenset((a, b) for a, b in cg.edges if a in kept and b in kept),
        classification=classification,
    )


def format_classification(pruned: PrunedCallGraph, names: dict[MethodId, str]) -> str:
    lines = [f"{names[m]} {pruned.classification[m].value}"
             for m in sorted(pruned.classification)]
    return "\n".join(lines) + "\n"
