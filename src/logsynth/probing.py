"""Phase 1: derive the call graph and mark the methods that log.

The call graph collapses call sites to distinct (caller, callee) pairs.
Its strongly connected components, found by `model.strong_components`
(the Tarjan search that path finding runs on each branching execution
graph) over the callees in id order, are condensed so later passes can
treat the graph as acyclic; `CallGraph.in_cycle` holds for the methods
in a component of size > 1 or with a self call.  A method is a LogMethod
when its execution graph contains a logging activity, or a CALL naming
one of the configured external logging APIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LogsynthError, utf8_errors
from .model import Call, Log, MethodId, ProgramModel, strong_components


@dataclass(frozen=True)
class LoggingApiConfig:
    """Names recognized as external logging APIs in CALL activities."""

    names: frozenset[str] = frozenset({"log"})

    def __post_init__(self):
        if not self.names:
            raise LogsynthError("logging API config must name at least one API")

    @classmethod
    def load(cls, path) -> "LoggingApiConfig":
        names = set()
        with utf8_errors(path), open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    names.add(line)
        return cls(frozenset(names) if names else frozenset({"log"}))


@dataclass
class CallGraph:
    nodes: frozenset[MethodId]
    edges: frozenset[tuple[MethodId, MethodId]]
    scc_of: dict[MethodId, int]
    # components listed callee-first: every edge goes from a later
    # component to an earlier one, so iterating `sccs` in order visits
    # all successors of a component before the component itself
    sccs: tuple[tuple[MethodId, ...], ...] = field(default_factory=tuple)

    def in_cycle(self, mid: MethodId) -> bool:
        members = self.sccs[self.scc_of[mid]]
        return len(members) > 1 or (mid, mid) in self.edges


def condense(nodes, edges) -> CallGraph:
    """Condense a raw (caller, callee) edge set into a CallGraph."""
    node_list = sorted(nodes)
    edge_pairs = sorted(set(edges))
    succ: dict[MethodId, list[tuple[MethodId, MethodId, None]]] = {}
    for caller, callee in edge_pairs:
        succ.setdefault(caller, []).append((caller, callee, None))
    sccs = tuple(tuple(sorted(comp)) for comp in strong_components(succ, node_list)[0])
    scc_of = {m: i for i, comp in enumerate(sccs) for m in comp}
    return CallGraph(
        nodes=frozenset(node_list),
        edges=frozenset(edge_pairs),
        scc_of=scc_of,
        sccs=sccs,
    )


def build_call_graph(model: ProgramModel) -> CallGraph:
    """Collect the (caller, callee) pairs of every CALL activity and
    condense strongly connected components."""
    return condense(
        model.methods.keys(),
        {(mid, callee) for mid, method in model.methods.items()
         for act in method.cfg.nodes.values() if isinstance(act, Call)
         for callee in act.callees},
    )


def mark_log_methods(
    model: ProgramModel, config: LoggingApiConfig = LoggingApiConfig()
) -> set[MethodId]:
    """The methods that contain a logging activity or call a configured
    external logging API."""
    return {
        mid for mid, method in model.methods.items()
        if any(isinstance(act, Log)
               or (isinstance(act, Call) and act.external in config.names)
               for act in method.cfg.nodes.values())
    }
