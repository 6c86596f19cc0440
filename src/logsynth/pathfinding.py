"""Phase 2b-2c: restore logging statements to message templates and
record each kept method's log-related execution paths.

Path space: every entry-to-exit walk of the method's execution graph
that traverses no edge twice.  On structured graphs this is exactly
"each loop runs zero or one time"; repetition is reintroduced at
generation time from the loop marks.  Each walk is projected onto its
logging activities and its calls to kept methods; a call site with
several possible callees (ambiguous dispatch) expands into one variant
per callee.  The first and last recorded step inside a loop body carry
start/end marks so the generator can replay the region.

A walk that leaves some loop without ever entering its body is flagged
(`skips_loop`): it is a legal zero-iteration execution, kept for path
choice, but the generator only offers it to normal-mode walks.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import LogsynthError
from .model import (
    ActivityId,
    AssignAct,
    Call,
    EventId,
    ExecutionGraph,
    Guard,
    Literal,
    Log,
    LogEvent,
    MethodId,
    MethodNode,
    ProgramModel,
    Var,
    sweep,
)
from .parallel import ordered_map
from .pruning import PrunedCallGraph

log = logging.getLogger(__name__)

PLACEHOLDER = "<*>"


class Mark(str, enum.Enum):
    NONE = "none"
    START = "start"
    END = "end"
    BOTH = "both"

    def suffix(self) -> str:
        return {"none": "", "start": ":S", "end": ":E", "both": ":SE"}[self.value]


@dataclass(frozen=True)
class LogStep:
    event: EventId
    loop_mark: Mark = Mark.NONE


@dataclass(frozen=True)
class CallStep:
    callee: MethodId
    loop_mark: Mark = Mark.NONE


Step = LogStep | CallStep

# Guard/assignment events accumulated along a walk, in order:
#   ("guard", var, bool) ("assign", var) ("lit", bool)
TraceEvent = tuple


@dataclass(frozen=True)
class LogPath:
    """One log-related execution path of a method."""

    id: int
    method: MethodId
    steps: tuple[Step, ...]
    skips_loop: bool = False
    guard_trace: tuple[TraceEvent, ...] = field(
        default=(), compare=False, repr=False
    )

    @cached_property
    def regions(self) -> tuple:
        """The steps as a forest, decoded on first use and kept: a loop
        region is a tuple of its nodes, any other node is a step.
        Unbalanced marks (possible when nested loop boundaries coincide)
        degrade to plain steps."""
        stack: list[list] = [[]]
        for s in self.steps:
            if s.loop_mark in (Mark.START, Mark.BOTH):
                stack.append([])
            stack[-1].append(s)
            if s.loop_mark in (Mark.END, Mark.BOTH) and len(stack) > 1:
                region = tuple(stack.pop())
                stack[-1].append(region)
        while len(stack) > 1:  # regions never closed: dissolve, no repetition
            region = stack.pop()
            stack[-1].extend(region)
        return tuple(stack[0])


@dataclass(frozen=True)
class PathLimits:
    max_paths_per_method: int = 4096

    def __post_init__(self):
        if self.max_paths_per_method < 1:
            raise LogsynthError("max paths per method must be >= 1")


@dataclass
class PathStore:
    by_method: dict[MethodId, list[LogPath]]
    events: dict[EventId, LogEvent]

    def __post_init__(self):
        self._paths = tuple(p for mid in sorted(self.by_method)
                            for p in self.by_method[mid])
        self._by_id = {p.id: p for p in self._paths}
        # callee method -> the paths calling it, once per distinct callee
        self._callers: dict[MethodId, list[int]] = {}
        for p in self._paths:
            for callee in dict.fromkeys(s.callee for s in p.steps
                                        if isinstance(s, CallStep)):
                self._callers.setdefault(callee, []).append(p.id)

    def path(self, ep_id: int) -> LogPath:
        return self._by_id[ep_id]

    def all_paths(self) -> tuple[LogPath, ...]:
        return self._paths

    def least_fixpoint(self, need: dict[int, int]) -> set[int]:
        """The least set of path ids in which a path `p` is a member once
        `need[p]` of its distinct callee methods own a member.  Paths with
        need 0 start in it; paths absent from `need` never join; a callee
        called several times by one path counts once.  Each method is
        settled once and each (path, distinct callee) pair visited once,
        so the cost is linear in the number of call steps."""
        missing = dict(need)
        members = {pid for pid, n in need.items() if n == 0}
        work = [self._by_id[pid].method for pid in members]
        settled: set[MethodId] = set()
        while work:
            mid = work.pop()
            if mid in settled:
                continue
            settled.add(mid)
            for pid in self._callers.get(mid, ()):
                if pid in missing:
                    missing[pid] -= 1
                    if missing[pid] == 0:  # only ever once: counts fall
                        members.add(pid)
                        work.append(self._by_id[pid].method)
        return members


# ── Feasibility ──────────────────────────────────────────────────────

def satisfiable(trace: tuple[TraceEvent, ...]) -> bool:
    """Decide a guard/assignment trace: a variable may not be required to
    hold both polarities without an intervening reassignment, and a
    literal-false guard is never taken."""
    known: dict[str, bool] = {}
    for ev in trace:
        if ev[0] == "lit":
            if not ev[1]:
                return False
        elif ev[0] == "guard":
            _, var, val = ev
            if known.get(var, val) != val:
                return False
            known[var] = val
        else:  # assignment clears what we know about the variable
            known.pop(ev[1], None)
    return True


def filter_infeasible(paths: list[LogPath]) -> list[LogPath]:
    """Drop paths whose accumulated guards cannot all hold."""
    return [p for p in paths if satisfiable(p.guard_trace)]


# ── Raw walks over one execution graph ───────────────────────────────

def _iter_walks(cfg: ExecutionGraph, start: int, target: int):
    """Yield, at every arrival at `target`, the edge-simple walk from
    `start` as a tuple of (node, in-guard).  The search goes on past the
    target, on an explicit stack, so walk length is bounded by the graph
    and not by the interpreter's recursion limit.  It skips edges into
    nodes that cannot reach `target` (one backward sweep): their subtrees
    yield nothing, so the walks and their order are unchanged.
    Deterministic: successors are explored true-guard-first."""
    succ = cfg.out_edges()
    live = sweep(cfg.in_edges(), [target])
    path: list[tuple[int, Guard | None]] = [(start, None)]
    used: set[tuple[int, int]] = set()  # (node, out-edge index)
    # per frame: its untried out-edges and the used edge that entered it
    stack = [(enumerate(succ.get(start, ())), None)]
    while stack:
        node = path[-1][0]
        edges, into = stack[-1]
        for i, (to, guard) in edges:
            if to in live and (node, i) not in used:
                break
        else:
            stack.pop()
            path.pop()
            used.discard(into)
            continue
        key = (node, i)
        used.add(key)
        path.append((to, guard))
        if to == target:
            yield tuple(path)
        stack.append((enumerate(succ.get(to, ())), key))


def _trace_of(cfg: ExecutionGraph, visits) -> tuple[TraceEvent, ...]:
    loops = cfg.loops
    trace: list[TraceEvent] = []
    prev = None
    for node, guard in visits:
        # the in-edge guard was evaluated before moving, under the old values
        if guard is not None:
            if guard.var is None:
                trace.append(("lit", guard.value))
            else:
                trace.append(("guard", guard.var, guard.value))
        # a back edge returns to a loop head, where the loop condition is
        # evaluated afresh: its previous polarity no longer binds
        if prev is not None and node in loops and prev in loops[node]:
            cond = cfg.nodes[node].cond
            if cond.var is not None:
                trace.append(("assign", cond.var))
        act = cfg.nodes[node]
        if isinstance(act, AssignAct):
            trace.append(("assign", act.var))
        prev = node
    return tuple(trace)


# ── Restoring logging statements ─────────────────────────────────────

def _constants_at(cfg: ExecutionGraph, node: int, names: set[str],
                  limits: PathLimits) -> dict[str, str]:
    """The unique constant each of `names` holds at every feasible arrival
    at `node`, from one search.  A name is absent when some feasible
    arrival leaves it unassigned, when two arrivals disagree, when no
    arrival is feasible, or when more walks arrive than the budget."""
    values: dict[str, str | None] = dict.fromkeys(names)
    feasible = False
    for seen, visits in enumerate(_iter_walks(cfg, cfg.entry, node), start=1):
        if seen > limits.max_paths_per_method:
            return {}  # truncated: cannot prove uniqueness
        if not satisfiable(_trace_of(cfg, visits)):
            continue
        feasible = True
        last: dict[str, str] = {}
        for n, _ in visits[:-1]:
            act = cfg.nodes[n]
            if isinstance(act, AssignAct) and act.var in values:
                last[act.var] = act.literal
        for var, value in list(values.items()):
            got = last.get(var)
            if got is None or value not in (None, got):
                del values[var]
            else:
                values[var] = got
        if not values:
            return {}
    return values if feasible else {}


def restore_statement(method: MethodNode, node: ActivityId,
                      event_id: int = 0,
                      limits: PathLimits = PathLimits()) -> LogEvent:
    """Build the message template of the LOG activity `node`: literals
    are kept, and each variable becomes its uniquely-dominating in-method
    constant or the placeholder token."""
    stmt = method.cfg.nodes[node].stmt
    names = {p.name for p in stmt.parts if isinstance(p, Var)}
    consts = _constants_at(method.cfg, node, names, limits) if names else {}
    return LogEvent(
        event_id=event_id,
        level=stmt.level,
        template="".join(p.text if isinstance(p, Literal)
                         else consts.get(p.name, PLACEHOLDER)
                         for p in stmt.parts),
        origin=stmt.id,
    )


# ── Enumerating log-related execution paths ──────────────────────────

def strategy_for(method: MethodNode, cg_prime: PrunedCallGraph) -> int:
    """1: logging non-leaf, 2: logging leaf, 3: non-logging non-leaf."""
    if method.id not in cg_prime.kept:
        raise ValueError(f"method {method.name} was pruned")
    leaf = cg_prime.is_leaf(method.id)
    if method.is_log_method:
        return 2 if leaf else 1
    if leaf:
        raise ValueError(
            f"method {method.name} is kept but neither logs nor calls kept methods"
        )
    return 3


def _regions_and_skips(cfg: ExecutionGraph, visits):
    """Closed loop regions on one walk as (start, end) visit-index ranges,
    plus whether the walk skipped some loop entirely."""
    loops = cfg.loops
    regions: list[tuple[int, int]] = []
    open_stack: list[tuple[int, int]] = []  # (head, content start index)
    body_taken: set[int] = set()
    exit_taken: set[int] = set()
    for i in range(1, len(visits)):
        prev = visits[i - 1][0]
        node = visits[i][0]
        if prev in loops:
            if node in loops[prev]:
                body_taken.add(prev)
                open_stack.append((prev, i))
            else:
                exit_taken.add(prev)
        if node in loops and any(h == node for h, _ in open_stack):
            # back at an open head: close its region, dropping any
            # unclosed inner regions opened after it
            while open_stack:
                head, start = open_stack.pop()
                if head == node:
                    regions.append((start, i - 1))
                    break
    skipped = any(h in exit_taken and h not in body_taken for h in loops)
    return regions, skipped


def enumerate_logeps(
    method: MethodNode,
    cg_prime: PrunedCallGraph,
    limits: PathLimits = PathLimits(),
    event_ids: dict[int, int] | None = None,
) -> list[LogPath]:
    """All projected paths of one kept method, unfiltered, deduplicated,
    in deterministic order.  Ids are placeholders (-1) until the store
    assigns them."""
    cfg = method.cfg
    out: list[LogPath] = []
    seen: set[tuple] = set()
    budget = limits.max_paths_per_method
    truncated = False

    for visits in itertools.islice(_iter_walks(cfg, cfg.entry, cfg.exit), budget + 1):
        if len(out) > budget:
            truncated = True
            break
        regions, skipped = _regions_and_skips(cfg, visits)
        trace = _trace_of(cfg, visits)

        recorded: list[tuple[int, str, object]] = []  # (visit idx, kind, payload)
        for i, (node, _) in enumerate(visits):
            act = cfg.nodes[node]
            if isinstance(act, Log):
                eid = act.stmt.id if event_ids is None else event_ids[act.stmt.id]
                recorded.append((i, "log", eid))
            elif isinstance(act, Call) and act.callees:
                kept = tuple(c for c in act.callees if c in cg_prime.kept)
                if kept:
                    recorded.append((i, "call", kept))

        # a region marks the first and last recorded step inside it
        at = [i for i, _, _ in recorded]
        opens: set[int] = set()
        closes: set[int] = set()
        for start, end in regions:
            first, last = bisect.bisect_left(at, start), bisect.bisect_right(at, end) - 1
            if first <= last:
                opens.add(first)
                closes.add(last)

        def mark_of(j: int) -> Mark:
            o, c = j in opens, j in closes
            if o and c:
                return Mark.BOTH
            if o:
                return Mark.START
            if c:
                return Mark.END
            return Mark.NONE

        # one variant per callee choice at each ambiguous call site
        choice_sets = []
        for j, (_, kind, payload) in enumerate(recorded):
            if kind == "call":
                choice_sets.append([(j, c) for c in payload])
        for combo in itertools.product(*choice_sets) if choice_sets else [()]:
            chosen = dict(combo)
            steps: list[Step] = []
            for j, (_, kind, payload) in enumerate(recorded):
                m = mark_of(j)
                if kind == "log":
                    steps.append(LogStep(payload, m))
                else:
                    steps.append(CallStep(chosen[j], m))
            key = (tuple(steps), skipped, trace)
            if key in seen:
                continue
            seen.add(key)
            out.append(LogPath(
                id=-1,
                method=method.id,
                steps=tuple(steps),
                skips_loop=skipped,
                guard_trace=trace,
            ))
            if len(out) > budget:
                truncated = True
                break
        if truncated:
            break

    if truncated:
        out = out[:budget]
        log.warning(
            "method %s: path enumeration truncated at %d paths",
            method.name, budget,
        )
    return out


# ── Assembling the store ─────────────────────────────────────────────

def _method_paths(method: MethodNode, cg_prime: PrunedCallGraph,
                  limits: PathLimits, stmt_to_event: dict[int, int]
                  ) -> list[LogPath]:
    """Enumerate, filter, and deduplicate one method's paths (ids -1)."""
    raw = enumerate_logeps(method, cg_prime, limits, stmt_to_event)
    feasible = filter_infeasible(raw)
    final: list[LogPath] = []
    taken: set[tuple] = set()
    for p in feasible:
        key = (p.steps, p.skips_loop)
        if key in taken:
            continue
        taken.add(key)
        final.append(p)
    return final


def _method_result(context, mid: MethodId
                   ) -> tuple[list[LogEvent], list[LogPath]]:
    """One kept method's restored events and final paths (ids -1)."""
    model, cg_prime, limits, stmt_to_event, event_plan = context
    method = model.methods[mid]
    events = [restore_statement(method, aid, eid, limits)
              for eid, aid in event_plan.get(mid, [])]
    return events, _method_paths(method, cg_prime, limits, stmt_to_event)


def build_store(
    model: ProgramModel,
    cg_prime: PrunedCallGraph,
    limits: PathLimits = PathLimits(),
    workers: int = 1,
) -> PathStore:
    """Restore every reachable logging statement of the kept methods into
    an event table and enumerate, filter, and number each kept method's
    paths.  Per-method work is independent; the worker count never
    changes the result."""
    stmt_to_event: dict[int, int] = {}
    event_plan: dict[int, list[tuple[int, ActivityId]]] = {}
    next_event = 0
    reachable = {mid: model.methods[mid].cfg.reachable_from_entry()
                 for mid in cg_prime.kept}
    for mid, aid, stmt in model.statements():
        if mid not in cg_prime.kept or aid not in reachable[mid]:
            continue
        stmt_to_event[stmt.id] = next_event
        event_plan.setdefault(mid, []).append((next_event, aid))
        next_event += 1

    kept = sorted(cg_prime.kept)
    results = ordered_map(
        _method_result, (model, cg_prime, limits, stmt_to_event, event_plan),
        kept, workers,
    )

    all_events: dict[int, LogEvent] = {}
    by_method: dict[int, list[LogPath]] = {}
    next_id = 0
    for mid, (events, paths) in zip(kept, results):
        for ev in events:
            all_events[ev.event_id] = ev
        final = []
        for p in paths:
            final.append(replace(p, id=next_id))
            next_id += 1
        by_method[mid] = final
    return PathStore(by_method=by_method, events=all_events)


def format_store_dump(store: PathStore, model: ProgramModel) -> str:
    """Inspection dump: the event table and every path's steps."""
    lines = []
    for eid in sorted(store.events):
        ev = store.events[eid]
        lines.append(f"EV {eid} {ev.level} {ev.template}")
    for path in store.all_paths():
        steps = []
        for s in path.steps:
            if isinstance(s, LogStep):
                steps.append(f"L:{s.event}{s.loop_mark.suffix()}")
            else:
                steps.append(f"C:{model.methods[s.callee].name}{s.loop_mark.suffix()}")
        name = model.methods[path.method].name
        lines.append(" ".join([f"EP {path.id} {name}"] + steps))
    return "\n".join(lines) + "\n"
