"""Phase 2b-2c: restore logging statements to message templates and
record each kept method's log-related execution paths.

Path space: every feasible entry-to-exit walk of the method's execution
graph that traverses no edge twice.  On structured graphs this is
exactly "each loop runs zero or one time"; repetition is reintroduced at
generation time from the loop regions.  A walk is feasible when no guard
contradicts an earlier one on the same variable without a reassignment
or a loop-head re-evaluation in between, and no literal-false guard is
taken; the search never extends a contradictory prefix, so infeasible
walks are never enumerated.  Each walk is projected onto its
logging activities and its calls to kept methods; a call site with
several possible callees (ambiguous dispatch) expands into one variant
per callee.  Each loop iteration the walk completes that records a
step is kept as a span, the indexes of its first and last recorded
step, so the generator can replay the region.

A walk that leaves some loop without ever entering its body is flagged
(`skips_loop`): it is a legal zero-iteration execution, kept for path
choice, but the generator only offers it to normal-mode walks.

One search per method restores its logging statements and enumerates
its paths.  It targets exit and every statement that prints a variable,
keeps the last literal assigned to each variable, settles a statement
once none of its variables can resolve, and settles exit at the path
cap.  A method with no choice on its walk (every node before exit has
one unguarded out-edge) has exactly one walk, which its graph finds as
it is built, and so one path per choice of callees; its templates and
paths are read off that walk in one pass, with no search and no loop
derivation.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field, replace

from .errors import LogsynthError
from .model import (
    ActivityId,
    AssignAct,
    Call,
    EventId,
    ExecutionGraph,
    Literal,
    Log,
    LogEvent,
    MethodId,
    MethodNode,
    ProgramModel,
    Var,
    in_edges,
    natural_loops,
    sweep,
)
from .pruning import PrunedCallGraph

log = logging.getLogger(__name__)

PLACEHOLDER = "<*>"


@dataclass(frozen=True)
class LogStep:
    event: EventId


@dataclass(frozen=True)
class CallStep:
    callee: MethodId


Step = LogStep | CallStep


@dataclass(frozen=True)
class LogPath:
    """One log-related execution path of a method.  `spans` holds the
    (first, last) step index of each loop region, in the order the walk
    closed them, inner first; regions nest or are disjoint, and nested
    ones may share boundary steps."""

    id: int
    method: MethodId
    steps: tuple[Step, ...]
    spans: tuple[tuple[int, int], ...] = ()
    skips_loop: bool = False
    # found once when the path is built, as plain fields (caching them on
    # first read would give each path its own instance dict, which made
    # every full collection slower): `callees`, the distinct methods the
    # path calls in first-call order, and `regions`, the steps as a forest
    # in which a loop region is a tuple of its nodes and any other node is
    # a step
    callees: tuple[MethodId, ...] = field(init=False, repr=False, compare=False)
    regions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "callees", tuple(dict.fromkeys(
            s.callee for s in self.steps if type(s) is CallStep)))
        regions = self.steps  # without spans, the steps are the forest
        if self.spans:
            # how many regions open and close at each step: regions that
            # share a step nest, so the last one opened closes first
            opens = [0] * len(regions)
            closes = opens[:]
            for first, last in self.spans:
                opens[first] += 1
                closes[last] += 1
            stack: list[list] = [[]]
            for step, o, c in zip(regions, opens, closes):
                stack += [[] for _ in range(o)]
                stack[-1].append(step)
                for _ in range(c):
                    region = tuple(stack.pop())
                    stack[-1].append(region)
            regions = tuple(stack[0])
        object.__setattr__(self, "regions", regions)


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
            for callee in p.callees:
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


# ── Feasible walks over one execution graph ──────────────────────────

def _iter_walks(cfg: ExecutionGraph, targets: set[ActivityId], preds, loops):
    """Yield, at every arrival at a node of `targets`, the feasible
    edge-simple walk from entry as a list of nodes, and the last literal
    assigned to each variable on it.  Both change as the search goes on
    past the arrival, so a caller copies what it keeps.  `preds` and
    `loops` are the graph's `in_edges` and `natural_loops`, which the
    caller builds once per search.  The search runs
    on an explicit stack, so walk length is bounded by the graph and not
    by the recursion limit.  Successors are explored true-guard-first.

    Feasibility is decided during the search.  Each frame records what
    taking its edge taught about guard variables (var -> polarity) and the
    constant its node assigned, and popping the frame undoes both.  An
    edge is refused when its guard is literal false or contradicts a known
    polarity.  After an edge is taken, in this order: its guard's polarity
    becomes known; a back edge into a loop head forgets the head's
    condition variable, which the head evaluates afresh; and an assignment
    forgets its variable's polarity and sets its constant.  A walk is
    infeasible as soon as one prefix is, so refusing the first
    contradicting edge yields exactly the feasible walks, in the order of
    the unpruned search.  Edges into nodes that reach no target (one
    backward sweep) are skipped too: their subtrees yield nothing.  The
    caller may remove settled nodes from `targets` between arrivals; the
    search sweeps again at its next backtrack, and stops once no target
    is left.  A graph with an only walk is searched like any other;
    `enumerate_logeps` reads its walk off `only_walk` and never calls
    this."""
    nodes = cfg.nodes
    consts: dict[str, str] = {}
    succ = cfg.out_edges
    open_targets = len(targets)
    live = sweep(preds, targets)
    # a literal guard tests the variable None, which is always true
    known: dict[str | None, bool] = {None: True}
    path = [cfg.entry]
    used: set[tuple[int, int]] = set()  # (node, out-edge index)
    # per frame: its untried out-edges, the used edge that entered it, and
    # the (map, key, previous value or None) triples that undo its facts
    stack = [(enumerate(succ.get(cfg.entry, ())), None, [])]
    while stack:
        node = path[-1]
        edges, into, undo = stack[-1]
        for i, (_, to, guard) in edges:
            if (to in live and (node, i) not in used and
                    (guard is None or known.get(guard.var, guard.value) == guard.value)):
                break
        else:
            if len(targets) != open_targets:  # some settled: prune to the rest
                if not targets:
                    return
                open_targets = len(targets)
                live = sweep(preds, targets)
            stack.pop()
            path.pop()
            used.discard(into)
            for held, key, old in reversed(undo):
                if old is None:
                    del held[key]
                else:
                    held[key] = old
            continue
        key = (node, i)
        used.add(key)
        path.append(to)
        undo = []  # the new frame's
        if guard is not None and guard.var not in known:
            undo.append((known, guard.var, None))
            known[guard.var] = guard.value
        act = nodes[to]
        if to in loops and node in loops[to]:
            forget = act.cond.var
            if forget is not None and forget in known:
                undo.append((known, forget, known.pop(forget)))
        if type(act) is AssignAct:
            if act.var in known:
                undo.append((known, act.var, known.pop(act.var)))
            undo.append((consts, act.var, consts.get(act.var)))
            consts[act.var] = act.literal
        if to in targets:
            yield path, consts
        stack.append((enumerate(succ.get(to, ())), key, undo))


# ── Enumerating log-related execution paths ──────────────────────────

def _project(visits, plain, loops):
    """One walk's projection, in one pass over its visits: the positions
    of the visits to `plain`'s nodes (the recorded steps), the spans of
    its loop regions, and whether the walk leaves some loop of `loops`
    without ever entering its body.  A region opens when the walk enters
    a head's body and closes when it is back at that head, dropping any
    unclosed inner regions opened after it; a closed region that records
    a step is kept as the (first, last) index of its steps, in the order
    regions close.  A head has at most one open region, since the walk is
    at the head just before it opens one."""
    at: list[int] = []
    spans: list[tuple[int, int]] = []
    regions: list[tuple[ActivityId, int]] = []  # open: (head, len(at) at opening)
    open_heads: set[ActivityId] = set()
    entered: set[ActivityId] = set()
    left: set[ActivityId] = set()
    prev = None
    for i, node in enumerate(visits):
        if prev in loops:
            if node in loops[prev]:
                entered.add(prev)
                regions.append((prev, len(at)))
                open_heads.add(prev)
            else:
                left.add(prev)
        if node in open_heads:
            head = None
            while head != node:
                head, first = regions.pop()
                open_heads.discard(head)
            if first < len(at):
                spans.append((first, len(at) - 1))
        if node in plain:
            at.append(i)
        prev = node
    return at, tuple(spans), not left <= entered


def enumerate_logeps(
    method: MethodNode,
    cg_prime: PrunedCallGraph,
    limits: PathLimits = PathLimits(),
    events: dict[EventId, LogEvent] | None = None,
    first_id: int = 0,
) -> list[LogPath]:
    """Restore one kept method's logging statements and enumerate its
    paths, in one search or, given an only walk, in one pass over it.

    Each reachable LOG activity is added to `events` (by default a new
    table) under the next free id, in activity order.  Its template keeps
    the literals, and each variable becomes the constant it holds at every
    feasible arrival at the statement, or the placeholder token when some
    feasible arrival leaves it unassigned, two arrivals disagree, no
    arrival is feasible, or more feasible walks arrive than the budget.  A
    statement leaves the search once all its variables are placeholders.

    The paths are the distinct projections of the feasible walks, in
    deterministic order: each (steps, spans, skips_loop) is represented by
    the first walk that projects onto it.  At more feasible walks or more
    distinct paths than `limits` allows, exit leaves the search with a
    truncation warning, and the search goes on for the open statements; at
    most that many paths are kept, numbered from `first_id`.  The search
    builds the graph's `in_edges` and `natural_loops` once and hands them
    to `_iter_walks` and `_project`; a graph with an only walk builds
    neither, has no loops, and its paths have no spans."""
    cfg = method.cfg
    nodes = cfg.nodes
    if events is None:
        events = {}
    first_event = len(events)
    budget = limits.max_paths_per_method
    # LOG activity -> each variable it prints -> its constant so far (None
    # before its first arrival); the search holds only those that print one
    values: dict[ActivityId, dict[str, str | None]] = {}
    if cfg.only_walk is not None:  # read the statements and paths off it
        consts: dict[str, str] = {}
        slots: list = []  # per recorded node: its LOG activity, or its kept callees' steps
        for node in cfg.only_walk:
            act = nodes[node]
            if type(act) is AssignAct:
                consts[act.var] = act.literal
            elif type(act) is Log:
                slots.append(node)
                values[node] = {p.name: consts.get(p.name) for p in act.stmt.parts if type(p) is Var}
            elif type(act) is Call and (
                    kept := [CallStep(c) for c in act.callees if c in cg_prime.kept]):
                slots.append(kept)
        logs = sorted(values)  # events in activity order
        step = {node: (LogStep(eid),) for eid, node in enumerate(logs, first_event)}
        variants = itertools.product(*[step[x] if type(x) is int else x for x in slots])
        out = [LogPath(first_id + i, method.id, path)
               for i, path in enumerate(itertools.islice(variants, budget + 1))]
        truncated = len(out) > budget
    else:
        # one scan numbers the LOG activities, finds each statement that
        # prints variables, and gives each recorded node its step codes,
        # one per choice: each distinct step is built once and named by
        # its index in `built`
        logs: list[ActivityId] = []
        index: dict[Step, int] = {}
        plain: dict[ActivityId, tuple[int, ...]] = {}
        for node in sorted(cfg.reachable):
            act = nodes[node]
            if type(act) is Log:
                steps = (LogStep(first_event + len(logs)),)
                logs.append(node)
                names = [p.name for p in act.stmt.parts if isinstance(p, Var)]
                if names:
                    values[node] = dict.fromkeys(names)
            elif type(act) is Call:
                steps = tuple(CallStep(c) for c in act.callees if c in cg_prime.kept)
            else:
                continue
            if steps:
                plain[node] = tuple(index.setdefault(s, len(index)) for s in steps)
        built = list(index)
        out: list[LogPath] = []
        seen: set[tuple[tuple[int, ...], tuple[tuple[int, int], ...], bool]] = set()
        exit_ = cfg.exit
        targets = {*values, exit_}
        # the budget counts each statement's arrivals, and exit's
        arrivals = dict.fromkeys(values, 0)
        walks = 0
        preds = in_edges(cfg)
        loops = natural_loops(cfg, preds)
        for visits, consts in _iter_walks(cfg, targets, preds, loops):
            node = visits[-1]
            if node != exit_:
                held = values[node]
                arrivals[node] += 1
                if arrivals[node] > budget:  # truncated: cannot prove uniqueness
                    held.clear()
                for var, value in list(held.items()):
                    got = consts.get(var)
                    if got is None or value not in (None, got):
                        del held[var]
                    else:
                        held[var] = got
                if not held:
                    targets.discard(node)
                continue
            walks += 1
            if walks > budget:  # more feasible walks than the cap: stop at exit
                targets.discard(exit_)
                continue
            at, spans, skipped = _project(visits, plain, loops)
            # one variant per callee choice at each ambiguous call site
            for codes in itertools.product(*[plain[visits[i]] for i in at]):
                if (codes, spans, skipped) in seen:
                    continue
                seen.add((codes, spans, skipped))
                out.append(LogPath(first_id + len(out), method.id,
                                   tuple(built[c] for c in codes), spans, skipped))
                if len(out) > budget:
                    targets.discard(exit_)
                    break
        truncated = exit_ not in targets
    for eid, node in enumerate(logs, start=first_event):
        stmt = nodes[node].stmt
        held = values.get(node, {})
        events[eid] = LogEvent(event_id=eid, level=stmt.level, template="".join(
            p.text if isinstance(p, Literal)
            else PLACEHOLDER if (const := held.get(p.name)) is None else const
            for p in stmt.parts), origin=(method.id, node))
    if truncated:
        out = out[:budget]
        log.warning(
            "method %s: path enumeration truncated at %d paths",
            method.name, budget,
        )
    return out


def restore_statement(method: MethodNode, node: ActivityId, event_id: int = 0,
                      limits: PathLimits = PathLimits()) -> LogEvent:
    """The event of the LOG activity `node`, which must be reachable, its
    template restored by the search of `enumerate_logeps` with no callee
    kept."""
    events: dict[EventId, LogEvent] = {}
    enumerate_logeps(method, PrunedCallGraph(frozenset(), frozenset(), {}), limits, events)
    (event,) = [ev for ev in events.values() if ev.origin[1] == node]
    return replace(event, event_id=event_id)


# ── Assembling the store ─────────────────────────────────────────────

def build_store(
    model: ProgramModel,
    cg_prime: PrunedCallGraph,
    limits: PathLimits = PathLimits(),
) -> PathStore:
    """Restore every reachable logging statement of the kept methods into
    an event table, and enumerate each kept method's paths, in one search
    per kept method, in id order.  Events are numbered from 0 in
    (method, activity) order and paths from 0 in (method, path) order."""
    events: dict[EventId, LogEvent] = {}
    by_method: dict[MethodId, list[LogPath]] = {}
    n_paths = 0
    for mid in sorted(cg_prime.kept):
        paths = by_method[mid] = enumerate_logeps(
            model.methods[mid], cg_prime, limits, events, n_paths)
        n_paths += len(paths)
    return PathStore(by_method=by_method, events=events)


_SUFFIX = ("", ":S", ":E", ":SE")  # by bits: 1 a region's first step, 2 its last


def format_store_dump(store: PathStore, model: ProgramModel) -> str:
    """Inspection dump: the event table and every path's steps, the first
    and last step of each loop region marked `:S` and `:E` (`:SE` when
    one step is both).  A method's paths share its step objects, so each
    step's text is built once and kept by the step's `id`, which the
    store keeps alive for the whole dump."""
    lines = []
    for eid in sorted(store.events):
        ev = store.events[eid]
        lines.append(f"EV {eid} {ev.level} {ev.template}")
    names = {mid: m.name for mid, m in model.methods.items()}
    texts: dict[int, str] = {}
    for path in store.all_paths():
        steps = [f"EP {path.id} {names[path.method]}"]
        for s in path.steps:
            text = texts.get(id(s))
            if text is None:
                text = texts[id(s)] = (
                    f"L:{s.event}" if type(s) is LogStep
                    else f"C:{names[s.callee]}")
            steps.append(text)
        if path.spans:
            marks: dict[int, int] = {}
            for first, last in path.spans:
                marks[first] = marks.get(first, 0) | 1
                marks[last] = marks.get(last, 0) | 2
            for j, bits in marks.items():
                steps[j + 1] += _SUFFIX[bits]
        lines.append(" ".join(steps))
    return "\n".join(lines) + "\n"
