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

The search yields the current walk at each arrival at a target, with the
length of the prefix it kept since the previous arrival, so the walk's
projection is kept on stacks that are cut back to that prefix and
extended with the new visits only, never re-read from entry.  Only the
out-edges of nodes on a cycle are tracked to keep walks edge-simple: a
node on no cycle is visited at most once per walk, so none of its edges
can be taken twice.

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
import sys
from bisect import bisect_left
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

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


@dataclass(slots=True)
class LogPath:
    """One log-related execution path of a method.  `spans` holds the
    (first, last) step index of each loop region, in the order the walk
    closed them, inner first; regions nest or are disjoint, and nested
    ones may share boundary steps.

    A path holds these fields only; the walker builds its loop forest
    (`generation.Walker.regions`) and the store indexes its callees.
    Slots spare it an instance dict, which slowed full collections; a
    frozen dataclass would build it at 4x the cost."""

    id: int
    method: MethodId
    steps: tuple[Step, ...]
    spans: tuple[tuple[int, int], ...] = ()
    skips_loop: bool = False


@dataclass(frozen=True)
class PathLimits:
    max_paths_per_method: int = 4096

    def __post_init__(self):
        if self.max_paths_per_method < 1:
            raise LogsynthError("max paths per method must be >= 1")
        if self.max_paths_per_method > sys.maxsize - 1:  # islice stops at budget + 1
            raise LogsynthError(f"max paths per method must be <= {sys.maxsize - 1}")


@dataclass
class PathStore:
    by_method: dict[MethodId, list[LogPath]]
    events: dict[EventId, LogEvent]

    def __post_init__(self):
        self._paths = tuple(p for mid in sorted(self.by_method)
                            for p in self.by_method[mid])
        self._by_id = {p.id: p for p in self._paths}
        # callee method -> the paths calling it, once per distinct callee,
        # and `fanout`: calling path id -> how many distinct methods it calls
        self._callers: dict[MethodId, list[int]] = {}
        self.fanout: dict[int, int] = {}
        for p in self._paths:
            calls = [s.callee for s in p.steps if type(s) is CallStep]  # cheaper than a generator
            if calls:
                callees = dict.fromkeys(calls)
                self.fanout[p.id] = len(callees)
                for callee in callees:
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

def _iter_walks(cfg: ExecutionGraph, targets: set[ActivityId], preds, loops, cyclic):
    """Yield, at every arrival at a node of `targets`, the feasible
    edge-simple walk from entry as a list of nodes, the last literal
    assigned to each variable on it, and `low`, the shortest length the
    walk had since the previous arrival (0 at the first): its first `low`
    nodes are those it had then.  The walk and the literals change as the
    search goes on past the arrival, so a caller copies what it keeps.
    `preds`, `loops` and `cyclic` are the graph's `in_edges` and what
    `natural_loops` returns, which the caller builds once per search.
    The search runs on an explicit stack, so walk length is bounded by the
    graph and not by the recursion limit.  Successors are explored
    true-guard-first.

    Only a node on a cycle (`cyclic`) can be visited twice by one walk, so
    only its out-edges could be taken twice: its frame draws them from
    `_unused`, which keeps the (node, edge index) pair of each edge the
    walk holds in one set.  Any other node is on the walk at most once, so
    its frame iterates its out-edges as they are, without index or
    bookkeeping, and the walk still takes no edge twice.  This is exact on
    every graph, irreducible cycles, self-loops and parallel edges
    included: `cyclic` holds every node of a strongly connected component
    with a cycle, found by the depth-first search that finds the natural
    loops, not only the nodes of natural loops, and parallel edges have
    distinct indexes.

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
    low = 0
    used: set[tuple[ActivityId, int]] = set()  # (node on a cycle, out-edge index)
    # per frame: its untried out-edges (of a node on a cycle, the unused
    # ones) and the (map, key, previous value or None) triples that undo
    # its facts
    edges = succ.get(cfg.entry, ())
    stack = [(_unused(cfg.entry, edges, used) if cfg.entry in cyclic else iter(edges), [])]
    while stack:
        node = path[-1]
        edges, undo = stack[-1]
        for _, to, guard in edges:
            if to in live and (guard is None or known.get(guard.var, guard.value) == guard.value):
                break
        else:
            if len(targets) != open_targets:  # some settled: prune to the rest
                if not targets:
                    return
                open_targets = len(targets)
                live = sweep(preds, targets)
            stack.pop()
            path.pop()
            if len(path) < low:
                low = len(path)
            for held, key, old in reversed(undo):
                if old is None:
                    del held[key]
                else:
                    held[key] = old
            continue
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
            yield path, consts, low
            low = len(path)
        edges = succ.get(to, ())
        stack.append((_unused(to, edges, used) if to in cyclic else iter(edges), undo))


def _unused(node, edges, used):
    """`node`'s out-edges that the walk has not taken, by index.  Each edge
    is marked in `used` from when it is yielded until the next one is
    asked for: the search asks only once it has refused the edge or has
    backtracked out of the walk that took it."""
    for i, edge in enumerate(edges):
        key = (node, i)
        if key not in used:
            used.add(key)
            yield edge
            used.discard(key)


# ── Enumerating log-related execution paths ──────────────────────────

class _Projection:
    """The projection of the search's current walk, kept as stacks that
    follow it: the visit index, step code and step of each recorded visit,
    the ambiguous call sites among them, the spans of the loop regions it
    closed, its open regions, and the heads whose body it entered and
    those it left without entering.  `advance` cuts the stacks back to the
    walk's unchanged prefix and extends them with its new visits only.

    `recorded` maps each recorded node to its step code, its step, and at
    an ambiguous call site the codes of every choice (else None); the
    stacks hold any one of those choices there.  A region opens when the
    walk enters a head's body and closes when it is back at that head,
    dropping any unclosed inner regions opened after it; a closed region
    that records a step is kept as the (first, last) index of its steps,
    in the order regions close.  A head has at most one open region, since
    the walk is at the head just before it opens one, so the open regions
    are a map from head to the index of its first step, in opening order.
    The walk leaves some loop without ever entering its body when a head
    it left is none it entered."""

    def __init__(self, recorded, loops):
        self.recorded = recorded
        self.loops = loops
        self.at: list[int] = []
        self.codes: list[int] = []
        self.steps: list[Step] = []
        self.choices: list[tuple[int, tuple[int, ...]]] = []  # (index in codes, codes)
        self.spans: list[tuple[int, int]] = []
        self.regions: dict[ActivityId, int] = {}
        self.entered: list[ActivityId] = []
        self.left: list[ActivityId] = []
        # per change a loop event made, latest last: its visit index and a
        # function and argument whose call undoes it
        self.undo: list[tuple[int, Callable, object]] = []

    def advance(self, visits, low: int) -> None:
        """Make the stacks `visits`' projection, given that its first `low`
        visits are those of the walk they project now."""
        at = self.at
        if at and at[-1] >= low:
            k = bisect_left(at, low)
            del at[k:], self.codes[k:], self.steps[k:]
            choices = self.choices
            while choices and choices[-1][0] >= k:
                choices.pop()
        undo = self.undo
        while undo and undo[-1][0] >= low:
            _, fn, arg = undo.pop()
            fn(arg)
        recorded, loops, regions = self.recorded, self.loops, self.regions
        codes, steps, choices = self.codes, self.steps, self.choices
        prev = visits[low - 1] if low else None
        for i, node in enumerate(visits[low:], low):
            if prev in loops:
                if node in loops[prev]:
                    self.entered.append(prev)
                    regions[prev] = len(at)
                    undo += (i, self.entered.pop, -1), (i, regions.pop, prev)
                else:
                    self.left.append(prev)
                    undo.append((i, self.left.pop, -1))
            if node in regions:
                dropped = []
                head = None
                while head != node:
                    head, first = regions.popitem()
                    dropped.append((head, first))
                # the dropped regions go back last, in opening order
                undo.append((i, regions.update, dropped[::-1]))
                if first < len(at):
                    self.spans.append((first, len(at) - 1))
                    undo.append((i, self.spans.pop, -1))
            found = recorded.get(node)
            if found is not None:
                code, step, options = found
                if options is not None:
                    choices.append((len(codes), options))
                at.append(i)
                codes.append(code)
                steps.append(step)
            prev = node

    def skips_loop(self) -> bool:
        return bool(self.left) and not set(self.left).issubset(self.entered)


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
    to `_iter_walks` and `_Projection`, which follows the search's walk
    from arrival to arrival at exit; a graph with an only walk builds
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
        # prints variables, and gives each recorded node its step code and
        # step, and its choices' codes at an ambiguous call site: each
        # distinct step is built once and named by its index in `built`
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
        recorded = {node: (codes[0], built[codes[0]], codes if len(codes) > 1 else None)
                    for node, codes in plain.items()}
        out: list[LogPath] = []
        seen: set[tuple[tuple[int, ...], tuple[tuple[int, int], ...], bool]] = set()
        exit_ = cfg.exit
        targets = {*values, exit_}
        # the budget counts each statement's arrivals, and exit's
        arrivals = dict.fromkeys(values, 0)
        walks = 0
        preds = in_edges(cfg)
        loops, cyclic = natural_loops(cfg, preds)
        walk = _Projection(recorded, loops)
        mark = 0  # the walk's first `mark` nodes are as `walk` projected them
        for visits, consts, low in _iter_walks(cfg, targets, preds, loops, cyclic):
            if low < mark:
                mark = low
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
            walk.advance(visits, mark)
            mark = len(visits)
            codes, steps, choices = walk.codes, walk.steps, walk.choices
            spans, skipped = tuple(walk.spans), walk.skips_loop()
            # one variant per callee choice at each ambiguous call site
            picks = itertools.product(*[options for _, options in choices]) if choices else ((),)
            for pick in picks:
                for (j, _), code in zip(choices, pick):
                    codes[j] = code
                    steps[j] = built[code]
                key = (tuple(codes), spans, skipped)
                if key in seen:
                    continue
                seen.add(key)
                out.append(LogPath(first_id + len(out), method.id, tuple(steps),
                                   spans, skipped))
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


def store_dump_lines(store: PathStore, model: ProgramModel) -> Iterator[str]:
    """The inspection dump's lines, each with its newline: the event table
    and every path's steps, the first and last step of each loop region
    marked `:S` and `:E` (`:SE` when one step is both).  A method's paths
    share its step objects, so each step's text with each suffix is built
    once and kept by the step's `id`, which the store keeps alive."""
    for eid in sorted(store.events):
        ev = store.events[eid]
        yield f"EV {eid} {ev.level} {ev.template}\n"
    names = {mid: m.name for mid, m in model.methods.items()}

    def text_of(s: Step) -> str:
        return f"L:{s.event}" if type(s) is LogStep else f"C:{names[s.callee]}"

    texts: tuple[dict[int, str], ...] = ({}, {}, {}, {})  # by suffix bits
    plain = texts[0]
    for path in store.all_paths():
        words = [f"EP {path.id} {names[path.method]}"]
        if not path.spans:
            for s in path.steps:
                text = plain.get(id(s))
                if text is None:
                    text = plain[id(s)] = text_of(s)
                words.append(text)
        else:
            marks = [0] * len(path.steps)
            for first, last in path.spans:
                marks[first] |= 1
                marks[last] |= 2
            for s, bits in zip(path.steps, marks):
                memo = texts[bits]
                text = memo.get(id(s))
                if text is None:
                    text = memo[id(s)] = text_of(s) + _SUFFIX[bits]
                words.append(text)
        yield " ".join(words) + "\n"


def format_store_dump(store: PathStore, model: ProgramModel) -> str:
    """The inspection dump as one string: `store_dump_lines` joined."""
    return "".join(store_dump_lines(store, model))
