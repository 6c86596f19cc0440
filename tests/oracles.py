"""Independent brute-force implementations used as test oracles.

Each of these mirrors a contract, not an implementation: reachability by
per-node search, Kosaraju instead of Tarjan, breadth-first and
unpruned recursive depth-first path listing with truth-assignment
feasibility instead of the production search that prunes contradictory
guards as it goes, per-variable restoration over every listed walk
instead of one pruned search per statement, exhaustive walk-space
enumeration instead of random walking, repeated full sweeps instead
of the worklist fixpoint, logging coverage counted one message at a
time instead of one sequence at a time, and MiniLang tokens and
model-file payload fields scanned one character at a time instead of
by compiled patterns, and MiniLang units parsed by recursive descent
instead of on an explicit stack.  It also holds the pretty printer that
renders a parsed AST back to MiniLang source for the parser's round-trip
test.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque

from logsynth.generation import Label
from logsynth.labeling import Status
from logsynth.metrics import CURVE_SAMPLE_EVERY, CoverageReport
from logsynth.minilang import KEYWORDS, AstMethod, If, Invoke, ParseError, Return, Statement, While
from logsynth.model import (
    GUARD_FALSE, GUARD_TRUE, LEVELS, AssignAct, Branch, Call, ExecutionGraph, Guard, Literal, Log,
    LogEvent, LoggingStatement, ModelFormatError, Var, in_edges, natural_loops,
)
from logsynth.pathfinding import PLACEHOLDER, CallStep, LogPath, LogStep, _iter_walks


# ── Pruning oracle: per-node DFS reachability ────────────────────────

def reachable_to_log_methods(nodes, edges, log_methods) -> set[int]:
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)

    def can_reach(start: int) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            n = stack.pop()
            if n in log_methods:
                return True
            for m in succ.get(n, ()):
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return False

    return {n for n in nodes if can_reach(n)}


# ── SCC oracle: Kosaraju ─────────────────────────────────────────────

def kosaraju_sccs(nodes, edges) -> set[frozenset[int]]:
    succ: dict[int, list[int]] = {n: [] for n in nodes}
    pred: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)

    seen: set[int] = set()
    order: list[int] = []
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter(succ[root]))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(succ[child])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    assigned: set[int] = set()
    comps: set[frozenset[int]] = set()
    for root in reversed(order):
        if root in assigned:
            continue
        comp = {root}
        assigned.add(root)
        queue = deque([root])
        while queue:
            n = queue.popleft()
            for m in pred[n]:
                if m not in assigned:
                    assigned.add(m)
                    comp.add(m)
                    queue.append(m)
        comps.add(frozenset(comp))
    return comps


# ── CFG path oracle ──────────────────────────────────────────────────

def bfs_all_walks(cfg: ExecutionGraph) -> list[tuple]:
    """Every entry-to-exit walk that repeats no edge, listed by iterative
    breadth-first expansion of partial walks."""
    entry, exit_ = cfg.entry, cfg.exit
    out_edges: dict[int, list] = {}
    for frm, to, g in cfg.edges:
        out_edges.setdefault(frm, []).append((to, g))
    done = []
    queue = deque([(((entry, None),), frozenset())])
    while queue:
        visits, used = queue.popleft()
        node = visits[-1][0]
        if node == exit_:
            done.append(visits)
            continue
        for to, g in out_edges.get(node, ()):
            key = (node, to, None if g is None else (g.var, g.value))
            if key in used:
                continue
            queue.append((visits + ((to, g),), used | {key}))
    return done


def restore_by_walks(cfg: ExecutionGraph, node: int
                     ) -> tuple[dict[str, str | None], int]:
    """Each variable the LOG activity `node` prints, with the constant it
    holds there (or None), plus the number of arrivals.  Breadth-first
    expansion lists every edge-simple walk from entry and keeps going
    past `node`, so a walk that arrives twice counts twice.  A variable
    resolves when every arrival that `assignment_feasible` admits sees
    one and the same non-None last literal, and some arrival does."""
    out_edges: dict[int, list] = {}
    for frm, to, g in cfg.edges:
        out_edges.setdefault(frm, []).append((to, g))
    arrivals = []
    queue = deque([(((cfg.entry, None),), frozenset())])
    while queue:
        visits, used = queue.popleft()
        at = visits[-1][0]
        if at == node:
            arrivals.append(visits)
        for to, g in out_edges.get(at, ()):
            key = (at, to, None if g is None else (g.var, g.value))
            if key not in used:
                queue.append((visits + ((to, g),), used | {key}))

    feasible = [v for v in arrivals if assignment_feasible(cfg, v)]
    names = {p.name for p in cfg.nodes[node].stmt.parts if isinstance(p, Var)}
    constants: dict[str, str | None] = {}
    for name in names:
        seen = set()
        for visits in feasible:
            last = None
            for n, _ in visits[:-1]:
                act = cfg.nodes[n]
                if isinstance(act, AssignAct) and act.var == name:
                    last = act.literal
            seen.add(last)
        constants[name] = seen.pop() if len(seen) == 1 and None not in seen else None
    return constants, len(arrivals)


def assignment_feasible(cfg: ExecutionGraph, visits) -> bool:
    """Feasibility by enumerating truth assignments over variable epochs:
    an assignment statement or a re-evaluation at a revisited branch
    starts a fresh epoch for the variable."""
    epoch: dict[str, int] = {}
    visited_nodes: set[int] = set()
    guards: list[tuple[tuple[str, int], bool]] = []
    for node, g in visits:
        if g is not None:
            if g.var is None:
                if not g.value:
                    return False
            else:
                guards.append(((g.var, epoch.get(g.var, 0)), g.value))
        act = cfg.nodes[node]
        if node in visited_nodes and isinstance(act, Branch) \
                and act.cond.var is not None:
            epoch[act.cond.var] = epoch.get(act.cond.var, 0) + 1
        if isinstance(act, AssignAct):
            epoch[act.var] = epoch.get(act.var, 0) + 1
        visited_nodes.add(node)

    variables = sorted({v for v, _ in guards})
    if len(variables) > 20:
        raise RuntimeError("oracle blow-up: too many guard epochs")
    for mask in range(1 << len(variables)):
        assignment = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        if all(assignment[v] == polarity for v, polarity in guards):
            return True
    return not variables


def satisfiable(trace) -> bool:
    """Decide a guard/assignment trace, a sequence of ("guard", var, bool),
    ("assign", var) and ("lit", bool) events: a variable may not be
    required to hold both polarities without an intervening
    reassignment, and a literal-false guard is never taken."""
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


def guard_trace(cfg: ExecutionGraph, visits) -> tuple:
    """The `satisfiable` trace of one walk of (node, in-guard) visits.  At
    each visit: the in-edge guard, evaluated under the old values; then,
    on a back edge into a loop head (heads and loops from
    `loops_by_removal`), an assignment of the head's condition variable,
    which the head evaluates afresh; then the visited assignment."""
    loops = loops_by_removal(cfg)
    trace = []
    prev = None
    for node, guard in visits:
        if guard is not None:
            trace.append(("lit", guard.value) if guard.var is None
                         else ("guard", guard.var, guard.value))
        if prev is not None and node in loops and prev in loops[node] \
                and cfg.nodes[node].cond.var is not None:
            trace.append(("assign", cfg.nodes[node].cond.var))
        if isinstance(cfg.nodes[node], AssignAct):
            trace.append(("assign", cfg.nodes[node].var))
        prev = node
    return tuple(trace)


def dfs_all_walks(cfg: ExecutionGraph, target: int) -> list[tuple]:
    """Every edge-simple walk from entry, recorded at each arrival at
    `target` and continued past it, unpruned, by recursive depth-first
    search in the documented edge order: true guard first, then target
    id, then guard text."""
    def order(edge):
        to, g = edge
        text = "" if g is None else ("T:" if g.value else "F:") + str(g.var)
        return (0 if g is not None and g.value else 1, to, text)

    out_edges: dict[int, list] = {}
    for frm, to, g in cfg.edges:
        out_edges.setdefault(frm, []).append((to, g))
    walks = []

    def extend(visits, used):
        at = visits[-1][0]
        if len(visits) > 1 and at == target:
            walks.append(visits)
        for to, g in sorted(out_edges.get(at, ()), key=order):
            if (at, to, g) not in used:
                extend(visits + ((to, g),), used | {(at, to, g)})

    extend(((cfg.entry, None),), frozenset())
    return walks


def dfs_feasible_paths(cfg: ExecutionGraph, kept: set[int],
                       stmt_to_event: dict[int, int]) -> list[tuple]:
    """The feasible projected paths in discovery order: every entry-to-exit
    walk from `dfs_all_walks` that `assignment_feasible` admits, projected
    with `project_walk`, keeping the first occurrence of each
    (steps, skipped) pair."""
    out: dict[tuple, None] = {}
    for visits in dfs_all_walks(cfg, cfg.exit):
        if assignment_feasible(cfg, visits):
            out.update(dict.fromkeys(project_walk(cfg, visits, kept, stmt_to_event)))
    return list(out)


def _sweep(start: int, nxt: dict[int, list[int]], banned: int | None) -> set[int]:
    """Nodes reached from `start` along `nxt` without entering `banned`."""
    if start == banned:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        for m in nxt.get(n, ()):
            if m != banned and m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def _cycle_set(cfg: ExecutionGraph, head: int) -> set[int]:
    """The head's natural loop, from first principles: `head` dominates a
    node exactly when deleting `head` disconnects it from entry (so the
    node is reachable while `head` is present), and the loop is
    everything that can reach a dominated back-edge source without
    crossing the head."""
    entry = cfg.entry
    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for frm, to, _ in cfg.edges:
        succ.setdefault(frm, []).append(to)
        pred.setdefault(to, []).append(frm)

    reach = _sweep(entry, succ, banned=None)
    alive_without_head = _sweep(entry, succ, banned=head)
    back_sources = [
        frm for frm, to, _ in cfg.edges
        if to == head and frm in reach and frm not in alive_without_head
    ]
    loop = {head}
    for u in back_sources:
        loop |= {u} | _sweep(u, pred, banned=head)
    return loop


def cycle_nodes(cfg: ExecutionGraph) -> set[int]:
    """The nodes reachable from entry that lie on a cycle, from first
    principles: a node is on one when it reaches itself again along some
    out-edge."""
    succ: dict[int, list[int]] = {}
    for frm, to, _ in cfg.edges:
        succ.setdefault(frm, []).append(to)
    return on_cycle(succ, _sweep(cfg.entry, succ, banned=None))


def on_cycle(succ: dict[int, list[int]], nodes) -> set[int]:
    """The `nodes` that reach themselves again along some edge of `succ`."""
    return {n for n in nodes
            if any(n in _sweep(m, succ, banned=None) for m in succ.get(n, ()))}


def loops_by_removal(cfg: ExecutionGraph) -> dict[int, set[int]]:
    """Every loop head with its natural loop, from first principles: a
    branch is a head when removing it disconnects from entry some
    reachable source of an edge into it."""
    entry = cfg.entry
    succ: dict[int, list[int]] = {}
    for frm, to, _ in cfg.edges:
        succ.setdefault(frm, []).append(to)
    reach = _sweep(entry, succ, banned=None)
    heads = {to for frm, to, _ in cfg.edges
             if isinstance(cfg.nodes[to], Branch) and frm in reach
             and frm not in _sweep(entry, succ, banned=to)}
    return {h: _cycle_set(cfg, h) for h in heads}


class Mark(str, enum.Enum):
    """A recorded step's part in its path's loop regions: the first step
    of one, the last, both, or neither."""
    NONE = "none"
    START = "start"
    END = "end"
    BOTH = "both"


def marks_of(spans, n: int) -> list[Mark]:
    """The marks of a path's `n` steps, given the (first, last) step
    indexes of its loop regions."""
    starts = {first for first, _ in spans}
    ends = {last for _, last in spans}
    return [Mark.BOTH if j in starts and j in ends else Mark.START if j in starts
            else Mark.END if j in ends else Mark.NONE for j in range(n)]


def forest_by_counts(steps, spans) -> tuple:
    """A path's steps as a forest in which a loop region is a tuple of its
    nodes and any other node is a step, read off how many regions open
    and close at each step: regions that share a step nest, so the last
    one opened closes first.  Without spans, the steps are the forest."""
    if not spans:
        return steps
    opens = [0] * len(steps)
    closes = opens[:]
    for first, last in spans:
        opens[first] += 1
        closes[last] += 1
    stack: list[list] = [[]]
    for step, o, c in zip(steps, opens, closes):
        stack += [[] for _ in range(o)]
        stack[-1].append(step)
        for _ in range(c):
            region = tuple(stack.pop())
            stack[-1].append(region)
    return tuple(stack[0])


def walk_spans(cfg: ExecutionGraph, visits, at: list[int]) -> tuple[list[tuple[int, int]], bool]:
    """A walk's loop regions and skipped-loop flag, from consecutive head
    occurrences, given the visit indexes `at` of its recorded steps: for
    each head whose body the walk enters, the (first, last) index in `at`
    of each stretch between two consecutive visits to the head that
    records a step, in head order."""
    cycle_sets = loops_by_removal(cfg)
    spans: list[tuple[int, int]] = []
    skipped = False
    for head, cset in cycle_sets.items():
        occurrences = [i for i, (n, _) in enumerate(visits) if n == head]
        if not occurrences:
            continue
        entered = any(i + 1 < len(visits) and visits[i + 1][0] in cset
                      for i in occurrences)
        if not entered:
            if any(i + 1 < len(visits) and visits[i + 1][0] not in cset
                   for i in occurrences):
                skipped = True
            continue
        for a, b in zip(occurrences, occurrences[1:]):
            inside = [j for j, i in enumerate(at) if a < i < b]
            if inside:
                spans.append((inside[0], inside[-1]))
    return spans, skipped


def project_walk(cfg: ExecutionGraph, visits, kept: set[int],
                 stmt_to_event: dict[int, int]) -> list[tuple]:
    """Project one walk onto (event/callee, mark) step tuples plus the
    skipped-loop flag, the marks read off `walk_spans`.  One variant is
    returned per callee choice at ambiguous call sites."""
    recorded: list[tuple[int, str, tuple]] = []  # (visit index, kind, choices)
    for i, (node, _) in enumerate(visits):
        act = cfg.nodes[node]
        if isinstance(act, Log):
            recorded.append((i, "log", (stmt_to_event[node],)))
        elif isinstance(act, Call):
            kept_callees = tuple(c for c in act.callees if c in kept)
            if kept_callees:
                recorded.append((i, "call", kept_callees))
    spans, skipped = walk_spans(cfg, visits, [i for i, _, _ in recorded])
    marks = marks_of(spans, len(recorded))
    variants = []
    for combo in itertools.product(*[choices for _, _, choices in recorded]):
        steps = tuple((kind, x, mark) for (_, kind, _), x, mark in zip(recorded, combo, marks))
        variants.append((steps, skipped))
    return variants


def oracle_path_set(cfg: ExecutionGraph, kept: set[int],
                    stmt_to_event: dict[int, int]) -> set[tuple]:
    """The feasible projected path set: (steps, skipped) pairs."""
    out: set[tuple] = set()
    for visits in bfs_all_walks(cfg):
        if not assignment_feasible(cfg, visits):
            continue
        out.update(project_walk(cfg, visits, kept, stmt_to_event))
    return out


def logeps_by_search(method, kept, cap: int, first_event: int = 0, first_id: int = 0):
    """The events, paths and truncation flag that `enumerate_logeps` gives
    a method without loops, found by driving the general `_iter_walks`
    search to every reachable statement and to exit.  Events are numbered
    from `first_event` in activity order; a variable's constant is kept
    when every arrival at the statement agrees on one.  Each walk to exit
    gives one path per choice of callees in `kept` at each call site; the
    first `cap` distinct paths are kept, numbered from `first_id`, and the
    flag says whether there were more."""
    cfg = method.cfg
    logs = sorted(n for n in cfg.reachable if isinstance(cfg.nodes[n], Log))
    event_of = {n: first_event + i for i, n in enumerate(logs)}
    arrivals: dict[int, list[dict]] = {n: [] for n in logs}
    found: dict[tuple, None] = {}
    preds = in_edges(cfg)
    for visits, consts, _ in _iter_walks(cfg, {*logs, cfg.exit}, preds,
                                         *natural_loops(cfg, preds)):
        if visits[-1] != cfg.exit:
            arrivals[visits[-1]].append(dict(consts))
            continue
        options = []
        for n in visits:
            act = cfg.nodes[n]
            if isinstance(act, Log):
                options.append([LogStep(event_of[n])])
            elif isinstance(act, Call) and any(c in kept for c in act.callees):
                options.append([CallStep(c) for c in act.callees if c in kept])
        found.update(dict.fromkeys(itertools.product(*options)))
    events = []
    for n in logs:
        stmt = cfg.nodes[n].stmt
        text = []
        for p in stmt.parts:
            held = {c.get(p.name) for c in arrivals[n]} if isinstance(p, Var) else {p.text}
            text.append(held.pop() if len(held) == 1 and None not in held else PLACEHOLDER)
        events.append(LogEvent(event_of[n], stmt.level, "".join(text), origin=(method.id, n)))
    paths = [LogPath(first_id + i, method.id, steps) for i, steps in enumerate(found)]
    return events, paths[:cap], len(paths) > cap


def production_paths(store, method_id: int) -> list[tuple]:
    """The production store's paths for one method in store order, shaped
    like the oracle's."""
    return [
        (tuple(("log", s.event, mark) if isinstance(s, LogStep) else ("call", s.callee, mark)
               for s, mark in zip(p.steps, marks_of(p.spans, len(p.steps)))),
         p.skips_loop)
        for p in store.by_method[method_id]
    ]


def production_path_set(store, method_id: int) -> set[tuple]:
    """The production store's paths for one method, shaped like the oracle's."""
    return set(production_paths(store, method_id))


# ── Fixpoint oracle: naive sweeps over every path ────────────────────

def sweep_fixpoint(store, admits) -> set[int]:
    """The least set of path ids closed under `admits(path, owners)`,
    where `owners` are the methods owning a member: sweep every path
    until a whole sweep adds nothing."""
    members: set[int] = set()
    changed = True
    while changed:
        changed = False
        owners = {store.path(pid).method for pid in members}
        for p in store.all_paths():
            if p.id not in members and admits(p, owners):
                members.add(p.id)
                changed = True
    return members


# ── Walk-space oracle for generation ─────────────────────────────────

def walk_space(store, infection, scc_of, cycle_sccs, params, entry: int,
               mode: Label) -> set[tuple[int, ...]]:
    """Every event list a legal walk can produce, by exhaustive expansion
    of all path, callee, and loop-repetition choices."""
    results: set[tuple[int, ...]] = set()

    def parse(steps, spans):
        # each span opens before its step and closes after it; spans that
        # start together open outermost first, so the innermost open span
        # is the first to end
        starts = sorted(spans, key=lambda span: (span[0], -span[1]))
        root: list = []
        cur, stack, k = root, [], 0
        for j, s in enumerate(steps):
            while k < len(starts) and starts[k][0] == j:
                region: list = []
                cur.append(("region", region))
                stack.append((starts[k][1], cur))
                cur = region
                k += 1
            cur.append(("step", s))
            while stack and stack[-1][0] == j:
                cur = stack.pop()[1]
        assert k == len(starts) and not stack, (steps, spans)
        return root

    def candidates(mid, hit):
        paths = store.by_method.get(mid, [])
        if mode is Label.NORMAL:
            return [p for p in paths if infection.status[p.id] is not Status.SEED]
        if not hit:
            return [p for p in paths
                    if infection.status[p.id] is not Status.CLEAN
                    and not p.skips_loop]
        return [p for p in paths if not p.skips_loop]

    def visit(mid, hit, budgets, prefix):
        outs = set()
        for p in candidates(mid, hit):
            new_hit = hit or infection.status[p.id] is Status.SEED
            for tail_hit, tail in run(parse(p.steps, p.spans), new_hit, budgets, ()):
                outs.add((tail_hit, tail))
        return outs

    def run(forest, hit, budgets, acc):
        outs = {(hit, acc)}
        for node in forest:
            next_outs = set()
            for h, events in outs:
                if node[0] == "step":
                    s = node[1]
                    if isinstance(s, LogStep):
                        next_outs.add((h, events + (s.event,)))
                    else:
                        scc = scc_of[s.callee]
                        cyclic = scc in cycle_sccs
                        if cyclic:
                            if budgets.get(scc, 0) > params.max_recursion_depth:
                                continue
                            b2 = dict(budgets)
                            b2[scc] = b2.get(scc, 0) + 1
                        else:
                            b2 = budgets
                        for h2, sub in visit(s.callee, h, b2, ()):
                            next_outs.add((h2, events + sub))
                else:
                    for reps in range(1, params.max_loop_reps + 1):
                        for h2, sub in repeat(node[1], h, budgets, reps):
                            next_outs.add((h2, events + sub))
            outs = next_outs
        return outs

    def repeat(forest, hit, budgets, reps):
        outs = {(hit, ())}
        for _ in range(reps):
            next_outs = set()
            for h, events in outs:
                for h2, sub in run(forest, h, budgets, ()):
                    next_outs.add((h2, events + sub))
            outs = next_outs
        return outs

    start_budgets = (
        {scc_of[entry]: 1} if scc_of[entry] in cycle_sccs else {}
    )
    for final_hit, events in visit(entry, False, start_budgets, ()):
        if not events:
            continue
        if mode is Label.ANOMALY and not final_hit:
            continue
        results.add(events)
    return results


# ── Coverage oracle: one message at a time ───────────────────────────

def coverage_by_message(ds, model) -> CoverageReport:
    """`logging_coverage` as a loop over every message: a sample after
    each CURVE_SAMPLE_EVERY-th message, and one after the last unless it
    fell exactly there."""
    total = len(model.statements())
    seen: set[int] = set()
    emitted = 0
    curve: list[tuple[int, float]] = []

    def ratio() -> float:
        return len(seen) / total if total else 1.0

    next_sample = CURVE_SAMPLE_EVERY
    for seq in ds.sequences:
        for ev in seq.events:
            seen.add(ev)
            emitted += 1
            if emitted == next_sample:
                curve.append((emitted, ratio()))
                next_sample += CURVE_SAMPLE_EVERY
    if not curve or curve[-1][0] != emitted:
        curve.append((emitted, ratio()))
    return CoverageReport(
        discovered=len(seen), total=total, coverage=ratio(), curve=curve
    )


# ── Lexer oracle: one character at a time ───────────────────────────

def tokenize_by_character(text: str) -> list[tuple[str, str, int, int]]:
    """MiniLang tokens as (kind, text, line, column), ending with
    ("EOF", "", line, column); kind is IDENT, STRING, or the text of a
    keyword or punctuation.  Raises ParseError as the lexer must."""
    toks: list[tuple[str, str, int, int]] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            i += 1
            col += 1
            out: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(start_line, start_col, "unterminated string literal")
                ch = text[i]
                if ch == "\\":
                    if i + 1 >= n:
                        raise ParseError(start_line, start_col, "unterminated string literal")
                    esc = text[i + 1]
                    if esc == '"':
                        out.append('"')
                    elif esc == "\\":
                        out.append("\\")
                    else:
                        raise ParseError(line, col, f"invalid escape '\\{esc}' in string")
                    i += 2
                    col += 2
                    continue
                if ch == '"':
                    i += 1
                    col += 1
                    break
                out.append(ch)
                i += 1
                col += 1
            toks.append(("STRING", "".join(out), start_line, start_col))
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append((word if word in KEYWORDS else "IDENT", word, start_line, start_col))
            col += j - i
            i = j
            continue
        if c in "{}();=+!,":
            toks.append((c, c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, f"unexpected character {c!r}")
    toks.append(("EOF", "", line, col))
    return toks


# ── Parser oracle: recursive descent ─────────────────────────────────

def parse_by_descent(text: str) -> list[AstMethod]:
    """A unit's methods parsed by recursive descent, one method per
    grammar rule, over the tokens of `tokenize_by_character`.  Raises
    ParseError as the parser must; it recurses three frames per nested
    block, so keep its inputs shallow."""
    return _Descent(text).parse_unit()


class _Descent:
    def __init__(self, text: str):
        self.toks = tokenize_by_character(text)
        self.pos = 0

    def _cur(self) -> tuple[str, str, int, int]:
        return self.toks[self.pos]

    def _advance(self) -> tuple[str, str, int, int]:
        tok = self.toks[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def _error(self, message: str, tok=None) -> ParseError:
        _, _, line, col = tok or self._cur()
        return ParseError(line, col, message)

    def _expect(self, kind: str) -> tuple[str, str, int, int]:
        """Consume the keyword or punctuation `kind`."""
        tok = self._cur()
        if tok[0] != kind:
            raise self._error(f"expected '{kind}', found {tok[1] or 'end of file'!r}")
        return self._advance()

    def _expect_ident(self, what: str = "identifier") -> tuple[str, str, int, int]:
        tok = self._cur()
        if tok[0] != "IDENT":
            raise self._error(f"expected {what}, found {tok[1] or 'end of file'!r}")
        return self._advance()

    def _at(self, kind: str) -> bool:
        return self._cur()[0] == kind

    # unit := { annot? method }
    def parse_unit(self) -> list[AstMethod]:
        methods: list[AstMethod] = []
        seen: set[str] = set()
        while not self._at("EOF"):
            component = None
            if self._at("component"):
                self._advance()
                if not self._at("STRING"):
                    raise self._error("expected component name string")
                component = self._advance()[1]
            name_tok = self._cur()
            method = self._parse_method(component)
            if method.name in seen:
                raise self._error(f"duplicate method name '{method.name}'", name_tok)
            seen.add(method.name)
            methods.append(method)
        return methods

    # method := "void" IDENT "(" ")" block
    def _parse_method(self, component: str | None) -> AstMethod:
        self._expect("void")
        name = self._expect_ident("method name")[1]
        self._expect("(")
        self._expect(")")
        return AstMethod(name, self._parse_block(), component)

    def _parse_block(self) -> tuple[Statement, ...]:
        self._expect("{")
        stmts: list[Statement] = []
        while not self._at("}"):
            if self._at("EOF"):
                raise self._error("expected '}', found end of file")
            stmts.append(self._parse_statement())
        self._advance()
        return tuple(stmts)

    def _parse_statement(self) -> Statement:
        if self._at("log"):
            return self._parse_log()
        if self._at("if"):
            return self._parse_if()
        if self._at("while"):
            return self._parse_while()
        if self._at("return"):
            self._advance()
            self._expect(";")
            return Return()
        tok = self._cur()
        if tok[0] != "IDENT":
            raise self._error(f"expected statement, found {tok[1] or 'end of file'!r}")
        self._advance()
        if self._at("("):
            self._advance()
            self._expect(")")
            self._expect(";")
            return Invoke(tok[1])
        if self._at("="):
            self._advance()
            if not self._at("STRING"):
                raise self._error("expected string literal on right-hand side")
            value = self._advance()[1]
            self._expect(";")
            return AssignAct(tok[1], value)
        raise self._error("expected '(' or '=' after identifier")

    # log := "log" "(" LEVEL "," part { "+" part } ")" ";"
    def _parse_log(self) -> LoggingStatement:
        kw = self._expect("log")
        self._expect("(")
        kind, level, _, _ = self._cur()
        if kind != "IDENT" or level not in LEVELS:
            raise self._error("expected log level (info, warn, or error)")
        self._advance()
        self._expect(",")
        parts: list[Literal | Var] = [self._parse_part()]
        while self._at("+"):
            self._advance()
            parts.append(self._parse_part())
        self._expect(")")
        self._expect(";")
        return LoggingStatement(level, tuple(parts), line=kw[2])

    def _parse_part(self) -> Literal | Var:
        kind, text, _, _ = self._cur()
        if kind == "STRING":
            self._advance()
            return Literal(text)
        if kind == "IDENT":
            self._advance()
            return Var(text)
        raise self._error("expected string literal or variable in log message")

    def _parse_if(self) -> If:
        self._expect("if")
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        then = self._parse_block()
        orelse = None
        if self._at("else"):
            self._advance()
            orelse = self._parse_block()
        return If(cond, then, orelse)

    def _parse_while(self) -> While:
        self._expect("while")
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        return While(cond, self._parse_block())

    # cond := "true" | "false" | [ "!" ] IDENT
    def _parse_cond(self) -> Guard:
        if self._at("true"):
            self._advance()
            return GUARD_TRUE
        if self._at("false"):
            self._advance()
            return GUARD_FALSE
        value = True
        if self._at("!"):
            self._advance()
            value = False
        return Guard(self._expect_ident("condition variable")[1], value)


# ── Model payload oracles: one character at a time ───────────────────

def split_fields_by_character(payload: str) -> list[str]:
    """Split a model-file payload on its unescaped '|' separators."""
    fields: list[str] = []
    cur: list[str] = []
    i = 0
    while i < len(payload):
        c = payload[i]
        if c == "\\" and i + 1 < len(payload):
            cur.append(payload[i:i + 2])
            i += 2
            continue
        if c == "|":
            fields.append("".join(cur))
            cur = []
            i += 1
            continue
        cur.append(c)
        i += 1
    fields.append("".join(cur))
    return fields


def unescape_by_character(text: str) -> str:
    """Undo a payload field's escapes, raising ModelFormatError as the
    model reader must."""
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 >= len(text):
                raise ModelFormatError(f"dangling escape in {text!r}")
            nxt = text[i + 1]
            mapped = {"\\": "\\", "|": "|", "n": "\n", "r": "\r"}.get(nxt)
            if mapped is None:
                raise ModelFormatError(f"invalid escape '\\{nxt}' in {text!r}")
            out.append(mapped)
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


# ── Pretty printer: MiniLang source back from its AST ────────────────

def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _fmt_cond(cond: Guard) -> str:
    if cond.var is None:
        return "true" if cond.value else "false"
    return ("" if cond.value else "!") + cond.var


def _fmt_stmt(stmt: Statement, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(stmt, LoggingStatement):
        parts = " + ".join(
            f'"{_escape(p.text)}"' if isinstance(p, Literal) else p.name
            for p in stmt.parts
        )
        out.append(f"{pad}log({stmt.level}, {parts});")
    elif isinstance(stmt, Invoke):
        out.append(f"{pad}{stmt.target}();")
    elif isinstance(stmt, AssignAct):
        out.append(f'{pad}{stmt.var} = "{_escape(stmt.literal)}";')
    elif isinstance(stmt, If):
        out.append(f"{pad}if ({_fmt_cond(stmt.cond)}) {{")
        for s in stmt.then:
            _fmt_stmt(s, indent + 1, out)
        if stmt.orelse is None:
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}}} else {{")
            for s in stmt.orelse:
                _fmt_stmt(s, indent + 1, out)
            out.append(f"{pad}}}")
    elif isinstance(stmt, While):
        out.append(f"{pad}while ({_fmt_cond(stmt.cond)}) {{")
        for s in stmt.body:
            _fmt_stmt(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(stmt, Return):
        out.append(f"{pad}return;")
    else:  # pragma: no cover
        raise TypeError(f"unknown statement {stmt!r}")


def pretty_print(methods: list[AstMethod]) -> str:
    """Render methods back to parseable MiniLang source."""
    out: list[str] = []
    for m in methods:
        if m.component is not None:
            out.append(f'component "{_escape(m.component)}"')
        out.append(f"void {m.name}() {{")
        for s in m.body:
            _fmt_stmt(s, 1, out)
        out.append("}")
        out.append("")
    return "\n".join(out)
