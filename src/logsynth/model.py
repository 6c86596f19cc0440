"""Shared program representation: the method set and per-method
execution graphs with logging statements.

The on-disk model file is line-oriented UTF-8 text with four record
kinds, in this order (`#` starts a comment line):

    M <id> <name> [component]
    A <method-id> <activity-id> <kind> [payload]
    E <method-id> <from> <to> [guard]
    C <caller-id> <site-activity-id> <callee-id>

Activity kinds are ENTRY, EXIT, LOG, CALL, ASSIGN, BRANCH.  A LOG
payload is `<level>|<part>|<part>...` with parts `L:<escaped-text>` or
`V:<name>`; an ASSIGN payload is `<var>|<escaped-literal>`; a BRANCH
payload and edge guards use `T:<var>`, `F:<var>`, `TRUE`, or `FALSE`.
A CALL payload, when present, names an external logging API; internal
callees come from C records (several C records for one site encode an
ambiguous dispatch).  In memory, a site's callees live only in its CALL
activity, sorted and distinct however the activity was built, so every
model round-trips through its text: the call graph and the C records are
both derived from them.

A model's canonical text is what `dumps_model` writes: the records of
each kind in ascending key order with none repeated (M by id, A by
(method, activity), E by (method, from, to, guard or ""), C by (caller,
site, callee)), fields joined by single spaces, ids as `str(int)` writes
them, a payload only after LOG, ASSIGN, BRANCH and external CALL, no
comment or blank line, and one newline after every line.  `loads_model`
accepts more than that, in one pass over the lines; when its input is
canonical it records the text's sha256 as the model's `text_sha256`, and
`model_sha256`, the digest a dataset manifest names, returns it without
serializing the model again.

A logging statement is named by its (method id, LOG activity id) and
carries no id of its own.  Loop heads are not stored either: an
execution graph is a value, complete once built.  It builds its entry,
exit, out-edges, and its only walk (when it has no choice) or else its
reachable set, in one pass when it is constructed, and holds nothing
more.  A branching graph's path search derives the in-edges, natural
loops and cycle nodes it needs with `in_edges` and `natural_loops`, and
keeps them only while it runs; `natural_loops` reads its loop candidates
and cycle nodes off `strong_components`, the one Tarjan search that also
condenses the call graph's recursion cycles.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .errors import LogsynthError, utf8_errors

MethodId = int
ActivityId = int
EventId = int

LEVELS = ("info", "warn", "error")


class ModelFormatError(LogsynthError):
    pass


# ── Guards and statement parts ───────────────────────────────────────

@dataclass(frozen=True)
class Guard:
    """Condition under which an edge is taken: a variable polarity, or a
    literal when var is None."""

    var: str | None
    value: bool

    def negation(self) -> "Guard":
        return Guard(self.var, not self.value)


GUARD_TRUE = Guard(None, True)
GUARD_FALSE = Guard(None, False)


def format_guard(g: Guard) -> str:
    if g.var is None:
        return "TRUE" if g.value else "FALSE"
    return ("T:" if g.value else "F:") + g.var


def parse_guard(text: str) -> Guard:
    if text == "TRUE":
        return GUARD_TRUE
    if text == "FALSE":
        return GUARD_FALSE
    if text.startswith("T:") and len(text) > 2:
        return Guard(text[2:], True)
    if text.startswith("F:") and len(text) > 2:
        return Guard(text[2:], False)
    raise ModelFormatError(f"malformed guard {text!r}")


@dataclass(frozen=True)
class Literal:
    text: str


@dataclass(frozen=True)
class Var:
    name: str


Part = Literal | Var


@dataclass(frozen=True)
class LoggingStatement:
    level: str
    parts: tuple[Part, ...]
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"bad log level {self.level!r}")
        if not self.parts:
            raise ValueError("logging statement needs at least one part")


@dataclass(frozen=True)
class LogEvent:
    event_id: EventId
    level: str
    template: str
    # provenance; not part of the on-disk dataset, so excluded from equality
    origin: tuple[MethodId, ActivityId] | None = field(default=None, compare=False)


# ── Activities ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class Entry:
    pass


@dataclass(frozen=True)
class Exit:
    pass


@dataclass(frozen=True)
class Log:
    stmt: LoggingStatement


@dataclass(frozen=True)
class Call:
    callees: tuple[MethodId, ...] = ()  # >1 encodes ambiguous dispatch
    external: str | None = None         # external logging API name

    def __post_init__(self):
        if len(self.callees) > 1:
            object.__setattr__(self, "callees", tuple(sorted(set(self.callees))))


@dataclass(frozen=True)
class AssignAct:
    var: str
    literal: str


@dataclass(frozen=True)
class Branch:
    cond: Guard


Activity = Entry | Exit | Log | Call | AssignAct | Branch

_KIND_NAMES = {
    Entry: "ENTRY", Exit: "EXIT", Log: "LOG",
    Call: "CALL", AssignAct: "ASSIGN", Branch: "BRANCH",
}


# ── Execution graph ──────────────────────────────────────────────────

# each node's edges, as (node, other end, guard) triples
Edges = dict[ActivityId, tuple[tuple[ActivityId, ActivityId, Guard | None], ...]]


@dataclass(frozen=True)
class ExecutionGraph:
    """A method's activities and guarded edges, immutable once built.

    Construction builds, in one pass, the tables that validation and path
    finding read: `entry`, `exit`, `out_edges` (each node's out-edges, the
    triples of `edges` themselves, true guard first; nodes without one are
    absent) and `only_walk`, the single entry-to-exit walk when every node
    on it before EXIT has exactly one out-edge, unguarded, and EXIT has
    none (else None).  Such a graph has no other edge-simple walk from
    entry, the walk is feasible, its nodes are the `reachable` set, and it
    holds no loop head; any other graph's reachable set is built too.
    Construction never raises: a graph without exactly one ENTRY or EXIT
    raises when `entry` or `exit` is read, and reaches no node.  The graph
    holds nothing beyond what its constructor builds: a search derives its
    in-edges and loops itself."""

    nodes: dict[ActivityId, Activity]
    edges: frozenset[tuple[ActivityId, ActivityId, Guard | None]]

    def __post_init__(self):
        nodes, entries, exits = self.nodes, [], []
        for a, act in nodes.items():
            if type(act) is Entry:
                entries.append(a)
            elif type(act) is Exit:
                exits.append(a)
        out: Edges = {}
        for edge in self.edges:
            out[edge[0]] = out.get(edge[0], ()) + (edge,)
        for frm, succ in out.items():
            if len(succ) > 1:
                out[frm] = tuple(sorted(succ, key=_edge_order))
        ends = walk = reach = None
        if len(entries) == len(exits) == 1:
            (entry,), (exit_,) = entries, exits
            ends, node, path = (entry, exit_), entry, [entry]
            for _ in nodes:  # a longer walk cycles and never exits
                succ = out.get(node, ())
                if node == exit_ or len(succ) != 1 or succ[0][2] is not None:
                    break
                node = succ[0][1]
                path.append(node)
            if node == exit_ and exit_ not in out:
                walk = tuple(path)
            else:
                reach = frozenset(sweep(out, [entry]))
        self.__dict__.update(out_edges=out, only_walk=walk, _reach=reach, _ends=ends)

    def _end(self, i: int) -> ActivityId:
        if self._ends is None:  # ENTRY's count is checked first
            for kind in (Entry, Exit):
                found = sum(type(act) is kind for act in self.nodes.values())
                if found != 1:
                    raise ModelFormatError(f"execution graph must have exactly one "
                                           f"{_KIND_NAMES[kind]} node, found {found}")
        return self._ends[i]

    @property
    def reachable(self) -> frozenset[ActivityId]:
        # a straight graph keeps no set of its walk's nodes: one per method adds up
        return frozenset(self.only_walk or ()) if self._reach is None else self._reach

    @property
    def entry(self) -> ActivityId:
        return self._end(0)

    @property
    def exit(self) -> ActivityId:
        return self._end(1)


def _edge_order(edge: tuple[ActivityId, ActivityId, Guard | None]):
    _, to, g = edge
    return (0 if (g is not None and g.value) else 1, to, format_guard(g) if g else "")


def sweep(edges: Edges, starts, seen: set[ActivityId] | None = None) -> set[ActivityId]:
    """`seen` (empty by default) grown by `starts` and every node they
    reach along `edges`, a map from each node to its (node, successor,
    label) triples such as `out_edges` or `in_edges(graph)`, without
    passing through a node already in `seen`."""
    seen = set() if seen is None else seen
    work = [n for n in starts if n not in seen]
    seen.update(work)
    while work:
        for _, m, _ in edges.get(work.pop(), ()):
            if m not in seen:
                seen.add(m)
                work.append(m)
    return seen


def strong_components(edges: Edges, starts) -> tuple[
        list[list[ActivityId]], list[tuple[ActivityId, ActivityId]]]:
    """Tarjan's strongly connected components of `starts` and the nodes
    they reach along `edges`, a triple map like `sweep` takes, by one
    depth-first search from each start not yet reached, in order.

    Returns the components, each listed when the search closes it, so
    every edge leads to a component listed no later; and the search's
    back edges (u, v), those whose v is on the search path when u's edge
    to it is met, in the order met.  Every cycle holds one, and a
    self-edge is one."""
    order: dict[ActivityId, int] = {}  # preorder number of every node seen
    low: dict[ActivityId, int] = {}  # nodes whose component is still open -> low-link
    open_nodes: list[ActivityId] = []  # Tarjan's stack: the nodes of open components
    on_path: set[ActivityId] = set()
    components: list[list[ActivityId]] = []
    back: list[tuple[ActivityId, ActivityId]] = []
    for start in starts:
        if start in order:
            continue
        order[start] = low[start] = len(order)
        on_path.add(start)
        open_nodes.append(start)
        stack = [(start, iter(edges.get(start, ())))]
        while stack:
            node, it = stack[-1]
            for _, to, _ in it:
                if to not in order:
                    order[to] = low[to] = len(order)
                    on_path.add(to)
                    open_nodes.append(to)
                    stack.append((to, iter(edges.get(to, ()))))
                    break
                if to in low:  # in an open component: the same as `node`'s
                    if to in on_path:
                        back.append((node, to))
                    if order[to] < low[node]:
                        low[node] = order[to]
            else:
                stack.pop()
                on_path.discard(node)
                if low[node] == order[node]:  # the root of a component: close it
                    members, member = [], None
                    while member != node:
                        member = open_nodes.pop()
                        del low[member]
                        members.append(member)
                    components.append(members)
                elif low[node] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[node]
    return components, back


def in_edges(graph: ExecutionGraph) -> Edges:
    """Each node's in-edges reversed, as (node, source, guard), in no
    fixed order; nodes without in-edges are absent."""
    into: dict[ActivityId, list[tuple[ActivityId, ActivityId, Guard | None]]] = {}
    for frm, to, g in graph.edges:
        into.setdefault(to, []).append((to, frm, g))
    return {to: tuple(pred) for to, pred in into.items()}


def natural_loops(graph: ExecutionGraph, preds) -> tuple[
        dict[ActivityId, set[ActivityId]], set[ActivityId]]:
    """Per loop head, its natural loop: the head plus everything that
    reaches one of its back-edge sources without passing through it, read
    backwards along `preds`, the graph's `in_edges`; and the set of nodes
    reachable from entry that lie on a cycle.

    A loop head is a branch that dominates the source of one of its
    in-edges (the edge is then a back edge).  Such an edge returns to a
    node on the path of any depth-first search from entry, so the
    candidates are the back edges of `strong_components`' search from
    entry that lead to a branch; a candidate head dominates a source
    exactly when entry cannot reach the source once the head is removed.
    Heads are derived, never recorded per `while`, so a loop that cannot
    cycle (unreachable, or a body that always returns) is a plain branch.
    The same search's components give the cycle nodes: a node lies on a
    cycle when its component has another node or it has an edge to
    itself, which is a back edge.  That holds for irreducible cycles too,
    which have no head.  Time is linear per candidate head and memory
    holds one body set per head, so time is quadratic in the graph for
    many loops in sequence, and time and memory both are for deeply
    nested loops."""
    entry = graph.entry
    succ = graph.out_edges
    components, back = strong_components(succ, [entry])
    cyclic = {u for u, v in back if u == v}
    for members in components:
        if len(members) > 1:
            cyclic.update(members)
    candidates: dict[ActivityId, list[ActivityId]] = {}  # head -> sources
    for u, v in back:
        if isinstance(graph.nodes.get(v), Branch):
            candidates.setdefault(v, []).append(u)

    loops = {}
    for head in sorted(candidates):
        alive = sweep(succ, [entry], {head})
        alive.discard(head)
        sources = [u for u in candidates[head] if u not in alive]
        if sources:
            loops[head] = sweep(preds, sources, {head})
    return loops, cyclic


# ── Methods and the whole-program model ──────────────────────────────

@dataclass
class MethodNode:
    id: MethodId
    name: str
    cfg: ExecutionGraph


@dataclass
class ProgramModel:
    methods: dict[MethodId, MethodNode]
    components: dict[MethodId, str] = field(default_factory=dict)
    # sha256 of the canonical text `loads_model` built this model from;
    # None for any other model.  Editing a loaded model makes it stale.
    text_sha256: str | None = field(default=None, init=False, compare=False, repr=False)

    def method_by_name(self, name: str) -> MethodNode:
        for m in self.methods.values():
            if m.name == name:
                return m
        raise KeyError(name)

    def statements(self) -> list[tuple[MethodId, ActivityId, LoggingStatement]]:
        """All logging statements in canonical (method, activity) order."""
        out = []
        for mid in sorted(self.methods):
            cfg = self.methods[mid].cfg
            for aid in sorted(cfg.nodes):
                act = cfg.nodes[aid]
                if isinstance(act, Log):
                    out.append((mid, aid, act.stmt))
        return out


_COMPONENT_OK = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
)


def validate_model(model: ProgramModel) -> None:
    """Check every structural invariant; raise ModelFormatError naming the
    offending record otherwise."""
    mids = sorted(model.methods)
    if mids != list(range(len(mids))):
        raise ModelFormatError(f"method ids must be dense 0..N-1, got {mids}")
    names: set[str] = set()
    bad_call = None  # the first CALL fault's message, raised after the component checks
    for mid, m in model.methods.items():
        if m.id != mid:
            raise ModelFormatError(f"method {mid} carries mismatched id {m.id}")
        if not m.name or m.name in names:
            raise ModelFormatError(f"method {mid}: missing or duplicate name {m.name!r}")
        if "," in m.name:  # a dataset's entry column and entries= list split on ","
            raise ModelFormatError(f"method {mid}: name {m.name!r} holds a comma")
        names.add(m.name)
        bad_call = _validate_cfg(mid, m.cfg, model.methods, bad_call)
    for mid, comp in model.components.items():
        if mid not in model.methods:
            raise ModelFormatError(f"component entry for missing method id {mid}")
        if not comp or any(c not in _COMPONENT_OK for c in comp):
            raise ModelFormatError(f"method {mid}: invalid component name {comp!r}")
    if bad_call:
        raise ModelFormatError(bad_call)


def _validate_cfg(mid: MethodId, cfg: ExecutionGraph, methods, bad_call: str | None) -> str | None:
    """Raise at the first fault of `cfg`'s structure; return `bad_call`, or
    when it is None, the message of `cfg`'s first CALL fault, if any."""
    where = f"method {mid}"
    entry, exit_ = cfg.entry, cfg.exit
    for frm, to, guard in cfg.edges:
        if frm not in cfg.nodes or to not in cfg.nodes:
            raise ModelFormatError(f"{where}: edge {frm}->{to} references missing activity")
        if guard is not None and not isinstance(cfg.nodes[frm], Branch):
            raise ModelFormatError(
                f"{where}: guarded edge {frm}->{to} leaves a non-branch activity"
            )
    succ = cfg.out_edges
    for aid, act in cfg.nodes.items():
        if isinstance(act, Branch):
            out = succ.get(aid, ())
            if len(out) != 2 or any(g is None for _, _, g in out):
                raise ModelFormatError(
                    f"{where}: branch {aid} must have exactly 2 guarded out-edges"
                )
            (g1, g2) = (out[0][2], out[1][2])
            if g1 != g2.negation():
                raise ModelFormatError(
                    f"{where}: branch {aid} out-guards are not complementary"
                )
            if act.cond not in (g1, g2):
                raise ModelFormatError(
                    f"{where}: branch {aid} condition does not match its out-guards"
                )
        elif isinstance(act, Exit):
            if aid in succ:
                raise ModelFormatError(f"{where}: EXIT activity {aid} has out-edges")
        elif isinstance(act, Call) and bad_call is None:
            if act.external is not None and act.callees:
                bad_call = f"method {mid} activity {aid}: CALL cannot be both external and internal"
            for callee in act.callees:
                if callee not in methods and bad_call is None:
                    bad_call = f"call edge to missing method id {callee}"
    if cfg.only_walk is None and exit_ not in cfg.reachable:  # an only walk ends at EXIT
        raise ModelFormatError(f"{where}: EXIT not reachable from ENTRY")
    if entry == exit_:  # pragma: no cover - impossible by construction
        raise ModelFormatError(f"{where}: ENTRY and EXIT coincide")
    return bad_call


# ── Serialization ────────────────────────────────────────────────────

def _escape_text(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("|", "\\|")
            .replace("\n", "\\n").replace("\r", "\\r"))


_ESCAPES = {"\\": "\\", "|": "|", "n": "\n", "r": "\r"}
_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
# one field: anything but '|' or a backslash, or a backslash and the
# character after it; a backslash that ends the payload ends its field
_FIELD = re.compile(r"(?:[^\\|]|\\.)*\\?", re.DOTALL)


def _unescape(m: re.Match) -> str:
    esc = m.group(1)
    if esc in _ESCAPES:
        return _ESCAPES[esc]
    if not esc:
        raise ModelFormatError(f"dangling escape in {m.string!r}")
    raise ModelFormatError(f"invalid escape '\\{esc}' in {m.string!r}")


def _unescape_text(text: str) -> str:
    return _ESCAPE.sub(_unescape, text) if "\\" in text else text


def _split_parts(payload: str) -> list[str]:
    """Split on unescaped '|' separators."""
    if "\\" not in payload:
        return payload.split("|")
    fields: list[str] = []
    at = 0
    while True:
        end = _FIELD.match(payload, at).end()
        fields.append(payload[at:end])
        if end == len(payload):
            return fields
        at = end + 1


def _format_activity(act: Activity) -> str:
    if isinstance(act, Entry):
        return "ENTRY"
    if isinstance(act, Exit):
        return "EXIT"
    if isinstance(act, Log):
        parts = "|".join(
            f"L:{_escape_text(p.text)}" if isinstance(p, Literal) else f"V:{p.name}"
            for p in act.stmt.parts
        )
        return f"LOG {act.stmt.level}|{parts}"
    if isinstance(act, Call):
        return f"CALL {act.external}" if act.external is not None else "CALL"
    if isinstance(act, AssignAct):
        return f"ASSIGN {act.var}|{_escape_text(act.literal)}"
    if isinstance(act, Branch):
        return f"BRANCH {format_guard(act.cond)}"
    raise TypeError(f"unknown activity {act!r}")  # pragma: no cover


def dumps_model(model: ProgramModel) -> str:
    """Serialize to the model-file text; byte-identical for equal models."""
    lines: list[str] = []
    for mid in sorted(model.methods):
        m = model.methods[mid]
        comp = model.components.get(mid)
        lines.append(f"M {mid} {m.name} {comp}" if comp else f"M {mid} {m.name}")
    # C records go last but are gathered in this one pass over the activities
    calls: list[str] = []
    for mid in sorted(model.methods):
        nodes = model.methods[mid].cfg.nodes
        for aid in sorted(nodes):
            act = nodes[aid]
            lines.append(f"A {mid} {aid} {_format_activity(act)}")
            if type(act) is Call:
                for callee in act.callees:
                    calls.append(f"C {mid} {aid} {callee}")
    for mid in sorted(model.methods):
        cfg = model.methods[mid].cfg
        for frm, to, guard in sorted(
            cfg.edges, key=lambda e: (e[0], e[1], format_guard(e[2]) if e[2] else "")
        ):
            if guard is None:
                lines.append(f"E {mid} {frm} {to}")
            else:
                lines.append(f"E {mid} {frm} {to} {format_guard(guard)}")
    lines.extend(calls)
    return "\n".join(lines) + "\n"


# A newline not followed by a line that dumps_model could write: fields
# joined by single spaces, ids as `str(int)` writes them, a payload only
# after a kind that takes one, starting with no whitespace and ending in
# no \r.  Searched in "\n" + text, every line follows a newline.
_ID = r"(?:0|-?[1-9][0-9]*)"
_NOT_CANONICAL = re.compile(
    rf"\n(?!(?:M {_ID} \S+(?: \S+)?"
    rf"|A {_ID} {_ID} (?:ENTRY|EXIT|CALL|(?:CALL|LOG|ASSIGN|BRANCH) \S(?:.*[^\r\n])?)"
    rf"|E {_ID} {_ID} {_ID}(?: \S+)?"
    rf"|C {_ID} {_ID} {_ID})$)",
    re.M,
)


def _is_canonical(text: str, model: ProgramModel) -> bool:
    """Whether `text`, whose records `loads_model` read in key order and
    loaded as `model`, is what `dumps_model(model)` writes."""
    if text == "\n":  # the empty model
        return True
    if not text.endswith("\n") or _NOT_CANONICAL.search("\n" + text, 0, len(text)):
        return False
    if "\r" not in text:
        return True
    # a carriage return may stand raw in a variable name, but dumps_model
    # escapes one in a literal, where no line pattern can tell it apart
    for m in model.methods.values():
        for act in m.cfg.nodes.values():
            if (type(act) is AssignAct and "\r" in act.literal
                    or type(act) is Log and any(type(p) is Literal and "\r" in p.text
                                                for p in act.stmt.parts)):
                return False
    return True


def model_sha256(model: ProgramModel) -> str:
    """The sha256 hex digest of `dumps_model(model)`: the digest that
    `loads_model` recorded from a canonical text, else one computed from a
    dump and not kept, because a ProgramModel is mutable."""
    if model.text_sha256 is not None:
        return model.text_sha256
    return hashlib.sha256(dumps_model(model).encode()).hexdigest()


def save_model(model: ProgramModel, path) -> None:
    validate_model(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(model))


def _int_error(lineno: int, *fields: tuple[str, str]) -> ModelFormatError:
    """The error for the first (what, token) field that `int` rejects."""
    for what, token in fields:
        try:
            int(token)
        except ValueError:
            return ModelFormatError(f"line {lineno}: {what} must be an integer, got {token!r}")
    raise AssertionError("every field is an integer")  # pragma: no cover


def _log_activity(payload: str | None, mid: MethodId, aid: ActivityId) -> Log:
    if payload is None:
        raise ModelFormatError(f"method {mid} activity {aid}: LOG needs a payload")
    fields = _split_parts(payload)
    level = fields[0]
    if level not in LEVELS or len(fields) < 2:
        raise ModelFormatError(f"method {mid} activity {aid}: malformed LOG payload {payload!r}")
    parts: list[Part] = []
    for f in fields[1:]:
        if f.startswith("L:"):
            parts.append(Literal(_unescape_text(f[2:])))
        elif f.startswith("V:") and len(f) > 2:
            parts.append(Var(f[2:]))
        else:
            raise ModelFormatError(f"method {mid} activity {aid}: malformed LOG part {f!r}")
    return Log(LoggingStatement(level, tuple(parts)))


def _assign_activity(payload: str | None, mid: MethodId, aid: ActivityId) -> AssignAct:
    if payload is None:
        raise ModelFormatError(f"method {mid} activity {aid}: ASSIGN needs a payload")
    fields = _split_parts(payload)
    if len(fields) != 2 or not fields[0]:
        raise ModelFormatError(
            f"method {mid} activity {aid}: malformed ASSIGN payload {payload!r}")
    return AssignAct(fields[0], _unescape_text(fields[1]))


_RECORD_RANK = {"M": 0, "A": 1, "E": 2, "C": 3}
_ENTRY, _EXIT, _CALL = Entry(), Exit(), Call()  # immutable, so loads share them


def loads_model(text: str) -> ProgramModel:
    """Parse model-file text in one pass and validate all invariants.

    When `text` is canonical, byte for byte what `dumps_model` writes for
    the model, its sha256 is recorded as the model's `text_sha256`: each
    record kind's keys strictly ascend (checked as the records are read)
    and `_NOT_CANONICAL` finds no line that `dumps_model` could not write."""
    names: dict[MethodId, str] = {}
    components: dict[MethodId, str] = {}
    nodes_of: dict[MethodId, dict[ActivityId, Activity]] = {}
    edges_of: dict[MethodId, set[tuple[ActivityId, ActivityId, Guard | None]]] = {}
    callees_at: dict[tuple[MethodId, ActivityId], set[MethodId]] = {}
    tag_now, rank_now = "", -1
    last: tuple = ()  # the key of the last record of kind tag_now
    ordered = True    # every kind's keys strictly ascend, as dumps_model writes them

    for lineno, line in enumerate(text.split("\n"), start=1):
        toks = line.split(None, 4)  # splits off a trailing \r, except in a payload
        if not toks:
            continue
        tag = toks[0]
        if tag != tag_now:
            if tag[0] == "#":
                continue
            rank = _RECORD_RANK.get(tag)
            if rank is None:
                raise ModelFormatError(f"line {lineno}: unknown record type {tag!r}")
            if rank < rank_now:
                raise ModelFormatError(
                    f"line {lineno}: {tag} record out of order (expected all M, then A, then E, then C)"
                )
            tag_now, rank_now, last = tag, rank, ()

        if tag == "A":
            if len(toks) < 4:
                raise ModelFormatError(f"line {lineno}: malformed A record")
            try:
                mid, aid = int(toks[1]), int(toks[2])
            except ValueError:
                raise _int_error(lineno, ("method id", toks[1]), ("activity id", toks[2])) from None
            nodes = nodes_of.get(mid)
            if nodes is None:
                raise ModelFormatError(f"line {lineno}: activity for missing method id {mid}")
            if aid in nodes:
                raise ModelFormatError(f"line {lineno}: duplicate activity id {aid} in method {mid}")
            kind = toks[3]
            payload = toks[4].rstrip("\r") if len(toks) == 5 else None
            if kind == "LOG":
                nodes[aid] = _log_activity(payload, mid, aid)
            elif kind == "CALL":  # its callees come with the C records
                nodes[aid] = _CALL if payload is None else Call(external=payload)
            elif kind == "ASSIGN":
                nodes[aid] = _assign_activity(payload, mid, aid)
            elif kind == "BRANCH":
                if payload is None:
                    raise ModelFormatError(f"method {mid} activity {aid}: BRANCH needs a payload")
                nodes[aid] = Branch(parse_guard(payload))
            elif kind == "ENTRY":
                nodes[aid] = _ENTRY
            elif kind == "EXIT":
                nodes[aid] = _EXIT
            else:
                raise ModelFormatError(f"line {lineno}: unknown activity kind {kind!r}")
            key = (mid, aid)
        elif tag == "E":
            rest = toks[4].split() if len(toks) == 5 else ()
            if len(toks) < 4 or len(rest) > 1:
                raise ModelFormatError(f"line {lineno}: malformed E record")
            guard_text = rest[0] if rest else ""
            try:
                mid, frm, to = int(toks[1]), int(toks[2]), int(toks[3])
            except ValueError:
                raise _int_error(lineno, ("method id", toks[1]), ("edge source", toks[2]),
                                 ("edge target", toks[3])) from None
            edges = edges_of.get(mid)
            if edges is None:
                raise ModelFormatError(f"line {lineno}: edge for missing method id {mid}")
            try:
                guard = parse_guard(guard_text) if guard_text else None
            except ModelFormatError as exc:
                raise ModelFormatError(f"line {lineno}: {exc}") from None
            edges.add((frm, to, guard))
            key = (mid, frm, to, guard_text)
        elif tag == "M":
            if len(toks) not in (3, 4):
                raise ModelFormatError(f"line {lineno}: malformed M record")
            try:
                mid = int(toks[1])
            except ValueError:
                raise _int_error(lineno, ("method id", toks[1])) from None
            if mid in names:
                raise ModelFormatError(f"line {lineno}: duplicate method id {mid}")
            names[mid] = toks[2]
            if len(toks) == 4:
                components[mid] = toks[3]
            nodes_of[mid] = {}
            edges_of[mid] = set()
            key = (mid,)
        else:  # C
            if len(toks) != 4:
                raise ModelFormatError(f"line {lineno}: malformed C record")
            try:
                caller, site, callee = int(toks[1]), int(toks[2]), int(toks[3])
            except ValueError:
                raise _int_error(lineno, ("caller id", toks[1]), ("site activity id", toks[2]),
                                 ("callee id", toks[3])) from None
            nodes = nodes_of.get(caller)
            if nodes is None:
                raise ModelFormatError(f"call edge from missing method id {caller}")
            if callee not in nodes_of:
                raise ModelFormatError(f"call edge to missing method id {callee}")
            if type(nodes.get(site)) is not Call:
                raise ModelFormatError(
                    f"call edge {caller}->{callee}: site {site} is not a CALL activity"
                )
            callees_at.setdefault((caller, site), set()).add(callee)
            key = (caller, site, callee)
        if ordered:
            ordered = key > last
        last = key

    for (caller, site), callees in callees_at.items():
        nodes = nodes_of[caller]
        nodes[site] = Call(tuple(callees), nodes[site].external)
    methods: dict[MethodId, MethodNode] = {}
    for mid in sorted(names):
        # analysis reads activities in dict order, which the file's record order must not set
        nodes = nodes_of[mid] if ordered else dict(sorted(nodes_of[mid].items()))
        methods[mid] = MethodNode(mid, names[mid], ExecutionGraph(nodes, frozenset(edges_of[mid])))
    model = ProgramModel(methods, components)
    validate_model(model)
    if ordered and _is_canonical(text, model):
        try:
            model.text_sha256 = hashlib.sha256(text.encode()).hexdigest()
        except UnicodeEncodeError:  # a lone surrogate, which no file holds
            pass
    return model


def load_model(path) -> ProgramModel:
    with utf8_errors(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    return loads_model(text)
