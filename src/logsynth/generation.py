"""Phase 3c: emit labeled log sequences by walking the stored paths.

A walk starts at an entry method, picks one of its paths at random, and
runs it on an explicit stack: each call step opens a call, which runs
one of the callee's paths, and closes when that path ends.  Anomaly
walks pick only seed/infected paths until a seed path has been
selected, then anything; normal walks pick only paths from which a
seed-free completion is known to exist.  A pick can still fail deeper
down, when a recursion bound refuses a call or a callee has no
candidate left: the walk then backtracks to the innermost open call,
undoes what that call's last path added, and runs the next path in the
call's drawn order; with no call open, it starts its next root try.  On
an entry admitted by the fixpoints but blocked by the bound it can
backtrack for a long time before raising `ExhaustionError`.  Loop
regions replay 1..max_loop_reps times with fresh choices per
repetition, and calls into recursion cycles are bounded by
max_recursion_depth re-entries.  A walk's call depth is bounded by
memory, not by Python's recursion limit.  Nothing is rebuilt per step:
a path's loop forest is built when a walk first runs it (`Walker.regions`),
and each call, named by its callee and candidate index, is decided the
first time a walk makes it (`Walker.calls`).

A walk tries an entry's root paths, and a callee's candidate paths at
each call step, in a random order.  `_draw_order` draws that order
inline, with the same `getrandbits` calls as `random.Random.sample`
drawing all of them but without its generic set-up per call; a loop
region's repetition count is one `randint`.

A call whose candidates are two or more paths that call nothing needs
only its first pick.  Such a path cannot fail, since log steps and loop
regions never refuse, and a completed call is closed, so the walk never
backtracks into that call's order.  `_draw_first` makes only the first
draw of the full order; the others, which `_draw_rest` makes, cannot
change a choice, so the walk queues them.  The root draw always builds
the full order, because a root try can fail and move on to the next
root.

Most calls leave the walk no choice.  A call is *forced* when its
callee is in no recursion cycle and has exactly one candidate path,
that path has no loop region, and every call on it is forced too.  Such
a call always completes with the same events and trace; all it varies is
how far the RNG advances.  Whether a call is forced is decided the first
time a walk makes it, its callees' calls first, and kept, so set-up work
follows what the walks reach rather than the size of the store.  A walk
takes a forced call in a single step: it appends the subtree's events and
trace, expanded the first time the call is taken and kept, and queues the
subtree's draw count, added to the count of any forced call queued just
before it.  `_skip_draws` makes those draws.  Each draw on one candidate
repeats `getrandbits(1)`, the top bit of one 32-bit Mersenne Twister
word, until that bit is 0, and `getrandbits(32 * c)` returns the next c
words with the first one lowest, so counting the set top bits of a batch
tells how many draws still need a word.

Queued draws are made, in the order they were queued, just before the
walk's next draw (a loop region's `randint`, or a choice call's order or
first pick), so every choice reads the RNG in the state one-by-one draws
leave.  A walk makes what is still queued when it ends, except in a
dataset: nothing reads a sequence's RNG after its walk, so
`generate_dataset` leaves undone the draws after the walk's last read.

Every successful walk records its choice trace (path picks and loop
repetition draws); `replay` re-derives the event list from a trace,
which is how label soundness and walk legality are checked.

Sequence i is generated from its own RNG derived from (seed, i), so no
sequence's walk depends on any other's.  All walks run in this process,
one after another in sequence order.
"""

from __future__ import annotations

import enum
import hashlib
import random
import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path

from .errors import LogsynthError, utf8_errors
from .labeling import AnnotationSet, InfectionMap, Status, dumps_annotations
from .model import EventId, LogEvent, MethodId, ProgramModel, model_sha256
from .pathfinding import CallStep, LogPath, LogStep, PathStore
from .probing import CallGraph
from .pruning import PrunedCallGraph

_ROOT_TRIES = 8  # retries per entry path before giving up on it
_NO_PATHS: tuple[tuple[LogPath, ...], ...] = ((), (), ())  # a method without paths


class ConfigError(LogsynthError):
    pass


class ExhaustionError(LogsynthError):
    """No admissible path choice left anywhere in the walk tree."""


class UnreachableSeedError(ExhaustionError):
    """Anomaly walk requested from an entry that cannot reach any seed."""


class Label(enum.Enum):
    NORMAL = "NORMAL"
    ANOMALY = "ANOMALY"


@dataclass(frozen=True)
class GenParams:
    size: int
    anomaly_rate: float
    component: str | None = None
    entries: tuple[str, ...] | None = None
    seed: int = 0
    max_loop_reps: int = 3
    max_recursion_depth: int = 1
    exact_rate: bool = True

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError("size must be >= 1")
        if self.size > sys.maxsize:
            raise ConfigError(f"size must be <= {sys.maxsize}")
        if not 0.0 <= self.anomaly_rate <= 1.0:
            raise ConfigError("anomaly rate must be within [0, 1]")
        if self.max_loop_reps < 1:
            raise ConfigError("max loop repetitions must be >= 1")
        if self.max_loop_reps > sys.maxsize:
            raise ConfigError(f"max loop repetitions must be <= {sys.maxsize}")
        if self.max_recursion_depth < 0:
            raise ConfigError("max recursion depth must be >= 0")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")


@dataclass(frozen=True)
class LogSequence:
    seq_id: int
    label: Label
    events: tuple[EventId, ...]
    entry: MethodId


@dataclass
class LogDataset:
    sequences: list[LogSequence]
    events: dict[EventId, LogEvent]
    params: GenParams
    traces: dict[int, tuple] | None = field(default=None, compare=False)


# ── The walker ───────────────────────────────────────────────────────

def _draw_order(rng: random.Random, cands: tuple) -> Sequence:
    """`cands` in the order `random.Random.sample` draws all of them, made
    with the same `getrandbits` calls, so `rng` ends where sample leaves it.
    With k == n, sample (CPython 3.10-3.13) takes its pool branch and draws
    each index below m by rejection on m.bit_length() bits; a single
    candidate still costs that one draw, and none costs nothing."""
    getrandbits = rng.getrandbits
    pool = list(cands)
    order = []
    for m in range(len(cands), 0, -1):
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        order.append(pool[j])
        pool[j] = pool[m - 1]
    return order


def _draw_first(rng: random.Random, cands: tuple) -> tuple:
    """`_draw_order(rng, cands)[:1]` as a tuple, from the first draw of
    that order alone; `_draw_rest(rng, len(cands))` makes the others."""
    n = len(cands)
    if not n:
        return ()
    getrandbits = rng.getrandbits
    k = n.bit_length()
    j = getrandbits(k)
    while j >= n:
        j = getrandbits(k)
    return (cands[j],)


def _draw_rest(rng: random.Random, n: int) -> None:
    """The draws of `_draw_order` on n candidates after its first: one
    rejection draw below each m from n-1 down to 1.  They only reject: no
    pool is updated and no order is built.  They go by bit length k, over
    every m in [2**(k-1), top]."""
    getrandbits = rng.getrandbits
    top = n - 1
    while top > 0:
        k = top.bit_length()
        low = 1 << (k - 1)
        for m in range(top, low - 1, -1):
            while getrandbits(k) >= m:
                pass
        top = low - 1


_TOP_BIT = b"\0\0\0\x80"  # the top bit of a little-endian 32-bit word


@lru_cache(maxsize=256)
def _top_bits(count: int) -> int:
    """The top bit of each of `count` 32-bit words, first word lowest."""
    return int.from_bytes(_TOP_BIT * count, "little")


def _skip_draws(rng: random.Random, count: int) -> None:
    """Advance `rng` exactly as `count` successive `_draw_order` calls on
    one candidate each do.  Every word of a batch is one a pending draw
    reads, and each word with its top bit set leaves its draw pending, so
    no round fetches a word the one-by-one draws would not."""
    getrandbits = rng.getrandbits
    while count:
        count = (getrandbits(32 * count) & _top_bits(count)).bit_count()


def _make_queued(rng: random.Random, rest: int, skips: int) -> None:
    """A walk's queued draws, in the order it queued them: the draws after
    its last first pick on `rest` candidates (none when `rest` is 0), then
    `skips` one-candidate draws of the forced calls taken since."""
    if rest:
        _draw_rest(rng, rest)
    if skips:
        _skip_draws(rng, skips)


class _Memo(dict):
    """A dict that fills a missing key with `convert(key)` and keeps it, so
    each distinct key is converted once per table."""

    def __init__(self, convert) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def _loop_forest(path: LogPath) -> tuple:
    """`path`'s steps as a forest in which a loop region is a tuple of its
    nodes and any other node is a step.  Spans close inner first, so a
    closing region takes the top-level nodes from its first step to its
    last, each kept by the step it begins at."""
    steps = path.steps
    if not path.spans:
        return steps
    top = {i: (i, s) for i, s in enumerate(steps)}  # first step -> (last step, node)
    for first, last in path.spans:
        nodes, end = [], first - 1
        while end != last:
            end, node = top.pop(end + 1)
            nodes.append(node)
        top[first] = (last, tuple(nodes))
    return tuple(top[i][1] for i in sorted(top))


class Walker:
    """Shared walk state over the stored paths and infection map.

    Built at construction, for the whole store: `clean_completable`, the
    non-seed paths whose every callee offers such a path, so a normal walk
    through them finishes without touching a seed (computed by
    `PathStore.least_fixpoint`, the mechanism infection propagation
    uses), and `candidates[m]`, method m's admissible paths for a normal
    walk, an anomaly walk before a seed is hit, and one after, in that
    order.

    Decided on first use, for what the walks reach: `forced` maps each
    call decided so far, keyed by (callee, candidate index), to None when
    the call has a choice, and when it is forced to its subtree's draw
    count, whether it hits a seed, the callee's trace record, and its
    plan: the path's event ids and forced child keys.  `calls` holds each
    call's policy by the same key, fixed by `_call` the first time a walk
    makes that call.  `regions` holds each walked path's `_loop_forest` by
    path id, built the first time a walk runs the path.  Entry
    admissibility and recursion cycles are answered per query, from the
    candidates and the call graph."""

    def __init__(self, model: ProgramModel, store: PathStore,
                 infection: InfectionMap, call_graph: CallGraph,
                 params: GenParams):
        self.model = model
        self.store = store
        status = self.status = infection.status
        self.params = params
        self.call_graph = call_graph
        seed, clean = Status.SEED, Status.CLEAN
        fanout = store.fanout.get
        clean_completable = self.clean_completable = store.least_fixpoint({
            p.id: fanout(p.id, 0) for p in store.all_paths()
            if status[p.id] is not seed
        })
        candidates: dict[MethodId, tuple[tuple[LogPath, ...], ...]] = {}
        self.candidates = candidates
        for mid, paths in store.by_method.items():
            if len(paths) == 1:
                path = paths[0]
                one = (path,)
                looping = () if path.skips_loop else one
                candidates[mid] = (
                    one if path.id in clean_completable else (),
                    looping if status[path.id] is not clean else (),
                    looping,
                )
                continue
            looping = tuple(p for p in paths if not p.skips_loop)
            candidates[mid] = (
                tuple(p for p in paths if p.id in clean_completable),
                tuple(p for p in looping if status[p.id] is not clean),
                looping,
            )
        self.forced: dict[tuple[MethodId, int], tuple | None] = {}
        self.calls = _Memo(self._call)
        self.regions = _Memo(lambda pid: _loop_forest(store.path(pid)))

    # entry admissibility per mode
    def normal_entry_ok(self, mid: MethodId) -> bool:
        """Whether a normal walk from `mid` can emit an event: a search
        that starts at `mid`'s clean-completable candidates and follows
        their callees' finds a path with a log step.  That is the least
        set in which a clean-completable path joins when it logs or one of
        its callees owns a member, decided only over what `mid` reaches."""
        candidates = self.candidates
        seen, todo = {mid}, [mid]
        while todo:
            for path in candidates.get(todo.pop(), _NO_PATHS)[0]:
                for step in path.steps:
                    if type(step) is LogStep:
                        return True
                    if step.callee not in seen:
                        seen.add(step.callee)
                        todo.append(step.callee)
        return False

    def anomaly_entry_ok(self, mid: MethodId) -> bool:
        return bool(self.candidates.get(mid, _NO_PATHS)[1])

    def _cycle(self, mid: MethodId) -> int | None:
        """The index in the call graph's `sccs` of the recursion cycle
        `mid` is in, or None."""
        graph = self.call_graph
        return graph.scc_of[mid] if graph.in_cycle(mid) else None

    def walk(self, entry: MethodId, mode: Label, rng: random.Random,
             discard: bool = False) -> tuple[tuple[EventId, ...], tuple]:
        """One complete walk; returns (events, choice trace).  It runs on
        two explicit stacks: `nodes` holds iterators over the regions of
        the paths being run, and `calls` the open calls with a choice.
        Each open call keeps the rest of its drawn order, the (events,
        trace, hit) mark to restore before its next candidate, the
        recursion cycle whose count it raised (or None), and where its
        path sits on `nodes`.  A call step reads its policy from the
        call table `self.calls`.

        The draws whose outcome no choice reads, those after a first
        pick (`rest`) and those of the forced calls taken since (`skips`),
        are queued and made, in order, just before the walk's next draw;
        backtracking and root retries keep them queued.  When the walk
        returns or raises it makes what is still queued, so `rng` ends
        where one-by-one draws leave it, unless `discard` is true: a
        caller that reads `rng` no more after this walk passes it, and the
        draws after the walk's last read are then left undone."""
        anomaly = mode is Label.ANOMALY
        if anomaly and not self.anomaly_entry_ok(entry):
            raise UnreachableSeedError(
                f"no seed is reachable from entry method "
                f"'{self.model.methods[entry].name}'"
            )
        status, seed, call_of, regions = self.status, Status.SEED, self.calls, self.regions
        max_depth = self.params.max_recursion_depth
        max_reps = self.params.max_loop_reps
        randint = rng.randint
        entry_cycle = self._cycle(entry)
        rest = skips = 0  # the queued draws
        for root in _draw_order(rng, self.candidates.get(entry, _NO_PATHS)[anomaly]):
            for _ in range(_ROOT_TRIES):
                events: list[EventId] = []
                trace: list[tuple] = [("ep", entry, root.id)]
                hit = status[root.id] is seed
                # a cyclic entry's walk is inside its cycle already
                active = {} if entry_cycle is None else {entry_cycle: 1}
                nodes = [iter(regions[root.id])]
                calls: list[tuple] = []
                while nodes:
                    for node in nodes[-1]:
                        if type(node) is LogStep:
                            events.append(node.event)
                            continue
                        if type(node) is not CallStep:
                            # loop region: its nodes once per repetition
                            if rest or skips:
                                _make_queued(rng, rest, skips)
                                rest = skips = 0
                            reps = randint(1, max_reps)
                            trace.append(("reps", reps))
                            nodes.append(chain.from_iterable(repeat(node, reps)))
                            break
                        # index 0 normal, 1 anomaly before a seed, 2 after
                        # (normal walks never take a seed path, so their
                        # `hit` stays False)
                        call = call_of[node.callee, anomaly + hit]
                        if len(call) == 4:  # forced: its whole subtree at once
                            skips += call[0]
                            hit = hit or call[1]
                            events += call[2]
                            trace += call[3]
                            continue
                        cands, first_only, scc = call
                        if scc is not None:
                            depth = active.get(scc, 0)
                            if depth > max_depth:
                                break  # refused by the recursion bound
                            active[scc] = depth + 1
                        if rest or skips:
                            _make_queued(rng, rest, skips)
                            rest = skips = 0
                        if first_only:
                            order = _draw_first(rng, cands)
                            rest = len(cands)
                        else:
                            order = _draw_order(rng, cands)
                        calls.append((iter(order), len(events), len(trace), hit,
                                      scc, len(nodes)))
                        break
                    else:
                        nodes.pop()
                        if calls and calls[-1][5] == len(nodes):  # a call completed
                            scc = calls.pop()[4]
                            if scc is not None:
                                active[scc] -= 1
                        continue
                    if type(node) is not CallStep:
                        continue
                    # a call just opened or was refused: run the innermost
                    # open call's next candidate, backtracking past
                    # exhausted calls
                    while calls:
                        order, ev, tr, hit, scc, at = calls[-1]
                        del events[ev:], trace[tr:], nodes[at:]
                        path = next(order, None)
                        if path is not None:
                            hit = hit or status[path.id] is seed
                            trace.append(("ep", path.method, path.id))
                            nodes.append(iter(regions[path.id]))
                            break
                        calls.pop()
                        if scc is not None:
                            active[scc] -= 1
                    else:
                        break  # nothing left to backtrack to: the next try
                else:
                    if events and (hit or not anomaly):
                        if not discard:
                            _make_queued(rng, rest, skips)
                        return tuple(events), tuple(trace)
        if not discard:
            _make_queued(rng, rest, skips)
        raise ExhaustionError(
            f"walk from entry method '{self.model.methods[entry].name}' "
            f"({mode.value}) exhausted every choice"
        )

    def _call(self, key: tuple[MethodId, int]) -> tuple:
        """The policy of a call into `key`'s candidate list.  A forced call
        reads (draw count, seed hit, events, trace records), its subtree
        expanded in walk order on an explicit stack.  Any other call reads
        (its candidates, whether it keeps only its first pick, the
        recursion cycle it enters or None); it keeps only its first pick,
        drawn with `_draw_first`, when the list holds two or more paths,
        none of which calls.  The walk queues the draws of a forced call,
        and those `_draw_rest` makes after a first pick, until its next
        draw."""
        decided = self._forced(key)
        if decided is None:
            callee, index = key
            cands = self.candidates.get(callee, _NO_PATHS)[index]
            return (cands, len(cands) > 1 and not any(p.id in self.store.fanout for p in cands),
                    self._cycle(callee))
        forced = self.forced
        draws, hit, record, plan = decided
        events: list[EventId] = []
        trace = [record]
        stack = [iter(plan)]
        while stack:
            for item in stack[-1]:
                if isinstance(item, tuple):
                    _, _, record, plan = forced[item]
                    trace.append(record)
                    stack.append(iter(plan))
                    break
                events.append(item)
            else:
                stack.pop()
        return draws, hit, tuple(events), tuple(trace)

    def _forced(self, key: tuple[MethodId, int]) -> tuple | None:
        """`forced[key]`, deciding it first if need be.  Each undecided key
        is a `_decide` generator on an explicit stack, which yields each
        undecided child key and is sent the child's entry once that is
        decided and kept.  A callee outside every recursion cycle cannot
        reach itself, so no key waits on itself."""
        forced = self.forced
        if key in forced:
            return forced[key]
        stack = [(key, self._decide(key))]
        sub = None
        while True:
            top, decision = stack[-1]
            try:
                child = decision.send(sub)
            except StopIteration as done:
                sub = forced[top] = done.value
                stack.pop()
                if not stack:
                    return sub
                continue
            stack.append((child, self._decide(child)))
            sub = None

    def _decide(self, key: tuple[MethodId, int]):
        """The `forced` entry of `key`, as a generator for `_forced`: it
        yields each child key not decided yet and is sent that key's
        entry.  The steps are read in order, so a child key's candidate
        index follows the seed hits before it."""
        forced = self.forced
        mid, index = key
        cands = self.candidates.get(mid, _NO_PATHS)[index]
        if len(cands) != 1 or cands[0].spans or self._cycle(mid) is not None:
            return None
        path = cands[0]
        hit = self.status[path.id] is Status.SEED
        at = 2 if hit and index == 1 else index  # the callees' index
        draws, plan = 1, []
        for step in path.steps:
            if type(step) is LogStep:
                plan.append(step.event)
                continue
            child = (step.callee, at)
            sub = forced[child] if child in forced else (yield child)
            if sub is None:  # a call with a choice
                return None
            plan.append(child)
            draws += sub[0]
            if sub[1]:
                hit, at = True, 2 if at == 1 else at
        return draws, hit, ("ep", mid, path.id), tuple(plan)

    # ── replay ───────────────────────────────────────────────────

    def replay(self, entry: MethodId, trace: tuple) -> tuple[EventId, ...]:
        """Re-derive a walk's event list from its recorded choices, on an
        explicit stack of node iterators: a path's nodes for each 'ep'
        record, a loop region's once per repetition of its 'reps' record.
        Raises LogsynthError when the trace is not a legal chaining."""
        records = enumerate(trace)

        def take(kind: str) -> tuple:
            at, record = next(records, (len(trace), None))
            if record is None or record[0] != kind:
                raise LogsynthError(f"trace expected a {kind!r} record at {at}")
            return record

        def nodes_of(mid: MethodId):
            _, rec_mid, pid = take("ep")
            if rec_mid != mid:
                raise LogsynthError(f"trace chose a path of method {rec_mid}, expected {mid}")
            if self.store.path(pid).method != mid:
                raise LogsynthError(f"path {pid} does not belong to method {mid}")
            return iter(self.regions[pid])

        events: list[EventId] = []
        stack = [nodes_of(entry)]
        while stack:
            for node in stack[-1]:
                if type(node) is LogStep:
                    events.append(node.event)
                    continue
                stack.append(nodes_of(node.callee) if type(node) is CallStep
                             else chain.from_iterable(repeat(node, take("reps")[1])))
                break
            else:
                stack.pop()
        if next(records, None) is not None:
            raise LogsynthError("trace has unconsumed choices")
        return tuple(events)


# ── Sequence and dataset generation ──────────────────────────────────

def sequence_rng(seed: int, seq_id: int) -> random.Random:
    return random.Random(f"{seed}/{seq_id}")


def _resolve_entries(params: GenParams, model: ProgramModel,
                     cg_prime: PrunedCallGraph) -> list[MethodId]:
    if params.entries is not None:
        if not params.entries:
            raise ConfigError("entry list is empty")
        out = []
        for name in params.entries:
            try:
                m = model.method_by_name(name)
            except KeyError:
                raise ConfigError(f"unknown entry method '{name}'")
            if m.id not in cg_prime.kept:
                raise ConfigError(
                    f"entry method '{name}' was pruned (it neither logs nor "
                    "reaches a logging method)"
                )
            out.append(m.id)
    elif not cg_prime.kept:
        raise ConfigError("no method logs or reaches a logging method")
    else:
        out = cg_prime.entry_candidates()
        if not out:
            raise ConfigError(
                "no default entry methods (every kept method has callers); "
                "pass explicit entries"
            )
    if params.component is not None:
        out = [m for m in out if model.components.get(m) == params.component]
        if not out:
            raise ConfigError(
                f"no entry method belongs to component '{params.component}'"
            )
    return sorted(set(out))


def _plan_labels(params: GenParams) -> list[Label | None]:
    """Per-sequence labels; None means the sequence's own RNG decides."""
    if not params.exact_rate:
        return [None] * params.size
    anomalies = int(round(params.size * params.anomaly_rate))
    labels: list[Label | None] = (
        [Label.ANOMALY] * anomalies + [Label.NORMAL] * (params.size - anomalies)
    )
    random.Random(f"{params.seed}/labels").shuffle(labels)
    return labels


def generate_dataset(
    params: GenParams,
    model: ProgramModel,
    infection: InfectionMap,
    store: PathStore,
    cg_prime: PrunedCallGraph,
    call_graph: CallGraph,
    workers: int = 1,
    keep_traces: bool = False,
) -> LogDataset:
    """The full dataset: exactly round(size * rate) anomalies in exact-rate
    mode, one independent Bernoulli draw per sequence otherwise.  Output
    is a pure function of (model, annotations, params).  Each successful
    walk's choice trace is kept, by sequence id, only with `keep_traces`.
    `workers` is accepted and ignored: bench/harness.py still passes it."""
    entries = _resolve_entries(params, model, cg_prime)
    walker = Walker(model, store, infection, call_graph, params)
    normal_entries = [m for m in entries if walker.normal_entry_ok(m)]
    anomaly_entries = [m for m in entries if walker.anomaly_entry_ok(m)]

    labels = _plan_labels(params)
    needs_anomaly = params.anomaly_rate > 0
    if params.exact_rate:
        needs_normal = any(lab is Label.NORMAL for lab in labels)
    else:
        needs_normal = params.anomaly_rate < 1.0
    if needs_anomaly and not anomaly_entries:
        raise ConfigError("anomaly rate > 0 but no entry method can reach a seed")
    if params.anomaly_rate == 1.0:
        blocked = [m for m in entries if m not in anomaly_entries]
        if blocked:
            names = ", ".join(model.methods[m].name for m in blocked)
            raise ConfigError(
                f"anomaly rate 1.0 but entries cannot reach a seed: {names}"
            )
    if needs_normal and not normal_entries:
        raise ConfigError("no entry method admits a normal (seed-free) walk")

    sequences: list[LogSequence] = []
    traces: dict[int, tuple] | None = {} if keep_traces else None
    for seq_id, label in enumerate(labels):
        rng = sequence_rng(params.seed, seq_id)
        if label is None:
            label = (Label.ANOMALY if rng.random() < params.anomaly_rate
                     else Label.NORMAL)
        entry = rng.choice(anomaly_entries if label is Label.ANOMALY
                           else normal_entries)
        # nothing reads `rng` after its sequence's walk
        events, trace = walker.walk(entry, label, rng, True)
        sequences.append(LogSequence(seq_id=seq_id, label=label,
                                     events=events, entry=entry))
        if traces is not None:
            traces[seq_id] = trace
    return LogDataset(
        sequences=sequences, events=dict(store.events), params=params,
        traces=traces,
    )


# ── On-disk dataset ──────────────────────────────────────────────────

def _csv_quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


# one templates.csv row, whole and by field: as write_dataset writes it,
# event id, level, and the template in quotes with each '"' doubled, which
# may span lines (a row edited to end in "\r\n" still reads); or else one
# line, whose empty fields fail as an event id
_TEMPLATE_ROW = re.compile(
    r'(([^,\n]*),([^,\n]*),"([^"]*(?:""[^"]*)*)"(?:\r?\n|\Z)|[^\n]*\n|[^\n]+)')


def write_dataset(ds: LogDataset, outdir, model: ProgramModel,
                  ann: AnnotationSet) -> None:
    """sequences.csv, templates.csv, and a manifest; byte-stable for equal
    inputs.  Each distinct event id is rendered as decimal text once per
    call, through an id -> text memo, and every row joins memoized text.
    The manifest's model_sha256 is the digest of the canonical model text:
    the one `loads_model` recorded when it read that text, so a model
    loaded from `analyze`'s model.txt is not serialized again."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    text = _Memo(str).__getitem__
    rows = ["seq_id,label,entry,events"]
    for seq in ds.sequences:
        rows.append(",".join([
            str(seq.seq_id),
            "1" if seq.label is Label.ANOMALY else "0",
            model.methods[seq.entry].name,
            " ".join(map(text, seq.events)),
        ]))
    (out / "sequences.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    rows = ["event_id,level,template"]
    for eid in sorted(ds.events):
        ev = ds.events[eid]
        rows.append(f"{eid},{ev.level},{_csv_quote(ev.template)}")
    (out / "templates.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    from . import __version__

    p = ds.params
    manifest = [
        f"size={p.size}",
        f"anomaly_rate={p.anomaly_rate!r}",
        f"component={p.component or ''}",
        f"entries={','.join(p.entries) if p.entries else ''}",
        f"seed={p.seed}",
        f"max_loop_reps={p.max_loop_reps}",
        f"max_recursion_depth={p.max_recursion_depth}",
        f"exact_rate={int(p.exact_rate)}",
        f"model_sha256={model_sha256(model)}",
        f"annotations_sha256={hashlib.sha256(dumps_annotations(ann).encode()).hexdigest()}",
        f"version={__version__}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def read_dataset(outdir, model: ProgramModel) -> LogDataset:
    """Inverse of write_dataset (manifest hashes are not re-checked).  A
    missing manifest key, or a row that write_dataset could not have
    written, raises a LogsynthError naming the file and line.  Event tokens
    are parsed through a text -> id memo that calls `int` once per
    distinct token, so every token reads, or fails, exactly as `int`
    would read it."""
    out = Path(outdir)
    path = out / "manifest.txt"
    manifest: dict[str, tuple[int, str]] = {}  # key -> (line, value)
    with utf8_errors(path):
        lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, 1):
        if "=" in line:
            key, _, value = line.partition("=")
            manifest[key] = (lineno, value)

    def setting(key: str, parse=str):
        if key not in manifest:
            raise LogsynthError(f"{path}: missing '{key}=' line")
        lineno, value = manifest[key]
        try:
            return parse(value)
        except ValueError:
            raise LogsynthError(f"{path}:{lineno}: invalid {key} {value!r}") from None

    entries = setting("entries")
    params = GenParams(
        size=setting("size", int),
        anomaly_rate=setting("anomaly_rate", float),
        component=setting("component") or None,
        entries=tuple(entries.split(",")) if entries else None,
        seed=setting("seed", int),
        max_loop_reps=setting("max_loop_reps", int),
        max_recursion_depth=setting("max_recursion_depth", int),
        exact_rate=bool(setting("exact_rate", int)),
    )

    names = {m.name: mid for mid, m in model.methods.items()}
    event_id = _Memo(int).__getitem__
    sequences = []
    path = out / "sequences.csv"
    with utf8_errors(path):
        lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, row in enumerate(lines[1:], 2):
        where = f"{path}:{lineno}"
        fields = row.split(",", 3)
        if len(fields) != 4:
            raise LogsynthError(f"{where}: expected seq_id,label,entry,events")
        sid, label, entry_name, events_field = fields
        if label not in ("0", "1"):
            raise LogsynthError(f"{where}: label must be 0 or 1, got {label!r}")
        if entry_name not in names:
            raise LogsynthError(f"{where}: unknown entry method {entry_name!r}")
        try:
            seq_id, events = int(sid), tuple(map(event_id, events_field.split()))
        except ValueError:
            raise LogsynthError(f"{where}: seq_id and events must be integers") from None
        sequences.append(LogSequence(
            seq_id=seq_id,
            label=Label.ANOMALY if label == "1" else Label.NORMAL,
            events=events,
            entry=names[entry_name],
        ))

    events: dict[int, LogEvent] = {}
    path = out / "templates.csv"
    # no newline translation: a line break inside quotes is the template's
    with utf8_errors(path):
        text = path.read_bytes().decode("utf-8")
    header, newline, _ = text.partition("\n")
    start = len(header) + len(newline)
    rows = _TEMPLATE_ROW.findall(text, start)  # they cover the text after the header
    for row in rows:
        _, eid_s, level, quoted = row
        try:
            eid = int(eid_s)
        except ValueError:  # an equal row before this one would have failed first
            at = start + sum(len(r[0]) for r in rows[:rows.index(row)])
            lineno = text.count("\n", 0, at) + 1
            raise LogsynthError(f"{path}:{lineno}: expected event_id,level,template") from None
        events[eid] = LogEvent(eid, level, quoted.replace('""', '"'))
    return LogDataset(sequences=sequences, events=events, params=params)
