"""Seeded MiniLang generators, annotation rules and the workload table.

The generators are the benchmark's own copies, so that editing the test
suite's generators can never silently change a workload.  Each one takes
the workload seed as an argument and is a pure function of it: the shape
(method counts, depths, branch counts) is fixed, the seed only decides
details such as which methods log, which chains alert and which names a
log line prints.  Fixed shapes keep the cost of a run nearly the same on
every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from logsynth.pathfinding import LogStep

LEVELS = ("info", "warn", "error")


# ── Copies of the test-suite generators ──────────────────────────────

class _BodyGen:
    def __init__(self, rng: random.Random, branch_budget: int,
                 var_pool: list[str], callees: list[str],
                 allow_return: bool = True):
        self.rng = rng
        self.branches_left = branch_budget
        self.vars = var_pool
        self.callees = callees
        self.allow_return = allow_return

    def cond(self) -> str:
        r = self.rng.random()
        if r < 0.06:
            return "true"
        if r < 0.10:
            return "false"
        neg = "!" if self.rng.random() < 0.3 else ""
        return neg + self.rng.choice(self.vars)

    def stmt(self, depth: int, out: list[str], pad: str) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.30:
            n_parts = rng.randint(1, 2)
            parts = []
            for _ in range(n_parts):
                if rng.random() < 0.6:
                    parts.append(f'"msg {rng.randrange(1000)} "')
                else:
                    parts.append(rng.choice(self.vars))
            out.append(f"{pad}log({rng.choice(LEVELS)}, {' + '.join(parts)});")
        elif roll < 0.42 and self.callees:
            out.append(f"{pad}{rng.choice(self.callees)}();")
        elif roll < 0.52:
            out.append(f'{pad}{rng.choice(self.vars)} = "v{rng.randrange(50)}";')
        elif roll < 0.56 and self.allow_return and depth > 0:
            out.append(f"{pad}return;")
        elif roll < 0.80 and self.branches_left > 0 and depth < 4:
            self.branches_left -= 1
            out.append(f"{pad}if ({self.cond()}) {{")
            self.block(depth + 1, out, pad + "    ")
            if rng.random() < 0.5:
                out.append(f"{pad}}} else {{")
                self.block(depth + 1, out, pad + "    ")
            out.append(f"{pad}}}")
        elif self.branches_left > 0 and depth < 4:
            self.branches_left -= 1
            out.append(f"{pad}while ({self.cond()}) {{")
            self.block(depth + 1, out, pad + "    ")
            out.append(f"{pad}}}")
        else:
            out.append(f"{pad}log({rng.choice(LEVELS)}, \"fallback\");")

    def block(self, depth: int, out: list[str], pad: str) -> None:
        for _ in range(self.rng.randint(1, 3)):
            self.stmt(depth, out, pad)


def structured_program(seed: int, n_methods: int,
                       branch_budget_each: int = 3) -> str:
    """A multi-method structured program where any method may call any
    other (so it has recursion cycles and many entries)."""
    rng = random.Random(seed)
    names = [f"m{i}" for i in range(n_methods)]
    out: list[str] = []
    for i, name in enumerate(names):
        callees = [names[j] for j in rng.sample(range(n_methods),
                                                k=min(3, n_methods))
                   if j != i]
        gen = _BodyGen(rng, branch_budget_each, ["a", "b", "c"], callees)
        out.append(f"void {name}() {{")
        body: list[str] = []
        gen.block(0, body, "    ")
        out.extend(body)
        out.append("}")
    return "\n".join(out)


def layered_model_source(seed: int, n_methods: int = 500,
                         fanout: int = 3) -> str:
    """A call DAG of `n_methods` arranged in layers under one entry; most
    leaves log, inner methods log occasionally, the entry loops."""
    rng = random.Random(seed)
    out = [
        "void entry() {",
        "    while (running) {",
        '        log(info, "tick " + t);',
    ]
    first_layer = [i for i in range(1, min(fanout + 1, n_methods))]
    for i in first_layer:
        out.append(f"        m{i}();")
    out += ["    }", "}"]
    for i in range(1, n_methods):
        children = [j for j in range(i * fanout + 1, i * fanout + fanout + 1)
                    if j < n_methods]
        body = []
        if not children or rng.random() < 0.5:
            body.append(f'    log({rng.choice(LEVELS)}, "work unit {i} done");')
        for c in children:
            body.append(f"    m{c}();")
        if not body:
            body.append(f'    log(info, "leaf {i}");')
        out.append(f"void m{i}() {{")
        out.extend(body)
        out.append("}")
    return "\n".join(out)


# ── Benchmark-only generators ────────────────────────────────────────

ALARM = "alarm"  # alerting events on deep chains carry this word
FAULT = "fault"  # alerting events in the wide methods carry this word


CHAIN_LOG_EVERY = 10  # a chain logs at every tenth level
WIDE_BRANCHES = 12    # 2**12 raw paths, the default --max-paths
WIDE_FLAGS = 11       # branches b and b + 11 test the same flag


def chain_source(seed: int, n_chains: int, depth: int, n_alert: int = 0) -> str:
    """`n_chains` independent call chains, each `depth` methods deep.  A
    chain logs every `CHAIN_LOG_EVERY` levels and at its bottom; the
    bottom of `n_alert` chains, chosen by the seed, logs an alarm."""
    rng = random.Random(seed)
    alerting = set(rng.sample(range(n_chains), n_alert))
    out: list[str] = []
    for c in range(n_chains):
        for k in range(depth):
            out.append(f"void c{c}_{k}() {{")
            if k % CHAIN_LOG_EVERY == 0:
                out.append(f'    log(info, "chain {c} level {k} " + '
                           f'v{rng.randrange(4)});')
            if k + 1 < depth:
                out.append(f"    c{c}_{k + 1}();")
            elif c in alerting:
                out.append(f'    log(error, "chain {c} {ALARM} at bottom");')
            else:
                out.append(f'    log({rng.choice(LEVELS[:2])}, '
                           f'"chain {c} bottom reached");')
            out.append("}")
    return "\n".join(out)


def wide_method_source(seed: int) -> str:
    """One method `wide0` of `WIDE_BRANCHES` sequential if/else blocks,
    called from its own entry `entry_w0`.  Every branch logs a variable,
    so the method has 2**WIDE_BRANCHES raw paths.  Branches `b` and
    `b + WIDE_FLAGS` test the same flag, which makes some paths
    infeasible; the first branch's then-arm reassigns its flag, which
    lifts that constraint again on the paths through it.  The else-arm
    of the first branch logs a fault."""
    rng = random.Random(seed)
    out = ["void entry_w0() {", "    wide0();", "}", "void wide0() {",
           f'    x = "{rng.choice(("disk", "net", "cpu"))}";']
    for b in range(WIDE_BRANCHES):
        flag = f"f{b % WIDE_FLAGS}"
        then_var = rng.choice(("x", "y", "z"))
        else_var = rng.choice(("x", "y", "z"))
        out.append(f"    if ({flag}) {{")
        if b == 0:
            out.append(f'        {flag} = "again";')
        out.append(f'        log(info, "w0 b{b} took " + {then_var});')
        out.append("    } else {")
        if b == 0:
            out.append(f'        log(error, "w0 {FAULT} in " + {else_var});')
        else:
            level = rng.choice(LEVELS[:2])
            out.append(f'        log({level}, "w0 b{b} skipped " + {else_var});')
        out.append("    }")
    out.append("}")
    return "\n".join(out)


def straight_source(n_stmts: int) -> str:
    """One straight-line method of `n_stmts` logging statements."""
    body = [f'    log(info, "step {i}");' for i in range(n_stmts)]
    return "\n".join(["void straight() {", *body, "}"])


# ── Annotation rules ─────────────────────────────────────────────────

def annotate(worksheet: str, alerting: set[int], seeds: list[int]) -> str:
    """Mark `alerting` events on their EVT lines and append SEED lines,
    as an annotator would edit an exported worksheet."""
    lines = []
    for line in worksheet.splitlines():
        toks = line.split(None, 2)
        if len(toks) >= 2 and toks[0] == "EVT" and int(toks[1]) in alerting:
            line += " ALERT"
        lines.append(line)
    lines += [f"SEED {pid}" for pid in seeds]
    return "\n".join(lines) + "\n"


def alerting_events(store, word: str) -> set[int]:
    """Events whose template contains `word`."""
    return {eid for eid, ev in store.events.items() if word in ev.template}


def paths_with(store, events: set[int]) -> list[int]:
    """Ids of the paths that log one of `events`, in id order."""
    return [p.id for p in store.all_paths()
            if any(isinstance(s, LogStep) and s.event in events
                   for s in p.steps)]


def no_annotations(store) -> tuple[set[int], list[int]]:
    return set(), []


def every_16th_fault_path(store) -> tuple[set[int], list[int]]:
    alerting = alerting_events(store, FAULT)
    return alerting, paths_with(store, alerting)[::16]


def every_alarm_path(store) -> tuple[set[int], list[int]]:
    alerting = alerting_events(store, ALARM)
    return alerting, paths_with(store, alerting)


# ── Workloads ────────────────────────────────────────────────────────

@dataclass(frozen=True)
class Workload:
    name: str
    source: Callable[[int], str]
    rule: Callable  # store -> (alerting event ids, seed path ids)
    size: int
    anomaly_rate: float
    workers: int
    entries: tuple[str, ...] | None = None  # None: every default entry
    # on this workload alerting events sit only on seed paths, so no
    # normal sequence may contain one
    alerts_only_on_seeds: bool = False


def _branchy(seed: int) -> str:
    return (structured_program(seed, 500, 2) + "\n"
            + wide_method_source(seed))


WORKLOADS = {
    w.name: w for w in (
        Workload("layered-walk", layered_model_source, no_annotations,
                 size=100, anomaly_rate=0.0, workers=1),
        Workload("branchy-analyze", _branchy, every_16th_fault_path,
                 size=300, anomaly_rate=0.05, workers=1,
                 entries=("entry_w0",)),
        Workload("deep-chains",
                 lambda seed: chain_source(seed, 10, 200, n_alert=2),
                 every_alarm_path, size=200, anomaly_rate=0.2, workers=2,
                 alerts_only_on_seeds=True),
    )
}
