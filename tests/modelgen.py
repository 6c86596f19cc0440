"""Seeded generators for synthetic programs and models used across the
test suite.  Everything is a pure function of the RNG passed in, so
every test case is reproducible from its seed.
"""

from __future__ import annotations

import random

from logsynth.lowering import lower_to_model
from logsynth.minilang import SourceUnit, parse_unit
from logsynth.model import (
    Call,
    Entry,
    ExecutionGraph,
    Exit,
    Literal,
    Log,
    LoggingStatement,
    MethodNode,
    ProgramModel,
    validate_model,
)

LEVELS = ("info", "warn", "error")


# ── Flat models with a rich call structure (pruning / SCC fuzz) ──────

def call_graph_model(rng: random.Random, n_nodes: int,
                     avg_out: float = 1.5, log_fraction: float = 0.15,
                     allow_self: bool = True) -> ProgramModel:
    """A model of n trivial methods whose bodies are straight-line call
    chains; edges (including cycles) are drawn at random."""
    calls: list[list[int]] = []
    logs: list[bool] = []
    for mid in range(n_nodes):
        k = 0
        while rng.random() < avg_out / (avg_out + 1):
            k += 1
            if k >= 5:
                break
        targets = []
        for _ in range(k):
            t = rng.randrange(n_nodes)
            if t == mid and not allow_self:
                continue
            targets.append(t)
        calls.append(targets)
        logs.append(rng.random() < log_fraction)

    methods: dict[int, MethodNode] = {}
    stmt_no = 0
    for mid in range(n_nodes):
        nodes: dict[int, object] = {0: Entry()}
        edges = set()
        prev = 0
        aid = 1
        for target in calls[mid]:
            nodes[aid] = Call(callees=(target,))
            edges.add((prev, aid, None))
            prev = aid
            aid += 1
        if logs[mid]:
            nodes[aid] = Log(LoggingStatement(rng.choice(LEVELS),
                                              (Literal(f"event {stmt_no}"),)))
            stmt_no += 1
            edges.add((prev, aid, None))
            prev = aid
            aid += 1
        nodes[aid] = Exit()
        edges.add((prev, aid, None))
        cfg = ExecutionGraph(nodes=nodes, edges=frozenset(edges))
        methods[mid] = MethodNode(id=mid, name=f"m{mid}", cfg=cfg)
    model = ProgramModel(methods=methods)
    validate_model(model)
    return model


# ── Structured random MiniLang programs ──────────────────────────────

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


def structured_method_program(rng: random.Random, branch_budget: int,
                              var_pool_size: int = 4,
                              ensure_log: bool = False) -> str:
    """Source for one fuzz method named `main` plus helper callees that
    exercise every pruning class: a logging leaf, a log-inducing
    middleman, and a helper that gets pruned."""
    var_pool = [f"c{i}" for i in range(var_pool_size)]
    gen = _BodyGen(rng, branch_budget, var_pool,
                   ["hlog", "hind", "hplain"])
    body: list[str] = []
    gen.block(0, body, "    ")
    if ensure_log:
        body.append('    log(info, "trailer");')
    return "\n".join([
        "void main() {",
        *body,
        "}",
        'void hlog() { log(warn, "helper alert"); }',
        "void hind() { hlog(); }",
        "void hplain() { x = \"quiet\"; }",
    ])


def structured_program(rng: random.Random, n_methods: int,
                       branch_budget_each: int = 3) -> str:
    """A multi-method structured program where any method may call any
    other; used for scale and determinism tests."""
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


def with_ambiguous_calls(model: ProgramModel, rng: random.Random) -> ProgramModel:
    """`model` with about half of its call sites given a second, different
    callee (ambiguous dispatch)."""
    methods = dict(model.methods)
    for mid, method in model.methods.items():
        nodes = dict(method.cfg.nodes)
        for aid, act in method.cfg.nodes.items():
            if isinstance(act, Call) and act.callees and rng.random() < 0.5:
                other = rng.choice([m for m in model.methods if m not in act.callees])
                nodes[aid] = Call(callees=act.callees + (other,))
        methods[mid] = MethodNode(id=mid, name=method.name,
                                  cfg=ExecutionGraph(nodes=nodes, edges=method.cfg.edges))
    out = ProgramModel(methods=methods, components=dict(model.components))
    validate_model(out)
    return out


def parse_program(source: str) -> ProgramModel:
    return lower_to_model(parse_unit(SourceUnit("fuzz.mlog", source)))


# ── Deterministic layered model for throughput runs ──────────────────

def layered_model_source(n_methods: int = 500, fanout: int = 3,
                         seed: int = 20240501) -> str:
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


# ── Model-file text for hand-written inputs ──────────────────────────

def minimal_model_text() -> str:
    return "\n".join([
        "# one method, entry straight to exit",
        "M 0 solo",
        "A 0 0 ENTRY",
        "A 0 1 EXIT",
        "E 0 0 1",
    ]) + "\n"
