"""Lower parsed MiniLang methods to a ProgramModel.

Each method gets an execution graph with one ENTRY node (id 0), one node
per statement in source order, and one EXIT node allocated last.  If and
while statements lower to a single branch node; arms and loop bodies are
wired by edges, so joins are edge merges rather than nodes.  `return`
redirects control to the shared EXIT node and allocates nothing.
"""

from __future__ import annotations

from . import minilang as ml
from .errors import LogsynthError
from .model import (
    AssignAct,
    Branch,
    Call,
    Entry,
    ExecutionGraph,
    Exit,
    Guard,
    Literal,
    Log,
    LoggingStatement,
    MethodNode,
    ProgramModel,
    Var,
    validate_model,
)


class LoweringError(LogsynthError):
    pass


def _guards(cond: ml.Condition) -> tuple[Guard, Guard]:
    """(taken, not-taken) edge guards for a condition."""
    taken = Guard(cond.var, not cond.negated)
    return taken, taken.negation()


class _CfgBuilder:
    def __init__(self, name_to_id: dict[str, int]):
        self.name_to_id = name_to_id
        self.nodes = {0: Entry()}
        self.edges: set[tuple[int, int, Guard | None]] = set()
        self.next_id = 1
        self.returns: list[tuple[int, Guard | None]] = []

    def _add(self, activity) -> int:
        aid = self.next_id
        self.next_id += 1
        self.nodes[aid] = activity
        return aid

    def _connect(self, dangling: list[tuple[int, Guard | None]], target: int) -> None:
        for frm, guard in dangling:
            self.edges.add((frm, target, guard))

    def lower_block(
        self,
        stmts: tuple[ml.Statement, ...],
        incoming: list[tuple[int, Guard | None]],
        method: str,
    ) -> list[tuple[int, Guard | None]]:
        cur = incoming
        for stmt in stmts:
            if isinstance(stmt, ml.Return):
                self.returns.extend(cur)
                cur = []
                continue
            if isinstance(stmt, ml.LogCall):
                parts = tuple(
                    Literal(p.text) if isinstance(p, ml.StrLit) else Var(p.name)
                    for p in stmt.parts
                )
                nid = self._add(Log(LoggingStatement(stmt.level, parts,
                                                     line=stmt.line or None)))
            elif isinstance(stmt, ml.Invoke):
                callee = self.name_to_id.get(stmt.target)
                if callee is None:
                    raise LoweringError(
                        f"method {method}: call to undeclared method '{stmt.target}'"
                    )
                nid = self._add(Call(callees=(callee,)))
            elif isinstance(stmt, ml.Assign):
                nid = self._add(AssignAct(stmt.var, stmt.value))
            elif isinstance(stmt, ml.If):
                taken, other = _guards(stmt.cond)
                nid = self._add(Branch(taken))
                self._connect(cur, nid)
                then_out = self.lower_block(stmt.then, [(nid, taken)], method)
                else_out = self.lower_block(stmt.orelse or (), [(nid, other)], method)
                cur = then_out + else_out
                continue
            elif isinstance(stmt, ml.While):
                taken, other = _guards(stmt.cond)
                nid = self._add(Branch(taken))
                self._connect(cur, nid)
                body_out = self.lower_block(stmt.body, [(nid, taken)], method)
                self._connect(body_out, nid)  # back edges
                cur = [(nid, other)]
                continue
            else:  # pragma: no cover
                raise TypeError(f"unknown statement {stmt!r}")
            self._connect(cur, nid)
            cur = [(nid, None)]
        return cur

    def finish(self, dangling: list[tuple[int, Guard | None]]) -> ExecutionGraph:
        exit_id = self._add(Exit())
        self._connect(dangling + self.returns, exit_id)
        return ExecutionGraph(self.nodes, frozenset(self.edges))


def lower_to_model(methods: list[ml.AstMethod]) -> ProgramModel:
    """Build the program model: one method node per declaration, and a
    control-flow graph per method body with one CALL activity per
    invoke."""
    name_to_id = {m.name: i for i, m in enumerate(methods)}
    if len(name_to_id) != len(methods):
        raise LoweringError("duplicate method names")
    nodes: dict[int, MethodNode] = {}
    components: dict[int, str] = {}
    for mid, ast in enumerate(methods):
        builder = _CfgBuilder(name_to_id)
        dangling = builder.lower_block(ast.body, [(0, None)], ast.name)
        cfg = builder.finish(dangling)
        nodes[mid] = MethodNode(id=mid, name=ast.name, cfg=cfg)
        if ast.component is not None:
            components[mid] = ast.component
    model = ProgramModel(methods=nodes, components=components)
    validate_model(model)
    return model
