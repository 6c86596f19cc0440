"""Lower parsed MiniLang methods to a ProgramModel.

Each method gets an execution graph with one ENTRY node (id 0), one node
per statement in source order, and one EXIT node allocated last.  If and
while statements lower to a single branch node; arms and loop bodies are
wired by edges, so joins are edge merges rather than nodes.  `return`
redirects control to the shared EXIT node and allocates nothing.  The
parser builds statement leaves as model values, placed without
conversion: an `AssignAct` is its own node, a `LoggingStatement` is
wrapped in `Log`, and a branch takes its statement's guard.  A method
lowers in one loop that keeps its open blocks on an explicit stack, so
nesting depth is bounded by memory, not by Python's recursion limit.
"""

from __future__ import annotations

from . import minilang as ml
from .errors import LogsynthError
from .model import (
    Activity,
    AssignAct,
    Branch,
    Call,
    Entry,
    ExecutionGraph,
    Exit,
    Guard,
    Log,
    LoggingStatement,
    MethodNode,
    ProgramModel,
    validate_model,
)


class LoweringError(LogsynthError):
    pass


def _lower_body(body: tuple[ml.Statement, ...], method: str,
                name_to_id: dict[str, int]) -> ExecutionGraph:
    """One method's graph.  Statements get node ids in source order, an
    if's then-arm before its else-arm, as a walk of the AST that visits
    each statement before its blocks would number them.  The blocks
    still open wait on a stack, each with what its statement does when
    the block closes."""
    nodes: dict[int, Activity] = {0: Entry()}
    edges: set[tuple[int, int, Guard | None]] = set()
    returns: list[tuple[int, Guard | None]] = []
    # the open edges into the next statement
    cur: list[tuple[int, Guard | None]] = [(0, None)]
    stmts = iter(body)
    # the blocks still open around `stmts`: (the rest of the outer block,
    # the branch node, its not-taken guard, the statement, and for an if
    # whose then-arm has ended that arm's open edges)
    stack: list[tuple] = []
    while True:
        for stmt in stmts:
            if isinstance(stmt, ml.Return):
                returns += cur
                cur = []
                continue
            nid = len(nodes)
            if isinstance(stmt, LoggingStatement):
                nodes[nid] = Log(stmt)
            elif isinstance(stmt, ml.Invoke):
                callee = name_to_id.get(stmt.target)
                if callee is None:
                    raise LoweringError(
                        f"method {method}: call to undeclared method '{stmt.target}'"
                    )
                nodes[nid] = Call(callees=(callee,))
            elif isinstance(stmt, AssignAct):
                nodes[nid] = stmt
            elif isinstance(stmt, (ml.If, ml.While)):
                taken, other = stmt.cond, stmt.cond.negation()
                nodes[nid] = Branch(taken)
                edges.update((frm, nid, guard) for frm, guard in cur)
                stack.append((stmts, nid, other, stmt, None))
                stmts = iter(stmt.then if isinstance(stmt, ml.If) else stmt.body)
                cur = [(nid, taken)]
                break
            else:  # pragma: no cover
                raise TypeError(f"unknown statement {stmt!r}")
            edges.update((frm, nid, guard) for frm, guard in cur)
            cur = [(nid, None)]
        else:  # the innermost open block has ended
            if not stack:
                break
            stmts, nid, other, stmt, then_out = stack.pop()
            if isinstance(stmt, ml.While):
                edges.update((frm, nid, guard) for frm, guard in cur)  # back edges
                cur = [(nid, other)]
            elif then_out is None:  # lower the else-arm next
                stack.append((stmts, nid, other, stmt, cur))
                stmts = iter(stmt.orelse or ())
                cur = [(nid, other)]
            else:
                cur = then_out + cur
    exit_id = len(nodes)
    nodes[exit_id] = Exit()
    edges.update((frm, exit_id, guard) for frm, guard in cur + returns)
    return ExecutionGraph(nodes, frozenset(edges))


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
        cfg = _lower_body(ast.body, ast.name, name_to_id)
        nodes[mid] = MethodNode(id=mid, name=ast.name, cfg=cfg)
        if ast.component is not None:
            components[mid] = ast.component
    model = ProgramModel(methods=nodes, components=components)
    validate_model(model)
    return model
