from __future__ import annotations

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from logsynth import model as model_mod
from logsynth import pathfinding
from logsynth.pathfinding import (
    PLACEHOLDER,
    CallStep,
    LogStep,
    PathLimits,
    build_store,
    enumerate_logeps,
    format_store_dump,
    restore_statement,
)
from logsynth.generation import GenParams, Walker, generate_dataset
from logsynth.labeling import AnnotationSet, export_worksheet, propagate
from logsynth.pipeline import analyze_model
from logsynth.probing import build_call_graph, mark_log_methods
from logsynth.pruning import PrunedCallGraph, prune
from logsynth.model import (
    AssignAct, Branch, Call, Entry, ExecutionGraph, Exit, Guard, Literal, Log, LogEvent,
    LoggingStatement, MethodNode, Var, dumps_model, in_edges, loads_model, natural_loops,
)

from .conftest import (
    EP_A_CALLB,
    EP_A_CALLC,
    EP_A_EMPTY,
    EV_DELETE_FAILED,
    EV_RECEIVED,
    EV_RECEIVING,
    EV_TIMED_OUT,
)
from .modelgen import (
    parse_program,
    structured_method_program,
    structured_program,
    with_ambiguous_calls,
)
from .oracles import (
    assignment_feasible,
    bfs_all_walks,
    dfs_all_walks,
    dfs_feasible_paths,
    guard_trace,
    logeps_by_search,
    loops_by_removal,
    oracle_path_set,
    production_path_set,
    production_paths,
    restore_by_walks,
    satisfiable,
    walk_spans,
)
from .test_model import _random_graph


def _analysis(source: str):
    model = parse_program(source)
    return model, analyze_model(model)


def _stmt(model, method_name: str, index: int = 0):
    """The method and the activity id of its `index`-th LOG statement."""
    method = model.method_by_name(method_name)
    logs = [aid for aid, act in sorted(method.cfg.nodes.items())
            if isinstance(act, Log)]
    return method, logs[index]


# ── Statement restoration ────────────────────────────────────────────

def test_restore_resolves_unique_constant(datanode_model):
    method, aid = _stmt(datanode_model, "methodD", 1)
    event = restore_statement(method, aid)
    assert event.template == "Join on responder thread, timed out."
    assert event.level == "warn"


def test_restore_replaces_unassigned_variable(datanode_model):
    method, aid = _stmt(datanode_model, "methodA")
    assert restore_statement(method, aid).template == "Receiving block <*>"


def test_restore_pure_literal_is_identity():
    model = parse_program('void m(){ log(error, "plain " + "text"); }')
    method, aid = _stmt(model, "m")
    assert restore_statement(method, aid).template == "plain text"


def test_restore_conflicting_assignments_use_placeholder():
    model = parse_program(
        'void m(){ x = "a"; if(c){ x = "b"; } log(info, x); }'
    )
    method, aid = _stmt(model, "m")
    # two feasible arrivals disagree ("a" vs "b"): no dominating constant
    assert restore_statement(method, aid).template == "<*>"


def test_restore_agreeing_rewrites_resolve():
    model = parse_program(
        'void m(){ if(c){ x = "same"; } else { x = "same"; } log(info, x); }'
    )
    method, aid = _stmt(model, "m")
    assert restore_statement(method, aid).template == "same"


def test_restore_sees_through_infeasible_paths():
    model = parse_program(
        'void m(){ x = "a"; if(true){ x = "b"; } log(info, x); }'
    )
    method, aid = _stmt(model, "m")
    # the else arm is impossible, so "b" dominates every real arrival
    assert restore_statement(method, aid).template == "b"


def test_restore_past_the_walk_budget_is_a_placeholder():
    model = parse_program('void m(){ x = "v"; ' + "".join(
        f'if (c{i}) {{ y = "y"; }} ' for i in range(4)) + 'log(info, x); }')
    method, aid = _stmt(model, "m")
    # 16 walks arrive: a budget of 16 proves "v", a budget of 15 cannot
    assert restore_statement(method, aid, limits=PathLimits(16)).template == "v"
    assert restore_statement(method, aid, limits=PathLimits(15)).template == "<*>"


def _count_searches(monkeypatch) -> list:
    """A list that gets one entry for each `_iter_walks` search started
    from now on."""
    searches = []
    real = pathfinding._iter_walks

    def counting(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(pathfinding, "_iter_walks", counting)
    return searches


def _count_tables(monkeypatch) -> dict[str, list]:
    """Per table that a search derives (`in_edges`, `natural_loops`), a
    list that gets the id of the graph each time path finding builds it
    from now on."""
    built: dict[str, list] = {}
    for name in ("in_edges", "natural_loops"):
        calls = built[name] = []
        real = getattr(pathfinding, name)

        def counting(graph, *rest, real=real, calls=calls):
            calls.append(id(graph))
            return real(graph, *rest)

        monkeypatch.setattr(pathfinding, name, counting)
    return built


def test_restore_searches_once_per_statement(monkeypatch):
    model = parse_program(
        'void m(){ a = "1"; b = "2"; c = ""; log(info, a + "-" + b + c + a); }'
    )
    method, aid = _stmt(model, "m")
    searches = _count_searches(monkeypatch)
    assert restore_statement(method, aid).template == "1-21"
    assert searches == []  # a straight method's only walk needs no search
    model = parse_program(
        'void m(){ a = "1"; if (c) { b = "2"; } log(info, a + "-" + b); }'
    )
    method, aid = _stmt(model, "m")
    assert restore_statement(method, aid).template == "1-<*>"
    assert len(searches) == 1


def _oracle_template(cfg, aid, limits: PathLimits = PathLimits()):
    """The LOG activity's template by `restore_by_walks`, its constants,
    and None in place of the template when more walks arrive than the
    budget, where restoration cannot prove uniqueness."""
    constants, arrivals = restore_by_walks(cfg, aid)
    template = "".join(
        p.text if isinstance(p, Literal)
        else PLACEHOLDER if constants[p.name] is None else constants[p.name]
        for p in cfg.nodes[aid].stmt.parts)
    return (None if arrivals > limits.max_paths_per_method else template), constants


def test_restore_matches_walk_oracle():
    # every method starts with `a = ""; b = "B";`, so both resolve unless
    # a branch reassigns them; `c` never resolves.  At caps 2 and 5 some
    # statements pass the budget and settle while others keep the
    # method's one search going; shapes are counted at the default cap.
    shapes = {"multi-variable": 0, "empty constant": 0, "resolved in a loop": 0,
              "with return": 0}
    for seed in range(60):
        source = structured_program(random.Random(seed), 6).replace(
            "() {\n", '() {\n    a = "";\n    b = "B";\n')
        model = parse_program(source)
        for limits in (PathLimits(2), PathLimits(5), PathLimits()):
            analysis = analyze_model(model, limits=limits)
            for event in analysis.store.events.values():
                mid, aid = event.origin
                cfg = model.methods[mid].cfg
                expected, constants = _oracle_template(cfg, aid, limits)
                if expected is None:
                    continue
                assert event.template == expected, (seed, limits, mid, aid)
                if limits == PathLimits():
                    resolved = any(v is not None for v in constants.values())
                    shapes["multi-variable"] += len(constants) > 1
                    shapes["empty constant"] += "" in constants.values()
                    shapes["resolved in a loop"] += resolved and bool(loops_by_removal(cfg))
                    shapes["with return"] += resolved and "return;" in source
    assert min(shapes.values()) >= 20, shapes


# ── Method classification ────────────────────────────────────────────

def test_strategies_on_golden_fixture(datanode_analysis):
    model = datanode_analysis.model
    pruned = datanode_analysis.pruned
    callers = {caller for caller, _ in pruned.edges}
    kinds = {
        model.methods[mid].name: (mid in datanode_analysis.log_methods,
                                  mid not in callers)
        for mid in sorted(pruned.kept)
    }
    assert kinds == {
        "methodA": (True, False),   # logs and calls
        "methodB": (True, True),    # logging leaf
        "methodC": (False, False),  # calls only
        "methodD": (True, True),
    }


def test_strategy_exclusivity_on_fuzzed_programs():
    # a kept method logs, or calls a kept method, or both
    for seed in range(40):
        rng = random.Random(seed)
        model, analysis = _analysis(structured_method_program(rng, rng.randint(0, 6)))
        callers = {caller for caller, _ in analysis.pruned.edges}
        for mid in analysis.pruned.kept:
            assert mid in analysis.log_methods or mid in callers


# ── Enumeration ──────────────────────────────────────────────────────

def test_golden_paths(datanode_analysis):
    store = datanode_analysis.store
    a_paths = store.by_method[0]
    assert [p.steps for p in a_paths] == [
        (LogStep(EV_RECEIVING), CallStep(1)),
        (LogStep(EV_RECEIVING), CallStep(2)),
        (),
    ]
    assert [p.spans for p in a_paths] == [((0, 1),), ((0, 1),), ()]
    assert [p.skips_loop for p in a_paths] == [False, False, True]
    assert [p.id for p in a_paths] == [EP_A_CALLB, EP_A_CALLC, EP_A_EMPTY]
    assert [p.steps for p in store.by_method[1]] == [(LogStep(EV_RECEIVED),)]
    assert [p.steps for p in store.by_method[2]] == [(CallStep(3),)]
    assert [p.steps for p in store.by_method[3]] == [
        (LogStep(EV_DELETE_FAILED), LogStep(EV_TIMED_OUT)),
    ]


def test_straight_line_method_single_path():
    _, analysis = _analysis(
        'void m(){ log(info, "a"); log(info, "b"); log(info, "c"); }'
    )
    (path,) = analysis.store.by_method[0]
    assert [s.event for s in path.steps] == [0, 1, 2]
    assert path.spans == ()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_independent_branches_yield_2_to_the_k(k):
    body = "".join(
        f'if (c{i}) {{ log(info, "L{i}"); }}\n' for i in range(k)
    )
    _, analysis = _analysis(f"void m(){{\n{body}}}")
    assert len(analysis.store.by_method[0]) == 2 ** k


def test_call_to_pruned_callee_is_dropped():
    model, analysis = _analysis(
        'void m(){ quiet(); log(info, "x"); } void quiet(){}'
    )
    (path,) = analysis.store.by_method[0]
    assert all(not isinstance(s, CallStep) for s in path.steps)


def test_no_path_references_pruned_methods():
    for seed in range(30):
        rng = random.Random(seed + 500)
        model, analysis = _analysis(
            structured_method_program(rng, rng.randint(0, 8))
        )
        kept = analysis.pruned.kept
        for path in analysis.store.all_paths():
            for step in path.steps:
                if isinstance(step, CallStep):
                    assert step.callee in kept


def test_dispatch_ambiguity_expands_variants():
    from logsynth.model import loads_model

    text = "\n".join([
        "M 0 top", "M 1 left", "M 2 right",
        "A 0 0 ENTRY", "A 0 1 CALL", "A 0 2 EXIT",
        "A 1 0 ENTRY", "A 1 1 LOG info|L:left", "A 1 2 EXIT",
        "A 2 0 ENTRY", "A 2 1 LOG info|L:right", "A 2 2 EXIT",
        "E 0 0 1", "E 0 1 2",
        "E 1 0 1", "E 1 1 2",
        "E 2 0 1", "E 2 1 2",
        "C 0 1 1", "C 0 1 2",
    ])
    model = loads_model(text)
    analysis = analyze_model(model)
    steps = {p.steps for p in analysis.store.by_method[0]}
    assert steps == {(CallStep(1),), (CallStep(2),)}


# ── Feasibility filtering ────────────────────────────────────────────

def test_contradictory_branches_filtered():
    _, analysis = _analysis(
        'void m(){ if(x){ log(info, "A"); } y = "sep"; '
        'if(x){ log(info, "B"); } }'
    )
    # of 4 raw combinations only consistent x-valuations survive
    step_sets = {tuple(s.event for s in p.steps)
                 for p in analysis.store.by_method[0]}
    assert step_sets == {(0, 1), ()}


def test_reassignment_resets_knowledge():
    _, analysis = _analysis(
        'void m(){ if(x){ log(info, "A"); } x = "new"; '
        'if(x){ log(info, "B"); } }'
    )
    step_sets = {tuple(s.event for s in p.steps)
                 for p in analysis.store.by_method[0]}
    assert step_sets == {(0, 1), (0,), (1,), ()}


def test_literal_guards():
    _, analysis = _analysis(
        'void m(){ if(true){ log(info, "A"); } else { log(info, "B"); } }'
    )
    (path,) = analysis.store.by_method[0]
    assert [s.event for s in path.steps] == [0]


def test_golden_fixture_nothing_filtered(datanode_analysis):
    counts = {mid: len(paths)
              for mid, paths in datanode_analysis.store.by_method.items()}
    assert counts == {0: 3, 1: 1, 2: 1, 3: 1}


def test_satisfiable_decision_procedure():
    assert satisfiable((("guard", "x", True), ("guard", "x", True)))
    assert not satisfiable((("guard", "x", True), ("guard", "x", False)))
    assert satisfiable(
        (("guard", "x", True), ("assign", "x"), ("guard", "x", False))
    )
    assert not satisfiable((("lit", False),))
    assert satisfiable((("lit", True),))


def test_filter_infeasible_is_a_pure_filter():
    model = parse_program(
        'void m(){ if(x){ log(info, "A"); } if(x){ log(info, "B"); } }'
    )
    cg = build_call_graph(model)
    pruned = prune(cg, mark_log_methods(model))
    # the two mixed walks contradict x: only the 2 feasible paths appear
    paths = enumerate_logeps(model.methods[0], pruned)
    assert [tuple(s.event for s in p.steps) for p in paths] == [(0, 1), ()]


# ── Oracle equivalence and determinism ───────────────────────────────

def test_path_sets_match_bruteforce_oracle():
    compared = 0
    for seed in range(60):
        rng = random.Random(seed * 13 + 1)
        model, analysis = _analysis(
            structured_method_program(rng, rng.randint(0, 7), var_pool_size=3)
        )
        main = model.method_by_name("main")
        if main.id not in analysis.pruned.kept:
            continue
        compared += 1
        stmt_to_event = {
            ev.origin[1]: eid for eid, ev in analysis.store.events.items()
            if ev.origin[0] == main.id
        }
        expected = oracle_path_set(main.cfg, set(analysis.pruned.kept),
                                   stmt_to_event)
        assert production_path_set(analysis.store, main.id) == expected
    assert compared >= 40


def _projections(walks, recorded, loops):
    """Each walk's recorded positions, loop regions' spans and skipped-loop
    flag, from one `_Projection` of the `recorded` nodes driven over
    `walks` in order, each cut back to the prefix it shares with the walk
    before it."""
    walk = pathfinding._Projection(dict.fromkeys(recorded, (0, None, None)), loops)
    before: list = []
    for visits in walks:
        low = 0
        while low < min(len(before), len(visits)) and before[low] == visits[low]:
            low += 1
        walk.advance(visits, low)
        before = visits
        yield list(walk.at), tuple(walk.spans), walk.skips_loop()


def _projections_agree(cfg: ExecutionGraph, kept: set[int]) -> tuple[int, int]:
    """Require the projection to find every feasible walk's recorded
    steps, its loop regions' spans (as a multiset) and its skipped-loop
    flag as `walk_spans` does, with the walks taken in breadth-first order
    so that each cuts the one before back to their shared prefix; return
    how many walks have a span and how many skip a loop.  A graph of more
    than 2,000 walks is passed over: the oracle derives the loops again
    per walk."""
    walks = bfs_all_walks(cfg)
    if len(walks) > 2000:
        return 0, 0
    recorded = {n for n, act in cfg.nodes.items() if type(act) is Log
                or type(act) is Call and any(c in kept for c in act.callees)}
    loops, _ = natural_loops(cfg, in_edges(cfg))
    feasible = [visits for visits in walks if assignment_feasible(cfg, visits)]
    marked = skipping = 0
    for visits, (at, spans, skipped) in zip(feasible, _projections(
            [[n for n, _ in visits] for visits in feasible], recorded, loops)):
        walk = [n for n, _ in visits]
        assert at == [i for i, n in enumerate(walk) if n in recorded]
        expected_spans, expected_skip = walk_spans(cfg, visits, at)
        assert (sorted(spans), skipped) == (sorted(expected_spans), expected_skip), walk
        marked += bool(spans)
        skipping += skipped
    return marked, skipping


def _log(text: str) -> Log:
    return Log(LoggingStatement("info", (Literal(text),)))


def test_projection_matches_walk_oracle():
    # the head's two out-edges both stay in its loop, so the walk 0 1 2 1
    # 3 4 5 opens the head's region twice, and closes it once
    nodes = {0: Entry(), 1: Branch(Guard("c", True)), 2: _log("a"), 3: _log("b"),
             4: Branch(Guard("d", True)), 5: Exit()}
    edges = {(0, 1, None), (1, 2, Guard("c", True)), (1, 3, Guard("c", False)),
             (2, 1, None), (3, 4, None), (4, 1, Guard("d", True)), (4, 5, Guard("d", False))}
    cfg = ExecutionGraph(nodes, frozenset(edges))
    loops, _ = natural_loops(cfg, in_edges(cfg))
    assert loops == {1: {1, 2, 3, 4}}
    assert list(_projections([[0, 1, 2, 1, 3, 4, 5]], {2, 3}, loops)) == \
        [([2, 4], ((0, 0),), False)]
    assert _projections_agree(cfg, set()) == (1, 0)
    # the inner loop (head 3) can jump back to the outer head: on the walk
    # 0 1 2 3 4 5 1 6 the outer region closes and drops the open inner one
    nodes = {0: Entry(), 1: Branch(Guard("c", True)), 2: _log("o"),
             3: Branch(Guard("d", True)), 4: _log("a"), 5: Branch(Guard("e", True)), 6: Exit()}
    edges = {(0, 1, None), (1, 2, Guard("c", True)), (1, 6, Guard("c", False)),
             (2, 3, None), (3, 4, Guard("d", True)), (3, 1, Guard("d", False)), (4, 5, None),
             (5, 3, Guard("e", True)), (5, 1, Guard("e", False))}
    cfg = ExecutionGraph(nodes, frozenset(edges))
    loops, _ = natural_loops(cfg, in_edges(cfg))
    assert loops == {1: {1, 2, 3, 4, 5}, 3: {3, 4, 5}}
    assert list(_projections([[0, 1, 2, 3, 4, 5, 1, 6]], {2, 4}, loops)) == \
        [([2, 4], ((0, 1),), False)]
    assert _projections_agree(cfg, set())[0] > 0
    # random graphs record no step, so they pin `skips_loop` on irreducible
    # cycles, self-loops and parallel edges; the programs pin the marks too
    shapes = {"random graph walks that skip": 0, "program walks that skip": 0,
              "marked program walks": 0}
    for seed in range(200):
        shapes["random graph walks that skip"] += _projections_agree(
            _random_graph(random.Random(seed)), set())[1]
        rng = random.Random(seed)
        model = parse_program(structured_program(rng, 4))
        if seed % 2:
            model = with_ambiguous_calls(model, rng)
        for m in model.methods.values():
            marked, skipping = _projections_agree(m.cfg, set(model.methods))
            shapes["marked program walks"] += marked
            shapes["program walks that skip"] += skipping
    assert min(shapes.values()) >= 100, shapes


def _pruning_corpus():
    """150 seeded `main` methods with loops, literal guards, two or three
    variables that are tested and reassigned, and ambiguous dispatch at
    about half of the call sites, plus how many models have each shape."""
    shapes = {"loop": 0, "ambiguous dispatch": 0, "variable tested twice": 0,
              "literal guard": 0, "reassigned in a loop": 0}
    corpus = []
    for seed in range(150):
        rng = random.Random(seed * 7 + 3)
        model = with_ambiguous_calls(parse_program(structured_method_program(
            rng, rng.randint(2, 9), var_pool_size=rng.randint(2, 3),
            ensure_log=True)), rng)
        analysis = analyze_model(model)
        cfg = model.method_by_name("main").cfg
        loops = loops_by_removal(cfg)
        tested = [act.cond.var for act in cfg.nodes.values() if isinstance(act, Branch)]
        kept = analysis.pruned.kept
        shapes["loop"] += bool(loops)
        shapes["ambiguous dispatch"] += any(
            isinstance(act, Call) and sum(c in kept for c in act.callees) > 1
            for act in cfg.nodes.values())
        shapes["variable tested twice"] += any(
            v is not None and tested.count(v) > 1 for v in tested)
        shapes["literal guard"] += None in tested
        shapes["reassigned in a loop"] += any(
            isinstance(cfg.nodes[n], AssignAct) and cfg.nodes[n].var in tested
            for body in loops.values() for n in body)
        corpus.append((seed, model, analysis))
    return corpus, shapes


def test_enumeration_matches_ordered_dfs_oracle():
    corpus, shapes = _pruning_corpus()
    for seed, model, analysis in corpus:
        main = model.method_by_name("main")
        stmt_to_event = {ev.origin[1]: eid for eid, ev in analysis.store.events.items()
                         if ev.origin[0] == main.id}
        expected = dfs_feasible_paths(main.cfg, set(analysis.pruned.kept), stmt_to_event)
        assert production_paths(analysis.store, main.id) == expected, seed
    assert min(shapes.values()) >= 25, shapes


def _walks_to(cfg, target, most: int | None = None):
    """The pruned search's walks to `target` alone, each copied when it
    arrives, and the first `most` of them when given.  Each walk keeps the
    nodes the previous one had up to the search's reported `low`."""
    preds = in_edges(cfg)
    walks: list[tuple] = []
    for path, _, low in itertools.islice(pathfinding._iter_walks(
            cfg, {target}, preds, *natural_loops(cfg, preds)), most):
        assert tuple(path[:low]) == (walks[-1][:low] if walks else ())
        walks.append(tuple(path))
    return walks


def test_pruned_walks_are_the_satisfiable_walks():
    # the pruned search, to the exit and to every statement, yields the
    # unpruned search's walks that the trace decision procedure accepts
    corpus, _ = _pruning_corpus()
    pruned = 0  # models where some walk to the exit is infeasible
    for seed, model, _ in corpus:
        cfg = model.method_by_name("main").cfg
        targets = [cfg.exit] + [n for n, act in cfg.nodes.items() if isinstance(act, Log)]
        for target in targets:
            walks = dfs_all_walks(cfg, target)
            expected = [tuple(n for n, _ in visits) for visits in walks
                        if satisfiable(guard_trace(cfg, visits))]
            assert _walks_to(cfg, target) == expected, (seed, target)
            pruned += target == cfg.exit and len(expected) < len(walks)
    assert pruned >= 50, pruned


def _walk_count(cfg: ExecutionGraph, most: int) -> int:
    """How many edge-simple walks of at least one edge leave entry, or
    `most + 1` once there are more."""
    succ: dict[int, list] = {}
    for edge in cfg.edges:
        succ.setdefault(edge[0], []).append(edge)
    count = 0
    stack = [(cfg.entry, frozenset())]
    while stack and count <= most:
        node, used = stack.pop()
        for edge in succ.get(node, ()):
            if edge not in used:
                count += 1
                stack.append((edge[1], used | {edge}))
    return min(count, most + 1)


def test_pruned_walks_are_the_satisfiable_walks_on_irreducible_graphs():
    # irreducible cycles, self-loops and parallel guarded edges: a walk
    # may come back to a node that is in no natural loop, so the search
    # must keep its edges simple there too; a search that does not fails
    # at the one walk past the oracle's instead of running without bound
    pairs = revisiting = 0
    for seed in range(400):
        cfg = _random_graph(random.Random(seed))
        if _walk_count(cfg, 3000) > 3000:
            continue
        for target in sorted(cfg.reachable - {cfg.entry}):
            expected = [tuple(n for n, _ in visits) for visits in dfs_all_walks(cfg, target)
                        if satisfiable(guard_trace(cfg, visits))]
            assert _walks_to(cfg, target, len(expected) + 1) == expected, (seed, target)
            pairs += 1
            revisiting += any(len(set(walk)) < len(walk) for walk in expected)
    assert revisiting >= 500, (pairs, revisiting)


# ── Graphs with an only walk ─────────────────────────────────────────

def _agrees_with_oracles(model, limits: PathLimits = PathLimits()):
    """Analyze `model` at `limits` and require, for every kept method,
    that the pruned search to every node, the enumeration and every
    restored template agree with the brute-force oracles."""
    analysis = analyze_model(model, limits=limits)
    kept = set(analysis.pruned.kept)
    for mid in sorted(kept):
        cfg = model.methods[mid].cfg
        for target in cfg.nodes:
            expected = [tuple(n for n, _ in visits) for visits in dfs_all_walks(cfg, target)
                        if satisfiable(guard_trace(cfg, visits))]
            assert _walks_to(cfg, target) == expected, (mid, target)
        stmt_to_event = {ev.origin[1]: eid for eid, ev in analysis.store.events.items()
                         if ev.origin[0] == mid}
        expected = dfs_feasible_paths(cfg, kept, stmt_to_event)
        assert production_paths(analysis.store, mid) == \
            expected[:limits.max_paths_per_method], mid
    for event in analysis.store.events.values():
        mid, aid = event.origin
        assert event.template == _oracle_template(model.methods[mid].cfg, aid, limits)[0]
    return analysis


def test_only_walk_with_reassignments_matches_oracles():
    model = parse_program(
        'void m(){ x = "a"; log(info, "first " + x); x = "b"; y = ""; '
        'log(warn, x + "-" + y + z); helper(); x = "c"; log(error, x + y); } '
        'void helper(){ log(info, "h"); }')
    cfg = model.method_by_name("m").cfg
    assert cfg.only_walk is not None
    analysis = _agrees_with_oracles(model)
    assert [ev.template for ev in analysis.store.events.values()] == \
        ["first a", "b-<*>", "c", "h"]


_AMBIGUOUS_STRAIGHT = "\n".join([
    "M 0 top", "M 1 a", "M 2 b", "M 3 c",
    # the walk 0 2 3 4 5 1 6 visits LOG 1 last, after x is assigned
    "A 0 0 ENTRY", "A 0 1 LOG info|L:late |V:x", "A 0 2 CALL", "A 0 3 ASSIGN x|v",
    "A 0 4 LOG info|L:mid |V:x", "A 0 5 CALL", "A 0 6 EXIT",
    *(f"A {m} {a}" for m in (1, 2, 3)
      for a in ("0 ENTRY", f"1 LOG info|L:in {m}", "2 EXIT")),
    "E 0 0 2", "E 0 1 6", "E 0 2 3", "E 0 3 4", "E 0 4 5", "E 0 5 1",
    *(f"E {m} {e}" for m in (1, 2, 3) for e in ("0 1", "1 2")),
    "C 0 2 1", "C 0 2 2", "C 0 2 3", "C 0 5 1", "C 0 5 2",
]) + "\n"


@pytest.mark.parametrize("cap", [1, 4, 6, 4096])
def test_only_walk_with_ambiguous_calls_matches_oracles(cap, caplog):
    # two ambiguous sites, of 3 and 2 callees, on the one walk: 6 variants
    model = loads_model(_AMBIGUOUS_STRAIGHT)
    assert model.methods[0].cfg.only_walk == (0, 2, 3, 4, 5, 1, 6)
    with caplog.at_level("WARNING"):
        analysis = _agrees_with_oracles(model, PathLimits(cap))
    store = analysis.store
    assert len(store.by_method[0]) == min(cap, 6)
    assert any("truncated" in rec.message for rec in caplog.records) == (cap < 6)
    assert [p.id for p in store.all_paths()] == list(range(len(store.all_paths())))
    # events are numbered in activity order, not in walk order
    assert list(store.events) == list(range(5))
    assert [(ev.origin, ev.template) for ev in store.events.values()][:2] == \
        [((0, 1), "late v"), ((0, 4), "mid v")]
    assert [type(s) for s in store.by_method[0][0].steps] == \
        [CallStep, LogStep, CallStep, LogStep]


def _random_straight_method(rng: random.Random) -> MethodNode:
    """A straight method whose activity ids are shuffled against its walk:
    assignments and reassignments of x and y, statements that print them
    and the never-assigned z, and call sites of one to three of the
    methods 1-4."""
    n = rng.randint(0, 16)
    walk = rng.sample(range(n + 2), n + 2)
    nodes = {walk[0]: Entry(), walk[-1]: Exit()}
    for aid in walk[1:-1]:
        kind = rng.random()
        if kind < 0.3:
            nodes[aid] = AssignAct(rng.choice("xy"), rng.choice(("a", "b", "")))
        elif kind < 0.7:
            parts = [rng.choice((Literal("t "), Var("x"), Var("y"), Var("z")))
                     for _ in range(rng.randint(1, 3))]
            nodes[aid] = Log(LoggingStatement(rng.choice(("info", "warn")), tuple(parts)))
        else:
            nodes[aid] = Call(tuple(rng.sample(range(1, 5), rng.randint(1, 3))))
    cfg = ExecutionGraph(nodes, frozenset((a, b, None) for a, b in zip(walk, walk[1:])))
    assert cfg.only_walk == tuple(walk)
    return MethodNode(0, "m", cfg)


@pytest.mark.parametrize("cap", [1, 2, 5, 4096])
def test_straight_read_off_matches_the_search(cap, caplog):
    shapes = {"reassigned": 0, "never assigned": 0, "ambiguous": 0, "pruned callee": 0,
              "truncated": 0, "out of walk order": 0}
    for seed in range(300):
        rng = random.Random(seed)
        method = _random_straight_method(rng)
        kept = frozenset({0, *rng.sample(range(1, 5), rng.randint(0, 4))})
        first_event, first_id = rng.randint(0, 3), rng.randint(0, 3)
        events = {e: LogEvent(e, "info", "before") for e in range(first_event)}
        caplog.clear()
        with caplog.at_level("WARNING"):
            paths = enumerate_logeps(method, PrunedCallGraph(kept, frozenset(), {}),
                                     PathLimits(cap), events, first_id)
        want_events, want_paths, truncated = logeps_by_search(
            method, kept, cap, first_event, first_id)
        got = [(e.event_id, e.level, e.template, e.origin) for e in events.values()]
        assert got[first_event:] == [(e.event_id, e.level, e.template, e.origin)
                                     for e in want_events], seed
        assert list(events) == list(range(len(events))), seed
        assert paths == want_paths, seed
        assert any("truncated" in r.message for r in caplog.records) == truncated, seed
        nodes, walk = method.cfg.nodes, method.cfg.only_walk
        assigned = [nodes[a].var for a in walk if type(nodes[a]) is AssignAct]
        shown = {p.name for a in walk if type(nodes[a]) is Log
                 for p in nodes[a].stmt.parts if type(p) is Var}
        calls = [nodes[a].callees for a in walk if type(nodes[a]) is Call]
        logs = [a for a in walk if type(nodes[a]) is Log]
        shapes["reassigned"] += len(assigned) > len(set(assigned))
        shapes["never assigned"] += "z" in shown
        shapes["ambiguous"] += any(len([c for c in cs if c in kept]) > 1 for cs in calls)
        shapes["pruned callee"] += any(c not in kept for cs in calls for c in cs)
        shapes["truncated"] += truncated
        shapes["out of walk order"] += logs != sorted(logs)
    truncations = shapes.pop("truncated")
    assert min(shapes.values()) >= 20 and (truncations >= 20) == (cap < 4096), \
        (shapes, truncations)


def test_only_walk_ignores_unreachable_loop():
    model = parse_program(
        'void m(){ x = "a"; log(info, x); return; '
        'while(c){ log(info, "b"); x = "z"; } log(info, x); }')
    cfg = model.methods[0].cfg
    assert cfg.only_walk is not None
    assert cfg.reachable == set(cfg.only_walk) != set(cfg.nodes)
    off_walk = set(cfg.nodes) - cfg.reachable
    assert any(isinstance(cfg.nodes[n], Branch) for n in off_walk)
    assert loops_by_removal(cfg) == {}
    # the start and every node off the walk are never arrived at
    for target in [cfg.entry, *off_walk]:
        assert _walks_to(cfg, target) == []
    analysis = _agrees_with_oracles(model)
    assert [ev.template for ev in analysis.store.events.values()] == ["a"]


def test_unguarded_fork_goes_through_the_search(monkeypatch):
    # ASSIGN 1 has two unguarded out-edges, which validation accepts
    model = loads_model("\n".join([
        "M 0 fork", "A 0 0 ENTRY", "A 0 1 ASSIGN x|a", "A 0 2 LOG info|L:left |V:x",
        "A 0 3 ASSIGN x|b", "A 0 4 LOG info|V:x", "A 0 5 EXIT",
        "E 0 0 1", "E 0 1 2", "E 0 1 3", "E 0 2 4", "E 0 3 4", "E 0 4 5",
    ]) + "\n")
    cfg = model.methods[0].cfg
    assert cfg.only_walk is None
    built = _count_tables(monkeypatch)
    analysis = _agrees_with_oracles(model)
    assert built["in_edges"] == [id(cfg)]  # the search swept back from a target
    assert [ev.template for ev in analysis.store.events.values()] == ["left a", "<*>"]
    assert len(analysis.store.by_method[0]) == 2


def test_dead_end_statements_match_oracles():
    # LOG 2 and LOG 6 lie on a dead end (a node other than EXIT with no
    # out-edges), LOG 4 on the way to EXIT, so the statements reach back
    # through different nodes; LOG 2 settles at its first arrival
    model = loads_model("\n".join([
        "M 0 dead", "A 0 0 ENTRY", "A 0 1 ASSIGN x|a", "A 0 2 LOG info|L:stuck |V:y",
        "A 0 3 ASSIGN x|b", "A 0 4 LOG info|L:out |V:x", "A 0 5 EXIT",
        "A 0 6 LOG warn|L:then |V:x",
        "E 0 0 1", "E 0 1 2", "E 0 1 3", "E 0 2 6", "E 0 3 4", "E 0 4 5",
    ]) + "\n")
    analysis = _agrees_with_oracles(model)
    assert [(ev.origin[1], ev.template) for ev in analysis.store.events.values()] == \
        [(2, "stuck <*>"), (4, "out b"), (6, "then a")]
    assert [p.steps for p in analysis.store.by_method[0]] == [(LogStep(1),)]


def test_long_straight_method_restores_in_one_pass(monkeypatch):
    n = 2000
    model = parse_program('void m(){ x = "k"; ' + " ".join(
        ['log(info, "s" + x);'] * n) + " }")
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    searches = _count_searches(monkeypatch)
    built = _count_tables(monkeypatch)
    store = build_store(model, pruned)
    assert [ev.template for ev in store.events.values()] == ["sk"] * n
    (path,) = store.by_method[0]
    assert [s.event for s in path.steps] == list(range(n))
    # one pass over the only walk restores and enumerates, with no search
    # and nothing derived that only a search needs
    assert searches == []
    assert built == {"in_edges": [], "natural_loops": []}


def test_branching_method_restores_in_one_search(monkeypatch):
    # per statement: x resolves, y is assigned on one arm only, z never;
    # statements settle at different arrivals while the rest stay open
    n = 200
    model = parse_program('void m(){ x = "k"; if (c) { y = "v"; } ' + " ".join(
        ['log(info, "s" + x); log(info, "t" + y); log(info, "u" + z);'] * n) + " }")
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    searches = _count_searches(monkeypatch)
    store = build_store(model, pruned)
    assert [ev.template for ev in store.events.values()] == ["sk", "t<*>", "u<*>"] * n
    (path,) = store.by_method[0]  # both walks project onto one path
    assert [s.event for s in path.steps] == list(range(3 * n))
    assert len(searches) == 1  # it restores every statement and enumerates


def test_identical_model_gives_identical_dump(datanode_path):
    from logsynth.pipeline import load_input

    dumps = []
    for _ in range(2):
        model = load_input([str(datanode_path)], None)
        analysis = analyze_model(model)
        dumps.append(format_store_dump(analysis.store, model))
    assert dumps[0] == dumps[1]


def test_store_dumps_keep_their_bytes_on_a_structured_corpus():
    # 150 programs of 30 methods, every third with ambiguous dispatch,
    # each at a cap of 2 paths and at the default; every one has loops
    digest = hashlib.sha256()
    for seed in range(150):
        rng = random.Random(seed)
        model = parse_program(structured_program(rng, 30))
        if seed % 3 == 0:
            model = with_ambiguous_calls(model, rng)
        for limits in (PathLimits(2), PathLimits()):
            store = analyze_model(model, limits=limits).store
            assert any(p.spans for p in store.all_paths()), seed
            digest.update(format_store_dump(store, model).encode())
    assert digest.hexdigest() == \
        "679e1f1e099349ce667f04490282510737bfb545343e640b8d9a51e8c76d8862"


def _retained_store(source: str):
    """The store of `source`'s one method and the bytes it holds, counted
    by tracemalloc from before the store is built to after."""
    model = parse_program(source)
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    gc.collect()
    tracemalloc.start()
    try:
        store = build_store(model, pruned)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return store, held


def test_loop_paths_hold_little_more_than_branch_paths():
    # n sequential whiles on distinct conditions have the paths and steps
    # of n such ifs, plus one span per loop a path enters: a stored path
    # holds its fields only, so the store stays within a small factor
    n = 40  # 4,096 paths at the default cap, as for any n >= 12
    stores = {}
    for keyword in ("if", "while"):
        stores[keyword] = _retained_store("void m(){ " + " ".join(
            f'{keyword} (c{i}) {{ log(info, "s{i}"); }}' for i in range(n)) + " }")
    (ifs, if_bytes), (whiles, while_bytes) = stores["if"], stores["while"]
    assert len(ifs.all_paths()) == len(whiles.all_paths()) == 4096
    assert [p.steps for p in ifs.all_paths()] == [p.steps for p in whiles.all_paths()]
    assert all(len(p.spans) == len(p.steps) for p in whiles.all_paths())
    assert while_bytes <= 2.5 * if_bytes, (while_bytes, if_bytes)
    assert not hasattr(whiles.all_paths()[0], "__dict__")


def test_path_cap_truncates_with_warning(caplog):
    body = "".join(f'if (c{i}) {{ log(info, "L{i}"); }}\n' for i in range(5))
    model = parse_program(f"void m(){{\n{body}}}")
    cg = build_call_graph(model)
    pruned = prune(cg, mark_log_methods(model))
    with caplog.at_level("WARNING"):
        limited = build_store(model, pruned, PathLimits(max_paths_per_method=8))
    assert len(limited.by_method[0]) == 8
    assert any("truncated" in rec.message for rec in caplog.records)


def test_path_cap_counts_feasible_walks(caplog):
    # 16 walks, of which the 8 that test x one way only are feasible;
    # every feasible walk projects onto one of 2 paths
    model = parse_program(
        'void m(){ if(x){ log(info, "A"); } if(c0){} if(c1){} '
        'if(x){ log(info, "B"); } }')
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    with caplog.at_level("WARNING"):
        full = enumerate_logeps(model.methods[0], pruned, PathLimits(8))
    assert [tuple(s.event for s in p.steps) for p in full] == [(0, 1), ()]
    assert not caplog.records
    with caplog.at_level("WARNING"):
        cut = enumerate_logeps(model.methods[0], pruned, PathLimits(4))
    # the second path's first walk is the 5th: past the cap, never seen
    assert [tuple(s.event for s in p.steps) for p in cut] == [(0, 1)]
    assert any("truncated" in rec.message for rec in caplog.records)


def test_statement_past_the_walk_cap_still_restores(caplog):
    # the true arm's 32 walks pass the cap before any walk reaches the
    # else arm: exit leaves the search, which goes on for the statement
    model = parse_program('void m(){ if(c){ ' + "".join(
        f"if(d{i}){{}} " for i in range(5)) + '} else { x = "k"; log(info, "s" + x); } }')
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    with caplog.at_level("WARNING"):
        store = build_store(model, pruned, PathLimits(4))
    assert [ev.template for ev in store.events.values()] == ["sk"]
    assert any("truncated" in rec.message for rec in caplog.records)


def test_store_dump_format(datanode_analysis):
    dump = format_store_dump(datanode_analysis.store, datanode_analysis.model)
    lines = dump.splitlines()
    assert lines[0] == "EV 0 info Receiving block <*>"
    assert "EP 0 methodA L:0:S C:methodB:E" in lines
    assert "EP 2 methodA" in lines  # the flagged empty loop path
    assert "EP 5 methodD L:2 L:3" in lines


def test_return_inside_loop_gets_no_marks():
    # a walk that leaves the loop through `return` never completes an
    # iteration, so its steps are not replayable as a region
    _, analysis = _analysis(
        'void m(){ while(c){ log(info, "in"); if(d){ return; } } '
        'log(info, "after"); }'
    )
    paths = analysis.store.by_method[0]
    assert [p.spans for p in paths if p.steps == (LogStep(0),)] == [()]
    (completing,) = [p for p in paths if len(p.steps) == 2]
    assert completing.spans == ((0, 0),)


def _walked_forest(analysis, path):
    """The loop forest a walker runs `path` by."""
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    walker = Walker(analysis.model, analysis.store, infection, analysis.call_graph,
                    GenParams(size=1, anomaly_rate=0.0))
    return walker.regions[path.id]


def test_nested_regions_sharing_a_boundary_step_keep_their_nesting():
    # the inner loop's region ends on the outer one's last step, and in
    # the second method starts on its first step too: the spans keep both
    # regions, which per-step start/end marks could not tell apart
    model, analysis = _analysis(
        'void k(){ while(c){ log(info, "b"); while(d){ log(info, "a2"); } } }')
    path = analysis.store.by_method[0][0]
    b, a2 = path.steps
    assert path.spans == ((1, 1), (0, 1))
    assert _walked_forest(analysis, path) == ((b, (a2,)),)
    assert "EP 0 k L:0:S L:1:SE" in format_store_dump(analysis.store, model).splitlines()
    _, analysis = _analysis('void k(){ while(c){ while(d){ log(info, "a"); } } }')
    path = analysis.store.by_method[0][0]
    assert path.spans == ((0, 0), (0, 0))
    assert _walked_forest(analysis, path) == (((path.steps[0],),),)


def test_restore_loop_local_assignment_is_ambiguous():
    model = parse_program('void m(){ while(c){ x = "a"; } log(info, x); }')
    method, aid = _stmt(model, "m")
    # the zero-iteration arrival leaves x unassigned
    assert restore_statement(method, aid).template == "<*>"


def test_every_kept_method_has_a_store_slot():
    for seed in range(25):
        rng = random.Random(seed + 900)
        model, analysis = _analysis(
            structured_method_program(rng, rng.randint(0, 6))
        )
        assert set(analysis.store.by_method) == set(analysis.pruned.kept)


def test_surviving_paths_are_satisfiable():
    for seed in range(25):
        rng = random.Random(seed + 1300)
        model, analysis = _analysis(
            structured_method_program(rng, rng.randint(0, 8))
        )
        kept = set(analysis.pruned.kept)
        for mid in kept:
            stmt_to_event = {ev.origin[1]: eid for eid, ev in analysis.store.events.items()
                             if ev.origin[0] == mid}
            feasible = oracle_path_set(model.methods[mid].cfg, kept, stmt_to_event)
            assert production_path_set(analysis.store, mid) <= feasible, (seed, mid)


def _branching(model, pruned):
    """The kept methods' graphs, less the straight method `s`, whose only
    walk needs no loops and no in-edges."""
    straight = model.method_by_name("s").cfg
    assert straight.only_walk is not None and model.method_by_name("s").id in pruned.kept
    return [model.methods[mid].cfg for mid in sorted(pruned.kept)
            if model.methods[mid].cfg is not straight]


_TABLES_SOURCE = (
    'void m(){ x = "a"; while(c){ log(info, "in " + x); n(); } '
    'log(info, x + y); } '
    'void n(){ while(d){ log(info, "n"); } if(e){ log(info, "e"); } } '
    'void q(){ if(f){ z = "b"; } } '
    'void s(){ x = "k"; log(info, "s " + x); n(); }'
)  # `q` logs nothing and is pruned


def test_build_store_derives_loops_once_per_method(monkeypatch):
    model = parse_program(_TABLES_SOURCE)
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    built = _count_tables(monkeypatch)
    build_store(model, pruned)
    branching = _branching(model, pruned)
    assert len(branching) == 2
    assert sorted(built["natural_loops"]) == sorted(map(id, branching))


def test_build_store_derives_adjacency_once_per_method(monkeypatch):
    built = _count_tables(monkeypatch)
    # each graph's out-edges are built with it
    model = parse_program(_TABLES_SOURCE)
    pruned = prune(build_call_graph(model), mark_log_methods(model))
    out_edges = {mid: m.cfg.out_edges for mid, m in model.methods.items()}
    assert built["in_edges"] == []
    build_store(model, pruned)
    assert all(m.cfg.out_edges is out_edges[mid] for mid, m in model.methods.items())
    branching = _branching(model, pruned)
    assert len(pruned.kept) == 3 and len(branching) == 2
    assert sorted(built["in_edges"]) == sorted(map(id, branching))


def test_analysis_leaves_every_graph_as_built(datanode_model):
    # a search's in-edges and loops live only as long as the search
    for model in (parse_program(_TABLES_SOURCE), datanode_model):
        before = {mid: (set(m.cfg.__dict__), m.cfg.out_edges)
                  for mid, m in model.methods.items()}
        analysis = analyze_model(model)
        assert any(model.methods[mid].cfg.only_walk is None for mid in analysis.pruned.kept)
        for mid, m in model.methods.items():
            keys, out_edges = before[mid]
            assert set(m.cfg.__dict__) == keys and m.cfg.out_edges is out_edges, mid


def test_long_straight_method_runs_in_process(tmp_path):
    # one walk of 5,000 statements is far deeper than the recursion limit
    n = 5000
    model, analysis = _analysis("void m(){ " + " ".join(
        f'log(info, "step {i}");' for i in range(n)) + " }")
    assert loads_model(dumps_model(model)) == model
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    ds = generate_dataset(GenParams(size=1, anomaly_rate=0.0), model, infection,
                          analysis.store, analysis.pruned, analysis.call_graph)
    assert ds.sequences[0].events == tuple(range(n))
    export_worksheet(analysis.store, model, tmp_path / "worksheet.txt")
    rows = (tmp_path / "worksheet.txt").read_text(encoding="utf-8").splitlines()
    assert rows[-1] == f"EVT {n - 1} info m step {n - 1}"
