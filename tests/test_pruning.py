from __future__ import annotations

import random

from logsynth.probing import build_call_graph, condense, mark_log_methods
from logsynth.pruning import Classification, format_classification, prune

from .modelgen import call_graph_model, parse_program
from .oracles import reachable_to_log_methods


def test_golden_classification(datanode_model):
    cg = build_call_graph(datanode_model)
    pruned = prune(cg, mark_log_methods(datanode_model))
    assert pruned.kept == frozenset({0, 1, 2, 3})
    by_name = {datanode_model.methods[m].name: c
               for m, c in pruned.classification.items()}
    # methodA both logs and calls: LOG_METHOD wins
    assert by_name == {
        "methodA": Classification.LOG_METHOD,
        "methodB": Classification.LOG_METHOD,
        "methodC": Classification.LOG_INDUCING,
        "methodD": Classification.LOG_METHOD,
    }


def test_no_log_methods_prunes_everything():
    model = parse_program("void a(){ b(); } void b(){}")
    cg = build_call_graph(model)
    pruned = prune(cg, set())
    assert pruned.kept == frozenset()
    assert not pruned.edges
    assert set(pruned.classification.values()) == {Classification.PRUNED}


def test_pruned_methods_have_no_kept_edges():
    model = parse_program(
        'void logger(){ log(warn, "w"); }'
        "void top(){ logger(); noisy(); }"
        "void noisy(){ quietest(); }"
        "void quietest(){}"
    )
    cg = build_call_graph(model)
    pruned = prune(cg, mark_log_methods(model))
    names = {m: model.methods[m].name for m in cg.nodes}
    kept_names = {names[m] for m in pruned.kept}
    assert kept_names == {"logger", "top"}
    for a, b in pruned.edges:
        assert a in pruned.kept and b in pruned.kept


def test_500_node_oracle_equivalence():
    model = call_graph_model(random.Random(515), 500, avg_out=1.8)
    cg = build_call_graph(model)
    logs = mark_log_methods(model)
    pruned = prune(cg, logs)
    assert pruned.kept == frozenset(
        reachable_to_log_methods(cg.nodes, cg.edges, logs)
    )


def test_soundness_no_log_method_pruned():
    for seed in range(30):
        model = call_graph_model(random.Random(seed), 80)
        cg = build_call_graph(model)
        logs = mark_log_methods(model)
        pruned = prune(cg, logs)
        assert logs <= pruned.kept


def test_completeness_against_dfs_oracle():
    for seed in range(30):
        model = call_graph_model(random.Random(seed + 3000), 150, avg_out=2.0)
        cg = build_call_graph(model)
        logs = mark_log_methods(model)
        pruned = prune(cg, logs)
        oracle = reachable_to_log_methods(cg.nodes, cg.edges, logs)
        assert pruned.kept == frozenset(oracle)


def test_monotonicity_adding_a_log_method():
    for seed in range(20):
        model = call_graph_model(random.Random(seed + 60), 60)
        cg = build_call_graph(model)
        logs = set(mark_log_methods(model))
        base = prune(cg, logs).kept
        extra = next((m for m in sorted(cg.nodes) if m not in logs), None)
        if extra is None:
            continue
        grown = prune(cg, logs | {extra}).kept
        assert base <= grown


def test_idempotence_on_induced_subgraph():
    for seed in range(20):
        model = call_graph_model(random.Random(seed + 90), 70)
        cg = build_call_graph(model)
        logs = mark_log_methods(model)
        first = prune(cg, logs)
        sub = condense(first.kept, first.edges)
        second = prune(sub, {m for m in logs if m in first.kept})
        assert second.kept == first.kept


def test_classification_dump_format(datanode_model):
    cg = build_call_graph(datanode_model)
    pruned = prune(cg, mark_log_methods(datanode_model))
    names = {m: datanode_model.methods[m].name for m in cg.nodes}
    dump = format_classification(pruned, names)
    assert dump.splitlines() == [
        "methodA LOG_METHOD",
        "methodB LOG_METHOD",
        "methodC LOG_INDUCING",
        "methodD LOG_METHOD",
    ]


def test_entry_candidates_helper(datanode_analysis):
    assert datanode_analysis.pruned.entry_candidates() == [0]
