from __future__ import annotations

import random

import pytest

from logsynth.errors import LogsynthError
from logsynth.model import loads_model
from logsynth.probing import (
    LoggingApiConfig,
    build_call_graph,
    condense,
    mark_log_methods,
)

from .modelgen import call_graph_model, parse_program
from .oracles import kosaraju_sccs


def test_golden_call_graph(datanode_model):
    cg = build_call_graph(datanode_model)
    assert cg.edges == frozenset({(0, 1), (0, 2), (2, 3)})
    assert all(len(comp) == 1 for comp in cg.sccs)
    assert not any(cg.in_cycle(m) for m in cg.nodes)


def test_self_recursion_marks_in_cycle():
    model = parse_program("void m(){ m(); } void quiet(){}")
    cg = build_call_graph(model)
    assert cg.in_cycle(0)
    assert not cg.in_cycle(1)


def test_mutual_recursion_scc():
    model = parse_program(
        "void a(){ b(); } void b(){ a(); } void c(){ a(); }"
    )
    cg = build_call_graph(model)
    assert cg.scc_of[0] == cg.scc_of[1]
    assert cg.scc_of[2] != cg.scc_of[0]
    assert cg.in_cycle(0) and cg.in_cycle(1)
    assert not cg.in_cycle(2)


def test_scc_partition_matches_kosaraju_oracle():
    for seed in range(25):
        model = call_graph_model(random.Random(seed), 200, avg_out=2.0)
        cg = build_call_graph(model)
        mine = {frozenset(comp) for comp in cg.sccs}
        assert mine == kosaraju_sccs(sorted(cg.nodes), sorted(cg.edges))


def test_condensation_is_acyclic():
    for seed in range(20):
        model = call_graph_model(random.Random(seed + 100), 120, avg_out=2.5)
        cg = build_call_graph(model)
        # every cross-component edge must point from a later component to
        # an earlier one (components are emitted callee-first)
        for caller, callee in cg.edges:
            s, t = cg.scc_of[caller], cg.scc_of[callee]
            if s != t:
                assert s > t


def test_golden_log_methods(datanode_model):
    marked = mark_log_methods(datanode_model)
    names = {datanode_model.methods[m].name for m in marked}
    assert names == {"methodA", "methodB", "methodD"}


def test_no_logging_statements_marks_nothing():
    model = parse_program("void a(){ b(); } void b(){ x = \"quiet\"; }")
    assert mark_log_methods(model) == set()


def test_external_logging_api_marks_caller():
    text = "\n".join([
        "M 0 x",
        "A 0 0 ENTRY",
        "A 0 1 CALL slf4j_info",
        "A 0 2 EXIT",
        "E 0 0 1",
        "E 0 1 2",
    ])
    model = loads_model(text)
    assert mark_log_methods(model) == set()  # not configured by default
    config = LoggingApiConfig(frozenset({"log", "slf4j_info"}))
    assert mark_log_methods(model, config) == {0}


def test_config_file_loading(tmp_path):
    path = tmp_path / "apis.txt"
    path.write_text("# common wrappers\nslf4j_info\nlog4j_warn\n", encoding="utf-8")
    config = LoggingApiConfig.load(path)
    assert config.names == frozenset({"slf4j_info", "log4j_warn"})
    with pytest.raises(LogsynthError):
        LoggingApiConfig(frozenset())


def test_marking_is_order_independent():
    source_a = (
        'void a(){ log(info, "x"); } void b(){ a(); } void c(){}'
    )
    source_b = (
        'void c(){} void b(){ a(); } void a(){ log(info, "x"); }'
    )
    names_a = {parse_program(source_a).methods[m].name
               for m in mark_log_methods(parse_program(source_a))}
    names_b = {parse_program(source_b).methods[m].name
               for m in mark_log_methods(parse_program(source_b))}
    assert names_a == names_b == {"a"}


def test_condense_helper_matches_build(datanode_model):
    cg = build_call_graph(datanode_model)
    again = condense(cg.nodes, cg.edges)
    assert again.scc_of == cg.scc_of
    assert again.edges == cg.edges
