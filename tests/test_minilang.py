from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsynth.lowering import LoweringError, lower_to_model
from logsynth.minilang import (
    AstMethod,
    If,
    Invoke,
    KEYWORDS,
    ParseError,
    Return,
    SourceUnit,
    While,
    _position,
    _tokenize,
    parse_unit,
)
from logsynth.model import (
    GUARD_FALSE,
    GUARD_TRUE,
    AssignAct,
    Branch,
    Call,
    Entry,
    Exit,
    Guard,
    Literal,
    Log,
    LoggingStatement,
    Var,
    in_edges,
    natural_loops,
)
from logsynth.pipeline import analyze_model
from logsynth.probing import build_call_graph

from .oracles import parse_by_descent, pretty_print, tokenize_by_character


def parse(text: str):
    return parse_unit(SourceUnit("test.mlog", text))


# ── Parsing ──────────────────────────────────────────────────────────

def test_golden_fixture_parses_to_four_methods(datanode_methods):
    assert [m.name for m in datanode_methods] == [
        "methodA", "methodB", "methodC", "methodD",
    ]
    a = datanode_methods[0]
    assert a.component == "datanode"
    (loop,) = a.body
    assert isinstance(loop, While)
    assert loop.cond == Guard("shouldRun", True)
    log, branch = loop.body
    assert log == LoggingStatement("info", (Literal("Receiving block "), Var("block")))
    assert isinstance(branch, If)
    assert branch.then == (Invoke("methodB"),)
    assert branch.orelse == (Invoke("methodC"),)
    d = datanode_methods[3]
    assert d.body[0] == AssignAct("msg", "Join on responder thread, timed out.")


def test_empty_file_yields_no_methods():
    assert parse("") == []
    assert parse("// only a comment\n") == []


@pytest.mark.parametrize("text", [
    'void m(){ log(info, "a" + x); ',
    "void m(){ // trailing",
], ids=["after-statement", "after-comment"])
def test_missing_brace_reports_eof_position(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 1
    assert err.value.column == len(text) + 1
    assert "end of file" in err.value.message


def test_duplicate_method_name_is_an_error():
    with pytest.raises(ParseError, match="duplicate method name 'm'"):
        parse("void m(){} void m(){}")


def test_duplicate_across_units_is_an_error():
    from logsynth.minilang import parse_units

    units = [
        SourceUnit("a.mlog", "void m(){}"),
        SourceUnit("b.mlog", "void m(){}"),
    ]
    with pytest.raises(ParseError, match="duplicate method name 'm'"):
        parse_units(units)


@pytest.mark.parametrize("text,needle", [
    ('void m(){ log(debug, "x"); }', "log level"),
    ('void m(){ log(info); }', "expected ','"),
    ('void m(){ x = y; }', "string literal"),
    ('void m(){ if (x) log(info, "a"); }', "expected '{'"),
    ('void m(){ "str"; }', "statement"),
    ('void m(){ log(info, "unterminated); }', "unterminated"),
    (r'void m(){ log(info, "bad \q escape"); }', "escape"),
    ('void m($){}', "unexpected character"),
])
def test_syntax_errors(text, needle):
    import re

    with pytest.raises(ParseError, match=re.escape(needle)):
        parse(text)


# Pieces that exercise every lexer rule and its edges: escapes, a raw
# newline or end of file inside a string, a trailing backslash, Unicode
# letters and digits, a word that starts with a digit, whitespace the
# lexer does not accept, and a lone or doubled slash.
_NOISY_PIECES = (
    "void", "log", "info", "if", "m", "_x", "é", "x²", "²", "9a", "7",
    "(", ")", "{", "}", ";", "=", "+", "!", ",", '"', '"', "\\", '\\"',
    "\\\\", "\\n", "\n", " ", "\t", "\r", "\v", "\xa0", "/", "//", "|",
)
# Mostly well-formed pieces, so that most strings tokenize to the end.
_CLEAN_PIECES = (
    "void", "component", "log", "info", "if", "else", "while", "true",
    "m", "x1", "_", "é", "x²", "(", ")", "{", "}", ";", "=", "+", "!", ",",
    '"a b"', '"\\"\\\\"', '""', " ", "\n", "\t", "\r", "// note\n", "// end",
)


def _lexed(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return exc.line, exc.column, exc.message


def _tokens_with_positions(text):
    return [(kind, tok, *_position(text, at)) for kind, tok, at in zip(*_tokenize(text))]


@pytest.mark.parametrize("pieces", [_NOISY_PIECES, _CLEAN_PIECES], ids=["noisy", "clean"])
def test_tokenize_matches_character_loop_reference(pieces):
    rng = random.Random(len(pieces))
    for _ in range(20_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 24)))
        if rng.random() < 0.05:
            text += "\\"
        assert _lexed(_tokens_with_positions, text) == \
            _lexed(tokenize_by_character, text), text


# Statement-level pieces for the parser differential: method headers,
# block openers and closers, whole statements, and, in the noisy set,
# broken pieces with a token missing, wrong or extra, so that every
# parser and lexer error fires somewhere inside otherwise valid units.
_HEADERS = ("void m() {", "void n(){\n", 'component "core" void k() {', "void p()\n{")
_OPENERS = ("if (c) {", "if (!c) {", "if (true) {", "while (false) {", "while (d) {")
_STATEMENTS = ('log(info, "a");', 'log(warn, "b \\" c" + x);', 'log(error, x + y + "z");',
               'log\n(info, "n");', "m();", 'x = "v";', "return;", "\n", " ", "// note\n")
_BROKEN = ('log(debug, "x");', 'log("info", x);', "log(info);", "log(info, );",
           'log(info, "a" +);', 'log(info, "a")', "log", "x = y;", "x;", '"s";', '""',
           "if c {", "if () {", "if (!) {", "else {", "while (c)", "m()", "m(;",
           "return", "void () {", "void m {", "void m(", "component m", "component",
           "{", "(", ")", ";", "}", "} else {", "} else", "9", "$", '"', '"\\q"')


def _unit_text(rng, noisy):
    """A unit of up to 24 pieces whose blocks all close at its end; in a
    noisy unit, one piece in twenty is broken."""
    out, open_blocks = [], []
    for _ in range(rng.randint(0, 24)):
        if noisy and rng.random() < 0.05:
            out.append(rng.choice(_BROKEN))
        elif not open_blocks:
            out.append(rng.choice(_HEADERS))
            open_blocks.append("void")
        elif rng.random() < 0.2:
            opener = rng.choice(_OPENERS)
            out.append(opener)
            open_blocks.append(opener[:2])
        elif rng.random() < 0.3:
            if open_blocks.pop() == "if" and rng.random() < 0.5:
                out.append("} else {")
                open_blocks.append("else")
            else:
                out.append("}")
        else:
            out.append(rng.choice(_STATEMENTS))
    return "".join(out) + "}" * len(open_blocks)


def _log_lines(body):
    lines = []
    for stmt in body:
        if isinstance(stmt, LoggingStatement):
            lines.append(stmt.line)
        elif isinstance(stmt, If):
            lines += _log_lines(stmt.then) + _log_lines(stmt.orelse or ())
        elif isinstance(stmt, While):
            lines += _log_lines(stmt.body)
    return lines


def _parsed(parser, text):
    try:
        methods = parser(text)
    except ParseError as exc:
        return exc.line, exc.column, exc.message
    return methods, [_log_lines(m.body) for m in methods]


@pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "clean"])
def test_parse_matches_recursive_descent_reference(noisy):
    rng = random.Random(noisy)
    parsed = 0
    for _ in range(10_000):
        text = _unit_text(rng, noisy)
        result = _parsed(parse, text)
        assert result == _parsed(parse_by_descent, text), text
        parsed += isinstance(result[0], list)
    assert parsed > (3_000 if noisy else 6_000)  # most units parse to the end


def test_log_call_lines_count_newlines_before_the_log_keyword():
    (m,) = parse('void m(){\n  x = "a";\r\n  // log(info, "no")\n\n'
                 '  log(info, "one"); log(warn, "two");\n  log(error, "three"); }')
    assert [s.line for s in m.body if isinstance(s, LoggingStatement)] == [5, 5, 6]


def test_thousand_nested_ifs_parse_lower_and_analyze():
    depth = 1000
    text = ("void m(){ " + "if (c) { " * depth + 'log(info, "deep"); '
            + "} " * depth + "}")
    analysis = analyze_model(lower_to_model(parse(text)))
    assert len(analysis.store.events) == 1


def test_string_escapes_round_trip():
    (m,) = parse(r'void m(){ x = "a \"quoted\" \\ backslash"; }')
    assert m.body[0] == AssignAct("x", 'a "quoted" \\ backslash')


def test_conditions():
    (m,) = parse("void m(){ if(true){} if(false){} if(c){} if(!c){} }")
    conds = [s.cond for s in m.body]
    assert conds == [GUARD_TRUE, GUARD_FALSE, Guard("c", True), Guard("c", False)]


# ── Fuzzed round-trip ────────────────────────────────────────────────

_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)
_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r",
                           blacklist_categories=("Cs",)),
    max_size=12,
)


def _conditions():
    return st.one_of(
        st.just(GUARD_TRUE),
        st.just(GUARD_FALSE),
        st.builds(Guard, _ident, st.booleans()),
    )


def _statements(names):
    base = st.one_of(
        st.builds(
            LoggingStatement,
            st.sampled_from(["info", "warn", "error"]),
            st.lists(
                st.one_of(st.builds(Literal, _text), st.builds(Var, _ident)),
                min_size=1, max_size=3,
            ).map(tuple),
        ),
        st.builds(Invoke, st.sampled_from(names)),
        st.builds(AssignAct, _ident, _text),
        st.just(Return()),
    )

    def extend(children):
        blocks = st.lists(children, max_size=3).map(tuple)
        return st.one_of(
            st.builds(If, _conditions(), blocks,
                      st.one_of(st.none(), blocks)),
            st.builds(While, _conditions(), blocks),
        )

    return st.recursive(base, extend, max_leaves=12)


@st.composite
def programs(draw):
    names = draw(st.lists(_ident, min_size=1, max_size=4, unique=True))
    methods = []
    for name in names:
        body = draw(st.lists(_statements(names), max_size=5).map(tuple))
        component = draw(st.one_of(st.none(), st.just("core")))
        methods.append(AstMethod(name, body, component))
    return methods


@settings(max_examples=120, deadline=None)
@given(programs())
def test_pretty_print_round_trip(methods):
    text = pretty_print(methods)
    assert parse_unit(SourceUnit("rt.mlog", text)) == methods


# ── Lowering ─────────────────────────────────────────────────────────

def test_golden_fixture_call_edges(datanode_model):
    assert build_call_graph(datanode_model).edges == {(0, 1), (0, 2), (2, 3)}


def test_minimal_method_lowers_to_entry_exit():
    model = lower_to_model(parse("void m(){}"))
    assert len(model.methods) == 1
    assert not build_call_graph(model).edges
    cfg = model.methods[0].cfg
    assert set(map(type, cfg.nodes.values())) == {Entry, Exit}
    assert cfg.edges == {(0, 1, None)}


def test_while_loop_produces_back_edge():
    model = lower_to_model(parse('void m(){ while(c){ log(info, "x"); } }'))
    cfg = model.methods[0].cfg
    assert cfg.nodes.keys() == {0, 1, 2, 3}
    assert isinstance(cfg.nodes[0], Entry)
    assert cfg.nodes[1] == Branch(Guard("c", True))
    assert isinstance(cfg.nodes[2], Log)
    assert isinstance(cfg.nodes[3], Exit)
    assert cfg.edges == {
        (0, 1, None),
        (1, 2, Guard("c", True)),
        (2, 1, None),  # loop-body exit back to the head
        (1, 3, Guard("c", False)),
    }
    assert natural_loops(cfg, in_edges(cfg)) == ({1: {1, 2}}, {1, 2})


def test_lowering_places_the_parsers_statements():
    (m,) = parse('void m(){ x = "a"; log(info, "v=" + x); }')
    assign, log = m.body
    cfg = lower_to_model([m]).methods[0].cfg
    assert cfg.nodes[1] is assign
    assert cfg.nodes[2].stmt is log


def test_unresolved_invoke_target_names_the_callee():
    with pytest.raises(LoweringError, match="undeclared method 'ghost'"):
        lower_to_model(parse("void m(){ ghost(); }"))


def _count_statements(body, skip_returns):
    n = 0
    for stmt in body:
        if isinstance(stmt, Return):
            n += 0 if skip_returns else 1
            continue
        n += 1
        if isinstance(stmt, If):
            n += _count_statements(stmt.then, skip_returns)
            n += _count_statements(stmt.orelse or (), skip_returns)
        elif isinstance(stmt, While):
            n += _count_statements(stmt.body, skip_returns)
    return n


def _count_invokes(body):
    n = 0
    for stmt in body:
        if isinstance(stmt, Invoke):
            n += 1
        elif isinstance(stmt, If):
            n += _count_invokes(stmt.then) + _count_invokes(stmt.orelse or ())
        elif isinstance(stmt, While):
            n += _count_invokes(stmt.body)
    return n


@settings(max_examples=100, deadline=None)
@given(programs())
def test_lowering_node_and_edge_counts(methods):
    model = lower_to_model(methods)
    for mid, ast in enumerate(methods):
        cfg = model.methods[mid].cfg
        # every non-return statement owns one node; returns share EXIT
        expected = _count_statements(ast.body, skip_returns=True) + 2
        assert len(cfg.nodes) == expected
    total_invokes = sum(_count_invokes(m.body) for m in methods)
    assert sum(len(act.callees) for m in model.methods.values()
               for act in m.cfg.nodes.values() if isinstance(act, Call)) == total_invokes
