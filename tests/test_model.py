from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsynth.model import (
    AssignAct,
    Branch,
    Call,
    Entry,
    ExecutionGraph,
    Exit,
    Guard,
    MethodNode,
    ModelFormatError,
    ProgramModel,
    _split_parts,
    _unescape_text,
    dumps_model,
    in_edges,
    loads_model,
    load_model,
    model_sha256,
    natural_loops,
    save_model,
    strong_components,
)

from .modelgen import (
    call_graph_model,
    minimal_model_text,
    parse_program,
    structured_program,
    with_ambiguous_calls,
)
from .oracles import (
    _sweep,
    cycle_nodes,
    dfs_all_walks,
    kosaraju_sccs,
    loops_by_removal,
    on_cycle,
    split_fields_by_character,
    unescape_by_character,
)


def test_golden_model_round_trips(datanode_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(datanode_model, path)
    assert load_model(path) == datanode_model


def test_empty_model_round_trips():
    empty = ProgramModel(methods={})
    assert loads_model(dumps_model(empty)) == empty


def test_dump_is_byte_stable(datanode_model):
    text = dumps_model(datanode_model)
    assert dumps_model(loads_model(text)) == text


def test_hand_written_minimal_file():
    model = loads_model(minimal_model_text())
    assert len(model.methods) == 1
    assert model.methods[0].name == "solo"
    cfg = model.methods[0].cfg
    assert isinstance(cfg.nodes[0], Entry)
    assert isinstance(cfg.nodes[1], Exit)


def test_edge_to_missing_method_id_is_cited():
    text = minimal_model_text() + "C 0 1 99\n"
    with pytest.raises(ModelFormatError, match="99"):
        loads_model(text)


def test_duplicate_method_id_rejected():
    text = "M 0 a\nM 0 b\n"
    with pytest.raises(ModelFormatError, match="duplicate method id 0"):
        loads_model(text)


def test_malformed_guard_rejected():
    text = "\n".join([
        "M 0 m",
        "A 0 0 ENTRY",
        "A 0 1 EXIT",
        "E 0 0 1 MAYBE:x",
    ])
    with pytest.raises(ModelFormatError, match="malformed guard"):
        loads_model(text)


def test_records_out_of_order_rejected():
    text = "\n".join([
        "M 0 m",
        "A 0 0 ENTRY",
        "A 0 1 EXIT",
        "E 0 0 1",
        "M 1 late",
    ])
    with pytest.raises(ModelFormatError, match="out of order"):
        loads_model(text)


def test_non_dense_method_ids_rejected():
    text = "M 1 only\nA 1 0 ENTRY\nA 1 1 EXIT\nE 1 0 1\n"
    with pytest.raises(ModelFormatError, match="dense"):
        loads_model(text)


def test_exit_unreachable_rejected():
    text = "\n".join([
        "M 0 m",
        "A 0 0 ENTRY",
        "A 0 1 EXIT",
    ])
    with pytest.raises(ModelFormatError, match="EXIT not reachable"):
        loads_model(text)


def test_branch_guard_invariants_enforced():
    base = [
        "M 0 m",
        "A 0 0 ENTRY",
        "A 0 1 BRANCH T:x",
        "A 0 2 EXIT",
    ]
    # only one out-edge
    with pytest.raises(ModelFormatError, match="exactly 2"):
        loads_model("\n".join(base + ["E 0 0 1", "E 0 1 2 T:x"]))
    # non-complementary guards
    with pytest.raises(ModelFormatError, match="complementary"):
        loads_model("\n".join(base + [
            "E 0 0 1", "E 0 1 2 T:x", "E 0 1 2 T:y",
        ]))
    # guard leaving a non-branch node
    with pytest.raises(ModelFormatError, match="non-branch"):
        loads_model("\n".join([
            "M 0 m", "A 0 0 ENTRY", "A 0 1 EXIT", "E 0 0 1 T:x",
        ]))


def _with_records(*records: str) -> str:
    """A one-method model file with `records` added after the records
    of their own type."""
    groups = {"M": ["M 0 m"], "A": ["A 0 0 ENTRY", "A 0 1 EXIT"],
              "E": ["E 0 0 1"], "C": []}
    for record in records:
        groups.setdefault(record.split()[0], []).append(record)
    return "\n".join(line for lines in groups.values() for line in lines) + "\n"


@pytest.mark.parametrize("records,message", [
    (("X 0 0",), "unknown record type 'X'"),
    (("A 0 2 JUMP",), "unknown activity kind 'JUMP'"),
    (("A 0 2 LOG info|L:end\\",), "dangling escape in 'end\\\\'"),
    (("A 0 2 LOG info|L:bad \\q",), "invalid escape '\\q'"),
    (("A 0 2 ASSIGN x|\\",), "dangling escape"),
    (("A 0 2 LOG",), "LOG needs a payload"),
    (("A 0 2 LOG info",), "malformed LOG payload 'info'"),
    (("A 0 2 ASSIGN x",), "malformed ASSIGN payload 'x'"),
    (("A 0 two EXIT",), "activity id must be an integer, got 'two'"),
    (("C x 1 0",), "caller id must be an integer"),
    (("C 1 0 0",), "call edge from missing method id 1"),
    (("A 0 2 CALL audit", "C 0 2 0"), "CALL cannot be both external and internal"),
    (("C 0 1 99",), "call edge to missing method id 99"),
    (("C 0 1 0",), "call edge 0->0: site 1 is not a CALL activity"),  # an EXIT
    (("C 0 5 0",), "call edge 0->0: site 5 is not a CALL activity"),  # no activity
    (("M 1 a b c",), "line 2: malformed M record"),
    (("A 0 2",), "line 4: malformed A record"),
    (("E 0 1",), "line 5: malformed E record"),
    (("C 0 1",), "line 5: malformed C record"),
    (("A 0 1 LOG info|L:x",), "line 4: duplicate activity id 1 in method 0"),
    (("A 3 0 ENTRY",), "line 4: activity for missing method id 3"),
    (("E 4 0 1",), "line 5: edge for missing method id 4"),
    (("E 0 x 1",), "line 5: edge source must be an integer, got 'x'"),
    (("E 0 0 y",), "line 5: edge target must be an integer, got 'y'"),
    (("C 0 s 0",), "line 5: site activity id must be an integer, got 's'"),
    (("C 0 1 z",), "line 5: callee id must be an integer, got 'z'"),
    (("M 2 other", "A 2 0 ENTRY", "A 2 1 EXIT", "E 2 0 1"),
     "method ids must be dense 0..N-1, got [0, 2]"),
    (("E 0 1 7",), "method 0: edge 1->7 references missing activity"),
    (("M 1 other bad!", "A 1 0 ENTRY", "A 1 1 EXIT", "E 1 0 1"),
     "method 1: invalid component name 'bad!'"),
    (("A 0 2 BRANCH T:x", "E 0 2 1 T:x"),
     "method 0: branch 2 must have exactly 2 guarded out-edges"),
    (("A 0 2 BRANCH T:x", "E 0 2 1 T:x", "E 0 2 1 T:y"),
     "method 0: branch 2 out-guards are not complementary"),
    (("E 0 1 0",), "method 0: EXIT activity 1 has out-edges"),
    (("M 1 a,b", "A 1 0 ENTRY", "A 1 1 EXIT", "E 1 0 1"),
     "method 1: name 'a,b' holds a comma"),
])
def test_malformed_records_are_model_format_errors(records, message):
    import re

    with pytest.raises(ModelFormatError, match=re.escape(message)):
        loads_model(_with_records(*records))


def _scanned(scan, text):
    try:
        return scan(text)
    except ModelFormatError as exc:
        return str(exc)


def test_payload_scanning_matches_character_loop_reference():
    pieces = ("a", "é", "|", "\\", "\\\\", "\\|", "\\n", "\\r", "\\x",
              "\n", "\r", "L:", "V:")
    rng = random.Random(7)
    for _ in range(20_000):
        payload = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        fields = _split_parts(payload)
        assert fields == split_fields_by_character(payload), payload
        for text in (payload, *fields):
            assert _scanned(_unescape_text, text) == \
                _scanned(unescape_by_character, text), text


def test_log_payload_escapes_round_trip():
    text = "\n".join([
        "M 0 m",
        "A 0 0 ENTRY",
        r"A 0 1 LOG warn|L:pipe \| and \\ slash\nnewline|V:v",
        "A 0 2 EXIT",
        "E 0 0 1",
        "E 0 1 2",
    ]) + "\n"
    model = loads_model(text)
    stmt = model.methods[0].cfg.nodes[1].stmt
    assert stmt.parts[0].text == "pipe | and \\ slash\nnewline"
    assert dumps_model(model) == text


def test_external_call_survives_round_trip():
    text = "\n".join([
        "M 0 m",
        "A 0 0 ENTRY",
        "A 0 1 CALL slf4j_info",
        "A 0 2 EXIT",
        "E 0 0 1",
        "E 0 1 2",
    ])
    model = loads_model(text)
    call = model.methods[0].cfg.nodes[1]
    assert call == Call(callees=(), external="slf4j_info")
    assert loads_model(dumps_model(model)) == model


def test_ambiguous_dispatch_collects_all_callees():
    text = "\n".join([
        "M 0 a", "M 1 b", "M 2 c",
        "A 0 0 ENTRY", "A 0 1 CALL", "A 0 2 EXIT",
        "A 1 0 ENTRY", "A 1 1 EXIT",
        "A 2 0 ENTRY", "A 2 1 EXIT",
        "E 0 0 1", "E 0 1 2", "E 1 0 1", "E 2 0 1",
        "C 0 1 1", "C 0 1 2",
    ])
    model = loads_model(text)
    assert model.methods[0].cfg.nodes[1].callees == (1, 2)


def test_call_keeps_its_callees_sorted_and_distinct():
    assert Call(callees=(2, 1, 2)).callees == (1, 2)
    assert Call(callees=(2, 1)) == Call(callees=(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(5, 60))
def test_fuzzed_flat_models_round_trip(seed, size):
    rng = random.Random(seed)
    model = call_graph_model(rng, size)
    assert loads_model(dumps_model(model)) == model
    # several C records for one site round-trip as one ambiguous CALL
    ambiguous = with_ambiguous_calls(model, rng)
    text = dumps_model(ambiguous)
    assert loads_model(text) == ambiguous
    assert dumps_model(loads_model(text)) == text


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_fuzzed_structured_models_round_trip(seed):
    model = parse_program(structured_program(random.Random(seed), 5))
    assert loads_model(dumps_model(model)) == model


def test_thousand_method_model_round_trips():
    model = call_graph_model(random.Random(416), 1000)
    text = dumps_model(model)
    again = loads_model(text)
    assert again == model
    assert dumps_model(again) == text



# ── Canonical text and its recorded digest ───────────────────────────

def _canonical_corpus(datanode_model) -> list[str]:
    """Seeded texts that dumps_model wrote, with every record kind,
    ambiguous call sites, components, escaped literals and negative ids."""
    texts = [dumps_model(datanode_model), "\n",
             "M 0 m\nA 0 -2 ENTRY\nA 0 -1 EXIT\nE 0 -2 -1\n"]
    for seed in range(12):
        rng = random.Random(seed)
        texts.append(dumps_model(with_ambiguous_calls(call_graph_model(rng, 8), rng)))
        texts.append(dumps_model(parse_program(structured_program(rng, 4))))
    return texts


def _int_token(rng, toks):
    at = [i for i, tok in enumerate(toks) if tok.lstrip("-").isdigit()]
    return rng.choice(at) if at else None


def _perturbed(text: str, rng: random.Random) -> str:
    """`text` with one random edit of a kind that loads_model may accept
    but dumps_model would not write, or would write just the same."""
    lines = text.split("\n")[:-1]
    if not lines:
        return rng.choice(["", "\n\n", "# empty\n", " \n"])
    at = rng.randrange(len(lines))
    line = lines[at]
    edit = rng.randrange(16)
    if edit == 0:    # swap two lines of one record kind
        same = [i for i, other in enumerate(lines) if other[:1] == line[:1]]
        j = rng.choice(same)
        lines[at], lines[j] = lines[j], line
    elif edit == 1:  # swap two neighbouring lines, of one kind or of two
        j = min(at + 1, len(lines) - 1)
        lines[at], lines[j] = lines[j], line
    elif edit == 2:  # repeat an E or C record
        dup = [i for i, other in enumerate(lines) if other[:1] in "EC"]
        if dup:
            j = rng.choice(dup)
            lines.insert(j, lines[j])
    elif edit in (3, 4, 5, 6):  # another gap: two spaces, a tab, \x1c, \r
        gap = ("  ", "\t", "\x1c", " \r")[edit - 3]
        spaces = [i for i, ch in enumerate(line) if ch == " "]
        if spaces:
            i = rng.choice(spaces)
            lines[at] = line[:i] + gap + line[i + 1:]
    elif edit == 7:  # a trailing space or carriage return
        lines[at] = line + rng.choice([" ", "\r", "\r\r", " \r"])
    elif edit == 8:  # a carriage return anywhere in a line
        i = rng.randrange(len(line) + 1)
        lines[at] = line[:i] + "\r" + line[i:]
    elif edit == 9:  # an id written as 07 or +3
        toks = line.split(" ")
        i = _int_token(rng, toks)
        if i is not None:
            toks[i] = rng.choice(["0", "+", "00"]) + toks[i]
            lines[at] = " ".join(toks)
    elif edit == 10:  # a comment or a blank line
        lines.insert(at, rng.choice(["# note", "", "  ", "\t# indented note"]))
    elif edit == 11:  # a payload on ENTRY or EXIT
        ends = [i for i, other in enumerate(lines) if other.endswith(("ENTRY", "EXIT"))]
        if ends:
            lines[rng.choice(ends)] += rng.choice([" x", "  ", " "])
    elif edit == 12:  # leading whitespace
        lines[at] = rng.choice([" ", "\t"]) + line
    elif edit == 13:  # no final newline, or one more
        return "\n".join(lines) + rng.choice(["", "\n\n", "\n \n"])
    else:            # an escaped, or a raw, character in a literal or name
        fields = [i for i, ch in enumerate(line) if ch == ":" and line[:2] == "A "]
        if fields:
            i = rng.choice(fields) + 1
            insert = rng.choice(["\\|", "\\\\", "\\n", "\\r", "\r", "\x1c", "é"])
            lines[at] = line[:i] + insert + line[i:]
    return "\n".join(lines) + "\n"


def test_recorded_digest_iff_text_is_what_dumps_model_writes(datanode_model):
    import hashlib

    rng = random.Random(15)
    seen = {"canonical": 0, "other": 0, "rejected": 0}
    for base in _canonical_corpus(datanode_model):
        variants = [base] + [_perturbed(base, rng) for _ in range(80)]
        variants += [_perturbed(_perturbed(base, rng), rng) for _ in range(20)]
        for text in variants:
            try:
                model = loads_model(text)
            except ModelFormatError:
                seen["rejected"] += 1
                continue
            canonical = dumps_model(model) == text
            assert model.text_sha256 == (
                hashlib.sha256(text.encode()).hexdigest() if canonical else None
            ), repr(text)
            seen["canonical" if canonical else "other"] += 1
    assert seen["canonical"] >= 300 and seen["other"] >= 1500 and seen["rejected"], seen


def test_only_a_loaded_canonical_text_records_a_digest(datanode_model):
    import dataclasses
    import hashlib

    text = dumps_model(datanode_model)
    digest = hashlib.sha256(text.encode()).hexdigest()
    loaded = loads_model(text)
    assert loaded.text_sha256 == digest == model_sha256(loaded)
    assert datanode_model.text_sha256 is None
    assert model_sha256(datanode_model) == digest
    assert datanode_model.text_sha256 is None  # a computed digest is not kept
    assert loaded == datanode_model  # the digest takes no part in equality
    assert dataclasses.replace(loaded).text_sha256 is None
    with pytest.raises(TypeError):
        ProgramModel(methods={}, text_sha256=digest)


# ── Loop analysis ────────────────────────────────────────────────────

def _random_graph(rng: random.Random) -> ExecutionGraph:
    """A graph in none of lowering's shapes: irreducible cycles,
    self-loops, parallel guarded edges and unreachable nodes all occur."""
    n = rng.randint(1, 12)
    nodes = {0: Entry(), n + 1: Exit()}
    for aid in range(1, n + 1):
        nodes[aid] = (Branch(Guard("c", True)) if rng.random() < 0.6
                      else AssignAct("c", "v"))
    edges = set()
    for _ in range(rng.randint(n, 3 * n)):
        frm, to = rng.randrange(n + 1), rng.randrange(1, n + 2)
        if isinstance(nodes[frm], Branch):
            value = rng.random() < 0.5
            edges.add((frm, to, Guard("c", value)))
            if rng.random() < 0.2:
                edges.add((frm, to, Guard("c", not value)))
        else:
            edges.add((frm, to, None))
    return ExecutionGraph(nodes, frozenset(edges))


def test_natural_loops_match_removal_oracle_on_random_graphs():
    shapes = {"loops": 0, "self-loop heads": 0, "unreachable": 0,
              "cycle nodes in no loop": 0}
    for seed in range(400):
        cfg = _random_graph(random.Random(seed))
        loops, cyclic = natural_loops(cfg, in_edges(cfg))
        assert loops == loops_by_removal(cfg), seed
        assert cyclic == cycle_nodes(cfg), seed
        shapes["loops"] += bool(loops)
        shapes["cycle nodes in no loop"] += bool(cyclic.difference(*loops.values()))
        shapes["self-loop heads"] += any((h, h) == e[:2] for h in loops
                                         for e in cfg.edges)
        shapes["unreachable"] += len(cfg.reachable) < len(cfg.nodes)
    assert min(shapes.values()) >= 20, shapes


def test_only_walk_and_reachable_match_brute_force_on_random_graphs():
    # unguarded cycles, dead ends, forks, stray guarded edges and edges
    # out of EXIT all occur
    shapes = {"only walk": 0, "fork or guard": 0, "no way out": 0, "EXIT leads on": 0}
    loaded = 0
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        nodes = {0: Entry(), n + 1: Exit()}
        edges = set()
        for frm in range(n + 2):
            if 0 < frm <= n:
                nodes[frm] = AssignAct("c", "v")
            fanout = rng.choice((0, 1, 1, 1, 1, 2)) if frm <= n else int(rng.random() < 0.35)
            for _ in range(fanout):
                guard = Guard("c", True) if rng.random() < 0.05 else None
                edges.add((frm, rng.randrange(1, n + 2), guard))
        cfg = ExecutionGraph(nodes, frozenset(edges))
        reach, work = {0}, [0]
        while work:
            at = work.pop()
            for frm, to, _ in edges:
                if frm == at and to not in reach:
                    reach.add(to)
                    work.append(to)
        assert cfg.reachable == reach, seed
        out = {a: [g for frm, _, g in edges if frm == a] for a in reach}
        exits = out.pop(n + 1, None)
        straight = exits == [] and all(g == [None] for g in out.values())
        walk = cfg.only_walk
        assert (walk is not None) == straight, seed
        if walk is not None:
            assert [tuple(a for a, _ in v) for v in dfs_all_walks(cfg, cfg.exit)] == [walk]
            assert set(walk) == reach and loops_by_removal(cfg) == {}
        shapes["only walk"] += straight
        shapes["fork or guard"] += any(g != [None] for g in out.values() if g)
        shapes["no way out"] += n + 1 not in reach
        shapes["EXIT leads on"] += bool(exits) and all(g == [None] for g in out.values())
        # the graph's twin read back from its text builds the same tables
        try:
            twin = loads_model(dumps_model(ProgramModel({0: MethodNode(0, "m", cfg)})))
        except ModelFormatError:
            continue
        loaded += 1
        twin = twin.methods[0].cfg
        assert (twin.entry, twin.exit, twin.out_edges, twin.only_walk, twin.reachable) == \
            (cfg.entry, cfg.exit, cfg.out_edges, walk, reach), seed
    assert min(shapes.values()) >= 20 and loaded >= 100, (shapes, loaded)


def test_graph_without_one_entry_builds_and_is_rejected_when_used():
    cfg = ExecutionGraph({0: Entry(), 1: Entry(), 2: Exit()},
                         frozenset({(0, 2, None), (1, 2, None)}))
    assert cfg.out_edges == {0: ((0, 2, None),), 1: ((1, 2, None),)}
    ids = {id(edge) for edge in cfg.edges}  # the edges themselves, not copies
    assert all(id(edge) in ids for succ in cfg.out_edges.values() for edge in succ)
    assert cfg.only_walk is None and cfg.reachable == frozenset()
    message = "execution graph must have exactly one ENTRY node, found 2"
    for end in ("entry", "exit"):  # ENTRY's count is checked first
        with pytest.raises(ModelFormatError, match=message):
            getattr(cfg, end)
    with pytest.raises(ModelFormatError, match=message):
        loads_model(dumps_model(ProgramModel({0: MethodNode(0, "m", cfg)})))
    cfg = ExecutionGraph({0: Entry(), 1: AssignAct("c", "v")}, frozenset({(0, 1, None)}))
    with pytest.raises(ModelFormatError, match="exactly one EXIT node, found 0"):
        cfg.exit


def test_natural_loops_skip_irreducible_cycles():
    # entry branches into a two-node cycle at both nodes: neither node
    # dominates the other, so the cycle has no head; the self-loop does
    nodes = {0: Entry(), 1: Branch(Guard("c", True)), 2: Branch(Guard("d", True)),
             3: Branch(Guard("e", True)), 4: Exit()}
    edges = {(0, 1, None), (1, 2, Guard("c", True)), (1, 3, Guard("c", False)),
             (2, 3, Guard("d", True)), (2, 4, Guard("d", False)),
             (3, 2, Guard("e", True)), (3, 3, Guard("e", False))}
    cfg = ExecutionGraph(nodes, frozenset(edges))
    assert natural_loops(cfg, in_edges(cfg)) == (loops_by_removal(cfg), cycle_nodes(cfg)) \
        == ({3: {3}}, {2, 3})


def test_natural_loops_match_removal_oracle_on_structured_programs():
    for seed in range(40):
        model = parse_program(structured_program(random.Random(seed), 5))
        for m in model.methods.values():
            assert natural_loops(m.cfg, in_edges(m.cfg)) == \
                (loops_by_removal(m.cfg), cycle_nodes(m.cfg)), (seed, m.name)


def _random_triples(rng: random.Random):
    """A node -> (node, successor, label) map over nodes 0..n-1 with
    self-loops, parallel edges of distinct labels and unreached nodes,
    and a few starts, repeats allowed."""
    n = rng.randint(1, 14)
    edges: dict[int, list[tuple[int, int, int]]] = {}
    for _ in range(rng.randint(0, 3 * n)):
        frm, to = rng.randrange(n), rng.randrange(n)
        for label in range(rng.choice((1, 1, 1, 2))):
            edges.setdefault(frm, []).append((frm, to, label))
    return edges, [rng.randrange(n) for _ in range(rng.randint(1, 3))], n


def test_strong_components_match_kosaraju_on_random_triple_maps():
    shapes = {"multi-node": 0, "self-loop": 0, "parallel": 0, "unreached": 0,
              "several roots": 0}
    for seed in range(600):
        edges, starts, n = _random_triples(random.Random(seed))
        succ = {u: [v for _, v, _ in out] for u, out in edges.items()}
        reached = set().union(*(_sweep(s, succ, banned=None) for s in starts))
        components, back = strong_components(edges, starts)

        assert sum(map(len, components)) == len(reached), seed
        assert {frozenset(c) for c in components} == kosaraju_sccs(
            sorted(reached), [(u, v) for u in reached for v in succ.get(u, ())]), seed
        index = {m: i for i, comp in enumerate(components) for m in comp}
        assert all(index[v] <= index[u] for u in reached for v in succ.get(u, ())), seed
        assert all(v in succ[u] and index[u] == index[v] for u, v in back), seed
        cyclic = {u for u, v in back if u == v}.union(
            *(comp for comp in components if len(comp) > 1))
        assert cyclic == on_cycle(succ, reached), seed

        shapes["multi-node"] += any(len(comp) > 1 for comp in components)
        shapes["self-loop"] += any(u == v for u, v in back)
        shapes["parallel"] += any(len(set(vs)) < len(vs) for vs in succ.values())
        shapes["unreached"] += len(reached) < n
        shapes["several roots"] += any(index[starts[0]] < index[s] for s in starts)
    assert min(shapes.values()) >= 20, shapes


def test_strong_components_of_a_long_cycle_need_no_recursion():
    n = 50_000
    ring = {u: ((u, (u + 1) % n, None),) for u in range(n)}
    components, back = strong_components(ring, [0])
    assert [sorted(comp) for comp in components] == [list(range(n))]
    assert back == [(n - 1, 0)]
