from __future__ import annotations

import hashlib
import random
import re
from itertools import chain, combinations, repeat

import pytest

from logsynth import generation
from logsynth.errors import LogsynthError
from logsynth.generation import (
    ConfigError,
    ExhaustionError,
    GenParams,
    Label,
    LogDataset,
    LogSequence,
    UnreachableSeedError,
    Walker,
    generate_dataset,
    read_dataset,
    sequence_rng,
    write_dataset,
)
from logsynth.labeling import AnnotationSet, Status, propagate
from logsynth.model import (
    AssignAct, ExecutionGraph, Literal, Log, LoggingStatement, MethodNode, ProgramModel,
    loads_model,
)
from logsynth.pathfinding import CallStep, LogStep, PathLimits
from logsynth.pipeline import analyze_model

from .conftest import (
    EP_A_EMPTY,
    EV_DELETE_FAILED,
    EV_RECEIVED,
    EV_RECEIVING,
    EV_TIMED_OUT,
)
from .modelgen import (
    layered_model_source,
    parse_program,
    structured_program,
    with_ambiguous_calls,
)
from .oracles import forest_by_counts, walk_space
from .test_model import _random_graph


def _params(**kw) -> GenParams:
    base = dict(size=10, anomaly_rate=0.0, seed=11)
    base.update(kw)
    return GenParams(**base)


def _walker(analysis, infection, params) -> Walker:
    return Walker(analysis.model, analysis.store, infection,
                  analysis.call_graph, params)


class _UnforcedWalker(Walker):
    """A walker that decides no call as forced, so every call takes the
    general policy: the reference for the forced calls."""

    def _forced(self, key):
        return None


def _cycle_info(call_graph):
    cycle_sccs = {call_graph.scc_of[m] for m in call_graph.nodes
                  if call_graph.in_cycle(m)}
    return call_graph.scc_of, cycle_sccs


# ── Single walks on the golden fixture ───────────────────────────────

def test_normal_walk_is_forced(datanode_analysis, datanode_infection):
    walker = _walker(datanode_analysis, datanode_infection, _params(max_loop_reps=1))
    for seed in range(20):
        events, _ = walker.walk(0, Label.NORMAL, random.Random(seed))
        assert events == (EV_RECEIVING, EV_RECEIVED)


def test_anomaly_walk_is_forced(datanode_analysis, datanode_infection):
    walker = _walker(datanode_analysis, datanode_infection, _params(max_loop_reps=1))
    for seed in range(20):
        events, _ = walker.walk(0, Label.ANOMALY, random.Random(seed))
        assert events == (EV_RECEIVING, EV_DELETE_FAILED, EV_TIMED_OUT)


def test_leaf_entry_normal(datanode_analysis, datanode_infection):
    walker = _walker(datanode_analysis, datanode_infection, _params())
    events, _ = walker.walk(1, Label.NORMAL, random.Random(0))
    assert events == (EV_RECEIVED,)


def test_leaf_entry_anomaly_unreachable(datanode_analysis, datanode_infection):
    walker = _walker(datanode_analysis, datanode_infection, _params())
    with pytest.raises(UnreachableSeedError):
        walker.walk(1, Label.ANOMALY, random.Random(0))


def test_loop_replay_bounds(datanode_analysis, datanode_infection):
    walker = _walker(datanode_analysis, datanode_infection, _params(max_loop_reps=3))
    seen = set()
    for seed in range(60):
        events, _ = walker.walk(0, Label.NORMAL, random.Random(seed))
        seen.add(events)
    assert seen == {
        (EV_RECEIVING, EV_RECEIVED) * k for k in (1, 2, 3)
    }


def test_walk_space_equality_both_modes(datanode_analysis, datanode_infection):
    params = _params(max_loop_reps=2)
    walker = _walker(datanode_analysis, datanode_infection, params)
    scc_of, cycle_sccs = _cycle_info(datanode_analysis.call_graph)
    for mode in (Label.NORMAL, Label.ANOMALY):
        legal = walk_space(datanode_analysis.store, datanode_infection,
                           scc_of, cycle_sccs, params, 0, mode)
        observed = set()
        for seed in range(200):
            events, _ = walker.walk(0, mode, random.Random(seed))
            observed.add(events)
            assert events in legal
        assert observed == legal


def test_walks_never_emit_empty_sequences(datanode_analysis, datanode_infection):
    # the flagged loop-skipping path stays selectable mid-walk but a
    # sequence as a whole must log something
    params = _params(max_loop_reps=1)
    walker = _walker(datanode_analysis, datanode_infection, params)
    assert EP_A_EMPTY in walker.clean_completable
    for seed in range(50):
        events, _ = walker.walk(0, Label.NORMAL, random.Random(seed))
        assert events


def test_replay_reproduces_each_walk(datanode_analysis, datanode_infection):
    params = _params(max_loop_reps=3)
    walker = _walker(datanode_analysis, datanode_infection, params)
    for seed in range(40):
        mode = Label.ANOMALY if seed % 3 == 0 else Label.NORMAL
        events, trace = walker.walk(0, mode, random.Random(seed))
        assert walker.replay(0, trace) == events


def _annotated_analysis(source: str, alert_templates=(), seed_paths=()):
    model = parse_program(source)
    analysis = analyze_model(model)
    alerting = frozenset(
        eid for eid, ev in analysis.store.events.items()
        if ev.template in alert_templates
    )
    ann = AnnotationSet(alerting=alerting, seed_anomaly=frozenset(seed_paths))
    infection = propagate(analysis.store, ann)
    return analysis, infection


def _observed_walks(analysis, infection, entry, mode, params, samples=400):
    walker = _walker(analysis, infection, params)
    return {walker.walk(entry, mode, random.Random(seed))[0]
            for seed in range(samples)}


def test_walk_space_with_nested_loop_regions():
    analysis, infection = _annotated_analysis(
        'void top(){ while(a){ log(info, "outer"); while(b){ leaf(); } } }'
        'void leaf(){ log(warn, "inner"); }'
    )
    params = _params(max_loop_reps=2)
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)
    legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                       params, 0, Label.NORMAL)
    observed = _observed_walks(analysis, infection, 0, Label.NORMAL, params)
    assert observed == legal


@pytest.mark.parametrize("source, sequences", [
    ('void k(){ while(c){ log(info, "b"); while(d){ log(info, "a2"); } } }', 8),
    ('void k(){ while(c){ while(d){ log(info, "a"); } } }', 4),
], ids=["inner-ends-with-outer", "inner-is-outer"])
def test_walk_space_with_nested_regions_sharing_a_step(source, sequences):
    analysis, infection = _annotated_analysis(source)
    params = _params(max_loop_reps=2)
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)
    legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                       params, 0, Label.NORMAL)
    observed = _observed_walks(analysis, infection, 0, Label.NORMAL, params)
    assert observed == legal
    assert len(legal) == sequences


def _forest_corpus():
    """Analyses with loop regions: structured programs, and random graphs
    (irreducible cycles, self-loops, parallel guarded edges) whose
    assignments are turned into logging statements."""
    for seed in range(40):
        rng = random.Random(seed)
        model = parse_program(structured_program(rng, 6))
        yield "program", analyze_model(model)
    for seed in range(300):
        cfg = _random_graph(random.Random(seed))
        nodes = {aid: Log(LoggingStatement("info", (Literal(f"s{aid}"),)))
                 if type(act) is AssignAct else act for aid, act in cfg.nodes.items()}
        model = ProgramModel({0: MethodNode(0, "m", ExecutionGraph(nodes, cfg.edges))})
        yield "random graph", analyze_model(model, limits=PathLimits(64))


def test_walker_forests_match_the_reference_forests():
    # the walker builds a path's forest from its spans, closing order;
    # the reference reads it off per-step open and close counts
    shapes = dict.fromkeys(["program spans", "random graph spans", "nested",
                            "shared boundary"], 0)
    for kind, analysis in _forest_corpus():
        infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
        walker = _walker(analysis, infection, _params())
        for path in analysis.store.all_paths():
            forest = walker.regions[path.id]
            assert forest == forest_by_counts(path.steps, path.spans), (kind, path)
            if not path.spans:
                assert forest is path.steps
                continue
            assert walker.regions[path.id] is forest  # built once
            shapes[f"{kind} spans"] += 1
            shapes["nested"] += any(type(node) is tuple and any(type(inner) is tuple
                                                                for inner in node)
                                    for node in forest)
            shapes["shared boundary"] += any(set(a) & set(b)
                                             for a, b in combinations(path.spans, 2))
    assert min(shapes.values()) >= 20, shapes


def test_walk_space_with_recursive_seed_chain():
    src = (
        'void drv(){ log(info, "go"); helper(); }'
        "void helper(){ if(c){ helper(); } else { boom(); } }"
        'void boom(){ log(error, "fail"); }'
    )
    model = parse_program(src)
    analysis = analyze_model(model)
    boom = model.method_by_name("boom")
    seed_path = analysis.store.by_method[boom.id][0].id
    fail_event = next(e for e, ev in analysis.store.events.items()
                      if ev.template == "fail")
    ann = AnnotationSet(alerting=frozenset({fail_event}),
                        seed_anomaly=frozenset({seed_path}))
    infection = propagate(analysis.store, ann)
    params = _params(max_loop_reps=1, max_recursion_depth=1)
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)

    legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                       params, 0, Label.ANOMALY)
    observed = _observed_walks(analysis, infection, 0, Label.ANOMALY,
                               params, samples=200)
    assert observed == legal
    go = next(e for e, ev in analysis.store.events.items()
              if ev.template == "go")
    assert legal == {(go, fail_event)}

    # every completion passes through the seed, so normal walks exhaust
    assert walk_space(analysis.store, infection, scc_of, cycle_sccs,
                      params, 0, Label.NORMAL) == set()
    walker = _walker(analysis, infection, params)
    with pytest.raises(ExhaustionError):
        walker.walk(0, Label.NORMAL, random.Random(0))


def test_walk_space_with_mixed_clean_and_seed_paths():
    src = (
        "void svc(){ while(r){ work(); } }"
        'void work(){ if(ok){ log(info, "done"); } else { log(warn, "oops"); } }'
    )
    model = parse_program(src)
    analysis = analyze_model(model)
    oops_path = next(
        p.id for p in analysis.store.by_method[1]
        if any(analysis.store.events[s.event].template == "oops"
               for s in p.steps)
    )
    oops_event = next(e for e, ev in analysis.store.events.items()
                      if ev.template == "oops")
    ann = AnnotationSet(alerting=frozenset({oops_event}),
                        seed_anomaly=frozenset({oops_path}))
    infection = propagate(analysis.store, ann)
    params = _params(max_loop_reps=2)
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)
    for mode in (Label.NORMAL, Label.ANOMALY):
        legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                           params, 0, mode)
        observed = _observed_walks(analysis, infection, 0, mode, params,
                                   samples=600)
        assert observed == legal
    done = next(e for e, ev in analysis.store.events.items()
                if ev.template == "done")
    normal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                        params, 0, Label.NORMAL)
    assert normal == {(done,), (done, done)}


def test_walk_space_with_sibling_calls_into_a_cycle():
    # a call into r's cycle gives its recursion count back when it
    # returns, so the second call may recurse as deep as the first
    analysis, infection = _annotated_analysis(
        'void e(){ r(); r(); } void r(){ log(info, "tick"); if(c){ r(); } }')
    params = _params(max_recursion_depth=1)
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)
    legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                       params, 0, Label.NORMAL)
    assert {len(events) for events in legal} == {2, 3, 4}
    assert _observed_walks(analysis, infection, 0, Label.NORMAL, params) == legal


def test_walk_space_after_a_forced_seed_hit():
    # boom's call is forced and hits the seed at candidate index 1, so p
    # calls q after the hit, where both of q's paths are admissible: the
    # call into q, and with it p, is not forced
    source = ('void e(){ p(); }'
              'void p(){ boom(); q(); }'
              'void q(){ if(b){ log(info, "fine"); } else { boom(); } }'
              'void boom(){ log(error, "fail"); }')
    analysis, _ = _annotated_analysis(source)
    boom = analysis.model.method_by_name("boom").id
    analysis, infection = _annotated_analysis(
        source, ("fail",), [p.id for p in analysis.store.by_method[boom]])
    params = _params()
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)
    legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                       params, 0, Label.ANOMALY)
    assert len(legal) == 2
    assert _observed_walks(analysis, infection, 0, Label.ANOMALY, params) == legal


def test_walk_space_after_backtracking_out_of_a_seed():
    # x's first path hits the seed in boom, then the bound refuses its
    # call back into x; the next path of x runs without that hit, so y
    # must still take its path to the seed
    source = ('void e(){ x(); }'
              'void x(){ if(a){ boom(); x(); } else { y(); } }'
              'void y(){ if(b){ log(info, "fine"); } else { boom(); } }'
              'void boom(){ log(error, "fail"); }')
    analysis, _ = _annotated_analysis(source)
    boom = analysis.model.method_by_name("boom").id
    analysis, infection = _annotated_analysis(
        source, ("fail",), [p.id for p in analysis.store.by_method[boom]])
    params = _params(max_recursion_depth=0)
    scc_of, cycle_sccs = _cycle_info(analysis.call_graph)
    legal = walk_space(analysis.store, infection, scc_of, cycle_sccs,
                       params, 0, Label.ANOMALY)
    fail = next(e for e, ev in analysis.store.events.items()
                if ev.template == "fail")
    assert legal == {(fail,)}
    assert _observed_walks(analysis, infection, 0, Label.ANOMALY, params) == legal


# ── Path order draws ─────────────────────────────────────────────────

def test_draw_order_equals_random_sample():
    sizes = [*range(41), 63, 64, 65, 127, 128, 129, 1000, 3960, 4096, 4097]
    for n in sizes:
        cands = tuple(f"p{i}" for i in range(n))
        for seed in (0, 1, 7, 2024, 99991):
            drawn, sampled = random.Random(seed), random.Random(seed)
            assert list(generation._draw_order(drawn, cands)) \
                == sampled.sample(cands, n), (n, seed)
            assert drawn.getstate() == sampled.getstate(), (n, seed)


def test_draw_first_equals_first_drawn():
    sizes = [*range(41), 63, 64, 65, 127, 128, 129, 1000, 3960, 4096, 4097]
    for n in sizes:
        cands = tuple(f"p{i}" for i in range(n))
        for seed in (0, 1, 7, 2024, 99991):
            first, ordered = random.Random(seed), random.Random(seed)
            assert generation._draw_first(first, cands) \
                == tuple(generation._draw_order(ordered, cands))[:1], (n, seed)
            generation._draw_rest(first, n)
            assert first.getstate() == ordered.getstate(), (n, seed)


def test_only_call_free_lists_draw_their_first_pick(monkeypatch):
    # leaf's two paths call nothing; b's normal list holds a call into the
    # cycle {a, b}; a has one path, which calls b, so it is not forced;
    # one's only path calls nothing
    analysis, infection = _annotated_analysis(
        'void e(){ a(); leaf(); one(); }'
        'void a(){ log(info, "a"); b(); }'
        'void b(){ if(c){ a(); } else { log(info, "b"); } }'
        'void leaf(){ if(x){ log(info, "x"); } else { log(warn, "y"); } }'
        'void one(){ log(info, "one"); }')
    mid = {m.name: m.id for m in analysis.model.methods.values()}
    walker = _walker(analysis, infection, _params(max_recursion_depth=1))
    assert len(walker.candidates[mid["a"]][0]) == 1
    walker.calls[mid["a"], 0]  # decides the call
    assert walker.forced[mid["a"], 0] is None
    # without forced calls, every call reads (candidates, keeps only its
    # first pick, recursion cycle)
    general = _UnforcedWalker(analysis.model, analysis.store, infection,
                              analysis.call_graph, _params(max_recursion_depth=1))
    assert [general.calls[mid[name], 0][1]
            for name in ("leaf", "b", "a", "one")] == [True, False, False, False]
    assert [general.calls[mid[name], 0][2] is not None
            for name in ("leaf", "b", "a", "one")] == [False, True, True, False]

    used = {}  # method -> the draw functions its candidate lists went to

    def recorded(name, draw):
        def record(rng, cands):
            used.setdefault(cands[0].method, set()).add(name)
            return draw(rng, cands)
        return record

    for name in ("_draw_first", "_draw_order"):
        monkeypatch.setattr(generation, name,
                            recorded(name, getattr(generation, name)))
    for seed in range(20):
        walker.walk(mid["e"], Label.NORMAL, random.Random(seed))
    assert used == {mid["e"]: {"_draw_order"}, mid["a"]: {"_draw_order"},
                    mid["b"]: {"_draw_order"}, mid["leaf"]: {"_draw_first"}}


def _draw_corpus(count: int = 40):
    """Seeded structured programs with seed paths and alerting events at
    random.  Odd seeds add ambiguous dispatch; every third one adds a method
    `wide` of 2**7 or 2**8 paths, which m0 calls first.  Yields (seed,
    analysis, infection, whether any path is a seed)."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        source = structured_program(rng, n, rng.randint(3, 8))
        if seed % 3 == 0:
            branches = "".join(f' if (w{i}) {{ log(info, "wide {i}"); }}'
                               for i in range(rng.randint(7, 8)))
            source = (source.replace("void m0() {", "void m0() {\n    wide();", 1)
                      + f"\nvoid wide() {{{branches} }}")
        model = parse_program(source)
        if seed % 2:
            model = with_ambiguous_calls(model, rng)
        yield (seed, *_seeded(model, rng, fewest=0))


def _seeded(model, rng, fewest):
    """(analysis, infection, whether any path is a seed) for `model`, with
    `fewest` to 2 logging paths drawn as seeds and their events alerting."""
    analysis = analyze_model(model)
    logging = [p for p in analysis.store.all_paths()
               if any(isinstance(s, LogStep) for s in p.steps)]
    seeds = rng.sample(logging, min(len(logging), rng.randint(fewest, 2)))
    ann = AnnotationSet(
        alerting=frozenset(s.event for p in seeds for s in p.steps
                           if isinstance(s, LogStep)),
        seed_anomaly=frozenset(p.id for p in seeds))
    return analysis, propagate(analysis.store, ann), bool(seeds)


def test_drawn_path_order_keeps_every_dataset(monkeypatch):
    def outcome(params, analysis, infection):
        try:
            ds = generate_dataset(params, analysis.model, infection,
                                  analysis.store, analysis.pruned,
                                  analysis.call_graph, keep_traces=True)
        except LogsynthError as exc:
            return type(exc), str(exc)
        return ds.sequences, ds.traces

    mix = dict.fromkeys(["cycles", "loops", "over 64 paths", "datasets",
                         "anomaly datasets", "first-pick calls"], 0)
    draw_first = generation._draw_first

    def counted_first(rng, cands):
        mix["first-pick calls"] += 1
        return draw_first(rng, cands)

    for seed, analysis, infection, seeded in _draw_corpus():
        cg, store = analysis.call_graph, analysis.store
        mix["cycles"] += any(cg.in_cycle(m) for m in cg.nodes)
        mix["loops"] += any(p.skips_loop for p in store.all_paths())
        mix["over 64 paths"] += any(len(ps) > 64 for ps in store.by_method.values())
        entries = tuple(sorted(analysis.model.methods[m].name
                               for m in analysis.pruned.kept))
        for depth in (0, 1, 2):
            for rate in (0.0, 0.25) if seeded else (0.0,):
                params = _params(size=12, anomaly_rate=rate, entries=entries,
                                 seed=seed, max_loop_reps=2,
                                 max_recursion_depth=depth)
                with monkeypatch.context() as patch:
                    patch.setattr(generation, "_draw_first", counted_first)
                    drawn = outcome(params, analysis, infection)
                with monkeypatch.context() as patch:
                    patch.setattr(generation, "_draw_order",
                                  lambda rng, c: rng.sample(c, len(c)))
                    patch.setattr(generation, "_draw_first",
                                  lambda rng, c: rng.sample(c, len(c))[:1])
                    # the stand-in above already makes every draw
                    patch.setattr(generation, "_draw_rest", lambda rng, n: None)
                    sampled = outcome(params, analysis, infection)
                assert drawn == sampled, (seed, depth, rate)
                if isinstance(drawn[0], list):
                    mix["datasets"] += 1
                    mix["anomaly datasets"] += rate > 0
    assert min(mix.values()) >= 10, mix


class _CountingRandom(random.Random):
    """A `random.Random` that counts its `getrandbits` calls."""

    reads = 0

    def getrandbits(self, k):
        self.reads += 1
        return super().getrandbits(k)


def test_dataset_walks_make_only_the_draws_their_choices_read(monkeypatch):
    # e's last step calls wide, whose 2**8 paths call nothing: a walk reads
    # only wide's first pick, and the 255 draws after it are never read
    branches = "".join(f'if (w{i}) {{ log(info, "w{i}"); }} ' for i in range(8))
    analysis, infection = _annotated_analysis(
        f'void e(){{ log(info, "e"); wide(); }} void wide(){{ {branches}}}')
    mid = {m.name: m.id for m in analysis.model.methods.values()}
    wide = analysis.store.by_method[mid["wide"]]
    assert len(wide) == 2 ** 8
    params = _params(size=40, entries=("e",))
    args = (analysis.model, infection, analysis.store, analysis.pruned,
            analysis.call_graph)
    rngs = []

    def counted_rng(seed, seq_id):
        rngs.append(_CountingRandom(f"{seed}/{seq_id}"))
        return rngs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(generation, "sequence_rng", counted_rng)
        counted = generate_dataset(params, *args)
    assert counted == generate_dataset(params, *args)
    assert len(rngs) == params.size
    # each read is a rejection draw that fails with odds up to 1/2, so
    # single sequences vary; the draws after wide's pick alone are 255
    assert sum(rng.reads for rng in rngs) <= 16 * params.size, \
        [rng.reads for rng in rngs]

    # without the discard argument a walk ends where one-by-one draws leave
    # its RNG: one draw for e's only path, then every draw of wide's order
    walker = _walker(analysis, infection, params)
    roots = analysis.store.by_method[mid["e"]]
    for seq_id in range(params.size):
        rng, drawn = sequence_rng(params.seed, seq_id), sequence_rng(params.seed, seq_id)
        walker.walk(mid["e"], Label.NORMAL, rng)
        drawn.sample(roots, len(roots))
        drawn.sample(wide, len(wide))
        assert rng.getstate() == drawn.getstate(), seq_id


# ── Forced calls ─────────────────────────────────────────────────────

def test_skip_draws_equals_one_candidate_draws():
    for count in [*range(41), 1000, 12800]:
        for seed in (0, 1, 7, 2024, 99991):
            skipped, drawn = random.Random(seed), random.Random(seed)
            generation._skip_draws(skipped, count)
            for _ in range(count):
                while drawn.getrandbits(1):
                    pass
            assert skipped.getstate() == drawn.getstate(), (count, seed)


def test_queued_skips_add_up():
    # a walk queues adjacent forced calls' draws as one count
    for a, b in [(0, 0), (0, 5), (1, 1), (3, 40), (40, 3), (700, 300)]:
        for seed in (0, 1, 7, 2024, 99991):
            apart, merged = random.Random(seed), random.Random(seed)
            generation._skip_draws(apart, a)
            generation._skip_draws(apart, b)
            generation._skip_draws(merged, a + b)
            assert apart.getstate() == merged.getstate(), (a, b, seed)


def test_calls_are_decided_as_walks_reach_them():
    # three independent 10-level chains; level 5 of each logs under a flag,
    # so the calls into levels 1-5 have a choice and those into 6-9 are forced
    def level(c, i):
        body = f'log(info, "step {c}.{i}");'
        if i == 5:
            body = f"if (f) {{ {body} }}"
        call = f" c{c}m{i + 1}();" if i < 9 else ""
        return f"void c{c}m{i}(){{ {body}{call} }}"

    analysis, infection = _annotated_analysis(
        "\n".join(level(c, i) for c in range(3) for i in range(10)))
    walker = _walker(analysis, infection, _params())
    assert walker.forced == {} and walker.calls == {}
    mid = {m.name: m.id for m in analysis.model.methods.values()}
    for seed in range(3):
        walker.walk(mid["c0m0"], Label.NORMAL, random.Random(seed))
    assert {key: decided is not None for key, decided in walker.forced.items()} \
        == {(mid[f"c0m{i}"], 0): i > 5 for i in range(1, 10)}


def _chain_program(rng, depth):
    """A call chain; about a third of its levels log, and a few of those
    log under a flag, which gives the level two paths."""
    out = []
    for k in range(depth):
        body = ""
        if rng.random() < 0.35:
            body = f'log(info, "level {k}");'
            if rng.random() < 0.3:
                body = f"if (f{k}) {{ {body} }}"
        call = f"c{k + 1}();" if k + 1 < depth else 'log(warn, "bottom");'
        out.append(f"void c{k}() {{ {body} {call} }}")
    return "\n".join(out)


def _forced_corpus():
    """`_draw_corpus`, plus seeded layered DAGs (a looping entry over
    single-path methods) and seeded call chains."""
    for _, analysis, infection, _ in _draw_corpus():
        yield analysis, infection
    for seed in range(8):
        rng = random.Random(seed)
        source = layered_model_source(rng.randint(20, 60), rng.randint(2, 3), seed)
        yield _seeded(parse_program(source), rng, fewest=1)[:2]
        chain = _chain_program(rng, rng.randint(5, 30))
        yield _seeded(parse_program(chain), rng, fewest=1)[:2]


def _forced_mix(walker, mode, trace):
    """The forced calls a walk took, read off its trace against
    `walker.forced`, which holds every call the walk made, None for a
    call with a choice: in all, at candidate index 1 where the call hits
    a seed, and inside a loop region.  A forced call's records in the
    trace are those `walker.calls` kept for it when it was taken."""
    mix = dict.fromkeys(["forced", "forced hits", "forced in loops"], 0)
    pos, hit = 0, False

    def path_nodes():
        nonlocal pos, hit
        _, _, pid = trace[pos]
        pos += 1
        hit = hit or walker.status[pid] is Status.SEED
        return iter(walker.regions[pid])

    stack = [(path_nodes(), False)]  # (node iterator, inside a loop)
    while stack:
        nodes, looping = stack[-1]
        for node in nodes:
            if isinstance(node, LogStep):
                continue
            if isinstance(node, CallStep):
                key = (node.callee, (mode is Label.ANOMALY) + hit)
                if walker.forced.get(key) is None:  # a call with a choice
                    stack.append((path_nodes(), looping))
                    break
                _, sub_hit, _, records = walker.calls[key]
                assert trace[pos:pos + len(records)] == records
                pos += len(records)
                mix["forced"] += 1
                mix["forced hits"] += key[1] == 1 and sub_hit
                mix["forced in loops"] += looping
                hit = hit or sub_hit
                continue
            _, reps = trace[pos]  # loop region
            pos += 1
            stack.append((chain.from_iterable(repeat(node, reps)), True))
            break
        else:
            stack.pop()
    assert pos == len(trace)
    return mix


def _walk_outcome(walker, entry, mode, seed, *discard):
    """A walk's (events, trace), or its error's type and message, and the
    state its RNG ends in; `discard` is passed on to the walk."""
    rng = random.Random(seed)
    try:
        result = walker.walk(entry, mode, rng, *discard)
    except LogsynthError as exc:
        result = type(exc), str(exc)
    return result, rng.getstate()


def test_forced_calls_keep_every_walk(monkeypatch):
    models = 0
    mix = dict.fromkeys(["walks", "errors", "forced", "forced hits",
                         "forced in loops", "queued rests made",
                         "queued skips made"], 0)
    made = dict.fromkeys(["_draw_rest", "_skip_draws"], 0)

    def counted(name):
        draw = getattr(generation, name)

        def count(rng, n):
            made[name] += 1
            return draw(rng, n)
        return count

    for name in made:
        monkeypatch.setattr(generation, name, counted(name))
    for analysis, infection in _forced_corpus():
        models += 1
        args = (analysis.model, analysis.store, infection, analysis.call_graph)
        for depth in (0, 1, 2):
            params = _params(max_loop_reps=2, max_recursion_depth=depth)
            fast = Walker(*args, params)
            general = _UnforcedWalker(*args, params)
            for entry in sorted(analysis.pruned.kept):
                for mode in (Label.NORMAL, Label.ANOMALY):
                    for seed in range(3):
                        taken = _walk_outcome(fast, entry, mode, seed)
                        assert taken == _walk_outcome(general, entry, mode, seed), \
                            (entry, mode, depth, seed)
                        # a discarding walk makes only the queued draws a
                        # later read needs, and keeps the outcome
                        rests, skips = made["_draw_rest"], made["_skip_draws"]
                        assert _walk_outcome(fast, entry, mode, seed, True)[0] \
                            == taken[0], (entry, mode, depth, seed)
                        mix["queued rests made"] += made["_draw_rest"] > rests
                        mix["queued skips made"] += made["_skip_draws"] > skips
                        mix["walks"] += 1
                        if isinstance(taken[0][0], type):
                            mix["errors"] += 1
                            continue
                        for key, count in _forced_mix(fast, mode,
                                                      taken[0][1]).items():
                            mix[key] += count
    assert models == 56
    assert min(mix.values()) >= 100, mix


def test_walks_on_the_forced_corpus_keep_their_outcomes():
    # Set-equality oracles such as `walk_space` cannot see a change that
    # only alters how often a choice is retried, so this pins every walk
    # of `test_forced_calls_keep_every_walk`'s grid, backtracking and
    # errors included, by a digest of its outcome.
    digest = hashlib.sha256()
    for analysis, infection in _forced_corpus():
        args = (analysis.model, analysis.store, infection, analysis.call_graph)
        for depth in (0, 1, 2):
            walker = Walker(*args, _params(max_loop_reps=2,
                                           max_recursion_depth=depth))
            for entry in sorted(analysis.pruned.kept):
                for mode in (Label.NORMAL, Label.ANOMALY):
                    for seed in range(3):
                        outcome = _walk_outcome(walker, entry, mode, seed)
                        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == \
        "1028919d374ebc0c409481accbc27a33488bed0813dbc2ce86923b070a8b4212"


def _single_path_chain(depth: int):
    """m0 calls m1 ... calls m{depth}, which logs once; nothing annotated."""
    source = "\n".join([f"void m{i}(){{ m{i + 1}(); }}" for i in range(depth)]
                       + [f'void m{depth}(){{ log(info, "bottom"); }}'])
    analysis = analyze_model(parse_program(source))
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    return analysis, infection


def test_deep_single_path_chain_generates_in_process():
    analysis, infection = _single_path_chain(5000)
    ds = generate_dataset(_params(size=2), analysis.model, infection,
                          analysis.store, analysis.pruned, analysis.call_graph)
    assert [s.events for s in ds.sequences] == [(0,), (0,)]


def test_deep_single_path_chain_trace_replays_in_process():
    analysis, infection = _single_path_chain(5000)
    params = _params(size=2)
    ds = generate_dataset(params, analysis.model, infection, analysis.store,
                          analysis.pruned, analysis.call_graph, keep_traces=True)
    assert len(ds.traces[0]) == 5001  # one path record per level
    walker = _walker(analysis, infection, params)
    assert walker.replay(0, ds.traces[0]) == (0,)
    with pytest.raises(LogsynthError, match="unconsumed"):
        walker.replay(0, ds.traces[0] + (("reps", 1),))
    with pytest.raises(LogsynthError, match="expected a 'ep' record"):
        walker.replay(0, ds.traces[0][:-1])


def test_deep_branching_chain_generates_in_process():
    depth = 1000
    source = "\n".join(
        [f'void m{i}(){{ if (f{i}) {{ log(info, "level {i}"); }} m{i + 1}(); }}'
         for i in range(depth)]
        + [f'void m{depth}(){{ log(info, "bottom"); }}'])
    analysis = analyze_model(parse_program(source))
    assert all(len(ps) == 2 for mid, ps in analysis.store.by_method.items()
               if mid != depth)
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    params = _params(size=2)
    ds = generate_dataset(params, analysis.model, infection, analysis.store,
                          analysis.pruned, analysis.call_graph, keep_traces=True)
    assert len(ds.sequences) == 2
    walker = _walker(analysis, infection, params)
    for seq in ds.sequences:
        assert walker.replay(seq.entry, ds.traces[seq.seq_id]) == seq.events


# ── Recursion bounds ─────────────────────────────────────────────────

@pytest.fixture(scope="module")
def recursive_fixture():
    model = parse_program('void r(){ log(info, "tick"); if(c){ r(); } }')
    analysis = analyze_model(model)
    ann = AnnotationSet(frozenset(), frozenset())
    infection = propagate(analysis.store, ann)
    return analysis, infection


def test_recursion_depth_bounds_walks(recursive_fixture):
    analysis, infection = recursive_fixture
    for depth, expected in [
        (0, {("tick-count", 1)}),
        (1, {("tick-count", 1), ("tick-count", 2)}),
        (2, {("tick-count", 1), ("tick-count", 2), ("tick-count", 3)}),
    ]:
        params = _params(max_recursion_depth=depth, entries=("r",))
        walker = _walker(analysis, infection, params)
        seen = set()
        for seed in range(80):
            events, _ = walker.walk(0, Label.NORMAL, random.Random(seed))
            seen.add(("tick-count", len(events)))
        assert seen == expected


def test_default_entries_require_uncalled_methods(recursive_fixture):
    analysis, infection = recursive_fixture
    params = _params()  # no explicit entries; r calls itself
    with pytest.raises(ConfigError, match="entry"):
        generate_dataset(params, analysis.model, infection, analysis.store,
                         analysis.pruned, analysis.call_graph)


# ── Dataset generation ───────────────────────────────────────────────

def test_exact_anomaly_counts(datanode_analysis, datanode_infection):
    for size, rate, expected in [
        (100, 0.03, 3), (10, 0.0, 0), (10, 0.5, 5), (9, 1 / 3, 3),
    ]:
        params = _params(size=size, anomaly_rate=rate, seed=5)
        ds = generate_dataset(
            params, datanode_analysis.model, datanode_infection,
            datanode_analysis.store, datanode_analysis.pruned,
            datanode_analysis.call_graph,
        )
        assert len(ds.sequences) == size
        assert sum(s.label is Label.ANOMALY for s in ds.sequences) == expected


def test_rate_one_requires_all_entries_to_reach_seeds():
    model = parse_program(
        'void goodEntry(){ log(info, "start"); if(c){ bad(); } }'
        'void bad(){ log(error, "kaboom"); }'
        'void cleanEntry(){ log(info, "fine"); }'
    )
    analysis = analyze_model(model)
    seed_path = analysis.store.by_method[1][0].id
    kaboom_event = next(e for e, ev in analysis.store.events.items()
                        if ev.template == "kaboom")
    ann = AnnotationSet(alerting=frozenset({kaboom_event}),
                        seed_anomaly=frozenset({seed_path}))
    infection = propagate(analysis.store, ann)

    with pytest.raises(ConfigError, match="cleanEntry"):
        generate_dataset(_params(size=10, anomaly_rate=1.0), model, infection,
                         analysis.store, analysis.pruned, analysis.call_graph)

    # restricted to the seed-reaching entry it works
    ds = generate_dataset(
        _params(size=10, anomaly_rate=1.0, entries=("goodEntry",)),
        model, infection, analysis.store, analysis.pruned,
        analysis.call_graph,
    )
    assert all(s.label is Label.ANOMALY for s in ds.sequences)

    # at a mixed rate the clean entry only serves normal sequences
    ds = generate_dataset(
        _params(size=20, anomaly_rate=0.5), model, infection,
        analysis.store, analysis.pruned, analysis.call_graph,
    )
    for seq in ds.sequences:
        if seq.label is Label.ANOMALY:
            assert model.methods[seq.entry].name == "goodEntry"


def test_anomaly_rate_without_seeds_is_config_error(datanode_analysis):
    infection = propagate(datanode_analysis.store,
                          AnnotationSet(frozenset(), frozenset()))
    with pytest.raises(ConfigError, match="seed"):
        generate_dataset(
            _params(size=10, anomaly_rate=0.2), datanode_analysis.model,
            infection, datanode_analysis.store, datanode_analysis.pruned,
            datanode_analysis.call_graph,
        )


def test_inexact_rate_draws_per_sequence(datanode_analysis, datanode_infection):
    params = _params(size=400, anomaly_rate=0.25, seed=3, exact_rate=False)
    ds = generate_dataset(
        params, datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph,
    )
    anomalies = sum(s.label is Label.ANOMALY for s in ds.sequences)
    assert 60 <= anomalies <= 140  # loose binomial band around 100


def test_bench_workers_keyword_is_ignored(datanode_analysis, datanode_infection):
    # bench/harness.py passes `workers=` to both calls; neither may reject
    # it or let it change a result
    params = _params(size=400, anomaly_rate=0.25, seed=3, exact_rate=False)
    runs = [generate_dataset(
        params, datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph, **kw,
    ) for kw in ({}, {"workers": 4})]
    assert runs[1].sequences == runs[0].sequences
    analysis = analyze_model(datanode_analysis.model, workers=4)
    assert analysis.store.by_method == datanode_analysis.store.by_method


def test_component_indicator_restricts_entries():
    model = parse_program(
        'component "storage" void sEntry(){ sLog(); }'
        'component "storage" void sLog(){ log(info, "disk"); }'
        'component "network" void nEntry(){ log(info, "socket"); }'
    )
    analysis = analyze_model(model)
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    params = _params(size=30, component="storage")
    ds = generate_dataset(params, model, infection, analysis.store,
                          analysis.pruned, analysis.call_graph)
    for seq in ds.sequences:
        assert model.components[seq.entry] == "storage"

    with pytest.raises(ConfigError, match="component 'cache'"):
        generate_dataset(_params(size=5, component="cache"), model, infection,
                         analysis.store, analysis.pruned, analysis.call_graph)


def test_unknown_entry_is_config_error(datanode_analysis, datanode_infection):
    with pytest.raises(ConfigError, match="unknown entry method"):
        generate_dataset(
            _params(entries=("ghost",)), datanode_analysis.model,
            datanode_infection, datanode_analysis.store,
            datanode_analysis.pruned, datanode_analysis.call_graph,
        )


def test_pruned_entry_is_config_error():
    model = parse_program(
        'void quietRoot(){ helper(); } void helper(){} '
        'void noisy(){ log(info, "x"); }'
    )
    analysis = analyze_model(model)
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    with pytest.raises(ConfigError, match="pruned"):
        generate_dataset(
            _params(entries=("quietRoot",)), model, infection, analysis.store,
            analysis.pruned, analysis.call_graph,
        )


def test_dataset_determinism(
    tmp_path, datanode_analysis, datanode_infection, datanode_annotations
):
    params = _params(size=60, anomaly_rate=0.1, seed=99, max_loop_reps=2)
    runs = []
    for _ in range(2):
        ds = generate_dataset(
            params, datanode_analysis.model, datanode_infection,
            datanode_analysis.store, datanode_analysis.pruned,
            datanode_analysis.call_graph,
        )
        out = tmp_path / f"run{len(runs)}"
        write_dataset(ds, out, datanode_analysis.model, datanode_annotations)
        runs.append(tuple(
            (out / name).read_bytes()
            for name in ("sequences.csv", "templates.csv", "manifest.txt")
        ))
    assert runs[0] == runs[1]


def test_written_dataset_reads_back_equal(
    tmp_path, datanode_analysis, datanode_infection, datanode_annotations
):
    params = _params(size=25, anomaly_rate=0.2, seed=4)
    ds = generate_dataset(
        params, datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph,
    )
    write_dataset(ds, tmp_path / "ds", datanode_analysis.model,
                  datanode_annotations)
    again = read_dataset(tmp_path / "ds", datanode_analysis.model)
    assert again.params == ds.params
    assert again.sequences == ds.sequences
    assert again.events == ds.events


def test_templates_with_line_separators_read_back_equal(tmp_path):
    # str.splitlines() would split each of these templates; write_dataset
    # quotes them whole, and read_dataset must read them whole
    model = loads_model("\n".join([
        "M 0 m", "A 0 0 ENTRY", "A 0 1 LOG info|L:left\u2028right",
        "A 0 2 LOG warn|L:two\\nlines", 'A 0 3 LOG error|L:"q",\\r\x85\x1c\x1d\x1e\x0b\x0c,',
        "A 0 4 EXIT", "E 0 0 1", "E 0 1 2", "E 0 2 3", "E 0 3 4",
    ]) + "\n")
    analysis = analyze_model(model)
    ann = AnnotationSet(frozenset(), frozenset())
    ds = generate_dataset(_params(size=3), model, propagate(analysis.store, ann),
                          analysis.store, analysis.pruned, analysis.call_graph)
    write_dataset(ds, tmp_path / "ds", model, ann)
    templates = ["left\u2028right", "two\nlines", '"q",\r\x85\x1c\x1d\x1e\x0b\x0c,']
    assert [ev.template for ev in ds.events.values()] == templates
    assert (tmp_path / "ds" / "templates.csv").read_bytes() == (
        'event_id,level,template\n0,info,"left\u2028right"\n1,warn,"two\nlines"\n'
        '2,error,"""q"",\r\x85\x1c\x1d\x1e\x0b\x0c,"\n').encode()
    again = read_dataset(tmp_path / "ds", model)
    assert again.events == ds.events
    assert again.sequences == ds.sequences
    # rows re-saved with "\r\n" endings keep their templates
    path = tmp_path / "ds" / "templates.csv"
    path.write_bytes(path.read_bytes().replace(b'"\n', b'"\r\n'))
    assert read_dataset(tmp_path / "ds", model).events == ds.events
    # a bad row is named by its line, counting the lines inside templates
    path.write_bytes(path.read_bytes() + b'3,info\n4,info,"x"\n')
    with pytest.raises(LogsynthError, match=(
            rf"^{re.escape(str(path))}:6: expected event_id,level,template$")):
        read_dataset(tmp_path / "ds", model)


def test_sequences_csv_matches_per_message_rendering(
    tmp_path, datanode_analysis, datanode_annotations
):
    model = datanode_analysis.model
    events = dict(datanode_analysis.store.events)
    for seed in range(20):
        rng = random.Random(seed)
        sequences = [
            LogSequence(
                seq_id=i,
                label=rng.choice((Label.NORMAL, Label.ANOMALY)),
                # ids past the store's events, ids with many digits, and
                # empty sequences render like any other
                events=tuple(rng.choice((rng.randrange(len(events) + 3),
                                         rng.randrange(10 ** 12)))
                             for _ in range(rng.choice((0, 1, rng.randrange(60))))),
                entry=rng.choice(sorted(model.methods)),
            )
            for i in range(rng.randrange(1, 30))
        ]
        ds = LogDataset(sequences, events, _params(size=len(sequences)))
        out = tmp_path / f"ds{seed}"
        write_dataset(ds, out, model, datanode_annotations)
        rows = ["seq_id,label,entry,events"] + [
            f"{s.seq_id},{1 if s.label is Label.ANOMALY else 0},"
            f"{model.methods[s.entry].name},"
            + " ".join(str(e) for e in s.events)
            for s in sequences
        ]
        assert (out / "sequences.csv").read_bytes() == \
            ("\n".join(rows) + "\n").encode()
        assert read_dataset(out, model).sequences == sequences


def test_event_tokens_read_as_int_reads_them(
    tmp_path, datanode_analysis, datanode_annotations
):
    model = datanode_analysis.model
    ds = LogDataset(
        [LogSequence(0, Label.NORMAL, (EV_RECEIVED,), entry=1)],
        dict(datanode_analysis.store.events), _params(size=1),
    )
    out = tmp_path / "ds"
    write_dataset(ds, out, model, datanode_annotations)
    path = out / "sequences.csv"
    header, row = path.read_text().splitlines()
    prefix = row.rsplit(",", 1)[0]
    path.write_text(f"{header}\n{prefix},07 +3 7 3 007\n")
    assert read_dataset(out, model).sequences[0].events == (7, 3, 7, 3, 7)
    path.write_text(f"{header}\n{prefix},1 2\n{prefix},3 1.5\n")
    with pytest.raises(LogsynthError, match=(
            rf"^{re.escape(str(path))}:3: seq_id and events must be integers$")):
        read_dataset(out, model)


def test_template_table_covers_store_events(
    tmp_path, datanode_analysis, datanode_infection, datanode_annotations
):
    ds = generate_dataset(
        _params(size=5), datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph,
    )
    assert ds.events.keys() == datanode_analysis.store.events.keys()
    write_dataset(ds, tmp_path / "ds", datanode_analysis.model,
                  datanode_annotations)
    rows = (tmp_path / "ds" / "templates.csv").read_text().splitlines()
    assert len(rows) - 1 == len(datanode_analysis.store.events)


def test_traces_replay_for_whole_dataset(datanode_analysis, datanode_infection):
    params = _params(size=50, anomaly_rate=0.2, seed=21, max_loop_reps=2)
    ds = generate_dataset(
        params, datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph, keep_traces=True,
    )
    walker = _walker(datanode_analysis, datanode_infection, params)
    for seq in ds.sequences:
        assert walker.replay(seq.entry, ds.traces[seq.seq_id]) == seq.events


def test_traces_are_kept_only_when_asked(datanode_analysis, datanode_infection):
    params = _params(size=40, anomaly_rate=0.2, seed=8, max_loop_reps=2)
    runs = [generate_dataset(
        params, datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph, keep_traces=keep,
    ) for keep in (False, True)]
    assert runs[0].sequences == runs[1].sequences
    assert runs[0].traces is None
    walker = _walker(datanode_analysis, datanode_infection, params)
    for seq in runs[1].sequences:
        assert walker.replay(seq.entry, runs[1].traces[seq.seq_id]) == seq.events


def test_label_soundness_via_traces(datanode_analysis, datanode_infection):
    params = _params(size=300, anomaly_rate=0.1, seed=13, max_loop_reps=2)
    ds = generate_dataset(
        params, datanode_analysis.model, datanode_infection,
        datanode_analysis.store, datanode_analysis.pruned,
        datanode_analysis.call_graph, keep_traces=True,
    )
    status = datanode_infection.status
    for seq in ds.sequences:
        chosen = [rec[2] for rec in ds.traces[seq.seq_id] if rec[0] == "ep"]
        hit_seed = any(status[pid] is Status.SEED for pid in chosen)
        assert hit_seed == (seq.label is Label.ANOMALY)


@pytest.mark.xfail(strict=True, raises=ExhaustionError, reason=(
    "admissibility hole: at max_recursion_depth 0 the walker counts the "
    "first call inside a cycle (a -> b) as a re-entry, while the entry "
    "fixpoints ignore the depth bound, so an admitted default entry "
    "outside the cycle exhausts"))
def test_default_entry_above_a_cycle_walks_at_depth_zero():
    analysis = analyze_model(parse_program(
        'void x(){ a(); } void a(){ b(); } '
        'void b(){ log(info, "in b"); if (again) { a(); } }'))
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    params = _params(size=1, max_recursion_depth=0)
    x = analysis.model.method_by_name("x").id
    assert analysis.pruned.entry_candidates() == [x]
    assert _walker(analysis, infection, params).normal_entry_ok(x)
    ds = generate_dataset(params, analysis.model, infection, analysis.store,
                          analysis.pruned, analysis.call_graph)
    assert ds.sequences[0].events == (0,)


def test_deep_call_chain_generates_in_process():
    # the walk takes the single-path chain in one forced call and replay
    # follows the trace on an explicit stack; the 5,000-level chain above
    # replays too
    analysis, infection = _single_path_chain(250)
    params = _params(size=2)
    ds = generate_dataset(
        params, analysis.model, infection, analysis.store, analysis.pruned,
        analysis.call_graph, keep_traces=True,
    )
    assert [s.events for s in ds.sequences] == [(0,), (0,)]
    walker = _walker(analysis, infection, params)
    assert walker.replay(0, ds.traces[0]) == (0,)


# ── Parameter validation ─────────────────────────────────────────────

@pytest.mark.parametrize("kw", [
    dict(size=0, anomaly_rate=0.0),
    dict(size=10, anomaly_rate=-0.1),
    dict(size=10, anomaly_rate=1.5),
    dict(size=10, anomaly_rate=0.0, max_loop_reps=0),
    dict(size=10, anomaly_rate=0.0, max_recursion_depth=-1),
    dict(size=10, anomaly_rate=0.0, seed=2 ** 64),
    dict(size=2 ** 63, anomaly_rate=0.0),
    dict(size=10 ** 20, anomaly_rate=0.0),
])
def test_invalid_params_rejected(kw):
    with pytest.raises(ConfigError):
        GenParams(**kw)


def test_sequence_rng_is_stable():
    assert sequence_rng(7, 3).random() == sequence_rng(7, 3).random()
    assert sequence_rng(7, 3).random() != sequence_rng(7, 4).random()
