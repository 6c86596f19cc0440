"""Acceptance criteria, one test per criterion, each printing a PASS or
FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria and their tolerances are pinned here: exact set equality for
the golden pipeline, zero mismatches against the brute-force oracles,
exact anomaly counts, byte-identical reruns, and hard wall-clock
budgets where stated.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from logsynth.generation import (
    ConfigError,
    GenParams,
    Label,
    generate_dataset,
    write_dataset,
)
from logsynth.labeling import AnnotationSet, Status, propagate
from logsynth.metrics import logging_coverage, measure_throughput, train_detector
from logsynth.pathfinding import LogStep
from logsynth.pipeline import analyze_model
from logsynth.probing import build_call_graph, mark_log_methods
from logsynth.pruning import prune

from .conftest import (
    EP_D,
    EV_DELETE_FAILED,
    EV_RECEIVING,
    EV_TIMED_OUT,
)
from .modelgen import (
    call_graph_model,
    layered_model_source,
    parse_program,
    structured_method_program,
)
from .oracles import Mark, marks_of, oracle_path_set, production_path_set, reachable_to_log_methods


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:>2} {name}: PASS")


def test_criterion_1_golden_pipeline(datanode_model):
    with criterion(1, "golden worked-example pipeline"):
        start = time.perf_counter()
        analysis = analyze_model(datanode_model)
        elapsed = time.perf_counter() - start
        store = analysis.store

        def shape(mid):
            return {
                (tuple((("log", s.event) if isinstance(s, LogStep)
                        else ("call", s.callee), mark)
                       for s, mark in zip(p.steps, marks_of(p.spans, len(p.steps)))),
                 p.skips_loop)
                for p in store.by_method[mid]
            }

        assert shape(0) == {
            (((("log", EV_RECEIVING), Mark.START), (("call", 1), Mark.END)), False),
            (((("log", EV_RECEIVING), Mark.START), (("call", 2), Mark.END)), False),
            ((), True),  # the flagged empty loop path
        }
        assert shape(1) == {(((("log", 1), Mark.NONE),), False)}
        assert shape(2) == {(((("call", 3), Mark.NONE),), False)}
        assert shape(3) == {
            (((("log", EV_DELETE_FAILED), Mark.NONE),
              (("log", EV_TIMED_OUT), Mark.NONE)), False),
        }
        assert elapsed < 1.0, f"analysis took {elapsed:.3f}s (budget 1s)"


def test_criterion_2_pruning_oracle():
    with criterion(2, "pruning equals DFS reachability oracle (200 graphs)"):
        start = time.perf_counter()
        rng = random.Random(2024)
        mismatches = 0
        for i in range(200):
            n = rng.choice(
                [rng.randint(20, 300)] * 15
                + [rng.randint(300, 700)] * 4
                + [rng.randint(900, 1000)]
            )
            model = call_graph_model(random.Random(i), n, avg_out=1.6)
            cg = build_call_graph(model)
            logs = mark_log_methods(model)
            kept = prune(cg, logs).kept
            oracle = frozenset(reachable_to_log_methods(cg.nodes, cg.edges, logs))
            if kept != oracle:
                mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 30.0, f"took {elapsed:.1f}s (budget 30s)"


def test_criterion_3_path_enumeration_oracle():
    with criterion(3, "path sets equal brute-force enumeration (500 methods)"):
        mismatches = 0
        for case in range(500):
            rng = random.Random(case * 7919 + 11)
            budget = rng.choice([0, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 10, 12])
            source = structured_method_program(
                rng, budget, var_pool_size=3, ensure_log=True
            )
            model = parse_program(source)
            analysis = analyze_model(model)
            main = model.method_by_name("main")
            stmt_to_event = {
                ev.origin[1]: eid for eid, ev in analysis.store.events.items()
                if ev.origin[0] == main.id
            }
            expected = oracle_path_set(
                main.cfg, set(analysis.pruned.kept), stmt_to_event
            )
            if production_path_set(analysis.store, main.id) != expected:
                mismatches += 1
        assert mismatches == 0


@pytest.fixture(scope="module")
def annotated(datanode_model):
    analysis = analyze_model(datanode_model)
    ann = AnnotationSet(
        alerting=frozenset({EV_DELETE_FAILED, EV_TIMED_OUT}),
        seed_anomaly=frozenset({EP_D}),
    )
    infection = propagate(analysis.store, ann)
    return analysis, ann, infection


def test_criterion_4_label_soundness(annotated):
    with criterion(4, "label soundness over 10,000 sequences"):
        analysis, ann, infection = annotated
        params = GenParams(size=10_000, anomaly_rate=0.1, seed=13,
                           max_loop_reps=3)
        ds = generate_dataset(
            params, analysis.model, infection, analysis.store,
            analysis.pruned, analysis.call_graph, keep_traces=True,
        )
        seed_alerts = set()
        for pid in ann.seed_anomaly:
            for step in analysis.store.path(pid).steps:
                if isinstance(step, LogStep) and step.event in ann.alerting:
                    seed_alerts.add(step.event)
        violations = 0
        for seq in ds.sequences:
            chosen = [rec[2] for rec in ds.traces[seq.seq_id]
                      if rec[0] == "ep"]
            touched_seed = any(
                infection.status[pid] is Status.SEED for pid in chosen
            )
            if seq.label is Label.ANOMALY:
                if not touched_seed:
                    violations += 1
                if not any(e in seed_alerts for e in seq.events):
                    violations += 1
            else:
                if touched_seed:
                    violations += 1
        assert violations == 0


def test_criterion_5_exact_anomaly_rate(annotated, tmp_path):
    with criterion(5, "exact anomaly rates (0, 0.03, 0.5, 1.0)"):
        analysis, ann, infection = annotated

        def anomaly_rows(params):
            ds = generate_dataset(
                params, analysis.model, infection, analysis.store,
                analysis.pruned, analysis.call_graph,
            )
            out = tmp_path / f"ar{params.anomaly_rate}"
            write_dataset(ds, out, analysis.model, ann)
            rows = (out / "sequences.csv").read_text().splitlines()[1:]
            assert len(rows) == params.size
            return sum(1 for r in rows if r.split(",")[1] == "1")

        assert anomaly_rows(GenParams(size=10_000, anomaly_rate=0.03,
                                      seed=7)) == 300
        assert anomaly_rows(GenParams(size=10_000, anomaly_rate=0.0,
                                      seed=7)) == 0
        assert anomaly_rows(GenParams(size=10_000, anomaly_rate=0.5,
                                      seed=7)) == 5_000
        # every entry (methodA) reaches the seed, so rate 1.0 is legal
        assert anomaly_rows(GenParams(size=10_000, anomaly_rate=1.0,
                                      seed=7)) == 10_000
        # but an entry that cannot reach a seed makes rate 1.0 an error
        with pytest.raises(ConfigError):
            generate_dataset(
                GenParams(size=10, anomaly_rate=1.0, entries=("methodB",)),
                analysis.model, infection, analysis.store, analysis.pruned,
                analysis.call_graph,
            )


def test_criterion_6_coverage_convergence(annotated):
    with criterion(6, "logging coverage reaches 1.0 by 1,000 sequences"):
        analysis, _, infection = annotated
        ds = generate_dataset(
            GenParams(size=1_000, anomaly_rate=0.03, seed=5),
            analysis.model, infection, analysis.store, analysis.pruned,
            analysis.call_graph,
        )
        report = logging_coverage(ds, analysis.model)
        assert report.coverage == 1.0
        assert report.discovered == report.total == 4
        for (m1, c1), (m2, c2) in zip(report.curve, report.curve[1:]):
            assert m2 >= m1 and c2 >= c1
        assert report.curve[-1][1] == 1.0


def test_criterion_7_throughput():
    with criterion(7, "sustained > 10,000 messages/min on 500 methods"):
        model = parse_program(layered_model_source(500))
        analysis = analyze_model(model)
        infection = propagate(
            analysis.store, AnnotationSet(frozenset(), frozenset())
        )
        report = measure_throughput(
            GenParams(size=300, anomaly_rate=0.0, seed=2),
            model, infection, analysis.store, analysis.pruned,
            analysis.call_graph,
        )
        print(f"\n  {report.per_minute:,.0f} messages/min "
              f"({report.messages} messages in {report.seconds:.2f}s)")
        assert report.per_minute > 10_000


def test_criterion_8_determinism(annotated, tmp_path):
    with criterion(8, "byte-identical output across reruns"):
        analysis, ann, infection = annotated
        params = GenParams(size=200, anomaly_rate=0.05, seed=42,
                           max_loop_reps=3)
        outputs = []
        for run in range(2):
            ds = generate_dataset(
                params, analysis.model, infection, analysis.store,
                analysis.pruned, analysis.call_graph,
            )
            out = tmp_path / f"run{run}"
            write_dataset(ds, out, analysis.model, ann)
            outputs.append((
                (out / "sequences.csv").read_bytes(),
                (out / "templates.csv").read_bytes(),
            ))
        assert outputs[0] == outputs[1]


def test_criterion_9_detector_property(annotated):
    with criterion(9, "baseline detector reaches F1 = 1.0 on held-out data"):
        analysis, _, infection = annotated

        def dataset(size, rate, seed):
            return generate_dataset(
                GenParams(size=size, anomaly_rate=rate, seed=seed,
                          max_loop_reps=3),
                analysis.model, infection, analysis.store, analysis.pruned,
                analysis.call_graph,
            )

        train = dataset(500, 0.0, 101).sequences
        held_out = dataset(1_000, 0.1, 202).sequences
        detector = train_detector(train)
        precision, recall, f1 = detector.evaluate(held_out)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)
