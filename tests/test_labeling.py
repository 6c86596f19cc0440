from __future__ import annotations

import random

import pytest

from logsynth.labeling import (
    AnnotationError,
    AnnotationSet,
    Status,
    dumps_annotations,
    export_worksheet,
    import_annotations,
    propagate,
    validate_annotations,
)
from logsynth.model import loads_model
from logsynth.pathfinding import CallStep
from logsynth.pipeline import analyze_model

from .conftest import (
    EP_A_CALLB,
    EP_A_CALLC,
    EP_A_EMPTY,
    EP_B,
    EP_C,
    EP_D,
    EV_DELETE_FAILED,
    EV_TIMED_OUT,
)
from .modelgen import parse_program, structured_method_program


def _worksheet_lines(tmp_path, analysis):
    out = tmp_path / "worksheet.txt"
    export_worksheet(analysis.store, analysis.model, out)
    return out, out.read_text(encoding="utf-8").splitlines()


# ── Worksheet export ─────────────────────────────────────────────────

def test_worksheet_has_one_row_per_event(tmp_path, datanode_analysis):
    _, lines = _worksheet_lines(tmp_path, datanode_analysis)
    evt_rows = [l for l in lines if l.startswith("EVT ")]
    assert evt_rows == [
        "EVT 0 info methodA Receiving block <*>",
        "EVT 1 info methodB Received block <*>",
        "EVT 2 warn methodD Failed to delete restart meta file.",
        "EVT 3 warn methodD Join on responder thread, timed out.",
    ]


def test_worksheet_carries_source_lines_and_candidates(tmp_path, datanode_analysis):
    _, lines = _worksheet_lines(tmp_path, datanode_analysis)
    assert any(l.startswith("# methodA line ") for l in lines)
    assert f"# candidate path {EP_D} in methodD" in lines


def test_empty_store_gives_header_only_worksheet(tmp_path):
    analysis = analyze_model(parse_program("void quiet(){ x = \"v\"; }"))
    path, lines = _worksheet_lines(tmp_path, analysis)
    assert all(l.startswith("#") for l in lines if l.strip())
    assert not [l for l in lines if l.startswith("EVT ")]


def test_worksheet_row_count_matches_events_on_fuzz(tmp_path):
    for seed in range(15):
        rng = random.Random(seed + 40)
        analysis = analyze_model(
            parse_program(structured_method_program(rng, rng.randint(0, 5)))
        )
        out = tmp_path / f"ws{seed}.txt"
        export_worksheet(analysis.store, analysis.model, out)
        rows = [l for l in out.read_text(encoding="utf-8").splitlines()
                if l.startswith("EVT ")]
        assert len(rows) == len(analysis.store.events)


# ── Annotation import ────────────────────────────────────────────────

def test_import_round_trip(tmp_path, datanode_analysis):
    path, lines = _worksheet_lines(tmp_path, datanode_analysis)
    marked = []
    for line in lines:
        if line.startswith(("EVT 2 ", "EVT 3 ")):
            line += " ALERT"
        marked.append(line)
    marked.append(f"SEED {EP_D}")
    path.write_text("\n".join(marked) + "\n", encoding="utf-8")
    ann = import_annotations(path, datanode_analysis.store)
    assert ann.alerting == frozenset({EV_DELETE_FAILED, EV_TIMED_OUT})
    assert ann.seed_anomaly == frozenset({EP_D})


def test_empty_annotation_file_is_all_normal(tmp_path, datanode_analysis):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing marked\n", encoding="utf-8")
    ann = import_annotations(path, datanode_analysis.store)
    assert ann == AnnotationSet(frozenset(), frozenset())


def test_indented_and_crlf_comments_are_skipped(tmp_path, datanode_analysis):
    path, lines = _worksheet_lines(tmp_path, datanode_analysis)
    rows = [line + " ALERT" if line.startswith("EVT 2 ") else line
            for line in lines if line.startswith("EVT ")]
    text = "\r\n".join(["# a CRLF comment", "  # an indented comment",
                         "\t# a tabbed comment", "   ", *rows, f"SEED {EP_D}",
                         " # SEED 99"]) + "\r\n"
    path.write_bytes(text.encode("utf-8"))
    ann = import_annotations(path, datanode_analysis.store)
    assert ann == AnnotationSet(frozenset({EV_DELETE_FAILED}), frozenset({EP_D}))


def test_seed_without_alerting_event_is_rejected(tmp_path, datanode_analysis):
    path = tmp_path / "bad.txt"
    path.write_text(f"SEED {EP_B}\n", encoding="utf-8")
    with pytest.raises(AnnotationError, match="no alerting event"):
        import_annotations(path, datanode_analysis.store)


def test_unknown_ids_are_rejected(tmp_path, datanode_analysis):
    path = tmp_path / "bad.txt"
    path.write_text("SEED 99\n", encoding="utf-8")
    with pytest.raises(AnnotationError, match="unknown path id 99"):
        import_annotations(path, datanode_analysis.store)
    path.write_text("EVT 42 warn ghost boo ALERT\n", encoding="utf-8")
    with pytest.raises(AnnotationError, match="unknown event id 42"):
        import_annotations(path, datanode_analysis.store)


def test_validate_annotations_direct(datanode_analysis, datanode_annotations):
    validate_annotations(datanode_annotations, datanode_analysis.store)
    bad = AnnotationSet(alerting=frozenset(), seed_anomaly=frozenset({EP_D}))
    with pytest.raises(AnnotationError):
        validate_annotations(bad, datanode_analysis.store)


def test_dumps_annotations_is_canonical(datanode_annotations):
    text = dumps_annotations(datanode_annotations)
    assert text == "ALERTING 2\nALERTING 3\nSEED 5\n"


def test_empty_template_survives_worksheet_round_trip(tmp_path):
    analysis = analyze_model(parse_program('void m(){ log(info, ""); }'))
    ws = tmp_path / "ws.txt"
    export_worksheet(analysis.store, analysis.model, ws)
    ann = import_annotations(ws, analysis.store)
    assert ann.alerting == frozenset()
    # marking the empty-template event still works
    marked = []
    for line in ws.read_text(encoding="utf-8").splitlines():
        if line.startswith("EVT 0 "):
            line += " ALERT"
        marked.append(line)
    ws.write_text("\n".join(marked) + "\n", encoding="utf-8")
    assert import_annotations(ws, analysis.store).alerting == frozenset({0})


def test_line_break_template_survives_worksheet_round_trip(tmp_path):
    # a model file can hold line breaks in a literal; the worksheet row
    # shows them escaped, so the row stays one line and imports as written
    model = loads_model("M 0 m\nA 0 0 ENTRY\nA 0 1 LOG error|L:disk\\nfailed\\rretry\n"
                        "A 0 2 EXIT\nE 0 0 1\nE 0 1 2\n")
    analysis = analyze_model(model)
    assert analysis.store.events[0].template == "disk\nfailed\rretry"
    ws, lines = _worksheet_lines(tmp_path, analysis)
    assert lines[-1] == "EVT 0 error m disk\\nfailed\\rretry"
    assert import_annotations(ws, analysis.store).alerting == frozenset()
    ws.write_text("\n".join(lines) + " ALERT\n", encoding="utf-8")
    assert import_annotations(ws, analysis.store).alerting == frozenset({0})


_ALERT_TEMPLATES = ('void main(){ log(warn, "disk ALERT"); log(info, "ok"); '
                    'log(error, "ALERT"); }')


def _alert_worksheet(tmp_path, marked=()):
    """The exported worksheet of _ALERT_TEMPLATES with ' ALERT' appended to
    the EVT rows of `marked`, and its analysis."""
    analysis = analyze_model(parse_program(_ALERT_TEMPLATES))
    assert [ev.template for _, ev in sorted(analysis.store.events.items())] \
        == ["disk ALERT", "ok", "ALERT"]
    ws, lines = _worksheet_lines(tmp_path, analysis)
    ws.write_text("\n".join(
        line + " ALERT" if line.startswith(tuple(f"EVT {e} " for e in marked))
        else line for line in lines) + "\n", encoding="utf-8")
    return ws, analysis


def test_exported_worksheet_imports_no_alerting_event(tmp_path):
    ws, analysis = _alert_worksheet(tmp_path)
    assert import_annotations(ws, analysis.store).alerting == frozenset()


def test_appended_alert_marks_the_event(tmp_path):
    ws, analysis = _alert_worksheet(tmp_path, marked=(1,))
    assert import_annotations(ws, analysis.store).alerting == frozenset({1})


def test_template_ending_in_alert_marks_only_when_annotated(tmp_path):
    for marked in [(0,), (2,), (0, 2), (0, 1, 2)]:
        ws, analysis = _alert_worksheet(tmp_path, marked)
        assert import_annotations(ws, analysis.store).alerting == frozenset(marked)


def test_evt_row_that_is_not_its_template_is_rejected(tmp_path, datanode_analysis):
    path = tmp_path / "bad.txt"
    for text in ("Received block", "Received block <*> ALERT!",
                 "Received block <*>ALERT", "ALERT"):
        path.write_text(f"EVT 1 info methodB {text}\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="line 1: event 1 must read"):
            import_annotations(path, datanode_analysis.store)


# ── Propagation ──────────────────────────────────────────────────────

def test_golden_propagation(datanode_analysis, datanode_infection):
    status = datanode_infection.status
    assert status[EP_D] is Status.SEED
    assert status[EP_C] is Status.INFECTED       # [callD]
    assert status[EP_A_CALLC] is Status.INFECTED  # [Log@1, callC]
    assert status[EP_A_CALLB] is Status.CLEAN
    assert status[EP_B] is Status.CLEAN
    assert status[EP_A_EMPTY] is Status.CLEAN


def test_no_seeds_means_all_clean(datanode_analysis):
    ann = AnnotationSet(frozenset(), frozenset())
    infection = propagate(datanode_analysis.store, ann)
    assert set(infection.status.values()) == {Status.CLEAN}


def _chain_program(depth: int) -> str:
    parts = []
    for i in range(depth):
        parts.append(f"void m{i}(){{ m{i + 1}(); }}")
    parts.append(f'void m{depth}(){{ log(error, "boom"); }}')
    return "\n".join(parts)


def test_deep_chain_matches_closure_oracle():
    depth = 10
    analysis = analyze_model(parse_program(_chain_program(depth)))
    store = analysis.store
    seed_path = store.by_method[depth][0].id
    ann = AnnotationSet(
        alerting=frozenset({0}), seed_anomaly=frozenset({seed_path})
    )
    infection = propagate(store, ann)

    # oracle: transitive closure of "calls into a method owning an
    # anomalous path", computed independently over the stored steps
    anomalous = {depth}
    grown = True
    while grown:
        grown = False
        for mid, paths in store.by_method.items():
            if mid in anomalous:
                continue
            for p in paths:
                if any(isinstance(s, CallStep) and s.callee in anomalous
                       for s in p.steps):
                    anomalous.add(mid)
                    grown = True
    for mid, paths in store.by_method.items():
        for p in paths:
            expected = (
                Status.SEED if p.id == seed_path
                else Status.INFECTED if any(
                    isinstance(s, CallStep) and s.callee in anomalous
                    for s in p.steps)
                else Status.CLEAN
            )
            assert infection.status[p.id] is expected
    # exactly one infected path per intermediate level
    infected = [pid for pid, s in infection.status.items()
                if s is Status.INFECTED]
    assert len(infected) == depth


def test_propagation_is_a_fixpoint(datanode_analysis, datanode_infection):
    store = datanode_analysis.store
    status = datanode_infection.status
    anomalous_methods = {
        mid for mid, paths in store.by_method.items()
        if any(status[p.id] is not Status.CLEAN for p in paths)
    }
    for p in store.all_paths():
        calls_infected = any(
            isinstance(s, CallStep) and s.callee in anomalous_methods
            for s in p.steps
        )
        if status[p.id] is Status.CLEAN:
            assert not calls_infected
        elif status[p.id] is Status.INFECTED:
            assert calls_infected


def test_monotonicity_adding_seeds(datanode_analysis):
    store = datanode_analysis.store
    base = propagate(store, AnnotationSet(
        alerting=frozenset({EV_TIMED_OUT}), seed_anomaly=frozenset({EP_D})
    ))
    rank = {Status.CLEAN: 0, Status.INFECTED: 1, Status.SEED: 2}
    # adding methodB's path as a second seed never demotes anything
    more = propagate(store, AnnotationSet(
        alerting=frozenset({EV_TIMED_OUT, 1}),
        seed_anomaly=frozenset({EP_D, EP_B}),
    ))
    for pid in base.status:
        assert rank[more.status[pid]] >= rank[base.status[pid]]


def test_clean_soundness_exhaustive(datanode_analysis, datanode_infection):
    """From a clean path, no chain of choices can reach a seed."""
    store = datanode_analysis.store
    status = datanode_infection.status

    def reachable_paths(path, seen):
        yield path
        for step in path.steps:
            if isinstance(step, CallStep):
                for p in store.by_method[step.callee]:
                    if p.id not in seen:
                        seen.add(p.id)
                        yield from reachable_paths(p, seen)

    for start in store.all_paths():
        if status[start.id] is not Status.CLEAN:
            continue
        for p in reachable_paths(start, {start.id}):
            assert status[p.id] is not Status.SEED