"""The path-level least fixpoint: its contract on a hand-built store, and
the three sets computed with it (infection status, clean-completable and
emitting paths) against naive sweeps on random models with recursive call
cycles and ambiguous dispatch."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from logsynth.generation import GenParams, Walker
from logsynth.labeling import AnnotationSet, Status, propagate
from logsynth.model import dumps_model, loads_model
from logsynth.pathfinding import CallStep, LogPath, LogStep, PathStore
from logsynth.pipeline import analyze_model

from .modelgen import call_graph_model, parse_program, structured_program
from .oracles import sweep_fixpoint


def _store(paths: dict[int, list[tuple]]) -> PathStore:
    """Paths given as {path id: (method, steps...)}."""
    by_method: dict[int, list[LogPath]] = {}
    for pid, (mid, *steps) in sorted(paths.items()):
        by_method.setdefault(mid, []).append(LogPath(pid, mid, tuple(steps)))
    return PathStore(by_method=by_method, events={})


def test_least_fixpoint_contract():
    store = _store({
        0: (0, LogStep(0)),
        1: (1, CallStep(0), CallStep(0)),     # one distinct callee
        2: (2, CallStep(0), CallStep(3)),     # needs both callees
        3: (3, CallStep(3)),                  # self-recursive only
        4: (4, CallStep(0)),                  # absent from need
        5: (5, CallStep(1), CallStep(2)),
    })
    assert store.least_fixpoint({0: 0, 1: 1, 2: 2, 3: 1, 5: 1}) == {0, 1, 5}
    assert store.least_fixpoint({0: 0, 1: 2}) == {0}
    assert store.least_fixpoint({0: 0, 2: 2, 3: 0, 5: 2}) == {0, 2, 3}
    assert store.least_fixpoint({1: 1, 3: 1}) == set()
    assert store.least_fixpoint({}) == set()


def _with_ambiguous_dispatch(model, rng: random.Random):
    """The model with a second callee added at about a third of its call
    sites, through the model-file format's call records."""
    lines = dumps_model(model).splitlines()
    mids = sorted(model.methods)
    extra = []
    for line in lines:
        if line.startswith("C ") and rng.random() < 0.35:
            _, caller, site, callee = line.split()
            other = rng.choice(mids)
            if other != int(callee):
                extra.append(f"C {caller} {site} {other}")
    return loads_model("\n".join(lines + extra) + "\n")


def _random_model(seed: int):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        model = call_graph_model(rng, rng.randint(4, 25), log_fraction=0.3)
    else:
        model = parse_program(structured_program(rng, rng.randint(2, 8), 2))
    return _with_ambiguous_dispatch(model, rng), rng


def _callees(p: LogPath) -> set[int]:
    return {s.callee for s in p.steps if isinstance(s, CallStep)}


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_three_fixpoints_match_naive_sweeps(seed):
    model, rng = _random_model(seed)
    analysis = analyze_model(model)
    store = analysis.store
    pids = [p.id for p in store.all_paths()]
    seeds = frozenset(rng.sample(pids, min(len(pids), rng.randint(0, 3))))

    infection = propagate(store, AnnotationSet(alerting=frozenset(),
                                               seed_anomaly=seeds))
    reach = sweep_fixpoint(
        store, lambda p, owners: p.id in seeds or bool(_callees(p) & owners))
    assert infection.status == {
        p.id: Status.SEED if p.id in seeds
        else Status.INFECTED if p.id in reach else Status.CLEAN
        for p in store.all_paths()
    }

    walker = Walker(model, store, infection, analysis.call_graph,
                    GenParams(size=1, anomaly_rate=0.0))
    clean = sweep_fixpoint(
        store, lambda p, owners: p.id not in seeds and _callees(p) <= owners)
    assert walker.clean_completable == clean
    emitting = sweep_fixpoint(
        store, lambda p, owners: p.id in clean and (
            any(isinstance(s, LogStep) for s in p.steps)
            or bool(_callees(p) & owners)))
    assert {m: walker.normal_entry_ok(m) for m in model.methods} == {
        m: any(p.id in emitting for p in store.by_method.get(m, []))
        for m in model.methods}
