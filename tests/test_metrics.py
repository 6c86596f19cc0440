from __future__ import annotations

import random

import pytest

from logsynth.errors import LogsynthError
from logsynth.generation import (
    GenParams,
    Label,
    LogDataset,
    LogSequence,
    generate_dataset,
)
from logsynth.metrics import (
    d_coverage,
    logging_coverage,
    measure_throughput,
    normalize_template,
    train_detector,
)

from .conftest import EV_RECEIVED
from .modelgen import parse_program
from .oracles import coverage_by_message


def _dataset(analysis, infection, **kw) -> LogDataset:
    base = dict(size=50, anomaly_rate=0.0, seed=1)
    base.update(kw)
    return generate_dataset(
        GenParams(**base), analysis.model, infection, analysis.store,
        analysis.pruned, analysis.call_graph,
    )


# ── Logging coverage ─────────────────────────────────────────────────

def test_full_coverage_on_golden_fixture(datanode_analysis, datanode_infection):
    ds = _dataset(datanode_analysis, datanode_infection,
                  size=1000, anomaly_rate=0.03)
    report = logging_coverage(ds, datanode_analysis.model)
    assert report.total == 4
    assert report.discovered == 4
    assert report.coverage == 1.0


def test_partial_coverage_single_sequence(datanode_analysis):
    ds = LogDataset(
        sequences=[LogSequence(0, Label.NORMAL, (EV_RECEIVED,), entry=1)],
        events=dict(datanode_analysis.store.events),
        params=GenParams(size=1, anomaly_rate=0.0),
    )
    report = logging_coverage(ds, datanode_analysis.model)
    assert report.discovered == 1
    assert report.total == 4
    assert report.coverage == 0.25
    assert report.curve == [(1, 0.25)]


def test_curve_sampling_and_monotonicity(datanode_analysis, datanode_infection):
    ds = _dataset(datanode_analysis, datanode_infection, size=2000,
                  anomaly_rate=0.01, max_loop_reps=3)
    report = logging_coverage(ds, datanode_analysis.model)
    messages = sum(len(s.events) for s in ds.sequences)
    assert report.curve[-1] == (messages, report.coverage)
    sampled = [m for m, _ in report.curve]
    assert sampled[:-1] == [1000 * (i + 1) for i in range(len(sampled) - 1)]
    for (m1, c1), (m2, c2) in zip(report.curve, report.curve[1:]):
        assert m2 >= m1 and c2 >= c1


def test_curve_is_monotone_on_fuzzed_orderings(datanode_analysis, datanode_infection):
    for seed in range(10):
        ds = _dataset(datanode_analysis, datanode_infection, size=500,
                      anomaly_rate=0.1, seed=seed)
        random.Random(seed).shuffle(ds.sequences)
        report = logging_coverage(ds, datanode_analysis.model)
        for (m1, c1), (m2, c2) in zip(report.curve, report.curve[1:]):
            assert m2 >= m1 and c2 >= c1


def _lengths_dataset(lengths, rng: random.Random, ids: int) -> LogDataset:
    """Sequences of the given lengths, events drawn from range(ids)."""
    return LogDataset(
        sequences=[
            LogSequence(i, Label.NORMAL,
                        tuple(rng.randrange(ids) for _ in range(n)), entry=0)
            for i, n in enumerate(lengths)
        ],
        events={},
        params=GenParams(size=max(1, len(lengths)), anomaly_rate=0.0),
    )


def test_coverage_matches_the_per_message_oracle(datanode_analysis):
    model = datanode_analysis.model  # 4 logging statements
    silent = parse_program("void quiet() { }")  # none: total == 0
    shapes = [
        [],                       # no sequence at all
        [0, 0, 0],                # only empty sequences
        [300, 2500, 0, 10],       # one sequence crosses samples 1000 and 2000
        [999, 1],                 # a sample at the very end of a sequence
        [0, 1000, 0],             # a sample at the end, then empties
        [400, 0, 600, 1200, 800],  # total 3000 ends on a sample point
    ]
    for seed in range(30):
        rng = random.Random(seed)
        shapes.append([rng.choice((0, 0, rng.randrange(1, 40),
                                   rng.randrange(1, 1500)))
                       for _ in range(rng.randrange(1, 12))])
    # 6 ids saturate within a few messages; among 5,000 almost every
    # message is new, so a sample taken one message early or late shows
    for i, lengths in enumerate(shapes):
        for m, ids in ((model, 6), (model, 5000), (silent, 5000)):
            ds = _lengths_dataset(lengths, random.Random(i), ids)
            report = logging_coverage(ds, m)
            assert report == coverage_by_message(ds, m), (lengths, ids)
            points = [n for n, _ in report.curve]
            assert len(points) == len(set(points))
    assert logging_coverage(_lengths_dataset([], random.Random(0), 6),
                            silent).curve == [(0, 1.0)]


# ── Reference-dataset coverage ───────────────────────────────────────

def test_self_coverage_is_one(datanode_analysis, datanode_infection):
    ds = _dataset(datanode_analysis, datanode_infection)
    reference = [ev.template for ev in ds.events.values()]
    frac, unmatched = d_coverage(ds, reference)
    assert frac == 1.0 and unmatched == []


def test_foreign_template_lowers_fraction(datanode_analysis, datanode_infection):
    ds = _dataset(datanode_analysis, datanode_infection)
    reference = [ev.template for ev in ds.events.values()] + ["not in here"]
    frac, unmatched = d_coverage(ds, reference)
    assert frac == len(ds.events) / (len(ds.events) + 1)
    assert unmatched == ["not in here"]


def test_whitespace_normalized_matching(datanode_analysis, datanode_infection):
    ds = _dataset(datanode_analysis, datanode_infection)
    reference = ["  Received   block   <*> "]
    frac, unmatched = d_coverage(ds, reference)
    assert frac == 1.0 and unmatched == []
    assert normalize_template(" a  b\tc ") == "a b c"


def test_empty_reference_is_trivially_covered(datanode_analysis, datanode_infection):
    ds = _dataset(datanode_analysis, datanode_infection)
    assert d_coverage(ds, []) == (1.0, [])


# ── Throughput ───────────────────────────────────────────────────────

def test_throughput_measures_messages(datanode_analysis, datanode_infection):
    report = measure_throughput(
        GenParams(size=200, anomaly_rate=0.0, seed=2),
        datanode_analysis.model, datanode_infection, datanode_analysis.store,
        datanode_analysis.pruned, datanode_analysis.call_graph,
    )
    assert report.messages >= 400  # at least two events per sequence
    assert report.seconds > 0
    assert report.per_minute == pytest.approx(
        report.messages / report.seconds * 60.0
    )


def test_size_zero_rejected_before_measurement():
    from logsynth.generation import ConfigError

    with pytest.raises(ConfigError):
        GenParams(size=0, anomaly_rate=0.0)


# ── Baseline detector ────────────────────────────────────────────────

def _sequences(rows):
    return [LogSequence(i, label, tuple(events), entry=0)
            for i, (label, events) in enumerate(rows)]


def test_unseen_event_flags_anomaly():
    detector = train_detector(_sequences([
        (Label.NORMAL, (0, 1)), (Label.NORMAL, (0, 1, 0, 1)),
    ]))
    assert detector.score((0, 2, 3)) is Label.ANOMALY
    assert detector.score((0, 1)) is Label.NORMAL


def test_unseen_bigram_flags_anomaly():
    detector = train_detector(_sequences([(Label.NORMAL, (0, 1, 2))]))
    assert detector.score((2, 0)) is Label.ANOMALY  # events known, pair not
    assert detector.score((0, 1, 2)) is Label.NORMAL


def test_training_set_validation():
    with pytest.raises(LogsynthError, match="empty"):
        train_detector([])
    with pytest.raises(LogsynthError, match="only normal"):
        train_detector(_sequences([(Label.ANOMALY, (0,))]))


def test_degenerate_evaluation_convention():
    detector = train_detector(_sequences([(Label.NORMAL, (0, 1))]))
    with pytest.warns(UserWarning, match="convention"):
        p, r, f1 = detector.evaluate(_sequences([(Label.NORMAL, (0, 1))]))
    assert (p, r, f1) == (1.0, 1.0, 1.0)


def test_perfect_detector_on_separable_data():
    detector = train_detector(_sequences([
        (Label.NORMAL, (0, 1)), (Label.NORMAL, (0, 1, 0, 1)),
    ]))
    test = _sequences([
        (Label.NORMAL, (0, 1)),
        (Label.ANOMALY, (0, 2, 3)),
        (Label.NORMAL, (0, 1, 0, 1)),
        (Label.ANOMALY, (0, 3)),
    ])
    assert detector.evaluate(test) == (1.0, 1.0, 1.0)


def test_f1_identity_holds():
    detector = train_detector(_sequences([(Label.NORMAL, (0, 1))]))
    # an imperfect split: one anomaly undetected (its events are all known)
    test = _sequences([
        (Label.ANOMALY, (0, 1)),      # false negative
        (Label.ANOMALY, (5,)),        # true positive
        (Label.NORMAL, (0, 1)),       # true negative
        (Label.NORMAL, (1, 0)),       # false positive (bigram unseen)
    ])
    p, r, f1 = detector.evaluate(test)
    assert p == 0.5 and r == 0.5
    assert f1 == pytest.approx(2 * p * r / (p + r))


def test_detector_on_generated_data(datanode_analysis, datanode_infection):
    train = _dataset(datanode_analysis, datanode_infection,
                     size=200, anomaly_rate=0.0, seed=31).sequences
    test_ds = _dataset(datanode_analysis, datanode_infection,
                       size=200, anomaly_rate=0.1, seed=32)
    detector = train_detector(train)
    assert detector.evaluate(test_ds.sequences) == (1.0, 1.0, 1.0)
