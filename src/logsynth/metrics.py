"""Evaluation machinery: logging coverage with its real-time curve,
reference-dataset coverage, generation throughput, and a small baseline
anomaly detector used to check that generated datasets are learnable.

The detector is deliberately simple: it memorizes the events and event
bigrams seen in normal training sequences and flags anything containing
an unseen event, or more than a threshold fraction of unseen bigrams.
On datasets where seed events never occur in normal data that is enough
to reach perfect separation, which is the property being tested.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

from .errors import LogsynthError
from .generation import (
    GenParams,
    Label,
    LogDataset,
    LogSequence,
    generate_dataset,
)
from .model import EventId, Log, ProgramModel

CURVE_SAMPLE_EVERY = 1000


@dataclass
class CoverageReport:
    discovered: int
    total: int
    coverage: float
    curve: list[tuple[int, float]]  # (messages emitted, running coverage)


def logging_coverage(ds: LogDataset, model: ProgramModel) -> CoverageReport:
    """Distinct events in the dataset over all logging statements in the
    program, with the running curve sampled every 1,000 messages and after
    the last one.  Events are added a sequence at a time, split only where
    a sample point falls inside a sequence, so each sample sees exactly
    the messages emitted up to it."""
    total = len([act for m in model.methods.values()
                 for act in m.cfg.nodes.values() if type(act) is Log])
    seen: set[EventId] = set()
    emitted = 0
    curve: list[tuple[int, float]] = []

    def ratio() -> float:
        return len(seen) / total if total else 1.0

    next_sample = CURVE_SAMPLE_EVERY
    for seq in ds.sequences:
        events = seq.events
        end = emitted + len(events)
        start = 0
        while next_sample <= end:
            cut = next_sample - emitted
            seen.update(events[start:cut])
            start = cut
            curve.append((next_sample, ratio()))
            next_sample += CURVE_SAMPLE_EVERY
        seen.update(events[start:])
        emitted = end
    if not curve or curve[-1][0] != emitted:
        curve.append((emitted, ratio()))
    return CoverageReport(
        discovered=len(seen), total=total, coverage=ratio(), curve=curve
    )


def normalize_template(template: str) -> str:
    """Collapse runs of whitespace and trim, for template matching."""
    return " ".join(template.split())


def d_coverage(ds: LogDataset, reference: list[str]) -> tuple[float, list[str]]:
    """Fraction of reference templates that the dataset's template table
    matches exactly after whitespace normalization, plus the misses."""
    have = {normalize_template(ev.template) for ev in ds.events.values()}
    unmatched = [t for t in reference if normalize_template(t) not in have]
    if not reference:
        return 1.0, []
    return (len(reference) - len(unmatched)) / len(reference), unmatched


@dataclass
class ThroughputReport:
    messages: int
    seconds: float
    per_minute: float


def measure_throughput(
    params: GenParams,
    model: ProgramModel,
    infection,
    store,
    cg_prime,
    call_graph,
) -> ThroughputReport:
    """Wall-clock messages per minute for one generation run."""
    start = time.perf_counter()
    ds = generate_dataset(params, model, infection, store, cg_prime, call_graph)
    elapsed = time.perf_counter() - start
    messages = sum(len(s.events) for s in ds.sequences)
    per_minute = messages / elapsed * 60.0 if elapsed > 0 else float("inf")
    return ThroughputReport(messages=messages, seconds=elapsed, per_minute=per_minute)


# ── Baseline detector ────────────────────────────────────────────────

@dataclass
class DetectorModel:
    known_events: frozenset[EventId]
    bigram_counts: dict[tuple[EventId, EventId], int]
    threshold: float = 0.0

    def score(self, events: tuple[EventId, ...]) -> Label:
        """Anomaly iff the sequence contains an unseen event or its unseen
        bigram fraction exceeds the threshold."""
        if any(ev not in self.known_events for ev in events):
            return Label.ANOMALY
        bigrams = list(zip(events, events[1:]))
        if not bigrams:
            return Label.NORMAL
        unseen = sum(1 for b in bigrams if b not in self.bigram_counts)
        if unseen / len(bigrams) > self.threshold:
            return Label.ANOMALY
        return Label.NORMAL

    def evaluate(self, test: list[LogSequence]) -> tuple[float, float, float]:
        """(precision, recall, F1) of score() against the test labels."""
        tp = fp = fn = 0
        for seq in test:
            predicted = self.score(seq.events)
            actual = seq.label
            if predicted is Label.ANOMALY and actual is Label.ANOMALY:
                tp += 1
            elif predicted is Label.ANOMALY:
                fp += 1
            elif actual is Label.ANOMALY:
                fn += 1
        if tp + fp == 0 and fn == 0:
            warnings.warn(
                "no anomalies present or predicted; reporting P=R=F1=1.0 by convention"
            )
            return 1.0, 1.0, 1.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1


def train_detector(train: list[LogSequence], threshold: float = 0.0) -> DetectorModel:
    """Fit the baseline on normal sequences only."""
    if not train:
        raise LogsynthError("detector training set is empty")
    if any(seq.label is not Label.NORMAL for seq in train):
        raise LogsynthError("detector training set must contain only normal sequences")
    known: set[EventId] = set()
    bigrams: dict[tuple[EventId, EventId], int] = {}
    for seq in train:
        known.update(seq.events)
        for pair in zip(seq.events, seq.events[1:]):
            bigrams[pair] = bigrams.get(pair, 0) + 1
    return DetectorModel(
        known_events=frozenset(known), bigram_counts=bigrams, threshold=threshold
    )
