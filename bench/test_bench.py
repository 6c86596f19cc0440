"""Tests of the benchmark itself:  python -m pytest bench"""

import hashlib
import json
from pathlib import Path

import pytest

import harness
from harness import ROOT, Run
from workloads import (WORKLOADS, Workload, chain_source, every_alarm_path,
                       layered_model_source, no_annotations)

SMALL = [
    Workload("tiny-walk", lambda seed: layered_model_source(seed, 40),
             no_annotations, size=6, anomaly_rate=0.0, workers=1),
    Workload("tiny-chains", lambda seed: chain_source(seed, 4, 12, n_alert=1),
             every_alarm_path, size=10, anomaly_rate=0.2, workers=1,
             alerts_only_on_seeds=True),
]


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_clean_iteration_passes_its_checks(w, tmp_path):
    run = Run(w, tmp_path)
    first = run.attempt(5)
    again = run.attempt(5, expected=first.hashes)
    assert again is not None
    assert (run.attempted, run.failed) == (2 * w.size, 0)


@pytest.mark.parametrize("w", SMALL, ids=lambda w: w.name)
def test_flipped_output_byte_is_counted_as_failed(w, tmp_path, monkeypatch):
    run = Run(w, tmp_path)
    expected = run.attempt(5).hashes
    write = harness.generation.write_dataset

    def write_then_flip(ds, outdir, *args):
        write(ds, outdir, *args)
        path = Path(outdir) / "sequences.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))

    monkeypatch.setattr(harness.generation, "write_dataset", write_then_flip)
    # read_dataset would catch most flips; the hash catches every one
    monkeypatch.setattr(harness, "check", lambda *args: None)
    assert run.attempt(5, expected=expected) is None
    assert (run.attempted, run.failed) == (2 * w.size, w.size)


def test_raising_walk_is_counted_not_raised(tmp_path, monkeypatch):
    w = SMALL[1]
    calls = []
    walk = harness.generation.Walker.walk

    def flaky(self, *args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("walk failed on purpose")
        return walk(self, *args)

    monkeypatch.setattr(harness.generation.Walker, "walk", flaky)
    run = Run(w, tmp_path)
    assert run.attempt(5) is None
    assert run.attempt(5) is not None
    assert (run.attempted, run.failed) == (2 * w.size, w.size)


def test_traced_iteration_records_library_spans(tmp_path):
    walk = harness.generation.Walker.walk
    run = Run(SMALL[1], tmp_path)
    it = run.attempt(5, traced=True)
    names = {run.spans.records[i][0] for i in run.spans.of_run(it.run)}
    assert {"pathfinding.enumerate_logeps", "generation.Walker.walk",
            "pruning.prune", "labeling.propagate"} <= names
    assert harness.generation.Walker.walk is walk


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generators_are_byte_stable(name):
    source = WORKLOADS[name].source
    recorded = harness.load_golden()["workloads"][name]["source"]
    assert hashlib.sha256(source(0).encode()).hexdigest() == recorded
    assert source(7) == source(7)
    assert source(7) != source(8)


def test_times_are_scaled_by_the_calibrations_around_their_command(tmp_path):
    run = Run(SMALL[0], tmp_path)
    sp, t = run.spans, 0.0
    sp.run = 1
    for name, seconds in (("calibrate", 0.01), ("analyze", 1.0),
                          ("calibrate", 0.03), ("generate", 2.0),
                          ("calibrate", 0.02), ("stats", 3.0),
                          ("calibrate", 0.02)):
        with sp.span(name):
            pass
        sp.records[-1][1:3] = [t, t + seconds]
        t += seconds
    run.iterations.append(harness.Iteration(run=1, traced=False, hashes={}))
    ref = harness.REFERENCE_S
    assert run.durations("analyze") == pytest.approx([1.0 * ref / 0.02])
    assert run.durations("generate") == pytest.approx([2.0 * ref / 0.025])
    # three stats commands per iteration
    assert run.durations("stats") == pytest.approx([1.0 * ref / 0.02])


def test_interquartile_mean():
    assert harness.iq_mean([7, 1, 100, 3, 5, 2, 6, 4]) == 4.5
    assert harness.iq_mean([2, 4, 9]) == 5


def test_percentiles():
    values = sorted(float(v) for v in range(1, 201))
    assert harness.percentile(values, 50) == 100.0
    assert harness.tail_percentile(200) == 95.0
    assert harness.percentile(values, 95.0) == 190.0
    assert harness.tail_percentile(0) == 0.0


def test_reported_metrics_match_the_contract(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    run = Run(SMALL[1], tmp_path)
    for traced in (False, True, False, True):
        run.iterations.append(run.attempt(5, traced=traced))
    assert run.failed == 0
    assert set(run.end_to_end()) == {m["name"] for m in contract["end_to_end"]}
    layers = run.per_layer()
    assert set(layers) == {m["name"] for m in contract["per_layer"]}
    assert layers["generation.max_chain_depth"] >= 100
    assert layers["pathfinding.max_straight_stmts"] >= 250


def test_probe_timeout_is_not_measured_and_a_crash_stops_the_search(monkeypatch):
    def fake_run(cmd, **kwargs):
        shape, n = cmd[-2], int(cmd[-1])
        if shape == "chain" and n == 400:
            raise harness.subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return harness.subprocess.CompletedProcess(cmd, 1 if n >= 1000 else 0)

    monkeypatch.setattr(harness.subprocess, "run", fake_run)
    assert harness.capacity_probe() == {
        "generation.max_chain_depth": harness.PROBE_NOT_MEASURED,
        "pathfinding.max_straight_stmts": 500,
    }
