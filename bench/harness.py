"""Run one workload through analyze → generate → stats and measure it.

One iteration makes the same public calls the CLI makes:

  analyze   read_sources → parse_units → lower_to_model → analyze_model
            → save_model → format_store_dump (written as paths.txt)
  generate  load_model → analyze_model → import_annotations → propagate
            (together: set-up) → generate_dataset → write_dataset
  stats     read_dataset → logging_coverage

Every iteration exports the worksheet from the analyze command's
analysis, outside the analyze and generate commands' spans; the first
export of an input is annotated by the workload's fixed rule.  This
equals the `worksheet --model` command because a model file analyzes to
the same store as its source.

Around the commands the iteration runs a calibration kernel (before
analyze, before generate, before stats and after stats), and every
reported time is scaled by the speed it measured (calibrate.py).

A run first makes a golden iteration on seed 0, whose output hashes must
equal those recorded in golden.json, then measures iterations on the
run's seed until its time is up.  Every iteration's outputs are checked;
an exception or a failed check counts all its sequences as failed and
the run goes on.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median
from time import perf_counter

from logsynth import generation, labeling, lowering, metrics, minilang
from logsynth import model as model_mod
from logsynth import pathfinding, pipeline
from logsynth.generation import GenParams, Label

from calibrate import REFERENCE_S, calibrate
from spans import Spans
from workloads import WORKLOADS, Workload, annotate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN_SEED = 0
HASHED = ("paths.txt", "templates.csv", "sequences.csv")
PROBE_STEP_S = 30.0    # one probe step; today's steps take about 1 s
PROBE_BUDGET_S = 90.0  # all probe steps, so that a traced run ends in time
PROBE_NOT_MEASURED = -1
STATS_REPEATS = 3  # stats is short, so each iteration runs it this often
STATS_SPANS = ("stats", "generation.read_dataset", "metrics.logging_coverage")


class CheckFailed(Exception):
    pass


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_golden() -> dict:
    return json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def maxrss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# Library functions whose internal calls are traced, at the attribute
# through which the library looks them up.
def trace_targets():
    return [
        (pipeline, "build_call_graph", "probing.build_call_graph"),
        (pipeline, "mark_log_methods", "probing.mark_log_methods"),
        (pipeline, "prune", "pruning.prune"),
        (pipeline, "build_store", "pathfinding.build_store"),
        (pathfinding, "enumerate_logeps", "pathfinding.enumerate_logeps"),
        (pathfinding, "restore_statement", "pathfinding.restore_statement"),
        (generation.Walker, "__init__", "generation.Walker.__init__"),
        (generation.Walker, "walk", "generation.Walker.walk"),
    ]


@dataclass
class Iteration:
    run: int
    traced: bool
    hashes: dict[str, str]
    counts: dict[str, float] = field(default_factory=dict)


class Run:
    """One benchmark run of one workload: iterations, checks, tallies."""

    def __init__(self, workload: Workload, workdir: Path):
        self.w = workload
        self.workdir = workdir
        self.spans = Spans()
        self.attempted = 0
        self.failed = 0
        self.iterations: list[Iteration] = []
        self.last_analysis = None
        self._calibrations: dict[int, list[tuple[float, float]]] = {}

    # ── one iteration ───────────────────────────────────────────────

    def attempt(self, seed: int, traced: bool = False,
                expected: dict | None = None) -> Iteration | None:
        """One checked iteration; failures are counted, never raised."""
        self.spans.run += 1
        self.attempted += self.w.size
        if traced:
            self.spans.patch(trace_targets())
        try:
            it = self._iteration(seed, traced)
            if expected is not None:
                for key, want in expected.items():
                    if it.hashes[key] != want:
                        raise CheckFailed(f"{key} sha256 {it.hashes[key]} "
                                          f"differs from recorded {want}")
        except Exception:
            self.failed += self.w.size
            print(f"bench: iteration {self.spans.run} of {self.w.name} "
                  f"(seed {seed}) failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.spans.unpatch()
        return it

    def _iteration(self, seed: int, traced: bool) -> Iteration:
        w, sp = self.w, self.spans
        d = self.workdir / f"seed{seed}"
        source_path = d / "program.mlog"
        worksheet = d / "worksheet.txt"
        if not source_path.exists():
            d.mkdir(parents=True, exist_ok=True)
            source_path.write_text(w.source(seed), encoding="utf-8")
        gc.collect()

        sp.call("calibrate", calibrate)
        with sp.span("analyze"):
            units = sp.call("pipeline.read_sources",
                            pipeline.read_sources, [str(source_path)])
            methods = sp.call("minilang.parse_units",
                              minilang.parse_units, units)
            model = sp.call("lowering.lower_to_model",
                            lowering.lower_to_model, methods)
            analysis = sp.call("pipeline.analyze_model", pipeline.analyze_model,
                               model, workers=w.workers)
            sp.call("model.save_model", model_mod.save_model,
                    model, d / "model.txt")
            with sp.span("pathfinding.format_store_dump"):
                (d / "paths.txt").write_text(
                    pathfinding.format_store_dump(analysis.store, model),
                    encoding="utf-8")

        exported = d / "exported.txt"
        sp.call("labeling.export_worksheet", labeling.export_worksheet,
                analysis.store, model, exported)
        if not worksheet.exists():
            alerting, seeds = w.rule(analysis.store)
            text = exported.read_text(encoding="utf-8")
            worksheet.write_text(annotate(text, alerting, seeds),
                                 encoding="utf-8")
        counts = {
            "lowering.activities": sum(len(m.cfg.nodes)
                                       for m in model.methods.values()),
            "probing.sccs": len(analysis.call_graph.sccs),
            "pruning.kept": len(analysis.pruned.kept),
            "pathfinding.paths": len(analysis.store.all_paths()),
            "model.file_bytes": (d / "model.txt").stat().st_size,
        }
        del analysis, model, methods, units

        out = d / "dataset"
        sp.call("calibrate", calibrate)
        with sp.span("generate"):
            with sp.span("setup"):
                model = sp.call("model.load_model", model_mod.load_model,
                                d / "model.txt")
                analysis = sp.call("pipeline.analyze_model",
                                   pipeline.analyze_model,
                                   model, workers=w.workers)
                ann = sp.call("labeling.import_annotations",
                              labeling.import_annotations,
                              worksheet, analysis.store)
                infection = sp.call("labeling.propagate", labeling.propagate,
                                    analysis.store, ann)
            params = GenParams(size=w.size, anomaly_rate=w.anomaly_rate,
                               entries=w.entries, seed=seed % 2**64)
            ds = sp.call("generation.generate_dataset",
                         generation.generate_dataset, params, model,
                         infection, analysis.store, analysis.pruned,
                         analysis.call_graph, workers=w.workers)
            if traced:
                counts["generation.rss_after_generate_mb"] = current_rss_mb()
            sp.call("generation.write_dataset", generation.write_dataset,
                    ds, out, model, ann)
            if traced:
                counts["generation.rss_after_write_mb"] = current_rss_mb()

        sp.call("calibrate", calibrate)
        for _ in range(STATS_REPEATS):
            with sp.span("stats"):
                back = sp.call("generation.read_dataset",
                               generation.read_dataset, out, model)
                report = sp.call("metrics.logging_coverage",
                                 metrics.logging_coverage, back, model)

        sp.call("calibrate", calibrate)
        check(w, params, ds, back, report, model, ann)
        counts["generation.messages"] = sum(len(s.events) for s in ds.sequences)
        counts["labeling.infected_paths"] = sum(
            1 for s in infection.status.values()
            if s is labeling.Status.INFECTED)
        if traced:
            self.last_analysis = analysis
        hashes = {name: sha256_file(d / name if name == "paths.txt" else out / name)
                  for name in HASHED}
        hashes["source"] = sha256_file(source_path)
        return Iteration(run=sp.run, traced=traced, hashes=hashes,
                         counts=counts)

    # ── a whole run ─────────────────────────────────────────────────

    def measure(self, seed: int, seconds: float, traced: bool) -> None:
        """Golden iteration, then measured iterations for `seconds`.  A
        traced run alternates untraced and traced iterations, so the two
        can be compared."""
        golden = load_golden()["workloads"][self.w.name]
        self.attempt(GOLDEN_SEED, expected=golden)
        start = perf_counter()
        last = 0.0
        reference = None
        while True:
            n = len(self.iterations)
            enough = n >= (4 if traced else 3)
            if enough and perf_counter() - start + last > seconds:
                break
            t0 = perf_counter()
            it = self.attempt(seed, traced=traced and n % 2 == 1,
                              expected=reference)
            last = perf_counter() - t0
            if it is None:
                if perf_counter() - start > seconds:
                    break
                continue
            if reference is None:
                reference = {k: it.hashes[k] for k in HASHED}
            self.iterations.append(it)

    def factor(self, idx: int) -> float:
        """What turns span `idx`'s wall time into time at the reference
        speed: REFERENCE_S over the mean of the calibrations just before
        and just after its command.  An iteration calibrates before
        analyze, before generate, before stats and after stats."""
        run, start = self.spans.records[idx][4], self.spans.records[idx][1]
        cal = self._calibrations.get(run)
        if cal is None:
            cal = self._calibrations[run] = [
                (self.spans.records[i][1], self.spans.duration(i))
                for i in self.spans.find(run, "calibrate")]
        k = min(len(cal) - 2, max(0, sum(s < start for s, _ in cal) - 1))
        return 2 * REFERENCE_S / (cal[k][1] + cal[k + 1][1])

    def durations(self, name: str, traced: bool = False,
                  under: str | None = None) -> list[float]:
        """Per iteration, the summed time of the spans called `name` at
        the reference speed; for the stats command's spans, per stats
        command."""
        per = STATS_REPEATS if name in STATS_SPANS else 1
        return [sum(self.spans.duration(i) * self.factor(i)
                    for i in self.spans.find(it.run, name, under)) / per
                for it in self.iterations if it.traced == traced]

    # ── end-to-end metrics ──────────────────────────────────────────

    def end_to_end(self, traced: bool = False) -> dict[str, float]:
        """Interquartile means over iterations of times at the reference
        speed; the rate is per iteration, messages over walking and
        writing time."""
        gen_write = [a + b for a, b in zip(
            self.durations("generation.generate_dataset", traced),
            self.durations("generation.write_dataset", traced))]
        messages = [it.counts["generation.messages"]
                    for it in self.iterations if it.traced == traced]
        return {
            "setup_s": iq_mean(self.durations("setup", traced)),
            "analyze_s": iq_mean(self.durations("analyze", traced)),
            "generate_s": iq_mean(self.durations("generate", traced)),
            "msgs_per_s": iq_mean([m / t for m, t in zip(messages, gen_write)]),
            "stats_s": iq_mean(self.durations("stats", traced)),
            "peak_rss_mb": maxrss_mb(),
        }

    def calibration_ms(self) -> float:
        """Median wall time of the calibration kernel over the run."""
        return 1e3 * median(self.spans.duration(i) for it in self.iterations
                            for i in self.spans.find(it.run, "calibrate"))

    # ── per-layer metrics (traced iterations only) ──────────────────

    def per_layer(self) -> dict[str, float]:
        traced = [it for it in self.iterations if it.traced]

        def med(name, under=None):
            return median(self.durations(name, True, under))

        def count(name):
            return median(it.counts[name] for it in traced)

        out = {
            "minilang.parse_s": med("minilang.parse_units"),
            "lowering.lower_s": med("lowering.lower_to_model"),
            "model.save_s": med("model.save_model"),
            "model.load_s": med("model.load_model"),
            "probing.call_graph_s": med("probing.build_call_graph"),
            "probing.mark_s": med("probing.mark_log_methods"),
            "pruning.prune_s": med("pruning.prune"),
            "pathfinding.build_store_s": med("pathfinding.build_store"),
            "pathfinding.enumerate_s": med("pathfinding.enumerate_logeps"),
            "pathfinding.restore_s": med("pathfinding.restore_statement"),
            "pathfinding.dump_s": med("pathfinding.format_store_dump"),
            "labeling.export_s": med("labeling.export_worksheet"),
            "labeling.import_s": med("labeling.import_annotations"),
            "labeling.propagate_s": med("labeling.propagate"),
            "generation.walker_init_s": med("generation.Walker.__init__"),
            "generation.generate_dataset_s": med("generation.generate_dataset"),
            "generation.write_s": med("generation.write_dataset"),
            "generation.read_s": med("generation.read_dataset"),
            "metrics.coverage_s": med("metrics.logging_coverage"),
        }
        out["generation.generate_dataset_self_s"] = median(
            self.spans.self_time(i) * self.factor(i) for it in traced
            for i in self.spans.find(it.run, "generation.generate_dataset"))
        for name in ("lowering.activities", "probing.sccs", "pruning.kept",
                     "pathfinding.paths", "model.file_bytes",
                     "labeling.infected_paths", "generation.messages",
                     "generation.rss_after_generate_mb",
                     "generation.rss_after_write_mb"):
            out[name] = count(name)
        out["generation.msgs_per_walk"] = out["generation.messages"] / self.w.size

        walks = sorted(self.spans.duration(i) * self.factor(i) * 1e6
                       for it in traced
                       for i in self.spans.find(it.run, "generation.Walker.walk"))
        out["generation.walks"] = len(walks) / len(traced)
        out["generation.walk_p50_us"] = percentile(walks, 50)
        pct = tail_percentile(len(walks))
        out["generation.walk_tail_pct"] = pct
        out["generation.walk_tail_us"] = percentile(walks, pct)

        out["generation.walk_share_of_generate"] = median(
            w / g for w, g in zip(self.durations("generation.Walker.walk", True),
                                  self.durations("generate", True)))
        out["pathfinding.build_store_share_of_analyze"] = median(
            b / a for b, a in zip(
                self.durations("pathfinding.build_store", True, "analyze"),
                self.durations("analyze", True)))
        out["labeling.propagate_share_of_setup"] = median(
            p / s for p, s in zip(self.durations("labeling.propagate", True),
                                  self.durations("setup", True)))

        plain, with_spans = self.end_to_end(False), self.end_to_end(True)
        out["trace.analyze_overhead_s"] = with_spans["analyze_s"] - plain["analyze_s"]
        out["trace.generate_overhead_s"] = with_spans["generate_s"] - plain["generate_s"]
        out["generation.pool_child_rss_mb"] = maxrss_mb(resource.RUSAGE_CHILDREN)
        out.update(enumeration_counts(self.last_analysis))
        out.update(capacity_probe())
        return out


def check(w: Workload, params: GenParams, ds, back, report, model, ann) -> None:
    """Output checks that do not depend on recorded hashes."""
    if len(ds.sequences) != params.size:
        raise CheckFailed(f"{len(ds.sequences)} sequences, asked for {params.size}")
    anomalies = [s for s in ds.sequences if s.label is Label.ANOMALY]
    want = round(params.size * params.anomaly_rate)
    if len(anomalies) != want:
        raise CheckFailed(f"{len(anomalies)} anomalies, expected {want}")
    for s in anomalies:
        if not ann.alerting.intersection(s.events):
            raise CheckFailed(f"anomaly sequence {s.seq_id} has no alerting event")
    if w.alerts_only_on_seeds:
        for s in ds.sequences:
            if s.label is Label.NORMAL and ann.alerting.intersection(s.events):
                raise CheckFailed(f"normal sequence {s.seq_id} has an alerting event")
    if back.sequences != ds.sequences or back.events != ds.events:
        raise CheckFailed("the dataset read back differs from the one written")
    seen = {e for s in ds.sequences for e in s.events}
    if report.discovered != len(seen) or report.total != len(model.statements()):
        raise CheckFailed("logging coverage disagrees with the dataset")


def iq_mean(values: list[float]) -> float:
    """Mean of the middle half of `values` (all of them when fewer than
    four)."""
    v = sorted(values)
    k = len(v) // 4
    return mean(v[k:len(v) - k])


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest of a few percentiles with at least ten samples beyond
    it; 50 when even the median has fewer, 0 with no samples."""
    if n == 0:
        return 0.0
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50.0


class _Counter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.n = 0

    def emit(self, record):
        if "truncated" in record.getMessage():
            self.n += 1


def enumeration_counts(analysis) -> dict[str, float]:
    """Raw (pre-filter) paths and truncated methods, counted in this
    process so that a pooled build_store does not hide them."""
    counter = _Counter()
    logger = logging.getLogger("logsynth.pathfinding")
    logger.addHandler(counter)
    try:
        raw = sum(len(pathfinding.enumerate_logeps(
                      analysis.model.methods[mid], analysis.pruned))
                  for mid in sorted(analysis.pruned.kept))
    finally:
        logger.removeHandler(counter)
    return {
        "pathfinding.raw_paths": raw,
        "pathfinding.truncated_methods": counter.n,
        "pathfinding.feasible_ratio": len(analysis.store.all_paths()) / raw,
    }


def capacity_probe() -> dict[str, float]:
    """Deepest chain and longest straight-line method that analyze plus a
    one-sequence generate completes, doubling until the first failure.
    Each step runs in its own process, so a crash costs only that step.
    A step that runs out of time has not failed: the metric is then
    reported as PROBE_NOT_MEASURED rather than as a smaller count."""
    deadline = perf_counter() + PROBE_BUDGET_S
    out = {}
    for metric, shape, first in (("generation.max_chain_depth", "chain", 100),
                                 ("pathfinding.max_straight_stmts", "straight", 250)):
        best, n = 0, first
        while n <= first * 128:
            timeout = min(PROBE_STEP_S, deadline - perf_counter())
            try:
                done = subprocess.run(
                    [sys.executable, str(BENCH / "probe.py"), shape, str(n)],
                    cwd=ROOT, capture_output=True, timeout=max(0.0, timeout))
            except subprocess.TimeoutExpired:
                print(f"bench: capacity probe step {shape} {n} ran out of "
                      f"time after {timeout:.0f} s; {metric} not measured",
                      file=sys.stderr)
                best = PROBE_NOT_MEASURED
                break
            if done.returncode != 0:
                break
            best, n = n, n * 2
        out[metric] = best
    return out


def main(workload: str, seed: int, seconds: int, trace: bool) -> int:
    w = WORKLOADS[workload]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = contract["per_layer" if trace else "end_to_end"]
    workdir = ROOT / ".bench_work" / w.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    run = Run(w, workdir)
    run.measure(seed, seconds, trace)
    run.spans.dump(workdir / "spans.json")
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "workers": w.workers}
    print(f"# workload={w.name} seed={seed} trace={int(trace)} "
          f"env={json.dumps(env)} iterations={len(run.iterations)}")
    if run.iterations:
        print(f"# calibration kernel: median {run.calibration_ms():.2f} ms, "
              f"reference {REFERENCE_S * 1e3:.2f} ms")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": {}}
    if {False, trace} - {it.traced for it in run.iterations}:
        print("bench: too few iterations succeeded; nothing to report",
              file=sys.stderr)
        print(json.dumps(result))
        return 1
    values = run.per_layer() if trace else run.end_to_end()
    for m in wanted:
        print(f"#   {m['name']:<44} {values[m['name']]:>14.6g} "
              f"{m['unit']:<6} {m['better']} is better")
    print(f"#   {'failed_frac':<44} {run.failed / run.attempted:>14.6g} "
          f"ratio  lower is better")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0
