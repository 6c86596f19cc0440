"""Command line interface.

Subcommands mirror the pipeline: analyze writes the model file and path
dump, prune/paths dump intermediate results for inspection, worksheet
exports the annotation worksheet, generate produces a dataset from an
annotated worksheet, and stats reports coverage over a written dataset.

Diagnostics go to stderr; data goes to files or stdout, never mixed.
Exit code is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import LogsynthError, utf8_errors
from .generation import (
    ConfigError,
    GenParams,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from .labeling import AnnotationSet, export_worksheet, import_annotations, propagate
from .metrics import d_coverage, logging_coverage
from .model import dumps_model
from .pathfinding import PathLimits, store_dump_lines
from .pipeline import analyze_model, load_input, summarize
from .probing import LoggingApiConfig, build_call_graph, mark_log_methods
from .pruning import format_classification, prune


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("sources", nargs="*", metavar="SOURCE",
                   help="MiniLang source files or directories")
    p.add_argument("--model", help="load a model file instead of sources")


def _add_pruning_args(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--logging-api", metavar="FILE",
                   help="file of external logging API names, one per line")


def _add_analysis_args(p: argparse.ArgumentParser) -> None:
    _add_pruning_args(p)
    p.add_argument("--max-paths", type=int, default=PathLimits().max_paths_per_method,
                   help="per-method cap on feasible, distinct paths and on the "
                        "feasible walks searched for them or for one "
                        "template (default %(default)s)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsynth",
        description="Analyze logging-instrumented programs and generate "
                    "labeled log-sequence datasets without running them.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run probing, pruning, and path finding")
    _add_analysis_args(p)
    p.add_argument("--out", required=True, help="output directory for artifacts")

    p = sub.add_parser(
        "prune", help="dump the pruning classification",
        description="Dump the pruning classification.  Only the call graph "
                    "is built and pruned; no path is enumerated.",
    )
    _add_pruning_args(p)
    p.add_argument("--dump", action="store_true", required=True)

    p = sub.add_parser("paths", help="dump events and per-method paths")
    _add_analysis_args(p)
    p.add_argument("--dump", action="store_true", required=True)

    p = sub.add_parser("worksheet", help="export the annotation worksheet")
    _add_analysis_args(p)
    p.add_argument("--out", required=True, help="worksheet file to write")

    p = sub.add_parser("generate", help="generate a labeled dataset")
    _add_analysis_args(p)
    p.add_argument("--annotations", help="annotated worksheet file")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--anomaly-rate", type=float, default=0.0)
    p.add_argument("--component", help="restrict entries to one component")
    p.add_argument("--entry", action="append", default=None, metavar="NAME",
                   help="entry method (repeatable)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $LOGSYNTH_SEED or 0)")
    p.add_argument("--max-loop-reps", type=int, default=3)
    p.add_argument("--max-recursion-depth", type=int, default=1)
    p.add_argument("--inexact-rate", action="store_true",
                   help="draw each label independently instead of exact counts")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser(
        "stats", help="coverage statistics for a dataset",
        description="Coverage statistics for a dataset.  Only the model is "
                    "loaded, never analyzed.",
    )
    _add_input_args(p)
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--reference", metavar="FILE",
                   help="reference templates, one per line")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")

    return parser


def _api_config(args) -> LoggingApiConfig:
    return (LoggingApiConfig.load(args.logging_api)
            if args.logging_api else LoggingApiConfig())


def _analysis_from(args):
    model = load_input(args.sources, args.model)
    limits = PathLimits(max_paths_per_method=args.max_paths)
    return analyze_model(model, _api_config(args), limits)


def _cmd_analyze(args) -> int:
    analysis = _analysis_from(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # `load_input` validated the model, so it is written without a second check
    (out / "model.txt").write_text(dumps_model(analysis.model), encoding="utf-8",
                                   newline="\n")
    with open(out / "paths.txt", "w", encoding="utf-8") as dump:
        dump.writelines(store_dump_lines(analysis.store, analysis.model))
    print(summarize(analysis))
    return 0


def _cmd_prune(args) -> int:
    model = load_input(args.sources, args.model)
    pruned = prune(build_call_graph(model), mark_log_methods(model, _api_config(args)))
    names = {mid: m.name for mid, m in model.methods.items()}
    sys.stdout.write(format_classification(pruned, names))
    return 0


def _cmd_paths(args) -> int:
    analysis = _analysis_from(args)
    sys.stdout.writelines(store_dump_lines(analysis.store, analysis.model))
    return 0


def _cmd_worksheet(args) -> int:
    analysis = _analysis_from(args)
    export_worksheet(analysis.store, analysis.model, args.out)
    print(f"worksheet written to {args.out}", file=sys.stderr)
    return 0


def _cmd_generate(args) -> int:
    # the parameters are checked before the model is loaded and analyzed
    seed = args.seed
    if seed is None:
        raw = os.environ.get("LOGSYNTH_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"LOGSYNTH_SEED must be an integer, got {raw!r}") from None
    params = GenParams(
        size=args.size,
        anomaly_rate=args.anomaly_rate,
        component=args.component,
        entries=tuple(args.entry) if args.entry else None,
        seed=seed,
        max_loop_reps=args.max_loop_reps,
        max_recursion_depth=args.max_recursion_depth,
        exact_rate=not args.inexact_rate,
    )
    if args.anomaly_rate > 0 and not args.annotations:
        raise ConfigError("anomaly rate > 0 requires --annotations with seed paths")
    analysis = _analysis_from(args)
    ann = (import_annotations(args.annotations, analysis.store) if args.annotations
           else AnnotationSet(alerting=frozenset(), seed_anomaly=frozenset()))
    infection = propagate(analysis.store, ann)
    ds = generate_dataset(params, analysis.model, infection, analysis.store,
                          analysis.pruned, analysis.call_graph)
    write_dataset(ds, args.out, analysis.model, ann)
    messages = sum(len(s.events) for s in ds.sequences)
    anomalies = sum(1 for s in ds.sequences if s.label.value == "ANOMALY")
    print(f"wrote {len(ds.sequences)} sequences ({anomalies} anomalies, "
          f"{messages} messages) to {args.out}", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    model = load_input(args.sources, args.model)
    ds = read_dataset(args.dataset, model)
    report = logging_coverage(ds, model)
    rows = [
        ("sequences", str(len(ds.sequences))),
        ("messages", str(sum(len(s.events) for s in ds.sequences))),
        ("events discovered", str(report.discovered)),
        ("events total", str(report.total)),
        ("logging coverage", f"{report.coverage:.4f}"),
    ]
    if args.reference:
        with utf8_errors(args.reference):
            text = Path(args.reference).read_text(encoding="utf-8")
        reference = [line.rstrip("\n") for line in text.splitlines() if line.strip()]
        frac, unmatched = d_coverage(ds, reference)
        rows.append(("reference coverage", f"{frac:.4f}"))
        rows.append(("reference unmatched", str(len(unmatched))))
        for t in unmatched:
            print(f"unmatched template: {t}", file=sys.stderr)
    if args.csv:
        print("metric,value")
        for key, value in rows:
            print(f"{key.replace(' ', '_')},{value}")
        print("curve_messages,curve_coverage")
        for msgs, cov in report.curve:
            print(f"{msgs},{cov:.6f}")
    else:
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            print(f"{key.ljust(width)}  {value}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "prune": _cmd_prune,
    "paths": _cmd_paths,
    "worksheet": _cmd_worksheet,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LogsynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc.filename or ''}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
