"""Glue for running the analysis phases end to end.

Downstream commands re-derive the analysis from the model file each
time; the whole phase chain is deterministic and cheap, so the model
file plus the annotation file are the only stage artifacts that matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import LogsynthError, utf8_errors
from .lowering import lower_to_model
from .minilang import SourceUnit, parse_units
from .model import ProgramModel, load_model
from .pathfinding import PathLimits, PathStore, build_store
from .probing import CallGraph, LoggingApiConfig, build_call_graph, mark_log_methods
from .pruning import PrunedCallGraph, prune

SOURCE_SUFFIX = ".mlog"


@dataclass
class Analysis:
    model: ProgramModel
    call_graph: CallGraph
    log_methods: set[int]
    pruned: PrunedCallGraph
    store: PathStore


def read_sources(paths: list[str]) -> list[SourceUnit]:
    """Read MiniLang files; directories contribute their *.mlog files."""
    units: list[SourceUnit] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files = sorted(path.glob(f"*{SOURCE_SUFFIX}"))
        elif path.exists():
            files = [path]
        else:
            raise LogsynthError(f"no such source file: {p}")
        for f in files:
            with utf8_errors(f):
                units.append(SourceUnit(str(f), f.read_text(encoding="utf-8")))
    return units


def load_input(sources: list[str], model_path: str | None) -> ProgramModel:
    """A model from either MiniLang sources or a model file (exactly one)."""
    if model_path is not None and sources:
        raise LogsynthError("pass either source files or --model, not both")
    if model_path is not None:
        return load_model(model_path)
    if not sources:
        raise LogsynthError("no input: pass source files or --model")
    units = read_sources(sources)
    methods = parse_units(units)
    if not methods:
        raise LogsynthError("no methods found in the given sources")
    return lower_to_model(methods)


def analyze_model(
    model: ProgramModel,
    api_config: LoggingApiConfig = LoggingApiConfig(),
    limits: PathLimits = PathLimits(),
    workers: int = 1,
) -> Analysis:
    """Probing, pruning, and path finding over a loaded model, in this
    process.  `workers` is accepted and ignored: bench/harness.py still
    passes it."""
    call_graph = build_call_graph(model)
    log_methods = mark_log_methods(model, api_config)
    pruned = prune(call_graph, log_methods)
    store = build_store(model, pruned, limits)
    return Analysis(
        model=model,
        call_graph=call_graph,
        log_methods=log_methods,
        pruned=pruned,
        store=store,
    )


def summarize(analysis: Analysis) -> str:
    model = analysis.model
    total = len(model.methods)
    kept = len(analysis.pruned.kept)
    nonempty = sum(
        1 for p in analysis.store.all_paths() if p.steps
    )
    pct = (100.0 * kept / total) if total else 0.0
    return (
        f"methods:            {total}\n"
        f"kept after pruning: {kept} ({pct:.1f}%)\n"
        f"log methods:        {len(analysis.log_methods)}\n"
        f"non-empty paths:    {nonempty}\n"
        f"events:             {len(analysis.store.events)}"
    )
