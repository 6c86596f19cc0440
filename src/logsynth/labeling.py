"""Phase 3a-3b: the human annotation loop and infection propagation.

The worksheet is plain text so annotators need no tooling:

    EVT <event-id> <level> <method> <template>

A row shows a template's line breaks as the escapes `\\n` and `\\r`, so
it stays on one line.  An annotator appends ` ALERT` to the events that
indicate a potential anomaly and adds `SEED <path-id>` lines for the
paths that must produce one.  Import reads the marker after the event's
template as the row shows it, so a template that itself ends in "ALERT"
marks nothing.
Comment lines starting with `#` carry context (source lines, candidate
paths per event) and are ignored on import.

Propagation computes the least fixpoint of "may reach a seed through
invocations": a path is INFECTED when it calls into a method owning a
SEED or INFECTED path; everything else is CLEAN and can never reach a
seed.  The fixpoint is `PathStore.least_fixpoint`, the one mechanism
shared with the walker's precomputations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import LogsynthError, utf8_errors
from .model import EventId, ProgramModel
from .pathfinding import LogStep, PathStore


class AnnotationError(LogsynthError):
    pass


@dataclass(frozen=True)
class AnnotationSet:
    alerting: frozenset[EventId]
    seed_anomaly: frozenset[int]


class Status(enum.Enum):
    SEED = "SEED"
    INFECTED = "INFECTED"
    CLEAN = "CLEAN"


@dataclass
class InfectionMap:
    status: dict[int, Status]


def _one_line(template: str) -> str:
    """A template as its EVT row shows it, with its line breaks escaped."""
    return template.replace("\n", "\\n").replace("\r", "\\r")


def export_worksheet(store: PathStore, model: ProgramModel, path) -> None:
    """One EVT row per restored event, plus commented context: the source
    line when known, and each path containing the event."""
    paths_by_event: dict[int, list] = {}
    for p in store.all_paths():
        for s in p.steps:
            if isinstance(s, LogStep):
                paths_by_event.setdefault(s.event, []).append(p)

    lines = ["# mark alerting events by appending ' ALERT' to their EVT line,",
             "# then add 'SEED <path-id>' lines for anomaly paths"]
    for eid in sorted(store.events):
        ev = store.events[eid]
        mid, aid = ev.origin
        method = model.methods[mid]
        stmt = method.cfg.nodes[aid].stmt
        if stmt.line is not None:
            lines.append(f"# {method.name} line {stmt.line}")
        for p in paths_by_event.get(eid, []):
            lines.append(f"# candidate path {p.id} in {model.methods[p.method].name}")
        lines.append(f"EVT {eid} {ev.level} {method.name} {_one_line(ev.template)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def import_annotations(path, store: PathStore) -> AnnotationSet:
    """Parse and validate an annotated worksheet."""
    alerting: set[int] = set()
    seeds: set[int] = set()
    known_paths = {p.id for p in store.all_paths()}
    with utf8_errors(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if raw[0] == "#":  # most rows of an exported worksheet
                continue
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            toks = line.split(None, 4)
            if toks[0] == "EVT":
                if len(toks) < 4:
                    raise AnnotationError(f"line {lineno}: malformed EVT record")
                try:
                    eid = int(toks[1])
                except ValueError:
                    raise AnnotationError(f"line {lineno}: bad event id {toks[1]!r}")
                if eid not in store.events:
                    raise AnnotationError(f"line {lineno}: unknown event id {eid}")
                shown = toks[4].strip() if len(toks) == 5 else ""
                template = _one_line(store.events[eid].template).strip()
                if shown != template:
                    head, _, mark = shown.rpartition(" ")
                    if mark != "ALERT" or head.rstrip() != template:
                        raise AnnotationError(
                            f"line {lineno}: event {eid} must read its template "
                            f"{template!r}, optionally followed by ' ALERT'")
                    alerting.add(eid)
            elif toks[0] == "SEED":
                if len(toks) != 2:
                    raise AnnotationError(f"line {lineno}: malformed SEED record")
                try:
                    pid = int(toks[1])
                except ValueError:
                    raise AnnotationError(f"line {lineno}: bad path id {toks[1]!r}")
                if pid not in known_paths:
                    raise AnnotationError(f"line {lineno}: unknown path id {pid}")
                seeds.add(pid)
            else:
                raise AnnotationError(f"line {lineno}: unknown record {toks[0]!r}")
    ann = AnnotationSet(alerting=frozenset(alerting), seed_anomaly=frozenset(seeds))
    validate_annotations(ann, store)
    return ann


def validate_annotations(ann: AnnotationSet, store: PathStore) -> None:
    for eid in ann.alerting:
        if eid not in store.events:
            raise AnnotationError(f"alerting event {eid} does not exist")
    for pid in ann.seed_anomaly:
        path = store.path(pid)
        if not any(isinstance(s, LogStep) and s.event in ann.alerting
                   for s in path.steps):
            raise AnnotationError(
                f"seed path {pid} contains no alerting event"
            )


def propagate(store: PathStore, ann: AnnotationSet) -> InfectionMap:
    """Least fixpoint of seed reachability through call steps."""
    seeds = ann.seed_anomaly
    reach = store.least_fixpoint(
        {p.id: 0 if p.id in seeds else 1 for p in store.all_paths()})
    return InfectionMap(status={
        p.id: Status.SEED if p.id in seeds
        else Status.INFECTED if p.id in reach else Status.CLEAN
        for p in store.all_paths()
    })


def dumps_annotations(ann: AnnotationSet) -> str:
    """Canonical serialization used for dataset manifests."""
    lines = [f"ALERTING {eid}" for eid in sorted(ann.alerting)]
    lines += [f"SEED {pid}" for pid in sorted(ann.seed_anomaly)]
    return "\n".join(lines) + "\n"
