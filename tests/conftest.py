from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from logsynth.labeling import AnnotationSet, propagate
from logsynth.lowering import lower_to_model
from logsynth.minilang import SourceUnit, parse_unit
from logsynth.pipeline import Analysis, analyze_model

DATA = Path(__file__).parent / "data"

# `pytest --hypothesis-profile=ci` (the CI tier-1 step) draws the same
# examples on every run and prints the blob that replays a failure.
settings.register_profile("ci", derandomize=True, print_blob=True)

# event ids in the datanode fixture, in statement order
EV_RECEIVING = 0   # info "Receiving block <*>"      (methodA)
EV_RECEIVED = 1    # info "Received block <*>"       (methodB)
EV_DELETE_FAILED = 2  # warn "Failed to delete restart meta file." (methodD)
EV_TIMED_OUT = 3   # warn "Join on responder thread, timed out."  (methodD)

# path ids in the datanode fixture, in (method, discovery) order
EP_A_CALLB = 0     # methodA [Log@1:start, callB:end]
EP_A_CALLC = 1     # methodA [Log@1:start, callC:end]
EP_A_EMPTY = 2     # methodA [] (loop skipped)
EP_B = 3           # methodB [Log@2]
EP_C = 4           # methodC [callD]
EP_D = 5           # methodD [Log@3, Log@4]


@pytest.fixture(scope="session")
def datanode_path() -> Path:
    return DATA / "datanode.mlog"


@pytest.fixture(scope="session")
def datanode_methods(datanode_path):
    return parse_unit(SourceUnit(str(datanode_path),
                                 datanode_path.read_text(encoding="utf-8")))


@pytest.fixture(scope="session")
def datanode_model(datanode_methods):
    return lower_to_model(datanode_methods)


@pytest.fixture(scope="session")
def datanode_analysis(datanode_model) -> Analysis:
    return analyze_model(datanode_model)


@pytest.fixture(scope="session")
def datanode_annotations() -> AnnotationSet:
    # the warn events of methodD are alerting; its path is the seed
    return AnnotationSet(
        alerting=frozenset({EV_DELETE_FAILED, EV_TIMED_OUT}),
        seed_anomaly=frozenset({EP_D}),
    )


@pytest.fixture(scope="session")
def datanode_infection(datanode_analysis, datanode_annotations):
    return propagate(datanode_analysis.store, datanode_annotations)
