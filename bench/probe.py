"""One capacity-probe step: analyze a generated program and generate one
sequence from it.  Exits 0 when both complete.

    python3 bench/probe.py chain|straight N
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logsynth.generation import GenParams, generate_dataset  # noqa: E402
from logsynth.labeling import AnnotationSet, propagate  # noqa: E402
from logsynth.lowering import lower_to_model  # noqa: E402
from logsynth.minilang import SourceUnit, parse_units  # noqa: E402
from logsynth.pipeline import analyze_model  # noqa: E402

from workloads import chain_source, straight_source  # noqa: E402


def main(shape: str, n: int) -> int:
    source = chain_source(0, 1, n) if shape == "chain" else straight_source(n)
    model = lower_to_model(parse_units([SourceUnit("probe.mlog", source)]))
    analysis = analyze_model(model)
    infection = propagate(analysis.store, AnnotationSet(frozenset(), frozenset()))
    ds = generate_dataset(GenParams(size=1, anomaly_rate=0.0), model, infection,
                          analysis.store, analysis.pruned, analysis.call_graph)
    return 0 if len(ds.sequences) == 1 and ds.sequences[0].events else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
