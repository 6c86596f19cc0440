from __future__ import annotations

import ast
import os
import random
import sys
from pathlib import Path

import pytest

import logsynth
from logsynth import cli, pipeline
from logsynth.cli import main

from .modelgen import structured_program

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "datanode.mlog")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _annotate(worksheet, out, alert_events, seeds):
    lines = []
    for line in worksheet.read_text(encoding="utf-8").splitlines():
        if any(line.startswith(f"EVT {e} ") for e in alert_events):
            line += " ALERT"
        lines.append(line)
    lines += [f"SEED {pid}" for pid in seeds]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture()
def artifacts(tmp_path, capsys):
    """analyze + worksheet + annotations for the golden fixture."""
    art = tmp_path / "art"
    code, _, _ = run(capsys, "analyze", FIXTURE, "--out", str(art))
    assert code == 0
    ws = tmp_path / "worksheet.txt"
    code, _, _ = run(capsys, "worksheet", "--model", str(art / "model.txt"),
                     "--out", str(ws))
    assert code == 0
    ann = tmp_path / "annotations.txt"
    _annotate(ws, ann, alert_events=(2, 3), seeds=(5,))
    return art, ann


def test_analyze_summary(tmp_path, capsys):
    out = tmp_path / "art"
    code, stdout, _ = run(capsys, "analyze", FIXTURE, "--out", str(out))
    assert code == 0
    assert "methods:            4" in stdout
    assert "kept after pruning: 4 (100.0%)" in stdout
    assert "log methods:        3" in stdout
    assert "non-empty paths:    5" in stdout
    assert "events:             4" in stdout
    assert (out / "model.txt").exists()
    assert (out / "paths.txt").exists()


def test_analyze_empty_directory_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, "analyze", str(empty), "--out",
                       str(tmp_path / "art"))
    assert code == 1
    assert "no methods found" in err


def test_parse_errors_carry_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.mlog"
    bad.write_text("void m(){ log(info, ); }\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad), "--out",
                       str(tmp_path / "art"))
    assert code == 1
    assert f"{bad}:1:" in err


def test_missing_model_file_exits_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "paths", "--model",
                       str(tmp_path / "nope.txt"), "--dump")
    assert code == 1
    assert "error:" in err and "nope.txt" in err


@pytest.mark.parametrize("value", ["0", "-1", str(sys.maxsize), str(2 ** 70)])
def test_non_positive_max_paths_is_an_error(tmp_path, capsys, value):
    # also a cap too large for the search's `budget + 1` to be an islice stop
    out = tmp_path / "art"
    code, _, err = run(capsys, "analyze", FIXTURE, "--out", str(out),
                       "--max-paths", value)
    bound = ">= 1" if int(value) < 1 else f"<= {sys.maxsize - 1}"
    assert code == 1
    assert err == f"error: max paths per method must be {bound}\n"
    assert not (out / "paths.txt").exists()


_PROCESS_MODULES = ("concurrent.futures", "multiprocessing", "subprocess")


def _imported_modules(source: str) -> set[str]:
    """Every module an import statement in `source` names, with each
    `from M import N` also counted as `M.N`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_analysis_commands_start_no_process(tmp_path, capsys):
    package = Path(logsynth.__file__).parent
    starters = {
        (path.name, name)
        for path in sorted(package.glob("*.py"))
        for name in _imported_modules(path.read_text(encoding="utf-8"))
        if any(name == m or name.startswith(m + ".") for m in _PROCESS_MODULES)
    }
    assert starters == set()
    art = tmp_path / "art"
    assert run(capsys, "analyze", FIXTURE, "--out", str(art))[0] == 0
    assert run(capsys, "paths", FIXTURE, "--dump")[0] == 0
    assert run(capsys, "prune", FIXTURE, "--dump")[0] == 0
    assert run(capsys, "worksheet", FIXTURE, "--out", str(tmp_path / "ws.txt"))[0] == 0
    ds = tmp_path / "ds"
    assert run(capsys, "generate", "--model", str(art / "model.txt"),
               "--size", "20", "--out", str(ds))[0] == 0
    code, out, _ = run(capsys, "stats", "--model", str(art / "model.txt"),
                       "--dataset", str(ds))
    assert code == 0
    assert "sequences" in out


def test_non_integer_seed_env_is_an_error(tmp_path, capsys, artifacts,
                                          monkeypatch):
    art, ann = artifacts
    monkeypatch.setenv("LOGSYNTH_SEED", "4.5")
    code, _, err = run(
        capsys, "generate", "--model", str(art / "model.txt"),
        "--annotations", str(ann), "--size", "5", "--out", str(tmp_path / "ds"),
    )
    assert code == 1
    assert "error: LOGSYNTH_SEED must be an integer, got '4.5'" in err


def test_prune_dump(capsys):
    code, out, _ = run(capsys, "prune", FIXTURE, "--dump")
    assert code == 0
    assert out.splitlines() == [
        "methodA LOG_METHOD",
        "methodB LOG_METHOD",
        "methodC LOG_INDUCING",
        "methodD LOG_METHOD",
    ]


def test_prune_builds_no_store(tmp_path, capsys, monkeypatch):
    _, expected, _ = run(capsys, "prune", FIXTURE, "--dump")

    def no_store(*args, **kwargs):
        raise AssertionError("prune built the path store")

    monkeypatch.setattr(pipeline, "build_store", no_store)
    api = tmp_path / "api.txt"
    api.write_text("log\n", encoding="utf-8")
    for extra in ((), ("--logging-api", str(api))):
        assert run(capsys, "prune", FIXTURE, "--dump", *extra) == (0, expected, "")
    # the option that only path finding reads is not accepted
    with pytest.raises(SystemExit) as exc:
        main(["prune", FIXTURE, "--dump", "--max-paths", "1"])
    assert exc.value.code == 2


def test_analyze_validates_the_model_once(tmp_path, capsys, monkeypatch):
    from logsynth import lowering, model

    validate = model.validate_model
    calls = []

    def counted(m):
        calls.append(m)
        validate(m)

    run(capsys, "analyze", FIXTURE, "--out", str(tmp_path / "a"))
    for module in (model, lowering):
        monkeypatch.setattr(module, "validate_model", counted)
    for name, source in (("src", (FIXTURE,)),
                         ("model", ("--model", str(tmp_path / "a" / "model.txt")))):
        calls.clear()
        assert run(capsys, "analyze", *source, "--out", str(tmp_path / name))[0] == 0
        assert len(calls) == 1, name
        assert (tmp_path / name / "model.txt").read_bytes() \
            == (tmp_path / "a" / "model.txt").read_bytes()


def test_paths_dump(capsys):
    code, out, _ = run(capsys, "paths", FIXTURE, "--dump")
    assert code == 0
    lines = out.splitlines()
    assert "EV 3 warn Join on responder thread, timed out." in lines
    assert "EP 0 methodA L:0:S C:methodB:E" in lines


def test_generate_exact_counts(tmp_path, capsys, artifacts):
    art, ann = artifacts
    ds = tmp_path / "ds"
    code, _, err = run(
        capsys, "generate", "--model", str(art / "model.txt"),
        "--annotations", str(ann), "--size", "100",
        "--anomaly-rate", "0.03", "--seed", "7", "--out", str(ds),
    )
    assert code == 0
    rows = (ds / "sequences.csv").read_text().splitlines()
    assert rows[0] == "seq_id,label,entry,events"
    assert len(rows) == 101
    anomalies = [r for r in rows[1:] if r.split(",")[1] == "1"]
    assert len(anomalies) == 3


def test_generate_without_annotations_rejects_positive_rate(tmp_path, capsys, artifacts):
    art, _ = artifacts
    code, _, err = run(
        capsys, "generate", "--model", str(art / "model.txt"),
        "--size", "10", "--anomaly-rate", "0.5", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "annotations" in err


def test_generate_checks_its_parameters_before_analysis(tmp_path, capsys, monkeypatch,
                                                        artifacts):
    art, _ = artifacts

    def no_analysis(args):
        raise AssertionError("generate analyzed the model before checking its parameters")

    monkeypatch.setattr(cli, "_analysis_from", no_analysis)
    base = ("generate", "--model", str(art / "model.txt"), "--out", str(tmp_path / "ds"))
    for extra, message in [
        (("--size", "0"), "size must be >= 1"),
        (("--size", "99999999999999999999"), f"size must be <= {sys.maxsize}"),
        (("--size", "5", "--anomaly-rate", "1.5"), "anomaly rate must be within [0, 1]"),
        (("--size", "5", "--anomaly-rate", "0.5"),
         "anomaly rate > 0 requires --annotations with seed paths"),
        (("--size", "5", "--max-loop-reps", "0"), "max loop repetitions must be >= 1"),
        (("--size", "2", "--max-loop-reps", "99999999999999999999"),
         f"max loop repetitions must be <= {sys.maxsize}"),
    ]:
        assert run(capsys, *base, *extra) == (1, "", f"error: {message}\n"), extra
    monkeypatch.setenv("LOGSYNTH_SEED", "x")
    assert run(capsys, *base, "--size", "5") == \
        (1, "", "error: LOGSYNTH_SEED must be an integer, got 'x'\n")
    assert not (tmp_path / "ds").exists()


def test_generate_says_when_no_method_is_kept(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("M 0 a\nA 0 0 ENTRY\nA 0 1 EXIT\nE 0 0 1\n", encoding="utf-8")
    assert run(capsys, "generate", "--model", str(model), "--size", "3",
               "--out", str(tmp_path / "ds")) == \
        (1, "", "error: no method logs or reaches a logging method\n")


def test_generate_seed_determinism(tmp_path, capsys, artifacts):
    art, ann = artifacts
    outputs = []
    for name in ("a", "b"):
        ds = tmp_path / name
        code, _, _ = run(
            capsys, "generate", "--model", str(art / "model.txt"),
            "--annotations", str(ann), "--size", "40",
            "--anomaly-rate", "0.1", "--seed", "3", "--out", str(ds),
        )
        assert code == 0
        outputs.append((ds / "sequences.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_env_fallback(tmp_path, capsys, artifacts, monkeypatch):
    art, ann = artifacts
    results = []
    for name in ("e1", "e2"):
        monkeypatch.setenv("LOGSYNTH_SEED", "41")
        ds = tmp_path / name
        code, _, _ = run(
            capsys, "generate", "--model", str(art / "model.txt"),
            "--annotations", str(ann), "--size", "20",
            "--anomaly-rate", "0.1", "--out", str(ds),
        )
        assert code == 0
        results.append((ds / "sequences.csv").read_bytes())
    assert results[0] == results[1]
    manifest = (tmp_path / "e1" / "manifest.txt").read_text()
    assert "seed=41" in manifest


def test_stats_report(tmp_path, capsys, artifacts):
    art, ann = artifacts
    ds = tmp_path / "ds"
    run(capsys, "generate", "--model", str(art / "model.txt"),
        "--annotations", str(ann), "--size", "500",
        "--anomaly-rate", "0.03", "--seed", "7", "--out", str(ds))
    code, out, _ = run(capsys, "stats", "--model", str(art / "model.txt"),
                       "--dataset", str(ds))
    assert code == 0
    assert "logging coverage" in out
    assert "1.0000" in out


def test_stats_loads_only_the_model(tmp_path, capsys, artifacts, monkeypatch):
    art, ann = artifacts
    ds = tmp_path / "ds"
    run(capsys, "generate", "--model", str(art / "model.txt"),
        "--annotations", str(ann), "--size", "50", "--out", str(ds))

    def no_analysis(*args, **kwargs):
        raise AssertionError("stats analyzed the model")

    monkeypatch.setattr(cli, "analyze_model", no_analysis)
    for csv in ((), ("--csv",)):
        code, _, _ = run(capsys, "stats", "--model", str(art / "model.txt"),
                         "--dataset", str(ds), *csv)
        assert code == 0
    # the options that only analysis reads are not accepted
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--model", str(art / "model.txt"), "--dataset", str(ds),
              "--max-paths", "1"])
    assert exc.value.code == 2


def test_generate_from_the_model_file_serializes_no_model(tmp_path, capsys, artifacts,
                                                         monkeypatch):
    import hashlib

    from logsynth import model

    art, ann = artifacts
    options = ("--annotations", str(ann), "--size", "50", "--anomaly-rate", "0.1",
               "--seed", "11")
    code, _, _ = run(capsys, "generate", FIXTURE, *options, "--out", str(tmp_path / "src"))
    assert code == 0

    def no_dump(*args, **kwargs):
        raise AssertionError("generate serialized the model")

    monkeypatch.setattr(model, "dumps_model", no_dump)
    # every dump formats activities, however a caller imported dumps_model
    monkeypatch.setattr(model, "_format_activity", no_dump)
    code, _, _ = run(capsys, "generate", "--model", str(art / "model.txt"), *options,
                     "--out", str(tmp_path / "model"))
    assert code == 0
    manifest = (tmp_path / "model" / "manifest.txt").read_text(encoding="utf-8")
    assert manifest == (tmp_path / "src" / "manifest.txt").read_text(encoding="utf-8")
    digest = hashlib.sha256((art / "model.txt").read_bytes()).hexdigest()
    assert f"\nmodel_sha256={digest}\n" in manifest


def test_stats_reference_and_csv(tmp_path, capsys, artifacts):
    art, ann = artifacts
    ds = tmp_path / "ds"
    run(capsys, "generate", "--model", str(art / "model.txt"),
        "--annotations", str(ann), "--size", "200",
        "--anomaly-rate", "0.03", "--seed", "7", "--out", str(ds))
    ref = tmp_path / "reference.txt"
    ref.write_text(
        "Received block <*>\nnever matched template\n", encoding="utf-8"
    )
    code, out, err = run(
        capsys, "stats", "--model", str(art / "model.txt"),
        "--dataset", str(ds), "--reference", str(ref), "--csv",
    )
    assert code == 0
    assert "reference_coverage,0.5000" in out
    assert "unmatched template: never matched template" in err
    assert "curve_messages,curve_coverage" in out


def test_model_and_sources_conflict(capsys, tmp_path, artifacts):
    art, _ = artifacts
    code, _, err = run(capsys, "analyze", FIXTURE, "--model",
                       str(art / "model.txt"), "--out", str(tmp_path / "y"))
    assert code == 1
    assert "not both" in err


def test_full_pipeline_reproduces_golden_hashes(tmp_path, capsys):
    """End-to-end run pinned to known-good output hashes."""
    import hashlib

    art = tmp_path / "art"
    assert run(capsys, "analyze", FIXTURE, "--out", str(art))[0] == 0
    ws = tmp_path / "ws.txt"
    assert run(capsys, "worksheet", "--model", str(art / "model.txt"),
               "--out", str(ws))[0] == 0
    ann = tmp_path / "ann.txt"
    _annotate(ws, ann, alert_events=(2, 3), seeds=(5,))
    ds = tmp_path / "ds"
    assert run(capsys, "generate", "--model", str(art / "model.txt"),
               "--annotations", str(ann), "--size", "100",
               "--anomaly-rate", "0.03", "--seed", "7",
               "--out", str(ds))[0] == 0

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert sha(art / "model.txt") == (
        "77ad2caa6c812c8008b303ad49854b0e10bcd75e935e51649de21a4224380789"
    )
    assert sha(art / "paths.txt") == (
        "35e86c9c19481d866014f60171ed820b6dd028ebaf8d1d0eb9d60a530ba71376"
    )
    assert sha(ds / "sequences.csv") == (
        "3236393e52ee36f762cd716edd69d92a27144b2d5bc7bf7c669ab457c968f9c1"
    )
    assert sha(ds / "templates.csv") == (
        "2c2c6e0cf3d9c69fa258529099f32b03d163cd20ba5a90dbb77dbef7d3191a00"
    )


def test_thousand_method_synthetic_analysis(tmp_path, capsys):
    source = structured_program(random.Random(1000), 1000, branch_budget_each=2)
    src_path = tmp_path / "big.mlog"
    src_path.write_text(source, encoding="utf-8")
    out = tmp_path / "art"
    code, stdout, _ = run(capsys, "analyze", str(src_path), "--out", str(out))
    assert code == 0
    assert "methods:            1000" in stdout
    # deterministic: second run gives identical artifacts
    out2 = tmp_path / "art2"
    code, stdout2, _ = run(capsys, "analyze", str(src_path), "--out", str(out2))
    assert code == 0
    assert stdout2 == stdout
    assert (out / "model.txt").read_bytes() == (out2 / "model.txt").read_bytes()
    assert (out / "paths.txt").read_bytes() == (out2 / "paths.txt").read_bytes()


def _rewrite_line(path, lineno, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[lineno] = edit(lines[lineno])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name, lineno, edit, message", [
    ("sequences.csv", 2, lambda row: row.rsplit(",", 1)[0], "sequences.csv:3: expected"),
    ("sequences.csv", 1, lambda row: "x" + row, "sequences.csv:2: seq_id and events"),
    ("sequences.csv", 1, lambda row: row + " 2x", "sequences.csv:2: seq_id and events"),
    ("sequences.csv", 1, lambda row: "{0},2,{2},{3}".format(*row.split(",", 3)),
     "sequences.csv:2: label must be 0 or 1"),
    ("sequences.csv", 1, lambda row: "{0},{1},nosuch,{3}".format(*row.split(",", 3)),
     "sequences.csv:2: unknown entry method 'nosuch'"),
    ("manifest.txt", 4, lambda line: "# no seed", "manifest.txt: missing 'seed=' line"),
    ("templates.csv", 1, lambda row: row.split(",")[0], "templates.csv:2: expected"),
])
def test_stats_rejects_a_malformed_dataset(tmp_path, capsys, artifacts,
                                           name, lineno, edit, message):
    art, _ = artifacts
    ds = tmp_path / "ds"
    assert run(capsys, "generate", "--model", str(art / "model.txt"),
               "--size", "5", "--out", str(ds))[0] == 0
    _rewrite_line(ds / name, lineno, edit)
    code, out, err = run(capsys, "stats", "--model", str(art / "model.txt"),
                         "--dataset", str(ds))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("target", [
    "source", "model.txt", "worksheet.txt", "manifest.txt", "sequences.csv",
    "templates.csv", "logging-api", "reference",
])
def test_a_non_utf8_byte_is_one_error_line(tmp_path, capsys, artifacts, target):
    art, _ = artifacts
    model, ds = str(art / "model.txt"), tmp_path / "ds"
    assert run(capsys, "generate", "--model", model, "--size", "5", "--out", str(ds))[0] == 0
    source, api, ref = tmp_path / "datanode.mlog", tmp_path / "api.txt", tmp_path / "ref.txt"
    source.write_bytes(Path(FIXTURE).read_bytes())
    api.write_text("# external logging APIs\nlog\n", encoding="utf-8")
    ref.write_text("Received block <*>\nnever matched template\n", encoding="utf-8")
    stats = ("stats", "--model", model, "--dataset", str(ds))
    path, argv = {
        "source": (source, ("analyze", str(source), "--out", str(tmp_path / "a"))),
        "model.txt": (art / "model.txt", ("paths", "--model", model, "--dump")),
        "worksheet.txt": (tmp_path / "worksheet.txt",
                          ("generate", "--model", model, "--size", "5", "--annotations",
                           str(tmp_path / "worksheet.txt"), "--out", str(tmp_path / "ds2"))),
        "manifest.txt": (ds / "manifest.txt", stats),
        "sequences.csv": (ds / "sequences.csv", stats),
        "templates.csv": (ds / "templates.csv", stats),
        "logging-api": (api, ("prune", "--model", model, "--logging-api", str(api), "--dump")),
        "reference": (ref, (*stats, "--reference", str(ref))),
    }[target]
    lines = path.read_bytes().split(b"\n")
    column = len(lines[1].decode("utf-8")) + 1
    lines[1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    assert run(capsys, *argv) == \
        (1, "", f"error: {path}:2:{column}: invalid UTF-8 byte 0xff\n")


def test_a_bad_byte_past_the_reader_s_first_chunk_is_placed_in_the_file(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_bytes(b"# padding\n" * 2000 + "# \u00e9".encode() + b"\xff\n")
    assert run(capsys, "paths", "--model", str(model), "--dump") == \
        (1, "", f"error: {model}:2001:4: invalid UTF-8 byte 0xff\n")
