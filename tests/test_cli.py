import contextlib
import copy
import io
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brickir
from brickir.cli import main
from brickir.collision import PartColliders
from brickir.connectors import ConnectorFamily
from brickir.demo import build_demo_catalog, generate_random_path
from brickir.geometry import AXIS_LIMIT, MAX_SLIDE_LDU, QuantizedParams, RigidTransform
from brickir.graph import ConnEdge, ConnectivityGraph, match_connectors
from brickir.ldraw import PartInstance, parse_structure
from brickir.program import execute, serialize, validate_prefix

from conftest import (
    OVERFLOWING_MPDS,
    catalog_obj_with_collapsing_mesh,
    count_inset_builds,
    demo_ldr,
    orthonormality_error,
    rotation_about_axis,
)

CAT = build_demo_catalog()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "catalog.json").write_text(CAT.dumps())
    (root / "stack4.ldr").write_text(demo_ldr("stack4"))
    (root / "mpd_stack.mpd").write_text(demo_ldr("mpd_stack"))
    (root / "mixed.ldr").write_text(demo_ldr("mixed"))
    return root


def run(workdir, *argv):
    return main(["--catalog", str(workdir / "catalog.json"), *map(str, argv)])


def test_parse_valid_file(workdir, capsys):
    assert run(workdir, "parse", workdir / "stack4.ldr") == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["instances"]) == 4
    assert obj["instances"][0]["part"] == "3023"


def test_parse_missing_file(workdir, capsys):
    assert run(workdir, "parse", workdir / "nope.ldr") == 1
    assert "no such file" in capsys.readouterr().err


def test_parse_bad_line_strict_exit2_with_line_number(workdir, capsys):
    bad = workdir / "bad.ldr"
    bad.write_text("1 4 0 0 0 1 0 0 0 1 3023.dat\n")
    assert run(workdir, "--strict", "parse", bad) == 2
    assert "line 1" in capsys.readouterr().err


def test_parse_bad_line_lenient_warns(workdir, capsys):
    bad = workdir / "bad2.ldr"
    bad.write_text(
        "1 4 0 0 0 1 0 0 0 1 3023.dat\n"
        "1 4 0 0 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
    )
    assert run(workdir, "parse", bad) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)["instances"]) == 1
    assert "warning" in captured.err


def test_no_catalog_exit3(workdir, capsys, monkeypatch):
    monkeypatch.delenv("BRICKIR_CATALOG", raising=False)
    assert main(["parse", str(workdir / "stack4.ldr")]) == 3
    assert "BRICKIR_CATALOG" in capsys.readouterr().err


def test_env_catalog_and_flag_priority(workdir, capsys, monkeypatch):
    monkeypatch.setenv("BRICKIR_CATALOG", str(workdir / "catalog.json"))
    assert main(["parse", str(workdir / "stack4.ldr")]) == 0
    capsys.readouterr()
    # flag must win over a bogus env value
    monkeypatch.setenv("BRICKIR_CATALOG", "/does/not/exist.json")
    assert run(workdir, "parse", workdir / "stack4.ldr") == 0
    capsys.readouterr()


def test_graph_command(workdir, capsys):
    assert run(workdir, "graph", workdir / "stack4.ldr") == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["nodes"]) == 4
    assert len(obj["edges"]) == 6
    assert obj["edges"][0]["family"] == "stud"


def test_graph_mpd_matches_flat(workdir, capsys):
    assert run(workdir, "graph", workdir / "mpd_stack.mpd") == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["nodes"]) == 4
    assert len(obj["edges"]) == 6


def test_serialize_unannotated_part_exit3(workdir, capsys):
    g = workdir / "orphan.json"
    g.write_text(
        json.dumps(
            {
                "nodes": [
                    {"id": 0, "part": "zzz", "color": 4,
                     "pose": {"rot": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 0]}}
                ],
                "edges": [],
            }
        )
    )
    assert run(workdir, "serialize", g) == 3
    assert "zzz" in capsys.readouterr().err


def test_serialize_execute_roundtrip(workdir, capsys, tmp_path):
    graph_out = tmp_path / "graph.json"
    assert run(workdir, "--out", graph_out, "graph", workdir / "stack4.ldr") == 0
    seq_out = tmp_path / "prog.bseq"
    assert run(workdir, "--seed", 9, "--out", seq_out, "serialize", graph_out) == 0
    text = seq_out.read_text()
    assert text.splitlines()[0].split(" | ")[1] in {"red", "yellow", "blue", "green"}
    assert run(workdir, "execute", seq_out) == 0
    poses = json.loads(capsys.readouterr().out)["poses"]
    assert set(poses) == {"a", "b", "c", "d"}
    assert poses["a"]["t"] == [0.0, 0.0, 0.0]
    # library-level comparison
    g = brickir.ConnectivityGraph.loads(graph_out.read_text())
    path = brickir.sample_path(g, max_parts=100, seed=9)
    lib_text = serialize(path, CAT)
    assert lib_text == text


def test_execute_rejects_invalid_program(workdir, capsys, tmp_path):
    bad = tmp_path / "bad.bseq"
    bad.write_text("a plate 1x2 | red\nq stud stud a hole b 0\n")
    assert run(workdir, "execute", bad) == 2


def test_check_command(workdir, capsys, tmp_path):
    good = tmp_path / "good.bseq"
    good.write_text(
        "a plate 1x2 | red\nb plate 1x2 | blue\na stud stud a hole b 0\n"
    )
    assert run(workdir, "check", good) == 0
    obj = json.loads(capsys.readouterr().out)
    report = obj["reports"][str(good)]
    assert report["connectivity_steps"] == 2
    assert report["first_error"] is None
    bad = tmp_path / "badcheck.bseq"
    bad.write_text("a plate 1x2 | red\nzzz\n")
    assert run(workdir, "check", bad) == 0  # reports, does not fail
    capsys.readouterr()
    assert run(workdir, "--strict", "check", bad) == 4
    capsys.readouterr()


def test_stats_command(workdir, capsys):
    assert run(workdir, "stats", workdir / "stack4.ldr", workdir / "mixed.ldr") == 0
    obj = json.loads(capsys.readouterr().out)
    props = obj["connection_type_sample_proportions"]
    assert props["stud"] == 1.0
    assert props["hinge"] == 0.5
    assert props["ball"] == 0.5
    assert props["fixed"] == 0.5
    assert obj["sample_count"] == 2


def test_stats_csv_format(workdir, capsys):
    assert run(workdir, "--format", "csv", "stats", workdir / "stack4.ldr") == 0
    out = capsys.readouterr().out
    assert out.startswith("section,key,value")
    assert "parts_per_object,4,1" in out


def _write_eval_corpus(tmp_path):
    lines = []
    for i in range(10):
        letter = chr(ord("a") + i)
        lines.append(f"{letter} plate 1x2 | red")
        if i:
            prev = chr(ord("a") + i - 1)
            lines.append(f"{prev} stud stud a hole b 0")
    seqdir = tmp_path / "seqs"
    seqdir.mkdir()
    for k in (3, 5, 7):
        text = "\n".join(lines[: 1 + 2 * (k - 1)]) + "\n"
        (seqdir / f"len{k}.bseq").write_text(text)
    return seqdir


def test_eval_directory_aggregate(workdir, capsys, tmp_path):
    seqdir = _write_eval_corpus(tmp_path)
    assert run(workdir, "eval", seqdir) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["reports"]) == 3
    agg = obj["aggregate"]
    assert agg["mean_connectivity_steps"] == 5.0
    assert agg["survival_connectivity"]["proportions"][0] == 1.0
    assert agg["survival_connectivity"]["proportions"][5] == pytest.approx(2 / 3)
    assert agg["p_invalid"] == 0.0


def test_eval_csv_is_survival_curve(workdir, capsys, tmp_path):
    seqdir = _write_eval_corpus(tmp_path)
    assert run(workdir, "--format", "csv", "eval", seqdir) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k,proportion"
    assert out.splitlines()[1] == "0,1.0"


def test_sample_command_and_out_dir(workdir, capsys, tmp_path):
    graph_out = tmp_path / "g.json"
    assert run(workdir, "--out", graph_out, "graph", workdir / "stack4.ldr") == 0
    assert run(workdir, "--seed", 4, "sample", graph_out, "--count", 3) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["programs"]) == 3
    outdir = tmp_path / "programs"
    assert run(workdir, "--seed", 4, "--out", outdir, "sample", graph_out, "--count", 3) == 0
    files = sorted(outdir.iterdir())
    assert [f.name for f in files] == ["path_0.bseq", "path_1.bseq", "path_2.bseq"]
    assert [f.read_text() for f in files] == obj["programs"]


@pytest.mark.parametrize("scale, code", [(1.0, 0), (1.01, 2)], ids=["8-decimals", "scaled-1.01"])
def test_graph_json_rotation_repaired_within_1e3_and_rejected_beyond(workdir, tmp_path, scale,
                                                                     code):
    """Graph-JSON rotations written to 8 decimals load, each repaired to the
    rotation nearest it; rotations scaled by 1.01 exit 2 with one line."""
    graph_out = tmp_path / "g.json"
    assert _run_captured(workdir, "--out", graph_out, "graph", workdir / "mixed.ldr")[0] == 0
    obj = json.loads(graph_out.read_text())
    turn = rotation_about_axis(np.array([1.0, 2.0, 3.0]), 37.0)
    exact = []
    for n in obj["nodes"]:
        pose = RigidTransform.from_json_obj(n["pose"])
        exact.append(turn @ pose.rotation)
        n["pose"] = {"rot": [round(v * scale, 8) for v in exact[-1].ravel().tolist()],
                     "t": (turn @ pose.translation).tolist()}
    graph_out.write_text(json.dumps(obj))
    message = "malformed graph JSON: ValueError: rotation is scaled or sheared beyond 0.001"
    got = _run_captured(workdir, "sample", graph_out)
    assert (got[0], got[2]) == (code, "" if code == 0 else f"error: {message}\n")
    if code == 0:
        loaded = ConnectivityGraph.loads(graph_out.read_text())
        for nid, want in zip(sorted(loaded.nodes), exact):
            rotation = loaded.nodes[nid].pose.rotation
            assert orthonormality_error(rotation) <= 1e-9
            assert np.abs(rotation - want).max() <= 1e-8


def test_internal_pose_path_runs_no_lapack(workdir, capsys, tmp_path, monkeypatch):
    """LAPACK runs only where a matrix from a file enters: executing
    programs, validating them against meshes and sampling a graph the CLI
    wrote call neither np.linalg.det nor np.linalg.svd."""
    graph_out = tmp_path / "g.json"
    assert run(workdir, "--out", graph_out, "graph", workdir / "mixed.ldr") == 0
    rng = np.random.default_rng(20261019)
    texts = [serialize(generate_random_path(CAT, rng, 30), CAT) for _ in range(6)]
    program = tmp_path / "p.bseq"
    program.write_text(texts[0])

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK call on the pose path")

    monkeypatch.setattr(np.linalg, "det", no_lapack)
    monkeypatch.setattr(np.linalg, "svd", no_lapack)
    colliders = PartColliders.from_catalog(CAT)
    for text in texts:
        parts = text.count(" | ")
        assert len(execute(text, CAT)) == parts
        assert validate_prefix(text, CAT, colliders).connectivity_steps == parts
    assert run(workdir, "execute", program) == 0
    assert len(json.loads(capsys.readouterr().out)["poses"]) == texts[0].count(" | ")
    assert run(workdir, "--seed", 3, "sample", graph_out, "--count", 4) == 0
    assert len(json.loads(capsys.readouterr().out)["programs"]) == 4


def test_outputs_byte_identical_across_runs_and_jobs(workdir, capsys, tmp_path):
    seqdir = _write_eval_corpus(tmp_path)
    assert run(workdir, "eval", seqdir) == 0
    first = capsys.readouterr().out
    assert run(workdir, "eval", seqdir) == 0
    second = capsys.readouterr().out
    assert first == second
    assert run(workdir, "--seed", 11, "serialize", workdir / "stack4.ldr") == 0
    a = capsys.readouterr().out
    assert run(workdir, "--seed", 11, "serialize", workdir / "stack4.ldr") == 0
    b = capsys.readouterr().out
    assert a == b


def test_console_entry_point(workdir, tmp_path):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "brickir.cli", "--catalog", str(workdir / "catalog.json"),
         "parse", str(workdir / "stack4.ldr")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert len(json.loads(result.stdout)["instances"]) == 4


# One ``main`` call, its output captured and SystemExit read as its exit code.
_CAPTURED_MAIN = """
import contextlib, io, json, sys
from brickir.cli import main
def captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]
"""


def _child_env():
    src = str(Path(brickir.__file__).resolve().parents[1])
    paths = (src, os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_reused_parser_keeps_no_state_between_calls(workdir, tmp_path, monkeypatch):
    """Calls in one process, the parser built once, each give what the same
    call gives alone in a fresh process: exit code, stdout and stderr."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the width
    seqdir = _write_eval_corpus(tmp_path)
    progs = [str(p) for p in sorted(seqdir.iterdir())]
    ldr = str(workdir / "stack4.ldr")
    catalog = ["--catalog", str(workdir / "catalog.json")]
    calls = [
        [*catalog, "--pos-tol", "x", "graph", ldr],  # argparse's own error: exit 2
        [*catalog, "--max-parts", "0", "eval", *progs],  # a numeric rule's error: exit 2
        [*catalog, "eval", *progs],
        [*catalog, "--no-collision", "check", *progs],
        [*catalog, "--format", "csv", "eval", *progs],
        [*catalog, "sample", ldr, "--count", "3"],
        catalog,  # no subcommand: exit 2
    ]
    namespace: dict = {}
    exec(_CAPTURED_MAIN, namespace)
    in_process = [namespace["captured"](argv) for argv in calls + calls]
    alone = []
    for argv in calls:
        child = subprocess.run(
            [sys.executable, "-c", _CAPTURED_MAIN + "print(json.dumps(captured(sys.argv[1:])))",
             *argv],
            capture_output=True, text=True, env=_child_env(), check=True,
        )
        alone.append(json.loads(child.stdout))
    assert [code for code, _, _ in alone] == [2, 2, 0, 0, 0, 0, 2]
    assert in_process == alone + alone


def test_importing_the_cli_builds_no_parser(workdir):
    """The parser is built by the first ``main`` call, not at import (the
    benchmark's set-up time includes the import), and only once."""
    script = _CAPTURED_MAIN.replace("from brickir.cli import main\n", "") + """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from brickir.cli import main
counts = [len(built)]
for _ in range(2):
    captured(["--catalog", sys.argv[1], "parse", sys.argv[2]])
    counts.append(len(built))
print(json.dumps(counts))
"""
    child = subprocess.run(
        [sys.executable, "-c", script, str(workdir / "catalog.json"), str(workdir / "stack4.ldr")],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    at_import, first, second = json.loads(child.stdout)
    assert at_import == 0 and first > 1 and second == first


def test_tolerance_flags_change_matching(workdir, capsys, tmp_path):
    # plates stacked with a 0.6 LDU horizontal misfit: matched only once the
    # position tolerance admits it
    off = tmp_path / "offset.ldr"
    off.write_text(
        "1 4 0 0 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
        "1 2 0.6 -8 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
    )
    assert run(workdir, "--pos-tol", "0.25", "graph", off) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == []
    assert run(workdir, "--pos-tol", "1.0", "graph", off) == 0
    assert len(json.loads(capsys.readouterr().out)["edges"]) == 2


def test_check_text_format(workdir, capsys, tmp_path):
    good = tmp_path / "t.bseq"
    good.write_text("a plate 1x2 | red\nb plate 1x2 | blue\na stud stud a hole b 0\n")
    assert run(workdir, "--format", "text", "check", good) == 0
    out = capsys.readouterr().out
    assert "connectivity=2" in out and "collision=2" in out


def test_no_collision_flag_skips_the_collision_check(workdir, capsys, tmp_path):
    # c is attached onto a's stud a, where b already sits
    prog = tmp_path / "overlap.bseq"
    prog.write_text(
        "a plate 1x2 | red\nb plate 1x2 | red\na stud stud a hole b 0\n"
        "c plate 1x2 | red\na stud stud c hole d 0\n"
    )
    assert run(workdir, "--format", "text", "check", prog) == 0
    out = capsys.readouterr().out
    assert out == f"{prog}: connectivity=3 collision=2 first_error=collision@4\n"
    assert run(workdir, "--no-collision", "--format", "text", "check", prog) == 0
    assert capsys.readouterr().out == f"{prog}: connectivity=3 collision=3\n"


def test_inset_flag_sets_the_collision_margin(workdir, capsys, tmp_path):
    # two 40 LDU wide bricks 39.7 LDU apart overlap by 0.3 LDU: the default
    # 0.25 LDU inset on each side clears that, inset 0 does not
    nodes = {
        0: PartInstance(0, "3004", 4, RigidTransform.identity()),
        1: PartInstance(1, "3004", 4, RigidTransform(np.eye(3), np.array([39.7, 0.0, 0.0]))),
    }
    edge = ConnEdge((0, "c"), (1, "b"), ConnectorFamily.STUD, QuantizedParams())
    graph = tmp_path / "pair.json"
    graph.write_text(json.dumps(ConnectivityGraph(nodes, [edge]).to_json_obj()))

    def parts_kept(*flags):
        assert run(workdir, *flags, "sample", graph) == 0
        (text,) = json.loads(capsys.readouterr().out)["programs"]
        return text.count(" | ")

    assert parts_kept() == 2
    assert parts_kept("--inset", 0) == 1


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["graph", "sample", "serialize", "stats"])
def test_truncated_graph_json_exit2(workdir, capsys, tmp_path, command):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"nodes": [')
    assert run(workdir, command, bad) == 2
    _assert_one_error_line(capsys)


def test_deeply_nested_graph_json_exit2(workdir, capsys, tmp_path):
    # json raises RecursionError here, which used to escape as a traceback
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert run(workdir, "stats", bad) == 2
    _assert_one_error_line(capsys)


@pytest.mark.parametrize("endpoint", [[999, "a"], ["zz", "a"], [0, 5]])
@pytest.mark.parametrize("command", ["sample", "serialize", "stats"])
def test_graph_json_bad_edge_endpoint_exit2(workdir, capsys, tmp_path, endpoint, command):
    graph_out = tmp_path / "g.json"
    assert run(workdir, "--out", graph_out, "graph", workdir / "stack4.ldr") == 0
    obj = json.loads(graph_out.read_text())
    obj["edges"][0]["a"] = endpoint
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(workdir, command, bad) == 2
    _assert_one_error_line(capsys)


def _stack4_graph_obj(workdir, tmp_path):
    graph_out = tmp_path / "g.json"
    assert run(workdir, "--out", graph_out, "graph", workdir / "stack4.ldr") == 0
    return json.loads(graph_out.read_text())


@pytest.mark.parametrize(
    "argv", [["sample"], ["--seed", "3", "sample"], ["serialize"], ["stats"]]
)
def test_graph_json_missing_connector_exit3(workdir, capsys, tmp_path, argv):
    # with the default seed, sample used to cut the path before the bad edge
    # and exit 0; stats never looked at connectors
    obj = _stack4_graph_obj(workdir, tmp_path)
    obj["edges"][0]["a"][1] = "zz"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(workdir, *argv, bad) == 3
    _assert_one_error_line(capsys)


def test_graph_json_unknown_part_exit3(workdir, capsys, tmp_path):
    obj = _stack4_graph_obj(workdir, tmp_path)
    obj["nodes"][0]["part"] = "no-such-part"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(workdir, "stats", bad) == 3
    _assert_one_error_line(capsys)


def _relabel_as_ball(edges):
    edges[0].update(family="ball", params={"euler": [0, 0, 0]})


def _join_two_studs(edges):
    edges[0]["b"] = [1, "a"]


def _hold_a_stud_twice(edges):
    edges.append({**edges[0], "b": [1, "d"]})


@pytest.mark.parametrize("edit,message", [
    (_relabel_as_ball, "ball edge (0, 'a')-(1, 'b') cannot join 'stud' and 'hole'"),
    (_join_two_studs, "stud edge (0, 'a')-(1, 'a') cannot join 'stud' and 'stud'"),
    (_hold_a_stud_twice, "connector (0, 'a') is single-accept and held by two edges"),
], ids=["ball-edge-on-studs", "stud-stud-edge", "stud-held-twice"])
def test_graph_json_edge_the_matcher_cannot_find_exit3(workdir, capsys, tmp_path, edit, message):
    # the two lowest plates of stack4.ldr and their stud edge: serialize
    # writes a program that check accepts; after the edit it used to write
    # one that check rejects (unknown-subtype, incompatible-subtypes) or
    # that holds a stud twice
    obj = _stack4_graph_obj(workdir, tmp_path)
    obj["nodes"], obj["edges"] = obj["nodes"][:2], obj["edges"][:1]
    graph = tmp_path / "two.json"
    graph.write_text(json.dumps(obj))
    program = tmp_path / "two.bseq"
    assert run(workdir, "--out", program, "serialize", graph) == 0
    assert run(workdir, "--strict", "check", program) == 0
    capsys.readouterr()
    edit(obj["edges"])
    graph.write_text(json.dumps(obj))
    assert run(workdir, "serialize", graph) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


_TWO_PLATES = "a plate 1x2 | red\nb plate 1x2 | red\na stud stud a hole b 0\n"


@pytest.mark.parametrize("command", ["parse", "graph"])
def test_latin1_ldraw_structure_is_decoded(workdir, capsys, tmp_path, command):
    # LDraw text falls back from UTF-8 to latin-1, so a latin-1 byte in a
    # comment changes nothing; it used to end in a UnicodeDecodeError traceback
    latin1 = tmp_path / "latin1.ldr"
    latin1.write_bytes(b"0 K\xf6lner Dom\n" + demo_ldr("stack4").encode())
    assert run(workdir, command, workdir / "stack4.ldr") == 0
    want = capsys.readouterr().out
    assert run(workdir, command, latin1) == 0
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("command, name, data", [
    ("check", "p.bseq", _TWO_PLATES.encode() + b"\xf6\n"),
    ("eval", "p.bseq", b"a plate 1x2 | r\xf6d\n"),
    ("execute", "p.bseq", _TWO_PLATES.replace("red", "r\xf6d").encode("latin-1")),
    ("stats", "g.json", b'{"nodes": [], "edges": [], "note": "\xf6"}'),
    ("serialize", "g.json", b"\xff\xfe{}"),
], ids=["check", "eval", "execute", "stats", "serialize-utf16-bom"])
def test_non_utf8_program_or_graph_json_exit2(workdir, tmp_path, command, name, data):
    # program text and graph JSON are UTF-8 by spec
    bad = tmp_path / name
    bad.write_bytes(data)
    code, out, err = _run_captured(workdir, command, bad)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not UTF-8 text: ") and err.count("\n") == 1


def _catalog_text(edit) -> str:
    obj = CAT.to_json_obj()
    edit(obj)
    return json.dumps(obj)


def _set_first_connector(key, value):
    def edit(obj):
        connector = obj["parts"]["3023"]["connectors"][0]
        connector[key] = value
        if key == "subtype":  # its family is then looked up in the rules
            del connector["family"]
    return edit


@pytest.mark.parametrize("data", [
    b"{",
    b"[]",
    _catalog_text(lambda obj: obj["parts"]["3023"].pop("name")).encode(),
    _catalog_text(_set_first_connector("origin", "a")).encode(),
    _catalog_text(lambda obj: obj["colors"].update(x="mauve")).encode(),
    _catalog_text(_set_first_connector("family", "spring")).encode(),
    _catalog_text(_set_first_connector("family", "axle")).encode(),
    _catalog_text(lambda obj: obj["parts"]["3023"]["mesh"].update(triangles=[[0, 1]])).encode(),
    _catalog_text(_set_first_connector("subtype", "no-such-subtype")).encode(),
    CAT.dumps().replace('"red"', '"r\\u00f6d"').encode().replace(b"\\u00f6", b"\xf6"),
    b"[" * 100_000,
    _catalog_text(lambda obj: obj["parts"]["3023"]["connectors"][0].pop("index")).encode(),
    _catalog_text(_set_first_connector("index", "b")).encode(),
    _catalog_text(_set_first_connector("index", "A")).encode(),
    _catalog_text(lambda obj: obj["parts"]["3023"]["connectors"][0].update(
        subtype="no-such-subtype")).encode(),
], ids=["truncated", "list", "part-without-name", "origin-a", "color-code-x", "unknown-family",
        "family-not-the-subtypes", "short-triangle", "unregistered-subtype", "latin1",
        "deeply-nested", "index-missing", "index-repeated", "index-not-a-letter",
        "unregistered-subtype-with-family"])
def test_malformed_catalog_json_exit3(workdir, capsys, tmp_path, data):
    catalog = tmp_path / "catalog.json"
    catalog.write_bytes(data)
    assert main(["--catalog", str(catalog), "parse", str(workdir / "stack4.ldr")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_MALFORMED = "error: malformed catalog JSON: ValueError: "


@pytest.mark.parametrize("part, key, value, code, err", [
    ("3023", "origin", "a", 3, _MALFORMED + "could not convert string to float: 'a'\n"),
    ("3023", "origin", [None, None, None], 3, _MALFORMED + "non-finite connector frame\n"),
    ("3023", "origin", [-10.0, 0.0], 3,
     _MALFORMED + "cannot reshape array of size 2 into shape (3,)\n"),
    ("3023", "origin", [[-10.0, 0.0, 0.0]], 0, ""),  # numpy's conversion accepts the nesting
    ("3023", "origin", [float("nan"), 0.0, 0.0], 3, _MALFORMED + "non-finite connector frame\n"),
    ("3023", "principal_axis", [0.0, float("inf"), 0.0], 3,
     _MALFORMED + "non-finite connector frame\n"),
    ("3023", "principal_axis", [0.0, -2e150, 0.0], 3,
     _MALFORMED + "connector axis component beyond 1e+150\n"),
    ("3023", "reference_axis", [2e150, 0.0, 0.0], 3,
     _MALFORMED + "connector axis component beyond 1e+150\n"),
    ("3023", "principal_axis", [0, 0, 0], 3, _MALFORMED + "zero-length principal axis\n"),
    ("3023", "origin", [0.0, 2e6, 0.0], 3,
     "error: part '3023': connector origin beyond 1e+06 LDU\n"),
    ("3023", "axle_length", 2000, 3,
     _MALFORMED + "axle_length must be a number in [0, 1000], got 2000\n"),
    ("3023", "axle_length", -1, 3,
     _MALFORMED + "axle_length must be a number in [0, 1000], got -1\n"),
    ("3023", "axle_length", True, 3,
     _MALFORMED + "axle_length must be a number in [0, 1000], got True\n"),
    # stack4.ldr places only 3023: the catalog is checked whole at load
    ("3004", "origin", "a", 3, _MALFORMED + "could not convert string to float: 'a'\n"),
    ("3004", "origin", [0.0, -2e6, 0.0], 3,
     "error: part '3004': connector origin beyond 1e+06 LDU\n"),
    ("3704", "axle_length", 2000, 3,
     _MALFORMED + "axle_length must be a number in [0, 1000], got 2000\n"),
], ids=["origin-a", "origin-nones", "origin-2-numbers", "origin-nested", "origin-nan",
        "principal-inf", "principal-past-axis-limit", "reference-past-axis-limit",
        "principal-zero", "origin-past-1e6", "axle-2000", "axle-negative", "axle-true",
        "unused-part-origin-a", "unused-part-origin-past-1e6", "unused-part-axle-2000"])
def test_catalog_connector_gate_exit_codes_and_messages(workdir, tmp_path, part, key, value,
                                                        code, err):
    obj = CAT.to_json_obj()
    obj["parts"][part]["connectors"][0][key] = value
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(obj))
    ldr = workdir / "stack4.ldr"
    got = _run_captured(workdir, "--catalog", catalog, "parse", ldr)  # the last --catalog wins
    want_out = _run_captured(workdir, "parse", ldr)[1] if code == 0 else ""
    assert got == (code, want_out, err)


def test_nonfinite_ldraw_number_exit2_with_line_number(workdir, capsys, tmp_path):
    bad = tmp_path / "nan.ldr"
    bad.write_text(
        "1 4 0 0 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
        "1 2 nan -8 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
    )
    assert run(workdir, "graph", bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:")


@pytest.mark.parametrize("command", ["parse", "graph", "check"])
def test_nonfinite_part_geometry_in_library_catalog_exit2(capsys, tmp_path, command):
    # the part's triangle would reach the collision mesh as NaN
    (tmp_path / "lib" / "parts").mkdir(parents=True)
    (tmp_path / "lib" / "parts" / "3005.dat").write_text(
        "0 Brick 1 x 1\n3 16 nan 8 -10 10 8 -10 10 8 10\n"
    )
    structure = tmp_path / "one.ldr"
    structure.write_text("1 4 0 0 0 1 0 0 0 1 0 0 0 1 3005.dat\n")
    prog = tmp_path / "one.bseq"
    prog.write_text("a brick 1x1 | red\n")
    target = prog if command == "check" else structure
    assert main(["--catalog", str(tmp_path / "lib"), command, str(target)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 3005.dat: line 2: non-finite number in type-3 line\n"


def test_serialize_rejects_params_the_family_lacks_exit2(workdir, capsys, tmp_path):
    # a stud edge has no flip: it used to be dropped and printed as a plain stud attach
    obj = _stack4_graph_obj(workdir, tmp_path)
    obj["edges"][0]["params"]["flip"] = True
    bad = tmp_path / "flip.json"
    bad.write_text(json.dumps(obj))
    assert run(workdir, "serialize", bad) == 2
    _assert_one_error_line(capsys)


AXLE_PROGRAM = "a technic brick 1x2 | red\nb technic pin | black\na axle pin_socket c pin a 0 {}\n"
_SLIDES_OUT_OF_RANGE = [10**400, -(10**400), 2**52 + 1]


def _run_captured(workdir, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(workdir, *argv)  # an escaping exception fails the test
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, name, data, code, message", [
    (["eval"], "none", None, 1, "no program files in {}"),
    (["--strict", "eval"], "none", None, 1, "no program files in {}"),
    (["sample"], "nodes.json", '{"nodes": [], "edges": []}', 1, "empty graph"),
    (["--strict", "sample"], "nodes.json", '{"nodes": [], "edges": []}', 4, "empty graph"),
    (["parse"], "m.mpd", OVERFLOWING_MPDS["matrix"], 2, "line 1: non-finite composed transform"),
    (["graph"], "t.mpd", OVERFLOWING_MPDS["translation"], 2,
     "line 1: non-finite composed transform"),
    # 8e15 bytes of draws: beyond the user address space, so nothing is allocated
    (["sample", "--count", "1000000000000000"], "one.json",
     ConnectivityGraph({0: PartInstance(0, "3003", 4, RigidTransform.identity())}, []).dumps(),
     1, "out of memory"),
], ids=["eval-empty-dir", "strict-eval-empty-dir", "sample-node-less", "strict-sample-node-less",
        "parse-matrix-overflow", "graph-translation-overflow", "sample-count-beyond-memory"])
def test_degenerate_inputs_exit_with_one_error_line(workdir, tmp_path, argv, name, data, code,
                                                    message):
    target = tmp_path / name
    if data is None:
        target.mkdir()  # a directory without files
    else:
        target.write_text(data)
    got = _run_captured(workdir, *argv, target)
    assert got == (code, "", f"error: {message.format(target)}\n")


@pytest.mark.parametrize("slide", _SLIDES_OUT_OF_RANGE, ids=["1e400", "-1e400", "2**52+1"])
def test_slide_out_of_range_is_bad_params(workdir, tmp_path, slide):
    # a slide past the bound used to be accepted; past float range, float()
    # raised OverflowError out of check, eval and execute
    prog = tmp_path / "slide.bseq"
    prog.write_text(AXLE_PROGRAM.format(slide))
    for argv, want_code in (
        (["check", prog], 0),
        (["--no-collision", "check", prog], 0),
        (["--strict", "check", prog], 4),
        (["eval", prog], 0),
    ):
        code, out, err = _run_captured(workdir, *argv)
        assert code == want_code, argv
        assert err == ""
        report = json.loads(out)["reports"][str(prog)]
        assert report["connectivity_steps"] == report["collision_steps"] == 1
        assert report["first_error"]["code"] == "bad-params"
        assert report["first_error"]["line"] == 3
    code, out, err = _run_captured(workdir, "execute", prog)
    assert code == 2
    assert out == ""
    assert err == "error: line 3: bad-params: slide out of range [-2**52, 2**52] LDU\n"


def test_slide_at_the_bound_is_accepted(workdir, tmp_path):
    # the pin sits 10 LDU down the socket's axis at slide 0; every slide up
    # to the bound, odd ones included, moves it by exactly the slide
    prog = tmp_path / "slide.bseq"
    for slide in (-(2**52), 2**52, -(2**52) + 1, 2**52 - 1):
        prog.write_text(AXLE_PROGRAM.format(slide))
        code, out, err = _run_captured(workdir, "execute", prog)
        assert (code, err) == (0, "")
        assert json.loads(out)["poses"]["b"]["t"] == [0.0, 12.0, float(slide - 10)]


def _axle_graph_json(slide_token: str) -> str:
    poses = brickir.execute(AXLE_PROGRAM.format(0), CAT)
    nodes = {i: PartInstance(i, pid, 4, poses[n]) for i, (n, pid) in enumerate(
        (("a", "3700"), ("b", "3673")))}
    edge = ConnEdge((0, "c"), (1, "a"), ConnectorFamily.AXLE, QuantizedParams())
    text = ConnectivityGraph(nodes, [edge]).dumps()
    assert text.count('"slide": 0') == 1
    return text.replace('"slide": 0', f'"slide": {slide_token}')


@pytest.mark.parametrize("slide", [str(s) for s in _SLIDES_OUT_OF_RANGE] + ["1e400"],
                         ids=["1e400", "-1e400", "2**52+1", "float-1e400"])
def test_graph_json_slide_out_of_range_exit2(workdir, capsys, tmp_path, slide):
    good = tmp_path / "good.json"
    good.write_text(_axle_graph_json("0"))
    assert run(workdir, "serialize", good) == 0
    assert " axle " in capsys.readouterr().out
    bad = tmp_path / "slide.json"
    bad.write_text(_axle_graph_json(slide))
    assert run(workdir, "serialize", bad) == 2
    _assert_one_error_line(capsys)


def test_library_catalog_warnings_reach_stderr(capsys, tmp_path):
    (tmp_path / "lib" / "parts").mkdir(parents=True)
    (tmp_path / "lib" / "parts" / "3024.dat").write_text(
        "0 Plate 1 x 1\n1 16 0 0 0 1 0 0 0 1 0 0 0 1 ghost.dat\n"
    )
    structure = tmp_path / "one.ldr"
    structure.write_text("1 4 0 0 0 1 0 0 0 1 0 0 0 1 3024.dat\n")
    assert main(["--catalog", str(tmp_path / "lib"), "parse", str(structure)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: 3024.dat: line 2: unresolvable subfile 'ghost.dat'\n"
        "warning: 3024: no connector sites\n"
    )
    assert [i["part"] for i in json.loads(captured.out)["instances"]] == ["3024"]


# ---------------------------------------------------------------------------
# Collision meshes built on first use


def test_eval_builds_only_the_meshes_it_places(capsys, tmp_path):
    path = tmp_path / "collapsing.json"  # "plate 1x1" (3024) cannot be inset
    path.write_text(json.dumps(catalog_obj_with_collapsing_mesh("3024")))
    catalog = str(path)
    without = tmp_path / "without.bseq"
    without.write_text("a plate 1x2 | red\nb plate 1x2 | red\na stud stud a hole b 0\n")
    assert main(["--catalog", catalog, "eval", str(without)]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][str(without)]
    assert report["connectivity_steps"] == 2
    placing = tmp_path / "placing.bseq"
    placing.write_text("a plate 1x1 | red\n")
    assert main(["--catalog", catalog, "eval", str(placing)]) == 1
    assert capsys.readouterr().err == "error: inset collapsed the entire mesh\n"
    assert main(["--catalog", catalog, "--strict", "eval", str(placing)]) == 4
    _assert_one_error_line(capsys)
    assert main(["--catalog", catalog, "--no-collision", "eval", str(placing)]) == 0


@pytest.mark.parametrize("command", ["eval", "check"])
def test_one_call_builds_each_mesh_once(workdir, capsys, tmp_path, monkeypatch, command):
    builds = count_inset_builds(monkeypatch)
    text = serialize(generate_random_path(CAT, np.random.default_rng(3), 12), CAT)
    files = []
    for k in range(6):  # the same program six times: every file looks up the same parts
        files.append(tmp_path / f"p{k}.bseq")
        files[-1].write_text(text)
    assert run(workdir, command, *files) == 0
    capsys.readouterr()
    assert builds and set(builds.values()) == {1}


# ---------------------------------------------------------------------------
# Exit-code contract under fuzzed programs

_FUZZ_BASES = [
    serialize(generate_random_path(CAT, np.random.default_rng(seed), n), CAT)
    for seed, n in ((1, 6), (2, 12), (5, 20))
]
_LINE_MUTATIONS = ("drop_line", "swap_lines", "dup_line")
_TOKEN_MUTATIONS = ("drop_token", "swap_tokens", "dup_token", "insert_int", "ball_triple")
_INTS = st.integers(-(10**12), 10**12)


@st.composite
def _mutated_programs(draw):
    lines = draw(st.sampled_from(_FUZZ_BASES)).splitlines()
    ops = st.sampled_from(_LINE_MUTATIONS + _TOKEN_MUTATIONS)
    for op in draw(st.lists(ops, min_size=1, max_size=4)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        if op == "drop_line":
            del lines[i]
        elif op == "swap_lines":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif op == "dup_line":
            lines.insert(i, lines[i])
        elif op == "drop_token":
            del tokens[j]
        elif op == "swap_tokens":
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        elif op == "dup_token":
            tokens.insert(j, tokens[j])
        elif op == "insert_int":
            tokens.insert(j, str(draw(_INTS)))
        else:  # the last three tokens become any integer triple
            tokens[-3:] = [str(draw(_INTS)) for _ in range(3)]
        if op in _TOKEN_MUTATIONS:
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=_mutated_programs())
def test_fuzzed_programs_keep_the_exit_code_contract(workdir, text):
    program_file = workdir / "fuzzed.bseq"
    program_file.write_text(text)
    for argv in (["check", program_file], ["--strict", "check", program_file],
                 ["eval", program_file]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(workdir, *argv)  # an escaping exception fails the test
        assert 0 <= code <= 4
        assert "Traceback" not in err.getvalue()
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


@pytest.mark.parametrize("argv, message", [
    (["--max-parts", "0", "serialize", "{ldr}"], "argument --max-parts: must be >= 1, got 0"),
    (["sample", "{ldr}", "--count", "-1"], "argument --count: must be >= 0, got -1"),
    (["--seed", "-1", "serialize", "{ldr}"], "argument --seed: must be >= 0, got -1"),
    (["--axis-tol", "inf", "graph", "{ldr}"], "argument --axis-tol: must be finite, got inf"),
    (["--pos-tol", "nan", "graph", "{ldr}"], "argument --pos-tol: must be finite, got nan"),
    (["--inset", "nan", "eval", "{prog}"], "argument --inset: must be finite, got nan"),
    (["--inset=-inf", "check", "{prog}"], "argument --inset: must be finite, got -inf"),
    (["--pos-tol", "-1", "graph", "{ldr}"], "argument --pos-tol: must be >= 0, got -1.0"),
    (["--axis-tol", "-5", "graph", "{ldr}"], "argument --axis-tol: must be >= 0, got -5.0"),
    (["--inset", "-1", "check", "{prog}"], "argument --inset: must be >= 0, got -1.0"),
    (["--inset", "1e300", "check", "{prog}"], "argument --inset: must be <= 1e+06, got 1e+300"),
], ids=["max-parts-0", "count-negative", "seed-negative",
        "axis-tol-inf", "pos-tol-nan", "inset-nan", "inset-minus-inf", "pos-tol-negative",
        "axis-tol-negative", "inset-negative", "inset-beyond-the-mesh-bound"])
def test_bad_numeric_flags_exit2(workdir, capsys, tmp_path, argv, message):
    prog = tmp_path / "p.bseq"
    prog.write_text(AXLE_PROGRAM.format(0))
    paths = {"{ldr}": str(workdir / "stack4.ldr"), "{prog}": str(prog)}
    with pytest.raises(SystemExit) as exited:
        run(workdir, *[paths.get(a, a) for a in argv])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"brickir: error: {message}"
    ]


def test_numeric_flags_at_their_bounds_are_accepted(workdir, capsys, tmp_path):
    ldr = workdir / "stack4.ldr"
    assert run(workdir, "--seed", "0", "--max-parts", "1", "serialize", ldr) == 0
    assert capsys.readouterr().out.count("\n") == 1  # the root intro only
    assert run(workdir, "sample", ldr, "--count", "0") == 0
    assert json.loads(capsys.readouterr().out) == {"programs": []}
    assert run(workdir, "--pos-tol", "0", "--axis-tol", "0", "graph", ldr) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == 4
    prog = tmp_path / "two.bseq"
    prog.write_text(_TWO_PLATES)
    assert run(workdir, "--inset", "0", "check", prog) == 0
    report = json.loads(capsys.readouterr().out)["reports"][str(prog)]
    assert report == {"connectivity_steps": 2, "collision_steps": 2, "first_error": None}


@pytest.mark.parametrize("inset", ["3.5", "1e6"])
def test_inset_through_the_part_exit1(workdir, tmp_path, inset):
    # the 8-LDU-high plate 1x2 flattens to a sheet at 3 LDU and turns faces
    # around beyond; at 1e6 its volume changes sign
    prog = tmp_path / "two.bseq"
    prog.write_text(_TWO_PLATES)
    code, out, err = _run_captured(workdir, "--inset", inset, "check", prog)
    assert (code, out, err) == (1, "", "error: inset collapsed the entire mesh\n")


def test_inset_0_tests_containment_from_a_point_on_the_mesh(tmp_path):
    # At --inset 0, as at every inset, a vertex that no triangle uses is
    # compacted away, and containment is tested from a triangle corner. The
    # plate 1x2 here lists first such a vertex, 4 LDU below its own box: in
    # the stacked plate b it would lie inside plate a, which b only touches.
    obj = CAT.to_json_obj()
    mesh = obj["parts"]["3023"]["mesh"]
    mesh["vertices"] = [[0.0, 12.0, 0.0], *mesh["vertices"]]
    mesh["triangles"] = [[i + 1 for i in tri] for tri in mesh["triangles"]]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(obj))
    prog = tmp_path / "two.bseq"
    prog.write_text(_TWO_PLATES)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--catalog", str(catalog), "--inset", "0", "check", str(prog)]) == 0
    report = json.loads(out.getvalue())["reports"][str(prog)]
    assert report == {"connectivity_steps": 2, "collision_steps": 2, "first_error": None}


# actions 1-2 are valid; action 3 (c) reuses stud 'a' of node 'a' at line 5
_REUSE = (
    "a plate 1x2 | red\n"
    "b plate 1x2 | blue\n"
    "a stud stud a hole b 0\n"
    "c plate 1x2 | green\n"
    "a stud stud a hole b 0\n"
)


@pytest.mark.parametrize("command", [["check"], ["--no-collision", "check"]])
def test_connector_reuse_and_syntax_error_precedence(workdir, tmp_path, command):
    # the parser checks every line's own rules and the executor the connector
    # occupancy, so a reuse before a later action's syntax error is what check
    # reports, while execute stops at the syntax error; a syntax error in the
    # reusing action itself drops that action before the executor sees it
    later = tmp_path / "later.bseq"
    later.write_text(_REUSE + "d plate 1x2 | yellow\nc stud stud a hole\n")
    same = tmp_path / "same.bseq"
    same.write_text(_REUSE + "%% not a step %%\nd plate 1x2 | yellow\nc stud stud a hole b 0\n")
    for prog, first_error in ((later, ("connector-occupied", 5)),
                              (same, ("malformed-line", 6))):
        code, out, err = _run_captured(workdir, *command, prog)
        assert (code, err) == (0, "")
        report = json.loads(out)["reports"][str(prog)]
        assert report["connectivity_steps"] == report["collision_steps"] == 2
        assert (report["first_error"]["code"], report["first_error"]["line"]) == first_error
    code, out, err = _run_captured(workdir, "execute", later)
    assert (code, out) == (2, "")
    assert err == "error: line 7: malformed-line: attach needs at least 6 tokens\n"
    code, out, err = _run_captured(workdir, "execute", same)
    assert (code, out) == (2, "")
    assert err == "error: line 6: malformed-line: attach needs at least 6 tokens\n"


# ---------------------------------------------------------------------------
# Exit-code contract under fuzzed LDraw files, graph JSON and catalog JSON

_LDRAW_BASES = [demo_ldr(kind) for kind in ("stack4", "mpd_stack", "mixed")]
_LDRAW_TOKENS = ("nan", "inf", "-1e400", "1e200", "-0", "1e-320", "9" * 400, "0", "1", "3",
                 "4", "3023.dat", "nope.dat", "sub.ldr", "main.ldr", "FILE", "NOFILE", "\t")
_GRAPH_BASES = [
    match_connectors(parse_structure(demo_ldr(kind), CAT), CAT).to_json_obj()
    for kind in ("stack4", "mixed")
]
_JSON_VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 2**53 + 1, 10**400, 0.5, 1e308, -1e308, float("nan"),
    float("inf"), "", "a", "3023", "stud", "ball", [], {}, [0, 0, 0], [[0, 1, 2]], {"x": 1},
])


def _fuzz_calls(argv_list, main_args):
    """Run each argv through ``main``; every call must keep the exit-code
    contract: a code of 0-4, at most one ``error:`` line and no traceback
    (warnings are errors inside the call, so a numpy warning fails the test)."""
    for argv in argv_list:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*map(str, main_args), *map(str, argv)])  # an escaping exception fails
        assert 0 <= code <= 4
        assert "Traceback" not in err.getvalue()
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


@st.composite
def _mutated_ldraw(draw):
    """A demo .ldr/.mpd with up to four line or token edits, then maybe one
    byte overwritten (any byte value, so the text may stop being UTF-8)."""
    lines = draw(st.sampled_from(_LDRAW_BASES)).splitlines()
    ops = ("drop_line", "dup_line", "swap_lines", "drop_token", "dup_token", "set_token")
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=4)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        if op == "drop_line":
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, lines[i])
        elif op == "swap_lines":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        else:
            if op == "drop_token":
                del tokens[j]
            elif op == "dup_token":
                tokens.insert(j, tokens[j])
            else:
                tokens[j] = draw(st.sampled_from(_LDRAW_TOKENS))
            lines[i] = " ".join(tokens)
    data = bytearray(("\n".join(lines) + "\n").encode())
    if draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def _json_paths(obj, path=()):
    """Every (container path, key) inside a JSON object, preorder."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)) and value:
            yield from _json_paths(value, (*path, key))


@st.composite
def _mutated_json(draw, bases):
    """A deep copy of one base object with up to three values replaced by
    awkward JSON values (NaN and Infinity included) or deleted."""
    obj = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(obj))
        if not paths:
            break
        path, key = draw(st.sampled_from(paths))
        parent = obj
        for step in path:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(_JSON_VALUES))  # never share a container
    return json.dumps(obj)


@settings(max_examples=60, deadline=None)
@given(data=_mutated_ldraw())
def test_fuzzed_ldraw_keeps_the_exit_code_contract(workdir, data):
    path = workdir / "fuzzed.mpd"
    path.write_bytes(data)
    _fuzz_calls([["parse", path], ["--strict", "parse", path], ["graph", path]],
                ["--catalog", workdir / "catalog.json"])


@settings(max_examples=60, deadline=None)
@given(text=_mutated_json(_GRAPH_BASES))
def test_fuzzed_graph_json_keeps_the_exit_code_contract(workdir, text):
    path = workdir / "fuzzed_graph.json"
    path.write_text(text)
    _fuzz_calls([["sample", path], ["serialize", path], ["stats", path]],
                ["--catalog", workdir / "catalog.json"])


@settings(max_examples=50, deadline=None)
@given(text=_mutated_json([CAT.to_json_obj()]))
def test_fuzzed_catalog_json_keeps_the_exit_code_contract(workdir, text):
    program = workdir / "fuzz_catalog.bseq"
    program.write_text(_FUZZ_BASES[2])  # 20 parts over the demo catalog
    catalog = workdir / "fuzzed_catalog.json"
    catalog.write_text(text)
    _fuzz_calls([["graph", workdir / "mixed.ldr"], ["check", program]], ["--catalog", catalog])


def _graph_text(edit) -> str:
    obj = copy.deepcopy(_GRAPH_BASES[0])  # stack4
    edit(obj)
    return json.dumps(obj)


def _set_connector(part, k, key, value):
    def edit(obj):
        obj["parts"][part]["connectors"][k][key] = value
    return edit


def _set_origins(part, value):
    def edit(obj):
        for connector in obj["parts"][part]["connectors"]:
            connector["origin"] = value
    return edit


# plate 1x1 turned 45 degrees about the vertical, so a connector origin of
# 1.5e308 in x and z overflows when placed; and a program that places it so
TURNED_PLATE = "1 4 0 0 0 0.7071067811865476 0 0.7071067811865476 0 1 0 " \
    "-0.7071067811865476 0 0.7071067811865476 3024.dat\n"
TURNED_PLATE_PROGRAM = "a plate 1x1 | red\nb plate 1x1 | red\na stud stud a hole b 45\n"
ORIGIN_OVERFLOW = "part '3024': connector origin beyond 1e+06 LDU"


def _set_first_vertex(value):
    def edit(obj):
        obj["parts"]["3023"]["mesh"]["vertices"][0][0] = value
    return edit


# Inputs the fuzz tests above found. When they were found, the two
# non-string cases raised tracebacks, the NaN vertex exited 0 with meshes
# that never collide, and the rest printed numpy overflow or cast warnings;
# the overflowing pose rotation also loaded as the identity. The overflowing
# connector origin raised a traceback in the matcher and the executor.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("catalog_edit, argv, name, data, code, message", [
    (None, ["sample"], "g.json", _graph_text(lambda o: o["nodes"][0]["pose"]["rot"].__setitem__(
        0, 1e308)), 2,
     "malformed graph JSON: ValueError: rotation is scaled or sheared beyond 0.001"),
    (None, ["sample"], "g.json", _graph_text(lambda o: o["nodes"][0].update(part=[0, 0, 0])), 2,
     "part id must be a string, got [0, 0, 0]"),
    (None, ["graph"], "far.ldr", "1 1 1e200 -16 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
     "1 2 0 -24 0 1 0 0 0 1 0 0 0 1 3023.dat\n", 0, None),
    (_set_connector("3704", 0, "axle_length", "a"), ["graph"], "mixed.ldr", demo_ldr("mixed"), 3,
     "malformed catalog JSON: ValueError: axle_length must be a number in [0, 1000], got 'a'"),
    (_set_connector("3704", 0, "axle_length", 1e308), ["graph"], "mixed.ldr", demo_ldr("mixed"), 3,
     "malformed catalog JSON: ValueError: axle_length must be a number in [0, 1000], got 1e+308"),
    (_set_connector("3023", 0, "principal_axis", [1e308, 0, 0]), ["parse"], "s.ldr",
     demo_ldr("stack4"), 3,
     "malformed catalog JSON: ValueError: connector axis component beyond 1e+150"),
    (_set_first_vertex(1e308), ["parse"], "s.ldr", demo_ldr("stack4"), 3,
     "mesh vertex beyond 1e+06 LDU or not finite"),
    (_set_first_vertex(float("nan")), ["parse"], "s.ldr", demo_ldr("stack4"), 3,
     "mesh vertex beyond 1e+06 LDU or not finite"),
    *((_set_origins("3024", [1.5e308, 0, 1.5e308]), [command], name, data, 3, ORIGIN_OVERFLOW)
      for command, name, data in (("graph", "turned.ldr", TURNED_PLATE),
                                  ("execute", "p.bseq", TURNED_PLATE_PROGRAM),
                                  ("check", "p.bseq", TURNED_PLATE_PROGRAM),
                                  ("eval", "p.bseq", TURNED_PLATE_PROGRAM))),
], ids=["graph-pose-overflow", "graph-part-not-a-string", "ldraw-translation-1e200",
        "catalog-axle-length-a", "catalog-axle-length-1e308", "catalog-axis-1e308",
        "catalog-vertex-1e308", "catalog-vertex-nan", "catalog-origin-1e308-graph",
        "catalog-origin-1e308-execute", "catalog-origin-1e308-check",
        "catalog-origin-1e308-eval"])
def test_fuzz_found_inputs_keep_the_exit_code_contract(tmp_path, catalog_edit, argv, name, data,
                                                       code, message):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(_catalog_text(catalog_edit) if catalog_edit else CAT.dumps())
    target = tmp_path / name
    target.write_text(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(["--catalog", str(catalog), *argv, str(target)])
    assert (got, err.getvalue()) == (code, f"error: {message}\n" if message else "")


# ---------------------------------------------------------------------------
# Exit-code contract under fuzzed programs over a catalog near the float limits

_AXES_NEAR_THE_LIMIT = st.sampled_from([
    AXIS_LIMIT, -AXIS_LIMIT, 1e149, np.nextafter(AXIS_LIMIT, np.inf), 1e-300, 5e-324, 0.0, 1.0,
])
_ORIGINS_NEAR_THE_BOUND = st.sampled_from([
    1e6, -1e6, np.nextafter(1e6, 0.0), np.nextafter(1e6, np.inf), 999_999.5, 0.5, 0.0,
])
_SLIDES_AT_THE_BOUND = st.sampled_from([
    MAX_SLIDE_LDU, -MAX_SLIDE_LDU, MAX_SLIDE_LDU - 1, MAX_SLIDE_LDU + 1, -MAX_SLIDE_LDU - 1, 0,
])


@st.composite
def _catalog_near_the_float_limits(draw):
    """The demo catalog with up to four connector origin or axis components
    set on, just inside or just past their bounds (1e6 LDU, AXIS_LIMIT)."""
    obj = CAT.to_json_obj()
    parts = obj["parts"]
    for _ in range(draw(st.integers(1, 4))):
        part = parts[draw(st.sampled_from(sorted(p for p in parts if parts[p]["connectors"])))]
        connector = draw(st.sampled_from(part["connectors"]))
        key = draw(st.sampled_from(["origin", "principal_axis", "reference_axis"]))
        values = _ORIGINS_NEAR_THE_BOUND if key == "origin" else _AXES_NEAR_THE_LIMIT
        connector[key][draw(st.integers(0, 2))] = float(draw(values))
    return json.dumps(obj)


@st.composite
def _programs_at_the_slide_bound(draw):
    """A demo program, or a mutated one, with the last token of up to three
    attach lines (an axle's slide, else an angle) set at the slide bound."""
    bases = st.sampled_from(_FUZZ_BASES + [AXLE_PROGRAM.format(0)])
    lines = draw(st.one_of(bases, _mutated_programs())).splitlines()
    attaches = [i for i, line in enumerate(lines) if " | " not in line]
    for i in draw(st.lists(st.sampled_from(attaches), max_size=3)) if attaches else ():
        tokens = lines[i].split(" ")
        tokens[-1] = str(draw(_SLIDES_AT_THE_BOUND))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(catalog_text=_catalog_near_the_float_limits(), text=_programs_at_the_slide_bound())
def test_fuzzed_programs_under_a_fuzzed_catalog_keep_the_exit_code_contract(
    workdir, catalog_text, text
):
    # Python floats overflow without a warning, where numpy warned: these
    # cases keep the pose kernel's results finite or its failures reported
    catalog = workdir / "limits_catalog.json"
    catalog.write_text(catalog_text)
    program = workdir / "limits.bseq"
    program.write_text(text)
    _fuzz_calls([["execute", program], ["check", program], ["eval", program]],
                ["--catalog", catalog])


# ---------------------------------------------------------------------------
# Exit-code contract under fuzzed flags together with fuzzed inputs

# Each value is valid, at or past a bound, not a number, or out of range for
# its type; --count stays small, since it sets how many programs sample writes.
_FLAG_VALUES = {
    "--pos-tol": ["0", "1", "0.5", "1e3", "1e-300", "-1", "-0", "nan", "inf", "x", ""],
    "--axis-tol": ["0", "2", "45", "60", "180", "720", "-5", "nan", "1e400", "x"],
    "--inset": ["0", "0.25", "1", "3.5", "1e6", "1e300", "-1", "nan", "inf", "x"],
    "--max-parts": ["1", "2", "100", "0", "-1", "1.5", "x", str(2**64)],
    "--seed": ["0", "1", "7", str(2**64 - 1), str(2**64), str(2**70), "-1", "x"],
    "--format": ["json", "csv", "text", "xml"],
}
_COUNT_VALUES = ["0", "1", "3", "-1", "x", ""]


@st.composite
def _fuzzed_flag_call(draw):
    """One CLI call: a command over a mutated program, LDraw file or graph
    JSON (the inputs of the fuzzes above), with some of the numeric and
    format flags drawn from ``_FLAG_VALUES``, maybe --strict and
    --no-collision, and --count for sample. Returns (argv, input name, data)."""
    kind = draw(st.sampled_from(["program", "ldraw", "graph"]))
    if kind == "program":
        command = draw(st.sampled_from(["check", "eval", "execute"]))
        name, data = "flags.bseq", draw(_mutated_programs()).encode()
    elif kind == "ldraw":
        command = draw(st.sampled_from(["parse", "graph", "sample", "serialize", "stats"]))
        name, data = "flags.ldr", draw(_mutated_ldraw())
    else:
        command = draw(st.sampled_from(["sample", "serialize", "stats"]))
        name, data = "flags.json", draw(_mutated_json(_GRAPH_BASES)).encode()
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), unique=True, max_size=4)):
        argv.append(f"{flag}={draw(st.sampled_from(_FLAG_VALUES[flag]))}")
    argv += [flag for flag in ("--strict", "--no-collision") if draw(st.booleans())]
    argv += [command, name]
    if command == "sample" and draw(st.booleans()):
        argv.append(f"--count={draw(st.sampled_from(_COUNT_VALUES))}")
    return argv, name, data


@settings(max_examples=120, deadline=None)
@given(call=_fuzzed_flag_call())
def test_fuzzed_flags_with_fuzzed_inputs_keep_the_exit_code_contract(workdir, call):
    """Every call through one process's ``main`` exits 0-4 (argparse's exit
    through SystemExit included) with at most one error line, no traceback
    and no warning."""
    argv, name, data = call
    path = workdir / name
    path.write_bytes(data)
    argv = [str(path) if a == name else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(["--catalog", str(workdir / "catalog.json"), *argv])
        except SystemExit as exc:  # argparse reports a bad flag with exit 2
            code = exc.code
    assert 0 <= code <= 4
    assert "Traceback" not in err.getvalue()
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1


# ---------------------------------------------------------------------------
# Output bytes under another BLAS kernel

_CHILD_CALLS = """
import contextlib, hashlib, io, json, sys
from brickir.catalog import Catalog
from brickir.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    print(code, out.getvalue())
print(hashlib.sha256(Catalog.load(sys.argv[2]).dumps().encode()).hexdigest())
"""


def _turned_stud_library(root: Path) -> Path:
    """A library whose one part places a 16-segment stud cylinder turned
    about y by 36, 17 and 71 degrees: its mesh vertices are products of
    irrational rows and coordinates."""
    (root / "p").mkdir(parents=True)
    (root / "parts").mkdir()
    ring = [(6.0 * math.cos(math.pi * k / 8), 6.0 * math.sin(math.pi * k / 8)) for k in range(16)]
    quads = [f"4 16 {x0!r} 0 {z0!r} {x1!r} 0 {z1!r} {x1!r} -4 {z1!r} {x0!r} -4 {z0!r}"
             for (x0, z0), (x1, z1) in zip(ring, ring[1:] + ring[:1])]
    (root / "p" / "stud.dat").write_text("0 Stud\n" + "\n".join(quads) + "\n")
    refs = []
    for x, degrees in ((-20, 36.0), (0, 17.0), (20, 71.0)):
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        refs.append(f"1 16 {x} 0 0 {c!r} 0 {s!r} 0 1 0 {-s!r} 0 {c!r} stud.dat")
    (root / "parts" / "3024.dat").write_text("0 Turned Studs\n" + "\n".join(refs) + "\n")
    return root


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="Prescott is an x86-64 OpenBLAS core type")
def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # execute, check and sample in child processes, one under OpenBLAS's
    # Prescott kernels (SSE3, no fused multiply-add) and one under the
    # machine's default, print the same bytes, and scan a library with
    # turned stud references into the same catalog JSON
    (tmp_path / "catalog.json").write_text(CAT.dumps())
    _turned_stud_library(tmp_path / "lib")
    rng = np.random.default_rng(20261021)
    calls = []
    for i in range(3):
        path = generate_random_path(CAT, rng, 30)
        (tmp_path / f"p{i}.bseq").write_text(serialize(path, CAT))
        (tmp_path / f"g{i}.json").write_text(path.graph.dumps())
        calls.append(["execute", f"p{i}.bseq"])
    calls.append(["check", "p0.bseq", "p1.bseq", "p2.bseq"])
    calls.append(["--seed", "3", "sample", "g0.json", "g1.json", "g2.json", "--count", "6"])
    argv = json.dumps([["--catalog", "catalog.json", *call] for call in calls])
    src = str(Path(brickir.__file__).resolve().parents[1])
    outputs = []
    for coretype in ("Prescott", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        done = subprocess.run([sys.executable, "-c", _CHILD_CALLS, argv, "lib"], cwd=tmp_path,
                              env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b'"rot"') == 90  # the poses of 90 placements were compared
