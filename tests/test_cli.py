import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brickir
from brickir.cli import main
from brickir.connectors import ConnectorFamily
from brickir.demo import build_demo_catalog, generate_random_path
from brickir.geometry import QuantizedParams, RigidTransform
from brickir.graph import ConnEdge, ConnectivityGraph, match_connectors
from brickir.ldraw import PartInstance, parse_structure
from brickir.program import serialize

from conftest import (
    OVERFLOWING_MPDS,
    catalog_obj_with_collapsing_mesh,
    count_inset_builds,
    demo_ldr,
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


def test_outputs_byte_identical_across_runs_and_jobs(workdir, capsys, tmp_path):
    seqdir = _write_eval_corpus(tmp_path)
    assert run(workdir, "--jobs", 1, "eval", seqdir) == 0
    first = capsys.readouterr().out
    assert run(workdir, "--jobs", 4, "eval", seqdir) == 0
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
_SLIDES_OUT_OF_RANGE = [10**400, -(10**400), 2**53 + 1]


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
], ids=["eval-empty-dir", "strict-eval-empty-dir", "sample-node-less", "strict-sample-node-less",
        "parse-matrix-overflow", "graph-translation-overflow"])
def test_degenerate_inputs_exit_with_one_error_line(workdir, tmp_path, argv, name, data, code,
                                                    message):
    target = tmp_path / name
    if data is None:
        target.mkdir()  # a directory without files
    else:
        target.write_text(data)
    got = _run_captured(workdir, *argv, target)
    assert got == (code, "", f"error: {message.format(target)}\n")


@pytest.mark.parametrize("slide", _SLIDES_OUT_OF_RANGE, ids=["1e400", "-1e400", "2**53+1"])
def test_slide_out_of_range_is_bad_params(workdir, tmp_path, slide):
    # a slide past 2**53 used to be accepted; past float range, float()
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
    assert err == "error: line 3: bad-params: slide out of range [-2**53, 2**53] LDU\n"


def test_slide_at_the_bound_is_accepted(workdir, tmp_path):
    prog = tmp_path / "slide.bseq"
    prog.write_text(AXLE_PROGRAM.format(-(2**53)))
    code, out, err = _run_captured(workdir, "execute", prog)
    assert (code, err) == (0, "")
    assert json.loads(out)["poses"]["b"]["t"][2] == pytest.approx(-(2.0**53), rel=1e-14)


def _axle_graph_json(slide_token: str) -> str:
    poses = brickir.execute(AXLE_PROGRAM.format(0), CAT)
    nodes = {i: PartInstance(i, pid, 4, poses[n]) for i, (n, pid) in enumerate(
        (("a", "3700"), ("b", "3673")))}
    edge = ConnEdge((0, "c"), (1, "a"), ConnectorFamily.AXLE, QuantizedParams())
    text = ConnectivityGraph(nodes, [edge]).dumps()
    assert text.count('"slide": 0') == 1
    return text.replace('"slide": 0', f'"slide": {slide_token}')


@pytest.mark.parametrize("slide", [str(s) for s in _SLIDES_OUT_OF_RANGE] + ["1e400"],
                         ids=["1e400", "-1e400", "2**53+1", "float-1e400"])
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
def test_jobs_2_builds_each_mesh_once(workdir, capsys, tmp_path, monkeypatch, command):
    builds = count_inset_builds(monkeypatch, delay=0.005)
    text = serialize(generate_random_path(CAT, np.random.default_rng(3), 12), CAT)
    files = []
    for k in range(6):  # the same program six times: both workers race for every part
        files.append(tmp_path / f"p{k}.bseq")
        files[-1].write_text(text)
    assert run(workdir, "--jobs", 2, command, *files) == 0
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
    (["--jobs", "0", "eval", "{prog}"], "argument --jobs: must be >= 1, got 0"),
    (["--jobs", "-3", "check", "{prog}"], "argument --jobs: must be >= 1, got -3"),
    (["sample", "{ldr}", "--count", "-1"], "argument --count: must be >= 0, got -1"),
    (["--seed", "-1", "serialize", "{ldr}"], "argument --seed: must be >= 0, got -1"),
    (["--axis-tol", "inf", "graph", "{ldr}"], "argument --axis-tol: must be finite, got inf"),
    (["--pos-tol", "nan", "graph", "{ldr}"], "argument --pos-tol: must be finite, got nan"),
    (["--inset", "nan", "eval", "{prog}"], "argument --inset: must be finite, got nan"),
    (["--inset=-inf", "check", "{prog}"], "argument --inset: must be finite, got -inf"),
    (["--pos-tol", "-1", "graph", "{ldr}"], "argument --pos-tol: must be >= 0, got -1.0"),
    (["--axis-tol", "-5", "graph", "{ldr}"], "argument --axis-tol: must be >= 0, got -5.0"),
    (["--inset", "-1", "check", "{prog}"], "argument --inset: must be >= 0, got -1.0"),
], ids=["max-parts-0", "jobs-0", "jobs-negative", "count-negative", "seed-negative",
        "axis-tol-inf", "pos-tol-nan", "inset-nan", "inset-minus-inf", "pos-tol-negative",
        "axis-tol-negative", "inset-negative"])
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


def _set_first_vertex(value):
    def edit(obj):
        obj["parts"]["3023"]["mesh"]["vertices"][0][0] = value
    return edit


# Inputs the fuzz tests above found. At the parent of this fix the two
# non-string cases raised tracebacks, the NaN vertex exited 0 with meshes
# that never collide, and the rest printed numpy overflow or cast warnings.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("catalog_edit, argv, name, data, code, message", [
    (None, ["sample"], "g.json", _graph_text(lambda o: o["nodes"][0]["pose"]["rot"].__setitem__(
        0, 1e308)), 0, None),
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
], ids=["graph-pose-overflow", "graph-part-not-a-string", "ldraw-translation-1e200",
        "catalog-axle-length-a", "catalog-axle-length-1e308", "catalog-axis-1e308",
        "catalog-vertex-1e308", "catalog-vertex-nan"])
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
