import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brickir
from brickir import program as program_module
from brickir.catalog import Catalog, PartDef
from brickir.collision import PartColliders
from brickir.connectors import AnnotatedConnector, ConnectorFamily, default_rules, letter_id
from brickir.demo import build_demo_catalog, generate_random_path
from brickir.errors import CatalogError, ProgramError
from brickir.geometry import ConnectorFrame, QuantizedParams, RigidTransform, compose
from brickir.graph import BuildPath, ConnEdge, ConnectivityGraph, PathStep
from brickir.ldraw import PartInstance
from brickir.program import (
    FAMILY_NAMES,
    execute,
    node_letters,
    parse_program,
    serialize,
    validate_prefix,
)

from conftest import (
    component,
    demo_ldr,
    max_abs_diff,
    render_program,
    rotation_angle_deg,
)
from oracles import (
    reference_parse_program,
    reference_placements,
    reference_validate_prefix,
    replay_path_poses,
)

CAT = build_demo_catalog()


def _frame(origin, axis=(0, -1, 0), ref=(1, 0, 0)):
    return ConnectorFrame(np.array(origin, float), np.array(axis, float), np.array(ref, float))


def _single_part_path(part_id="3023", color=22):
    nodes = {0: PartInstance(0, part_id, color, RigidTransform.identity())}
    g = ConnectivityGraph(nodes, [])
    return BuildPath(0, [], graph=g)


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_root_only_line():
    text = serialize(_single_part_path(), CAT)
    assert text == "a plate 1x2 | purple\n"


def test_serialize_canonical_sample_lines():
    # craft a catalog whose 'brick 1x2' exposes studs only, so its second
    # connector (index b) is the stud used in the sample sequence
    parts = dict(CAT.parts)
    parts["b12"] = PartDef(
        "b12",
        "brick 1x2",
        (
            AnnotatedConnector("a", ConnectorFamily.STUD, "stud", _frame((-10, 0, 0))),
            AnnotatedConnector("b", ConnectorFamily.STUD, "stud", _frame((10, 0, 0))),
        ),
    )
    cat = Catalog(parts)
    nodes = {
        0: PartInstance(0, "3023", 22, RigidTransform.identity()),
        1: PartInstance(1, "b12", 22, RigidTransform.identity()),
    }
    edge = ConnEdge((0, "b"), (1, "b"), ConnectorFamily.STUD, QuantizedParams(yaw_deg=90))
    path = BuildPath(0, [PathStep(1, edge)], graph=ConnectivityGraph(nodes, [edge]))
    text = serialize(path, cat)
    assert text.splitlines() == [
        "a plate 1x2 | purple",
        "b brick 1x2 | purple",
        "a stud hole b stud b 90",
    ]


def test_serialize_missing_color_name_errors():
    path = _single_part_path(color=999)
    with pytest.raises(CatalogError, match="999"):
        serialize(path, CAT)


def test_serialize_parse_render_byte_identical():
    rng = np.random.default_rng(11)
    for _ in range(10):
        path = generate_random_path(CAT, rng, 20)
        text = serialize(path, CAT)
        result = parse_program(text, CAT)
        assert result.error is None
        assert render_program(result.actions) == text


# ---------------------------------------------------------------------------
# Parsing


def test_parse_empty_program():
    result = parse_program("", CAT)
    assert result.error is None
    assert result.actions == ()


VALID = (
    "a plate 1x2 | red\n"
    "b plate 1x2 | blue\n"
    "a stud stud a hole b 0\n"
    "c plate 1x2 | green\n"
    "b stud stud a hole b 0\n"
)


def test_parse_valid_program():
    result = parse_program(VALID, CAT)
    assert result.error is None
    assert len(result.actions) == 3


CORRUPTIONS = [
    # (replace line index, new line, expected code, expected surviving actions)
    (3, "c zzz nonexistent | green", "unknown-part", 2),
    (3, "c plate 1x2 | glittering", "unknown-color", 2),
    (3, "q plate 1x2 | green", "bad-node-id", 2),
    (3, "c | green", "malformed-line", 2),
    (4, "b weld stud a hole b 0", "unknown-family", 2),
    (4, "b stud pin a hole b 0", "unknown-subtype", 2),
    (4, "b stud stud a stud b 0", "incompatible-subtypes", 2),
    (4, "b stud stud a hole b x", "bad-params", 2),
    (4, "b stud stud a hole b", "bad-params", 2),
    (4, "b stud stud a hole b 0 7", "bad-params", 2),
    (4, "c stud stud a hole b 0", "self-attach", 2),
    (4, "q stud stud a hole b 0", "target-not-introduced", 2),
    (4, "b stud stud zz hole b 0", "unknown-connector", 2),
    (4, "b stud stud b hole b 0", "subtype-mismatch", 2),
    (2, "c plate 1x2 | green", "missing-attach", 1),
    (0, "a stud stud a hole b 0", "unexpected-attach", 0),
]


@pytest.mark.parametrize("line_idx,new_line,code,actions", CORRUPTIONS)
def test_parse_error_codes_and_prefix_lengths(line_idx, new_line, code, actions):
    lines = VALID.splitlines()
    lines[line_idx] = new_line
    text = "\n".join(lines) + "\n"
    result = parse_program(text, CAT)
    assert result.error is not None
    assert result.error.code == code
    assert result.error.line == line_idx + 1
    assert len(result.actions) == actions
    with pytest.raises(ProgramError):
        parse_program(text, CAT, strict=True)


def test_parse_attach_before_intro_prefix_is_empty():
    result = parse_program("a stud stud a hole b 0\n", CAT)
    assert result.error.code == "unexpected-attach"
    assert result.actions == ()


def test_parse_trailing_unattached_intro():
    text = "a plate 1x2 | red\nb plate 1x2 | blue\n"
    result = parse_program(text, CAT)
    assert result.error.code == "missing-attach"
    assert len(result.actions) == 1
    # reported like a missing attach found mid-text, in both modes
    message = "line 2: missing-attach: node 'b' was never attached"
    assert (result.error.line, result.error.message) == (2, message)
    with pytest.raises(ProgramError, match=f"^{message}$"):
        parse_program(text, CAT, strict=True)


# ---------------------------------------------------------------------------
# Execution


def test_execute_single_part_identity():
    poses = execute("a plate 1x2 | red\n", CAT)
    assert set(poses) == {"a"}
    assert poses["a"] == RigidTransform.identity()


def _chain_catalog():
    # a link with fixed 'in' at the origin and fixed 'on' 10 LDU along +z:
    # chaining k links shifts exactly (0, 0, 10k)
    link = PartDef(
        "link",
        "chain link",
        (
            AnnotatedConnector(
                "a", ConnectorFamily.FIXED, "in", _frame((0, 0, 0), axis=(0, 0, 1))
            ),
            AnnotatedConnector(
                "b", ConnectorFamily.FIXED, "on", _frame((0, 0, 10), axis=(0, 0, 1))
            ),
        ),
    )
    return Catalog({"link": link})


def test_execute_fixed_chain_closed_form():
    cat = _chain_catalog()
    k = 12
    lines = ["a chain link | red"]
    for i in range(1, k):
        prev = chr(ord("a") + i - 1)
        cur = chr(ord("a") + i)
        lines.append(f"{cur} chain link | red")
        lines.append(f"{prev} fixed on b in a")
    text = "\n".join(lines) + "\n"
    result = parse_program(text, cat)
    assert result.error is None
    poses = execute(text, cat)
    for i in range(k):
        assert poses[chr(ord("a") + i)] == RigidTransform(np.eye(3), (0.0, 0.0, 10.0 * i))


def test_execute_connector_occupied():
    text = (
        "a plate 1x2 | red\n"
        "b plate 1x2 | blue\n"
        "a stud stud a hole b 0\n"
        "c plate 1x2 | green\n"
        "a stud stud a hole b 0\n"
    )
    result = parse_program(text, CAT)
    assert result.error is None  # structurally fine; occupancy is execution-time
    with pytest.raises(ProgramError, match="connector-occupied"):
        execute(text, CAT)


def test_execute_deterministic_bitwise():
    rng = np.random.default_rng(21)
    path = generate_random_path(CAT, rng, 25)
    text = serialize(path, CAT)
    p1 = execute(text, CAT)
    p2 = execute(text, CAT)
    assert p1 == p2


def test_execute_matches_oracle_replay_all_families():
    # the demo generator and the executor share one placement kernel, so
    # every executed pose is checked against the independent replay
    rng = np.random.default_rng(515)
    families = set()
    for _ in range(60):
        path = generate_random_path(CAT, rng, int(rng.integers(10, 60)))
        families |= {s.edge.family for s in path.steps}
        poses = execute(serialize(path, CAT), CAT)
        replayed = replay_path_poses(path, CAT)
        root_pose = path.graph.nodes[path.root].pose
        for nid, letter in node_letters(path).items():
            got = compose(root_pose, poses[letter])
            assert np.abs(got.rotation - replayed[nid][:3, :3]).max() <= 1e-9
            assert np.abs(got.translation - replayed[nid][:3, 3]).max() <= 1e-9
    assert families == set(ConnectorFamily)


def test_roundtrip_exact_both_directions_on_grid_edges():
    # stud/hinge/axle/fixed parameters reverse exactly on the integer grid, so
    # paths from several roots rebuild every pose of a matched graph whose
    # edges are the generator's. Ball edges re-quantize when reversed, and
    # contacts the matcher finds between parts the generator did not join
    # lie off the grid in either direction: graphs with either are left out.
    rng = np.random.default_rng(808)
    reversed_families = set()
    checked = 0
    for _ in range(60):
        demo = generate_random_path(CAT, rng, int(rng.integers(8, 40)))
        g = brickir.match_connectors(list(demo.graph.nodes.values()), CAT)
        ends = {frozenset((e.a, e.b)) for e in g.edges}
        if any(e.family == ConnectorFamily.BALL for e in g.edges) or ends != {
            frozenset((e.a, e.b)) for e in demo.graph.edges
        }:
            continue
        checked += 1
        for root in rng.choice(sorted(g.nodes), size=3, replace=False):
            path = brickir.sample_path(g, root=int(root), rng=rng)
            for step in path.steps:
                if step.edge.a[0] == step.new_node:
                    reversed_families.add(step.edge.family)
            poses = execute(serialize(path, CAT), CAT)
            root_pose = g.nodes[path.root].pose
            for nid, letter in node_letters(path).items():
                got = compose(root_pose, poses[letter])
                assert max_abs_diff(got, g.nodes[nid].pose) <= 1e-9
    assert checked >= 20
    assert reversed_families == set(ConnectorFamily) - {ConnectorFamily.BALL}


def test_roundtrip_geometry_via_matched_graph():
    insts = brickir.parse_structure(demo_ldr("stack4"), CAT)
    g = brickir.match_connectors(insts, CAT)
    path = brickir.sample_path(g, root=0, seed=5)
    text = serialize(path, CAT)
    poses = execute(text, CAT)
    letters = node_letters(path)
    root_pose = g.nodes[path.root].pose
    for nid, letter in letters.items():
        reconstructed = compose(root_pose, poses[letter])
        assert max_abs_diff(reconstructed, g.nodes[nid].pose) <= 1e-9


def test_roundtrip_bound_over_mixed_corpus():
    # every component of the all-families structure round-trips within the
    # quantization bound: 0.5 deg rotation per tree depth, plus the matching
    # positional leverage it implies (reversed ball edges re-quantize)
    insts = brickir.parse_structure(demo_ldr("mixed"), CAT)
    g = brickir.match_connectors(insts, CAT)
    seen = set()
    for root in sorted(g.nodes):
        if root in seen:
            continue
        comp = component(g, root)
        seen |= comp
        for seed in range(4):
            path = brickir.sample_path(g, root=root, seed=seed)
            text = serialize(path, CAT)
            result = parse_program(text, CAT)
            assert result.error is None
            poses = execute(text, CAT)
            letters = node_letters(path)
            depth = {path.root: 0}
            for step in path.steps:
                target, _ = step.edge.other_end(step.new_node)
                depth[step.new_node] = depth[target] + 1
            root_pose = g.nodes[path.root].pose
            radius = 60.0  # generous bound on part bounding radii (LDU)
            for nid, letter in letters.items():
                src = g.nodes[nid].pose
                got = compose(root_pose, poses[letter])
                rot_err = rotation_angle_deg(got, src)
                assert rot_err <= 0.5 * max(depth[nid], 1) + 1e-9
                trans_bound = 0.5 + depth[nid] * radius * np.radians(0.5)
                assert np.abs(np.subtract(got.translation, src.translation)).max() <= trans_bound


# ---------------------------------------------------------------------------
# Prefix validation

TEN_VALID = (
    "a plate 1x2 | red\n"
    "b plate 1x2 | blue\n"
    "a stud stud a hole b 0\n"
    "c plate 1x2 | green\n"
    "b stud stud a hole b 0\n"
    "d plate 1x2 | yellow\n"
    "c stud stud a hole b 0\n"
    "e plate 1x2 | red\n"
    "d stud stud a hole b 0\n"
    "f plate 1x2 | blue\n"
    "e stud stud a hole b 0\n"
    "g plate 1x2 | green\n"
    "f stud stud a hole b 0\n"
    "h plate 1x2 | yellow\n"
    "g stud stud a hole b 0\n"
    "i plate 1x2 | red\n"
    "h stud stud a hole b 0\n"
    "j plate 1x2 | blue\n"
    "i stud stud a hole b 0\n"
)


def test_validate_fully_valid_ten_part_program():
    checker = PartColliders.from_catalog(CAT, inset=0.25)
    report = validate_prefix(TEN_VALID, CAT, checker)
    assert (report.connectivity_steps, report.collision_steps) == (10, 10)
    assert report.first_error is None


def test_validate_collision_at_fourth_placement():
    # action 4 hangs a brick off the side at the root's level: connectivity
    # stays valid for all 10 actions but placements collide from action 4 on
    lines = TEN_VALID.splitlines()
    lines[5] = "d brick 1x2 | yellow"
    lines[6] = "b stud hole d stud a 0"
    lines[8] = "c stud stud a hole b 0"  # re-hang the tower on c
    text = "\n".join(lines) + "\n"
    checker = PartColliders.from_catalog(CAT, inset=0.25)
    report = validate_prefix(text, CAT, checker)
    assert report.connectivity_steps == 10
    assert report.collision_steps == 3
    assert report.first_error.code == "collision"
    assert report.first_error.line == 6


def test_validate_garbage_at_step_seven():
    lines = TEN_VALID.splitlines()
    lines[12] = "!! garbage tokens here"
    text = "\n".join(lines) + "\n"
    report = validate_prefix(text, CAT, part_meshes=None)
    assert report.connectivity_steps == 6
    assert report.collision_steps <= 6
    assert report.first_error is not None
    assert report.first_error.line == 13


def test_validate_monotone_in_prefix_length():
    lines = TEN_VALID.splitlines()
    checker = PartColliders.from_catalog(CAT, inset=0.25)
    last = (0, 0)
    for upto in range(1, len(lines) + 1, 2):
        report = validate_prefix("\n".join(lines[:upto]) + "\n", CAT, checker)
        assert report.connectivity_steps >= last[0]
        assert report.collision_steps >= last[1]
        last = (report.connectivity_steps, report.collision_steps)
    full = validate_prefix(TEN_VALID, CAT, checker)
    assert last == (full.connectivity_steps, full.collision_steps)


def test_validate_connector_occupied_counts_prefix():
    text = (
        "a plate 1x2 | red\n"
        "b plate 1x2 | blue\n"
        "a stud stud a hole b 0\n"
        "c plate 1x2 | green\n"
        "a stud stud a hole b 0\n"
        "d plate 1x2 | yellow\n"
        "b stud stud a hole b 0\n"
    )
    report = validate_prefix(text, CAT)
    assert report.connectivity_steps == 2
    assert report.first_error.code == "connector-occupied"


def test_validity_report_json_shape():
    report = validate_prefix(TEN_VALID, CAT)
    obj = report.to_json_obj()
    assert set(obj) == {"connectivity_steps", "collision_steps", "first_error"}
    assert obj["first_error"] is None


def test_multi_attach_on_one_node():
    # the second attach re-binds the newest node: pose already fixed, the
    # extra connection only claims connectors (two-stud contact)
    text = (
        "a plate 1x2 | red\n"
        "b plate 1x2 | blue\n"
        "a stud stud a hole b 0\n"
        "a stud stud c hole d 0\n"
    )
    result = parse_program(text, CAT)
    assert result.error is None
    assert len(result.actions) == 2
    poses = execute(text, CAT)
    assert np.allclose(poses["b"].translation, [0, -8, 0])
    report = validate_prefix(text, CAT)
    assert report.connectivity_steps == 2


# ---------------------------------------------------------------------------
# Deferred poses: computed only where a collision check or execute reads them

MESHES = PartColliders.from_catalog(CAT, inset=0.25)


def _count_attach_poses(monkeypatch) -> list:
    """Record every ``attach_pose`` call the executor makes (the reference
    executor in oracles.py binds its own name and is not counted)."""
    calls = []
    real = program_module.attach_pose

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(program_module, "attach_pose", counting)
    return calls


def _demo_texts(seed: int, count: int, lo: int, hi: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        serialize(generate_random_path(CAT, rng, int(rng.integers(lo, hi))), CAT)
        for _ in range(count)
    ]


def test_poses_are_computed_only_up_to_the_first_collision(monkeypatch):
    calls = _count_attach_poses(monkeypatch)
    colliding = 0
    for text in [TEN_VALID] + _demo_texts(31, 16, 20, 60):
        actions = parse_program(text, CAT, strict=True).actions
        n = len(actions)
        expected = reference_validate_prefix(actions, CAT, MESHES)
        calls.clear()
        assert validate_prefix(text, CAT, MESHES) == expected
        if expected.first_error is None:
            assert len(calls) == n - 1
        else:
            # the first collision is at action k: the root is the identity,
            # actions 2..k are placed, and nothing after k
            assert expected.first_error.code == "collision"
            k = expected.collision_steps + 1
            assert k < n
            assert len(calls) == k - 1
            colliding += 1
        calls.clear()
        report = validate_prefix(text, CAT, part_meshes=None)
        assert (report.connectivity_steps, report.collision_steps) == (n, n)
        assert calls == []
        execute(text, CAT)
        assert len(calls) == n - 1
    assert colliding >= 8


def test_part_names_are_looked_up_by_the_parser_only(monkeypatch):
    # the parser resolves each distinct intro name once per call, in
    # first-seen order; the executor reads the part id it resolved
    calls = []
    real = Catalog.part_by_name

    def counting(self, name):
        calls.append(name)
        return real(self, name)

    monkeypatch.setattr(Catalog, "part_by_name", counting)
    reuse = TEN_VALID.replace("c stud stud a hole b 0\n", "a stud stud a hole b 0\n", 1)
    for text in [TEN_VALID, reuse] + _demo_texts(41, 6, 5, 40):
        intros = [line.split(" | ")[0].split(maxsplit=1)[1] for line in text.splitlines()
                  if " | " in line]
        for meshes in (MESHES, None):
            calls.clear()
            validate_prefix(text, CAT, meshes)
            assert calls == list(dict.fromkeys(intros))
        actions = parse_program(text, CAT).actions
        calls.clear()
        try:
            for _, place in program_module._placements(actions):
                place()
        except ProgramError:
            assert text is reuse
        assert calls == []
    assert validate_prefix(reuse, CAT).first_error.code == "connector-occupied"


_CORRUPTIONS = ("garbage", "bad-params", "unknown-part", "bad-target", "reuse", "drop-line")


def _corrupted(text: str, rng: np.random.Generator) -> str:
    """The program text with one line corrupted."""
    lines = text.splitlines()
    kind = _CORRUPTIONS[int(rng.integers(len(_CORRUPTIONS)))]
    i = int(rng.integers(1, len(lines)))
    tokens = lines[i].split()
    intro = " | " in lines[i]
    if kind == "garbage":
        lines[i] = "%% not a step %%"
    elif kind == "bad-params" and not intro:
        lines[i] = " ".join(tokens[:-1] + ["banana"])
    elif kind == "unknown-part" and intro:
        lines[i] = f"{tokens[0]} mystery widget | {lines[i].split(' | ')[1]}"
    elif kind == "bad-target" and not intro:
        lines[i] = " ".join(["zz"] + tokens[1:])
    elif kind == "reuse":
        attaches = [line for line in lines[:i] if " | " not in line]
        lines.insert(i, attaches[int(rng.integers(len(attaches)))] if attaches else lines[i])
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


def _lines(result) -> list[int]:
    """The line of every intro and attach of a parse result, in order."""
    return [step.line for intro, attaches in result.actions for step in (intro, *attaches)]


def _pose_bytes(poses) -> dict:
    return {
        n: (np.array(p.rotation).tobytes(), np.array(p.translation).tobytes())
        for n, p in poses.items()
    }


def test_deferred_poses_match_the_eager_executor():
    """Reports, poses and errors equal those of the eager executor (a verbatim
    copy in oracles.py) on seeded demo programs, 60% corrupted at one line."""
    rng = np.random.default_rng(909)
    texts = _demo_texts(910, 320, 5, 60)
    corrupted = set(rng.permutation(len(texts))[: round(0.6 * len(texts))].tolist())
    # a table without the plates: parts without a mesh are placed all the same
    partial = {pid: MESHES.get(pid) for pid in CAT.parts if pid not in ("3023", "3024")}
    colliding = 0
    for i, text in enumerate(texts):
        if i in corrupted:
            text = _corrupted(text, rng)
        for meshes in (MESHES, partial, None):
            got = validate_prefix(text, CAT, meshes).to_json_obj()
            assert got == reference_validate_prefix(text, CAT, meshes).to_json_obj()
            if meshes is MESHES:
                colliding += got["collision_steps"] < got["connectivity_steps"]
        result = parse_program(text, CAT)
        if result.error:
            # execute stops at the parse error; the valid prefix is then run
            # as a program of its own
            with pytest.raises(ProgramError) as raised:
                execute(text, CAT)
            assert (raised.value.code, raised.value.line) == (result.error.code, result.error.line)
            last = _lines(result)[-1] if result.actions else 0
            text = "".join(text.splitlines(keepends=True)[:last])
        actions = parse_program(text, CAT, strict=True).actions
        try:
            expected = {intro.node: pose for intro, _, pose in reference_placements(actions, CAT)}
        except ProgramError as exc:
            with pytest.raises(ProgramError) as raised:
                execute(text, CAT)
            assert (raised.value.code, raised.value.line) == (exc.code, exc.line)
        else:
            assert _pose_bytes(execute(text, CAT)) == _pose_bytes(expected)
    assert colliding >= 100


# ---------------------------------------------------------------------------
# The parser against the reference parser (tests/oracles.py)

_PARSE_BASES = _demo_texts(2027, 6, 2, 12) + _demo_texts(2028, 3, 27, 40)  # ids past 'z' too
_PART_NAMES = sorted(p.name for p in CAT.parts.values())
_SUBTYPES = sorted(default_rules().subtype_family) + ["pin2", "Stud"]
_PARAM_TOKENS = ["0", "90", "359", "360", "-90", "+45", "7", "x", "1.5", "flip", "٣",
                 str(2**52), str(-(2**52)), str(2**52 + 1), str(-(2**52) - 1), "1" * 5000]
_PARSER_CODES = {
    "missing-attach", "malformed-line", "bad-node-id", "unknown-part", "unknown-color",
    "unexpected-attach", "unknown-family", "unknown-subtype", "incompatible-subtypes",
    "bad-params", "self-attach", "target-not-introduced", "unknown-connector",
    "subtype-mismatch",
}


def _mutate_program(text: str, rnd: random.Random) -> str:
    """The program text with up to three edits of lines or tokens, each
    aimed at one parser rule, then maybe blank lines and CRLF endings."""
    lines = text.splitlines()
    for _ in range(rnd.randint(0, 3)):
        intros = [i for i, line in enumerate(lines) if " | " in line]
        attaches = [i for i, line in enumerate(lines) if line.strip() and " | " not in line]
        op = rnd.choice([
            "swap", "delete", "duplicate", "letter", "part", "color", "pipe", "family",
            "subtype", "wrong-family", "incompatible", "connector", "target", "self",
            "params", "flip", "attach-first", "unattached",
        ])
        if not lines:
            break
        i = rnd.randrange(len(lines))
        if op == "swap":
            k = rnd.randrange(len(lines))
            lines[i], lines[k] = lines[k], lines[i]
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "unattached":
            lines.append(f"{letter_id(len(intros))} {rnd.choice(_PART_NAMES)} | red")
        elif op in ("letter", "part", "color", "pipe"):
            if not intros:
                continue
            i = rnd.choice(intros)
            left, color = lines[i].split(" | ", 1)
            node, name = left.split(" ", 1)
            if op == "letter":
                node = rnd.choice(["a", "b", "z", "aa", "ab", "zz", "A", letter_id(len(intros))])
            elif op == "part":
                name = rnd.choice(_PART_NAMES + ["mystery widget", "PLATE 1x2", "plate  1x2"])
            elif op == "color":
                color = rnd.choice(["glittering", "RED", "Blue", "bright green", "red | blue"])
            pipe = rnd.choice(["|", " || ", " |  "]) if op == "pipe" else " | "
            lines[i] = f"{node} {name}{pipe}{color}"
        elif not attaches:
            continue
        else:
            i = rnd.choice(attaches)
            tokens = lines[i].split()
            if len(tokens) < 6:
                continue
            if op == "family":
                tokens[1] = rnd.choice(["weld", "STUD", *FAMILY_NAMES])
            elif op == "subtype":
                tokens[rnd.choice([2, 4])] = rnd.choice(_SUBTYPES)
            elif op == "wrong-family":  # a registered subtype of another family
                family = FAMILY_NAMES.get(tokens[1])
                tokens[rnd.choice([2, 4])] = rnd.choice(
                    [s for s, f in default_rules().subtype_family.items() if f != family])
            elif op == "incompatible":
                tokens[4] = tokens[2]
            elif op == "connector":
                tokens[rnd.choice([3, 5])] = rnd.choice(["a", "b", "c", "e", "j", "zz", "A"])
            elif op == "target":
                tokens[0] = rnd.choice(["a", "b", "c", "zz", "aa"])
            elif op == "self":  # the intro before the attach
                earlier = [k for k in intros if k < i]
                if earlier:
                    tokens[0] = lines[earlier[-1]].split()[0]
            elif op == "params":
                tokens[6:] = [rnd.choice(_PARAM_TOKENS) for _ in range(rnd.randint(0, 5))]
            elif op == "flip":
                tokens.insert(6, "flip")
            elif op == "attach-first":
                lines.insert(0, lines.pop(i))
                continue
            lines[i] = " ".join(tokens)
    for _ in range(rnd.randint(0, 2)):
        lines.insert(rnd.randint(0, len(lines)), rnd.choice(["", "   ", "\t"]))
    return rnd.choice(["\n", "\n", "\r\n"]).join(lines) + "\n"


def _strict_outcome(parse, text):
    """(code, line, text) of the ProgramError that strict mode raises, or
    the ParseResult it returns."""
    try:
        return parse(text, CAT, strict=True)
    except ProgramError as exc:
        return exc.code, exc.line, str(exc)


def _assert_parses_like_the_reference(text):
    got, want = parse_program(text, CAT), reference_parse_program(text, CAT)
    assert got == want
    # PartIntro and Attach leave their line out of ==
    assert _lines(got) == _lines(want)
    assert _strict_outcome(parse_program, text) == _strict_outcome(reference_parse_program, text)
    return got


def test_parser_matches_the_reference_on_seeded_mutations():
    # every parser rule fires at least once over the seeded mutations
    rnd = random.Random(20261020)
    codes = set()
    for k in range(1200):
        result = _assert_parses_like_the_reference(
            _mutate_program(_PARSE_BASES[k % len(_PARSE_BASES)], rnd))
        if result.error:
            codes.add(result.error.code)
    assert codes == _PARSER_CODES


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(_PARSE_BASES), rnd=st.randoms(use_true_random=False))
def test_parser_matches_the_reference_on_mutated_programs(base, rnd):
    _assert_parses_like_the_reference(_mutate_program(base, rnd))


def test_parser_shares_one_outcome_per_key_within_a_call():
    # a repeated param list gives one QuantizedParams object per call, and a
    # fresh call builds its own
    text = _PARSE_BASES[-1]
    first, second = parse_program(text, CAT), parse_program(text, CAT)
    params = {}
    attaches = [step for _, steps in first.actions for step in steps]
    for step in attaches:
        params.setdefault((step.family, step.params), step.params)
        assert step.params is params[(step.family, step.params)]
    assert len(params) < len(attaches)
    attach = second.actions[1][1][0]
    assert attach.params is not params[(attach.family, attach.params)]
