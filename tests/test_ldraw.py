import numpy as np
import pytest

from brickir.connectors import annotate_part
from brickir.errors import LdrawParseError
from brickir.ldraw import (
    extract_triangles,
    iter_lines,
    parse_structure,
    part_description,
    scan_primitives,
)

from conftest import OVERFLOWING_MPDS, instances_to_ldr

PARTS = {"3001", "3023"}

IDENTITY = "1 0 0 0 1 0 0 0 1"


def test_parse_single_type1_line():
    text = "1 4 0 -24 0 1 0 0 0 1 0 0 0 1 3001.dat\n"
    (inst,) = parse_structure(text, PARTS)
    assert inst.part_id == "3001"
    assert inst.color == 4
    assert np.allclose(inst.pose.translation, [0, -24, 0])
    assert np.allclose(inst.pose.rotation, np.eye(3))
    assert not inst.nonrigid


def test_parse_empty_file():
    assert parse_structure("", PARTS) == []
    assert parse_structure("0 just a comment\n", PARTS) == []


def test_mpd_flatten_matches_manual_composition():
    text = (
        "0 FILE main.ldr\n"
        f"1 4 10 0 0 0 -1 0 1 0 0 0 0 1 sub.ldr\n"
        "0 NOFILE\n"
        "0 FILE sub.ldr\n"
        f"1 14 5 0 0 {IDENTITY} 3001.dat\n"
        "0 NOFILE\n"
    )
    (inst,) = parse_structure(text, PARTS)
    outer_r = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    outer_t = np.array([10.0, 0.0, 0.0])
    expected_t = outer_r @ np.array([5.0, 0.0, 0.0]) + outer_t
    assert np.allclose(inst.pose.translation, expected_t)
    assert np.allclose(inst.pose.rotation, outer_r)


def test_mpd_submodel_referenced_twice_expands_per_reference_path():
    text = (
        "0 FILE main.ldr\n"
        f"1 4 0 0 0 {IDENTITY} sub.ldr\n"
        f"1 2 0 -16 0 {IDENTITY} sub.ldr\n"
        "0 NOFILE\n"
        "0 FILE sub.ldr\n"
        f"1 14 0 0 0 {IDENTITY} 3023.dat\n"
        f"1 14 0 -8 0 {IDENTITY} 3023.dat\n"
        "0 NOFILE\n"
    )
    instances = parse_structure(text, PARTS)
    assert len(instances) == 4
    assert [i.node_id for i in instances] == [0, 1, 2, 3]
    ys = sorted(i.pose.translation[1] for i in instances)
    assert ys == [-24.0, -16.0, -8.0, 0.0]


def test_malformed_type1_line_strict_vs_lenient():
    text = "1 4 0 0 0 1 0 0 0 1 3001.dat\n"  # too few matrix fields
    with pytest.raises(LdrawParseError) as err:
        parse_structure(text, PARTS, strict=True)
    assert "line 1" in str(err.value)
    warnings = []
    assert parse_structure(text, PARTS, warnings=warnings) == []
    assert any("line 1" in w for w in warnings)


def test_unresolvable_subfile_lists_missing_name():
    text = f"1 4 0 0 0 {IDENTITY} nosuchpart.dat\n"
    with pytest.raises(LdrawParseError, match="nosuchpart"):
        parse_structure(text, PARTS, strict=True)
    warnings = []
    assert parse_structure(text, PARTS, warnings=warnings) == []
    assert any("nosuchpart" in w for w in warnings)


def test_scaled_and_reflected_matrices_flagged_nonrigid():
    scaled = "1 4 0 0 0 2 0 0 0 2 0 0 0 2 3001.dat\n"
    (inst,) = parse_structure(scaled, PARTS)
    assert inst.nonrigid
    mirrored = "1 4 0 0 0 -1 0 0 0 1 0 0 0 1 3001.dat\n"
    (inst,) = parse_structure(mirrored, PARTS)
    assert inst.nonrigid
    # raw fields survive for lossless round-tripping
    assert inst.raw[3] == -1.0


def test_reserialize_reparse_is_lossless():
    text = (
        f"1 4 0.25 -24 0 1 0 0 0 1 0 0 0 1 3001.dat\n"
        "1 2 10 0 0 0.70710678 0 0.70710678 0 1 0 -0.70710678 0 0.70710678 3023.dat\n"
        "1 4 0 0 0 2 0 0 0 2 0 0 0 2 3001.dat\n"
    )
    first = parse_structure(text, PARTS)
    second = parse_structure(instances_to_ldr(first), PARTS)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.part_id == b.part_id
        assert a.color == b.color
        assert a.raw == b.raw
        assert a.nonrigid == b.nonrigid
        assert a.pose.is_close(b.pose, tol=0.0)  # bitwise


# ---------------------------------------------------------------------------
# Part-definition scanning

STUD = "0 stud primitive\n"
BOX = (
    "0 box face\n"
    "4 16 -10 0 -10 -10 0 10 10 0 10 10 0 -10\n"
)
TWOSTUD = (
    "0 twostud subpart\n"
    f"1 16 -5 0 0 {IDENTITY} stud.dat\n"
    f"1 16 5 0 0 {IDENTITY} stud.dat\n"
)

LIBRARY = {"stud.dat": STUD, "box.dat": BOX, "twostud.dat": TWOSTUD}


def test_scan_direct_stud_reference():
    part = (
        "0 Test Part\n"
        f"1 16 0 0 0 {IDENTITY} box.dat\n"
        f"1 16 0 -4 0 {IDENTITY} stud.dat\n"
    )
    (ref,) = scan_primitives(part, LIBRARY)
    assert ref.primitive_name == "stud.dat"
    assert np.allclose(ref.transform.translation, [0, -4, 0])
    assert np.allclose(ref.scale, [1, 1, 1])


def test_scan_part_without_connector_primitives():
    part = f"0 Plain\n1 16 0 0 0 {IDENTITY} box.dat\n"
    assert scan_primitives(part, LIBRARY) == []


def test_scan_nested_subpart_counts_flattened_references():
    part = (
        "0 Four Studs\n"
        f"1 16 0 0 0 {IDENTITY} twostud.dat\n"
        f"1 16 0 0 20 {IDENTITY} twostud.dat\n"
    )
    refs = scan_primitives(part, LIBRARY)
    assert len(refs) == 4
    origins = sorted(tuple(r.transform.translation) for r in refs)
    assert origins == [(-5, 0, 0), (-5, 0, 20), (5, 0, 0), (5, 0, 20)]


def test_scan_rejects_scaled_stud_with_warning():
    part = "0 Scaled\n" "1 16 0 0 0 2 0 0 0 2 0 0 0 2 stud.dat\n"
    warnings = []
    assert scan_primitives(part, LIBRARY, warnings=warnings) == []
    assert any("scale" in w for w in warnings)


def test_scan_accepts_axially_scaled_axle_and_records_length():
    part = "0 Axle Part\n" "1 16 0 0 0 1 0 0 0 3 0 0 0 1 axle.dat\n"
    (ref,) = scan_primitives(part, LIBRARY)
    assert ref.scale[1] == pytest.approx(3.0)
    (conn,) = annotate_part("axlepart", [ref])
    assert conn.subtype == "axle"
    assert conn.axle_length == pytest.approx(3.0)  # base length 1 x scale 3


def test_scan_detects_reference_cycle():
    lib = dict(LIBRARY)
    lib["a.dat"] = f"0 a\n1 16 0 0 0 {IDENTITY} b.dat\n"
    lib["b.dat"] = f"0 b\n1 16 0 0 0 {IDENTITY} a.dat\n"
    with pytest.raises(LdrawParseError, match="recursive"):
        scan_primitives(lib["a.dat"], lib)


def test_scan_depth_limit():
    lib = dict(LIBRARY)
    for i in range(70):
        lib[f"d{i}.dat"] = f"0 d{i}\n1 16 0 0 0 {IDENTITY} d{i + 1}.dat\n"
    lib["d70.dat"] = "0 bottom\n"
    with pytest.raises(LdrawParseError, match="deeper"):
        scan_primitives(lib["d0.dat"], lib)


def test_extract_triangles_splits_quads_and_handles_mirroring():
    verts, tris = extract_triangles(BOX, LIBRARY)
    assert len(tris) == 2  # one quad -> two triangles
    normal = np.cross(
        verts[tris[0][1]] - verts[tris[0][0]], verts[tris[0][2]] - verts[tris[0][0]]
    )
    part = "0 Mirrored\n" "1 16 0 0 0 -1 0 0 0 1 0 0 0 1 box.dat\n"
    mverts, mtris = extract_triangles(part, LIBRARY)
    mnormal = np.cross(
        mverts[mtris[0][1]] - mverts[mtris[0][0]], mverts[mtris[0][2]] - mverts[mtris[0][0]]
    )
    # winding flip keeps the outward direction consistent under reflection
    assert np.sign(normal[1]) == np.sign(mnormal[1])


def test_part_description_reads_first_comment():
    assert part_description("0 Brick 2 x 4\n3 16 0 0 0 1 1 1 2 2 2\n") == "Brick 2 x 4"


def test_mpd_nested_submodels_compose_three_levels():
    text = (
        "0 FILE top.ldr\n"
        f"1 4 100 0 0 {IDENTITY} mid.ldr\n"
        "0 NOFILE\n"
        "0 FILE mid.ldr\n"
        f"1 4 10 0 0 {IDENTITY} leaf.ldr\n"
        "0 NOFILE\n"
        "0 FILE leaf.ldr\n"
        f"1 14 1 2 3 {IDENTITY} 3001.dat\n"
        "0 NOFILE\n"
    )
    (inst,) = parse_structure(text, PARTS)
    assert np.allclose(inst.pose.translation, [111, 2, 3])


# ---------------------------------------------------------------------------
# Subfile walking shared by structures, primitive scans and part triangles


def _mpd(*files):
    return "".join(f"0 FILE {name}\n{body}0 NOFILE\n" for name, body in files)


@pytest.mark.parametrize(
    "text",
    [
        _mpd(
            ("main.ldr", f"1 4 0 0 0 {IDENTITY} a.ldr\n"),
            ("a.ldr", f"1 4 0 0 0 {IDENTITY} b.ldr\n"),
            ("b.ldr", f"1 4 0 0 0 {IDENTITY} a.ldr\n"),
        ),
        _mpd(("main.ldr", f"1 4 0 0 0 {IDENTITY} 3001.dat\n1 4 0 0 0 {IDENTITY} Main.ldr\n")),
    ],
    ids=["submodel-cycle", "main-references-itself"],
)
def test_parse_structure_detects_reference_cycle(text):
    with pytest.raises(LdrawParseError, match="recursive subfile reference '.*'"):
        parse_structure(text, PARTS)


def test_parse_structure_depth_limit():
    files = [(f"d{i}.ldr", f"1 4 0 0 0 {IDENTITY} d{i + 1}.ldr\n") for i in range(70)]
    text = _mpd(*files, ("d70.ldr", f"1 4 0 0 0 {IDENTITY} 3001.dat\n"))
    with pytest.raises(LdrawParseError, match="deeper"):
        parse_structure(text, PARTS)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", OVERFLOWING_MPDS)
def test_overflowing_composed_transform_raises_in_both_modes(name):
    for strict in (True, False):
        with pytest.raises(LdrawParseError, match="^line 1: non-finite composed transform$"):
            parse_structure(OVERFLOWING_MPDS[name], PARTS, strict=strict)


def test_extract_triangles_cycle_and_unresolvable_reference():
    lib = dict(LIBRARY)
    lib["a.dat"] = f"0 a\n1 16 0 0 0 {IDENTITY} b.dat\n"
    lib["b.dat"] = f"0 b\n1 16 0 0 0 {IDENTITY} a.dat\n"
    with pytest.raises(LdrawParseError, match="line 2: recursive subfile reference 'b.dat'"):
        extract_triangles(lib["a.dat"], lib)
    part = f"0 Ghost\n1 16 0 0 0 {IDENTITY} box.dat\n1 16 0 0 0 {IDENTITY} ghost.dat\n"
    warnings = []
    _, tris = extract_triangles(part, LIBRARY, warnings=warnings)
    assert len(tris) == 2
    assert warnings == ["line 3: unresolvable subfile 'ghost.dat'"]


def test_mpd_submodel_shadows_catalog_part_of_same_name():
    text = _mpd(
        ("main.ldr", f"1 4 10 0 0 {IDENTITY} 3001.dat\n"),
        ("3001.dat", f"1 14 0 -8 0 {IDENTITY} 3023.dat\n"),
    )
    (inst,) = parse_structure(text, PARTS)
    assert inst.part_id == "3023"
    assert inst.color == 14
    assert np.allclose(inst.pose.translation, [10, -8, 0])


def test_primitive_table_entry_shadows_library_file_of_same_name():
    lib = dict(LIBRARY)
    lib["stud.dat"] = f"0 stud body\n1 16 0 0 0 {IDENTITY} stud2.dat\n{BOX.splitlines()[1]}\n"
    part = f"0 One Stud\n1 16 0 -4 0 {IDENTITY} stud.dat\n"
    (ref,) = scan_primitives(part, lib)
    assert ref.primitive_name == "stud.dat"
    # triangle extraction has no primitive table: it expands the same file
    _, tris = extract_triangles(part, lib)
    assert len(tris) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "line", ["3 16 {} 0 0 1 0 0 0 0 1", "4 16 0 0 0 1 0 0 1 0 1 0 0 {}"]
)
def test_nonfinite_type3_4_number_raises_in_both_modes(line, bad):
    text = "0 Bad\n" + line.format(bad) + "\n"
    for strict in (True, False):
        with pytest.raises(LdrawParseError, match="line 2: non-finite number in type-[34] line"):
            list(iter_lines(text, strict=strict, warnings=[]))
    with pytest.raises(LdrawParseError, match="line 2"):
        extract_triangles(text, LIBRARY)


def test_non_numeric_type3_color_is_a_malformed_line():
    text = "0 Bad\n3 red 0 0 0 1 0 0 0 0 1\n"
    with pytest.raises(LdrawParseError, match="line 2: non-numeric field in type-3 line"):
        list(iter_lines(text, strict=True))
    warnings = []
    assert len(extract_triangles(text, LIBRARY, warnings=warnings)[1]) == 0
    assert warnings == ["line 2: skipped non-numeric type-3 line"]
