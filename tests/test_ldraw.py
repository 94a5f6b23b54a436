import numpy as np
import pytest

from brickir.connectors import annotate_part, default_primitive_table
from brickir.errors import LdrawParseError
from brickir.geometry import SCALE_TOL
from brickir.ldraw import parse_structure, part_description, read_lines, walk_part

from conftest import OVERFLOWING_MPDS, instances_to_ldr, random_rotation
from oracles import reference_is_rigid, reference_orthonormalize

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


def test_rotation_gate_matches_the_reference_projection_and_rigidity_test():
    """One SVD per placement gives the pose and the nonrigid flag: the same
    flags as the two-decomposition reference and byte-identical poses, over
    near-rotations and scaled, sheared, reflected and just-past-1e-3 ones."""
    rng = np.random.default_rng(20261019)
    matrices = []
    for _ in range(40):
        q = random_rotation(rng)
        matrices += [
            q,
            q + rng.standard_normal((3, 3)) * 1e-6,
            q * rng.uniform(0.5, 2.0),
            q @ np.diag(rng.uniform(0.95, 1.05, 3)),
            q @ (np.eye(3) + np.triu(rng.standard_normal((3, 3)), 1) * 0.1),
            q @ np.diag(rng.permutation([1.0, 1.0, -1.0])),
        ]
        for sign in (1.0, -1.0):
            for margin in (-1e-6, 1e-6):
                axis = rng.permutation([1.0 + sign * (SCALE_TOL + margin), 1.0, 1.0])
                matrices.append(q @ np.diag(axis) @ random_rotation(rng))
    text = "".join(
        f"1 4 1 2 3 {' '.join(f'{v:.17g}' for v in m.ravel())} 3001.dat\n" for m in matrices
    )
    instances = parse_structure(text, PARTS)
    assert len(instances) == len(matrices)
    flags = []
    for inst in instances:
        m = np.array(inst.raw[3:]).reshape(3, 3)
        assert inst.nonrigid == (not reference_is_rigid(m))
        assert np.array(inst.pose.rotation).tobytes() == reference_orthonormalize(m).tobytes()
        flags.append(inst.nonrigid)
    assert 0 < sum(flags) < len(flags)


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
        assert a.pose == b.pose  # exact


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
TABLE = default_primitive_table()


def walk_text(part, library=LIBRARY, warnings=None):
    """``walk_part`` of a part's text, with a library of texts."""
    records = {name: read_lines(text) for name, text in library.items()}
    return walk_part(read_lines(part), records, TABLE, warnings)


def primitive_refs(part, library=LIBRARY, warnings=None):
    return walk_text(part, library, warnings)[0]


def part_triangles(part, library=LIBRARY, warnings=None):
    return walk_text(part, library, warnings)[1]


def test_scan_direct_stud_reference():
    part = (
        "0 Test Part\n"
        f"1 16 0 0 0 {IDENTITY} box.dat\n"
        f"1 16 0 -4 0 {IDENTITY} stud.dat\n"
    )
    (ref,) = primitive_refs(part)
    name, number, rows, translation = ref
    assert (name, number, translation) == ("stud.dat", 3, (0.0, -4.0, 0.0))
    assert np.allclose(rows, np.eye(3))
    (conn,) = annotate_part("p", [ref])
    assert conn.subtype == "stud"
    assert conn.frame.origin == (0.0, -4.0, 0.0)


def test_scan_part_without_connector_primitives():
    part = f"0 Plain\n1 16 0 0 0 {IDENTITY} box.dat\n"
    assert primitive_refs(part) == []


def test_scan_nested_subpart_counts_flattened_references():
    part = (
        "0 Four Studs\n"
        f"1 16 0 0 0 {IDENTITY} twostud.dat\n"
        f"1 16 0 0 20 {IDENTITY} twostud.dat\n"
    )
    refs = primitive_refs(part)
    assert len(refs) == 4
    origins = sorted(translation for _, _, _, translation in refs)
    assert origins == [(-5, 0, 0), (-5, 0, 20), (5, 0, 0), (5, 0, 20)]
    assert len(annotate_part("p", refs)) == 4


def test_scan_rejects_scaled_stud_with_warning():
    part = "0 Scaled\n" "1 16 0 0 0 2 0 0 0 2 0 0 0 2 stud.dat\n"
    warnings = []
    refs = primitive_refs(part, warnings=warnings)
    assert len(refs) == 1 and warnings == []  # the walk takes it; the scale check does not
    assert annotate_part("p", refs, warnings) == ()
    assert warnings == [
        "line 2: stud.dat rejected by scale check (2.0, 2.0, 2.0) "
        "(review: possible non-connector use)"
    ]


def test_scan_accepts_axially_scaled_axle_and_records_length():
    library = dict(LIBRARY, **{"axle.dat": "0 axle\n"})
    part = "0 Axle Part\n" "1 16 0 0 0 1 0 0 0 3 0 0 0 1 axle.dat\n"
    (conn,) = annotate_part("axlepart", primitive_refs(part, library))
    assert conn.subtype == "axle"
    assert conn.axle_length == pytest.approx(3.0)  # base length 1 x scale 3
    # the axial mode frees only the principal axis (y): a scale along x fails
    warnings = []
    part = "0 Wide Axle\n" "1 16 0 0 0 2 0 0 0 3 0 0 0 1 axle.dat\n"
    assert annotate_part("axlepart", primitive_refs(part, library), warnings) == ()
    assert warnings == ["line 2: axle.dat rejected by scale check (2.0, 3.0, 1.0) "
                        "(review: possible non-connector use)"]


def test_scan_detects_reference_cycle():
    lib = dict(LIBRARY)
    lib["a.dat"] = f"0 a\n1 16 0 0 0 {IDENTITY} b.dat\n"
    lib["b.dat"] = f"0 b\n1 16 0 0 0 {IDENTITY} a.dat\n"
    with pytest.raises(LdrawParseError, match="recursive"):
        walk_text(lib["a.dat"], lib)
    # inside a primitive too: the walk expands it for its triangles
    lib["stud.dat"] = f"0 stud\n1 16 0 0 0 {IDENTITY} a.dat\n"
    with pytest.raises(LdrawParseError, match="line 2: recursive subfile reference 'a.dat'"):
        walk_text(f"0 p\n1 16 0 0 0 {IDENTITY} stud.dat\n", lib)


def test_scan_depth_limit():
    lib = dict(LIBRARY)
    for i in range(70):
        lib[f"d{i}.dat"] = f"0 d{i}\n1 16 0 0 0 {IDENTITY} d{i + 1}.dat\n"
    lib["d70.dat"] = "0 bottom\n"
    with pytest.raises(LdrawParseError, match="deeper"):
        walk_text(lib["d0.dat"], lib)
    lib["stud.dat"] = f"0 stud\n1 16 0 0 0 {IDENTITY} d0.dat\n"  # inside a primitive
    with pytest.raises(LdrawParseError, match="deeper"):
        walk_text(f"0 p\n1 16 0 0 0 {IDENTITY} stud.dat\n", lib)


def test_walk_part_raises_the_first_error_in_walk_order():
    # a cycle inside the primitive on line 2 comes before the non-finite
    # number on line 3
    lib = dict(LIBRARY, **{"stud.dat": f"0 stud\n1 16 0 0 0 {IDENTITY} stud.dat\n"})
    part = f"0 p\n1 16 0 0 0 {IDENTITY} stud.dat\n3 16 nan 0 0 1 0 0 0 0 1\n"
    with pytest.raises(LdrawParseError, match="^line 2: recursive subfile reference 'stud.dat'$"):
        walk_text(part, lib)
    part = f"0 p\n3 16 nan 0 0 1 0 0 0 0 1\n1 16 0 0 0 {IDENTITY} stud.dat\n"
    with pytest.raises(LdrawParseError, match="^line 2: non-finite number in type-3 line$"):
        walk_text(part, lib)


def test_extract_triangles_splits_quads_and_handles_mirroring():
    verts, tris = part_triangles(BOX)
    assert len(tris) == 2  # one quad -> two triangles
    normal = np.cross(
        verts[tris[0][1]] - verts[tris[0][0]], verts[tris[0][2]] - verts[tris[0][0]]
    )
    part = "0 Mirrored\n" "1 16 0 0 0 -1 0 0 0 1 0 0 0 1 box.dat\n"
    mverts, mtris = part_triangles(part)
    mnormal = np.cross(
        mverts[mtris[0][1]] - mverts[mtris[0][0]], mverts[mtris[0][2]] - mverts[mtris[0][0]]
    )
    # winding flip keeps the outward direction consistent under reflection
    assert np.sign(normal[1]) == np.sign(mnormal[1])
    # under any placement m the face's winding normal points along the
    # transformed normal m^-T n: flipped exactly where det m < 0 (a mirror
    # in the face's own axis, two mirrors through a subfile, scaled mirrors)
    library = dict(LIBRARY, **{"mx.dat": "0 mirror\n1 16 0 0 0 -1 0 0 0 1 0 0 0 1 box.dat\n"})
    for rows, ref in [
        ("-1 0 0 0 1 0 0 0 1", "box.dat"),
        ("1 0 0 0 -1 0 0 0 1", "box.dat"),
        ("1 0 0 0 1 0 0 0 -1", "mx.dat"),  # two mirrors: no flip
        ("1 0 0 0 1 0 0 0 1", "mx.dat"),
        ("-2 0 0 0 3 0 0 0 0.5", "box.dat"),
        ("0 -2 0 3 0 0 0 0 -0.5", "box.dat"),
        ("0 2 0 3 0 0 0 0 0.5", "box.dat"),
    ]:
        m = np.array(rows.split(), dtype=float).reshape(3, 3)
        if ref == "mx.dat":
            m = m @ np.diag([-1.0, 1.0, 1.0])
        part = f"0 Placed\n1 16 0 0 0 {rows} {ref}\n"
        pverts, ptris = part_triangles(part, library)
        for tri in ptris:
            pnormal = np.cross(pverts[tri[1]] - pverts[tri[0]], pverts[tri[2]] - pverts[tri[0]])
            assert pnormal @ (np.linalg.inv(m).T @ normal) > 0, (rows, ref)


def test_part_description_reads_first_comment():
    assert part_description(read_lines("0 Brick 2 x 4\n3 16 0 0 0 1 1 1 2 2 2\n")) == "Brick 2 x 4"


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
# Subfile walking shared by structures and library parts


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
        part_triangles(lib["a.dat"], lib)
    part = f"0 Ghost\n1 16 0 0 0 {IDENTITY} box.dat\n1 16 0 0 0 {IDENTITY} ghost.dat\n"
    warnings = []
    _, tris = part_triangles(part, warnings=warnings)
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
    refs, (_, tris) = walk_text(part, lib)
    # one site: the stud2.dat inside the expanded stud.dat is not another
    assert [name for name, _, _, _ in refs] == ["stud.dat"]
    assert len(tris) == 2  # the triangles come from the same file


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "line", ["3 16 {} 0 0 1 0 0 0 0 1", "4 16 0 0 0 1 0 0 1 0 1 0 0 {}"]
)
def test_nonfinite_type3_4_number_raises_in_both_modes(line, bad):
    text = "0 Bad\n" + line.format(bad) + "\n"
    for strict in (True, False):
        with pytest.raises(LdrawParseError, match="line 2: non-finite number in type-[34] line"):
            raise read_lines(text, strict)[-1]  # the records end in the error
    with pytest.raises(LdrawParseError, match="line 2"):
        part_triangles(text)


def test_non_numeric_type3_color_is_a_malformed_line():
    text = "0 Bad\n3 red 0 0 0 1 0 0 0 0 1\n"
    with pytest.raises(LdrawParseError, match="line 2: non-numeric field in type-3 line"):
        raise read_lines(text, strict=True)[-1]
    warnings = []
    assert len(part_triangles(text, warnings=warnings)[1]) == 0
    assert warnings == ["line 2: skipped non-numeric type-3 line"]


# ---------------------------------------------------------------------------
# Records: each file is read once, and every walk replays its records


def test_read_lines_records_warnings_in_line_order_and_ends_at_the_error():
    text = "0 Part\n7 16\n3 16 0 0 0 1 0 0 0 0 1\n3 16 0 0\n3 16 nan 0 0 1 0 0 0 0 1\n0 unread\n"
    lenient = read_lines(text)
    assert [r.line_type for r in lenient[0:3:2]] == [0, 3]
    assert lenient[1] == "line 2: skipped unknown line type 7"
    assert lenient[3] == "line 4: skipped short type-3 line"
    assert str(lenient[4]) == "line 5: non-finite number in type-3 line"
    assert len(lenient) == 5  # nothing after the error
    strict = read_lines(text, strict=True)
    assert strict[:3] == lenient[:3] and len(strict) == 4
    assert str(strict[3]) == "line 4: type-3 line too short"


def test_primitive_warning_reaches_every_reference_in_walk_order():
    library = dict(LIBRARY, **{"stud.dat": "0 stud\n7 16 junk\n"})
    part = f"0 p\n1 16 0 0 0 {IDENTITY} stud.dat\n9 16\n1 16 0 -4 0 {IDENTITY} twostud.dat\n"
    warnings = []
    assert len(primitive_refs(part, library, warnings)) == 3
    assert warnings == [
        "line 2: skipped unknown line type 7",
        "line 3: skipped unknown line type 9",
        "line 2: skipped unknown line type 7",
        "line 2: skipped unknown line type 7",
    ]


@pytest.mark.parametrize("strict", [False, True])
def test_error_in_an_unreferenced_submodel_is_never_raised(strict):
    text = _mpd(
        ("main.ldr", f"1 4 0 0 0 {IDENTITY} 3001.dat\n"),
        ("unused.ldr", "1 4 0 0 0 1 0 0 0 1 3001.dat\n3 16 nan 0 0 1 0 0 0 0 1\n"),
        ("short.ldr", "3 16 0 0\n"),
    )
    warnings = []
    (inst,) = parse_structure(text, PARTS, strict=strict, warnings=warnings)
    assert inst.part_id == "3001" and warnings == []


def test_parse_structure_raises_the_first_error_in_walk_order():
    loop = f"1 4 0 0 0 {IDENTITY} main.ldr\n"
    malformed = "1 4 0 0 0 1 0 0 0 1 3001.dat\n"
    for body, message in [
        (loop + malformed, "^line 1: recursive subfile reference 'main.ldr'$"),
        (malformed + loop, "^line 1: type-1 line has 10 fields, expected 14$"),
    ]:
        with pytest.raises(LdrawParseError, match=message):
            parse_structure(_mpd(("main.ldr", body)), PARTS, strict=True)
