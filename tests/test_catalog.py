import dataclasses
import json

import numpy as np
import pytest

from brickir import ldraw
from brickir.catalog import (
    Catalog,
    PartDef,
    TriMesh,
    build_catalog_from_library,
    normalize_part_name,
)
from brickir.cli import main
from brickir.collision import PartColliders
from brickir.demo import build_demo_catalog
from brickir.errors import CatalogError
from brickir.geometry import RigidTransform

from conftest import has_connector

IDENTITY = "1 0 0 0 1 0 0 0 1"


def test_normalize_part_name():
    assert normalize_part_name("  Plate  1 x 2 ") == "plate 1 x 2"
    assert normalize_part_name("Weird|Name") == "weird name"


def test_catalog_json_roundtrip():
    cat = build_demo_catalog()
    text = cat.dumps()
    again = Catalog.from_json_obj(json.loads(text))
    assert again.dumps() == text
    part = again.part("3023")
    assert part.name == "plate 1x2"
    assert [c.index for c in part.connectors] == ["a", "b", "c", "d"]
    assert len(part.mesh) == 12
    assert again.color_name(4) == "red"
    assert again.colors[7] == "light grey"


def test_catalog_lookup_errors():
    cat = build_demo_catalog()
    with pytest.raises(CatalogError, match="nope"):
        cat.part("nope")
    with pytest.raises(CatalogError, match="9999"):
        cat.color_name(9999)
    with pytest.raises(CatalogError):
        cat.connector("3023", "zz")
    assert cat.part_by_name("  PLATE   1X2 ") is cat.part("3023")
    assert cat.part_by_name("missing thing") is None


def test_connector_lookups_match_a_linear_scan():
    # the index dict gives what scanning the connectors in order gave: the
    # connector object itself, first match wins, and the same error text
    cat = build_demo_catalog()
    letters = [chr(c) for c in range(ord("a"), ord("z") + 1)] + ["aa", "A", ""]
    for part in cat.parts.values():
        for index in letters:
            scan = next((c for c in part.connectors if c.index == index), None)
            assert has_connector(part, index) == (scan is not None)
            if scan is not None:
                assert part.connector(index) is scan
                continue
            with pytest.raises(CatalogError) as raised:
                part.connector(index)
            assert str(raised.value) == f"part {part.part_id!r} has no connector {index!r}"
    first, second = cat.part("3023").connectors[:2]
    twice = PartDef("twice", "twice", (first, dataclasses.replace(second, index=first.index)))
    assert twice.connector(first.index) is first


def test_trimesh_index_validation():
    with pytest.raises(CatalogError):
        TriMesh([[0, 0, 0]], [[0, 1, 2]])


def test_catalog_json_mesh_without_triangles_is_no_geometry():
    obj = build_demo_catalog().to_json_obj()
    obj["parts"]["3023"]["mesh"] = {"vertices": [[0, 0, 0]], "triangles": []}
    cat = Catalog.from_json_obj(obj)
    assert cat.part("3023").mesh is None
    assert "mesh" not in cat.to_json_obj()["parts"]["3023"]
    assert PartColliders.from_catalog(cat).get("3023") is None
    obj["parts"]["3023"]["mesh"]["vertices"] = [[float("nan"), 0, 0]]
    with pytest.raises(CatalogError, match="not finite"):  # validated before it is dropped
        Catalog.from_json_obj(obj)


@pytest.fixture()
def library_dir(tmp_path):
    root = tmp_path / "ldraw"
    (root / "parts").mkdir(parents=True)
    (root / "p").mkdir()
    (root / "p" / "stud.dat").write_text("0 stud primitive\n")
    (root / "p" / "stud4.dat").write_text("0 tube primitive\n")
    (root / "p" / "box8.dat").write_text(
        "0 box top\n"
        "4 16 -10 0 -10 -10 0 10 10 0 10 10 0 -10\n"
        "4 16 -10 8 -10 10 8 -10 10 8 10 -10 8 10\n"
    )
    (root / "parts" / "3024.dat").write_text(
        "0 Plate 1 x 1\n"
        f"1 16 0 8 0 {IDENTITY} stud4.dat\n"
        f"1 16 0 0 0 {IDENTITY} box8.dat\n"
        f"1 16 0 0 0 {IDENTITY} stud.dat\n"
    )
    (root / "parts" / "555.dat").write_text(
        "0 Decorated Tile | special\n"
        f"1 16 0 0 0 {IDENTITY} box8.dat\n"
    )
    return root


def test_build_catalog_from_library(library_dir):
    cat = build_catalog_from_library(library_dir)
    assert set(cat.parts) == {"3024", "555"}
    plate = cat.part("3024")
    assert plate.name == "plate 1 x 1"
    # the tube comes first in the file, the stud first in canonical order
    assert [(c.index, c.subtype) for c in plate.connectors] == [("a", "stud"), ("b", "tube")]
    assert np.allclose(plate.connectors[0].frame.origin, [0, 0, 0])
    assert np.allclose(plate.connectors[1].frame.origin, [0, 8, 0])
    assert len(plate.mesh) == 4  # two quads
    tile = cat.part("555")
    assert tile.connectors == ()
    assert tile.name == "decorated tile special"  # reserved '|' stripped


def test_library_warnings_name_the_part_file_once(tmp_path):
    # one walk, in line order: the stud.dat sites are expanded for triangles
    # too (the library lacks stud.dat), the sub-part's short line is reported
    # once though it is walked twice, and the scale check's rejection comes
    # last
    (tmp_path / "parts" / "s").mkdir(parents=True)
    (tmp_path / "parts" / "s" / "half.dat").write_text("0 half\n3 16 1 2\n")
    (tmp_path / "parts" / "3024.dat").write_text(
        "0 Plate 1 x 1\n"
        f"1 16 0 0 0 {IDENTITY} stud.dat\n"
        f"1 16 0 0 0 {IDENTITY} ghost.dat\n"
        "3 16 a 0 0 1 0 0 0 1 0\n"
        f"1 16 0 0 0 {IDENTITY} s\\half.dat\n"
        f"1 16 10 0 0 {IDENTITY} s\\half.dat\n"
        "1 16 0 -8 0 2 0 0 0 2 0 0 0 2 stud.dat\n"
    )
    assert build_catalog_from_library(tmp_path).warnings == (
        "3024.dat: line 2: unresolvable subfile 'stud.dat'",
        "3024.dat: line 3: unresolvable subfile 'ghost.dat'",
        "3024.dat: line 4: skipped non-numeric type-3 line",
        "3024.dat: line 2: skipped short type-3 line",
        "3024.dat: line 7: unresolvable subfile 'stud.dat'",
        "3024.dat: line 7: stud.dat rejected by scale check (2.0, 2.0, 2.0) "
        "(review: possible non-connector use)",
    )


def test_library_primitive_warning_reaches_each_part_in_walk_order(tmp_path):
    # the primitive is read once; its warning is replayed at each reference
    (tmp_path / "parts").mkdir()
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "stud.dat").write_text("0 stud\n7 16 junk\n")
    for pid in ("3024", "3070"):
        (tmp_path / "parts" / f"{pid}.dat").write_text(
            f"0 Plate {pid}\n1 16 0 0 0 {IDENTITY} stud.dat\n9 16\n"
        )
    assert build_catalog_from_library(tmp_path).warnings == (
        "3024.dat: line 2: skipped unknown line type 7",
        "3024.dat: line 3: skipped unknown line type 9",
        "3070.dat: line 2: skipped unknown line type 7",
        "3070.dat: line 3: skipped unknown line type 9",
    )


def test_library_scan_reads_each_file_once(library_dir, monkeypatch):
    # every parts/ and p/ file is found twice (also relative to the root),
    # and a part file is both a reference and a part: one read each
    read = []
    real = ldraw.read_lines
    monkeypatch.setattr(ldraw, "read_lines", lambda text, *a: read.append(text) or real(text, *a))
    Catalog.load(library_dir)
    assert len(read) == len(list(library_dir.rglob("*.dat"))) == 5


def test_library_part_is_walked_from_its_own_file_without_parts_dir(tmp_path):
    # without parts/, a p/ file of the same name shadows the part as a
    # reference, not as the part itself
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "3024.dat").write_text("0 Shadow\n")
    (tmp_path / "3024.dat").write_text(
        f"0 Plate 1 x 1\n1 16 0 0 0 {IDENTITY} stud.dat\n3 16 0 0 0 1 0 0 0 0 1\n"
    )
    plate = build_catalog_from_library(tmp_path).part("3024")
    assert plate.name == "plate 1 x 1"
    assert [c.subtype for c in plate.connectors] == ["stud"] and len(plate.mesh) == 1


def test_library_part_files_decode_like_ldraw_structures(tmp_path):
    # one LDraw decoder: UTF-8, else latin-1 (the description used to read
    # U+FFFD for a latin-1 byte)
    (tmp_path / "parts").mkdir()
    for pid, description in (("3024", "Plättchen 1 x 1"), ("3070", "Fliese 1 x 1 grün")):
        data = f"0 {description}\n1 16 0 0 0 {IDENTITY} stud.dat\n"
        (tmp_path / "parts" / f"{pid}.dat").write_bytes(
            data.encode("latin-1" if pid == "3024" else "utf-8")
        )
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "stud.dat").write_bytes(b"0 Stud \xb7 latin-1\n")
    cat = build_catalog_from_library(tmp_path)
    assert cat.part("3024").name == "plättchen 1 x 1"
    assert cat.part("3070").name == "fliese 1 x 1 grün"
    assert [c.subtype for c in cat.part("3024").connectors] == ["stud"]


def test_catalog_load_dispatches_dir_and_json(library_dir, tmp_path):
    cat = Catalog.load(library_dir)
    assert "3024" in cat
    json_path = tmp_path / "cat.json"
    json_path.write_text(cat.dumps())
    cat2 = Catalog.load(json_path)
    assert cat2.dumps() == cat.dumps()


def test_catalog_color_overrides():
    cat = Catalog.from_json_obj({"parts": {}, "colors": {"999": "Hyperfuchsia"}})
    assert cat.color_name(999) == "hyperfuchsia"
    assert cat.color_name(4) == "red"  # defaults still present


def test_every_loader_bounds_connector_origins(library_dir):
    # JSON, the library scan and the demo's parts are all built as PartDefs,
    # which reject a connector origin beyond the mesh bound of 1e6 LDU
    message = "part '3024': connector origin beyond 1e\\+06 LDU"
    obj = build_demo_catalog().to_json_obj()
    obj["parts"]["3024"]["connectors"][0]["origin"] = [0.0, -1e6, 0.0]
    Catalog.from_json_obj(obj)  # on the bound
    obj["parts"]["3024"]["connectors"][0]["origin"] = [0.0, np.nextafter(-1e6, -np.inf), 0.0]
    with pytest.raises(CatalogError, match=message):
        Catalog.from_json_obj(obj)
    part_file = library_dir / "parts" / "3024.dat"
    part_file.write_text(f"0 Plate 1 x 1\n1 16 0 0 2e6 {IDENTITY} stud.dat\n")
    with pytest.raises(CatalogError, match=message):
        build_catalog_from_library(library_dir)
    stud = build_demo_catalog().part("3024").connectors[0]
    far = stud.frame.transformed(RigidTransform(np.eye(3), np.array([1e300, 0.0, 0.0])))
    with pytest.raises(CatalogError, match=message):
        PartDef("3024", "plate 1x1", (dataclasses.replace(stud, frame=far),))


def _axle_library(tmp_path, length: int):
    """A library with one part: the axle primitive scaled to ``length`` LDU."""
    (tmp_path / "lib" / "parts").mkdir(parents=True)
    (tmp_path / "lib" / "parts" / "3704.dat").write_text(
        f"0 Technic Axle\n1 16 0 0 0 1 0 0 0 {length} 0 0 0 1 axle.dat\n"
    )
    structure = tmp_path / "one.ldr"
    structure.write_text(f"1 4 0 0 0 {IDENTITY} 3704.dat\n")
    return tmp_path / "lib", structure


def test_library_axle_past_the_length_bound_exits_3(tmp_path, capsys):
    # the library scan used to accept it and build a catalog whose own
    # dumps() did not load
    lib, structure = _axle_library(tmp_path, 2000)
    assert main(["--catalog", str(lib), "parse", str(structure)]) == 3
    assert capsys.readouterr().err == (
        "error: 3704: axle_length must be a number in [0, 1000], got 2000.0\n"
    )


def test_library_axle_at_the_length_bound_round_trips(tmp_path):
    lib, _ = _axle_library(tmp_path, 1000)
    cat = build_catalog_from_library(lib)
    assert cat.part("3704").connectors[0].axle_length == 1000.0
    assert Catalog.from_json_obj(json.loads(cat.dumps())).dumps() == cat.dumps()
