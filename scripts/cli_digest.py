#!/usr/bin/env python3
"""Digest of the CLI's behaviour on a fixed, seeded set of calls.

    python scripts/cli_digest.py
    python scripts/cli_digest.py --coretypes Prescott,Haswell,SkylakeX

Builds the demo catalog, the demo structures, graph JSON of seeded random
build paths and seeded random programs (every third one corrupted at one
line) in a temporary directory, then runs ``brickir.cli.main`` on them:
parse/graph, sample at three seeds and with --no-collision / --inset 0,
serialize/execute, execute of every uncorrupted program, eval in
json/text/csv, with --no-collision and with --inset 0, check (of two
programs and an overlapping one, of all programs, with --no-collision,
and --strict check on an overlapping program), check, --strict check, eval
(with and without collision) and execute of seeded programs that reuse a connector
(some with a syntax error after the reuse, in a later action or in the same
one), stats, and the exit-code cases of the CLI contract: among them a latin-1
.ldr (decoded, exit 0), non-UTF-8 program text and graph JSON (exit 2),
malformed catalogs (exit 3: among them an unregistered subtype with a
family key, and a missing or repeated connector index), negative --pos-tol,
--axis-tol and --inset, an --inset beyond 1e6 LDU and the removed --jobs
flag (exit 2, argparse's usage and error lines), and insets that flatten or turn the plates inside
out (exit 1), eval of a directory without files, sample of a graph
without nodes and sample of a --count too large to allocate (exit 1), and
parse and graph of MPDs whose composed transforms overflow (exit 2), and
sample of graph JSON whose rotations are written to 8 decimals (repaired,
exit 0) or scaled by 1.01 (exit 2), serialize of two-plate graph JSON
with edges that the matcher cannot find (a ball edge on studs, a stud-stud
edge, a stud held by two edges: exit 3), and graph, execute, check and eval
with a catalog whose connector origins lie beyond the 1e6 LDU bound
(exit 3). It also runs graph on seeded
perturbations of mixed.ldr, turned and moved around each family's match
tolerances, at the default and at zero tolerances.
The --no-collision calls run the executor without reading a single pose.

It also writes a small LDraw part library as text (``ldlib``): primitives
(a stud as a triangulated 16-segment cylinder, a tube, a peghole, an axle and
two boxes), part files that place them axis-aligned, turned 36 degrees,
mirrored and axially scaled, a sub-part in ``parts/s`` referenced four times,
one stud scaled off the connector scale (rejected with a warning) and one
malformed line inside a primitive. Every part with two or more studs has
more than 64 triangles, so its collision mesh is a tree. With
``--catalog ldlib`` it runs parse, graph, sample, serialize, execute, check
and eval on a structure of those parts, at the default inset and at
--inset 0, and parse once with a second library (``ldfaults``) whose one
part warns from inside a primitive and from the scale check. For each of the
two libraries it also hashes, in process, ``Catalog.load(<dir>).dumps()`` and
the catalog's warnings (``ldlib catalog``, ``ldfaults catalog``): the mesh
bytes of a library reach the CLI calls only through collision verdicts.

Each call's exit code, stdout, stderr and --out files are hashed. The script
prints one line per call (digest, exit code, label) and then the sha256 over
all calls. Two checkouts that print the same overall digest behave
byte-identically on these calls. The inputs are written with the same plain
float arithmetic on every CPU (no numpy matrix product), so they do not
depend on the BLAS kernel either.

With --coretypes A,B,... the script runs itself once per OpenBLAS core type
in a child process, with OPENBLAS_CORETYPE set in that child's environment
only. It prints each core type's overall digest and the label of every call
whose line differs between them, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from brickir.catalog import Catalog
from brickir.cli import main as cli_main
from brickir.demo import DEMO_STRUCTURES, build_demo_catalog, generate_random_path
from brickir.geometry import mat_mul, norm
from brickir.program import serialize

OVERLAP = (
    "a plate 1x2 | red\nb plate 1x2 | red\na stud stud a hole b 0\n"
    "c plate 1x2 | red\na stud stud c hole d 0\n"
)


PERTURBED = 8

IDENTITY = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
TWO_PLATES = [  # the two lowest plates of stack4.ldr, as graph-JSON nodes
    {"id": i, "part": "3023", "color": color, "pose": {"rot": IDENTITY, "t": [0.0, y, 0.0]}}
    for i, (color, y) in enumerate(((4, 0.0), (14, -8.0)))
]
STUD_EDGE = {"a": [0, "a"], "b": [1, "b"], "family": "stud", "params": {"yaw": 0}}
EDGE_FAULTS = {  # edge lists between the two plates that the matcher cannot find
    "ball": [{**STUD_EDGE, "family": "ball", "params": {"euler": [0, 0, 0]}}],
    "stud-stud": [{**STUD_EDGE, "b": [1, "a"]}],
    "held-twice": [STUD_EDGE, {**STUD_EDGE, "b": [1, "d"]}],
}

# --- a small LDraw part library, written as text ----------------------------

SEGMENTS = 16
IDENT = "1 0 0 0 1 0 0 0 1"
FLIP_X = "1 0 0 0 -1 0 0 0 -1"  # 180 degrees about x: a tube's +y axis points up
TO_Z = "1 0 0 0 0 -1 0 1 0"  # a primitive's y axis along z
MIRROR_X = "-1 0 0 0 1 0 0 0 1"
TURN_Y = "-1 0 0 0 1 0 0 0 -1"  # 180 degrees about y


def _numbers(*values) -> str:
    return " ".join(f"{v:.17g}" for v in values)


def _turn_y(degrees: float) -> str:
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return _numbers(c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)


def cylinder_lines(radius: float, y0: float, y1: float, cap: bool = False) -> str:
    """Type-4 side quads of a 16-segment cylinder about the y axis from y0 to
    y1, with a type-3 fan closing it at y1 when ``cap``, and its type-2 rim
    edges (which geometry ignores)."""
    angles = [2.0 * math.pi * k / SEGMENTS for k in range(SEGMENTS)]
    ring = [(radius * math.cos(a), radius * math.sin(a)) for a in angles]
    lines = []
    for (x0, z0), (x1, z1) in zip(ring, ring[1:] + ring[:1]):
        lines.append(f"2 24 {_numbers(x0, y1, z0, x1, y1, z1)}")
        lines.append(f"4 16 {_numbers(x0, y0, z0, x1, y0, z1, x1, y1, z1, x0, y1, z0)}")
        if cap:
            lines.append(f"3 16 {_numbers(0.0, y1, 0.0, x1, y1, z1, x0, y1, z0)}")
    return "\n".join(lines) + "\n"


def box_lines(hx: float, y0: float, y1: float, hz: float, open_bottom: bool = False) -> str:
    """Quads of the box [-hx, hx] x [y0, y1] x [-hz, hz] (y0 on top), its
    bottom (y = y1) left open when ``open_bottom``."""
    faces = [
        (-hx, y0, -hz, hx, y0, -hz, hx, y0, hz, -hx, y0, hz),  # top
        (-hx, y0, -hz, -hx, y1, -hz, hx, y1, -hz, hx, y0, -hz),
        (hx, y0, -hz, hx, y1, -hz, hx, y1, hz, hx, y0, hz),
        (hx, y0, hz, hx, y1, hz, -hx, y1, hz, -hx, y0, hz),
        (-hx, y0, hz, -hx, y1, hz, -hx, y1, -hz, -hx, y0, -hz),
    ]
    if not open_bottom:
        faces.append((-hx, y1, hz, hx, y1, hz, hx, y1, -hz, -hx, y1, -hz))
    return "".join(f"4 16 {_numbers(*f)}\n" for f in faces)


def _ref(x, y, z, rows: str, name: str, color: int = 16) -> str:
    return f"1 {color} {_numbers(x, y, z)} {rows} {name}\n"


def _plate_sites(studs, tubes, depth) -> str:
    return "".join(_ref(x, 0, z, IDENT, "stud.dat") for x, z in studs) + "".join(
        _ref(x, depth, z, FLIP_X, "stud4.dat") for x, z in tubes)


LIBRARY_PRIMITIVES = {
    "box5.dat": "0 Box with 5 Faces\n" + box_lines(1.0, 0.0, 1.0, 1.0, open_bottom=True),
    "box.dat": "0 Box\n" + box_lines(1.0, -1.0, 1.0, 1.0),
    "stud.dat": "0 Stud\n" + cylinder_lines(6.0, 0.0, -4.0, cap=True),
    # a short type-4 line: skipped with a warning by every part that uses it
    "stud2.dat": "0 Stud Open\n4 16 0 0 0 1 0 0\n" + cylinder_lines(6.0, 0.0, -4.0),
    "stud4.dat": "0 Stud Tube\n" + cylinder_lines(8.0, 0.0, 6.0),
    "peghole.dat": "0 Peg Hole\n" + cylinder_lines(6.0, -10.0, 10.0),
    "axle.dat": "0 Axle\n" + box_lines(2.0, -0.5, 0.5, 2.0),
}

QUAD = [(-10, -10), (-10, 10), (10, -10), (10, 10)]
ROW = [(-10, 0), (10, 0)]
LIBRARY_PARTS = {
    "3022.dat": "0 Plate 2 x 2\n" + _ref(0, 0, 0, "20 0 0 0 8 0 0 0 20", "box5.dat")
    + _plate_sites(QUAD, QUAD, 8),
    "s/3020s01.dat": "0 ~Plate 2 x 4 Quarter\n" + _plate_sites([(0, -10), (0, 10)],
                                                             [(0, -10), (0, 10)], 8),
    "3020.dat": "0 Plate 2 x 4\n" + _ref(0, 0, 0, "40 0 0 0 8 0 0 0 20", "box5.dat")
    + _ref(-30, 0, 0, IDENT, "s\\3020s01.dat") + _ref(-10, 0, 0, IDENT, "s\\3020s01.dat")
    + _ref(10, 0, 0, MIRROR_X, "s\\3020s01.dat") + _ref(30, 0, 0, TURN_Y, "s\\3020s01.dat"),
    "3024.dat": "0 Plate 1 x 1\n" + _ref(0, 0, 0, "10 0 0 0 8 0 0 0 10", "box5.dat")
    + _ref(0, 0, 0, _turn_y(36.0), "stud.dat") + _plate_sites([], [(0, 0)], 8),
    # a stud widened by 1.25: not a connector, and warned about
    "3062b.dat": "0 Brick 1 x 1 Round\n" + _ref(0, 0, 0, "10 0 0 0 24 0 0 0 10", "box5.dat")
    + _ref(0, 12, 0, "1.25 0 0 0 1 0 0 0 1.25", "stud.dat") + _plate_sites([(0, 0)], [(0, 0)], 24),
    "3794.dat": "0 Plate 1 x 2 with 1 Stud\n" + _ref(0, 0, 0, "20 0 0 0 8 0 0 0 10", "box5.dat")
    + _ref(0, 0, 0, IDENT, "stud2.dat") + _plate_sites([], ROW, 8),
    "3700.dat": "0 Technic Brick 1 x 2 with Hole\n"
    + _ref(0, 3, 0, "20 0 0 0 3 0 0 0 10", "box.dat")
    + _ref(0, 18, 0, "20 0 0 0 6 0 0 0 10", "box5.dat")
    + _ref(0, 12, 0, TO_Z, "peghole.dat") + _plate_sites(ROW, ROW, 24),
    "3704.dat": "0 Technic Axle 2\n" + _ref(0, 0, 0, "1 0 0 0 0 -1 0 40 0", "axle.dat"),
}
# one part that warns from inside a primitive (line 3) and from the scale
# check (line 2)
FAULTS_PART = "0 Fault Plate\n" + _ref(0, 0, 0, "2 0 0 0 2 0 0 0 2", "stud.dat") + _ref(
    10, 0, 0, IDENT, "stud2.dat")
LIBRARY_OVERLAP = (  # c's tube on a's stud e: c overlaps b
    "a plate 2 x 2 | red\nb plate 2 x 2 | red\na stud stud a tube c 0\n"
    "c plate 2 x 2 | blue\na stud stud e tube c 0\n"
)
LIBRARY_STRUCTURE = "".join(_ref(x, y, z, IDENT, f"{part}.dat", color) for part, color, x, y, z in [
    ("3022", 4, 0, 0, 0), ("3022", 1, 0, -8, 0), ("3020", 14, 20, -16, 0),
    ("3024", 2, 50, -24, -10), ("3700", 15, 40, -40, 10), ("3704", 0, 40, -28, 10),
    ("3794", 4, 0, -24, -10), ("3062b", 14, -10, -40, 10),
])


def _write_library(root: Path, parts: dict) -> None:
    for name, text in [*((f"p/{n}", t) for n, t in LIBRARY_PRIMITIVES.items()),
                       *((f"parts/{n}", t) for n, t in parts.items())]:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)


def _rotation(axis, degrees: float):
    """Rodrigues rotation about an axis, as rows."""
    length = norm(axis)
    x, y, z = (v / length for v in axis)
    k = ((0.0, -z, y), (z, 0.0, -x), (-y, x, 0.0))
    a = math.radians(degrees)
    s, c = math.sin(a), 1.0 - math.cos(a)
    kk = mat_mul(k, k)
    return tuple(
        tuple(float(i == j) + s * k[i][j] + c * kk[i][j] for j in range(3)) for i in range(3)
    )


def _perturbed_mixed(rng) -> str:
    """mixed.ldr (one connection of every family) with about half its parts
    turned by an angle around the 2-degree axis tolerance or a flip, or moved
    by a distance around the 1-LDU position tolerance or an axle slide."""
    lines = []
    for line in DEMO_STRUCTURES["mixed"].splitlines():
        if rng.random() < 0.5:
            lines.append(line)
            continue
        fields = line.split()
        pos = [float(v) for v in fields[2:5]]
        rot = [[float(v) for v in fields[i:i + 3]] for i in (5, 8, 11)]
        axis = rng.normal(size=3) if rng.random() < 0.5 else np.eye(3)[int(rng.integers(3))]
        angle = [0.0, 1.9, 2.1, 180.0, rng.uniform(0.0, 5.0)][int(rng.integers(5))]
        step = rng.normal(size=3).tolist()
        length = [0.0, 0.9, 1.1, rng.uniform(0.0, 2.0), rng.uniform(-30.0, 30.0)][
            int(rng.integers(5))] / norm(step)
        rot = mat_mul(_rotation(axis.tolist(), angle), rot)
        moved = [p + s * length for p, s in zip(pos, step)]
        numbers = " ".join(f"{v:.17g}" for v in [*moved, *rot[0], *rot[1], *rot[2]])
        lines.append(f"{fields[0]} {fields[1]} {numbers} {fields[14]}")
    return "\n".join(lines) + "\n"


def _write_inputs(root: Path) -> None:
    catalog = build_demo_catalog()
    (root / "catalog.json").write_text(catalog.dumps())
    for name, text in DEMO_STRUCTURES.items():
        (root / f"{name}.{'mpd' if name.startswith('mpd') else 'ldr'}").write_text(text)

    graphs = root / "graphs"
    programs = root / "programs"
    graphs.mkdir()
    programs.mkdir()
    rng = np.random.default_rng(20261018)
    for i in range(30):
        path = generate_random_path(catalog, rng, int(rng.integers(20, 61)))
        if i % 3 == 0:
            (graphs / f"g{i:02d}.json").write_text(path.graph.dumps())
        lines = serialize(path, catalog).splitlines()
        if i % 3 == 1:
            lines[int(rng.integers(1, len(lines)))] = "x stud garbage"
        (programs / f"p{i:02d}.bseq").write_text("\n".join(lines) + "\n")
    (root / "overlap.bseq").write_text(OVERLAP)
    reuse = root / "reuse"
    reuse.mkdir()
    rng = np.random.default_rng(20261019)
    for i in range(9):
        lines = serialize(generate_random_path(catalog, rng, int(rng.integers(8, 30))),
                          catalog).splitlines()
        attaches = [j for j, line in enumerate(lines) if " | " not in line]
        j = attaches[int(rng.integers(len(attaches)))]
        lines.insert(j + 1, lines[j])  # a second attach claims the same connectors
        if i % 3 == 1:  # a syntax error in a later action, if there is one
            lines.append("x stud garbage")
        elif i % 3 == 2:  # a syntax error in the reusing action
            lines.insert(j + 2, "x stud garbage")
        (reuse / f"r{i}.bseq").write_text("\n".join(lines) + "\n")
    (root / "bad.ldr").write_text("1 4 0 0 0 1 0 0 0 1 3023.dat\n")
    (root / "nan.ldr").write_text(
        "1 4 0 0 0 1 0 0 0 1 0 0 0 1 3023.dat\n1 2 nan -8 0 1 0 0 0 1 0 0 0 1 3023.dat\n"
    )
    (root / "truncated.json").write_text('{"nodes": [')
    (root / "bad_program.bseq").write_text("a plate 1x2 | red\nq stud stud a hole b 0\n")
    lib = root / "lib" / "parts"
    lib.mkdir(parents=True)
    (lib / "3005.dat").write_text("0 Brick 1 x 1\n3 16 nan 8 -10 10 8 -10 10 8 10\n")
    (root / "one.ldr").write_text("1 4 0 0 0 1 0 0 0 1 0 0 0 1 3005.dat\n")
    (root / "latin1.ldr").write_bytes(b"0 K\xf6lner Dom\n" + DEMO_STRUCTURES["stack4"].encode())
    (root / "latin1.bseq").write_bytes(b"a plate 1x2 | r\xf6d\n")
    (root / "latin1.json").write_bytes(b'{"nodes": [], "edges": [], "note": "\xf6"}')
    (root / "two_plates.bseq").write_text(OVERLAP.split("c plate")[0])
    (root / "no_programs").mkdir()
    (root / "node_less.json").write_text('{"nodes": [], "edges": []}')
    scaled = " ".join(["1e200", "0", "0", "0"] * 2 + ["1e200"])
    (root / "overflow_matrix.mpd").write_text(  # 1e200 * 1e200 on the diagonal
        f"0 FILE main.ldr\n1 4 0 0 0 {scaled} sub.ldr\n"
        f"0 FILE sub.ldr\n1 4 0 0 0 {scaled} 3023.dat\n"
    )
    (root / "overflow_translation.mpd").write_text(  # 1e10 * 1e300 in x
        "0 FILE main.ldr\n1 4 1e300 1e300 1e300 1e10 0 0 0 1 0 0 0 1 sub.ldr\n"
        "0 FILE sub.ldr\n1 4 1e300 1e300 1e300 1 0 0 0 1 0 0 0 1 3023.dat\n"
    )
    for name, scale in (("rounded", 1.0), ("scaled", 1.01)):  # repaired; not rigid
        obj = json.loads((graphs / "g00.json").read_text())
        for node in obj["nodes"]:
            node["pose"]["rot"] = [round(v * scale, 8) for v in node["pose"]["rot"]]
        (root / f"{name}_rotations.json").write_text(json.dumps(obj))
    for name, edges in EDGE_FAULTS.items():
        (root / f"edge_{name}.json").write_text(json.dumps({"nodes": TWO_PLATES, "edges": edges}))
    rng = np.random.default_rng(20261020)
    for i in range(PERTURBED):
        (root / f"mixed_p{i}.ldr").write_text(_perturbed_mixed(rng))
    good = catalog.to_json_obj()
    first = good["parts"]["3023"]["connectors"][0]
    bad_catalogs = {
        "truncated": "{",
        "list": "[]",
        "nameless": {**good, "parts": {"3023": {"connectors": []}}},
        "origin": {**good, "parts": {"3023": {"name": "p", "connectors": [
            {**first, "origin": "a"}]}}},
        "color": {**good, "colors": {"x": "mauve"}},
        "subtype": {**good, "parts": {"3023": {"name": "p", "connectors": [
            {"subtype": "no-such-subtype", "origin": [0, 0, 0], "principal_axis": [0, -1, 0],
             "reference_axis": [1, 0, 0]}]}}},
        "subtype-with-family": {**good, "parts": {"3023": {"name": "p", "connectors": [
            {**first, "subtype": "no-such-subtype"}]}}},
        "index-missing": {**good, "parts": {"3023": {"name": "p", "connectors": [
            {k: v for k, v in first.items() if k != "index"}]}}},
        "index-repeated": {**good, "parts": {"3023": {"name": "p", "connectors": [
            first, {**good["parts"]["3023"]["connectors"][1], "index": first["index"]}]}}},
    }
    for name, obj in bad_catalogs.items():
        text = obj if isinstance(obj, str) else json.dumps(obj)
        (root / f"catalog_{name}.json").write_text(text)
    far = catalog.to_json_obj()
    for connector in far["parts"]["3024"]["connectors"]:
        connector["origin"] = [1.5e308, 0.0, 1.5e308]  # overflows when turned 45 degrees
    (root / "catalog_far_origin.json").write_text(json.dumps(far))
    (root / "turned_plate.ldr").write_text(
        "1 4 0 0 0 0.7071067811865476 0 0.7071067811865476 0 1 0 "
        "-0.7071067811865476 0 0.7071067811865476 3024.dat\n"
    )
    (root / "turned_plate.bseq").write_text(
        "a plate 1x1 | red\nb plate 1x1 | red\na stud stud a hole b 45\n"
    )
    _write_library(root / "ldlib", LIBRARY_PARTS)
    (root / "ldlib.ldr").write_text(LIBRARY_STRUCTURE)
    (root / "ldprograms").mkdir()
    (root / "ldprograms" / "overlap.bseq").write_text(LIBRARY_OVERLAP)
    _write_library(root / "ldfaults", {"9999.dat": FAULTS_PART})
    (root / "ldfaults.ldr").write_text(_ref(0, 0, 0, IDENT, "9999.dat", 4))
    (root / "catalog_latin1.json").write_bytes(
        catalog.dumps().replace('"red"', '"r\\u00f6d"').encode().replace(b"\\u00f6", b"\xf6"))


def _calls():
    """(label, argv, --out path or None). Paths are relative to the working
    directory, so no output names the temporary directory."""
    cat = ["--catalog", "catalog.json"]
    graphs = [f"graphs/g{i:02d}.json" for i in range(0, 30, 3)]
    structures = ["stack4.ldr", "mpd_stack.mpd", "mixed.ldr"]
    calls = []
    for s in structures:
        calls.append((f"parse {s}", cat + ["parse", s], None))
        calls.append((f"graph {s}", cat + ["--out", f"{s}.json", "graph", s], f"{s}.json"))
    corpus = graphs + [f"{s}.json" for s in structures]
    for seed in (1, 2, 3):
        calls.append((f"sample seed {seed}", cat + ["--seed", str(seed), "sample", *corpus,
                                                   "--count", "12"], None))
    calls.append(("sample --no-collision", cat + ["--seed", "1", "--no-collision", "sample",
                                                   *corpus, "--count", "12"], None))
    calls.append(("sample --inset 0", cat + ["--seed", "1", "--inset", "0", "sample", *corpus,
                                              "--count", "12"], None))
    calls.append(("sample --out", cat + ["--seed", "5", "--out", "sampled", "sample", *graphs[:3],
                                         "--count", "4"], "sampled"))
    calls.append(("serialize mixed", cat + ["--seed", "7", "serialize", "mixed.ldr"], None))
    calls.append(("serialize graph", cat + ["--seed", "8", "--out", "ser.bseq", "serialize",
                                            graphs[1]], "ser.bseq"))
    calls.append(("execute", cat + ["execute", "ser.bseq"], None))
    for i in range(30):
        if i % 3 != 1:  # uncorrupted: poses over all five families
            calls.append((f"execute p{i:02d}", cat + ["execute", f"programs/p{i:02d}.bseq"], None))
    calls.append(("eval json", cat + ["eval", "programs"], None))
    calls.append(("eval text", cat + ["--format", "text", "eval", "programs"], None))
    calls.append(("eval csv", cat + ["--format", "csv", "eval", "programs"], None))
    calls.append(("eval --no-collision", cat + ["--no-collision", "eval", "programs"], None))
    calls.append(("eval --inset 0", cat + ["--inset", "0", "eval", "programs"], None))
    calls.append(("check json", cat + ["check", "programs/p00.bseq", "programs/p01.bseq",
                                       "overlap.bseq"], None))
    calls.append(("check text", cat + ["--format", "text", "--inset", "0", "check",
                                       "programs/p02.bseq", "overlap.bseq"], None))
    programs = [f"programs/p{i:02d}.bseq" for i in range(30)]
    calls.append(("check all", cat + ["check", *programs, "overlap.bseq"], None))
    calls.append(("check --no-collision", cat + ["--no-collision", "check", *programs,
                                                 "overlap.bseq"], None))
    calls.append(("strict check overlap", cat + ["--strict", "check", "overlap.bseq"], None))
    reused = [f"reuse/r{i}.bseq" for i in range(9)]
    calls.append(("check reuse", cat + ["check", *reused], None))
    calls.append(("strict check reuse", cat + ["--strict", "check", *reused], None))
    calls.append(("eval reuse", cat + ["eval", "reuse"], None))
    calls.append(("eval reuse --no-collision", cat + ["--no-collision", "eval", "reuse"], None))
    for r in reused:
        calls.append((f"execute {r}", cat + ["execute", r], None))
    for i in range(PERTURBED):
        calls.append((f"graph mixed_p{i}", cat + ["graph", f"mixed_p{i}.ldr"], None))
        calls.append((f"graph mixed_p{i} zero tolerances", cat + [
            "--pos-tol", "0", "--axis-tol", "0", "graph", f"mixed_p{i}.ldr"], None))
    calls.append(("stats json", cat + ["stats", *corpus], None))
    calls.append(("stats csv", cat + ["--format", "csv", "stats", *corpus], None))
    # exit-code contract: 1 I/O, 2 parse, 3 catalog, 4 strict validation
    calls.append(("missing file", cat + ["parse", "nope.ldr"], None))
    calls.append(("strict bad ldr", cat + ["--strict", "parse", "bad.ldr"], None))
    calls.append(("lenient bad ldr", cat + ["parse", "bad.ldr"], None))
    calls.append(("no catalog", ["parse", "stack4.ldr"], None))
    calls.append(("non-finite ldraw", cat + ["graph", "nan.ldr"], None))
    calls.append(("truncated graph", cat + ["serialize", "truncated.json"], None))
    calls.append(("execute invalid", cat + ["execute", "bad_program.bseq"], None))
    calls.append(("library non-finite", ["--catalog", "lib", "graph", "one.ldr"], None))
    calls.append(("latin-1 ldr parse", cat + ["parse", "latin1.ldr"], None))
    calls.append(("latin-1 ldr graph", cat + ["graph", "latin1.ldr"], None))
    for command in ("check", "eval", "execute"):
        calls.append((f"non-utf-8 program {command}", cat + [command, "latin1.bseq"], None))
    calls.append(("non-utf-8 graph json", cat + ["stats", "latin1.json"], None))
    for name in ("truncated", "list", "nameless", "origin", "color", "subtype", "latin1",
                 "subtype-with-family", "index-missing", "index-repeated"):
        calls.append((f"malformed catalog {name}", ["--catalog", f"catalog_{name}.json", "parse",
                                                     "stack4.ldr"], None))
    calls.append(("negative --pos-tol", cat + ["--pos-tol", "-1", "graph", "stack4.ldr"], None))
    calls.append(("negative --axis-tol", cat + ["--axis-tol", "-5", "graph", "stack4.ldr"], None))
    calls.append(("negative --inset", cat + ["--inset", "-1", "check", "two_plates.bseq"], None))
    calls.append(("--inset 1e300", cat + ["--inset", "1e300", "check", "two_plates.bseq"], None))
    calls.append(("removed --jobs 2", cat + ["--jobs", "2", "eval", "programs"], None))
    for inset in ("3", "3.5", "1e6"):  # a sheet at 3 LDU, turned inside out beyond
        calls.append((f"--inset {inset}", cat + ["--inset", inset, "check", "two_plates.bseq"],
                      None))
    calls.append(("eval of a directory without files", cat + ["eval", "no_programs"], None))
    calls.append(("sample node-less graph", cat + ["sample", "node_less.json"], None))
    calls.append(("sample --count 1e15", cat + ["sample", graphs[0], "--count",
                                                "1000000000000000"], None))
    calls.append(("overflowing matrix parse", cat + ["parse", "overflow_matrix.mpd"], None))
    calls.append(("overflowing translation graph", cat + ["graph", "overflow_translation.mpd"],
                  None))
    for name in ("rounded", "scaled"):
        calls.append((f"sample {name} rotations", cat + [
            "--seed", "1", "sample", f"{name}_rotations.json", "--count", "4"], None))
    for name in EDGE_FAULTS:
        calls.append((f"serialize {name} edge", cat + ["serialize", f"edge_{name}.json"], None))
    far = ["--catalog", "catalog_far_origin.json"]
    calls.append(("far connector origin graph", far + ["graph", "turned_plate.ldr"], None))
    for command in ("execute", "check", "eval"):
        calls.append((f"far connector origin {command}", far + [command, "turned_plate.bseq"],
                      None))
    lib = ["--catalog", "ldlib"]
    checked = ["ldprograms/ldlib.bseq", "ldprograms/overlap.bseq"]
    calls.append(("ldlib parse", lib + ["parse", "ldlib.ldr"], None))
    calls.append(("ldlib graph", lib + ["--out", "ldlib.json", "graph", "ldlib.ldr"], "ldlib.json"))
    calls.append(("ldlib serialize", lib + ["--seed", "7", "--out", checked[0], "serialize",
                                            "ldlib.ldr"], checked[0]))
    calls.append(("ldlib execute", lib + ["execute", checked[0]], None))
    for inset in ([], ["--inset", "0"]):
        label = " ".join(["", *inset])
        calls.append((f"ldlib sample{label}", lib + ["--seed", "1", *inset, "sample",
                                                     "ldlib.json", "--count", "6"], None))
        calls.append((f"ldlib check{label}", lib + [*inset, "check", *checked], None))
        calls.append((f"ldlib eval{label}", lib + [*inset, "eval", "ldprograms"], None))
    calls.append(("ldfaults parse", ["--catalog", "ldfaults", "parse", "ldfaults.ldr"], None))
    return calls


def _digest_call(argv, out) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        h.update(part.encode())
        h.update(b"\0")
    if out is not None:
        p = Path(out)
        for f in sorted(p.iterdir()) if p.is_dir() else [p]:
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return code, h.hexdigest()


def _catalog_digest(library) -> str:
    """sha256 of a library's scanned catalog JSON and its warnings."""
    catalog = Catalog.load(library)
    return hashlib.sha256("\0".join([catalog.dumps(), *catalog.warnings]).encode()).hexdigest()


def _digests():
    """(label, exit code, digest) of every call, then of each library's catalog."""
    for label, argv, out in _calls():
        yield (label, *_digest_call(argv, out))
    for library in ("ldlib", "ldfaults"):
        yield f"{library} catalog", 0, _catalog_digest(library)


def _compare_coretypes(coretypes) -> int:
    """Run this script once per OpenBLAS core type, each in a child process
    with OPENBLAS_CORETYPE in its own environment; print each overall digest
    and the labels of the calls whose lines differ. 1 if any differ."""
    runs = []
    for core in coretypes:
        env = {**os.environ, "OPENBLAS_CORETYPE": core}
        done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                              text=True, check=True)
        runs.append(done.stdout.splitlines())
        print(f"{core} {runs[-1][-1]}")
    differ = [line.split(" ", 2)[2] for line, *others in zip(*(run[:-1] for run in runs))
              if any(other != line for other in others)]
    for label in differ:
        print(f"differs: {label}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--coretypes", help="comma-separated OpenBLAS core types to compare")
    args = parser.parse_args(argv)
    if args.coretypes:
        return _compare_coretypes(args.coretypes.split(","))
    cwd = os.getcwd()
    env_catalog = os.environ.pop("BRICKIR_CATALOG", None)
    env_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal width
    overall = hashlib.sha256()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            _write_inputs(Path(tmp))
            for label, code, digest in _digests():
                overall.update(f"{label}\0{digest}\0".encode())
                print(f"{digest[:16]} {code} {label}")
    finally:
        os.chdir(cwd)
        if env_catalog is not None:
            os.environ["BRICKIR_CATALOG"] = env_catalog
        if env_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = env_columns
    print(f"overall {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
