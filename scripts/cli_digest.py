#!/usr/bin/env python3
"""Digest of the CLI's behaviour on a fixed, seeded set of calls.

    python scripts/cli_digest.py

Builds the demo catalog, the demo structures, graph JSON of seeded random
build paths and seeded random programs (every third one corrupted at one
line) in a temporary directory, then runs ``brickir.cli.main`` on them:
parse/graph, sample at three seeds and with --no-collision / --inset 0,
serialize/execute, execute of every uncorrupted program, eval in
json/text/csv and with --jobs 1 / --jobs 2, check (with --jobs 2, with
--no-collision, and --strict check on an overlapping program), eval
--no-collision through the --jobs 2 pool, check, --strict check, eval (with
and without collision) and execute of seeded programs that reuse a connector
(some with a syntax error after the reuse, in a later action or in the same
one), stats, and the exit-code cases of the CLI contract: among them a latin-1
.ldr (decoded, exit 0), non-UTF-8 program text and graph JSON (exit 2),
malformed catalogs (exit 3: among them an unregistered subtype with a
family key, and a missing or repeated connector index), negative --pos-tol,
--axis-tol and --inset (exit 2, argparse's usage and error lines) and insets
that flatten or turn the plates inside out (exit 1), eval of a directory
without files and sample of a graph without nodes (exit 1), and parse and
graph of MPDs whose composed transforms overflow (exit 2). It also runs graph on
seeded perturbations of mixed.ldr, turned and moved around each family's
match tolerances, at the default and at zero tolerances. The --jobs 2 calls
run the thread pool, and with it concurrent first lookups in the shared
collision-mesh table, on any machine.
The --no-collision calls run the executor without reading a single pose.

Each call's exit code, stdout, stderr and --out files are hashed. The script
prints one line per call (digest, exit code, label) and then the sha256 over
all calls. Two checkouts that print the same overall digest behave
byte-identically on these calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from brickir.cli import main as cli_main
from brickir.demo import DEMO_STRUCTURES, build_demo_catalog, generate_random_path
from brickir.program import serialize

OVERLAP = (
    "a plate 1x2 | red\nb plate 1x2 | red\na stud stud a hole b 0\n"
    "c plate 1x2 | red\na stud stud c hole d 0\n"
)


PERTURBED = 8


def _rotation(axis, degrees: float) -> np.ndarray:
    """Rodrigues rotation about an axis."""
    x, y, z = np.asarray(axis, float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    a = np.radians(degrees)
    return np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)


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
        pos = np.array(fields[2:5], float)
        rot = np.array(fields[5:14], float).reshape(3, 3)
        axis = rng.normal(size=3) if rng.random() < 0.5 else np.eye(3)[int(rng.integers(3))]
        angle = [0.0, 1.9, 2.1, 180.0, rng.uniform(0.0, 5.0)][int(rng.integers(5))]
        step = rng.normal(size=3)
        step *= [0.0, 0.9, 1.1, rng.uniform(0.0, 2.0), rng.uniform(-30.0, 30.0)][
            int(rng.integers(5))] / np.linalg.norm(step)
        rot = _rotation(axis, angle) @ rot
        numbers = " ".join(f"{v:.17g}" for v in [*(pos + step), *rot.ravel()])
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
    calls.append(("eval --jobs 1", cat + ["--jobs", "1", "eval", "programs"], None))
    calls.append(("eval --jobs 2", cat + ["--jobs", "2", "eval", "programs"], None))
    calls.append(("check json", cat + ["--jobs", "1", "check", "programs/p00.bseq",
                                       "programs/p01.bseq", "overlap.bseq"], None))
    calls.append(("check text", cat + ["--format", "text", "--inset", "0", "check",
                                       "programs/p02.bseq", "overlap.bseq"], None))
    programs = [f"programs/p{i:02d}.bseq" for i in range(30)]
    calls.append(("check --jobs 2", cat + ["--jobs", "2", "check", *programs, "overlap.bseq"],
                  None))
    calls.append(("check --no-collision", cat + ["--no-collision", "check", *programs,
                                                 "overlap.bseq"], None))
    calls.append(("eval --no-collision --jobs 2", cat + ["--no-collision", "--jobs", "2", "eval",
                                                          "programs"], None))
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
    for inset in ("3", "3.5", "1e6"):  # a sheet at 3 LDU, turned inside out beyond
        calls.append((f"--inset {inset}", cat + ["--inset", inset, "check", "two_plates.bseq"],
                      None))
    calls.append(("eval of a directory without files", cat + ["eval", "no_programs"], None))
    calls.append(("sample node-less graph", cat + ["sample", "node_less.json"], None))
    calls.append(("overflowing matrix parse", cat + ["parse", "overflow_matrix.mpd"], None))
    calls.append(("overflowing translation graph", cat + ["graph", "overflow_translation.mpd"],
                  None))
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


def main() -> int:
    cwd = os.getcwd()
    env_catalog = os.environ.pop("BRICKIR_CATALOG", None)
    env_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal width
    overall = hashlib.sha256()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            _write_inputs(Path(tmp))
            for label, argv, out in _calls():
                code, digest = _digest_call(argv, out)
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
