#!/usr/bin/env python3
"""Interleaved A/B timing of brickir between two checkouts.

    python scripts/ab_timing.py --base ../other-checkout [--reps 15] [--seed 77]
        [--cases demo-wall,parse-dense-wall]

Loads this checkout's ``src/brickir`` and the one under ``--base`` side by
side in one process (the base as the package ``brickir_base``) and times the
same work on both. The cases, described in the README ("Experiment
scripts"): ``intersects`` on sphere pairs near contact (``sphere-1280``,
``sphere-5120``), on the near pairs of the dense-wall workload's wall
(``demo-wall``) and of random demo paths (``demo-random``); ``inset_mesh``
of the demo parts (``build-demo``); a first and a later ``cli.main`` call
(``main-first``, ``main-later``); ``Catalog.load`` (``catalog-load``); the
mesh lookups of the eval-corrupted round's first ``eval`` call
(``shard-meshes``); ``parse_program`` on the programs of one round of a
workload (``parse-eval-corrupted``, ``parse-dense-wall``);
``validate_prefix`` on the same programs, with a fresh mesh table per
``eval`` call (``validate-eval-corrupted``, ``validate-dense-wall``); and
``Catalog.load`` of a generated 200-part LDraw library directory
(``library-scan``, in ms per part).

Inputs shaped like a workload come from the benchmark's own generators
(``perfbench/workloads.py``) at ``--seed``; the spheres and random paths come
from generators keyed ``[seed, k]``. Each rep runs a case once on each side,
the side that runs first alternating between reps (one garbage collection
before a case's first rep, none between calls), and the script stops if
the two sides' outcomes differ. Per case it prints the items and what they
hold, each side's median over the reps in the case's unit, the ratio base /
change (above 1: the change is faster) and the number of reps the change
won.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT)]

from cli_digest import box_lines, cylinder_lines  # noqa: E402  (this script's directory)
from conftest import icosphere_mesh, random_rotation  # noqa: E402
from perfbench import workloads  # noqa: E402

MODULES = ("catalog", "cli", "collision", "demo", "geometry", "ldraw", "program")


def load_side(src: Path, name: str) -> dict:
    """The brickir package under ``src`` imported as ``name``: its
    submodules that this script uses, by name."""
    if name not in sys.modules:
        init = src / "brickir" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


@dataclasses.dataclass
class Case:
    """``run(side)`` runs the case once on a side and returns (seconds,
    outcome); ``scale`` turns seconds into ``unit``, and ``detail`` says
    from an outcome what the items hold."""

    items: int
    run: Callable
    unit: str = "ms"
    scale: float = 1e3
    detail: Callable = lambda outcome: "-"


def timed(fn, *args):
    """(seconds, result) of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def calls_case(sides, bind) -> Case:
    """``fn(*item)`` on every item, in one loop, where ``bind(side)`` gives
    the side's (fn, items). An item's outcome is its verdict, or its mesh's
    arrays."""
    bound = {id(side): bind(side) for side in sides}

    def once(side):
        fn, items = bound[id(side)]
        seconds, results = timed(lambda: [fn(*args) for args in items])
        return seconds, [r if isinstance(r, bool) else (r.vertices.tobytes(), r.triangles.tobytes())
                         for r in results]

    def hits(outcome):
        return f"{sum(o is True for o in outcome)} hits" if isinstance(outcome[0], bool) else "-"

    return Case(len(bound[id(sides[1])][1]), once, detail=hits)


def sphere_pairs(subdivisions: int, k: int):
    def make(sides, args):
        rng = np.random.default_rng([args.seed, k])
        big, small = icosphere_mesh(10.0, subdivisions), icosphere_mesh(6.0, subdivisions)
        poses = []
        for _ in range(30):
            direction = rng.normal(size=3)
            centre = direction / np.linalg.norm(direction) * (16.0 + rng.uniform(-0.5, 0.5))
            pa = (random_rotation(rng), rng.uniform(-20.0, 20.0, 3))
            pb = (pa[0] @ random_rotation(rng), pa[0] @ centre + pa[1])
            poses.append((pa, pb))

        def bind(side):
            col, geo = side["collision"], side["geometry"]
            a, b = col.inset_mesh(*big, 0.0), col.inset_mesh(*small, 0.0)
            return col.intersects, [(a, geo.RigidTransform(*pa), b, geo.RigidTransform(*pb))
                                    for pa, pb in poses]

        return calls_case(sides, bind)

    return make


def posed(part_id, pose):
    return part_id, np.array(pose.rotation), np.array(pose.translation)


def wall(side, seed):
    """The dense-wall workload's wall at length 8, parsed by ldraw."""
    catalog = side["demo"].build_demo_catalog()
    text, _ = workloads.wall_ldr(8, workloads.WALL_COURSES, workloads.TECHNIC_PHASE,
                                 sorted(catalog.colors))
    return [posed(i.part_id, i.pose) for i in side["ldraw"].parse_structure(text, catalog.parts)]


def random_paths(side, seed):
    """The parts of 12 seeded random 30-part demo paths."""
    catalog = side["demo"].build_demo_catalog()
    rng = np.random.default_rng([seed, 0])
    out = []
    for _ in range(12):
        path = side["demo"].generate_random_path(catalog, rng, 30)
        nodes = map(path.graph.nodes.__getitem__, path.nodes_in_order())
        out += [posed(node.part_id, node.pose) for node in nodes]
    return out


def part_pairs(instances, limit=None):
    """``intersects`` on the pairs (i, j), i < j, of ``instances(side,
    seed)`` whose posed mesh boxes overlap, as the broad phase passes them
    on: ordered by j, then by i."""

    def make(sides, args):
        change = sides[1]
        found = instances(change, args.seed)
        table = change["collision"].PartColliders.from_catalog(change["demo"].build_demo_catalog())
        boxes = []
        for pid, rot, trans in found:
            corners = table.get(pid).vertices @ rot.T + trans
            boxes.append((corners.min(axis=0), corners.max(axis=0)))
        pairs = [(found[i], found[j]) for j in range(len(found)) for i in range(j)
                 if (boxes[i][0] <= boxes[j][1]).all() and (boxes[j][0] <= boxes[i][1]).all()]

        def bind(side):
            col, geo = side["collision"], side["geometry"]
            table = col.PartColliders.from_catalog(side["demo"].build_demo_catalog())
            return col.intersects, [
                (table.get(a[0]), geo.RigidTransform(a[1], a[2]),
                 table.get(b[0]), geo.RigidTransform(b[1], b[2]))
                for a, b in pairs[:limit]
            ]

        return calls_case(sides, bind)

    return make


def build_demo(sides, args):
    parts = sides[1]["demo"].build_demo_catalog().parts.values()
    items = [(p.mesh.vertices, p.mesh.triangles, 0.25) for p in parts]
    return calls_case(sides, lambda side: (side["collision"].inset_mesh, items))


@functools.cache
def workload(name: str, seed: int):
    """``workloads.make(name, seed, Scale())`` in the current directory, its
    prelude run through this checkout's CLI: the round's calls, and per
    ``eval`` call the texts of its programs. The workloads' files do not
    clash, and each writes the same catalog."""
    made = workloads.make(name, seed, workloads.Scale())
    cli = importlib.import_module("brickir.cli")
    for call in made.prelude():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(call.argv) != 0:
                raise SystemExit(f"{name}: prelude call {call.key} failed")
    calls = made.round()
    shards = [[Path(f).read_text(encoding="utf-8") for f in c.argv[c.argv.index("eval") + 1:]]
              for c in calls]
    return calls, shards


def main_call(later: bool):
    argv = ["--catalog", "missing.json", "check", "p.bseq"]

    def once(side):
        cli = importlib.reload(side["cli"])
        if later:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()  # no gc.collect: it leaves a call this short slower
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        return seconds, (code, err.getvalue())

    return lambda sides, args: Case(1, once)


def catalog_load(sides, args):
    workload("eval-corrupted", args.seed)  # writes the catalog

    def once(side):
        seconds, catalog = timed(side["catalog"].Catalog.load, workloads.CATALOG)
        return seconds, catalog.dumps()

    return Case(1, once)


# A collision mesh's outcome: the mesh, its BVH and its boxes, named, so a
# side whose meshes keep other arrays too still compares.
MESH_ARRAYS = ("vertices", "triangles", "tri_vertices", "left", "right", "leaf", "extent",
               "leaf_tris", "center", "half", "lo_eps", "hi_eps", "tri_lo_eps", "tri_hi_eps")


def shard_meshes(sides, args):
    calls, _ = workload("eval-corrupted", args.seed)
    table = sides[1]["collision"].PartColliders
    real = table.get
    seen: dict = {}  # part ids in first-lookup order

    def recording(self, part_id):
        seen.setdefault(part_id, None)
        return real(self, part_id)

    table.get = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = sides[1]["cli"].main(calls[0].argv)
    finally:
        table.get = real
    if code != 0:
        raise SystemExit(f"shard-meshes: eval of the first shard exited {code}")

    def once(side):
        catalog = side["catalog"].Catalog.load(workloads.CATALOG)
        table = side["collision"].PartColliders.from_catalog(catalog)
        seconds, meshes = timed(lambda: [table.get(pid) for pid in seen])
        return seconds, [(m.closed, [getattr(m, k).tobytes() for k in MESH_ARRAYS])
                         for m in meshes]

    return Case(len(seen), once, detail=lambda _: f"{len(seen)} parts")


def parse_case(name: str):
    """A parse result's outcome is its repr: every field of every step, the
    line too, and the diagnosis."""

    def make(sides, args):
        _, shards = workload(name, args.seed)
        lines = sum(text.count("\n") for texts in shards for text in texts)

        def once(side):
            load, parse = side["catalog"].Catalog.load, side["program"].parse_program
            seconds, results = 0.0, []
            for texts in shards:
                catalog = load(workloads.CATALOG)
                for text in texts:
                    start = time.perf_counter()
                    result = parse(text, catalog)
                    seconds += time.perf_counter() - start
                    results.append(result)
            return seconds, list(map(repr, results))

        return Case(sum(map(len, shards)), once, "us/line", 1e6 / lines,
                    lambda _: f"{lines} lines")

    return make


def validate_case(name: str):
    """``validate_prefix`` on the programs that one round of a workload
    evaluates, each ``eval`` call with a freshly loaded catalog and a fresh
    mesh table, as the CLI makes them. A report's outcome is its JSON."""

    def make(sides, args):
        _, shards = workload(name, args.seed)

        def once(side):
            load, validate = side["catalog"].Catalog.load, side["program"].validate_prefix
            seconds, reports = 0.0, []
            for texts in shards:
                catalog = load(workloads.CATALOG)
                meshes = side["collision"].PartColliders.from_catalog(catalog)
                start = time.perf_counter()
                reports += [validate(text, catalog, meshes) for text in texts]
                seconds += time.perf_counter() - start
            return seconds, [report.to_json_obj() for report in reports]

        def actions(outcome):
            return f"{sum(r['connectivity_steps'] for r in outcome)} actions"

        return Case(sum(map(len, shards)), once, detail=actions)

    return make


def library_scan(sides, args, parts: int = 200):
    """``Catalog.load`` of a generated LDraw library directory: ``parts``
    parts, each a scaled box primitive and 1-16 studs (16-segment cylinders,
    as ``cli_digest.py`` writes them) on a 20-LDU grid
    (every tenth with one more stud scaled off the connector scale, which
    the scan rejects with a warning). The outcome is the sha256 of the
    catalog's JSON and its warnings, sorted."""
    root = Path("scan-library")
    (root / "p").mkdir(parents=True, exist_ok=True)
    (root / "parts").mkdir(exist_ok=True)
    (root / "p" / "box.dat").write_text("0 Box\n" + box_lines(1.0, -1.0, 1.0, 1.0))
    (root / "p" / "stud.dat").write_text("0 Stud\n" + cylinder_lines(6.0, 0.0, -4.0, cap=True))
    rng = np.random.default_rng([args.seed, 3])
    for k in range(parts):
        studs = rng.choice(16, size=int(rng.integers(1, 17)), replace=False)
        lines = [f"0 Generated Part {k}", "1 16 0 12 0 40 0 0 0 12 0 0 0 40 box.dat"]
        lines += [f"1 16 {20 * (i % 4) - 30} 0 {20 * (i // 4) - 30} 1 0 0 0 1 0 0 0 1 stud.dat"
                  for i in sorted(studs)]
        if k % 10 == 0:
            lines.append("1 16 0 -4 0 1.5 0 0 0 1 0 0 0 1.5 stud.dat")
        (root / "parts" / f"g{k:03d}.dat").write_text("\n".join(lines) + "\n")

    def once(side):
        seconds, catalog = timed(side["catalog"].Catalog.load, root)
        text = catalog.dumps() + "\0" + "\n".join(sorted(catalog.warnings))
        return seconds, hashlib.sha256(text.encode()).hexdigest()

    return Case(parts, once, "ms/part", 1e3 / parts, lambda _: f"{parts} parts")


CASES = {
    "sphere-1280": sphere_pairs(3, 1),
    "sphere-5120": sphere_pairs(4, 2),
    "demo-wall": part_pairs(wall),
    "demo-random": part_pairs(random_paths, limit=150),
    "build-demo": build_demo,
    "main-first": main_call(later=False),
    "main-later": main_call(later=True),
    "catalog-load": catalog_load,
    "shard-meshes": shard_meshes,
    "parse-eval-corrupted": parse_case("eval-corrupted"),
    "parse-dense-wall": parse_case("dense-wall"),
    "validate-eval-corrupted": validate_case("eval-corrupted"),
    "validate-dense-wall": validate_case("dense-wall"),
    "library-scan": library_scan,
}


def compare(name: str, case: Case, sides, reps: int) -> None:
    """Run the case ``reps`` times on each side, alternating which side
    runs first, and print its row; stop if the sides' outcomes differ."""
    times = ([], [])
    gc.collect()  # once: a collection before each call leaves the short ones slower
    for rep in range(reps):
        outcomes = [None, None]
        for k in ((0, 1) if rep % 2 == 0 else (1, 0)):
            seconds, outcomes[k] = case.run(sides[k])
            times[k].append(seconds)
        if outcomes[0] != outcomes[1]:
            raise SystemExit(f"{name}: the two sides disagree on an outcome")
    base, change = (case.scale * statistics.median(t) for t in times)
    won = sum(c < b for b, c in zip(*times))
    print(f"{name:<23} {case.items:>6} {case.detail(outcomes[1]):<12} {base:>9.3f} "
          f"{change:>9.3f} {case.unit:<7} {base / change:>6.2f} {won:>3}/{reps:<3}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--cases", default=",".join(CASES), help="comma-separated case names")
    args = ap.parse_args()
    names = args.cases.split(",")
    if unknown := [n for n in names if n not in CASES]:
        ap.error(f"unknown case {unknown[0]!r}; cases: {', '.join(CASES)}")

    sides = (load_side(args.base.resolve() / "src", "brickir_base"),
             load_side(ROOT / "src", "brickir"))
    print(f"{'case':<23} {'items':>6} {'holding':<12} {'base':>9} {'change':>9} {'unit':<7} "
          f"{'ratio':>6} {'won':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in names:
                compare(name, CASES[name](sides, args), sides, args.reps)
        finally:
            os.chdir(ROOT)


if __name__ == "__main__":
    main()
