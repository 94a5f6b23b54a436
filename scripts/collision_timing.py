#!/usr/bin/env python3
"""Interleaved A/B timing of ``collision.intersects`` and ``inset_mesh``
between two checkouts.

    python scripts/collision_timing.py --base ../other-checkout [--reps 15] [--threads 2]

Loads this checkout's ``src/brickir`` and the one under ``--base`` side by
side in one process (the base as the package ``brickir_base``), builds each
side's meshes from the same inputs, and times the same work on both:

- ``sphere-1280`` and ``sphere-5120``: 30 near-contact pairs of geodesic
  spheres with 1280 and 5120 triangles (radii 10 and 6, centres 16 +- 0.5
  apart, random orientations);
- ``demo-wall``: every pair with overlapping world boxes in a running-bond
  wall of inset demo bricks, two bricks deep, with technic pins in the
  channels of every sixth course (collision-free and densely touching, like
  the ``dense-wall`` benchmark workload: its pairs are pins in channels);
- ``demo-random``: the first 150 pairs with overlapping world boxes in
  seeded random build paths over the demo catalog (parts at connector poses,
  many of them colliding);
- ``build-demo``: ``inset_mesh`` of the 16 demo parts at the default 0.25
  LDU inset (``PartColliders``' build of each part's mesh).

Each rep runs every item of a case once on each side, the side that runs
first alternating between reps. With ``--threads N`` each side's items are
split into N contiguous chunks that N threads run at once, as the CLI's
``--jobs`` pool does, so the cost of numpy calls that release and re-take
the GIL shows. Both sides must return the same verdict on every query, and
the same vertex and triangle arrays for every mesh. Per case it prints each
side's median over the reps (ms of wall time for all items of the case), the
ratio base / change (above 1: the change is faster) and the number of reps
the change won.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import icosphere_mesh, random_rotation  # noqa: E402


def load_side(src: Path, name: str, modules=("collision", "demo", "geometry")):
    """The brickir package under ``src`` imported as ``name``, with the
    given submodules (by default those this script uses)."""
    if name not in sys.modules:
        init = src / "brickir" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in modules}


def sphere_queries(subdivisions: int, rng):
    """30 near-contact sphere pairs: (mesh a, pose a, mesh b, pose b) as
    raw vertex/triangle arrays and (rotation, translation) pairs."""
    big, small = icosphere_mesh(10.0, subdivisions), icosphere_mesh(6.0, subdivisions)
    queries = []
    for _ in range(30):
        direction = rng.normal(size=3)
        centre = direction / np.linalg.norm(direction) * (16.0 + rng.uniform(-0.5, 0.5))
        pa = (random_rotation(rng), rng.uniform(-20.0, 20.0, 3))
        pb = (pa[0] @ random_rotation(rng), pa[0] @ centre + pa[1])
        queries.append((big, pa, small, pb))
    return queries


def wall_instances(length: int = 8, courses: int = 12):
    """A running-bond wall of 1x2 bricks, two deep, every sixth course of
    technic bricks whose front and back channels one technic pin joins:
    (part id, rotation, translation) per part."""
    eye = np.eye(3)
    out = []
    for k in range(courses):
        technic = k % 6 == 3
        for i in range(length):
            x = 20.0 * (k % 2) + 40.0 * i
            for z in (0.0, 20.0):
                out.append(("3700" if technic else "3004", eye, np.array([x, -24.0 * k, z])))
            if technic:
                out.append(("3673", eye, np.array([x, -24.0 * k + 12.0, 10.0])))
    return out


def random_path_instances(side, rng, paths: int = 12, parts: int = 30):
    catalog = side["demo"].build_demo_catalog()
    out = []
    for _ in range(paths):
        path = side["demo"].generate_random_path(catalog, rng, parts)
        for nid in path.nodes_in_order():
            node = path.graph.nodes[nid]
            pose = node.pose
            out.append((node.part_id, np.array(pose.rotation), np.array(pose.translation)))
    return out


def near_pairs(side, instances, limit=None):
    """Index pairs (i, j), i < j, whose posed mesh boxes overlap, as the
    broad phase would pass them on."""
    colliders = side["collision"].PartColliders.from_catalog(side["demo"].build_demo_catalog())
    boxes = []
    for pid, rot, trans in instances:
        mesh = colliders.get(pid)
        corners = mesh.vertices @ rot.T + trans
        boxes.append((corners.min(axis=0), corners.max(axis=0)))
    pairs = []
    for j in range(len(instances)):
        for i in range(j):
            if (boxes[i][0] <= boxes[j][1]).all() and (boxes[j][0] <= boxes[i][1]).all():
                pairs.append((i, j))
    return pairs[:limit]


def part_queries(instances, pairs):
    return [(instances[i], instances[j]) for i, j in pairs]


def bind(side, case):
    """The case's work on one side: (function, argument tuples)."""
    col, geo = side["collision"], side["geometry"]
    kind, items = case
    if kind == "build":
        return col.inset_mesh, items
    if kind == "mesh":
        meshes = {}

        def mesh(vt):
            key = id(vt[0])
            if key not in meshes:
                meshes[key] = col.CollisionMesh.build(*vt)
            return meshes[key]

        return col.intersects, [
            (mesh(a), geo.RigidTransform(*pa), mesh(b), geo.RigidTransform(*pb))
            for a, pa, b, pb in items
        ]
    colliders = col.PartColliders.from_catalog(side["demo"].build_demo_catalog())
    return col.intersects, [
        (colliders.get(a[0]), geo.RigidTransform(a[1], a[2]),
         colliders.get(b[0]), geo.RigidTransform(b[1], b[2]))
        for a, b in items
    ]


def run_side(fn, items, threads: int) -> tuple[float, list]:
    """Wall seconds to run ``fn`` on every item, split over ``threads``
    threads in contiguous chunks, and the results in item order."""
    chunks = [items[k * len(items) // threads:(k + 1) * len(items) // threads]
              for k in range(threads)]
    results = [None] * threads

    def work(k):
        results[k] = [fn(*args) for args in chunks[k]]

    gc.collect()
    t0 = time.perf_counter()
    if threads == 1:
        work(0)
    else:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    return time.perf_counter() - t0, [r for chunk in results for r in chunk]


def outcome(result):
    """A query's verdict, or a mesh's vertex and triangle bytes."""
    if isinstance(result, bool):
        return result
    return result.vertices.tobytes(), result.triangles.tobytes()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1, choices=(1, 2))
    ap.add_argument("--cases", default="sphere-1280,sphere-5120,demo-wall,demo-random,build-demo")
    args = ap.parse_args()

    change = load_side(ROOT / "src", "brickir")
    base = load_side(args.base.resolve() / "src", "brickir_base")
    wall = wall_instances()
    randoms = random_path_instances(change, np.random.default_rng([args.seed, 0]))
    demo_parts = change["demo"].build_demo_catalog().parts.values()
    makers = {
        "sphere-1280": lambda: ("mesh", sphere_queries(3, np.random.default_rng([args.seed, 1]))),
        "sphere-5120": lambda: ("mesh", sphere_queries(4, np.random.default_rng([args.seed, 2]))),
        "demo-wall": lambda: ("parts", part_queries(wall, near_pairs(change, wall))),
        "demo-random": lambda: (
            "parts", part_queries(randoms, near_pairs(change, randoms, limit=150))
        ),
        "build-demo": lambda: (
            "build", [(p.mesh.vertices, p.mesh.triangles, 0.25) for p in demo_parts]
        ),
    }
    print(f"{'case':<12} {'items':>7} {'hits':>5} {'base ms':>9} {'change ms':>9} "
          f"{'ratio':>6} {'won':>7}")
    for name in args.cases.split(","):
        case = makers[name]()
        sides = [bind(base, case), bind(change, case)]
        times = ([], [])
        for rep in range(args.reps):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            outcomes = {}
            for k in order:
                elapsed, results = run_side(*sides[k], args.threads)
                times[k].append(elapsed)
                outcomes[k] = [outcome(r) for r in results]
            if outcomes[0] != outcomes[1]:
                raise SystemExit(f"{name}: the two sides disagree on a result")
        base_ms, change_ms = (1e3 * statistics.median(t) for t in times)
        won = sum(c < b for b, c in zip(*times))
        hits = sum(o is True for o in outcomes[1]) if case[0] != "build" else "-"
        print(f"{name:<12} {len(case[1]):>7} {hits:>5} {base_ms:>9.1f} "
              f"{change_ms:>9.1f} {base_ms / change_ms:>6.2f} {won:>3}/{args.reps:<3}")


if __name__ == "__main__":
    main()
