#!/usr/bin/env python3
"""Interleaved A/B timing of ``collision.intersects`` between two checkouts.

    python scripts/collision_timing.py --base ../other-checkout [--reps 15]

Loads this checkout's ``src/brickir`` and the one under ``--base`` side by
side in one process (the base as the package ``brickir_base``), builds each
side's meshes from the same inputs, and times the same queries on both:

- ``sphere-1280`` and ``sphere-5120``: 30 near-contact pairs of geodesic
  spheres with 1280 and 5120 triangles (radii 10 and 6, centres 16 +- 0.5
  apart, random orientations);
- ``demo-wall``: every pair with overlapping world boxes in a running-bond
  wall of inset demo bricks, two bricks deep, with technic pins in the
  channels of every sixth course (collision-free and densely touching, like
  the ``dense-wall`` benchmark workload: its pairs are pins in channels);
- ``demo-random``: the first 150 pairs with overlapping world boxes in
  seeded random build paths over the demo catalog (parts at connector poses,
  many of them colliding).

Each rep times every query of a case once on each side, the side that runs
first alternating between reps. Both sides must return the same verdict on
every query. Per case it prints each side's median over the reps (ms for all
queries of the case), the ratio base / change (above 1: the change is
faster) and the number of reps the change won.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import icosphere_mesh, random_rotation  # noqa: E402


def load_side(src: Path, name: str):
    """The brickir package under ``src`` imported as ``name``, with the
    submodules this script uses."""
    if name not in sys.modules:
        init = src / "brickir" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("collision", "demo", "geometry")}


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
            out.append((node.part_id, node.pose.rotation, node.pose.translation))
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
    """The case's queries as (mesh a, pose a, mesh b, pose b) of one side."""
    col, geo = side["collision"], side["geometry"]
    kind, queries = case
    if kind == "mesh":
        meshes = {}

        def mesh(vt):
            key = id(vt[0])
            if key not in meshes:
                meshes[key] = col.CollisionMesh.build(*vt)
            return meshes[key]

        return [
            (mesh(a), geo.RigidTransform(*pa), mesh(b), geo.RigidTransform(*pb))
            for a, pa, b, pb in queries
        ]
    colliders = col.PartColliders.from_catalog(side["demo"].build_demo_catalog())
    return [
        (colliders.get(a[0]), geo.RigidTransform(a[1], a[2]),
         colliders.get(b[0]), geo.RigidTransform(b[1], b[2]))
        for a, b in queries
    ]


def run_side(intersects, queries) -> tuple[float, list[bool]]:
    gc.collect()
    t0 = time.perf_counter()
    verdicts = [intersects(a, pa, b, pb) for a, pa, b, pb in queries]
    return time.perf_counter() - t0, verdicts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cases", default="sphere-1280,sphere-5120,demo-wall,demo-random")
    args = ap.parse_args()

    change = load_side(ROOT / "src", "brickir")
    base = load_side(args.base.resolve() / "src", "brickir_base")
    wall = wall_instances()
    randoms = random_path_instances(change, np.random.default_rng([args.seed, 0]))
    makers = {
        "sphere-1280": lambda: ("mesh", sphere_queries(3, np.random.default_rng([args.seed, 1]))),
        "sphere-5120": lambda: ("mesh", sphere_queries(4, np.random.default_rng([args.seed, 2]))),
        "demo-wall": lambda: ("parts", part_queries(wall, near_pairs(change, wall))),
        "demo-random": lambda: (
            "parts", part_queries(randoms, near_pairs(change, randoms, limit=150))
        ),
    }
    print(f"{'case':<12} {'queries':>7} {'hits':>5} {'base ms':>9} {'change ms':>9} "
          f"{'ratio':>6} {'won':>7}")
    for name in args.cases.split(","):
        case = makers[name]()
        sides = [(base["collision"].intersects, bind(base, case)),
                 (change["collision"].intersects, bind(change, case))]
        times = ([], [])
        for rep in range(args.reps):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            verdicts = {}
            for k in order:
                elapsed, verdicts[k] = run_side(*sides[k])
                times[k].append(elapsed)
            if verdicts[0] != verdicts[1]:
                raise SystemExit(f"{name}: the two sides disagree on a verdict")
        base_ms, change_ms = (1e3 * statistics.median(t) for t in times)
        won = sum(c < b for b, c in zip(*times))
        print(f"{name:<12} {len(case[1]):>7} {sum(verdicts[1]):>5} {base_ms:>9.1f} "
              f"{change_ms:>9.1f} {base_ms / change_ms:>6.2f} {won:>3}/{args.reps:<3}")


if __name__ == "__main__":
    main()
