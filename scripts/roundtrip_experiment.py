#!/usr/bin/env python3
"""Randomized serialize -> parse -> execute round-trip experiment.

Generates random build paths with exactly-quantized parameters over the demo
catalog, runs each through the text pipeline, and reports the pose residuals
against the source structures (modulo the root transform).
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from brickir.demo import build_demo_catalog, generate_random_path  # noqa: E402
from brickir.geometry import compose  # noqa: E402
from brickir.program import execute, node_letters, serialize  # noqa: E402
from conftest import rotation_angle_deg  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200, help="number of structures")
    ap.add_argument("--max-parts", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    catalog = build_demo_catalog()
    rng = np.random.default_rng(args.seed)
    rot_errs = []
    trans_errs = []
    parts_total = 0
    t0 = time.perf_counter()
    for _ in range(args.count):
        n = int(rng.integers(2, args.max_parts + 1))
        path = generate_random_path(catalog, rng, n)
        parts_total += len(path.nodes_in_order())
        text = serialize(path, catalog)
        poses = execute(text, catalog)
        letters = node_letters(path)
        root_pose = path.graph.nodes[path.root].pose
        for nid, letter in letters.items():
            src = path.graph.nodes[nid].pose
            got = compose(root_pose, poses[letter])
            rot_errs.append(rotation_angle_deg(got, src))
            trans_errs.append(float(np.abs(np.subtract(got.translation, src.translation)).max()))
    elapsed = time.perf_counter() - t0

    rot = np.array(rot_errs)
    trans = np.array(trans_errs)
    print(f"structures        {args.count}")
    print(f"parts total       {parts_total}")
    print(f"rotation error    max {rot.max():.3e} deg   mean {rot.mean():.3e}")
    print(f"translation error max {trans.max():.3e} LDU  mean {trans.mean():.3e}")
    print(f"elapsed           {elapsed:.2f}s")


if __name__ == "__main__":
    main()
