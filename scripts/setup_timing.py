#!/usr/bin/env python3
"""Interleaved A/B timing of one CLI call's set-up between two checkouts.

    python scripts/setup_timing.py --base ../other-checkout [--reps 21] [--seed 77]

Loads this checkout's ``src/brickir`` and the one under ``--base`` side by
side in one process (the base as the package ``brickir_base``, as
``collision_timing.py`` does) and times each stage of a call's set-up on
both:

- ``main-first`` and ``main-later``: ``cli.main`` on a call that ends right
  after its arguments are parsed (its ``--catalog`` does not exist: exit 1),
  first after a fresh import of ``brickir.cli``, then once more in the same
  process. The first call builds the argument parser; whether a later one
  builds it again shows in ``main-later``.
- ``catalog-load``: ``Catalog.load`` of the demo catalog JSON.
- ``shard-meshes``: a fresh ``PartColliders`` table's lookups of the parts
  that the ``eval`` call of one ``eval-corrupted`` shard looks up, in that
  call's order: the inset builds of that call. The shard comes from the
  benchmark's own workload generator (``perfbench/workloads.py``) at
  ``--seed``.

Each rep runs every stage once on each side, the side that runs first
alternating between reps. Both sides must give the same exit code and
stderr, the same ``Catalog.dumps()`` and, part by part, the same mesh arrays.
Per stage it prints each side's median over the reps (ms of wall time), the
ratio base / change (above 1: the change is faster) and the number of reps
the change won.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from collision_timing import load_side  # noqa: E402
from perfbench.workloads import CATALOG, EvalCorrupted, Scale  # noqa: E402

MODULES = ("catalog", "cli", "collision")


def shard_lookups(side, shard: list[str], seed: int) -> list[str]:
    """The part ids, in first-lookup order, that one ``eval`` call over the
    shard looks up in its mesh table (serially, so the order is fixed)."""
    table = side["collision"].PartColliders
    real = table.get
    seen: dict = {}

    def recording(self, part_id):
        seen.setdefault(part_id, None)
        return real(self, part_id)

    table.get = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = side["cli"].main(["--catalog", CATALOG, "--jobs", "1", "eval", *shard])
    finally:
        table.get = real
    if code != 0:
        raise SystemExit(f"eval of shard at seed {seed} exited {code}")
    return list(seen)


def main_first_and_later(side, argv):
    """Seconds of a first ``main`` call after a fresh import of the CLI
    module and of a second call, and what each returned and printed."""
    cli = importlib.reload(side["cli"])
    side["cli"] = cli
    times, outcomes = [], []
    for _ in range(2):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        times.append(time.perf_counter() - start)
        outcomes.append((code, err.getvalue()))
    return times, outcomes


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def mesh_arrays(table, part_ids):
    """Per part, the mesh's closed flag and the bytes of every array."""
    return [
        (m.closed, {k: a.tobytes() for k, a in vars(m).items() if isinstance(a, np.ndarray)})
        for m in map(table.get, part_ids)
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--reps", type=int, default=21)
    ap.add_argument("--seed", type=int, default=77, help="seed of the eval-corrupted inputs")
    ap.add_argument("--shard", type=int, default=0, help="which shard's eval call to replay")
    args = ap.parse_args()

    sides = [load_side(args.base.resolve() / "src", "brickir_base", MODULES),
             load_side(ROOT / "src", "brickir", MODULES)]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        workload = EvalCorrupted(np.random.default_rng(args.seed), Scale())
        shard = workload.shards()[args.shard]
        part_ids = shard_lookups(sides[1], shard, args.seed)
        no_catalog = ["--catalog", "missing.json", "check", *shard]
        stages = ("main-first", "main-later", "catalog-load", "shard-meshes")
        times = {stage: ([], []) for stage in stages}
        for rep in range(args.reps):
            outcomes = {}
            for k in ((0, 1) if rep % 2 == 0 else (1, 0)):
                side = sides[k]
                (first, later), calls = main_first_and_later(side, no_catalog)
                load, catalog = timed(side["catalog"].Catalog.load, CATALOG)
                table = side["collision"].PartColliders.from_catalog(catalog)
                build, _ = timed(lambda: [table.get(pid) for pid in part_ids])
                for stage, seconds in zip(stages, (first, later, load, build)):
                    times[stage][k].append(seconds)
                outcomes[k] = (calls, catalog.dumps(), mesh_arrays(table, part_ids))
            if outcomes[0] != outcomes[1]:
                raise SystemExit("the two sides disagree on an exit code, a catalog or a mesh")
        os.chdir(ROOT)

    print(f"shard {args.shard} at seed {args.seed}: {len(shard)} programs, "
          f"{len(part_ids)} parts looked up")
    print(f"{'stage':<13} {'base ms':>8} {'change ms':>9} {'ratio':>6} {'won':>7}")
    for stage in stages:
        base, change = times[stage]
        base_ms, change_ms = (1e3 * statistics.median(t) for t in (base, change))
        won = sum(c < b for b, c in zip(base, change))
        print(f"{stage:<13} {base_ms:>8.3f} {change_ms:>9.3f} {base_ms / change_ms:>6.2f} "
              f"{won:>3}/{args.reps:<3}")


if __name__ == "__main__":
    main()
