#!/usr/bin/env python3
"""Interleaved A/B timing of ``program.parse_program`` between two checkouts.

    python scripts/parse_timing.py --base ../other-checkout [--reps 15] [--seed 77]

Loads this checkout's ``src/brickir`` and the one under ``--base`` side by
side in one process (the base as the package ``brickir_base``, as
``collision_timing.py`` does) and parses the same program texts on both:
the programs that the ``eval`` calls of one round of the ``eval-corrupted``
and ``dense-wall`` workloads evaluate at ``--seed``, made through the
benchmark's own workload generator (``perfbench/workloads.py``; the
dense-wall programs come from its ``graph`` and ``sample`` calls, run here
through this checkout's CLI). As the CLI does, each side loads one fresh
catalog per ``eval`` call (shard) and parses that shard's programs with it;
only the ``parse_program`` calls are timed.

Each rep parses every shard of a workload once on each side, the side that
runs first alternating between reps. Both sides must give equal parse
results, step lines and diagnoses included. Per workload it prints each
side's median over the reps in µs per line (lines as the benchmark's tracer
counts them: newlines), the ratio base / change (above 1: the change is
faster) and the number of reps the change won.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import gc
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from collision_timing import load_side  # noqa: E402
from perfbench import workloads  # noqa: E402

MODULES = ("catalog", "cli", "program")
WORKLOADS = ("eval-corrupted", "dense-wall")


def eval_shards(name: str, seed: int, cli) -> list[list[str]]:
    """The texts of the programs each ``eval`` call of one round of the
    workload evaluates, one list per call, made in the current directory."""
    workload = workloads.make(name, seed, workloads.Scale())
    for call in workload.prelude():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(call.argv) != 0:
                raise SystemExit(f"{name}: prelude call {call.key} failed")
    shards = []
    for call in workload.round():
        files = call.argv[call.argv.index("eval") + 1:]
        shards.append([Path(f).read_text(encoding="utf-8") for f in files])
    return shards


def outcome(result) -> tuple:
    """A parse result as plain values, comparable across the two packages:
    every field of every step (``line`` too), and the diagnosis."""
    steps = []
    for step in result.program.steps:
        values = []
        for f in dataclasses.fields(step):
            v = getattr(step, f.name)
            if dataclasses.is_dataclass(v):
                v = dataclasses.astuple(v)
            elif isinstance(v, enum.Enum):
                v = v.value
            values.append(v)
        steps.append((type(step).__name__, *values))
    error = result.error
    return tuple(steps), error and (error.line, error.code, error.message)


def parse_shards(side, shards) -> tuple[float, list]:
    """Seconds spent in ``parse_program`` over every shard, each with a
    freshly loaded catalog, and the results."""
    load, parse = side["catalog"].Catalog.load, side["program"].parse_program
    seconds, results = 0.0, []
    gc.collect()
    for texts in shards:
        catalog = load(workloads.CATALOG)
        for text in texts:
            start = time.perf_counter()
            result = parse(text, catalog)
            seconds += time.perf_counter() - start
            results.append(result)
    return seconds, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="root of the other checkout")
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=77, help="seed of the workloads' inputs")
    args = ap.parse_args()

    sides = [load_side(args.base.resolve() / "src", "brickir_base", MODULES),
             load_side(ROOT / "src", "brickir", MODULES)]
    print(f"{'workload':<15} {'programs':>8} {'lines':>7} {'base us':>8} {'change us':>9} "
          f"{'ratio':>6} {'won':>7}")
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            shards = eval_shards(name, args.seed, sides[1]["cli"])
            lines = sum(text.count("\n") for texts in shards for text in texts)
            times = ([], [])
            for rep in range(args.reps):
                outcomes = {}
                for k in ((0, 1) if rep % 2 == 0 else (1, 0)):
                    seconds, results = parse_shards(sides[k], shards)
                    times[k].append(seconds)
                    outcomes[k] = [outcome(r) for r in results]
                if outcomes[0] != outcomes[1]:
                    raise SystemExit(f"{name}: the two sides disagree on a parse result")
            os.chdir(ROOT)
        base_us, change_us = (1e6 * statistics.median(t) / lines for t in times)
        won = sum(c < b for b, c in zip(*times))
        programs = sum(map(len, shards))
        print(f"{name:<15} {programs:>8} {lines:>7} {base_us:>8.2f} {change_us:>9.2f} "
              f"{base_us / change_us:>6.2f} {won:>3}/{args.reps:<3}")


if __name__ == "__main__":
    main()
