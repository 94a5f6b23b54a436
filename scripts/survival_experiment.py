#!/usr/bin/env python3
"""Survival-at-k experiment over a synthetically corrupted sequence batch.

Serializes random valid build sequences, corrupts a fraction of them with a
single bad token at a random placement action, writes them and the demo
catalog to a temporary directory, and runs ``brickir --no-collision eval``
on them. Prints eval's aggregate (survival curve, mean valid steps, pooled
invalid-placement proportion) with the batch size, and optionally writes the
survival curve as CSV.

    python scripts/survival_experiment.py --count 500 --csv curve.csv
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from brickir.cli import main as cli_main
from brickir.demo import build_demo_catalog, generate_random_path
from brickir.program import serialize

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's workloads

from perfbench.workloads import CORRUPTIONS, corrupt_at  # noqa: E402


def corrupt(text: str, rng) -> str:
    """One corruption of ``CORRUPTIONS``, drawn after the placement action
    it hits (never the root); a program of fewer than two parts is kept."""
    intros = sum(1 for line in text.splitlines() if " | " in line)
    if intros < 2:
        return text
    action = int(rng.integers(1, intros))
    kind = CORRUPTIONS[int(rng.integers(len(CORRUPTIONS)))]
    return corrupt_at(text, action, kind)


def _run(argv) -> str:
    """stdout of one ``brickir`` call, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"brickir {' '.join(argv)} exited {code}")
    return out.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500, help="sequences in the batch")
    ap.add_argument("--max-parts", type=int, default=40)
    ap.add_argument("--corrupt-fraction", type=float, default=0.6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", help="write the survival curve to this CSV path")
    args = ap.parse_args()

    catalog = build_demo_catalog()
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "catalog.json").write_text(catalog.dumps())
        programs = root / "programs"
        programs.mkdir()
        for i in range(args.count):
            n = int(rng.integers(3, args.max_parts + 1))
            text = serialize(generate_random_path(catalog, rng, n), catalog)
            if rng.random() < args.corrupt_fraction:
                text = corrupt(text, rng)
            (programs / f"p{i:06d}.bseq").write_text(text)
        argv = ["--catalog", str(root / "catalog.json"), "--no-collision"]
        aggregate = json.loads(_run(argv + ["eval", str(programs)]))["aggregate"]
        if args.csv:
            Path(args.csv).write_text(_run(argv + ["--format", "csv", "eval", str(programs)]))

    print(json.dumps({"sequences": args.count, **aggregate}, indent=1, sort_keys=True))
    if args.csv:
        print(f"curve written to {args.csv}")


if __name__ == "__main__":
    main()
