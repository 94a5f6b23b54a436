#!/usr/bin/env python3
"""Run every workload of the benchmark and print each metric by name with
its unit.

    python3 perfbench/report.py                      # 5 seeds per workload
    python3 perfbench/report.py --seeds 10 --record perfbench/trajectory/NAME.json

Run from the root of a brickir checkout. For each workload this runs
perfbench/run.py once per seed with tracing off, then once traced with the
first seed. It prints the median and quartiles of each end-to-end metric,
their spread (quartile distance over median) against the bound in
BENCHMARK.json, the per-layer metrics of the traced run, and the tracing
overhead: the first-round parts/s of the traced run against the untraced
run of the same seed. --record writes all of it, with the machine and the
line count of src/, as one trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    summary_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {
        "seed": seed,
        "trace": trace,
        "run_seconds": took,
        "summary": json.loads(summary_line)["summary"],
        "result": json.loads(result_line),
        "stderr": proc.stderr.strip(),
    }


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def machine() -> dict:
    import numpy

    src = Path("src")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py"))),
    }


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=5, help="untraced runs per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--record", help="write a trajectory entry to this JSON path")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    entry = {"label": args.label, "machine": machine(), "run_seconds": args.seconds,
             "workloads": {}}
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        traced = run_once(workload, args.first_seed, args.seconds, 1)
        print(f"\n== {workload}: {len(runs)} seeds, "
              f"items per run {min(r['summary']['items'] for r in runs)}"
              f"-{max(r['summary']['items'] for r in runs)}, "
              f"error_rate {max(r['summary']['error_rate'] for r in runs)}, "
              f"all correct {all(r['result']['correct'] for r in runs)}")
        table = {}
        print(f"{'metric':<16}{'unit':<9}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, meta in bounds.items():
            med, q1, q3, sp = spread([r["result"]["metrics"][name]["value"] for r in runs])
            table[name] = {"unit": meta["unit"], "median": med, "q1": q1, "q3": q3, "spread": sp}
            print(f"{name:<16}{meta['unit']:<9}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{sp:>9.3f}{meta['bound']:>7}")
        layers = traced["result"]["metrics"]
        base = runs[0]["summary"]["first_round_parts_per_s"]
        overhead = 1.0 - traced["summary"]["first_round_parts_per_s"] / base
        print(f"tracing overhead (seed {args.first_seed}, first round): {100 * overhead:.1f}% "
              f"of parts/s; digests equal: "
              f"{traced['summary']['output_digest'] == runs[0]['summary']['output_digest']}")
        for name, m in layers.items():
            print(f"  {name:<42}{m['value']:>16.4f} {m['unit']}")
        entry["workloads"][workload] = {
            "end_to_end": table,
            "per_layer": layers,
            "tracing_overhead": overhead,
            "output_digests": {r["seed"]: r["summary"]["output_digest"] for r in runs},
            "runs": runs,
            "traced": traced,
        }
    if args.record:
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
