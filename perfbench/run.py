#!/usr/bin/env python3
"""Benchmark of the brickir CLI on seeded workloads.

    python3 perfbench/run.py --workload dense-wall --seed 1 --seconds 40 --trace 0

Run from the root of a brickir checkout. The workload's inputs are made from
--seed, then its CLI calls run in this process through
``brickir.cli.main(argv)`` until --seconds have passed and at least
``Scale.min_items`` items have run. Outputs are checked after the window.

--trace 0 prints the end-to-end metrics; --trace 1 runs the prelude and one
round with every brickir layer wrapped in spans and counters, and prints the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON summary
(item count, error rate, output digest) for humans and perfbench/report.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
REQUIRED = ("src/brickir/cli.py",)
SETUP_REPEATS = 50


def fresh_setup(catalog_path: str) -> float:
    """Seconds a fresh brickir invocation pays before its first item:
    importing brickir.cli (numpy stays loaded), loading the catalog and
    building the collision meshes. The process's own brickir modules are put
    back afterwards, so the workload and the tracer keep using them."""
    own = {m: sys.modules.pop(m) for m in list(sys.modules) if _is_brickir(m)}
    try:
        start = time.perf_counter()
        importlib.import_module("brickir.cli")
        catalog = sys.modules["brickir.catalog"].Catalog.load(catalog_path)
        sys.modules["brickir.collision"].PartColliders.from_catalog(catalog)
        return time.perf_counter() - start
    finally:
        for m in [m for m in sys.modules if _is_brickir(m)]:
            del sys.modules[m]
        sys.modules.update(own)
        gc.collect()  # frees the fresh modules now, not during an item


def _is_brickir(module: str) -> bool:
    return module == "brickir" or module.startswith("brickir.")


def run_call(call):
    """Execute one CLI call; returns (seconds, exited 0)."""
    cli_main = importlib.import_module("brickir.cli").main  # looked up late: tracing replaces it
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli_main(call.argv)
    except Exception as exc:  # a traceback is a failed item, not a crash
        print(f"{call.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = -1
    seconds = time.perf_counter() - start
    if code != 0:
        print(f"{call.key}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
    return seconds, code == 0


def execute(workload, seconds: float, tracer=None, setup=None):
    """Run the prelude once, then rounds until the window closes (one round
    when traced). ``setup`` (a fresh_setup closure) runs SETUP_REPEATS times,
    between calls and spread evenly over the window, so its readings sample
    the same speed of the machine as the items do. Returns the per-call
    records, the first output of each call in the order the calls first ran,
    and the set-up readings."""
    from workloads import read_output

    first: dict = {}
    records = []  # (call, seconds, ok)
    setups = []
    items = 0
    start = time.perf_counter()
    deadline = start + seconds

    def due():
        return setup is not None and len(setups) < SETUP_REPEATS and (
            time.perf_counter() >= start + len(setups) * seconds / SETUP_REPEATS)

    def run(call):
        nonlocal items
        if due():
            setups.append(setup())
        items += call.item
        if tracer is not None:
            tracer.item = call.key
        # Every execution must write its own output, not leave an earlier one.
        target = Path(call.out)
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink(missing_ok=True)
        took, ok = run_call(call)
        out = read_output(call.out)
        if call.key not in first:
            first[call.key] = out
        elif out != first[call.key]:
            print(f"{call.key}: output differs from its first execution", file=sys.stderr)
            ok = False
        records.append((call, took, ok))

    def run_all():
        for call in workload.prelude():
            run(call)
        calls = workload.round()
        if not calls:
            return
        rounds = 0
        while True:
            for call in calls:
                if rounds and time.perf_counter() >= deadline and items >= workload.scale.min_items:
                    return
                run(call)
            rounds += 1
            if tracer is not None:
                return

    run_all()
    while setup is not None and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return records, first, setups


def check_outputs(records, first) -> set:
    """Keys of calls whose first output fails its reference check."""
    calls = {call.key: call for call, _, _ in records}
    bad = set()
    for key, out in first.items():
        try:
            ok = bool(calls[key].check(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            print(f"{key}: unreadable output: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"{key}: output does not match its reference", file=sys.stderr)
            bad.add(key)
    return bad


def output_digest(first) -> str:
    h = hashlib.sha256()
    for key, out in first.items():
        h.update(key.encode() + b"\0" + out + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a brickir checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        from brickir.demo import build_demo_catalog

        Path("setup_catalog.json").write_text(build_demo_catalog().dumps())
        import tracing
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        workload = workloads.make(args.workload, args.seed, workloads.Scale())

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        try:
            records, first, setup = execute(
                workload, args.seconds, tracer, lambda: fresh_setup("setup_catalog.json"))
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not any(call.item for call, _, _ in records):
            print("error: the workload ran no items", file=sys.stderr)
            return 1
        bad = check_outputs(records, first)
        summary, metrics = summarize(records, first, bad, setup, peak_rss_mb)
        summary.update(workload=args.workload, seed=args.seed, trace=args.trace,
                       input_digest=workload.input_digest())
        if tracer is not None:
            metrics = {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in tracing.layer_metrics(
                    tracer, summary["parts"], summary["cli_seconds"]).items()
            }
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a parallel run
            work.parent.rmdir()

    failed = summary["failed"]
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def summarize(records, first, bad, setup, peak_rss_mb):
    failed = sum(1 for call, _, ok in records if not ok or call.key in bad)
    latencies = [1000.0 * took for call, took, _ in records if call.item]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    parts = sum(call.parts for call, _, _ in records)
    cli_seconds = sum(took for _, took, _ in records)
    first_round = {}
    for call, took, _ in records:
        first_round.setdefault(call.key, (call.parts, took))
    summary = {
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "items": len(latencies),
        "items_beyond_p90": sum(1 for v in latencies if v > deciles[8]),
        "parts": parts,
        "cli_seconds": cli_seconds,
        "first_round_parts_per_s": sum(p for p, _ in first_round.values())
        / sum(t for _, t in first_round.values()),
        "output_digest": output_digest(first),
    }
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "parts_per_s": {"value": parts / cli_seconds, "unit": "parts/s"},
        "item_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
        "item_ms_p90": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return summary, metrics


if __name__ == "__main__":
    sys.exit(main())
