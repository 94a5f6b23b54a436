"""Command-line entry point: parse / graph / sample / serialize / execute /
check / stats / eval subcommands over the library pipeline.

Exit codes are a stable contract: 0 success, 1 I/O, 2 parse error,
3 catalog/annotation error, 4 validation failure under --strict. Runs with
identical inputs, flags and seed produce byte-identical output under one
OpenBLAS kernel, and under the Prescott, Haswell and SkylakeX kernels alike
except the pose bytes that parse and graph take from an LDraw file (LAPACK's
SVD, in geometry.nearest_rotation, can differ in the last bits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import graph as graph_mod
from . import ldraw, metrics, program
from .catalog import MESH_COORD_MAX, Catalog
from .collision import PartColliders
from .errors import (
    AnnotationError,
    BrickIrError,
    CatalogError,
    EncodingError,
    GraphParseError,
    LdrawParseError,
    ProgramError,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_CATALOG = 3
EXIT_VALIDATION = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused by
    every later one in the process (parsing keeps no state on it)."""
    p = argparse.ArgumentParser(
        prog="brickir",
        description="Graph-backed build-sequence toolchain for LDraw brick structures.",
    )
    p.add_argument("--catalog", help="catalog JSON file or LDraw library dir "
                                     "(or set BRICKIR_CATALOG)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (unsigned 64-bit)")
    p.add_argument("--max-parts", type=int, default=100, help="build-path part cap")
    p.add_argument("--pos-tol", type=float, default=1.0, help="match position tolerance (LDU)")
    p.add_argument("--axis-tol", type=float, default=2.0, help="match axis tolerance (deg)")
    p.add_argument("--strict", action="store_true", help="fail instead of recovering")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--inset", type=float, default=0.25,
                   help="collision-mesh inset in LDU (0 disables insetting)")
    p.add_argument("--no-collision", action="store_true",
                   help="skip collision checking in sample/check/eval")

    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("parse", help="flatten .ldr/.mpd into posed instances").add_argument("input")
    sub.add_parser("graph", help="build the connectivity graph of a structure").add_argument("input")
    sp = sub.add_parser("sample", help="sample build programs from graph JSON files")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--count", type=int, default=1)
    sub.add_parser("serialize", help="sample one path from a graph and print it").add_argument("input")
    sub.add_parser("execute", help="run a program back to world poses").add_argument("input")
    sc = sub.add_parser("check", help="validate program files step by step")
    sc.add_argument("inputs", nargs="+")
    st = sub.add_parser("stats", help="dataset statistics over graph JSON files")
    st.add_argument("inputs", nargs="+")
    se = sub.add_parser("eval", help="validity reports plus aggregate metrics")
    se.add_argument("inputs", nargs="+")
    return p


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _load_catalog(args) -> Catalog:
    where = args.catalog or os.environ.get("BRICKIR_CATALOG")
    if not where:
        raise CatalogError("no catalog given: pass --catalog or set BRICKIR_CATALOG")
    if not Path(where).exists():
        raise FileNotFoundError(where)
    catalog = Catalog.load(where)
    for w in catalog.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return catalog


def _read(path) -> str:
    """Program text or graph JSON, both UTF-8 by spec. (LDraw files are read
    as bytes: ``ldraw.decode`` falls back to latin-1.)"""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{path}: not UTF-8 text: {exc}") from None


def _colliders(args, catalog) -> PartColliders | None:
    if args.no_collision:
        return None
    return PartColliders.from_catalog(catalog, inset=args.inset)


def cmd_parse(args, catalog) -> int:
    warnings: list[str] = []
    instances = ldraw.parse_structure(
        Path(args.input).read_bytes(), catalog, strict=args.strict, warnings=warnings
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    obj = {
        "instances": [
            {
                "id": i.node_id,
                "part": i.part_id,
                "color": i.color,
                "pose": i.pose.to_json_obj(),
                "nonrigid": i.nonrigid,
            }
            for i in instances
        ]
    }
    _emit(_json_dumps(obj), args)
    return EXIT_OK


def _graph_from_input(path, catalog, args) -> graph_mod.ConnectivityGraph:
    if path.endswith(".json"):
        return graph_mod.ConnectivityGraph.loads(_read(path), catalog)
    instances = ldraw.parse_structure(Path(path).read_bytes(), catalog, strict=args.strict)
    tol = graph_mod.MatchTolerances(position=args.pos_tol, axis_deg=args.axis_tol)
    return graph_mod.match_connectors(instances, catalog, tol)


def cmd_graph(args, catalog) -> int:
    g = _graph_from_input(args.input, catalog, args)
    _emit(_json_dumps(g.to_json_obj()), args)
    return EXIT_OK


def cmd_sample(args, catalog) -> int:
    corpus = [_graph_from_input(p, catalog, args) for p in sorted(args.inputs)]
    paths = graph_mod.sample_corpus_paths(
        corpus,
        args.count,
        seed=args.seed,
        max_parts=args.max_parts,
        part_meshes=_colliders(args, catalog),
    )
    texts = [program.serialize(p, catalog) for p in paths]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        width = len(str(max(len(texts) - 1, 1)))
        for i, t in enumerate(texts):
            (out / f"path_{i:0{width}d}.bseq").write_text(t)
        return EXIT_OK
    _emit(_json_dumps({"programs": texts}), args)
    return EXIT_OK


def cmd_serialize(args, catalog) -> int:
    g = _graph_from_input(args.input, catalog, args)
    path = graph_mod.sample_path(g, max_parts=args.max_parts, seed=args.seed)
    _emit(program.serialize(path, catalog), args)
    return EXIT_OK


def cmd_execute(args, catalog) -> int:
    poses = program.execute(_read(args.input), catalog)
    _emit(_json_dumps({"poses": {n: p.to_json_obj() for n, p in poses.items()}}), args)
    return EXIT_OK


def _validate_file(path, catalog, colliders):
    """Validity report of one program file and the number of actions it
    attempts: its intro-like lines, and at least its valid prefix."""
    text = _read(path)
    report = program.validate_prefix(text, catalog, colliders)
    intro_like = sum(1 for line in text.splitlines() if " | " in line)
    return report, max(intro_like, report.connectivity_steps)


def _report_line(path, report) -> str:
    err = report["first_error"]
    suffix = f" first_error={err['code']}@{err['line']}" if err else ""
    return (
        f"{path}: connectivity={report['connectivity_steps']} "
        f"collision={report['collision_steps']}{suffix}"
    )


def cmd_check(args, catalog) -> int:
    colliders = _colliders(args, catalog)
    inputs = sorted(args.inputs)
    reports = [_validate_file(p, catalog, colliders)[0].to_json_obj() for p in inputs]
    if args.format == "text":
        _emit("\n".join(_report_line(p, r) for p, r in zip(inputs, reports)) + "\n", args)
    else:
        _emit(_json_dumps({"reports": dict(zip(inputs, reports))}), args)
    if args.strict and any(r["first_error"] for r in reports):
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_stats(args, catalog) -> int:
    corpus = [_graph_from_input(p, catalog, args) for p in sorted(args.inputs)]
    stats = metrics.dataset_stats(corpus)
    _emit(stats.to_csv() if args.format == "csv" else _json_dumps(stats.to_json_obj()), args)
    return EXIT_OK


def cmd_eval(args, catalog) -> int:
    colliders = _colliders(args, catalog)
    inputs = []
    for p in sorted(args.inputs):
        path = Path(p)
        if path.is_dir():
            inputs.extend(sorted(str(f) for f in path.iterdir() if f.is_file()))
        else:
            inputs.append(p)
    if not inputs:
        raise OSError(f"no program files in {', '.join(sorted(args.inputs))}")
    results = [_validate_file(p, catalog, colliders) for p in inputs]
    reports = [r for r, _ in results]
    curve = metrics.survival_curve(reports)
    invalid_flags = []
    for report, attempted in results:
        invalid_flags.extend(metrics.invalid_flags_from_report(report, attempted))
    aggregate = {
        "mean_connectivity_steps": metrics.mean_valid_steps(reports, "connectivity"),
        "mean_collision_steps": metrics.mean_valid_steps(reports, "collision"),
        "p_invalid": metrics.p_invalid(invalid_flags) if invalid_flags else 0.0,
        "survival_connectivity": curve.to_json_obj(),
    }
    if args.format == "csv":
        _emit(curve.to_csv(), args)
        return EXIT_OK
    if args.format == "text":
        lines = [
            _report_line(p, r.to_json_obj()) for p, (r, _) in zip(inputs, results)
        ]
        lines.append(
            f"mean connectivity={aggregate['mean_connectivity_steps']} "
            f"collision={aggregate['mean_collision_steps']} "
            f"p_invalid={aggregate['p_invalid']}"
        )
        _emit("\n".join(lines) + "\n", args)
        return EXIT_OK
    obj = {
        "reports": {p: r.to_json_obj() for p, (r, _) in zip(inputs, results)},
        "aggregate": aggregate,
    }
    _emit(_json_dumps(obj), args)
    return EXIT_OK


_COMMANDS = {
    "parse": cmd_parse,
    "graph": cmd_graph,
    "sample": cmd_sample,
    "serialize": cmd_serialize,
    "execute": cmd_execute,
    "check": cmd_check,
    "stats": cmd_stats,
    "eval": cmd_eval,
}


# numeric flags: (dest, test, requirement); a value that fails exits 2
_NUMBER_RULES = (
    ("seed", lambda v: v >= 0, ">= 0"),
    ("max_parts", lambda v: v >= 1, ">= 1"),
    ("count", lambda v: v >= 0, ">= 0"),
    ("pos_tol", math.isfinite, "finite"),
    ("axis_tol", math.isfinite, "finite"),
    ("inset", math.isfinite, "finite"),
    ("pos_tol", lambda v: v >= 0, ">= 0"),
    ("axis_tol", lambda v: v >= 0, ">= 0"),
    ("inset", lambda v: v >= 0, ">= 0"),
    ("inset", lambda v: v <= MESH_COORD_MAX, f"<= {MESH_COORD_MAX:g}"),  # no overflow in insetting
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for dest, ok, rule in _NUMBER_RULES:  # one argparse error line, as for a non-number
        value = getattr(args, dest, None)  # only sample has --count
        if value is not None and not ok(value):
            parser.error(f"argument --{dest.replace('_', '-')}: must be {rule}, got {value}")
    try:
        catalog = _load_catalog(args)
        return _COMMANDS[args.command](args, catalog)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc}", file=sys.stderr)
        return EXIT_IO
    except (EncodingError, GraphParseError, LdrawParseError, ProgramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AnnotationError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CATALOG
    except BrickIrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if args.strict else EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:  # e.g. a --count too large to allocate its draws
        print("error: out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
