"""Spans and counters around brickir's public functions, installed from the
benchmark by replacing module and class attributes (the library is not
edited).

A span records (id, name, start, end, parent, item, thread). Parents are
tracked per thread. A span opened on a thread that has no open span of its
own, such as a ``--jobs`` pool worker, takes the innermost open span of the
thread that created the tracer as its parent, so worker spans nest under the
CLI call that started the pool. Spans stay in memory until ``layer_metrics``
reads them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, item, thread)
        self.counts: Counter = Counter()
        self.item = None  # id of the CLI call in progress, set by the runner
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def span(self, name: str, fn, on_exit=None):
        """``fn`` wrapped in a span; ``on_exit(tracer, args, result)`` runs
        after the span closes, so its cost lands in the parent's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, start, end, parent, self.item, threading.get_ident())
                )
            if on_exit is not None:
                on_exit(self, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped to count its calls, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` by ``wrap(original)``; classmethods stay
        classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _count(name, measure):
    def on_exit(tracer, args, result):
        tracer.add(name, measure(args, result))

    return on_exit


def _both(*hooks):
    def on_exit(tracer, args, result):
        for hook in hooks:
            hook(tracer, args, result)

    return on_exit


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every brickir module a workload reaches.

    Call sites inside the library look these names up on their module or
    class at call time, so replacing the attribute is enough.
    """
    cli, catalog, collision, geometry, graph, ldraw, metrics, program = (
        importlib.import_module(f"brickir.{m}")
        for m in ("cli", "catalog", "collision", "geometry", "graph", "ldraw", "metrics", "program")
    )
    span = tracer.span

    tracer.patch(cli, "main", lambda f: span("cli", f))
    tracer.patch(catalog.Catalog, "load", lambda f: span("catalog.load", f))
    tracer.patch(
        collision.PartColliders, "from_catalog", lambda f: span("collision.colliders_build", f)
    )
    tracer.patch(ldraw, "parse_structure", lambda f: span(
        "ldraw.parse_structure", f, _count("ldraw.instances", lambda a, r: len(r))))
    tracer.patch(graph, "match_connectors", lambda f: span(
        "graph.match_connectors", f, _both(
            _count("graph.match_connectors.parts", lambda a, r: len(a[0])),
            _count("graph.edges", lambda a, r: len(r.edges)),
        )))
    tracer.patch(graph.ConnectivityGraph, "loads", lambda f: span("graph.json_loads", f))
    tracer.patch(graph.ConnectivityGraph, "to_json_obj", lambda f: span("graph.json_dumps", f))
    tracer.patch(graph, "sample_path", lambda f: span(
        "graph.sample_path", f, _count("graph.sample_path.steps", lambda a, r: len(r.steps))))
    tracer.patch(graph, "truncate_on_collision", lambda f: span(
        "graph.truncate_on_collision", f, _both(
            _count("graph.truncate.steps_in", lambda a, r: len(a[0].steps)),
            _count("graph.truncate.steps_kept", lambda a, r: len(r.steps)),
        )))
    tracer.patch(program, "serialize", lambda f: span("program.serialize", f))
    tracer.patch(program, "parse_program", lambda f: span(
        "program.parse_program", f, _count("program.parse_program.lines",
                                           lambda a, r: a[0].count("\n"))))
    tracer.patch(program, "validate_prefix", lambda f: span(
        "program.validate_prefix", f, _both(
            _count("program.actions_attempted",
                   lambda a, r: a[0].count(" | ") if isinstance(a[0], str) else 0),
            _count("program.actions_valid", lambda a, r: r.connectivity_steps),
        )))
    # After add() the checker holds one more placement: the broad phase
    # compared the new part against all the others.
    tracer.patch(collision.AssemblyChecker, "add", lambda f: span(
        "collision.add", f, _count("collision.broadphase_pairs", lambda a, r: len(a[0]) - 1)))
    tracer.patch(collision, "intersects", lambda f: span(
        "collision.intersects", f, _count("collision.intersects.hits", lambda a, r: int(r))))
    tracer.patch(collision, "tri_tri_intersect", lambda f: tracer.counter("collision.tri_tests", f))
    for name in ("survival_curve", "mean_valid_steps", "p_invalid", "invalid_flags_from_report"):
        tracer.patch(metrics, name, lambda f: span("metrics", f))
    tracer.patch(geometry.RigidTransform, "__post_init__",
                 lambda f: tracer.counter("geometry.rigid_transforms", f))
    tracer.patch(geometry.ConnectorFrame, "__post_init__",
                 lambda f: tracer.counter("geometry.connector_frames", f))


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: total self seconds, call count and the list of
    durations. Self time is a span's duration minus the part of it that
    its children cover (children on pool threads may overlap)."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    durations = defaultdict(list)
    for sid, name, start, end, _, _, _ in spans:
        self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        calls[name] += 1
        durations[name].append(end - start)
    return self_s, calls, durations


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, parts: int, wall: float) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}.
    ``parts`` and ``wall`` are the round's parts and CLI wall seconds."""
    self_s, calls, durations = self_times(tracer.spans)
    c = tracer.counts
    cli_wall = sum(durations["cli"])

    def median_ms(name):
        return 1000.0 * statistics.median(durations[name]) if durations[name] else 0.0

    collision_self = self_s["collision.add"] + self_s["collision.intersects"]
    return {
        "catalog.load_ms": (median_ms("catalog.load"), "ms"),
        "collision.colliders_build_ms": (median_ms("collision.colliders_build"), "ms"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.calls": (calls["cli"], "count"),
        "ldraw.parse_structure.self_s": (self_s["ldraw.parse_structure"], "s"),
        "ldraw.parse_structure.us_per_part": (
            _ratio(self_s["ldraw.parse_structure"], c["ldraw.instances"], 1e6), "us"),
        "ldraw.instances": (c["ldraw.instances"], "count"),
        "graph.match_connectors.self_s": (self_s["graph.match_connectors"], "s"),
        "graph.match_connectors.us_per_part": (
            _ratio(self_s["graph.match_connectors"], c["graph.match_connectors.parts"], 1e6), "us"),
        "graph.match_connectors.self_share": (
            _ratio(self_s["graph.match_connectors"], cli_wall), "ratio"),
        "graph.edges": (c["graph.edges"], "count"),
        "graph.json_loads.self_s": (self_s["graph.json_loads"], "s"),
        "graph.json_dumps.self_s": (self_s["graph.json_dumps"], "s"),
        "graph.sample_path.self_s": (self_s["graph.sample_path"], "s"),
        "graph.sample_path.calls": (calls["graph.sample_path"], "count"),
        "graph.sample_path.us_per_step": (
            _ratio(self_s["graph.sample_path"], c["graph.sample_path.steps"], 1e6), "us"),
        "graph.truncate_on_collision.self_s": (self_s["graph.truncate_on_collision"], "s"),
        "graph.truncate.kept_ratio": (
            _ratio(c["graph.truncate.steps_kept"], c["graph.truncate.steps_in"]), "ratio"),
        "program.serialize.self_s": (self_s["program.serialize"], "s"),
        "program.parse_program.self_s": (self_s["program.parse_program"], "s"),
        "program.parse_program.us_per_line": (
            _ratio(self_s["program.parse_program"], c["program.parse_program.lines"], 1e6), "us"),
        "program.validate_prefix.self_s": (self_s["program.validate_prefix"], "s"),
        "program.validate_prefix.us_per_action": (
            _ratio(self_s["program.validate_prefix"], c["program.actions_valid"], 1e6), "us"),
        "program.valid_action_ratio": (
            _ratio(c["program.actions_valid"], c["program.actions_attempted"]), "ratio"),
        "collision.add.calls": (calls["collision.add"], "count"),
        "collision.add.self_s": (self_s["collision.add"], "s"),
        "collision.broadphase_pairs": (c["collision.broadphase_pairs"], "count"),
        "collision.intersects.calls": (calls["collision.intersects"], "count"),
        "collision.intersects.self_s": (self_s["collision.intersects"], "s"),
        "collision.intersects.hits": (c["collision.intersects.hits"], "count"),
        "collision.narrowphase_ratio": (
            _ratio(calls["collision.intersects"], c["collision.broadphase_pairs"]), "ratio"),
        "collision.tri_tests": (c["collision.tri_tests"], "count"),
        "collision.self_share": (_ratio(collision_self, cli_wall), "ratio"),
        "metrics.self_s": (self_s["metrics"], "s"),
        "geometry.rigid_transforms": (c["geometry.rigid_transforms"], "count"),
        "geometry.connector_frames": (c["geometry.connector_frames"], "count"),
        "trace.parts_per_s": (_ratio(parts, wall), "parts/s"),
    }
