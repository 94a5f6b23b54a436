"""The benchmark's workloads: seeded input generation, the CLI calls each one
makes, and the checks of their outputs against references that do not come
from the code under test.

A workload is a list of CLI calls. The prelude runs once; the round runs
again and again until the measuring window closes. Each call is
``brickir.cli.main(argv)`` in this process, with outputs written under
``--out`` and read back afterwards. The first execution of a call is checked
against its reference after the window; every later execution must
reproduce the first one's output bytes exactly.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from brickir.demo import build_demo_catalog, generate_random_path
from brickir.program import serialize

CATALOG = "catalog.json"
MAX_PARTS = 100  # the CLI's --max-parts default, which every call keeps
CORRUPTIONS = ("unknown-part", "bad-token", "bad-params", "dangling-target")
IDENTITY = "1 0 0 0 1 0 0 0 1"
# dense-wall: 12 courses, of which courses 3 and 9 are pinned technic bricks.
# Fixed, so that every seed's walls have the same share of pins, which set
# the collision cost; seeds vary length, colours and the sampled paths.
WALL_COURSES = 12
TECHNIC_EVERY = 6
TECHNIC_PHASE = 3


@dataclass
class Scale:
    """Input sizes. The defaults are the benchmark's; tests shrink them."""

    programs: int = 240  # eval-corrupted: programs per round
    shard: int = 4  # eval-corrupted: programs per eval call
    walls: int = 2  # dense-wall: walls, each with one graph and one sample call
    wall_paths: int = 5  # dense-wall: programs sampled per wall
    wall_shard: int = 2  # dense-wall: programs per eval call
    min_items: int = 100  # p90 then has at least ten samples beyond it


@dataclass
class Call:
    """One CLI call. ``out`` is the file or directory it writes; ``check``
    judges the bytes of its first execution."""

    key: str
    argv: list
    out: str
    item: bool
    parts: int
    check: object = field(repr=False)


def read_output(out: str) -> bytes:
    path = Path(out)
    if path.is_dir():
        return b"".join(
            f.name.encode() + b"\0" + f.read_bytes() + b"\0" for f in sorted(path.iterdir())
        )
    return path.read_bytes() if path.exists() else b""


def _programs(blob: bytes) -> list[str]:
    """The files of a directory output (see read_output), as text."""
    parts = blob.split(b"\0")
    return [parts[i].decode() for i in range(1, len(parts) - 1, 2)]


def intro_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if " | " in line)


def corrupt_at(text: str, action: int, kind: str) -> str:
    """The four single-token corruptions of scripts/survival_experiment.py,
    placed at a chosen placement action (0-based, never the root)."""
    lines = text.splitlines()
    intros = [i for i, line in enumerate(lines) if " | " in line]
    if kind == "unknown-part":
        li = intros[action]
        node, rest = lines[li].split(" ", 1)
        lines[li] = f"{node} mystery widget | {rest.split(' | ')[1]}"
    else:
        li = intros[action] + 1
        tokens = lines[li].split()
        if kind == "bad-token":
            lines[li] = "%% not a step %%"
        elif kind == "bad-params":
            tokens[-1] = "banana"
            lines[li] = " ".join(tokens)
        else:
            tokens[0] = "zz"
            lines[li] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class Workload:
    name = ""

    def __init__(self, rng: np.random.Generator, scale: Scale):
        self.rng = rng
        self.scale = scale
        self.catalog = build_demo_catalog()
        Path(CATALOG).write_text(self.catalog.dumps())
        self.inputs: list[str] = [CATALOG]
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def prelude(self) -> list[Call]:
        return []

    def round(self) -> list[Call]:
        raise NotImplementedError

    def argv(self, *args) -> list:
        return ["--catalog", CATALOG, *map(str, args)]

    def write(self, name: str, text: str) -> str:
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_text(text)
        self.inputs.append(name)
        return name

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for name in self.inputs:
            h.update(name.encode() + b"\0" + Path(name).read_bytes())
        return h.hexdigest()


class EvalCorrupted(Workload):
    """Programs of random demo paths, 60% with one corruption at a known
    action: one ``eval`` call per shard of programs."""

    name = "eval-corrupted"

    def generate(self):
        n = self.scale.programs
        corrupted = set(self.rng.permutation(n)[: round(0.6 * n)].tolist())
        self.expected = {}
        for i in range(n):
            parts = int(self.rng.integers(2, MAX_PARTS + 1))
            text = serialize(generate_random_path(self.catalog, self.rng, parts), self.catalog)
            intros = intro_count(text)
            expected = intros
            if i in corrupted and intros >= 2:
                expected = int(self.rng.integers(1, intros))
                kind = CORRUPTIONS[int(self.rng.integers(len(CORRUPTIONS)))]
                text = corrupt_at(text, expected, kind)
            name = self.write(f"progs/p_{i:03d}.bseq", text)
            self.expected[name] = (expected, intro_count(text))

    def shards(self) -> list[list[str]]:
        """Equal-size shards with near-equal work: programs ranked by their
        valid prefix are dealt to the shards in snake order, so the item
        latency percentiles do not hinge on a few heavy shards."""
        count = -(-len(self.expected) // self.scale.shard)
        ranked = sorted(self.expected, key=lambda p: (self.expected[p][0], p))
        shards = [[] for _ in range(count)]
        for rank, name in enumerate(ranked):
            turn, pos = divmod(rank, count)
            shards[pos if turn % 2 == 0 else count - 1 - pos].append(name)
        return [sorted(s) for s in shards]

    def round(self):
        Path("evals").mkdir(exist_ok=True)
        calls = []
        for j, shard in enumerate(self.shards()):
            out = f"evals/e_{j:03d}.json"
            parts = sum(self.expected[p][1] for p in shard)
            calls.append(Call(f"eval:{j}", self.argv("--out", out, "eval", *shard),
                              out, True, parts, self._check(shard)))
        return calls

    def _check(self, shard):
        def check(blob: bytes) -> bool:
            reports = json.loads(blob)["reports"]
            if sorted(reports) != shard:
                return False
            return all(
                reports[p]["connectivity_steps"] == self.expected[p][0]
                and reports[p]["collision_steps"] <= reports[p]["connectivity_steps"]
                for p in shard
            )

        return check


def wall_ldr(length: int, courses: int, phase: int, colors) -> tuple[str, Counter]:
    """A running-bond wall of 1x2 bricks, two bricks deep (rows at z=0 and
    z=20). Every sixth course (from ``phase``) is technic bricks, each
    front/back pair joined by a technic pin through the channels. Returns
    the LDraw text and the edge count per family implied by construction."""
    lines = []
    columns: dict = {}  # (course, row) -> x of its stud columns
    pins = 0
    for k in range(courses):
        technic = k % TECHNIC_EVERY == phase
        for i in range(length):
            x = 20 * (k % 2) + 40 * i
            for z in (0, 20):
                part = "3700" if technic else "3004"
                lines.append(f"1 {colors[len(lines) % len(colors)]} {x} {-24 * k} {z} {IDENTITY} {part}.dat")
                columns.setdefault((k, z), set()).update((x - 10, x + 10))
            if technic:
                lines.append(f"1 0 {x} {-24 * k + 12} 10 {IDENTITY} 3673.dat")
                pins += 1
    # A brick's holes lie under its studs, so a hole seats on a stud of the
    # course below wherever their columns meet; each pin's two ends seat in
    # the front and back sockets.
    stud_edges = sum(
        len(columns[(k + 1, z)] & columns[(k, z)]) for k in range(courses - 1) for z in (0, 20)
    )
    return "\n".join(lines) + "\n", Counter({"stud": stud_edges, "axle": 2 * pins})


class DenseWall(Workload):
    """Collision-free, densely touching walls: one ``graph`` and one
    ``sample`` call per wall, then one ``eval`` call per shard of sampled
    programs. Shards of two put the ``--jobs`` pool on the path."""

    name = "dense-wall"

    def generate(self):
        self.walls = []
        colors = sorted(self.catalog.colors)
        for w in range(self.scale.walls):
            length = int(self.rng.integers(7, 9))
            palette = [colors[int(c)] for c in self.rng.integers(len(colors), size=7)]
            text, edges = wall_ldr(length, WALL_COURSES, TECHNIC_PHASE, palette)
            name = self.write(f"walls/w_{w}.ldr", text)
            self.walls.append((name, edges, int(self.rng.integers(2**31))))

    def prelude(self):
        Path("graphs").mkdir(exist_ok=True)
        calls = []
        for w, (ldr, edges, seed) in enumerate(self.walls):
            graph = f"graphs/w_{w}.json"
            calls.append(Call(f"graph:{w}", self.argv("--out", graph, "graph", ldr),
                              graph, False, 0, self._graph_check(edges)))
            calls.append(Call(
                f"sample:{w}",
                self.argv("--seed", seed, "--out", f"paths_w{w}", "sample", graph,
                          "--count", self.scale.wall_paths),
                f"paths_w{w}", False, 0, self._sample_check))
        return calls

    def round(self):
        Path("evals").mkdir(exist_ok=True)
        actions = {}
        for w in range(len(self.walls)):
            folder = Path(f"paths_w{w}")
            for f in sorted(folder.iterdir()) if folder.is_dir() else ():
                actions[f"{folder.name}/{f.name}"] = intro_count(f.read_text())
        progs = list(actions)
        size = self.scale.wall_shard
        calls = []
        for j in range(0, len(progs), size):
            shard = {p: actions[p] for p in progs[j : j + size]}
            out = f"evals/e_{j // size:03d}.json"
            calls.append(Call(f"eval:{j // size}", self.argv("--out", out, "eval", *shard),
                              out, True, sum(shard.values()), self._eval_check(shard)))
        return calls

    @staticmethod
    def _graph_check(edges: Counter):
        def check(blob: bytes) -> bool:
            return Counter(e["family"] for e in json.loads(blob)["edges"]) == edges

        return check

    def _sample_check(self, blob: bytes) -> bool:
        # Every wall has more than MAX_PARTS parts and no part collides, so
        # truncation must keep every path at the full cap.
        texts = _programs(blob)
        return len(texts) == self.scale.wall_paths and all(
            intro_count(t) == MAX_PARTS for t in texts
        )

    @staticmethod
    def _eval_check(shard: dict):
        def check(blob: bytes) -> bool:
            reports = json.loads(blob)["reports"]
            return sorted(reports) == sorted(shard) and all(
                r["connectivity_steps"] == r["collision_steps"] == shard[p]
                for p, r in reports.items()
            )

        return check


WORKLOADS = {w.name: w for w in (EvalCorrupted, DenseWall)}


def make(name: str, seed: int, scale: Scale) -> Workload:
    """The named workload with its inputs made from ``seed``, in the current
    directory. The generator is keyed on the name too, so the inputs of a
    seed do not change when workloads are added or removed."""
    return WORKLOADS[name](np.random.default_rng([seed, *name.encode()]), scale)
