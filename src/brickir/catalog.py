"""Part catalog: definitions, naming tables and loading.

A catalog maps part ids to their display name, triangle mesh and annotated
connector list, plus an LDraw color-code <-> lowercase-name table. Catalogs
load from a JSON file or are built from an LDraw part library directory
(one walk per part for its primitives and triangles).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from . import ldraw
from .connectors import AnnotatedConnector, annotate_part, default_primitive_table
from .errors import CatalogError, LdrawParseError


def normalize_part_name(name: str) -> str:
    """Lowercase, collapse whitespace, strip the reserved '|' separator."""
    return re.sub(r"\s+", " ", name.replace("|", " ")).strip().lower()


# Largest part-local coordinate (mesh vertex or connector origin), in LDU: far
# beyond any part, and small enough that the collision arithmetic (squared
# cross products) cannot overflow, nor a connector placed on a finite pose.
MESH_COORD_MAX = 1e6


@dataclass(frozen=True)
class TriMesh:
    """Indexed triangle soup in part-local LDU coordinates."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise CatalogError("triangle index out of range")
        if not (np.abs(v) <= MESH_COORD_MAX).all():  # NaN fails too
            raise CatalogError(f"mesh vertex beyond {MESH_COORD_MAX:g} LDU or not finite")
        v.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    def __len__(self):
        return len(self.triangles)


@dataclass(frozen=True)
class PartDef:
    """Catalog entry: id, display name, connectors and optional mesh. A part
    has geometry iff ``mesh`` is not None: the catalog loaders drop a mesh
    without triangles. Every loader builds parts here, where connector origins
    are bounded."""

    part_id: str
    name: str
    connectors: tuple[AnnotatedConnector, ...]
    mesh: TriMesh | None = None

    def __post_init__(self):
        if any(abs(v) > MESH_COORD_MAX for c in self.connectors for v in c.frame.origin):
            raise CatalogError(
                f"part {self.part_id!r}: connector origin beyond {MESH_COORD_MAX:g} LDU"
            )

    @cached_property
    def connectors_by_index(self) -> dict[str, AnnotatedConnector]:
        """Connector index -> connector, built on first use and kept with the
        part. Where an index repeats (the catalog loaders reject that), the
        first connector with it wins."""
        return {c.index: c for c in reversed(self.connectors)}

    def connector(self, index: str) -> AnnotatedConnector:
        try:
            return self.connectors_by_index[index]
        except KeyError:
            raise CatalogError(f"part {self.part_id!r} has no connector {index!r}") from None


@lru_cache(maxsize=1)
def _default_colors() -> dict[int, str]:
    """The shipped color table (data/colors.json); callers copy it."""
    text = resources.files("brickir.data").joinpath("colors.json").read_text()
    return {int(k): v for k, v in json.loads(text).items()}


class Catalog:
    """Read-only registry of parts and color names (immutable after load).

    ``warnings`` holds what building the catalog from a part library
    reported, one line each.
    """

    warnings: tuple[str, ...] = ()

    def __init__(self, parts, colors=None):
        self.parts: dict[str, PartDef] = dict(parts)
        self.colors: dict[int, str] = dict(colors if colors is not None else _default_colors())
        self._by_name = {normalize_part_name(p.name): p for p in self.parts.values()}
        self._color_names = set(self.colors.values())

    def __contains__(self, part_id: str) -> bool:
        return part_id in self.parts

    def __len__(self) -> int:
        return len(self.parts)

    def part(self, part_id: str) -> PartDef:
        try:
            return self.parts[part_id]
        except KeyError:
            raise CatalogError(f"part {part_id!r} not in catalog") from None

    def part_by_name(self, name: str) -> PartDef | None:
        return self._by_name.get(normalize_part_name(name))

    def connector(self, part_id: str, index: str) -> AnnotatedConnector:
        return self.part(part_id).connector(index)

    def color_name(self, code: int) -> str:
        try:
            return self.colors[int(code)]
        except KeyError:
            raise CatalogError(f"color code {code} has no registered name") from None

    def has_color_name(self, name: str) -> bool:
        return name.strip().lower() in self._color_names

    def to_json_obj(self) -> dict:
        parts = {}
        for pid, p in sorted(self.parts.items()):
            entry = {
                "name": p.name,
                "connectors": [c.to_json_obj() for c in p.connectors],
            }
            if p.mesh is not None:
                entry["mesh"] = {
                    "vertices": p.mesh.vertices.tolist(),
                    "triangles": p.mesh.triangles.tolist(),
                }
            parts[pid] = entry
        return {
            "version": 1,
            "colors": {str(code): name for code, name in sorted(self.colors.items())},
            "parts": parts,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=1)

    @classmethod
    def from_json_obj(cls, obj) -> "Catalog":
        """Rebuild a catalog from its JSON object. Malformed input (a part
        without a name, a value of the wrong type, a color code that is not an
        integer, a connector index that is missing, not a letter id or repeated
        within its part) raises CatalogError; an invalid annotation
        AnnotationError."""
        parts = {}
        colors = dict(_default_colors())
        try:
            for pid, entry in obj.get("parts", {}).items():
                connectors = tuple(
                    AnnotatedConnector.from_json_obj(c) for c in entry.get("connectors", [])
                )
                mesh = None
                if "mesh" in entry:
                    mesh = TriMesh(entry["mesh"]["vertices"], entry["mesh"]["triangles"])
                    mesh = mesh if len(mesh) else None  # no triangles: no geometry
                parts[pid] = PartDef(pid, normalize_part_name(entry["name"]), connectors, mesh)
            for code, name in obj.get("colors", {}).items():
                colors[int(code)] = name.strip().lower()
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CatalogError(f"malformed catalog JSON: {type(exc).__name__}: {exc}") from exc
        for pid, part in parts.items():
            seen = set()
            for c in part.connectors:
                if not (isinstance(c.index, str) and re.fullmatch("[a-z]+", c.index)):
                    raise CatalogError(f"part {pid!r}: connector index {c.index!r} is not a letter")
                if c.index in seen:
                    raise CatalogError(f"part {pid!r}: connector index {c.index!r} repeats")
                seen.add(c.index)
        return cls(parts, colors)

    @classmethod
    def load(cls, path) -> "Catalog":
        """A catalog JSON file (UTF-8) or an LDraw library directory."""
        p = Path(path)
        if p.is_dir():
            return build_catalog_from_library(p)
        try:
            obj = json.loads(p.read_text(encoding="utf-8"))
        except (RecursionError, ValueError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise CatalogError(f"invalid catalog JSON: {exc}") from exc
        return cls.from_json_obj(obj)


def build_catalog_from_library(library_dir) -> Catalog:
    """Scan an LDraw-style library directory into a catalog.

    Part files are taken from ``parts/`` (or the directory itself); sub-parts
    and primitives are resolved from ``parts/s``, ``p`` and the same
    directory. Each file is read once (``ldraw.read_lines``), whatever names
    it is found under. One walk of each part's records (``ldraw.walk_part``)
    gives its triangles and its connector-primitive references, which
    ``annotate_part`` turns into connectors. The walk's and annotation's
    warnings land in the catalog's ``warnings``.
    """
    root = Path(library_dir)
    search_dirs = [d for d in (root / "parts", root / "p", root) if d.is_dir()]
    records: dict[Path, list] = {}  # by path: a file found under two names is read once
    library: dict[str, list] = {}
    for d in search_dirs:
        for f in sorted(d.rglob("*.dat")):
            if f not in records:
                records[f] = ldraw.read_lines(ldraw.decode(f.read_bytes()))
            library.setdefault(ldraw.normalize_name(str(f.relative_to(d))), records[f])

    part_dir = root / "parts" if (root / "parts").is_dir() else root
    parts = {}
    warnings: list[str] = []
    for f in sorted(part_dir.glob("*.dat")):
        part = records[f]  # by path: without parts/, a p/ file of the same name shadows it
        pid = f.stem.lower()
        found: list[str] = []
        try:
            refs, (verts, tris) = ldraw.walk_part(part, library, default_primitive_table(), found)
        except LdrawParseError as exc:
            raise LdrawParseError(f"{f.name}: {exc}") from exc
        connectors = annotate_part(pid, refs, found)
        # a sub-file referenced more than once reports its lines once
        warnings.extend(f"{f.name}: {w}" for w in dict.fromkeys(found))
        if not connectors:
            warnings.append(f"{pid}: no connector sites")
        mesh = TriMesh(verts, tris) if len(tris) else None
        name = normalize_part_name(ldraw.part_description(part) or pid)
        parts[pid] = PartDef(pid, name, connectors, mesh)
    catalog = Catalog(parts)
    catalog.warnings = tuple(warnings)
    return catalog
