"""Part catalog: definitions, naming tables and loading.

A catalog maps part ids to their display name, triangle mesh and annotated
connector list, plus an LDraw color-code <-> lowercase-name table. Catalogs
load from a JSON file or are built from an LDraw part library directory
(procedural primitive scan).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import ldraw
from .connectors import AnnotatedConnector, annotate_part, default_rules
from .errors import CatalogError, LdrawParseError


def normalize_part_name(name: str) -> str:
    """Lowercase, collapse whitespace, strip the reserved '|' separator."""
    return re.sub(r"\s+", " ", name.replace("|", " ")).strip().lower()


# Largest mesh coordinate, in LDU: far beyond any part, and small enough that
# the collision arithmetic (squared cross products) cannot overflow.
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
    """Catalog entry: id, display name, connectors and optional mesh."""

    part_id: str
    name: str
    connectors: tuple[AnnotatedConnector, ...]
    mesh: TriMesh | None = None

    def connector(self, index: str) -> AnnotatedConnector:
        for c in self.connectors:
            if c.index == index:
                return c
        raise CatalogError(f"part {self.part_id!r} has no connector {index!r}")

    def has_connector(self, index: str) -> bool:
        return any(c.index == index for c in self.connectors)


def _load_default_colors() -> dict[int, str]:
    text = resources.files("brickir.data").joinpath("colors.json").read_text()
    return {int(k): v for k, v in json.loads(text).items()}


class Catalog:
    """Read-only registry of parts and color names (immutable after load).

    ``rules`` is the shipped connector pairing table; ``warnings`` holds what
    building the catalog from a part library reported, one line each.
    """

    warnings: tuple[str, ...] = ()

    def __init__(self, parts, colors=None):
        self.parts: dict[str, PartDef] = dict(parts)
        self.colors: dict[int, str] = dict(colors) if colors is not None else _load_default_colors()
        self.rules = default_rules()
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
            if p.mesh is not None and len(p.mesh):
                entry["mesh"] = {
                    "vertices": [[float(x) for x in v] for v in p.mesh.vertices],
                    "triangles": [[int(i) for i in t] for t in p.mesh.triangles],
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
        colors = _load_default_colors()
        try:
            for pid, entry in obj.get("parts", {}).items():
                connectors = tuple(
                    AnnotatedConnector.from_json_obj(c) for c in entry.get("connectors", [])
                )
                mesh = None
                if "mesh" in entry:
                    mesh = TriMesh(entry["mesh"]["vertices"], entry["mesh"]["triangles"])
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
    directory. Each part's connectors come from its primitive scan
    (``annotate_part``). The walks' and annotation's warnings land in the
    catalog's ``warnings``.
    """
    root = Path(library_dir)

    search_dirs = [d for d in (root / "parts", root / "p", root) if d.is_dir()]
    library: dict[str, str] = {}
    for d in search_dirs:
        for f in sorted(d.rglob("*.dat")):
            key = ldraw.normalize_name(str(f.relative_to(d)))
            library.setdefault(key, ldraw.decode(f.read_bytes()))

    part_dir = root / "parts" if (root / "parts").is_dir() else root
    parts = {}
    warnings: list[str] = []
    for f in sorted(part_dir.glob("*.dat")):
        text = ldraw.decode(f.read_bytes())
        pid = f.stem.lower()
        found: list[str] = []
        try:
            refs = ldraw.scan_primitives(text, library, warnings=found)
            verts, tris = ldraw.extract_triangles(text, library, warnings=found)
        except LdrawParseError as exc:
            raise LdrawParseError(f"{f.name}: {exc}") from exc
        # both walks visit the part's lines: report each once
        warnings.extend(f"{f.name}: {w}" for w in dict.fromkeys(found))
        connectors = annotate_part(pid, refs)
        if not connectors:
            warnings.append(f"{pid}: no connector sites")
        mesh = TriMesh(verts, tris) if len(tris) else None
        name = normalize_part_name(ldraw.part_description(text) or pid)
        parts[pid] = PartDef(pid, name, connectors, mesh)
    catalog = Catalog(parts)
    catalog.warnings = tuple(warnings)
    return catalog
