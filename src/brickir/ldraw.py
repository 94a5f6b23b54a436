"""LDraw text parsing: structure files (.ldr/.mpd) and part definitions (.dat).

LDraw files are line oriented; line type 1 references a subfile with a color,
a translation (x, y, z) and a row-major 3x3 matrix (a..i):

    1 <color> x y z a b c d e f g h i <file>

Coordinates are preserved verbatim (right-handed, -Y up); nothing is rebased.
Only triangles and quads (types 3/4) are retained for collision geometry;
other line types are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LdrawParseError
from .geometry import IDENTITY_ROWS, RigidTransform, _det3, mat_mul, mat_vec_add, nearest_rotation

MAX_SUBFILE_DEPTH = 64


@dataclass(frozen=True)
class LdrawLine:
    """One parsed source line. Payload fields are populated per line type."""

    line_type: int
    number: int  # 1-based source line number
    color: int | None = None
    values: tuple | None = None  # type 1: 12 floats; types 3/4: vertex floats
    subfile: str | None = None
    text: str = ""


@dataclass(frozen=True)
class PartInstance:
    """A placed catalog part with its world pose in LDU.

    ``raw`` keeps the 12 file floats verbatim so re-serialization is lossless;
    ``pose`` is the orthonormalized proper rotation actually used downstream.
    Instances with scaled/reflected matrices are flagged ``nonrigid`` and are
    excluded from graph construction.
    """

    node_id: int
    part_id: str
    color: int
    pose: RigidTransform
    raw: tuple = ()
    nonrigid: bool = False


def normalize_name(name: str) -> str:
    return name.strip().lower().replace("\\", "/")


def part_key(name: str) -> str:
    """Catalog key of a subfile reference: normalized, '.dat' stripped."""
    n = normalize_name(name)
    return n[:-4] if n.endswith(".dat") else n


def decode(source) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8")
        except UnicodeDecodeError:
            return source.decode("latin-1")
    return source


# numbers after the color: a type-1 placement (position + 3x3 matrix), and
# the vertices of a triangle or quad
_NUMBER_COUNTS = {1: 12, 3: 9, 4: 12}


def iter_lines(text: str, strict: bool = False, warnings: list | None = None):
    """Yield LdrawLine records; malformed lines raise in strict mode and are
    skipped with a warning otherwise. A non-finite number in a type-1, -3 or
    -4 line raises in both modes: the file is corrupt, not merely loose."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            ltype = int(tokens[0])
        except ValueError:
            if strict:
                raise LdrawParseError(f"unrecognized line type {tokens[0]!r}", number)
            _warn(warnings, f"line {number}: skipped unrecognized line type {tokens[0]!r}")
            continue
        if ltype == 0:
            yield LdrawLine(0, number, text=line[1:].strip())
        elif ltype in _NUMBER_COUNTS:
            end = 2 + _NUMBER_COUNTS[ltype]  # type token + color + numbers
            want = end + (ltype == 1)  # a type-1 line ends in its subfile name
            if len(tokens) < want:
                if strict:
                    raise LdrawParseError(
                        f"type-1 line has {len(tokens) - 1} fields, expected 14"
                        if ltype == 1
                        else f"type-{ltype} line too short",
                        number,
                    )
                what = "malformed" if ltype == 1 else "short"
                _warn(warnings, f"line {number}: skipped {what} type-{ltype} line")
                continue
            try:
                color = int(tokens[1])
                values = tuple(float(v) for v in tokens[2:end])
            except ValueError:
                if strict:
                    raise LdrawParseError(f"non-numeric field in type-{ltype} line", number)
                _warn(warnings, f"line {number}: skipped non-numeric type-{ltype} line")
                continue
            if not all(math.isfinite(v) for v in values):
                raise LdrawParseError(f"non-finite number in type-{ltype} line", number)
            subfile = " ".join(tokens[end:]) if ltype == 1 else None
            yield LdrawLine(ltype, number, color=color, values=values, subfile=subfile)
        elif ltype in (2, 5):
            continue  # edge/conditional lines: not needed for geometry
        else:
            _warn(warnings, f"line {number}: skipped unknown line type {ltype}")


def _warn(warnings, message):
    if warnings is not None:
        warnings.append(message)


def split_mpd(text: str) -> tuple[str, dict[str, str]]:
    """Split an MPD document on ``0 FILE`` / ``0 NOFILE`` delimiters.

    Returns (main file name, {normalized name: text}). Plain single-file
    documents come back as a single entry named '__main__'.
    """
    files: dict[str, list[str]] = {}
    order: list[str] = []
    current: str | None = None
    preamble: list[str] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        upper = stripped.upper()
        if upper.startswith("0 FILE "):
            current = normalize_name(stripped[7:])
            if current not in files:
                files[current] = []
                order.append(current)
            continue
        if upper == "0 NOFILE":
            current = None
            continue
        if current is None:
            preamble.append(raw)
        else:
            files[current].append(raw)
    if not order:
        return "__main__", {"__main__": text}
    main = order[0]
    if any(line.strip() and not line.strip().startswith("0") for line in preamble):
        main = "__main__"
        files[main] = preamble
    return main, {name: "\n".join(lines) for name, lines in files.items()}


def _never(ref) -> bool:
    return False


def _walk(text, subfiles, leaf, strict, warnings, chain=(None,), m=None, t=None,
          expand_leaves=False):
    """Walk an LDraw document depth-first through its subfile references.

    Yields (line, m, t): type-3/4 lines with the transform of the file they
    sit in, and type-1 lines whose normalized reference ``leaf`` accepts with
    their composed transform; m is the scalar kernel's rows and t a 3-tuple.
    Other references are expanded from ``subfiles`` (normalized name ->
    text). With ``expand_leaves`` an accepted reference is expanded too, for
    its type-3/4 lines only: below it no reference is accepted. A reference
    back into ``chain`` (the names of the files being expanded, outermost
    first; the document's own name or None), nesting deeper than
    MAX_SUBFILE_DEPTH and a composed transform that overflows raise; a
    reference found nowhere raises in strict mode and is warned about
    otherwise.
    """
    if len(chain) > MAX_SUBFILE_DEPTH + 1:
        raise LdrawParseError(f"subfile nesting deeper than {MAX_SUBFILE_DEPTH}")
    if m is None:
        m, t = IDENTITY_ROWS, (0.0, 0.0, 0.0)
    for line in iter_lines(decode(text), strict=strict, warnings=warnings):
        if line.line_type in (3, 4):
            yield line, m, t
        if line.line_type != 1:
            continue
        v = line.values
        cm, ct = mat_mul(m, (v[3:6], v[6:9], v[9:12])), mat_vec_add(m, v[0:3], t)
        if not all(map(math.isfinite, (*cm[0], *cm[1], *cm[2], *ct))):  # overflowed
            raise LdrawParseError("non-finite composed transform", line.number)
        ref = normalize_name(line.subfile)
        below = leaf
        if leaf(ref):
            yield line, cm, ct
            if not expand_leaves:
                continue
            below = _never
        if ref in subfiles:
            if ref in chain:
                raise LdrawParseError(f"recursive subfile reference {line.subfile!r}", line.number)
            yield from _walk(
                subfiles[ref], subfiles, below, strict, warnings, chain + (ref,), cm, ct, expand_leaves
            )
        elif strict:
            raise LdrawParseError(f"unresolvable subfile {line.subfile!r}", line.number)
        else:
            _warn(warnings, f"line {line.number}: unresolvable subfile {line.subfile!r}")


def parse_structure(source, catalog_parts, strict: bool = False, warnings: list | None = None):
    """Flatten a .ldr/.mpd document into posed PartInstances.

    ``catalog_parts`` is any container supporting ``key in parts`` for part
    ids. Submodel references are resolved recursively with composed
    transforms, and a submodel shadows a catalog part of the same name;
    instances whose composed matrix is scaled or reflected are flagged
    nonrigid.
    """
    main, files = split_mpd(decode(source))
    instances: list[PartInstance] = []

    def is_part(ref):
        return ref not in files and part_key(ref) in catalog_parts

    for line, m, t in _walk(files[main], files, is_part, strict, warnings, (main,)):
        if line.line_type != 1:
            continue
        rotation, rigid = nearest_rotation(m)
        instances.append(
            PartInstance(
                node_id=len(instances),
                part_id=part_key(line.subfile),
                color=line.color,
                pose=RigidTransform(rotation, t),
                raw=(*t, *m[0], *m[1], *m[2]),
                nonrigid=not rigid,
            )
        )
    return instances


def walk_part(text, library, stop_at, warnings: list | None = None):
    """One walk of a part definition: its connector-primitive references and
    its triangles.

    ``library`` maps normalized subfile names to their text (sub-parts and
    primitives). A reference whose normalized name is in ``stop_at`` (the
    connector-primitive table) is collected as (name, line number, composed
    rows, translation); no reference inside it is, but its triangles are.
    Type-3/4 lines become part-local triangles: quads split in two, and the
    winding flips under reflecting transforms so outward orientation
    survives mirroring. Returns (refs, (vertices (n,3) float64, triangles
    (m,3) int64)).
    """
    refs = []
    verts: list[np.ndarray] = []
    tris: list[tuple[int, int, int]] = []
    walk = _walk(text, library, stop_at.__contains__, False, warnings, expand_leaves=True)
    for line, m, t in walk:
        if line.line_type == 1:
            refs.append((normalize_name(line.subfile), line.number, m, t))
            continue
        base = len(verts)
        flip = _det3(m) < 0  # the rows' triple product, as in the pose gate: no LAPACK det
        verts.extend(np.array(line.values, dtype=np.float64).reshape(-1, 3) @ np.array(m).T + t)
        for a, b, c in [(0, 1, 2)] if line.line_type == 3 else [(0, 1, 2), (0, 2, 3)]:
            tris.append((base + a, base + c, base + b) if flip else (base + a, base + b, base + c))
    if not verts:
        return refs, (np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    return refs, (np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64))


def part_description(part_source) -> str:
    """First type-0 comment line of a part file (the LDraw description)."""
    for line in iter_lines(decode(part_source)):
        if line.line_type == 0:
            return line.text
        break
    return ""
