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

from .connectors import default_primitive_table
from .errors import LdrawParseError
from .geometry import RigidTransform, orthonormalize

MAX_SUBFILE_DEPTH = 64

# |singular value - 1| tolerance for the unit-scale / rigidity checks.
SCALE_TOL = 1e-3


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


@dataclass(frozen=True)
class PrimitiveRef:
    """A reference chain that terminated at a known connector primitive."""

    primitive_name: str
    transform: RigidTransform
    scale: tuple  # per-primitive-axis column norms of the composed matrix


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


def _matrix_from_values(values) -> tuple[np.ndarray, np.ndarray]:
    t = np.array(values[0:3], dtype=np.float64)
    m = np.array(values[3:12], dtype=np.float64).reshape(3, 3)
    return m, t


def is_rigid(m: np.ndarray) -> bool:
    if np.linalg.det(m) <= 0:
        return False
    return bool(np.abs(np.linalg.svd(m, compute_uv=False) - 1.0).max() <= SCALE_TOL)


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


def _walk(text, subfiles, leaf, strict, warnings, chain=(None,), m=None, t=None):
    """Walk an LDraw document depth-first through its subfile references.

    Yields (line, m, t): type-3/4 lines with the transform of the file they
    sit in, and type-1 lines whose normalized reference ``leaf`` accepts with
    their composed transform. Other references are expanded from
    ``subfiles`` (normalized name -> text). A reference back into ``chain``
    (the names of the files being expanded, outermost first; the document's
    own name or None), nesting deeper than MAX_SUBFILE_DEPTH and a composed
    transform that overflows raise; a reference found nowhere raises in
    strict mode and is warned about otherwise.
    """
    if len(chain) > MAX_SUBFILE_DEPTH + 1:
        raise LdrawParseError(f"subfile nesting deeper than {MAX_SUBFILE_DEPTH}")
    if m is None:
        m, t = np.eye(3), np.zeros(3)
    for line in iter_lines(decode(text), strict=strict, warnings=warnings):
        if line.line_type in (3, 4):
            yield line, m, t
        if line.line_type != 1:
            continue
        lm, lt = _matrix_from_values(line.values)
        with np.errstate(over="ignore", invalid="ignore"):
            cm, ct = m @ lm, m @ lt + t
        if not (np.isfinite(cm).all() and np.isfinite(ct).all()):
            raise LdrawParseError("non-finite composed transform", line.number)
        ref = normalize_name(line.subfile)
        if leaf(ref):
            yield line, cm, ct
        elif ref in subfiles:
            if ref in chain:
                raise LdrawParseError(f"recursive subfile reference {line.subfile!r}", line.number)
            yield from _walk(subfiles[ref], subfiles, leaf, strict, warnings, chain + (ref,), cm, ct)
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
        instances.append(
            PartInstance(
                node_id=len(instances),
                part_id=part_key(line.subfile),
                color=line.color,
                pose=RigidTransform(orthonormalize(m), t),
                raw=tuple(float(v) for v in np.concatenate([t, m.reshape(9)])),
                nonrigid=not is_rigid(m),
            )
        )
    return instances


def scan_primitives(part_source, library, warnings: list | None = None):
    """Walk a part definition depth-first and collect connector-primitive sites.

    ``library`` maps normalized subfile names to their text (sub-parts and
    primitives). A reference is emitted when its terminal name is in the
    connector-primitive table (data/primitives.json) and the composed
    per-axis scale passes the entry's scale mode: 'rigid' requires all axis
    scales within 1e-3 of 1; 'axial' frees the scale along the entry's
    principal axis (recorded so axle lengths can be recovered).
    """
    primitive_table = default_primitive_table()
    refs: list[PrimitiveRef] = []
    is_primitive = primitive_table.__contains__
    for line, m, t in _walk(part_source, library, is_primitive, False, warnings):
        if line.line_type != 1:
            continue
        ref = normalize_name(line.subfile)
        scale = tuple(float(np.linalg.norm(m[:, i])) for i in range(3))
        if _scale_ok(scale, primitive_table[ref]):
            refs.append(
                PrimitiveRef(
                    primitive_name=ref,
                    transform=RigidTransform(orthonormalize(m), t),
                    scale=scale,
                )
            )
        else:
            _warn(
                warnings,
                f"line {line.number}: {ref} rejected by scale check {scale} "
                "(review: possible non-connector use)",
            )
    return refs


def _scale_ok(scale, entry) -> bool:
    mode = entry.get("scale_mode", "rigid")
    if mode == "rigid":
        return all(abs(s - 1.0) <= SCALE_TOL for s in scale)
    if mode == "axial":
        axis = np.abs(np.asarray(entry["principal_axis"], dtype=np.float64))
        principal_idx = int(np.argmax(axis))
        return all(
            abs(scale[i] - 1.0) <= SCALE_TOL for i in range(3) if i != principal_idx
        )
    raise LdrawParseError(f"unknown scale mode {mode!r} in primitive table")


def extract_triangles(part_source, library, warnings: list | None = None):
    """Gather world-space triangles (types 3/4) from a part definition.

    Quads split into two triangles; winding is flipped under reflected
    transforms so outward orientation survives mirroring. Returns
    (vertices (n,3) float64, triangles (m,3) int).
    """
    verts: list[np.ndarray] = []
    tris: list[tuple[int, int, int]] = []
    for line, m, t in _walk(part_source, library, lambda ref: False, False, warnings):
        base = len(verts)
        verts.extend(np.array(line.values, dtype=np.float64).reshape(-1, 3) @ m.T + t)
        flip = np.linalg.det(m) < 0
        for a, b, c in [(0, 1, 2)] if line.line_type == 3 else [(0, 1, 2), (0, 2, 3)]:
            tris.append((base + a, base + c, base + b) if flip else (base + a, base + b, base + c))
    if not verts:
        return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
    return np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64)


def part_description(part_source) -> str:
    """First type-0 comment line of a part file (the LDraw description)."""
    for line in iter_lines(decode(part_source)):
        if line.line_type == 0:
            return line.text
        break
    return ""
