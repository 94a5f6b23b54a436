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


def iter_lines(text: str, strict: bool = False, warnings: list | None = None):
    """Yield LdrawLine records; malformed lines raise in strict mode and are
    skipped with a warning otherwise. A non-finite number in a type-1 line
    raises in both modes: the file is corrupt, not merely loose."""
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
        elif ltype == 1:
            if len(tokens) < 15:
                if strict:
                    raise LdrawParseError(
                        f"type-1 line has {len(tokens) - 1} fields, expected 14", number
                    )
                _warn(warnings, f"line {number}: skipped malformed type-1 line")
                continue
            try:
                color = int(tokens[1])
                values = tuple(float(v) for v in tokens[2:14])
            except ValueError:
                if strict:
                    raise LdrawParseError("non-numeric field in type-1 line", number)
                _warn(warnings, f"line {number}: skipped non-numeric type-1 line")
                continue
            if not all(math.isfinite(v) for v in values):
                raise LdrawParseError("non-finite number in type-1 line", number)
            name = " ".join(tokens[14:])
            yield LdrawLine(1, number, color=color, values=values, subfile=name)
        elif ltype in (3, 4):
            want = 1 + 1 + ltype * 3  # type token + color + vertices
            if len(tokens) < want:
                if strict:
                    raise LdrawParseError(f"type-{ltype} line too short", number)
                _warn(warnings, f"line {number}: skipped short type-{ltype} line")
                continue
            try:
                vals = tuple(float(v) for v in tokens[2:want])
            except ValueError:
                if strict:
                    raise LdrawParseError(f"non-numeric field in type-{ltype} line", number)
                _warn(warnings, f"line {number}: skipped non-numeric type-{ltype} line")
                continue
            yield LdrawLine(ltype, number, color=int(tokens[1]), values=vals)
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


def _singular_values(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def is_rigid(m: np.ndarray, tol: float = SCALE_TOL) -> bool:
    if np.linalg.det(m) <= 0:
        return False
    return bool(np.abs(_singular_values(m) - 1.0).max() <= tol)


def split_mpd(text: str) -> tuple[str, dict[str, list[str]]]:
    """Split an MPD document on ``0 FILE`` / ``0 NOFILE`` delimiters.

    Returns (main file name, {normalized name: lines}). Plain single-file
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
        return "__main__", {"__main__": text.splitlines()}
    if any(line.strip() and not line.strip().startswith("0") for line in preamble):
        files["__main__"] = preamble
        return "__main__", files
    return order[0], files


def parse_structure(source, catalog_parts, strict: bool = False, warnings: list | None = None):
    """Flatten a .ldr/.mpd document into posed PartInstances.

    ``catalog_parts`` is any container supporting ``key in parts`` for part
    ids. Submodel references are resolved recursively with composed
    transforms; instances whose composed matrix is scaled or reflected are
    flagged nonrigid.
    """
    text = decode(source)
    main, files = split_mpd(text)
    instances: list[PartInstance] = []
    counter = [0]

    def resolve(lines: list[str], base_m: np.ndarray, base_t: np.ndarray, stack, depth):
        if depth > MAX_SUBFILE_DEPTH:
            raise LdrawParseError(f"subfile nesting deeper than {MAX_SUBFILE_DEPTH}")
        for line in iter_lines("\n".join(lines), strict=strict, warnings=warnings):
            if line.line_type != 1:
                continue
            m, t = _matrix_from_values(line.values)
            cm = base_m @ m
            ct = base_m @ t + base_t
            ref = normalize_name(line.subfile)
            key = part_key(line.subfile)
            if ref in files:
                if ref in stack:
                    raise LdrawParseError(
                        f"recursive submodel reference {line.subfile!r}", line.number
                    )
                resolve(files[ref], cm, ct, stack | {ref}, depth + 1)
            elif key in catalog_parts:
                rigid = is_rigid(cm)
                pose = RigidTransform(orthonormalize(cm), ct)
                instances.append(
                    PartInstance(
                        node_id=counter[0],
                        part_id=key,
                        color=line.color,
                        pose=pose,
                        raw=tuple(float(v) for v in np.concatenate([ct, cm.reshape(9)])),
                        nonrigid=not rigid,
                    )
                )
                counter[0] += 1
            else:
                if strict:
                    raise LdrawParseError(f"unresolvable subfile {line.subfile!r}", line.number)
                _warn(warnings, f"line {line.number}: unresolvable subfile {line.subfile!r}")

    resolve(files[main], np.eye(3), np.zeros(3), frozenset({main}), 0)
    return instances


def instances_to_ldr(instances, catalog=None) -> str:
    """Re-serialize instances as type-1 lines (full-precision, lossless)."""
    lines = []
    for inst in instances:
        if inst.raw:
            vals = inst.raw
        else:
            vals = tuple(np.concatenate([inst.pose.translation, inst.pose.rotation.reshape(9)]))
        nums = " ".join(repr(float(v)) for v in vals)
        lines.append(f"1 {inst.color} {nums} {inst.part_id}.dat")
    return "\n".join(lines) + ("\n" if lines else "")


def scan_primitives(part_source, library, primitive_table, warnings: list | None = None):
    """Walk a part definition depth-first and collect connector-primitive sites.

    ``library`` maps normalized subfile names to their text (sub-parts and
    primitives). A reference is emitted when its terminal name is in
    ``primitive_table`` and the composed per-axis scale passes the entry's
    scale mode: 'rigid' requires all axis scales within 1e-3 of 1; 'axial'
    frees the scale along the entry's principal axis (recorded so axle
    lengths can be recovered).
    """
    text = decode(part_source)
    refs: list[PrimitiveRef] = []

    def walk(lines, base_m, base_t, stack, depth):
        if depth > MAX_SUBFILE_DEPTH:
            raise LdrawParseError(f"subfile nesting deeper than {MAX_SUBFILE_DEPTH}")
        for line in iter_lines(lines, warnings=warnings):
            if line.line_type != 1:
                continue
            m, t = _matrix_from_values(line.values)
            cm = base_m @ m
            ct = base_m @ t + base_t
            ref = normalize_name(line.subfile)
            if ref in primitive_table:
                entry = primitive_table[ref]
                scale = tuple(float(np.linalg.norm(cm[:, i])) for i in range(3))
                if _scale_ok(scale, entry):
                    refs.append(
                        PrimitiveRef(
                            primitive_name=ref,
                            transform=RigidTransform(orthonormalize(cm), ct),
                            scale=scale,
                        )
                    )
                else:
                    _warn(
                        warnings,
                        f"line {line.number}: {ref} rejected by scale check {scale} "
                        "(review: possible non-connector use)",
                    )
            elif ref in library:
                if ref in stack:
                    raise LdrawParseError("recursive part definition", line.number)
                walk(decode(library[ref]), cm, ct, stack | {ref}, depth + 1)
            else:
                _warn(warnings, f"line {line.number}: unresolvable subfile {line.subfile!r}")

    walk(text, np.eye(3), np.zeros(3), frozenset(), 0)
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


def axial_scale(ref: PrimitiveRef, entry) -> float:
    """Scale factor along the primitive's principal axis."""
    axis = np.abs(np.asarray(entry["principal_axis"], dtype=np.float64))
    return float(ref.scale[int(np.argmax(axis))])


def extract_triangles(part_source, library, warnings: list | None = None):
    """Gather world-space triangles (types 3/4) from a part definition.

    Quads split into two triangles; winding is flipped under reflected
    transforms so outward orientation survives mirroring. Returns
    (vertices (n,3) float64, triangles (m,3) int).
    """
    text = decode(part_source)
    verts: list[np.ndarray] = []
    tris: list[tuple[int, int, int]] = []

    def emit(points, flip):
        base = len(verts)
        verts.extend(points)
        order = (0, 2, 1) if flip else (0, 1, 2)
        if len(points) == 3:
            tris.append((base + order[0], base + order[1], base + order[2]))
        else:  # quad -> two triangles
            if flip:
                tris.append((base, base + 2, base + 1))
                tris.append((base, base + 3, base + 2))
            else:
                tris.append((base, base + 1, base + 2))
                tris.append((base, base + 2, base + 3))

    def walk(lines, base_m, base_t, stack, depth):
        if depth > MAX_SUBFILE_DEPTH:
            raise LdrawParseError(f"subfile nesting deeper than {MAX_SUBFILE_DEPTH}")
        flip = np.linalg.det(base_m) < 0
        for line in iter_lines(lines, warnings=warnings):
            if line.line_type in (3, 4):
                pts = np.array(line.values, dtype=np.float64).reshape(-1, 3)
                emit(list(pts @ base_m.T + base_t), flip)
            elif line.line_type == 1:
                m, t = _matrix_from_values(line.values)
                ref = normalize_name(line.subfile)
                if ref in library:
                    if ref in stack:
                        raise LdrawParseError("recursive part definition", line.number)
                    walk(decode(library[ref]), base_m @ m, base_m @ t + base_t, stack | {ref}, depth + 1)
                else:
                    _warn(warnings, f"line {line.number}: unresolvable subfile {line.subfile!r}")

    walk(text, np.eye(3), np.zeros(3), frozenset(), 0)
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
