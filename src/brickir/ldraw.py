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
_NEVER = frozenset().__contains__  # a leaf test that accepts no reference


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


def read_lines(text: str, strict: bool = False) -> list:
    """A file's records, read once, in line order: an LdrawLine per kept
    line and a warning string per skipped one. A malformed line ends the
    records with its LdrawParseError in strict mode and is skipped with a
    warning otherwise; a non-finite number in a type-1, -3 or -4 line ends
    them in both modes: the file is corrupt, not merely loose. A walk
    replays the warnings and raises the error where it reaches it."""
    records: list = []
    for number, raw in enumerate(text.splitlines(), start=1):
        try:
            record = _read_line(raw.strip(), number, strict)
        except LdrawParseError as exc:
            return [*records, exc]
        if record is not None:
            records.append(record)
    return records


def _read_line(line: str, number: int, strict: bool):
    """One line's record, or None for a blank, edge or conditional line."""
    if not line:
        return None
    tokens = line.split()
    try:
        ltype = int(tokens[0])
    except ValueError:
        if strict:
            raise LdrawParseError(f"unrecognized line type {tokens[0]!r}", number)
        return f"line {number}: skipped unrecognized line type {tokens[0]!r}"
    if ltype == 0:
        return LdrawLine(0, number, text=line[1:].strip())
    if ltype not in _NUMBER_COUNTS:  # edge/conditional lines: not needed for geometry
        return None if ltype in (2, 5) else f"line {number}: skipped unknown line type {ltype}"
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
        return f"line {number}: skipped {'malformed' if ltype == 1 else 'short'} type-{ltype} line"
    try:
        color = int(tokens[1])
        values = tuple(float(v) for v in tokens[2:end])
    except ValueError:
        if strict:
            raise LdrawParseError(f"non-numeric field in type-{ltype} line", number)
        return f"line {number}: skipped non-numeric type-{ltype} line"
    if not all(math.isfinite(v) for v in values):
        raise LdrawParseError(f"non-finite number in type-{ltype} line", number)
    subfile = " ".join(tokens[end:]) if ltype == 1 else None
    return LdrawLine(ltype, number, color=color, values=values, subfile=subfile)


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


def _walk(records, subfiles, leaf, strict, warnings, chain=(None,), m=IDENTITY_ROWS,
          t=(0.0, 0.0, 0.0), expand_leaves=False):
    """Walk an LDraw document depth-first through its subfile references.

    Replays a file's ``read_lines`` records: a warning goes to ``warnings``
    and an error is raised where it is reached. Yields (line, m, t): type-3/4
    lines with the transform of the file they sit in, and type-1 lines whose
    normalized reference ``leaf`` accepts with their composed transform; m is
    the scalar kernel's rows and t a 3-tuple. Other references are expanded
    from ``subfiles`` (normalized name -> records). With ``expand_leaves`` an
    accepted reference is expanded too, for its type-3/4 lines only: below
    it no reference is accepted. A reference back into ``chain`` (the names
    of the files being expanded, outermost first; the document's own name or
    None), nesting deeper than MAX_SUBFILE_DEPTH and a composed transform
    that overflows raise; a reference found nowhere raises in strict mode
    and is warned about otherwise.
    """
    if len(chain) > MAX_SUBFILE_DEPTH + 1:
        raise LdrawParseError(f"subfile nesting deeper than {MAX_SUBFILE_DEPTH}")
    if warnings is None:
        warnings = []
    for line in records:
        if isinstance(line, str):
            warnings.append(line)
            continue
        if isinstance(line, LdrawParseError):
            raise line
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
            below = _NEVER
        if ref in subfiles:
            if ref in chain:
                raise LdrawParseError(f"recursive subfile reference {line.subfile!r}", line.number)
            yield from _walk(
                subfiles[ref], subfiles, below, strict, warnings, chain + (ref,), cm, ct, expand_leaves
            )
        elif strict:
            raise LdrawParseError(f"unresolvable subfile {line.subfile!r}", line.number)
        else:
            warnings.append(f"line {line.number}: unresolvable subfile {line.subfile!r}")


def parse_structure(source, catalog_parts, strict: bool = False, warnings: list | None = None):
    """Flatten a .ldr/.mpd document into posed PartInstances.

    ``catalog_parts`` is any container supporting ``key in parts`` for part
    ids. Each file of the document is read once; submodel references are
    resolved recursively with composed transforms, and a submodel shadows a
    catalog part of the same name; instances whose composed matrix is scaled
    or reflected are flagged nonrigid.
    """
    main, texts = split_mpd(decode(source))
    files = {name: read_lines(text, strict) for name, text in texts.items()}
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


def walk_part(records, library, stop_at, warnings: list | None = None):
    """One walk of a part definition's ``read_lines`` records: its
    connector-primitive references and its triangles.

    ``library`` maps normalized subfile names to their records (sub-parts
    and primitives). A reference whose normalized name is in ``stop_at``
    (the connector-primitive table) is collected as (name, line number,
    composed rows, translation); no reference inside it is, but its
    triangles are. Type-3/4 lines become part-local triangles, each vertex
    placed by the scalar kernel: quads split in two, and the winding flips
    under reflecting transforms so outward orientation survives mirroring.
    Returns (refs, (vertices (n,3) float64, triangles (m,3) int64)).
    """
    refs = []
    coords: list[float] = []  # x, y, z of each vertex in turn
    corners: list[int] = []  # a, b, c of each triangle in turn
    walk = _walk(records, library, stop_at.__contains__, False, warnings, expand_leaves=True)
    for line, m, t in walk:
        if line.line_type == 1:
            refs.append((normalize_name(line.subfile), line.number, m, t))
            continue
        flip = _det3(m) < 0  # the rows' triple product, as in the pose gate: no LAPACK det
        p = line.values
        base = len(coords) // 3
        for i in range(0, len(p), 3):
            coords += mat_vec_add(m, p[i : i + 3], t)
        for b in range(base + 1, len(coords) // 3 - 1):  # a fan: a triangle, or a quad's two
            corners += (base, b + 1, b) if flip else (base, b, b + 1)
    verts = np.array(coords, dtype=np.float64).reshape(-1, 3)
    return refs, (verts, np.array(corners, dtype=np.int64).reshape(-1, 3))


def part_description(records) -> str:
    """First type-0 comment line of a part file's records (the LDraw
    description)."""
    for line in records:
        if isinstance(line, LdrawLine):
            return line.text if line.line_type == 0 else ""
    return ""
