"""Rigid-transform arithmetic in LDraw units, plus the integer quantization rules.

Rotations are proper (det +1) 3x3 float64 matrices; translations are in LDU.
The integer degree / integer LDU grid appears only at serialization
boundaries -- all internal math stays in 64-bit floats.

A pose has one representation: ``RigidTransform`` and ``ConnectorFrame``
hold tuples of Python floats, and every product that makes a pose runs in
the scalar kernel below (each operation rounded once), so a pose's bits do
not depend on the BLAS kernel numpy loaded. numpy stays where arrays pay:
``nearest_rotation``'s SVD and polar product, where an LDraw matrix enters,
and collision, which makes the arrays of its bulk (n, 3) products from a
pose's tuples once per ``intersects`` call; those decide verdicts only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Re-orthonormalize whenever a composed rotation drifts past this.
ORTHONORMAL_TOL = 1e-9
# |singular value - 1| bound within which a matrix is rigid (unit scale, no shear).
SCALE_TOL = 1e-3
# Largest connector-axis component: squares of larger ones can overflow.
AXIS_LIMIT = 1e150


def _det3(m) -> float:
    """Determinant of a 3x3 matrix as its scalar triple product: exact in
    sign for a finite near-rotation, and the same on every CPU."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def nearest_rotation(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """The proper rotation nearest ``m``, and whether ``m`` is rigid.

    One SVD ``m = U S Vt`` gives both. The rotation is the polar factor
    ``U Vt`` (Higham 1986), with U's last column negated when that factor is
    a reflection. ``m`` is rigid when its determinant is positive and every
    singular value lies within SCALE_TOL of 1.
    """
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=np.float64))
    proper = _det3((u @ vt).tolist()) > 0
    if not proper:
        u[:, -1] = -u[:, -1]
    return u @ vt, proper and bool(np.abs(s - 1.0).max() <= SCALE_TOL)


# ---------------------------------------------------------------------------
# The scalar pose kernel. A 3x3 matrix is a tuple of three row tuples and a
# vector a 3-tuple, all of Python floats. Each product is written out as plain
# float expressions summed left to right over k: every operation is one IEEE
# double operation, rounded once (CPython fuses no multiply-add), so the same
# inputs give the same bits on every CPU, whichever BLAS kernel numpy loaded.
# On 3x3 operands this is also faster than a numpy call.


def mat_mul(a, b):
    """a · b."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return (
        (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
        (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
        (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8),
    )


def mat_t_mul(a, b):
    """aᵀ · b."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return (
        (a0 * b0 + a3 * b3 + a6 * b6, a0 * b1 + a3 * b4 + a6 * b7, a0 * b2 + a3 * b5 + a6 * b8),
        (a1 * b0 + a4 * b3 + a7 * b6, a1 * b1 + a4 * b4 + a7 * b7, a1 * b2 + a4 * b5 + a7 * b8),
        (a2 * b0 + a5 * b3 + a8 * b6, a2 * b1 + a5 * b4 + a8 * b7, a2 * b2 + a5 * b5 + a8 * b8),
    )


def mat_vec(a, v):
    """a · v."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    x, y, z = v
    return (a0 * x + a1 * y + a2 * z, a3 * x + a4 * y + a5 * z, a6 * x + a7 * y + a8 * z)


def mat_vec_add(a, v, t):
    """a · v + t."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    x, y, z = v
    t0, t1, t2 = t
    return (
        a0 * x + a1 * y + a2 * z + t0,
        a3 * x + a4 * y + a5 * z + t1,
        a6 * x + a7 * y + a8 * z + t2,
    )


def mat_t_vec(a, v):
    """aᵀ · v."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    x, y, z = v
    return (a0 * x + a3 * y + a6 * z, a1 * x + a4 * y + a7 * z, a2 * x + a5 * y + a8 * z)


def norm(v) -> float:
    """Euclidean length: the correctly rounded square root of v · v."""
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def orthonormal(rows) -> bool:
    """Whether every entry of RᵀR − I lies within ORTHONORMAL_TOL. An entry
    that overflowed to inf or nan fails ("not <="), so it goes to the repair."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = rows
    return (
        abs(a0 * a0 + a3 * a3 + a6 * a6 - 1.0) <= ORTHONORMAL_TOL
        and abs(a1 * a1 + a4 * a4 + a7 * a7 - 1.0) <= ORTHONORMAL_TOL
        and abs(a2 * a2 + a5 * a5 + a8 * a8 - 1.0) <= ORTHONORMAL_TOL
        and abs(a0 * a1 + a3 * a4 + a6 * a7) <= ORTHONORMAL_TOL
        and abs(a0 * a2 + a3 * a5 + a6 * a8) <= ORTHONORMAL_TOL
        and abs(a1 * a2 + a4 * a5 + a7 * a8) <= ORTHONORMAL_TOL
    )


def unit_axes(principal, reference):
    """Normalize a principal axis and project the reference axis into the
    plane perpendicular to it, then normalize that too."""
    pn = norm(principal)
    if pn < 1e-9:
        raise ValueError("zero-length principal axis")
    p0, p1, p2 = principal[0] / pn, principal[1] / pn, principal[2] / pn
    r0, r1, r2 = reference
    d = r0 * p0 + r1 * p1 + r2 * p2
    r = (r0 - d * p0, r1 - d * p1, r2 - d * p2)
    rn = norm(r)
    if rn < 1e-9:
        raise ValueError("reference axis parallel to principal axis")
    return (p0, p1, p2), (r[0] / rn, r[1] / rn, r[2] / rn)


def frame_rotation(principal, reference):
    """The rotation with columns x = reference, y = z cross x, z = principal."""
    z0, z1, z2 = principal
    x0, x1, x2 = reference
    return (
        (x0, z1 * x2 - z2 * x1, z0),
        (x1, z2 * x0 - z0 * x2, z1),
        (x2, z0 * x1 - z1 * x0, z2),
    )


IDENTITY_ROWS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform ``x -> rotation @ x + translation`` (LDU).

    ``rotation`` is three row tuples and ``translation`` a 3-tuple, all of
    Python floats, whatever numbers (floats, numpy scalars or arrays) the
    caller passed. Construction takes one route: every number must be
    finite, and the rotation's determinant (its scalar triple product)
    positive. A rotation whose orthonormality error exceeds ORTHONORMAL_TOL
    is then replaced by ``nearest_rotation``, which repairs composition
    drift; one that is not rigid (a singular value beyond SCALE_TOL of 1)
    raises ValueError. A rotation within ORTHONORMAL_TOL runs no LAPACK code.
    """

    rotation: tuple[tuple[float, float, float], ...]
    translation: tuple[float, float, float]

    def __post_init__(self):
        r = self.rotation
        numbers = tuple(map(float, (*r[0], *r[1], *r[2], *self.translation)))
        a0, a1, a2, a3, a4, a5, a6, a7, a8, x, y, z = numbers
        rows = ((a0, a1, a2), (a3, a4, a5), (a6, a7, a8))
        if not all(map(math.isfinite, numbers)):
            raise ValueError("non-finite transform")
        if _det3(rows) <= 0:
            raise ValueError("rotation must have positive determinant")
        if not orthonormal(rows):
            rotation, rigid = nearest_rotation(rows)
            if not rigid:
                raise ValueError(f"rotation is scaled or sheared beyond {SCALE_TOL:g}")
            rows = tuple(map(tuple, rotation.tolist()))
        object.__setattr__(self, "rotation", rows)
        object.__setattr__(self, "translation", (x, y, z))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(IDENTITY_ROWS, (0.0, 0.0, 0.0))

    def inverse(self) -> "RigidTransform":
        rows = self.rotation
        x, y, z = mat_t_vec(rows, self.translation)
        return RigidTransform(tuple(zip(*rows)), (-x, -y, -z))

    def to_json_obj(self) -> dict:
        """``{"rot": row-major 9 floats, "t": 3 floats}``, the pose JSON of
        every CLI output and of graph files."""
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = self.rotation
        return {"rot": [a0, a1, a2, a3, a4, a5, a6, a7, a8], "t": list(self.translation)}

    @classmethod
    def from_json_obj(cls, obj) -> "RigidTransform":
        rotation = np.array(obj["rot"], dtype=np.float64).reshape(3, 3)
        translation = np.array(obj["t"], dtype=np.float64).reshape(3)
        return cls(rotation, translation)


def compose_rows(ra, ta, rb, tb):
    """``compose``'s arithmetic on the kernel's rows and vectors: (ra, ta)
    after (rb, tb)."""
    return mat_mul(ra, rb), mat_vec_add(ra, tb, ta)


def relative_rows(ra, ta, rb, tb):
    """``relative``'s arithmetic on the kernel's rows and vectors: (ra, ta)⁻¹
    after (rb, tb)."""
    (x, y, z), (u, v, w) = tb, ta
    return mat_t_mul(ra, rb), mat_t_vec(ra, (x - u, y - v, z - w))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: the transform ``x -> a(b(x))``."""
    return RigidTransform(*compose_rows(a.rotation, a.translation, b.rotation, b.translation))


def relative(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform r with ``compose(a, r) == b``, i.e. a^-1 o b."""
    return RigidTransform(*relative_rows(a.rotation, a.translation, b.rotation, b.translation))


def place_frame(rotation, translation, frame: ConnectorFrame):
    """Rotation rows (x column = reference, z = principal) and origin of the
    local ``frame`` on a part posed by (rotation rows, translation), bit for
    bit those of ``frame.transformed(pose)``: the one code that places
    connector frames, for the matcher and ``attach_pose``."""
    z = mat_vec(rotation, frame.principal_axis)
    z, x = unit_axes(z, mat_vec(rotation, frame.reference_axis))
    return frame_rotation(z, x), mat_vec_add(rotation, frame.origin, translation)


_SEQUENCES = (list, tuple)
_REALS = (float, int)


def _vec3(v) -> tuple[float, float, float]:
    """A 3-vector as a tuple of Python floats. A list or tuple of three
    ints and floats (what JSON and the kernel give) converts in plain Python;
    anything else goes through numpy's float64 conversion, with its errors
    (a string, a wrong size) and its leniency (a nested [[x, y, z]], None as
    nan, bools and numeric strings as numbers). Both give the same floats."""
    if type(v) in _SEQUENCES and len(v) == 3:
        x, y, z = v
        if type(x) in _REALS and type(y) in _REALS and type(z) in _REALS:
            return float(x), float(y), float(z)
    return tuple(np.asarray(v, dtype=np.float64).reshape(3).tolist())


@dataclass(frozen=True)
class ConnectorFrame:
    """Local rigid frame of one attachment site.

    ``principal_axis`` is the rotation/slide axis, ``reference_axis`` the
    zero-yaw datum perpendicular to it. Construction takes any three
    3-vectors, renormalizes the axes and projects the reference axis into
    the plane perpendicular to the principal axis; ``origin`` and the two
    axes are then 3-tuples of Python floats.
    """

    origin: tuple[float, float, float]
    principal_axis: tuple[float, float, float]
    reference_axis: tuple[float, float, float]

    def __post_init__(self):
        o, p, r = map(_vec3, (self.origin, self.principal_axis, self.reference_axis))
        if not all(map(math.isfinite, (*o, *p, *r))):
            raise ValueError("non-finite connector frame")
        if max(map(abs, p + r)) > AXIS_LIMIT:  # its square would overflow
            raise ValueError(f"connector axis component beyond {AXIS_LIMIT:g}")
        p, r = unit_axes(p, r)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "principal_axis", p)
        object.__setattr__(self, "reference_axis", r)

    @cached_property
    def inverse(self) -> RigidTransform:
        """Inverse of the frame as a rigid transform (x column = reference,
        z = principal), built on first use and kept with the frame."""
        rotation = frame_rotation(self.principal_axis, self.reference_axis)
        return RigidTransform(rotation, self.origin).inverse()

    def transformed(self, t: RigidTransform) -> "ConnectorFrame":
        """This frame expressed after applying transform t, renormalized (a
        frame on a posed part is placed by ``place_frame``)."""
        r = t.rotation
        return ConnectorFrame(
            mat_vec_add(r, self.origin, t.translation),
            mat_vec(r, self.principal_axis),
            mat_vec(r, self.reference_axis),
        )


# Largest slide magnitude. Integer coordinates up to 2**53 are exact in
# float64, and a slide of at most 2**52 plus part-local offsets (at most 1e6
# LDU each) stays below that, so an axle slid along a grid-aligned connector
# lands on its exact integer pose; at 2**53 an odd slide's pose rounds.
MAX_SLIDE_LDU = 2**52


@dataclass(frozen=True)
class QuantizedParams:
    """Integer-grid edge parameters. Which fields are meaningful depends on
    the connection family's DOF spec; the rest stay at their zero values."""

    yaw_deg: int = 0
    flip: bool = False
    slide_ldu: int = 0
    euler_deg: tuple[int, int, int] | None = None

    def __post_init__(self):
        if not 0 <= self.yaw_deg < 360:
            raise ValueError(f"yaw out of range [0, 360): {self.yaw_deg}")
        if abs(self.slide_ldu) > MAX_SLIDE_LDU:
            raise ValueError("slide out of range [-2**52, 2**52] LDU")
        if self.euler_deg is not None:
            e = tuple(int(v) for v in self.euler_deg)
            if any(not 0 <= v < 360 for v in e):
                raise ValueError(f"euler angles out of range [0, 360): {e}")
            object.__setattr__(self, "euler_deg", e)


def quantize_angle(theta: float) -> int:
    """Nearest integer degree, half-up, normalized into [0, 360)."""
    if not math.isfinite(theta):
        raise ValueError("non-finite angle")
    return int(math.floor(theta + 0.5)) % 360


def quantize_slide(s: float) -> int:
    """Nearest integer LDU, half-up (ties round toward +inf)."""
    if not math.isfinite(s):
        raise ValueError("non-finite slide")
    return int(math.floor(s + 0.5))
