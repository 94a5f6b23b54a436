"""Rigid-transform arithmetic in LDraw units, plus the integer quantization rules.

Rotations are proper (det +1) 3x3 float64 matrices; translations are in LDU.
The integer degree / integer LDU grid appears only at serialization
boundaries -- all internal math stays in 64-bit floats.
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

_IDENTITY3 = np.eye(3)
_IDENTITY3.flags.writeable = False


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


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform ``x -> rotation @ x + translation`` (LDU).

    Construction takes one route: every number must be finite, and the
    rotation's determinant (its scalar triple product) positive. A rotation
    whose orthonormality error exceeds ORTHONORMAL_TOL is then replaced by
    ``nearest_rotation``, which repairs composition drift; one that is not
    rigid (a singular value beyond SCALE_TOL of 1) raises ValueError. A
    rotation within ORTHONORMAL_TOL runs no LAPACK code.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        rows = r.tolist()
        if not all(map(math.isfinite, (*rows[0], *rows[1], *rows[2], *t.tolist()))):
            raise ValueError("non-finite transform")
        if _det3(rows) <= 0:
            raise ValueError("rotation must have positive determinant")
        # "not <=" also sends an error of inf or nan (RᵀR overflowed) to the repair
        if not np.abs(r.T @ r - _IDENTITY3).max() <= ORTHONORMAL_TOL:
            r, rigid = nearest_rotation(r)
            if not rigid:
                raise ValueError(f"rotation is scaled or sheared beyond {SCALE_TOL:g}")
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))

    def to_json_obj(self) -> dict:
        """``{"rot": row-major 9 floats, "t": 3 floats}``, the pose JSON of
        every CLI output and of graph files."""
        return {
            "rot": [float(v) for v in self.rotation.reshape(9)],
            "t": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "RigidTransform":
        rotation = np.array(obj["rot"], dtype=np.float64).reshape(3, 3)
        translation = np.array(obj["t"], dtype=np.float64)
        # Entries near the float limit overflow RᵀR: the error is then inf or
        # nan, the repair rejects the matrix, and numpy warns of nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(rotation, translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (n, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """a after b: ``compose(a, b).apply(x) == a.apply(b.apply(x))``."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def relative(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """The transform r with ``compose(a, r) == b``, i.e. a^-1 o b."""
    rt = a.rotation.T
    return RigidTransform(rt @ b.rotation, rt @ (b.translation - a.translation))


def unit_axes(principal: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a principal axis and project the reference axis into the
    plane perpendicular to it, then normalize that too.

    The norms are np.linalg.norm's arithmetic on a 1-D float vector (the
    square root of the raveled vector's dot with itself), without its
    dispatch; math.sqrt and np.sqrt are both correctly rounded, so they agree.
    """
    x = principal.ravel(order="K")
    pn = math.sqrt(x.dot(x))
    if pn < 1e-9:
        raise ValueError("zero-length principal axis")
    p = principal / pn
    r = reference - (reference @ p) * p
    x = r.ravel(order="K")
    rn = math.sqrt(x.dot(x))
    if rn < 1e-9:
        raise ValueError("reference axis parallel to principal axis")
    return p, r / rn


def frame_rotation(principal: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The rotation with columns x = reference, y = z cross x, z = principal.

    The cross product is written out: it is np.cross's arithmetic, without
    the axis handling that makes np.cross slow on single vectors.
    """
    z0, z1, z2 = principal.tolist()
    x0, x1, x2 = reference.tolist()
    return np.array(
        [
            [x0, z1 * x2 - z2 * x1, z0],
            [x1, z2 * x0 - z0 * x2, z1],
            [x2, z0 * x1 - z1 * x0, z2],
        ]
    )


def place_frame(rotation, translation, frame: ConnectorFrame) -> tuple[np.ndarray, np.ndarray]:
    """Rotation (x column = reference, z = principal) and origin of the local
    ``frame`` on a part posed by (rotation, translation), bit for bit those of
    ``frame.transformed(pose)``: the one code that places connector frames,
    for the matcher and ``attach_pose``."""
    rt = rotation.T
    z, x = unit_axes(frame.principal_axis @ rt, frame.reference_axis @ rt)
    return frame_rotation(z, x), frame.origin @ rt + translation


@dataclass(frozen=True)
class ConnectorFrame:
    """Local rigid frame of one attachment site.

    ``principal_axis`` is the rotation/slide axis, ``reference_axis`` the
    zero-yaw datum perpendicular to it. Construction renormalizes the axes
    and projects the reference axis into the plane perpendicular to the
    principal axis.
    """

    origin: np.ndarray
    principal_axis: np.ndarray
    reference_axis: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=np.float64).reshape(3)
        p = np.asarray(self.principal_axis, dtype=np.float64).reshape(3)
        r = np.asarray(self.reference_axis, dtype=np.float64).reshape(3)
        if not (np.isfinite(o).all() and np.isfinite(p).all() and np.isfinite(r).all()):
            raise ValueError("non-finite connector frame")
        if max(map(abs, p.tolist() + r.tolist())) > AXIS_LIMIT:  # its square would overflow
            raise ValueError(f"connector axis component beyond {AXIS_LIMIT:g}")
        p, r = unit_axes(p, r)
        for arr in (o, p, r):
            arr.flags.writeable = False
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
        rt = t.rotation.T
        return ConnectorFrame(
            self.origin @ rt + t.translation, self.principal_axis @ rt, self.reference_axis @ rt
        )

    def is_close(self, other: "ConnectorFrame", tol: float = 1e-9) -> bool:
        return (
            np.abs(self.origin - other.origin).max() <= tol
            and np.abs(self.principal_axis - other.principal_axis).max() <= tol
            and np.abs(self.reference_axis - other.reference_axis).max() <= tol
        )


# Largest slide magnitude: every integer up to 2**53 is exact in float64.
MAX_SLIDE_LDU = 2**53


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
            raise ValueError("slide out of range [-2**53, 2**53] LDU")
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
