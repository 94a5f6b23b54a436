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
# Largest connector-axis component: squares of larger ones can overflow.
AXIS_LIMIT = 1e150

_IDENTITY3 = np.eye(3)
_IDENTITY3.flags.writeable = False


def orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Project a near-rotation matrix onto SO(3) (polar decomposition via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=np.float64))
    if np.linalg.det(u @ vt) < 0:
        u[:, -1] = -u[:, -1]
    return u @ vt


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform ``x -> rotation @ x + translation`` (LDU).

    Construction repairs small orthonormality drift (> 1e-9) by polar
    projection and rejects matrices that are not within re-projection
    distance of a proper rotation (non-finite or det <= 0).

    The orthonormality error is measured first. When it is finite and within
    ORTHONORMAL_TOL, the rotation is finite and |det| is within 1e-8 of 1, so
    the sign of the scalar triple product decides det > 0 exactly and no
    LAPACK determinant is needed; any other matrix takes the full sequence
    (finite check, determinant, re-projection).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        err = np.abs(r.T @ r - _IDENTITY3).max()
        if err <= ORTHONORMAL_TOL:
            if not all(map(math.isfinite, t.tolist())):
                raise ValueError("non-finite transform")
            (a, b, c), (d, e, f), (g, h, i) = r.tolist()
            if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) <= 0:
                raise ValueError("rotation must have positive determinant")
        else:
            if not (np.isfinite(r).all() and np.isfinite(t).all()):
                raise ValueError("non-finite transform")
            if np.linalg.det(r) <= 0:
                raise ValueError("rotation must have positive determinant")
            if err > ORTHONORMAL_TOL:
                r = orthonormalize(r)
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
        # nan, and the full check sequence runs without a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(rotation, translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or many points (n, 3)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def rotate(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate direction vectors (no translation)."""
        return np.asarray(vectors, dtype=np.float64) @ self.rotation.T

    def max_abs_diff(self, other: "RigidTransform") -> float:
        return max(
            float(np.abs(self.rotation - other.rotation).max()),
            float(np.abs(self.translation - other.translation).max()),
        )

    def is_close(self, other: "RigidTransform", tol: float = 1e-9) -> bool:
        return self.max_abs_diff(other) <= tol

    def rotation_angle_deg_to(self, other: "RigidTransform") -> float:
        """Geodesic angle between the two rotations, in degrees.

        Uses atan2 of the skew-part magnitude against the trace cosine, which
        stays well conditioned for tiny angles (acos of the trace alone
        cannot resolve below ~1e-6 degrees in float64).
        """
        e = self.rotation.T @ other.rotation
        c = (np.trace(e) - 1.0) / 2.0
        s = float(np.linalg.norm(e - e.T)) / (2.0 * math.sqrt(2.0))
        return math.degrees(math.atan2(s, min(1.0, max(-1.0, c))))


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
    def _transform(self) -> RigidTransform:
        return RigidTransform(frame_rotation(self.principal_axis, self.reference_axis), self.origin)

    @cached_property
    def _inverse(self) -> RigidTransform:
        return self._transform.inverse()

    def as_transform(self) -> RigidTransform:
        """Frame as a rigid transform: x column = reference, z = principal.
        Built on first use and kept with the frame."""
        return self._transform

    def inverse_transform(self) -> RigidTransform:
        """``as_transform().inverse()``, built on first use and kept."""
        return self._inverse

    def transformed(self, t: RigidTransform) -> "ConnectorFrame":
        """This frame expressed after applying transform t."""
        return ConnectorFrame(
            t.apply(self.origin),
            t.rotate(self.principal_axis),
            t.rotate(self.reference_axis),
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
