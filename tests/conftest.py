"""Shared fixtures and the test-only helpers: random rigid motions, a
geodesic sphere mesh, axis-angle rotations, the angle between two
rotations, the distance between two rigid transforms, a pose applied to
points, the closeness of two connector frames, a connector frame as a rigid
transform, text renderers for programs and LDraw instances, a graph
component, a rotation's orthonormality error, a program's action count, a
survival proportion, a canonical stats dump, a catalog with an uninsettable
mesh, a collision mesh of a mesh as given, a counter of collision-mesh
builds, LDraw files whose composed transforms overflow, and the frame-level
parameter codec (``realize_params``, ``extract_params``)."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from brickir import collision
from brickir.collision import box_mesh
from brickir.demo import DEMO_STRUCTURES, build_demo_catalog
from brickir.connectors import ConnectorFamily
from brickir.errors import MatchError
from brickir.geometry import (
    ConnectorFrame,
    QuantizedParams,
    RigidTransform,
    frame_rotation,
    relative,
)
from brickir.graph import (
    MatchTolerances,
    _check_pairing,
    _mate,
    _quantize,
    _validate_params,
    param_values,
)


# every number is finite, but the composed matrix or translation at line 1
# of sub.ldr is not
OVERFLOWING_MPDS = {
    "matrix": (
        "0 FILE main.ldr\n1 4 0 0 0 1e200 0 0 0 1e200 0 0 0 1e200 sub.ldr\n"
        "0 FILE sub.ldr\n1 4 0 0 0 1e200 0 0 0 1e200 0 0 0 1e200 3023.dat\n"
    ),
    "translation": (
        "0 FILE main.ldr\n1 4 1e300 1e300 1e300 1e10 0 0 0 1 0 0 0 1 sub.ldr\n"
        "0 FILE sub.ldr\n1 4 1e300 1e300 1e300 1 0 0 0 1 0 0 0 1 3023.dat\n"
    ),
}


@pytest.fixture(scope="session")
def demo_catalog():
    return build_demo_catalog()


def demo_ldr(kind: str = "stack4") -> str:
    return DEMO_STRUCTURES[kind]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_rigid(rng: np.random.Generator, scale: float = 100.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-scale, scale, 3))


def rotation_about_axis(axis: np.ndarray, degrees: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    ax = np.asarray(axis, dtype=np.float64)
    ax = ax / np.linalg.norm(ax)
    theta = math.radians(degrees)
    k = np.array(
        [
            [0.0, -ax[2], ax[1]],
            [ax[2], 0.0, -ax[0]],
            [-ax[1], ax[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def rotation_angle_deg(a: RigidTransform, b: RigidTransform) -> float:
    """Geodesic angle between the two rotations, in degrees.

    Uses atan2 of the skew-part magnitude against the trace cosine, which
    stays well conditioned for tiny angles (acos of the trace alone cannot
    resolve below ~1e-6 degrees in float64).
    """
    e = np.asarray(a.rotation).T @ np.asarray(b.rotation)
    c = (np.trace(e) - 1.0) / 2.0
    s = float(np.linalg.norm(e - e.T)) / (2.0 * math.sqrt(2.0))
    return math.degrees(math.atan2(s, min(1.0, max(-1.0, c))))


def max_abs_diff(a: RigidTransform, b: RigidTransform) -> float:
    """Largest absolute difference between the two transforms' entries."""
    return max(
        float(np.abs(np.subtract(a.rotation, b.rotation)).max()),
        float(np.abs(np.subtract(a.translation, b.translation)).max()),
    )


def is_close(a: RigidTransform, b: RigidTransform, tol: float = 1e-9) -> bool:
    return max_abs_diff(a, b) <= tol


def apply(pose: RigidTransform, points) -> np.ndarray:
    """``pose`` applied to one point (3,) or many points (n, 3): the numpy
    expression collision uses on a pose's arrays."""
    p = np.asarray(points, dtype=np.float64)
    return p @ np.array(pose.rotation).T + np.array(pose.translation)


def has_connector(part, index: str) -> bool:
    """Whether ``part`` (a PartDef) has a connector with this index."""
    return index in part.connectors_by_index


def frames_close(a: ConnectorFrame, b: ConnectorFrame, tol: float = 1e-9) -> bool:
    """Whether the two frames' origins and axes agree within ``tol`` entry by entry."""
    return all(
        abs(u - v) <= tol
        for u, v in zip(
            (*a.origin, *a.principal_axis, *a.reference_axis),
            (*b.origin, *b.principal_axis, *b.reference_axis),
        )
    )


def frame_transform(frame: ConnectorFrame) -> RigidTransform:
    """The frame as a rigid transform: x column = reference, z = principal."""
    return RigidTransform(frame_rotation(frame.principal_axis, frame.reference_axis), frame.origin)


def frame_from_transform(t: RigidTransform) -> ConnectorFrame:
    """The connector frame whose ``frame_transform`` is t."""
    (x0, _, z0), (x1, _, z1), (x2, _, z2) = t.rotation
    return ConnectorFrame(t.translation, (z0, z1, z2), (x0, x1, x2))


def realize_params(
    existing: ConnectorFrame, params: QuantizedParams, family: ConnectorFamily
) -> ConnectorFrame:
    """World frame of the mated connector implied by quantized parameters."""
    family = ConnectorFamily(family)
    _validate_params(family, params)
    rows = frame_transform(existing).rotation
    rot, origin = _mate(rows, existing.origin, family, params)
    return ConnectorFrame(origin, [row[2] for row in rot], [row[0] for row in rot])


def extract_params(
    frame_a: ConnectorFrame, frame_b: ConnectorFrame, family: ConnectorFamily
) -> QuantizedParams:
    """Quantized parameters of the connection from frame_a to frame_b.

    Raises MatchError when the frames do not satisfy the family's matching
    predicate at the default tolerances (axle slide unbounded).
    """
    family = ConnectorFamily(family)
    m = relative(frame_transform(frame_a), frame_transform(frame_b))
    if not _check_pairing(family, m.rotation, m.translation, MatchTolerances(), math.inf):
        raise MatchError("not a valid pairing")
    return _quantize(family, m.rotation, m.translation)


def icosphere_mesh(radius: float, subdivisions: int = 1):
    """Geodesic sphere approximation (icosahedron subdivision)."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts = [v / np.linalg.norm(v) for v in raw]
    tris = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_tris = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        tris = new_tris
    v = np.array(verts) * radius
    return v, np.array(tris, dtype=np.int64)


def render_program(actions) -> str:
    """Parsed actions back to text (inverse of parse_program on valid input)."""
    lines = []
    for intro, attaches in actions:
        lines.append(f"{intro.node} {intro.part_name} | {intro.color_name}")
        for step in attaches:
            target, new = step.target_connector, step.new_connector
            tokens = [
                step.target,
                step.family.value,
                target.subtype,
                target.index,
                new.subtype,
                new.index,
            ] + ["flip"] * step.params.flip
            tokens += [str(v) for v in param_values(step.family, step.params)]
            lines.append(" ".join(tokens))
    return "\n".join(lines) + ("\n" if lines else "")


def component(g, start: int) -> set[int]:
    """Nodes of a ConnectivityGraph connected to ``start``."""
    seen, todo = {start}, [start]
    while todo:
        u = todo.pop()
        for e in g.edges:
            for x, y in ((e.a[0], e.b[0]), (e.b[0], e.a[0])):
                if x == u and y not in seen:
                    seen.add(y)
                    todo.append(y)
    return seen


def orthonormality_error(rotation) -> float:
    """Max-abs deviation of R^T R from the identity."""
    r = np.asarray(rotation, dtype=np.float64)
    return float(np.abs(r.T @ r - np.eye(3)).max())


def survival_proportion(curve, k: int) -> float:
    """Share of a SurvivalCurve's sequences valid for at least k actions."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k >= len(curve.survivors):
        return 0.0
    return curve.survivors[k] / curve.total


def stats_json(stats) -> str:
    """DatasetStats as canonical JSON (sorted keys, compact)."""
    return json.dumps(stats.to_json_obj(), sort_keys=True)


def instances_to_ldr(instances) -> str:
    """Re-serialize instances as type-1 lines (full-precision, lossless)."""
    lines = []
    for inst in instances:
        if inst.raw:
            vals = inst.raw
        else:
            vals = (*inst.pose.translation, *sum(inst.pose.rotation, ()))
        nums = " ".join(repr(float(v)) for v in vals)
        lines.append(f"1 {inst.color} {nums} {inst.part_id}.dat")
    return "\n".join(lines) + ("\n" if lines else "")


def catalog_obj_with_collapsing_mesh(part_id: str) -> dict:
    """The demo catalog's JSON object with the mesh of ``part_id`` replaced by
    a 0.5 LDU cube, which the default 0.25 LDU inset collapses to a point."""
    obj = build_demo_catalog().to_json_obj()
    verts, tris = box_mesh((0.5, 0.5, 0.5))
    obj["parts"][part_id]["mesh"] = {"vertices": verts.tolist(), "triangles": tris.tolist()}
    return obj


def build_collision_mesh(vertices, triangles) -> collision.CollisionMesh:
    """The CollisionMesh of a mesh as given: unlike ``inset_mesh`` at offset
    0 it drops no degenerate triangle and keeps unused vertices, so tests can
    build open, non-manifold and padded meshes exactly."""
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    return collision.CollisionMesh(v, t, v[t])


def count_inset_builds(monkeypatch) -> Counter:
    """Patch ``collision.inset_mesh`` to count its calls per source vertex
    array (one per catalog part)."""
    builds: Counter = Counter()
    real = collision.inset_mesh

    def counting(vertices, triangles, offset):
        builds[id(vertices)] += 1
        return real(vertices, triangles, offset)

    monkeypatch.setattr(collision, "inset_mesh", counting)
    return builds
