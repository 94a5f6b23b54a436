"""Part-part collision detection on inset triangle meshes.

Meshes are inset by moving each vertex inward along its area-weighted
pseudo-normal (0.25 LDU by default, so legitimately tight-fitting parts stop
registering as collisions). The incident face planes move by exactly that
amount only where the incident normals are balanced, as on a cube; the
20x8x20 LDU plate 3024 shrinks by 0.136, 0.341 and 0.136 LDU per side at
0.25. PartColliders maps each part id to its mesh.
An AssemblyChecker keeps the placed world AABBs in arrays and picks near
neighbours with one comparison (broad phase). Each near pair then runs a
level-by-level BVH-vs-BVH traversal whose leaf pairs feed one batched
separating-interval triangle test (narrow phase); surface contact within
TRI_EPS (1e-6 LDU) counts as non-intersecting. Pre-inset meshes may also be
supplied directly (offset 0).

Everything that depends on a mesh alone (node centres and half-extents, the
TRI_EPS-expanded node bounds, the ray-parity terms of every triangle) is
computed once when its BVH is built, so a query does only per-pose work.

CollisionMesh values are immutable after build and safe to share across
threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import BrickIrError
from .geometry import RigidTransform, relative

TRI_EPS = 1e-6
DEGENERATE_AREA = 1e-9
_CORNERS = np.arange(3)

# Oblique fixed ray direction: avoids axis-aligned degeneracies in parity tests.
_RAY_DIR = np.array([0.57735026, 0.51449576, 0.63245553])
_RAY_DIR = _RAY_DIR / np.linalg.norm(_RAY_DIR)


# ---------------------------------------------------------------------------
# BVH


class Bvh:
    """Static axis-aligned bounding-volume hierarchy over triangles, stored as
    flat per-node arrays so traversals can gather many nodes at once.

    Node 0 is the root (nodes are numbered in preorder). ``lo``/``hi`` are
    (N, 3) node bounds, ``left``/``right`` child indices (-1 at leaves),
    ``leaf`` the leaf mask, ``extent`` the largest side of each box and
    ``leaf_tris`` an (N, LEAF_SIZE) table of triangle indices padded with -1
    (all -1 on internal nodes).

    Mesh-only query terms are kept too: ``center``/``half`` of every node box,
    the bounds widened by TRI_EPS (``lo_eps``/``hi_eps``), and per triangle
    the Moller-Trumbore terms of the fixed parity ray (``ray_v0``,
    ``ray_e1``, ``ray_e2``, ``ray_h``, ``ray_ok``, ``ray_inv_det``).
    """

    LEAF_SIZE = 4

    def __init__(self, tri_vertices: np.ndarray):
        # tri_vertices: (m, 3, 3) triangle corner coordinates
        self.tri_vertices = tri_vertices
        m = len(tri_vertices)
        cap = max(2 * m - 1, 0)  # a binary tree over m triangles has < 2m nodes
        lo = np.zeros((cap, 3))
        hi = np.zeros((cap, 3))
        left = np.full(cap, -1, dtype=np.intp)
        right = np.full(cap, -1, dtype=np.intp)
        leaf_tris = np.full((cap, self.LEAF_SIZE), -1, dtype=np.intp)
        centroids = tri_vertices.mean(axis=1)
        tmin = tri_vertices.min(axis=1)
        tmax = tri_vertices.max(axis=1)
        count = 0

        def build(idx: np.ndarray) -> int:
            nonlocal count
            node = count
            count += 1
            lo[node] = tmin[idx].min(axis=0)
            hi[node] = tmax[idx].max(axis=0)
            if len(idx) <= self.LEAF_SIZE:
                leaf_tris[node, : len(idx)] = idx
                return node
            axis = int(np.argmax(hi[node] - lo[node]))
            med = np.argsort(centroids[idx][:, axis], kind="stable")
            half = len(idx) // 2
            left[node] = build(idx[med[:half]])
            right[node] = build(idx[med[half:]])
            return node

        if m:
            build(np.arange(m))
        lo, hi = lo[:count], hi[:count]
        self.left = left[:count]
        self.right = right[:count]
        self.leaf = self.left < 0
        self.extent = (hi - lo).max(axis=1)
        self.leaf_tris = leaf_tris[:count]
        self.center = (lo + hi) / 2.0
        self.half = (hi - lo) / 2.0
        self.lo_eps = lo - TRI_EPS
        self.hi_eps = hi + TRI_EPS
        v0 = tri_vertices[:, 0]
        e1 = tri_vertices[:, 1] - v0
        e2 = tri_vertices[:, 2] - v0
        h = _cross(_RAY_DIR, e2)
        det = np.einsum("ij,ij->i", e1, h)
        ok = np.abs(det) > 1e-12
        inv_det = np.zeros(m)
        inv_det[ok] = 1.0 / det[ok]
        self.ray_v0, self.ray_e1, self.ray_e2 = v0, e1, e2
        self.ray_h, self.ray_ok, self.ray_inv_det = h, ok, inv_det
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    @property
    def root_box(self):
        """Centre and half-extents of the root box (zeros when empty)."""
        if not len(self.center):
            return np.zeros(3), np.zeros(3)
        return self.center[0], self.half[0]


@dataclass(frozen=True)
class CollisionMesh:
    """Triangle mesh prepared for collision queries (optionally inset)."""

    vertices: np.ndarray
    triangles: np.ndarray
    bvh: Bvh = field(repr=False)
    closed: bool = False

    @classmethod
    def build(cls, vertices, triangles) -> "CollisionMesh":
        v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        _check_indices(v, t)
        v.flags.writeable = False
        t.flags.writeable = False
        return cls(v, t, Bvh(v[t]), _is_closed(t))

    def __len__(self):
        return len(self.triangles)


def _check_indices(v: np.ndarray, t: np.ndarray) -> None:
    if len(t) and (t.min() < 0 or t.max() >= len(v)):
        raise BrickIrError("triangle index out of range")


def _is_closed(triangles: np.ndarray) -> bool:
    """Closed iff every undirected edge is shared by exactly two triangles.

    Each edge (a, b), (b, c), (c, a) becomes one integer key min * n + max;
    the sorted keys' run lengths are the per-edge triangle counts."""
    if len(triangles) == 0:
        return False
    u = triangles.ravel()
    w = triangles[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(u, w), np.maximum(u, w)
    keys = np.sort(lo * (int(hi.max()) + 1) + hi)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return bool((np.diff(starts, append=len(keys)) == 2).all())


# ---------------------------------------------------------------------------
# Inset


def inset_mesh(vertices, triangles, offset: float) -> CollisionMesh:
    """Shrink a mesh by ``offset`` LDU along area-weighted vertex pseudo-normals.

    The displacement magnitude is offset / c where c = |sum(A_f n_f)| /
    sum(A_f) over the incident faces, so each incident plane moves inward by
    the requested offset (exactly, when the incident normals are balanced --
    e.g. a 20-LDU cube insets to a 19.5-LDU cube). Degenerate triangles are
    dropped; on open meshes boundary vertices just use their incident faces.
    An inset that collapses every face, or turns the mesh inside out
    (``_inside_out``), raises BrickIrError.

    The per-vertex sums accumulate corner 0, 1, 2 of every triangle in
    triangle order (one bincount over the corner-major index list), so they
    equal sequential np.add.at sums bit for bit.
    """
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if len(t) == 0 or len(v) == 0:
        raise BrickIrError("empty mesh")
    _check_indices(v, t)

    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    cross = _cross(e1, e2)  # |cross| = 2 * area, direction = face normal
    areas2 = np.linalg.norm(cross, axis=1)
    keep = areas2 > 2.0 * DEGENERATE_AREA
    t = t[keep]
    cross = cross[keep]
    areas2 = areas2[keep]
    if len(t) == 0:
        raise BrickIrError("mesh has no non-degenerate triangles")

    corners = t.T.ravel()
    area_sum = np.bincount(corners, np.tile(areas2, 3), len(v))
    normal_sum = np.stack(
        [np.bincount(corners, np.tile(cross[:, k], 3), len(v)) for k in range(3)], axis=1
    )

    norms = np.linalg.norm(normal_sum, axis=1)
    used = area_sum > 0
    displacement = np.zeros_like(v)
    if offset != 0.0:
        c = np.ones(len(v))
        c[used] = norms[used] / area_sum[used]
        c = np.clip(c, 0.1, 1.0)  # guard against runaway moves at spikes
        unit = np.zeros_like(v)
        ok = norms > 1e-12
        unit[ok] = normal_sum[ok] / norms[ok][:, None]
        displacement = -(offset / c)[:, None] * unit
    new_v = v + displacement

    # Drop triangles the inset collapsed, then unused vertices.
    e1 = new_v[t[:, 1]] - new_v[t[:, 0]]
    e2 = new_v[t[:, 2]] - new_v[t[:, 0]]
    new_cross = _cross(e1, e2)
    kept = np.linalg.norm(new_cross, axis=1) > 2.0 * DEGENERATE_AREA
    t = t[kept]
    if len(t) == 0 or _inside_out(v, new_v, t, cross[kept], new_cross[kept]):
        raise BrickIrError("inset collapsed the entire mesh")
    used = np.zeros(len(new_v), dtype=bool)
    used[t] = True
    used_idx = np.flatnonzero(used)
    remap = np.full(len(new_v), -1, dtype=np.int64)
    remap[used_idx] = np.arange(len(used_idx))
    return CollisionMesh.build(new_v[used_idx], remap[t])


def _inside_out(v, new_v, t, cross, new_cross) -> bool:
    """True when an inset went through the part: a kept face's normal turned
    around, or a closed mesh's signed volume changed sign (moving every
    vertex through the opposite side on all three axes keeps each normal)."""
    if (np.einsum("ij,ij->i", new_cross, cross) < 0.0).any():
        return True
    before = np.einsum("ij,ij->", v[t[:, 0]], cross)  # 6x the signed volume when closed
    after = np.einsum("ij,ij->", new_v[t[:, 0]], new_cross)
    return bool(before * after < 0.0) and _is_closed(t)


# ---------------------------------------------------------------------------
# Triangle-triangle intersection (separating-interval test, Moller 1997)


def tri_tri_intersect_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Element-wise ``tri_tri_intersect`` over triangle pairs p[i], q[i].

    p and q are (k, 3, 3); returns a (k,) bool array. Every step is
    element-wise, so a pair's verdict does not depend on the batch it is in.
    """
    n1 = _cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    n2 = _cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
    dp = _plane_dists(p, n2, q[:, 0])  # p's corners against q's plane
    dq = _plane_dists(q, n1, p[:, 0])
    hit = _straddles(dp) & _straddles(dq)
    cand = np.flatnonzero(hit)
    if len(cand) == 0:
        return hit
    # Both triangles cross the other's plane: compare the intervals where
    # they cross the planes' intersection line, projected on its major axis.
    axis = np.argmax(np.abs(_cross(n1[cand], n2[cand])), axis=1)
    rows = cand[:, None]
    lo1, hi1, ok1 = _crossing_intervals(p[rows, _CORNERS, axis[:, None]], dp[cand])
    lo2, hi2, ok2 = _crossing_intervals(q[rows, _CORNERS, axis[:, None]], dq[cand])
    hit[cand] = ok1 & ok2 & (np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > TRI_EPS)
    return hit


def tri_tri_intersect(p: np.ndarray, q: np.ndarray) -> bool:
    """True iff triangles p (3,3) and q (3,3) properly intersect.

    Surface contact within TRI_EPS (including all coplanar overlap) counts
    as non-intersecting.
    """
    return bool(tri_tri_intersect_batch(p[None], q[None])[0])


def _plane_dists(pts, normal, origin):
    """Signed distances (k, 3) of each triangle's corners to the plane through
    ``origin`` with ``normal`` (unnormalised); values within TRI_EPS of the
    plane snap to 0."""
    d = -np.einsum("kj,kj->k", normal, origin)
    dv = np.einsum("kij,kj->ki", pts, normal) + d[:, None]
    snap = TRI_EPS * np.linalg.norm(normal, axis=1)
    dv[np.abs(dv) <= snap[:, None]] = 0.0
    return dv


def _straddles(dv):
    """Rows whose corners lie strictly on both sides of the plane."""
    return ~((dv >= 0).all(axis=1) | (dv <= 0).all(axis=1))


def _crossing_intervals(proj, dv):
    """Per row, the interval where a triangle crosses the other's plane, on
    the chosen axis: (lo, hi, ok), ok False where a pivot edge is parallel.

    The pivot vertex must sit strictly on one side alone (zeros count as the
    majority side), so each pivot edge properly crosses the plane.
    """
    d0, d1, d2 = dv[:, 0], dv[:, 1], dv[:, 2]
    alone = np.select(
        [d0 * d1 > 0, d0 * d2 > 0, (d1 * d2 > 0) | (d0 != 0), d1 != 0], [2, 1, 0, 1], default=2
    )
    rows = np.arange(len(dv))[:, None]
    order = (alone[:, None] + _CORNERS) % 3  # pivot first, then the other two
    d = dv[rows, order]
    x = proj[rows, order]
    denom = d[:, :1] - d[:, 1:]
    ok = (denom != 0.0).all(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pts = x[:, :1] + (x[:, 1:] - x[:, :1]) * (d[:, :1] / denom)
    return pts.min(axis=1), pts.max(axis=1), ok


def _cross(u, v):
    """Cross products of (..., 3) arrays: np.cross's arithmetic, without its
    per-call axis handling."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0), axis=-1)


# ---------------------------------------------------------------------------
# Pairwise mesh query


def _transform_boxes(center, half, rotation, translation):
    """Conservative AABBs (lo, hi) of boxes given by their centres and
    half-extents, (n, 3) or (3,), after a rigid map."""
    center = center @ rotation.T + translation
    half = half @ np.abs(rotation).T
    return center - half, center + half


def intersects(
    a: CollisionMesh, pose_a: RigidTransform, b: CollisionMesh, pose_b: RigidTransform
) -> bool:
    """True iff the posed meshes properly intersect (or one closed mesh
    contains the other; containment is only tested when both are closed).

    The two BVHs are traversed one level at a time: the frontier of
    (node of a, node of b) pairs is held as arrays, every pair's boxes are
    tested in one step, and the larger node of each overlapping pair splits.
    The triangle pairs of all overlapping leaf pairs on a level go through
    one batched triangle test.
    """
    if len(a) == 0 or len(b) == 0:
        return False
    rel = relative(pose_b, pose_a)  # maps a-local into b-local
    rot, trans = rel.rotation, rel.translation
    ta, tb = a.bvh, b.bvh
    tri_a = ta.tri_vertices @ rot.T + trans
    box_lo, box_hi = _transform_boxes(ta.center, ta.half, rot, trans)  # all of a's, in b's frame
    na = nb = np.zeros(1, dtype=np.intp)
    while len(na):
        overlap = ((box_lo[na] <= tb.hi_eps[nb]) & (box_hi[na] >= tb.lo_eps[nb])).all(axis=1)
        na, nb = na[overlap], nb[overlap]
        leaf_a, leaf_b = ta.leaf[na], tb.leaf[nb]
        both = leaf_a & leaf_b
        if both.any() and _leaf_pairs_hit(tri_a, ta.leaf_tris[na[both]], tb, nb[both]):
            return True
        split_b = ~leaf_b & (leaf_a | (tb.extent[nb] > ta.extent[na]))
        split_a = ~leaf_a & ~split_b
        a_keep, b_split = na[split_b], nb[split_b]
        a_split, b_keep = na[split_a], nb[split_a]
        na = np.concatenate((a_keep, a_keep, ta.left[a_split], ta.right[a_split]))
        nb = np.concatenate((tb.left[b_split], tb.right[b_split], b_keep, b_keep))

    if a.closed and b.closed:
        if point_in_mesh(rel.apply(a.vertices[0]), b):
            return True
        inv = rel.inverse()
        if point_in_mesh(inv.apply(b.vertices[0]), a):
            return True
    return False


def _leaf_pairs_hit(tri_a, tris_a, tb: Bvh, leaves_b) -> bool:
    """Any hit among the triangle pairs of the given leaf pairs? ``tris_a``
    holds the padded triangle rows of a's leaves; ``tri_a`` is a's triangles
    already in b's frame."""
    tris_b = tb.leaf_tris[leaves_b]
    ia, ib = np.broadcast_arrays(tris_a[:, :, None], tris_b[:, None, :])
    real = (ia >= 0) & (ib >= 0)
    return bool(tri_tri_intersect_batch(tri_a[ia[real]], tb.tri_vertices[ib[real]]).any())


def point_in_mesh(point: np.ndarray, mesh: CollisionMesh) -> bool:
    """Ray-parity containment test (reliable only for closed meshes).
    Moller-Trumbore over all triangles, vectorized; the terms that depend on
    the mesh alone come from its BVH."""
    bvh = mesh.bvh
    if len(bvh.tri_vertices) == 0:
        return False
    inv_det = bvh.ray_inv_det
    s = point[None, :] - bvh.ray_v0
    u = np.einsum("ij,ij->i", s, bvh.ray_h) * inv_det
    qv = _cross(s, bvh.ray_e1)
    v = (qv @ _RAY_DIR) * inv_det
    t = np.einsum("ij,ij->i", bvh.ray_e2, qv) * inv_det
    hits = bvh.ray_ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
    return bool(hits.sum() % 2 == 1)


# ---------------------------------------------------------------------------
# Assembly-level checks


class PartColliders:
    """Part id -> CollisionMesh: the one mesh table that every collision
    consumer reads. A part's mesh is built on its first lookup and kept;
    builds run under a lock, so threads sharing the table build each mesh
    once. Meshes are immutable, so the table is shareable; each consumer
    places parts into its own AssemblyChecker.

    ``get`` returns None for an unknown part and for a part without
    geometry. A mesh that cannot be built raises from the lookup that needs
    it."""

    def __init__(self, catalog, inset: float):
        self._catalog = catalog
        self._inset = inset
        self._meshes: dict = {}
        self._lock = threading.Lock()

    @classmethod
    def from_catalog(cls, catalog, inset: float = 0.25) -> "PartColliders":
        """The table of inset collision meshes for the catalog's parts that
        have geometry (inset 0 keeps meshes verbatim, e.g. pre-inset inputs).
        Nothing is built until a part is looked up."""
        return cls(catalog, inset)

    def get(self, part_id) -> CollisionMesh | None:
        mesh = self._meshes.get(part_id)
        if mesh is not None:
            return mesh
        part = self._catalog.parts.get(part_id)
        if part is None or part.mesh is None or len(part.mesh) == 0:
            return None
        with self._lock:
            mesh = self._meshes.get(part_id)
            if mesh is None:
                v, t = part.mesh.vertices, part.mesh.triangles
                mesh = inset_mesh(v, t, self._inset) if self._inset else CollisionMesh.build(v, t)
                self._meshes[part_id] = mesh
        return mesh


class AssemblyChecker:
    """Incremental collision check: feed placements one by one.

    The world AABBs of the placed instances, widened by TRI_EPS when they
    are stored, live in growable (n, 3) arrays, so the broad phase is one
    comparison per placement.

    Not thread-safe; use one checker per worker.
    """

    def __init__(self):
        self._placed: list[tuple[CollisionMesh, RigidTransform]] = []
        self._lo_eps = np.empty((16, 3))
        self._hi_eps = np.empty((16, 3))

    def __len__(self):
        return len(self._placed)

    def add(self, mesh: CollisionMesh, pose: RigidTransform) -> list[int]:
        """Place one instance; returns the 0-based placement indices it
        collides with (may be empty), in placement order."""
        lo, hi = _transform_boxes(*mesh.bvh.root_box, pose.rotation, pose.translation)
        step = len(self._placed)
        near = np.flatnonzero(
            ((lo <= self._hi_eps[:step]) & (hi >= self._lo_eps[:step])).all(axis=1)
        )
        hits = []
        for i in near:
            other_mesh, other_pose = self._placed[i]
            if intersects(mesh, pose, other_mesh, other_pose):
                hits.append(int(i))
        if step == len(self._lo_eps):
            self._lo_eps = np.concatenate((self._lo_eps, np.empty_like(self._lo_eps)))
            self._hi_eps = np.concatenate((self._hi_eps, np.empty_like(self._hi_eps)))
        self._lo_eps[step] = lo - TRI_EPS
        self._hi_eps[step] = hi + TRI_EPS
        self._placed.append((mesh, pose))
        return hits


# ---------------------------------------------------------------------------
# Mesh construction helpers


def box_mesh(size, center=(0.0, 0.0, 0.0)):
    """Axis-aligned box with the alternating (tetrahedral) triangulation.
    On a cube the corner pseudo-normals are exact space diagonals, so cube
    insets are exact; unequal sides shrink by unequal amounts.
    Returns (vertices, triangles)."""
    half = np.asarray(size, dtype=np.float64) / 2.0
    c = np.asarray(center, dtype=np.float64)
    corners = np.array(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=np.float64
    )
    verts = c + (corners - 0.5) * 2.0 * half

    def parity(i):
        return (i & 1) ^ ((i >> 1) & 1) ^ ((i >> 2) & 1)

    tris = []
    for axis in range(3):
        for side in (0, 1):
            face = [i for i in range(8) if ((i >> (2 - axis)) & 1) == side]
            evens = [i for i in face if parity(i) == 0]
            odds = [i for i in face if parity(i) == 1]
            d0, d1 = evens
            outward = np.zeros(3)
            outward[axis] = 1.0 if side else -1.0
            for o in odds:
                tri = [d0, o, d1]
                n = np.cross(verts[tri[1]] - verts[tri[0]], verts[tri[2]] - verts[tri[0]])
                if n @ outward < 0:
                    tri = [d0, d1, o]
                tris.append(tri)
    return verts, np.array(tris, dtype=np.int64)


def merge_meshes(parts):
    """Concatenate (vertices, triangles) pairs into one mesh."""
    verts = []
    tris = []
    base = 0
    for v, t in parts:
        verts.append(np.asarray(v, dtype=np.float64))
        tris.append(np.asarray(t, dtype=np.int64) + base)
        base += len(v)
    return np.concatenate(verts), np.concatenate(tris)
