"""Part-part collision detection on inset triangle meshes.

Meshes are inset by moving each vertex inward along its area-weighted
pseudo-normal (0.25 LDU by default, so legitimately tight-fitting parts stop
registering as collisions). The incident face planes move by exactly that
amount only where the incident normals are balanced, as on a cube; the
20x8x20 LDU plate 3024 shrinks by 0.136, 0.341 and 0.136 LDU per side at
0.25. A CollisionMesh holds the mesh together with its bounding-volume
hierarchy (BVH); PartColliders maps each part id to its mesh, one mesh per
distinct geometry.
An AssemblyChecker keeps each placed world AABB, widened by TRI_EPS, as
one row (lo, -hi) of an (n, 6) array and picks near neighbours with one
comparison of the rows against the new box's (hi, -lo) and one all()
along the rows (broad phase); near pairs run the narrow phase to the first hit.
Two one-leaf meshes skip the tree: after their root boxes, all of one's
triangle boxes are tested against all of the other's in one broadcast
comparison (the leaf-level all-pairs box test of Ericson 2004,
Real-Time Collision Detection, ch. 6). A pair that involves a larger mesh
runs a level-by-level BVH-vs-BVH traversal, whose overlapping leaf pairs
filter their triangle pairs by the same boxes. The survivors feed one
batched separating-interval triangle test; surface contact within TRI_EPS
(1e-6 LDU) counts as non-intersecting. Two closed meshes also collide when
the first triangle corner of one (not a vertex: it may be unused) lies
inside the other: a ray-parity test, which a point outside the other mesh's
box skips. Pre-inset meshes keep their vertices in place at offset 0.

A mesh of at most ONE_LEAF_MAX (64) triangles, as every demo part is, is
a single leaf and is built without the tree code: for parts that small a
tree walk costs more than it prunes, and the triangle-box filter prunes
instead. Larger meshes keep a median-split tree with LEAF_SIZE (4)
triangles per leaf. The inset gathers the triangle corners once per pass
over the triangles, one bincount sums the per-vertex normals and areas, and
the mesh takes the second pass's corners as its own.

The filter loses no hit of the exact triangle test: that test reports a hit
only when the two triangles' crossing segments, on the line where their
planes meet, overlap by more than TRI_EPS, and such segments share points
of both triangles, so the two boxes overlap. The computed test snaps
corners within TRI_EPS of the other plane onto it, and between two nearly
coplanar triangles (planes within about 1e-5 rad of parallel) the snapped
corner can put its crossing segment where the triangle has none. Such a
false hit can lie between triangles whose boxes are apart, and the filter
drops it.

The bounds that every query reads (its BVH nodes' centres and
half-extents, the TRI_EPS-expanded node and triangle bounds) are computed
once when the CollisionMesh is built. The ray-parity terms are not: few
containment points pass the box test, so point_in_mesh computes them past
it. A CollisionMesh has at least one triangle; its arrays are read-only.
"""

from __future__ import annotations

import numpy as np

from .errors import BrickIrError
from .geometry import RigidTransform, mat_t_vec, mat_vec_add, relative_rows

TRI_EPS = 1e-6
DEGENERATE_AREA = 1e-9
_CORNERS = np.arange(3)
_BIN_COLUMNS = np.arange(4)  # inset_mesh's per-vertex bins: normal x, y, z and area
_NO_CHILD = np.full(1, -1, dtype=np.intp)  # left and right of a one-leaf mesh's root
_NO_CHILD.setflags(write=False)

# Oblique fixed ray direction: avoids axis-aligned degeneracies in parity tests.
_RAY_DIR = np.array([0.57735026, 0.51449576, 0.63245553])
_RAY_DIR = _RAY_DIR / np.linalg.norm(_RAY_DIR)


# ---------------------------------------------------------------------------
# Collision mesh


class CollisionMesh:
    """Triangle mesh prepared for collision queries (optionally inset),
    holding a static axis-aligned bounding-volume hierarchy over its
    triangles as flat per-node arrays, so traversals can gather many nodes
    at once. Build one with ``inset_mesh``.

    ``vertices`` (n, 3) and ``triangles`` (m, 3) are the mesh,
    ``tri_vertices`` its (m, 3, 3) triangle corners, and ``closed`` is True
    iff every undirected edge is shared by exactly two triangles.

    BVH node 0 is the root (nodes are numbered in preorder). ``left``/``right``
    are child indices (-1 at leaves), ``leaf`` the leaf mask, ``extent`` the
    largest side of each box and ``leaf_tris`` a table of triangle indices
    padded with -1 (all -1 on internal nodes). A mesh of at most
    ONE_LEAF_MAX triangles is one leaf, node 0, whose ``leaf_tris`` row
    holds all its triangles; a larger mesh is split at the median centroid
    along the longest box side until at most LEAF_SIZE triangles are left.

    Mesh-only query terms are kept too: ``center``/``half`` of every node box
    (and of the root as float tuples, ``root_center``/``root_half``),
    the node bounds widened by TRI_EPS (``lo_eps``/``hi_eps``), and per
    triangle its widened box (``tri_lo_eps``/``tri_hi_eps``, which filter
    triangle pairs before the triangle test). Every array is read-only.
    """

    LEAF_SIZE = 4
    ONE_LEAF_MAX = 64

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray, tri_vertices: np.ndarray):
        """``tri_vertices`` is ``vertices[triangles]``, which the caller has
        gathered already."""
        self.vertices = vertices
        self.triangles = triangles
        self.closed = _is_closed(triangles, len(vertices))
        self.tri_vertices = tri_vertices
        m = len(tri_vertices)
        tmin, tmax = _corner_bounds(tri_vertices)
        if m <= self.ONE_LEAF_MAX:
            lo = tmin.min(axis=0, keepdims=True)
            hi = tmax.max(axis=0, keepdims=True)
            self.left = self.right = _NO_CHILD
            self.leaf_tris = np.arange(m)[None]
        else:
            lo, hi = self._build_tree(tri_vertices.mean(axis=1), tmin, tmax)
        size = hi - lo
        self.leaf = self.left < 0
        self.extent = size.max(axis=1)
        self.center = (lo + hi) / 2.0
        self.half = size / 2.0
        self.root_center = tuple(self.center[0].tolist())
        self.root_half = tuple(self.half[0].tolist())
        self.lo_eps = lo - TRI_EPS
        self.hi_eps = hi + TRI_EPS
        self.tri_lo_eps = tmin - TRI_EPS
        self.tri_hi_eps = tmax + TRI_EPS
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)

    def _build_tree(self, centroids, tmin, tmax):
        """The median-split tree of a mesh above ONE_LEAF_MAX triangles:
        sets ``left``, ``right`` and ``leaf_tris`` and returns the node
        bounds (lo, hi)."""
        m = len(centroids)
        cap = 2 * m - 1  # a binary tree over m triangles has < 2m nodes
        lo = np.zeros((cap, 3))
        hi = np.zeros((cap, 3))
        left = np.full(cap, -1, dtype=np.intp)
        right = np.full(cap, -1, dtype=np.intp)
        leaf_tris = np.full((cap, self.LEAF_SIZE), -1, dtype=np.intp)
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

        build(np.arange(m))
        self.left = left[:count]
        self.right = right[:count]
        self.leaf_tris = leaf_tris[:count]
        return lo[:count], hi[:count]

    def __len__(self):
        return len(self.triangles)


def _is_closed(triangles: np.ndarray, n: int) -> bool:
    """Closed iff every undirected edge is shared by exactly two triangles
    (``n`` bounds the vertex indices).

    Each edge (a, b), (b, c), (c, a) becomes one integer key min * n + max.
    Every key occurs exactly twice iff the sorted keys pair up (the step
    from position 2i to 2i + 1 is zero) and no two neighbouring pairs are
    equal (every step from 2i + 1 to 2i + 2 is not)."""
    u = triangles.ravel()
    w = np.concatenate((triangles[:, 1:], triangles[:, :1]), axis=1).ravel()
    keys = np.sort(np.minimum(u, w) * n + np.maximum(u, w))
    if len(keys) % 2:
        return False
    steps = keys[1:] - keys[:-1]
    return not np.count_nonzero(steps[::2]) and np.count_nonzero(steps[1::2]) == len(steps) // 2


def _corner_bounds(tri):
    """Per triangle of (m, 3, 3) corners, the box (lo, hi): element-wise
    minima and maxima over the three corners, which are cheaper than a
    reduction along the corner axis."""
    c0, c1, c2 = tri[:, 0], tri[:, 1], tri[:, 2]
    return np.minimum(np.minimum(c0, c1), c2), np.maximum(np.maximum(c0, c1), c2)


# ---------------------------------------------------------------------------
# Inset


def inset_mesh(vertices, triangles, offset: float) -> CollisionMesh:
    """Shrink a mesh by ``offset`` LDU along area-weighted vertex pseudo-normals.

    The displacement magnitude is offset / c where c = |sum(A_f n_f)| /
    sum(A_f) over the incident faces, so each incident plane moves inward by
    the requested offset (exactly, when the incident normals are balanced --
    e.g. a 20-LDU cube insets to a 19.5-LDU cube). At every offset, 0
    included, degenerate triangles are dropped and unused vertices compacted
    away; on open meshes boundary vertices just use their incident faces.
    An inset that collapses every face, or turns the mesh inside out
    (``_inside_out``), raises BrickIrError.

    Each pass over the triangles gathers their corners once. The per-vertex
    normal and area sums are one bincount whose bin (vertex, column)
    accumulates corner 0, 1, 2 of every triangle in triangle order, so they
    equal sequential np.add.at sums bit for bit. Unused vertices are
    compacted away only when some vertex is unused; the mesh never shares
    an array with the caller. The divisions are masked (``where=``) rather
    than done everywhere under ``np.errstate``, and ``all()`` tests are
    counts: each numpy call costs about a microsecond on a 12-triangle part.
    """
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    t = np.array(triangles, dtype=np.int64).reshape(-1, 3)
    if len(t) == 0 or len(v) == 0:
        raise BrickIrError("empty mesh")
    if t.min() < 0 or t.max() >= len(v):
        raise BrickIrError("triangle index out of range")
    n = len(v)

    corners = v[t]
    cross = _triangle_normals(corners)  # |cross| = 2 * area, direction = face normal
    areas2 = _norms(cross)
    keep = areas2 > 2.0 * DEGENERATE_AREA
    if np.count_nonzero(keep) < len(t):
        t, corners, cross, areas2 = t[keep], corners[keep], cross[keep], areas2[keep]
    if len(t) == 0:
        raise BrickIrError("mesh has no non-degenerate triangles")

    weights = np.empty((3, len(t), 4))  # (corner, triangle, column), as the keys
    weights[:, :, :3] = cross
    weights[:, :, 3] = areas2
    keys = (t.T * 4)[:, :, None] + _BIN_COLUMNS
    sums = np.bincount(keys.ravel(), weights.ravel(), 4 * n).reshape(-1, 4)
    normal_sum, area_sum = sums[:, :3], sums[:, 3]

    used = area_sum > 0  # a corner of a kept triangle
    if offset != 0.0:
        norms = _norms(normal_sum)
        c = np.divide(norms, area_sum, out=np.ones(n), where=used)
        c = np.minimum(np.maximum(c, 0.1), 1.0)  # guard against runaway moves at spikes
        unit = np.divide(
            normal_sum, norms[:, None], out=np.zeros((n, 3)), where=(norms > 1e-12)[:, None]
        )
        new_v = v - (offset / c)[:, None] * unit
    else:
        new_v = v + 0.0  # a copy, with -0.0 turned to 0.0 as a zero move does

    # Drop triangles the inset collapsed, then unused vertices.
    new_corners = new_v[t]
    new_cross = _triangle_normals(new_corners)
    kept = _norms(new_cross) > 2.0 * DEGENERATE_AREA
    if np.count_nonzero(kept) < len(t):
        t, corners, cross = t[kept], corners[kept], cross[kept]
        new_corners, new_cross = new_corners[kept], new_cross[kept]
        used = np.zeros(n, dtype=bool)
        used[t] = True
    if len(t) == 0 or _inside_out(corners[:, 0], new_corners[:, 0], t, cross, new_cross, n):
        raise BrickIrError("inset collapsed the entire mesh")
    if np.count_nonzero(used) == n:
        return CollisionMesh(new_v, t, new_corners)
    used_idx = np.flatnonzero(used)
    remap = np.full(n, -1, dtype=np.int64)
    remap[used_idx] = np.arange(len(used_idx))
    return CollisionMesh(new_v[used_idx], remap[t], new_corners)


def _inside_out(v0, new_v0, t, cross, new_cross, n) -> bool:
    """True when an inset went through the part: a kept face's normal turned
    around, or a closed mesh's signed volume changed sign (moving every
    vertex through the opposite side on all three axes keeps each normal).
    ``v0`` and ``new_v0`` are each triangle's first corner before and after;
    ``n`` bounds the vertex indices in ``t``."""
    if np.count_nonzero(np.einsum("ij,ij->i", new_cross, cross) < 0.0):
        return True
    before = np.einsum("ij,ij->", v0, cross)  # 6x the signed volume when closed
    after = np.einsum("ij,ij->", new_v0, new_cross)
    return bool(before * after < 0.0) and _is_closed(t, n)


# ---------------------------------------------------------------------------
# Triangle-triangle intersection (separating-interval test, Moller 1997)


def tri_tri_intersect_batch(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Element-wise ``tri_tri_intersect`` over triangle pairs p[i], q[i].

    p and q are (k, 3, 3); returns a (k,) bool array. Every step is
    element-wise, so a pair's verdict does not depend on the batch it is in.
    """
    n1 = _triangle_normals(p)
    n2 = _triangle_normals(q)
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
    snap = TRI_EPS * _norms(normal)
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
    per-call axis handling, each component written into its column of the
    result (``np.stack`` costs more than the products)."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    c0 = u1 * v2 - u2 * v1
    out = np.empty((*c0.shape, 3))
    out[..., 0] = c0
    np.subtract(u2 * v0, u0 * v2, out=out[..., 1])
    np.subtract(u0 * v1, u1 * v0, out=out[..., 2])
    return out


def _norms(x):
    """Euclidean norms of the rows of an (n, 3) array: np.linalg.norm's
    arithmetic, without its per-call argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _triangle_normals(corners):
    """Unnormalised normals (twice the area, by length) of (m, 3, 3)
    triangle corners."""
    c0 = corners[:, 0]
    return _cross(corners[:, 1] - c0, corners[:, 2] - c0)


# ---------------------------------------------------------------------------
# Pairwise mesh query


def _transform_boxes(center, half, rotation, translation):
    """Conservative AABBs (lo, hi) of boxes given by their (n, 3) centres
    and half-extents, after a rigid map."""
    center = center @ rotation.T + translation
    half = half @ np.abs(rotation).T
    return center - half, center + half


def intersects(
    a: CollisionMesh, pose_a: RigidTransform, b: CollisionMesh, pose_b: RigidTransform
) -> bool:
    """True iff the posed meshes properly intersect (or one closed mesh
    contains the other; containment is only tested when both are closed).

    When both meshes are one BVH node, their root boxes are tested, then all
    of a's triangle boxes against all of b's in one broadcast comparison,
    and only the pairs whose boxes overlap go through the batched triangle
    test (``_one_leaf_hit``). Otherwise the two BVHs are walked
    (``_walk_hit``). a's triangles and their boxes are put in b's frame
    once, when a pair of leaves is first reached.
    """
    rel_rot, rel_trans = relative_rows(  # maps a-local into b-local
        pose_b.rotation, pose_b.translation, pose_a.rotation, pose_a.translation
    )
    rot, trans = np.array(rel_rot), np.array(rel_trans)
    one_leaf = len(a.leaf) == 1 and len(b.leaf) == 1
    if (_one_leaf_hit if one_leaf else _walk_hit)(a, b, rot, trans):
        return True
    if a.closed and b.closed:
        if point_in_mesh(a.tri_vertices[0, 0] @ rot.T + trans, b):
            return True
        x, y, z = mat_t_vec(rel_rot, rel_trans)  # the inverse, as RigidTransform.inverse has it
        inv_rot, inv_trans = np.array(tuple(zip(*rel_rot))), np.array((-x, -y, -z))
        if point_in_mesh(b.tri_vertices[0, 0] @ inv_rot.T + inv_trans, a):
            return True
    return False


def _one_leaf_hit(a: CollisionMesh, b: CollisionMesh, rot, trans) -> bool:
    """Any triangle hit between two one-node meshes, a mapped into b's frame
    by (rot, trans)? The root boxes are the (1, 3) arrays of the walk's first
    level, so every value equals the walk's."""
    box_lo, box_hi = _transform_boxes(a.center, a.half, rot, trans)
    if not ((box_lo <= b.hi_eps) & (box_hi >= b.lo_eps)).all():
        return False
    tri_a, lo_a, hi_a = _posed_triangles(a, rot, trans)
    near = ((lo_a[:, None] <= b.tri_hi_eps) & (hi_a[:, None] >= b.tri_lo_eps)).all(axis=2)
    if not near.any():
        return False
    ia, ib = np.nonzero(near)
    return bool(tri_tri_intersect_batch(tri_a[ia], b.tri_vertices[ib]).any())


def _walk_hit(a: CollisionMesh, b: CollisionMesh, rot, trans) -> bool:
    """Any triangle hit found by walking both BVHs, a mapped into b's frame
    by (rot, trans)? The walk goes one level at a time: the frontier of
    (node of a, node of b) pairs is held as arrays, every pair's boxes are
    tested in one step, and the larger node of each overlapping pair splits.
    The triangle pairs of all overlapping leaf pairs on a level are filtered
    by their triangle boxes, and the survivors go through one batched
    triangle test."""
    box_lo, box_hi = _transform_boxes(a.center, a.half, rot, trans)  # all of a's, in b's frame
    posed = None
    na = nb = np.zeros(1, dtype=np.intp)
    while len(na):
        overlap = ((box_lo[na] <= b.hi_eps[nb]) & (box_hi[na] >= b.lo_eps[nb])).all(axis=1)
        na, nb = na[overlap], nb[overlap]
        leaf_a, leaf_b = a.leaf[na], b.leaf[nb]
        both = leaf_a & leaf_b
        if both.any():
            if posed is None:
                posed = _posed_triangles(a, rot, trans)
            if _leaf_pairs_hit(posed, a.leaf_tris[na[both]], b, nb[both]):
                return True
        split_b = ~leaf_b & (leaf_a | (b.extent[nb] > a.extent[na]))
        split_a = ~leaf_a & ~split_b
        a_keep, b_split = na[split_b], nb[split_b]
        a_split, b_keep = na[split_a], nb[split_a]
        na = np.concatenate((a_keep, a_keep, a.left[a_split], a.right[a_split]))
        nb = np.concatenate((b.left[b_split], b.right[b_split], b_keep, b_keep))
    return False


def _posed_triangles(a: CollisionMesh, rot, trans):
    """a's triangles mapped by (rot, trans), with their boxes (lo, hi)."""
    tri = a.tri_vertices @ rot.T + trans
    return (tri, *_corner_bounds(tri))


def _leaf_pairs_hit(posed, tris_a, b: CollisionMesh, leaves_b) -> bool:
    """Any hit among the triangle pairs of the given leaf pairs? ``tris_a``
    holds the padded triangle rows of a's leaves; ``posed`` is a's triangles
    and their boxes, already in b's frame. Only the pairs whose boxes overlap
    b's TRI_EPS-widened triangle boxes reach the triangle test."""
    tri_a, lo_a, hi_a = posed
    tris_b = b.leaf_tris[leaves_b]
    ia, ib = np.broadcast_arrays(tris_a[:, :, None], tris_b[:, None, :])
    real = (ia >= 0) & (ib >= 0)
    ia, ib = ia[real], ib[real]
    near = ((lo_a[ia] <= b.tri_hi_eps[ib]) & (hi_a[ia] >= b.tri_lo_eps[ib])).all(axis=1)
    if not near.any():
        return False
    ia, ib = ia[near], ib[near]
    return bool(tri_tri_intersect_batch(tri_a[ia], b.tri_vertices[ib]).any())


def point_in_mesh(point: np.ndarray, mesh: CollisionMesh) -> bool:
    """Ray-parity containment test (reliable only for closed meshes).
    Moller-Trumbore over all triangles, vectorized. A point outside the
    mesh's TRI_EPS-widened box is outside without a ray: the ray from such a
    point crosses a closed mesh an even number of times. Few points pass
    that box test, so the ray terms of the triangles are computed here, past
    it, not kept on the mesh."""
    if ((point < mesh.lo_eps[0]) | (point > mesh.hi_eps[0])).any():
        return False
    tri = mesh.tri_vertices
    v0 = tri[:, 0]
    e1 = tri[:, 1] - v0
    e2 = tri[:, 2] - v0
    h = _cross(_RAY_DIR, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    inv_det = np.divide(1.0, det, out=np.zeros(len(det)), where=ok)
    s = point[None, :] - v0
    u = np.einsum("ij,ij->i", s, h) * inv_det
    qv = _cross(s, e1)
    v = (qv @ _RAY_DIR) * inv_det
    t = np.einsum("ij,ij->i", e2, qv) * inv_det
    hits = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
    return bool(hits.sum() % 2 == 1)


# ---------------------------------------------------------------------------
# Assembly-level checks


class PartColliders:
    """Part id -> CollisionMesh: the one mesh table that every collision
    consumer reads. A part's mesh is built on its first lookup and kept.
    Builds are keyed by geometry (the shapes and bytes of the vertex and
    triangle arrays), so parts with the same mesh share one CollisionMesh
    and it is built once. Meshes are immutable, so the table is shareable;
    each consumer places parts into its own AssemblyChecker.

    ``get`` returns None for an unknown part and for a part without
    geometry. A mesh that cannot be built raises from every lookup that
    needs it: a failed build is not kept."""

    def __init__(self, catalog, inset: float):
        self._catalog = catalog
        self._inset = inset
        self._meshes: dict = {}  # part id -> mesh
        self._by_geometry: dict = {}  # geometry key -> mesh

    @classmethod
    def from_catalog(cls, catalog, inset: float = 0.25) -> "PartColliders":
        """The table of inset collision meshes for the catalog's parts that
        have geometry (inset 0 keeps the vertices of pre-inset inputs in
        place). Nothing is built until a part is looked up."""
        return cls(catalog, inset)

    def get(self, part_id) -> CollisionMesh | None:
        mesh = self._meshes.get(part_id)
        if mesh is not None:
            return mesh
        part = self._catalog.parts.get(part_id)
        if part is None or part.mesh is None:
            return None
        v, t = part.mesh.vertices, part.mesh.triangles
        key = (v.shape, t.shape, v.tobytes(), t.tobytes())
        mesh = self._by_geometry.get(key)
        if mesh is None:
            mesh = inset_mesh(v, t, self._inset)
            self._by_geometry[key] = mesh
        self._meshes[part_id] = mesh
        return mesh


class AssemblyChecker:
    """Incremental collision check: feed placements one by one.

    Each placed instance's world AABB, widened by TRI_EPS when it is stored,
    is one row ``(lo - TRI_EPS, -(hi + TRI_EPS))`` of a growable (n, 6)
    array. A new box (lo, hi) overlaps row i's widened box iff
    ``lo_i - TRI_EPS <= hi`` and ``-(hi_i + TRI_EPS) <= -lo`` on every axis,
    so the broad phase is one comparison of the rows with ``(hi, -lo)`` and
    one ``all`` along the rows, whose candidates run the narrow phase in
    placement order. Negation is exact, so the candidates are those of
    comparing ``lo <= hi_i + TRI_EPS`` and ``hi >= lo_i - TRI_EPS``
    directly, bit for bit.
    """

    def __init__(self):
        self._placed: list[tuple[CollisionMesh, RigidTransform]] = []
        self._bounds = np.empty((16, 6))

    def __len__(self):
        return len(self._placed)

    def add(self, mesh: CollisionMesh, pose: RigidTransform) -> int | None:
        """Place one instance (whether it collides or not); returns the
        0-based index of the first earlier placement it collides with, or None."""
        # the root box in world axes, in plain floats: centre r c + t, and
        # half-extents |r| h
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = r = pose.rotation
        c0, c1, c2 = mat_vec_add(r, mesh.root_center, pose.translation)
        hx, hy, hz = mesh.root_half
        h0 = abs(a0) * hx + abs(a1) * hy + abs(a2) * hz
        h1 = abs(a3) * hx + abs(a4) * hy + abs(a5) * hz
        h2 = abs(a6) * hx + abs(a7) * hy + abs(a8) * hz
        lo0, lo1, lo2 = c0 - h0, c1 - h1, c2 - h2
        hi0, hi1, hi2 = c0 + h0, c1 + h1, c2 + h2
        step = len(self._placed)
        if step == len(self._bounds):
            self._bounds = np.concatenate((self._bounds, np.empty_like(self._bounds)))
        self._bounds[step] = (
            lo0 - TRI_EPS, lo1 - TRI_EPS, lo2 - TRI_EPS,
            -(hi0 + TRI_EPS), -(hi1 + TRI_EPS), -(hi2 + TRI_EPS),
        )
        self._placed.append((mesh, pose))
        if step:
            query = np.array((hi0, hi1, hi2, -lo0, -lo1, -lo2))
            for i in np.flatnonzero((self._bounds[:step] <= query).all(axis=1)).tolist():
                other_mesh, other_pose = self._placed[i]
                if intersects(mesh, pose, other_mesh, other_pose):
                    return i
        return None


# ---------------------------------------------------------------------------
# Mesh construction helpers

# Box corner i has bits 2, 1, 0 of i as its x, y, z. Each face is split along
# the diagonal of its two even-parity corners, and every triangle winds outward.
_BOX_CORNERS = np.array(
    [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=np.float64
)
_BOX_TRIANGLES = np.array(
    [[0, 1, 3], [0, 3, 2], [5, 4, 6], [5, 6, 7], [0, 5, 1], [0, 4, 5],
     [3, 6, 2], [3, 7, 6], [0, 2, 6], [0, 6, 4], [3, 1, 5], [3, 5, 7]],
    dtype=np.int64,
)


def box_mesh(size, center=(0.0, 0.0, 0.0)):
    """Axis-aligned box of positive size with the alternating (tetrahedral)
    triangulation, wound outward. On a cube the corner pseudo-normals are
    exact space diagonals, so cube insets are exact; unequal sides shrink by
    unequal amounts. Returns (vertices, triangles)."""
    half = np.asarray(size, dtype=np.float64) / 2.0
    c = np.asarray(center, dtype=np.float64)
    verts = c + (_BOX_CORNERS - 0.5) * 2.0 * half
    return verts, _BOX_TRIANGLES.copy()


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
