"""Independent oracles for the heavyweight equivalence tests.

Everything here recomputes results from first principles, without touching
the production spatial hash, BVH traversal or executor internals: the
matcher oracle enumerates every connector pair with broadcast numpy, the
collision oracle tests every triangle pair, and the pose oracle replays a
build path with plain homogeneous 4x4 matrix arithmetic. The reference
copies at the end are earlier, plainer versions of fast paths that must
match them bit for bit: the mesh inset, the collision-mesh arrays, the
rotation projection and rigidity test, the transform check, the eager
executor, which computes every pose as its attach completes, the connector
pairing predicate, the parser that checked every line against the catalog
from scratch, and the broad phase that compared each new box with two
arrays of placed bounds.
"""

import math

import numpy as np

from brickir import collision
from brickir.collision import DEGENERATE_AREA, TRI_EPS, AssemblyChecker
from brickir.connectors import ConnectorFamily, default_rules, dof_spec, letter_id
from brickir.errors import BrickIrError, MatchError, ProgramError
from brickir.geometry import (
    ORTHONORMAL_TOL,
    SCALE_TOL,
    QuantizedParams,
    RigidTransform,
    mat_vec_add,
    norm,
)
from brickir.graph import (
    ConnEdge,
    ConnectivityGraph,
    MatchTolerances,
    attach_pose,
    params_from_values,
)
from brickir.program import (
    FAMILY_NAMES,
    Attach,
    ParseResult,
    PartIntro,
    ProgramDiagnosis,
    ValidityReport,
    parse_program,
)

from conftest import apply, has_connector


# ---------------------------------------------------------------------------
# Exhaustive connector matcher (acceptance criterion 2 oracle)


def _letter_rank(s: str) -> int:
    n = 0
    for c in s:
        n = n * 26 + (ord(c) - ord("a") + 1)
    return n - 1


_FAMILY_ORDER = list(ConnectorFamily)


def exhaustive_match(instances, catalog, tol) -> ConnectivityGraph:
    """O(n^2 c^2) matcher: the full predicate is evaluated on every connector
    pair with broadcast numpy, then the documented degree-constraint
    resolution applies."""
    rules = default_rules()
    rows = []  # (node_id, connector, world frame, multi_accept)
    for inst in instances:
        if inst.nonrigid:
            continue
        for c in catalog.part(inst.part_id).connectors:
            f = c.frame.transformed(inst.pose)
            rows.append((inst.node_id, c, f, rules.is_multi_accept(c.subtype)))
    nodes = {i.node_id: i for i in instances if not i.nonrigid}
    n = len(rows)
    if n == 0:
        return ConnectivityGraph(nodes, [])

    origins = np.array([r[2].origin for r in rows])
    zaxes = np.array([r[2].principal_axis for r in rows])
    xaxes = np.array([r[2].reference_axis for r in rows])
    yaxes = np.cross(zaxes, xaxes)
    node_ids = np.array([r[0] for r in rows])
    lens = np.array([r[1].axle_length or 0.0 for r in rows])
    fam_ids = np.array([_FAMILY_ORDER.index(r[1].family) for r in rows])

    sub_names = sorted({r[1].subtype for r in rows})
    sub_idx = {s: k for k, s in enumerate(sub_names)}
    compat_table = np.array(
        [[rules.compatible(a, b) for b in sub_names] for a in sub_names]
    )
    subs = np.array([sub_idx[r[1].subtype] for r in rows])

    d = origins[None, :, :] - origins[:, None, :]  # [i, j] = origin_j - origin_i
    dist = np.linalg.norm(d, axis=2)
    align = np.einsum("ik,jk->ij", zaxes, zaxes)
    axial = np.einsum("ijk,ik->ij", d, zaxes)  # offset of j along i's axis
    perp = np.sqrt(np.maximum(dist**2 - axial**2, 0.0))
    cos_axis = math.cos(math.radians(tol.axis_deg))
    pos_ok = dist <= tol.position

    # yaw[i, j]: angle of j's reference axis in i's (x, y) plane
    bx_dot_x = np.einsum("jk,ik->ij", xaxes, xaxes)
    bx_dot_y = np.einsum("jk,ik->ij", xaxes, yaxes)
    yaw = np.degrees(np.arctan2(bx_dot_y, bx_dot_x))
    yaw_wrapped = np.abs((yaw + 180.0) % 360.0 - 180.0)

    fam_i = fam_ids[:, None]
    geo = np.zeros((n, n), dtype=bool)
    fam_of = {f: _FAMILY_ORDER.index(f) for f in ConnectorFamily}
    geo |= (fam_i == fam_of[ConnectorFamily.BALL]) & pos_ok
    geo |= (fam_i == fam_of[ConnectorFamily.STUD]) & pos_ok & (align >= cos_axis)
    geo |= (
        (fam_i == fam_of[ConnectorFamily.FIXED])
        & pos_ok
        & (align >= cos_axis)
        & (yaw_wrapped <= tol.axis_deg)
    )
    geo |= (fam_i == fam_of[ConnectorFamily.HINGE]) & pos_ok & (np.abs(align) >= cos_axis)
    slide_bound = (lens[:, None] + lens[None, :]) / 2.0 + tol.position
    geo |= (
        (fam_i == fam_of[ConnectorFamily.AXLE])
        & (perp <= tol.position)
        & (np.abs(align) >= cos_axis)
        & (np.abs(axial) <= slide_bound)
    )

    mask = (
        geo
        & compat_table[subs[:, None], subs[None, :]]
        & (node_ids[:, None] != node_ids[None, :])
        & np.triu(np.ones((n, n), dtype=bool), k=1)
    )

    candidates = []
    for i, j in np.argwhere(mask):
        ka = (rows[i][0], _letter_rank(rows[i][1].index))
        kb = (rows[j][0], _letter_rank(rows[j][1].index))
        a, b = (i, j) if ka <= kb else (j, i)
        if kb < ka:
            ka, kb = kb, ka
        candidates.append((ka, kb, a, b))

    candidates.sort(key=lambda c: (c[0], c[1]))
    used = set()
    edges = []
    for ka, kb, a, b in candidates:
        if (not rows[a][3] and ka in used) or (not rows[b][3] and kb in used):
            continue
        used.add(ka)
        used.add(kb)
        edges.append(
            ConnEdge(
                (rows[a][0], rows[a][1].index),
                (rows[b][0], rows[b][1].index),
                rows[a][1].family,
                _oracle_params(rows[a][2], rows[b][2], rows[a][1].family),
            )
        )
    return ConnectivityGraph(nodes, edges)


def _round_half_up(v: float) -> int:
    return int(math.floor(v + 0.5))


def _oracle_params(fa, fb, family) -> QuantizedParams:
    """Quantized edge parameters recomputed with explicit vector algebra."""
    z_a, x_a = np.asarray(fa.principal_axis), np.asarray(fa.reference_axis)
    y_a = np.cross(z_a, x_a)
    d = np.subtract(fb.origin, fa.origin)
    if family == ConnectorFamily.FIXED:
        return QuantizedParams()
    if family == ConnectorFamily.BALL:
        basis_a = np.column_stack([x_a, y_a, z_a])
        z_b, x_b = fb.principal_axis, fb.reference_axis
        basis_b = np.column_stack([x_b, np.cross(z_b, x_b), z_b])
        re = basis_a.T @ basis_b
        sy = min(1.0, max(-1.0, -float(re[2, 0])))
        b = math.degrees(math.asin(sy))
        if abs(sy) >= 1.0 - 1e-12:
            a = math.degrees(math.atan2(-re[0, 1], re[1, 1]))
            c = 0.0
        else:
            a = math.degrees(math.atan2(re[1, 0], re[0, 0]))
            c = math.degrees(math.atan2(re[2, 1], re[2, 2]))
        return QuantizedParams(
            euler_deg=tuple(_round_half_up(v) % 360 for v in (a, b, c))
        )
    flip = bool(float(z_a @ np.asarray(fb.principal_axis)) < 0.0)
    # yaw: signed angle from a's reference axis to b's, about a's principal
    # axis, i.e. the angle of b's x projected into a's xy plane
    bx = np.asarray(fb.reference_axis)
    yaw = math.degrees(math.atan2(float(bx @ y_a), float(bx @ x_a)))
    params = {"yaw_deg": _round_half_up(yaw) % 360}
    if family == ConnectorFamily.STUD:
        return QuantizedParams(**params)
    params["flip"] = flip
    if family == ConnectorFamily.HINGE:
        return QuantizedParams(**params)
    params["slide_ldu"] = _round_half_up(float(d @ z_a))
    return QuantizedParams(**params)


def graphs_equal(g1: ConnectivityGraph, g2: ConnectivityGraph) -> bool:
    """Same node ids and identical canonical edge sets (params included)."""
    if set(g1.nodes) != set(g2.nodes):
        return False

    def canon(g):
        return sorted(
            (e.a, e.b, e.family.value, e.params.yaw_deg, e.params.flip,
             e.params.slide_ldu, e.params.euler_deg)
            for e in g.edges
        )

    return canon(g1) == canon(g2)


# ---------------------------------------------------------------------------
# Brute-force mesh intersection (acceptance criterion 3 oracle)


def brute_force_intersects(mesh_a, pose_a, mesh_b, pose_b, eps: float = 1e-6) -> bool:
    """All-triangle-pairs intersection with broadcast interval tests, plus the
    same parity-based containment rule for closed meshes."""
    ta = apply(pose_a, mesh_a.vertices)[mesh_a.triangles]  # (na, 3, 3)
    tb = apply(pose_b, mesh_b.vertices)[mesh_b.triangles]
    if _any_pair_intersects(ta, tb, eps):
        return True
    if mesh_a.closed and mesh_b.closed:
        if _parity_inside(ta[0, 0], tb) or _parity_inside(tb[0, 0], ta):
            return True
    return False


def _any_pair_intersects(ta, tb, eps) -> bool:
    na, nb = len(ta), len(tb)
    if na == 0 or nb == 0:
        return False
    nrm_b = np.cross(tb[:, 1] - tb[:, 0], tb[:, 2] - tb[:, 0])  # (nb, 3)
    d_b = -np.einsum("ij,ij->i", nrm_b, tb[:, 0])
    nrm_a = np.cross(ta[:, 1] - ta[:, 0], ta[:, 2] - ta[:, 0])
    d_a = -np.einsum("ij,ij->i", nrm_a, ta[:, 0])

    # signed distances of a's corners to b's planes: (na, nb, 3)
    dp = np.einsum("ack,bk->abc", ta, nrm_b) + d_b[None, :, None]
    snap = eps * np.linalg.norm(nrm_b, axis=1)[None, :, None]
    dp = np.where(np.abs(dp) <= snap, 0.0, dp)
    cross_a = ~((dp >= 0).all(axis=2) | (dp <= 0).all(axis=2))

    dq = np.einsum("bck,ak->abc", tb, nrm_a) + d_a[:, None, None]
    snap = eps * np.linalg.norm(nrm_a, axis=1)[:, None, None]
    dq = np.where(np.abs(dq) <= snap, 0.0, dq)
    cross_b = ~((dq >= 0).all(axis=2) | (dq <= 0).all(axis=2))

    pairs = np.argwhere(cross_a & cross_b)
    for ia, ib in pairs:
        axis = int(np.argmax(np.abs(np.cross(nrm_a[ia], nrm_b[ib]))))
        a0, a1 = _project(ta[ia], dp[ia, ib], axis)
        b0, b1 = _project(tb[ib], dq[ia, ib], axis)
        if min(a1, b1) - max(a0, b0) > eps:
            return True
    return False


def _project(tri, dv, axis):
    d01, d02, d12 = dv[0] * dv[1], dv[0] * dv[2], dv[1] * dv[2]
    if d01 > 0:
        alone = 2
    elif d02 > 0:
        alone = 1
    elif d12 > 0 or dv[0] != 0:
        alone = 0
    elif dv[1] != 0:
        alone = 1
    else:
        alone = 2
    others = [k for k in range(3) if k != alone]
    pts = []
    for o in others:
        denom = dv[alone] - dv[o]
        if denom == 0.0:
            return (np.inf, -np.inf)
        s = dv[alone] / denom
        pts.append(tri[alone, axis] + (tri[o, axis] - tri[alone, axis]) * s)
    return (min(pts), max(pts))


_ORACLE_RAY = np.array([0.514229, 0.607062, 0.605913])
_ORACLE_RAY = _ORACLE_RAY / np.linalg.norm(_ORACLE_RAY)


def _parity_inside(point, tris) -> bool:
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    h = np.cross(_ORACLE_RAY[None, :], e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = point[None, :] - v0
    u = np.einsum("ij,ij->i", s, h) * inv
    qv = np.cross(s, e1)
    v = (qv @ _ORACLE_RAY) * inv
    t = np.einsum("ij,ij->i", e2, qv) * inv
    hits = ok & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-9)
    return bool(hits.sum() % 2 == 1)


# ---------------------------------------------------------------------------
# Independent pose replay (acceptance criterion 1 oracle)


def _hom(rot, trans):
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = trans
    return m


def _rot_z(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_x(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _frame_hom(frame) -> np.ndarray:
    x = frame.reference_axis
    z = frame.principal_axis
    return _hom(np.column_stack([x, np.cross(z, x), z]), frame.origin)


def replay_path_poses(path, catalog) -> dict:
    """Recompute every node pose of a build path from its edges' quantized
    parameters, using homogeneous matrices only (root at its graph pose)."""
    g = path.graph
    poses = {path.root: _hom(g.nodes[path.root].pose.rotation,
                             g.nodes[path.root].pose.translation)}
    flipmat = np.diag([1.0, -1.0, -1.0])
    for step in path.steps:
        edge = step.edge
        target, target_conn = edge.other_end(step.new_node)
        if edge.a[0] == target:
            params = edge.params
            new_conn = edge.b[1]
            reverse = False
        else:
            params = edge.params
            new_conn = edge.a[1]
            reverse = True
        fam = edge.family
        p = params
        if fam == ConnectorFamily.BALL:
            rel_rot = _rot_z(p.euler_deg[0]) @ _rot_y(p.euler_deg[1]) @ _rot_x(p.euler_deg[2])
        elif fam == ConnectorFamily.FIXED:
            rel_rot = np.eye(3)
        else:
            rel_rot = _rot_z(p.yaw_deg) @ (flipmat if p.flip else np.eye(3))
        rel = _hom(rel_rot, np.array([0.0, 0.0, float(p.slide_ldu)]))
        if reverse:
            rel = np.linalg.inv(rel)
        t_part = catalog.connector(g.nodes[target].part_id, target_conn).frame
        n_part = catalog.connector(g.nodes[step.new_node].part_id, new_conn).frame
        world_conn = poses[target] @ _frame_hom(t_part) @ rel
        poses[step.new_node] = world_conn @ np.linalg.inv(_frame_hom(n_part))
    return poses


# ---------------------------------------------------------------------------
# Reference copies: the per-edge dict loop, np.add.at inset, single-path
# collision-mesh build and LAPACK determinant check that the vectorized code
# replaced, the eager executor that the deferred poses replaced, and the
# per-family pairing predicate that the DofSpec rules replaced


def reference_is_closed(triangles: np.ndarray) -> bool:
    """Closed iff every undirected edge is shared by exactly two triangles."""
    if len(triangles) == 0:
        return False
    counts: dict[tuple[int, int], int] = {}
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            key = (int(u), int(v)) if u < v else (int(v), int(u))
            counts[key] = counts.get(key, 0) + 1
    return all(n == 2 for n in counts.values())


def reference_inset_mesh(vertices, triangles, offset: float):
    """``inset_mesh`` as it was, returning (vertices, triangles, closed)."""
    v = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if len(t) == 0 or len(v) == 0:
        raise BrickIrError("empty mesh")

    e1 = v[t[:, 1]] - v[t[:, 0]]
    e2 = v[t[:, 2]] - v[t[:, 0]]
    cross = np.cross(e1, e2)  # |cross| = 2 * area, direction = face normal
    areas2 = np.linalg.norm(cross, axis=1)
    keep = areas2 > 2.0 * DEGENERATE_AREA
    t = t[keep]
    cross = cross[keep]
    areas2 = areas2[keep]
    if len(t) == 0:
        raise BrickIrError("mesh has no non-degenerate triangles")

    normal_sum = np.zeros_like(v)
    area_sum = np.zeros(len(v))
    for corner in range(3):
        np.add.at(normal_sum, t[:, corner], cross)
        np.add.at(area_sum, t[:, corner], areas2)

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
    areas2 = np.linalg.norm(np.cross(e1, e2), axis=1)
    t = t[areas2 > 2.0 * DEGENERATE_AREA]
    if len(t) == 0:
        raise BrickIrError("inset collapsed the entire mesh")
    used_idx = np.unique(t)
    remap = np.full(len(new_v), -1, dtype=np.int64)
    remap[used_idx] = np.arange(len(used_idx))
    return new_v[used_idx], remap[t], reference_is_closed(remap[t])


def reference_collision_mesh(vertices, triangles, one_leaf_max=64, leaf_size=4) -> dict:
    """``CollisionMesh``'s arrays as it built them, by attribute name: one
    tree build for every mesh, with a single leaf of all its triangles up to
    ``one_leaf_max`` triangles and a median split down to ``leaf_size``
    triangles per leaf above that."""
    v = np.asarray(vertices, dtype=np.float64)
    t = np.asarray(triangles, dtype=np.int64)
    tri_vertices = v[t]
    m = len(tri_vertices)
    leaf_size = m if m <= one_leaf_max else leaf_size
    cap = 2 * m - 1
    lo = np.zeros((cap, 3))
    hi = np.zeros((cap, 3))
    left = np.full(cap, -1, dtype=np.intp)
    right = np.full(cap, -1, dtype=np.intp)
    leaf_tris = np.full((cap, leaf_size), -1, dtype=np.intp)
    centroids = tri_vertices.mean(axis=1)
    tmin = tri_vertices.min(axis=1)
    tmax = tri_vertices.max(axis=1)
    count = 0

    def build(idx):
        nonlocal count
        node = count
        count += 1
        lo[node] = tmin[idx].min(axis=0)
        hi[node] = tmax[idx].max(axis=0)
        if len(idx) <= leaf_size:
            leaf_tris[node, : len(idx)] = idx
            return node
        axis = int(np.argmax(hi[node] - lo[node]))
        med = np.argsort(centroids[idx][:, axis], kind="stable")
        half = len(idx) // 2
        left[node] = build(idx[med[:half]])
        right[node] = build(idx[med[half:]])
        return node

    build(np.arange(m))
    lo, hi = lo[:count], hi[:count]
    return {
        "vertices": v, "triangles": t, "tri_vertices": tri_vertices,
        "left": left[:count], "right": right[:count], "leaf": left[:count] < 0,
        "extent": (hi - lo).max(axis=1), "leaf_tris": leaf_tris[:count],
        "center": (lo + hi) / 2.0, "half": (hi - lo) / 2.0,
        "lo_eps": lo - TRI_EPS, "hi_eps": hi + TRI_EPS,
        "tri_lo_eps": tmin - TRI_EPS, "tri_hi_eps": tmax + TRI_EPS,
    }


def reference_orthonormalize(rotation):
    """The proper rotation nearest a matrix, as the LDraw walker and the
    transform check first computed it: the SVD polar factor, with U's last
    column negated when LAPACK's determinant of that factor is negative."""
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=np.float64))
    if np.linalg.det(u @ vt) < 0:
        u[:, -1] = -u[:, -1]
    return u @ vt


def reference_is_rigid(m) -> bool:
    """The LDraw walker's first rigidity test: a positive LAPACK determinant
    and every singular value within SCALE_TOL of 1."""
    if np.linalg.det(m) <= 0:
        return False
    return bool(np.abs(np.linalg.svd(m, compute_uv=False) - 1.0).max() <= SCALE_TOL)


def reference_rigid_check(rotation, translation):
    """``RigidTransform``'s construction check in plain steps: the stored
    (rotation, translation), or the ValueError it raises. Every number must
    be finite and LAPACK's determinant positive; a rotation off orthonormal
    by more than ORTHONORMAL_TOL is projected onto the nearest rotation when
    it is rigid, and raises when it is not."""
    r = np.asarray(rotation, dtype=np.float64).reshape(3, 3)
    t = np.asarray(translation, dtype=np.float64).reshape(3)
    if not (np.isfinite(r).all() and np.isfinite(t).all()):
        raise ValueError("non-finite transform")
    if np.linalg.det(r) <= 0:
        raise ValueError("rotation must have positive determinant")
    if not float(np.abs(r.T @ r - np.eye(3)).max()) <= ORTHONORMAL_TOL:
        if not reference_is_rigid(r):
            raise ValueError(f"rotation is scaled or sheared beyond {SCALE_TOL:g}")
        r = reference_orthonormalize(r)
    return r, t


def reference_placements(actions, catalog):
    """Run a parsed program's steps, one after the other, yielding
    ``(intro, part_id, pose)`` as each placement action completes (the root
    lands at the identity). Of an attach it reads the target, the family,
    the params and the two connector indices, and it looks the connectors up
    in the catalog itself.

    A node's pose is fixed by its first attach; further attaches on the same
    node only claim connectors. The first failing step raises ProgramError:
    'unexpected-attach', 'unknown-part', 'target-not-introduced',
    'connector-occupied' (reusing a single-accept connector) or
    'missing-attach' (an action that places nothing).
    """
    poses: dict[str, RigidTransform] = {}
    parts: dict[str, str] = {}
    consumed: set[tuple[str, str]] = set()
    rules = default_rules()

    def placed(intro: PartIntro):
        if intro.node not in poses:
            raise ProgramError(
                "missing-attach", f"node {intro.node!r} was never attached", intro.line
            )
        return intro, parts[intro.node], poses[intro.node]

    steps = [step for head, attaches in actions for step in (head, *attaches)]
    intro = None  # the action in progress
    for step in steps:
        if isinstance(step, PartIntro):
            if intro is not None:
                yield placed(intro)
            part = catalog.part_by_name(step.part_name)
            if part is None:
                raise ProgramError("unknown-part", step.part_name, step.line)
            parts[step.node] = part.part_id
            if not poses:
                poses[step.node] = RigidTransform.identity()
            intro = step
            continue
        if intro is None:
            raise ProgramError("unexpected-attach", "attach before any introduction", step.line)
        if step.target not in poses:
            raise ProgramError(
                "target-not-introduced", f"target {step.target!r} unplaced", step.line
            )
        target_index, new_index = step.target_connector.index, step.new_connector.index
        for node, index in ((step.target, target_index), (intro.node, new_index)):
            key = (node, index)
            subtype = catalog.connector(parts[node], index).subtype
            if key in consumed and not rules.is_multi_accept(subtype):
                raise ProgramError(
                    "connector-occupied", f"connector {index!r} of node {node!r} reused", step.line
                )
            consumed.add(key)
        if intro.node not in poses:
            poses[intro.node] = attach_pose(
                poses[step.target],
                catalog.connector(parts[step.target], target_index).frame,
                catalog.connector(parts[intro.node], new_index).frame,
                step.family,
                step.params,
            )
    if intro is not None:
        yield placed(intro)


def reference_validate_prefix(program, catalog, part_meshes=None) -> ValidityReport:
    """Longest valid action prefix of a program (text, or parsed actions).

    connectivity_steps counts actions that parse and execute (the root intro
    is action 1); collision_steps additionally requires each placement to be
    collision-free against everything placed before it, with the meshes of
    ``part_meshes`` (part id -> CollisionMesh). Without it the two counts
    coincide.
    """
    diagnoses: list[ProgramDiagnosis] = []
    if isinstance(program, str):
        result = parse_program(program, catalog, strict=False)
        if result.error:
            diagnoses.append(result.error)
        program = result.actions

    part_meshes = part_meshes or {}
    checker = AssemblyChecker()
    connectivity = 0
    collision = 0
    try:
        for intro, part_id, pose in reference_placements(program, catalog):
            connectivity += 1
            if collision < connectivity - 1:
                continue  # an earlier placement collided
            mesh = part_meshes.get(part_id)
            if mesh is not None and checker.add(mesh, pose) is not None:
                diagnoses.append(
                    ProgramDiagnosis(
                        intro.line, "collision", f"placement of {intro.node!r} collides"
                    )
                )
            else:
                collision = connectivity
    except ProgramError as exc:
        diagnoses.append(ProgramDiagnosis(exc.line or 0, exc.code, str(exc)))

    first_error = min(diagnoses, key=lambda d: d.line, default=None)
    return ValidityReport(connectivity, collision, first_error)


def _wrap_deg(angle: float) -> float:
    """Wrap to (-180, 180]."""
    a = math.fmod(angle, 360.0)
    if a > 180.0:
        a -= 360.0
    elif a <= -180.0:
        a += 360.0
    return a


def reference_check_pairing(
    family: ConnectorFamily,
    r: np.ndarray,
    t: np.ndarray,
    tol: MatchTolerances,
    max_slide: float | None,
) -> bool:
    """``_check_pairing`` as it was, one branch per family: the family-aware
    matching predicate on the relative connector transform.

    Ball joints are exempt from the axis-alignment requirement (their three
    rotational DOF make any relative rotation representable); families
    without a flip DOF require the canonical anti-parallel polarity; fixed
    connections additionally require zero yaw within tolerance.
    """
    cos_axis = math.cos(math.radians(tol.axis_deg))
    dist = norm(t)
    align = float(r[2, 2])
    if family == ConnectorFamily.BALL:
        return dist <= tol.position
    if family == ConnectorFamily.STUD:
        return dist <= tol.position and align >= cos_axis
    if family == ConnectorFamily.FIXED:
        if dist > tol.position or align < cos_axis:
            return False
        yaw = math.degrees(math.atan2(r[1, 0], r[0, 0]))
        return abs(_wrap_deg(yaw)) <= tol.axis_deg
    if family == ConnectorFamily.HINGE:
        return dist <= tol.position and abs(align) >= cos_axis
    if family == ConnectorFamily.AXLE:
        perp = math.hypot(float(t[0]), float(t[1]))
        if perp > tol.position or abs(align) < cos_axis:
            return False
        if max_slide is None:
            return True
        return abs(float(t[2])) <= max_slide + tol.position
    raise MatchError(f"unknown family {family!r}")


def _reference_parse_params(family: ConnectorFamily, tokens: list[str], line: int):
    dof = dof_spec(family)
    flip = dof.has_flip and tokens[:1] == ["flip"]
    tokens = tokens[flip:]
    expected = dof.rotational_dof + dof.has_slide
    if len(tokens) != expected:
        raise ProgramError(
            "bad-params", f"{family.value} attach takes {expected} value(s)", line
        )
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise ProgramError("bad-params", f"non-integer parameter in {tokens}", line) from None
    try:
        return params_from_values(family, values, flip)
    except ValueError as exc:
        raise ProgramError("bad-params", str(exc), line) from None


def reference_parse_program(text: str, catalog, strict: bool = False) -> ParseResult:
    """``parse_program`` as it was, checking every line against the catalog
    from scratch: its longest valid prefix, with the first invalid line as a
    diagnosis (prefix mode) or raised as ProgramError (strict mode)."""
    steps: list = []
    complete = 0  # number of steps belonging to fully completed actions
    introduced: dict[str, str] = {}  # letter -> part_id
    newest: str | None = None
    newest_attached = True  # the root needs no attach

    def fail(code: str, message: str, line: int):
        raise ProgramError(code, message, line)

    try:
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if " | " in line:
                if not newest_attached:
                    fail("missing-attach", f"node {newest!r} was never attached", number)
                complete = len(steps)  # the previous action is done
                left, color_name = map(str.strip, line.split(" | ", 1))
                tokens = left.split()
                if len(tokens) < 2 or not color_name:
                    fail("malformed-line", "intro needs '<id> <part name> | <color>'", number)
                node_id = tokens[0]
                part_name = " ".join(tokens[1:])
                if node_id != letter_id(len(introduced)):
                    fail(
                        "bad-node-id",
                        f"expected node id {letter_id(len(introduced))!r}, got {node_id!r}",
                        number,
                    )
                part = catalog.part_by_name(part_name)
                if part is None:
                    fail("unknown-part", f"part name {part_name!r} not in catalog", number)
                if not catalog.has_color_name(color_name):
                    fail("unknown-color", f"color {color_name!r} not registered", number)
                newest_attached = not introduced  # root completes at its intro
                introduced[node_id] = part.part_id
                newest = node_id
                steps.append(
                    PartIntro(node_id, part.part_id, part.name, color_name.lower(), number)
                )
            else:
                tokens = line.split()
                if newest is None:
                    fail("unexpected-attach", "attach before any part introduction", number)
                if len(tokens) < 6:
                    fail("malformed-line", "attach needs at least 6 tokens", number)
                target_id, family_name, sub_t, idx_t, sub_n, idx_n = tokens[:6]
                family = FAMILY_NAMES.get(family_name)
                if family is None:
                    fail("unknown-family", f"unknown family {family_name!r}", number)
                rules = default_rules()
                for sub in (sub_t, sub_n):
                    if not rules.is_registered(sub) or rules.family_of(sub) != family:
                        fail(
                            "unknown-subtype",
                            f"subtype {sub!r} is not a {family.value} subtype",
                            number,
                        )
                if not rules.compatible(sub_t, sub_n):
                    fail(
                        "incompatible-subtypes",
                        f"{sub_t!r} does not pair with {sub_n!r}",
                        number,
                    )
                params = _reference_parse_params(family, tokens[6:], number)
                if target_id == newest:
                    fail("self-attach", "attach targets the node it introduces", number)
                if target_id not in introduced:
                    fail(
                        "target-not-introduced",
                        f"target node {target_id!r} not introduced yet",
                        number,
                    )
                connectors = []  # the target's, then the new part's
                for part_id, sub, idx, role in (
                    (introduced[target_id], sub_t, idx_t, "target"),
                    (introduced[newest], sub_n, idx_n, "new"),
                ):
                    part = catalog.part(part_id)
                    if not has_connector(part, idx):
                        fail(
                            "unknown-connector",
                            f"part {part.name!r} has no connector {idx!r} ({role})",
                            number,
                        )
                    actual = part.connector(idx).subtype
                    if actual != sub:
                        fail(
                            "subtype-mismatch",
                            f"connector {idx!r} of {part.name!r} is {actual!r}, not {sub!r}",
                            number,
                        )
                    connectors.append(part.connector(idx))
                steps.append(Attach(target_id, family, *connectors, params, line=number))
                newest_attached = True
        if not newest_attached:
            fail("missing-attach", f"node {newest!r} was never attached", steps[-1].line)
    except ProgramError as exc:
        if strict:
            raise
        return ParseResult(
            _actions(steps[:complete]), ProgramDiagnosis(exc.line or 0, exc.code, str(exc))
        )
    return ParseResult(_actions(steps), None)


def _actions(steps) -> tuple:
    """Flat parsed steps grouped into (intro, attaches) placement actions."""
    actions = []
    for step in steps:
        if isinstance(step, PartIntro):
            actions.append((step, []))
        else:
            actions[-1][1].append(step)
    return tuple((intro, tuple(attaches)) for intro, attaches in actions)


class ReferenceAssemblyChecker:
    """``AssemblyChecker`` as it was: the placed world boxes, widened by
    TRI_EPS, in two growable (n, 3) arrays, and a new box's candidates are
    the rows where ``lo <= hi_eps`` and ``hi >= lo_eps`` on every axis. The
    narrow phase is ``collision.intersects``, looked up on each call."""

    def __init__(self):
        self._placed = []
        self._lo_eps = np.empty((16, 3))
        self._hi_eps = np.empty((16, 3))

    def __len__(self):
        return len(self._placed)

    def add(self, mesh, pose) -> list[int]:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = r = pose.rotation
        c0, c1, c2 = mat_vec_add(r, mesh.center[0].tolist(), pose.translation)
        hx, hy, hz = mesh.half[0].tolist()
        h0 = abs(a0) * hx + abs(a1) * hy + abs(a2) * hz
        h1 = abs(a3) * hx + abs(a4) * hy + abs(a5) * hz
        h2 = abs(a6) * hx + abs(a7) * hy + abs(a8) * hz
        lo = np.array((c0 - h0, c1 - h1, c2 - h2))
        hi = np.array((c0 + h0, c1 + h1, c2 + h2))
        step = len(self._placed)
        near = np.flatnonzero(
            ((lo <= self._hi_eps[:step]) & (hi >= self._lo_eps[:step])).all(axis=1)
        )
        hits = []
        for i in near:
            other_mesh, other_pose = self._placed[i]
            if collision.intersects(mesh, pose, other_mesh, other_pose):
                hits.append(int(i))
        if step == len(self._lo_eps):
            self._lo_eps = np.concatenate((self._lo_eps, np.empty_like(self._lo_eps)))
            self._hi_eps = np.concatenate((self._hi_eps, np.empty_like(self._hi_eps)))
        self._lo_eps[step] = lo - TRI_EPS
        self._hi_eps[step] = hi + TRI_EPS
        self._placed.append((mesh, pose))
        return hits
