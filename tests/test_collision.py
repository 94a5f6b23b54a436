import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickir.collision import (
    AssemblyChecker,
    CollisionMesh,
    PartColliders,
    box_mesh,
    inset_mesh,
    intersects,
    merge_meshes,
    point_in_mesh,
    tri_tri_intersect,
    tri_tri_intersect_batch,
)
from brickir.catalog import Catalog
from brickir.demo import build_demo_catalog
from brickir.errors import BrickIrError
from brickir.geometry import RigidTransform, compose

from conftest import (
    catalog_obj_with_collapsing_mesh,
    count_inset_builds,
    icosphere_mesh,
    random_rigid,
    random_rotation,
    rotation_about_axis,
)
from oracles import (
    _any_pair_intersects,
    brute_force_intersects,
    reference_inset_mesh,
    reference_is_closed,
)

I = RigidTransform.identity()


def _mesh(verts_tris) -> CollisionMesh:
    return CollisionMesh.build(*verts_tris)


def _trans(x, y, z):
    return RigidTransform(np.eye(3), np.array([x, y, z], float))


# ---------------------------------------------------------------------------
# Inset


def test_inset_cube_closed_form():
    verts, tris = box_mesh((20.0, 20.0, 20.0))
    out = inset_mesh(verts, tris, 0.25)
    expected = box_mesh((19.5, 19.5, 19.5))[0]
    got = np.array(sorted(map(tuple, out.vertices)))
    want = np.array(sorted(map(tuple, expected)))
    assert np.abs(got - want).max() <= 1e-9


def test_inset_zero_is_identity():
    verts, tris = box_mesh((20.0, 12.0, 8.0), center=(3, 4, 5))
    out = inset_mesh(verts, tris, 0.0)
    assert np.array_equal(out.vertices, verts)
    assert np.array_equal(out.triangles, tris)


def test_inset_sphere_radius_bound():
    r = 10.0
    verts, tris = icosphere_mesh(r, subdivisions=2)
    out = inset_mesh(verts, tris, 0.25)
    radii = np.linalg.norm(out.vertices, axis=1)
    assert radii.max() <= r - 0.25 + 0.05


def test_inset_empty_mesh_errors():
    with pytest.raises(BrickIrError, match="empty"):
        inset_mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int), 0.25)
    with pytest.raises(BrickIrError, match="^empty mesh$"):
        CollisionMesh.build(np.zeros((8, 3)), np.zeros((0, 3), dtype=int))


def test_mesh_arrays_are_read_only():
    verts, tris = box_mesh((4.0, 6.0, 8.0))
    for mesh in (CollisionMesh.build(verts, tris), inset_mesh(verts, tris, 0.25)):
        arrays = {k: a for k, a in vars(mesh).items() if isinstance(a, np.ndarray)}
        assert {"vertices", "triangles", "tri_vertices", "center", "ray_inv_det"} <= arrays.keys()
        assert not any(a.flags.writeable for a in arrays.values())


def test_inset_drops_degenerate_triangles():
    verts, tris = box_mesh((10.0, 10.0, 10.0))
    verts = np.vstack([verts, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])
    tris = np.vstack([tris, [[8, 9, 10]]])  # zero-area sliver
    out = inset_mesh(verts, tris, 0.1)
    assert len(out.triangles) == 12
    assert len(out.vertices) == 8


def _normals(v, t):
    return np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])


def _reference_inside_out(verts, tris, want_v, want_t, want_closed) -> bool:
    """True when the reference inset kept every face of the source mesh (its
    offset-0 copy) and turned a face's normal around, or changed the sign of
    a closed mesh's signed volume."""
    src_v, src_t, _ = reference_inset_mesh(verts, tris, 0.0)
    if not np.array_equal(src_t, want_t):
        return False
    before, after = _normals(src_v, src_t), _normals(want_v, want_t)
    if (np.sum(before * after, axis=1) < 0.0).any():
        return True
    volumes = np.sum(src_v[src_t[:, 0]] * before), np.sum(want_v[want_t[:, 0]] * after)
    return want_closed and volumes[0] * volumes[1] < 0.0


def _same_inset(verts, tris, offset) -> str | None:
    """Assert inset_mesh equals the reference copy (same arrays and closed
    flag, or the same BrickIrError), or raises the collapse error where the
    reference turned the mesh inside out. Returns which of the two raised:
    "both", "inside out" or None."""
    try:
        want = reference_inset_mesh(verts, tris, offset)
    except BrickIrError as exc:
        with pytest.raises(BrickIrError) as got:
            inset_mesh(verts, tris, offset)
        assert str(got.value) == str(exc)
        return "both"
    if _reference_inside_out(verts, tris, *want):
        with pytest.raises(BrickIrError, match="^inset collapsed the entire mesh$"):
            inset_mesh(verts, tris, offset)
        return "inside out"
    want_v, want_t, want_closed = want
    out = inset_mesh(verts, tris, offset)
    assert out.vertices.dtype == want_v.dtype and np.array_equal(out.vertices, want_v)
    assert out.triangles.dtype == want_t.dtype and np.array_equal(out.triangles, want_t)
    assert out.closed == want_closed
    return None


@pytest.mark.parametrize("offset", [0.25, 0.0])
def test_inset_matches_reference_on_demo_parts(offset):
    for part in build_demo_catalog().parts.values():
        assert _same_inset(part.mesh.vertices, part.mesh.triangles, offset) is None


def _random_mesh(rng, k):
    """One of six seeded mesh kinds: closed boxes, jittered spheres, open
    unions of boxes, index soups with degenerate triangles, collinear and
    duplicate vertices, and boxes small enough for the inset to collapse."""
    offset = float(rng.choice([0.0, 0.25, rng.uniform(0.01, 3.0)]))
    kind = k % 6
    if kind == 0:
        verts, tris = box_mesh(rng.uniform(0.2, 40.0, 3), rng.uniform(-20.0, 20.0, 3))
    elif kind == 1:
        verts, tris = icosphere_mesh(rng.uniform(0.5, 15.0), int(rng.integers(0, 3)))
        verts = verts + rng.normal(0.0, 0.05, verts.shape)
    elif kind == 2:
        verts, tris = merge_meshes(
            [box_mesh(rng.uniform(1.0, 20.0, 3), rng.uniform(-5.0, 5.0, 3)) for _ in range(2)]
        )
        tris = tris[rng.random(len(tris)) < 0.7]  # may drop every triangle
    elif kind == 3:
        n = int(rng.integers(3, 30))
        verts = rng.uniform(-10.0, 10.0, (n, 3))
        tris = rng.integers(0, n, (int(rng.integers(1, 40)), 3))
    elif kind == 4:
        line = np.outer(rng.uniform(-5.0, 5.0, 6), rng.normal(size=3))
        bv, bt = box_mesh(rng.uniform(0.5, 10.0, 3))
        verts = np.vstack([line, line[:2], bv])
        tris = rng.integers(0, 8, (int(rng.integers(1, 10)), 3))  # degenerate only
        if rng.random() < 0.5:
            tris = np.vstack([tris, bt + 8])
    else:  # a cube of side 2 * offset insets to a point
        offset = float(rng.uniform(0.1, 1.0))
        verts, tris = box_mesh(np.full(3, 2.0 * offset), rng.uniform(-5.0, 5.0, 3))
    return verts, tris, offset


def test_inset_matches_reference_on_random_meshes():
    rng = np.random.default_rng(20261018)
    raised = Counter()
    closed = 0
    for k in range(200):
        verts, tris, offset = _random_mesh(rng, k)
        raised[_same_inset(verts, tris, offset)] += 1
        if len(tris):
            flag = CollisionMesh.build(verts, tris).closed
            assert flag == reference_is_closed(np.asarray(tris))
            closed += flag
    # both outcomes are exercised, and insets that turn a mesh inside out
    assert 20 < raised["both"] + raised["inside out"] < 180 and 20 < closed < 180
    assert raised["inside out"] >= 5


@pytest.mark.parametrize("offset", [3.0, 5.0, 1e6])
def test_inset_through_the_part_raises(offset):
    # the 8-LDU-high plate 1x1 turns a face around at 3 LDU; at 1e6 every
    # vertex passes through the opposite side and only its volume changes sign
    mesh = build_demo_catalog().part("3024").mesh
    assert inset_mesh(mesh.vertices, mesh.triangles, 2.0).closed
    with pytest.raises(BrickIrError, match="^inset collapsed the entire mesh$"):
        inset_mesh(mesh.vertices, mesh.triangles, offset)


def test_closed_flag():
    assert _mesh(box_mesh((4, 4, 4))).closed
    verts, tris = box_mesh((4, 4, 4))
    assert not CollisionMesh.build(verts, tris[:-1]).closed  # open: one face missing


# ---------------------------------------------------------------------------
# Pairwise intersection


def test_separated_boxes_do_not_intersect():
    a = _mesh(box_mesh((2, 2, 2)))
    assert not intersects(a, I, a, _trans(5, 0, 0))


def test_identical_box_self_intersects():
    a = _mesh(box_mesh((2, 2, 2)))
    assert intersects(a, I, a, I)


def test_touching_faces_do_not_count():
    a = _mesh(box_mesh((2, 4, 6)))
    assert not intersects(a, I, a, _trans(2.0, 0, 0))
    assert intersects(a, I, a, _trans(2.0 - 1e-3, 1.0, 1.5))


def test_containment_detected_for_closed_meshes():
    big = _mesh(box_mesh((20, 20, 20)))
    small = _mesh(box_mesh((2, 2, 2)))
    assert intersects(big, I, small, _trans(1, 2, 3))
    assert intersects(small, _trans(1, 2, 3), big, I)
    assert brute_force_intersects(big, I, small, _trans(1, 2, 3))


def test_point_in_mesh():
    cube = _mesh(box_mesh((10, 10, 10)))
    assert point_in_mesh(np.array([0.0, 0.0, 0.0]), cube)
    assert point_in_mesh(np.array([4.9, -4.9, 4.9]), cube)
    assert not point_in_mesh(np.array([5.1, 0.0, 0.0]), cube)
    assert not point_in_mesh(np.array([100.0, 3.0, -7.0]), cube)


def test_point_in_mesh_matches_the_sphere_inside_and_outside_its_box():
    # Points outside the box skip the ray; points in the box's corners, outside
    # the sphere, take it. The faceted sphere lies between radius 9.5 and 10.
    sphere = _mesh(icosphere_mesh(10.0, 2))
    rng = np.random.default_rng(17)
    points = rng.uniform(-12.0, 12.0, (400, 3))
    radii = np.linalg.norm(points, axis=1)
    clear = (radii < 9.4) | (radii > 10.0)
    got = [point_in_mesh(p, sphere) for p in points[clear]]
    assert got == (radii[clear] < 9.4).tolist()
    in_box = (np.abs(points[clear]) <= 10.0).all(axis=1)
    assert 20 < (in_box & (radii[clear] > 10.0)).sum() and (~in_box).sum() > 20


def test_tri_tri_basic():
    p = np.array([[0, 0, 0], [4, 0, 0], [0, 4, 0]], float)
    q = np.array([[1, 1, -1], [1, 1, 1], [3, 3, 0]], float)  # pierces p
    assert tri_tri_intersect(p, q)
    far = q + np.array([0, 0, 10.0])
    assert not tri_tri_intersect(p, far)
    coplanar = p + np.array([1.0, 1.0, 0.0])
    assert not tri_tri_intersect(p, coplanar)  # coplanar overlap = touching


def _triangle_pairs(rng, n):
    """Random, shared-vertex, coplanar and half-LDU-snapped triangle pairs."""
    p = rng.uniform(-2.0, 2.0, (4, n, 3, 3))
    q = rng.uniform(-2.0, 2.0, (4, n, 3, 3))
    q[1, :, 0] = p[1, :, 0]  # shared vertex
    w = rng.uniform(-1.0, 2.0, (n, 3, 2))  # coplanar: q spanned by p's edges
    q[2] = p[2, :, :1] + w[..., :1] * (p[2, :, 1:2] - p[2, :, :1]) + w[..., 1:] * (
        p[2, :, 2:] - p[2, :, :1]
    )
    p[3] = np.round(p[3] * 2.0) / 2.0  # snapped: exact contacts and degenerate slivers
    q[3] = np.round(q[3] * 2.0) / 2.0
    return p.reshape(-1, 3, 3), q.reshape(-1, 3, 3)


def test_tri_tri_batch_agrees_with_oracle():
    rng = np.random.default_rng(41)
    p, q = _triangle_pairs(rng, 1000)
    got = tri_tri_intersect_batch(p, q)
    want = [_any_pair_intersects(p[i : i + 1], q[i : i + 1], 1e-6) for i in range(len(p))]
    assert got.tolist() == want
    assert 0 < got.sum() < len(p)
    assert [tri_tri_intersect(p[i], q[i]) for i in range(100)] == want[:100]


def _random_box_mesh(rng):
    size = rng.uniform(1.0, 8.0, 3)
    return _mesh(box_mesh(size))


@pytest.mark.parametrize("seed", range(4))
def test_bvh_agrees_with_bruteforce_random(seed):
    rng = np.random.default_rng(300 + seed)
    cases = 0
    hits = 0
    meshes = [_random_box_mesh(rng) for _ in range(6)]
    meshes.append(_mesh(icosphere_mesh(3.0, 1)))
    while cases < 50:
        a = meshes[int(rng.integers(len(meshes)))]
        b = meshes[int(rng.integers(len(meshes)))]
        pa = random_rigid(rng, scale=4.0)
        pb = random_rigid(rng, scale=4.0)
        got = intersects(a, pa, b, pb)
        want = brute_force_intersects(a, pa, b, pb)
        assert got == want
        hits += got
        cases += 1
    assert 0 < hits < cases  # the sample exercises both outcomes


def test_intersects_symmetry():
    rng = np.random.default_rng(7)
    a = _random_box_mesh(rng)
    b = _mesh(icosphere_mesh(2.5, 1))
    for _ in range(20):
        pa = random_rigid(rng, scale=3.0)
        pb = random_rigid(rng, scale=3.0)
        assert intersects(a, pa, b, pb) == intersects(b, pb, a, pa)


def test_inset_monotonicity_sampled():
    rng = np.random.default_rng(8)
    raw = box_mesh((6.0, 6.0, 6.0))
    for _ in range(10):
        gap = rng.uniform(-0.4, 0.6)
        pose = _trans(6.0 + gap, rng.uniform(-1, 1), rng.uniform(-1, 1))
        world = random_rigid(rng)
        pa = world
        pb = RigidTransform(
            world.rotation @ pose.rotation, world.rotation @ pose.translation + world.translation
        )
        previous = None
        for delta in (0.0, 0.1, 0.2, 0.4):
            m = inset_mesh(*raw, delta) if delta else _mesh(raw)
            hit = intersects(m, pa, m, pb)
            if previous is False:
                assert hit is False
            previous = hit


def _near_contact_pose(a: CollisionMesh, b: CollisionMesh, gap, tilt_deg, rng):
    """Pose of b (a at the identity) with b's lowest x a distance ``gap``
    beyond a's highest x, after a tilt about a random axis."""
    tilt = rotation_about_axis(rng.normal(size=3), tilt_deg)
    x = a.vertices[:, 0].max() - (b.vertices @ tilt.T)[:, 0].min() + gap
    return RigidTransform(tilt, np.array([x, *rng.uniform(-2.0, 2.0, 2)]))


def _open(verts_tris) -> CollisionMesh:
    """The mesh without its last triangle. Open meshes skip the containment
    test, which at exact face contact is ambiguous: a reference vertex on
    the other surface is inside or outside depending on the ray direction,
    and intersects and the oracle cast different rays."""
    verts, tris = verts_tris
    return CollisionMesh.build(verts, tris[:-1])


_CONTACT_MESHES = [
    _open(box_mesh((6.0, 4.0, 8.0))),
    _open(box_mesh((2.0, 9.0, 3.0), center=(0.5, 1.0, -1.0))),
    _open(icosphere_mesh(3.0, 2)),
    _open(box_mesh((5.5, 5.5, 5.5))),
]


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(range(len(_CONTACT_MESHES))),
    st.sampled_from(range(len(_CONTACT_MESHES))),
    st.floats(-0.5, 0.5),
    st.sampled_from([0.0, 0.5, 3.0]),
)
@settings(max_examples=150, deadline=None)
def test_intersects_matches_oracle_near_contact(seed, ia, ib, gap, tilt_deg):
    rng = np.random.default_rng(seed)
    a, b = _CONTACT_MESHES[ia], _CONTACT_MESHES[ib]
    world = random_rigid(rng, scale=50.0)
    pa = world
    pb = compose(world, _near_contact_pose(a, b, gap, tilt_deg, rng))
    assert intersects(a, pa, b, pb) == brute_force_intersects(a, pa, b, pb)


def _box_lattice(nx, ny, size=4.0, pitch=5.0):
    """nx * ny cubes in one layer: 12 nx ny triangles spread over a plane."""
    return merge_meshes(
        [
            box_mesh((size, size, size), center=(pitch * i, pitch * j, 0.0))
            for i in range(nx)
            for j in range(ny)
        ]
    )


def test_dense_lattices_in_face_contact_agree_with_oracle():
    # Two 1080-triangle layers stacked face to face: deep BVHs, and every
    # cube pair overlaps in x/y, so the traversal frontier is wide.
    lattice = _open(_box_lattice(10, 9))
    assert len(lattice) >= 1000
    rng = np.random.default_rng(5)
    hits = 0
    for dz, shift in ((4.0, 0.0), (4.0 + 1e-3, 0.3), (4.0 - 0.05, 0.0), (3.9, 2.5), (3.0, 0.7)):
        world = random_rigid(rng, scale=20.0)
        pb = compose(world, _trans(shift, shift, dz))
        got = intersects(lattice, world, lattice, pb)
        assert got == brute_force_intersects(lattice, world, lattice, pb)
        hits += got
    assert 0 < hits < 5


def test_dense_spheres_agree_with_oracle():
    big = _mesh(icosphere_mesh(10.0, 3))
    small = _mesh(icosphere_mesh(6.0, 2))
    assert len(big) >= 1000
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(20):
        direction = rng.normal(size=3)
        centre = direction / np.linalg.norm(direction) * rng.uniform(14.5, 16.5)
        pa = random_rigid(rng, scale=20.0)
        pb = compose(pa, RigidTransform(random_rotation(rng), centre))
        got = intersects(big, pa, small, pb)
        assert got == brute_force_intersects(big, pa, small, pb)
        hits += got
    assert 0 < hits < 20


@pytest.fixture(scope="module")
def demo_colliders():
    return PartColliders.from_catalog(build_demo_catalog(), inset=0.25)


@given(
    st.floats(-0.75, 0.75),
    st.floats(-0.75, 0.75),
    st.floats(-15.0, 15.0),
    st.sampled_from([0.0, 0.5, 2.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_technic_pin_in_channel_matches_oracle(demo_colliders, dx, dy, dz, tilt_deg, seed):
    # The pin fills the brick's channel face to face in y; the 0.25 LDU
    # inset leaves 0.5 LDU of play on each side. The pin is opened (see
    # _open), since dy = +-0.5 puts its faces in exact contact.
    rng = np.random.default_rng(seed)
    brick = demo_colliders.get("3700")
    pin = _open((demo_colliders.get("3673").vertices, demo_colliders.get("3673").triangles))
    tilt = rotation_about_axis(rng.normal(size=3), tilt_deg)
    world = random_rigid(rng)
    pb = compose(world, RigidTransform(tilt, np.array([dx, 12.0 + dy, 10.0 + dz])))
    assert intersects(brick, world, pin, pb) == brute_force_intersects(brick, world, pin, pb)


def test_demo_structures_at_connector_poses_match_oracle(demo_colliders):
    from conftest import demo_ldr
    from brickir.ldraw import parse_structure

    cat = build_demo_catalog()
    for kind in ("mixed", "stack4", "mpd_stack"):
        inst = parse_structure(demo_ldr(kind), cat)
        for i in range(len(inst)):
            for j in range(i):
                mi, mj = demo_colliders.get(inst[i].part_id), demo_colliders.get(inst[j].part_id)
                got = intersects(mi, inst[i].pose, mj, inst[j].pose)
                assert not got  # demo structures are collision-free
                assert got == brute_force_intersects(mi, inst[i].pose, mj, inst[j].pose)


# ---------------------------------------------------------------------------
# One-leaf meshes and the triangle-box filter


def test_demo_part_meshes_are_one_leaf(demo_colliders):
    for pid in sorted(build_demo_catalog().parts):
        mesh = demo_colliders.get(pid)
        assert len(mesh) <= CollisionMesh.ONE_LEAF_MAX
        assert len(mesh.leaf) == 1 and mesh.leaf[0]
        assert mesh.leaf_tris.tolist() == [list(range(len(mesh)))]


def test_large_meshes_keep_leaves_of_at_most_leaf_size():
    mesh = _mesh(icosphere_mesh(10.0, 3))
    assert len(mesh) == 1280
    rows = [row[row >= 0] for row in mesh.leaf_tris[mesh.leaf]]  # real triangles per leaf
    assert len(rows) > 1 and max(len(r) for r in rows) <= CollisionMesh.LEAF_SIZE
    assert sorted(np.concatenate(rows).tolist()) == list(range(len(mesh)))
    assert (mesh.leaf_tris[~mesh.leaf] == -1).all()


def test_triangle_boxes_are_widened_by_tri_eps():
    mesh = _mesh(icosphere_mesh(3.0, 1))
    tris = mesh.tri_vertices
    assert np.array_equal(mesh.tri_lo_eps, tris.min(axis=1) - 1e-6)
    assert np.array_equal(mesh.tri_hi_eps, tris.max(axis=1) + 1e-6)


def _prism(n, rng, center_fans=2):
    """Closed prism over an n-gon of jittered radius about 20 LDU, 20 LDU
    tall, with a face at +x: 2n side triangles, and n-triangle fans about a
    centre vertex on ``center_fans`` caps (n - 2 triangles from a corner on
    the others)."""
    angles = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    r = 20.0 * rng.uniform(0.98, 1.02, n)
    ring = np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)
    verts = [np.column_stack([ring, np.full(n, z)]) for z in (-10.0, 10.0)]
    k = np.arange(n)
    k1 = (k + 1) % n
    tris = [np.stack([k, k1, n + k1], axis=1), np.stack([k, n + k1, n + k], axis=1)]
    for cap, (base, z) in enumerate(((0, -10.0), (n, 10.0))):
        if cap < center_fans:
            verts.append([[0.0, 0.0, z]])
            tris.append(np.stack([np.full(n, 2 * n + cap), base + k, base + k1], axis=1))
        else:
            tris.append(np.stack([np.full(n - 2, base), base + k[1:-1], base + k[2:]], axis=1))
    return np.vstack(verts), np.concatenate(tris)


def _one_leaf_boundary_meshes():
    """Meshes on both sides of the one-leaf bound: closed with 64 and 66
    triangles (a closed mesh has an even count), open with 64 and 65."""
    rng = np.random.default_rng(64)
    v64, t64 = _prism(16, rng)
    v66, t66 = _prism(17, rng, center_fans=1)
    return [
        CollisionMesh.build(v64, t64),
        CollisionMesh.build(v66, t66),
        CollisionMesh.build(v66, t66[:-2]),
        CollisionMesh.build(v66, t66[:-1]),
    ]


def test_one_leaf_boundary_meshes_match_oracle_near_contact():
    meshes = _one_leaf_boundary_meshes()
    sizes = [(len(m), m.closed) for m in meshes]
    assert sizes == [(64, True), (66, True), (64, False), (65, False)]
    assert [len(m.leaf) == 1 for m in meshes] == [True, False, True, False]
    rng = np.random.default_rng(65)
    hits = cases = 0
    for a in meshes:
        for b in meshes:
            for tilt_deg in (0.0, 0.5, 3.0, 20.0):
                pa = random_rigid(rng, scale=50.0)
                pb = compose(pa, _near_contact_pose(a, b, rng.uniform(-0.4, 0.4), tilt_deg, rng))
                got = intersects(a, pa, b, pb)
                assert got == brute_force_intersects(a, pa, b, pb)
                hits += got
                cases += 1
    assert 0.2 < hits / cases < 0.8  # both outcomes are exercised


# ---------------------------------------------------------------------------
# Tight fit: peg in sleeve with 0.5 LDU diametral interference


def _peg_and_sleeve():
    peg = box_mesh((6.0, 6.0, 8.0), center=(0, 0, 4))
    walls = [
        box_mesh((3.25, 12, 8), center=(4.375, 0, 8)),
        box_mesh((3.25, 12, 8), center=(-4.375, 0, 8)),
        box_mesh((12, 3.25, 8), center=(0, 4.375, 8)),
        box_mesh((12, 3.25, 8), center=(0, -4.375, 8)),
    ]
    return peg, merge_meshes(walls)


def test_tight_fit_collides_raw_but_not_after_inset():
    peg_raw, sleeve_raw = _peg_and_sleeve()
    assert intersects(_mesh(peg_raw), I, _mesh(sleeve_raw), I)
    assert brute_force_intersects(_mesh(peg_raw), I, _mesh(sleeve_raw), I)
    peg = inset_mesh(*peg_raw, 0.25)
    sleeve = inset_mesh(*sleeve_raw, 0.25)
    assert not intersects(peg, I, sleeve, I)
    assert not brute_force_intersects(peg, I, sleeve, I)


# ---------------------------------------------------------------------------
# Assembly checks


def test_assembly_checker_empty_and_single():
    checker = AssemblyChecker()
    assert len(checker) == 0
    assert checker.add(_mesh(box_mesh((4, 4, 4))), I) == []
    assert len(checker) == 1


def test_assembly_checker_planted_overlaps():
    cube = _mesh(box_mesh((20, 20, 20)))
    poses = [_trans(30.0 * i, 0, 0) for i in range(10)]
    poses[4] = _trans(30.0 * 2 + 5, 3, 2)  # overlaps instance 2
    poses[9] = _trans(30.0 * 8 + 7, -4, 1)  # overlaps instance 8
    checker = AssemblyChecker()
    pairs = [(j, i) for i, pose in enumerate(poses) for j in checker.add(cube, pose)]
    assert pairs == [(2, 4), (8, 9)]
    # all-pairs oracle agreement
    oracle_pairs = sorted(
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if brute_force_intersects(cube, poses[i], cube, poses[j])
    )
    assert sorted(pairs) == oracle_pairs


def test_assembly_checker_incremental():
    cube = _mesh(box_mesh((20, 20, 20)))
    checker = AssemblyChecker()
    assert checker.add(cube, _trans(0, 0, 0)) == []
    assert checker.add(cube, _trans(30, 0, 0)) == []
    assert checker.add(cube, _trans(25, 2, 1)) == [1]


def test_assembly_checker_matches_plain_loop(demo_colliders):
    rng = np.random.default_rng(23)
    meshes = [demo_colliders.get(p) for p in ("3700", "3673", "3004", "3024", "3641")]
    # A row of 1x2 bricks 40 LDU apart, jittered by up to 0.6 LDU: the inset
    # leaves 0.5 LDU between neighbours, so some overlap by a fraction of an
    # LDU. Then parts at random poses, which overlap deeply.
    brick = demo_colliders.get("3004")
    placements = [(brick, _trans(40.0 * k + rng.uniform(-0.6, 0.6), 0, 0)) for k in range(20)]
    placements += [
        (meshes[int(rng.integers(len(meshes)))], random_rigid(rng, scale=30.0)) for _ in range(30)
    ]
    checker = AssemblyChecker()
    total = 0
    for k, (mesh, pose) in enumerate(placements):
        want = [
            j
            for j, (other_mesh, other_pose) in enumerate(placements[:k])
            if brute_force_intersects(mesh, pose, other_mesh, other_pose)
        ]
        assert checker.add(mesh, pose) == want
        total += len(want)
    assert len(checker) == len(placements)
    assert 0 < total < len(placements) * (len(placements) - 1) // 2


def test_part_colliders_from_catalog():
    from brickir.demo import build_demo_catalog

    cat = build_demo_catalog()
    colliders = PartColliders.from_catalog(cat, inset=0.25)
    mesh = colliders.get("3024")
    source = cat.part("3024").mesh
    want = inset_mesh(source.vertices, source.triangles, 0.25)
    assert np.array_equal(mesh.vertices, want.vertices)
    assert np.array_equal(mesh.triangles, want.triangles)
    lo, hi = source.vertices.min(axis=0), source.vertices.max(axis=0)
    assert (mesh.vertices.min(axis=0) > lo).all() and (mesh.vertices.max(axis=0) < hi).all()
    assert colliders.get("nope") is None
    assert AssemblyChecker().add(mesh, I) == []


def test_part_colliders_build_on_first_lookup(monkeypatch):
    obj = catalog_obj_with_collapsing_mesh("3023")
    del obj["parts"]["3024"]["mesh"]
    builds = count_inset_builds(monkeypatch)
    table = PartColliders.from_catalog(Catalog.from_json_obj(obj), inset=0.25)
    assert not builds  # nothing is built up front
    assert table  # always truthy, so ``table or {}`` keeps it
    assert table.get("3024") is None  # no geometry
    assert table.get("nope") is None  # unknown id
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(BrickIrError, match="inset collapsed the entire mesh"):
            table.get("3023")
    mesh = table.get("3004")
    assert mesh is not None and table.get("3004") is mesh
    assert sorted(builds.values()) == [1, 2]  # 3004 once; the failed 3023 build twice


def test_part_colliders_concurrent_first_lookups_build_once(monkeypatch):
    """More threads than cores, switching often, all looking up every part:
    a build outside the lock would count twice."""
    cat = build_demo_catalog()
    builds = count_inset_builds(monkeypatch)
    table = PartColliders.from_catalog(cat, inset=0.25)
    ids = sorted(cat.parts)
    seen = []

    def worker(k):
        seen.append([table.get(pid) for pid in ids[k:] + ids[:k]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 8
    assert len(builds) == len(ids) and set(builds.values()) == {1}
    for meshes in seen:  # every thread got the one stored mesh of each part
        assert {id(m) for m in meshes} == {id(table.get(pid)) for pid in ids}
