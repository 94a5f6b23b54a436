from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brickir
from brickir.collision import PartColliders
from brickir.connectors import ConnectorFamily
from brickir.demo import build_demo_catalog, generate_random_path
from brickir.errors import CatalogError, GraphParseError, MatchError
from brickir.geometry import ConnectorFrame, QuantizedParams, RigidTransform, compose
from brickir.graph import (
    ConnEdge,
    ConnectivityGraph,
    MatchTolerances,
    _check_pairing,
    attach_pose,
    canonical_ball_euler,
    match_connectors,
    param_values,
    params_from_json_obj,
    params_from_values,
    params_to_json_obj,
    reverse_params,
    sample_corpus_paths,
    sample_path,
    select_corpus_indices,
    truncate_on_collision,
)
from brickir.ldraw import PartInstance
from brickir.program import _params_tokens, _parse_params, serialize

from conftest import (
    demo_ldr,
    extract_params,
    frame_from_transform,
    random_rigid,
    realize_params,
    rotation_about_axis,
)
from oracles import exhaustive_match, graphs_equal, reference_check_pairing

CAT = build_demo_catalog()
TOL = MatchTolerances()


def _inst(node_id, part_id, pose=None, color=4):
    return PartInstance(node_id, part_id, color, pose or RigidTransform.identity())


def _trans(x, y, z):
    return RigidTransform(np.eye(3), np.array([x, y, z], float))


# ---------------------------------------------------------------------------
# Matching


def test_two_parts_one_stud_hole_edge():
    # plate stacked directly on a plate: stud (0,0,0) meets hole (0,8,0)-8
    insts = [_inst(0, "3024"), _inst(1, "3024", _trans(0, -8, 0))]
    g = match_connectors(insts, CAT)
    assert len(g.nodes) == 2
    assert len(g.edges) == 1
    (edge,) = g.edges
    assert edge.family == ConnectorFamily.STUD
    assert edge.params == QuantizedParams(yaw_deg=0)


def test_single_instance_graph():
    g = match_connectors([_inst(0, "3024")], CAT)
    assert len(g.nodes) == 1
    assert g.edges == []


def test_four_stacked_plates_six_edges_match_bruteforce():
    insts = brickir.parse_structure(demo_ldr("stack4"), CAT)
    g = match_connectors(insts, CAT)
    assert len(g.edges) == 6
    oracle = exhaustive_match(insts, CAT, TOL)
    assert graphs_equal(g, oracle)


def test_missing_annotation_names_part():
    with pytest.raises(CatalogError, match="9999"):
        match_connectors([_inst(0, "9999")], CAT)


def test_nonrigid_instances_excluded():
    scaled = PartInstance(1, "3024", 4, _trans(0, -8, 0), nonrigid=True)
    g = match_connectors([_inst(0, "3024"), scaled], CAT)
    assert set(g.nodes) == {0}
    assert g.edges == []


def test_degree_constraint_single_accept():
    # two holes coincident with one stud: only the lexicographically first
    # candidate edge survives
    insts = [
        _inst(0, "3024"),
        _inst(1, "3024", _trans(0, -8, 0)),
        _inst(2, "3024", _trans(0, -8, 0)),
    ]
    g = match_connectors(insts, CAT)
    stud_edges = [e for e in g.edges if (0, "a") in (e.a, e.b)]
    assert len(stud_edges) == 1
    assert stud_edges[0].b[0] == 1
    oracle = exhaustive_match(insts, CAT, TOL)
    assert graphs_equal(g, oracle)


def test_multi_accept_bar_carries_two_clips():
    # two wheel rims clipped onto the same bar at different yaws
    insts = [
        _inst(0, "2415"),
        _inst(1, "4624", _trans(0, 4, 24)),
        _inst(
            2,
            "4624",
            RigidTransform(
                np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], float),
                np.array([0, 4, 24], float),
            ),
        ),
    ]
    g = match_connectors(insts, CAT)
    bar_edges = [e for e in g.edges if e.family == ConnectorFamily.AXLE]
    assert len(bar_edges) == 2
    oracle = exhaustive_match(insts, CAT, TOL)
    assert graphs_equal(g, oracle)


@pytest.mark.parametrize("seed", range(8))
def test_matching_equivalence_on_random_structures(seed):
    rng = np.random.default_rng(1000 + seed)
    path = generate_random_path(CAT, rng, 25)
    insts = list(path.graph.nodes.values())
    fast = match_connectors(insts, CAT)
    oracle = exhaustive_match(insts, CAT, TOL)
    assert graphs_equal(fast, oracle)
    # every generated tree edge is rediscovered, unless one of its endpoints
    # lost the deterministic single-accept tie-break to another exactly
    # coincident candidate (random structures may stack parts in one spot)
    found = {frozenset((e.a, e.b)) for e in fast.edges}
    claimed = {ep for e in fast.edges for ep in (e.a, e.b)}
    for e in path.graph.edges:
        assert frozenset((e.a, e.b)) in found or e.a in claimed or e.b in claimed


def test_rigid_invariance_small():
    rng = np.random.default_rng(5)
    for trial in range(5):
        path = generate_random_path(CAT, rng, 15)
        insts = list(path.graph.nodes.values())
        g1 = match_connectors(insts, CAT)
        text1 = serialize(sample_path(g1, root=path.root, seed=trial), CAT)
        world = random_rigid(rng)
        moved = [
            PartInstance(i.node_id, i.part_id, i.color, brickir.compose(world, i.pose))
            for i in insts
        ]
        g2 = match_connectors(moved, CAT)
        text2 = serialize(sample_path(g2, root=path.root, seed=trial), CAT)
        assert graphs_equal(
            ConnectivityGraph({}, g1.edges), ConnectivityGraph({}, g2.edges)
        )
        assert text1 == text2


_EPS = [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.05, -0.05]


def _near_boundary_transform(rng, tol: MatchTolerances, max_slide):
    """A relative transform (r, t) whose distance, axis angle (either
    polarity), yaw and slide each sit at a tolerance boundary, plus or minus
    a small step, or anywhere around it."""
    def step():
        return float(rng.choice(_EPS))

    pos = tol.position
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    reach = (5.0 if max_slide is None else max_slide) + pos
    mode = int(rng.integers(4))
    if mode == 0:  # the full distance at the position tolerance
        t = (pos + step()) * u
    elif mode == 1:  # the off-axis distance at it, anywhere along the axis
        d = pos + step()
        t = np.array([d * np.cos(phi), d * np.sin(phi), rng.uniform(-reach - 1.0, reach + 1.0)])
    elif mode == 2:  # the slide at max_slide + position
        d = rng.uniform(0.0, pos)
        t = np.array([d * np.cos(phi), d * np.sin(phi), rng.choice([-1, 1]) * (reach + step())])
    else:
        t = rng.uniform(-1.5, 1.5, 3) * (pos + 1.0)
    tilts = [tol.axis_deg + step(), 180.0 - tol.axis_deg + step(), 0.0, 180.0,
             rng.uniform(0.0, 180.0)]
    yaws = [tol.axis_deg + step(), -tol.axis_deg + step(), 0.0, rng.uniform(-180.0, 180.0)]
    tilt = tilts[int(rng.integers(len(tilts)))]
    yaw = yaws[int(rng.integers(len(yaws)))]
    horizontal = np.array([np.cos(phi), np.sin(phi), 0.0])
    r = rotation_about_axis(horizontal, tilt) @ rotation_about_axis(np.array([0, 0, 1.0]), yaw)
    return r, t


@pytest.mark.parametrize("position,axis_deg", [(0.0, 0.0), (1.0, 2.0), (2.5, 7.0)],
                         ids=["zero", "defaults", "wide"])
def test_check_pairing_matches_the_per_family_reference(position, axis_deg):
    # the DofSpec rules give the verdicts of the per-family branches they
    # replaced, on transforms drawn at every tolerance boundary
    tol = MatchTolerances(position, axis_deg)
    rng = np.random.default_rng(20261019)
    verdicts = {family: Counter() for family in ConnectorFamily}
    for _ in range(4000):
        family = list(ConnectorFamily)[int(rng.integers(5))]
        max_slide = [None, 0.0, float(rng.uniform(0.0, 30.0))][int(rng.integers(3))]
        r, t = _near_boundary_transform(rng, tol, max_slide)
        want = reference_check_pairing(family, r, t, tol, max_slide)
        assert _check_pairing(family, r, t, tol, max_slide) == want, (family, r, t, max_slide)
        verdicts[family][want] += 1
    for family, seen in verdicts.items():
        assert seen[True] and seen[False], (family, seen)


# ---------------------------------------------------------------------------
# Parameter extraction / realization


def _frame(origin=(0, 0, 0), axis=(0, 0, 1), ref=(1, 0, 0)):
    return ConnectorFrame(np.array(origin, float), np.array(axis, float), np.array(ref, float))


def test_extract_identical_frames_stud_yaw_zero():
    f = _frame()
    assert extract_params(f, f, ConnectorFamily.STUD) == QuantizedParams(yaw_deg=0)


def test_extract_ninety_degree_yaw():
    a = _frame()
    b = _frame(ref=(0, 1, 0))  # reference rotated 90 about the shared axis
    assert extract_params(a, b, ConnectorFamily.STUD).yaw_deg == 90


def test_extract_axle_offset_antiparallel():
    a = _frame()
    b = ConnectorFrame(
        np.array([0.0, 0.0, 3.4]), np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0])
    )
    p = extract_params(a, b, ConnectorFamily.AXLE)
    assert p.flip is True
    assert p.slide_ldu == 3


def test_extract_rejects_invalid_pairing():
    a = _frame()
    far = _frame(origin=(50, 0, 0))
    with pytest.raises(MatchError, match="not a valid pairing"):
        extract_params(a, far, ConnectorFamily.STUD)
    tilted = _frame(axis=(0, 1, 1))
    with pytest.raises(MatchError, match="not a valid pairing"):
        extract_params(a, tilted, ConnectorFamily.STUD)


def test_realize_zero_params_coincident():
    f = _frame(origin=(3, 4, 5), axis=(0, 1, 0), ref=(0, 0, 1))
    out = realize_params(f, QuantizedParams(), ConnectorFamily.STUD)
    assert out.is_close(f, tol=1e-12)


def test_realize_yaw_rotates_reference():
    f = _frame()
    out = realize_params(f, QuantizedParams(yaw_deg=90), ConnectorFamily.STUD)
    assert np.allclose(out.reference_axis, [0, 1, 0], atol=1e-12)
    assert np.allclose(out.principal_axis, f.principal_axis)


def test_realize_rejects_out_of_dof_params():
    f = _frame()
    with pytest.raises(MatchError):
        realize_params(f, QuantizedParams(yaw_deg=10, slide_ldu=2), ConnectorFamily.STUD)
    with pytest.raises(MatchError):
        realize_params(f, QuantizedParams(flip=True), ConnectorFamily.BALL)
    with pytest.raises(MatchError):
        realize_params(f, QuantizedParams(yaw_deg=5), ConnectorFamily.FIXED)
    with pytest.raises(MatchError):
        realize_params(f, QuantizedParams(), ConnectorFamily.BALL)


def test_attach_pose_equals_frame_object_composition():
    # the kernel reproduces, bit for bit, the object composition it replaced:
    # realize on the target's world frame, then undo the new local frame
    rng = np.random.default_rng(33)
    for _ in range(40):
        pose = random_rigid(rng)
        fa, fb = (
            ConnectorFrame(rng.normal(size=3) * 20, rng.normal(size=3), rng.normal(size=3))
            for _ in range(2)
        )
        yaw = int(rng.integers(360))
        for family, params in (
            (ConnectorFamily.STUD, QuantizedParams(yaw_deg=yaw)),
            (ConnectorFamily.HINGE, QuantizedParams(yaw_deg=yaw, flip=True)),
            (ConnectorFamily.AXLE, QuantizedParams(yaw_deg=yaw, slide_ldu=-3)),
            (ConnectorFamily.BALL, QuantizedParams(euler_deg=(yaw, 20, 300))),
            (ConnectorFamily.FIXED, QuantizedParams()),
        ):
            got = attach_pose(pose, fa, fb, family, params)
            realized = realize_params(fa.transformed(pose), params, family)
            want = compose(realized.as_transform(), fb.as_transform().inverse())
            assert np.array_equal(got.rotation, want.rotation)
            assert np.array_equal(got.translation, want.translation)


@st.composite
def family_and_params(draw):
    family = draw(st.sampled_from(list(ConnectorFamily)))
    if family == ConnectorFamily.BALL:
        raw = (draw(st.integers(0, 359)), draw(st.integers(0, 359)), draw(st.integers(0, 359)))
        return family, QuantizedParams(euler_deg=canonical_ball_euler(raw))
    if family == ConnectorFamily.FIXED:
        return family, QuantizedParams()
    yaw = draw(st.integers(0, 359))
    flip = draw(st.booleans()) if family != ConnectorFamily.STUD else False
    slide = draw(st.integers(-30, 30)) if family == ConnectorFamily.AXLE else 0
    return family, QuantizedParams(yaw_deg=yaw, flip=flip, slide_ldu=slide)


@given(family_and_params(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_extract_realize_roundtrip_exact(fp, seed):
    family, params = fp
    rng = np.random.default_rng(seed)
    frame = frame_from_transform(random_rigid(rng))
    realized = realize_params(frame, params, family)
    assert extract_params(frame, realized, family) == params


@given(family_and_params(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_reverse_params_consistent(fp, seed):
    family, params = fp
    rng = np.random.default_rng(seed)
    fa = frame_from_transform(random_rigid(rng))
    fb = realize_params(fa, params, family)
    back = reverse_params(family, params)
    if family == ConnectorFamily.BALL:
        # ball reversal re-quantizes: check the realized geometry agrees
        # within the half-degree quantization bound
        fa_again = realize_params(fb, back, family)
        assert np.abs(fa_again.origin - fa.origin).max() <= 1e-9
        dots = fa_again.principal_axis @ fa.principal_axis
        assert dots >= np.cos(np.radians(1.0))
    else:
        assert extract_params(fb, fa, family) == back
        assert reverse_params(family, back) == params


@given(family_and_params())
@settings(max_examples=300, deadline=None)
def test_param_codec_roundtrip(fp):
    family, params = fp
    values = param_values(family, params)
    assert params_from_values(family, values, params.flip) == params
    assert _parse_params(family, _params_tokens(family, params), 1) == params
    assert params_from_json_obj(family, params_to_json_obj(family, params)) == params


@pytest.mark.parametrize("family, params, tokens, obj, wrapped", [
    (ConnectorFamily.STUD, QuantizedParams(yaw_deg=90), ["90"], {"yaw": 90}, [-270]),
    (ConnectorFamily.HINGE, QuantizedParams(yaw_deg=270, flip=True), ["flip", "270"],
     {"yaw": 270, "flip": True}, [-90]),
    (ConnectorFamily.AXLE, QuantizedParams(yaw_deg=15, slide_ldu=-8), ["15", "-8"],
     {"yaw": 15, "flip": False, "slide": -8}, [375, -8]),
    (ConnectorFamily.BALL, QuantizedParams(euler_deg=(10, 20, 300)), ["10", "20", "300"],
     {"euler": [10, 20, 300]}, [370, -340, 660]),
    (ConnectorFamily.FIXED, QuantizedParams(), [], {}, []),
], ids=["stud", "hinge", "axle", "ball", "fixed"])
def test_param_codec_examples(family, params, tokens, obj, wrapped):
    assert _params_tokens(family, params) == tokens
    assert params_to_json_obj(family, params) == obj
    values = [int(t) for t in tokens if t != "flip"]
    assert param_values(family, params) == values
    # angles are taken mod 360, and a flip is kept only where the family has one
    assert params_from_values(family, wrapped, params.flip) == params
    has_flip = family in (ConnectorFamily.HINGE, ConnectorFamily.AXLE)
    assert params_from_values(family, values, True).flip == has_flip


def _ball_reversal_error_deg(euler, seed):
    """Geodesic error (degrees) of a ball edge realized forward and then
    back over its reversed parameters, and the principal-axis dot product."""
    params = QuantizedParams(euler_deg=euler)
    fa = frame_from_transform(random_rigid(np.random.default_rng(seed)))
    fb = realize_params(fa, params, ConnectorFamily.BALL)
    fa_again = realize_params(fb, reverse_params(ConnectorFamily.BALL, params), ConnectorFamily.BALL)
    assert np.abs(fa_again.origin - fa.origin).max() <= 1e-9
    angle = fa_again.as_transform().rotation_angle_deg_to(fa.as_transform())
    return angle, fa_again.principal_axis @ fa.principal_axis


@pytest.mark.parametrize("euler", [(258, 87, 258), (146, 74, 146)])
def test_ball_reversal_near_gimbal_lock_examples(euler):
    # rounding each angle of the inverse on its own misses by more than 1 degree here
    angle, dot = _ball_reversal_error_deg(euler, 0)
    assert dot >= np.cos(np.radians(1.0))
    assert angle <= 1.0


@given(
    st.integers(0, 359),
    st.sampled_from([90, 270]),
    st.integers(-10, 10),
    st.integers(0, 359),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_ball_reversal_within_bound_near_gimbal_lock(yaw, lock, offset, roll, seed):
    euler = canonical_ball_euler((yaw, (lock + offset) % 360, roll))
    angle, dot = _ball_reversal_error_deg(euler, seed)
    assert dot >= np.cos(np.radians(1.0))
    assert angle <= 1.0


# ---------------------------------------------------------------------------
# Path sampling


def _toy_graph(n_nodes, edge_pairs):
    nodes = {i: _inst(i, "3024") for i in range(n_nodes)}
    edges = [
        ConnEdge((a, "a"), (b, "b"), ConnectorFamily.STUD, QuantizedParams())
        for a, b in edge_pairs
    ]
    return ConnectivityGraph(nodes, edges)


def test_sample_path_tree_graph_covers_all_nodes():
    g = _toy_graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    path = sample_path(g, root=0, seed=3)
    assert len(path.nodes_in_order()) == 6
    assert len(path.steps) == 5
    introduced = {path.root}
    for step in path.steps:
        other, _ = step.edge.other_end(step.new_node)
        assert other in introduced  # prefix-introduction invariant
        introduced.add(step.new_node)


def test_sample_path_max_parts_one():
    g = _toy_graph(4, [(0, 1), (1, 2), (2, 3)])
    path = sample_path(g, root=0, max_parts=1, seed=0)
    assert path.nodes_in_order() == [0]
    assert path.steps == []


def test_sample_path_unknown_root():
    g = _toy_graph(2, [(0, 1)])
    with pytest.raises(MatchError, match="root"):
        sample_path(g, root=9, seed=0)


def test_triangle_spanning_tree_distribution_quick():
    g = _toy_graph(3, [(0, 1), (0, 2), (1, 2)])
    counts = Counter()
    n = 3000
    for seed in range(n):
        path = sample_path(g, root=0, seed=seed)
        tree = frozenset(frozenset((s.edge.a[0], s.edge.b[0])) for s in path.steps)
        counts[tree] += 1
    assert len(counts) == 3
    for tree, c in counts.items():
        assert abs(c / n - 1 / 3) < 0.05, counts


def test_sample_path_deterministic_given_seed():
    g = _toy_graph(8, [(i, i + 1) for i in range(7)] + [(0, 7), (2, 5)])
    p1 = sample_path(g, root=0, seed=123)
    p2 = sample_path(g, root=0, seed=123)
    assert [s.new_node for s in p1.steps] == [s.new_node for s in p2.steps]


def test_select_corpus_indices_sqrt_weights_quick():
    rng = np.random.default_rng(0)
    picks = select_corpus_indices([4, 16], 20000, rng)
    freq = np.bincount(picks, minlength=2) / 20000
    assert abs(freq[0] - 1 / 3) < 0.02
    assert abs(freq[1] - 2 / 3) < 0.02


def test_select_corpus_indices_of_node_less_graphs_raises():
    with pytest.raises(MatchError, match="^empty graph$"):
        select_corpus_indices([0, 0], 5, np.random.default_rng(0))


def test_sample_corpus_paths_empty_corpus():
    with pytest.raises(MatchError, match="empty"):
        sample_corpus_paths([], 5, seed=0)


def test_sample_corpus_paths_single_graph():
    g = _toy_graph(4, [(0, 1), (1, 2), (2, 3)])
    paths = sample_corpus_paths([g], 10, seed=1)
    assert len(paths) == 10
    assert all(p.graph is g for p in paths)


def test_sample_corpus_paths_respects_max_parts():
    g = _toy_graph(10, [(i, i + 1) for i in range(9)])
    paths = sample_corpus_paths([g], 5, seed=2, max_parts=4)
    assert all(len(p.nodes_in_order()) == 4 for p in paths)


def test_collision_truncation_cuts_before_first_colliding_step():
    # chain of six plates; the sixth sits exactly on top of the third:
    # identical box -> guaranteed collision at introduction position 5
    poses = [_trans(0, -8 * k, 0) for k in range(5)]
    poses.append(_trans(0, -16, 0))  # same place as node 2
    nodes = {i: _inst(i, "3024", poses[i]) for i in range(6)}
    edges = [
        ConnEdge((i, "a"), (i + 1, "b"), ConnectorFamily.STUD, QuantizedParams())
        for i in range(5)
    ]
    g = ConnectivityGraph(nodes, edges)
    meshes = PartColliders.from_catalog(CAT, inset=0.25)
    path = sample_path(g, root=0, seed=0)  # chain: order is forced
    cut = truncate_on_collision(path, meshes)
    assert len(cut.nodes_in_order()) == 5
    assert [s.new_node for s in cut.steps] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# JSON interchange


def test_graph_json_roundtrip():
    rng = np.random.default_rng(9)
    path = generate_random_path(CAT, rng, 12)
    g = path.graph
    text = g.dumps()
    g2 = ConnectivityGraph.loads(text)
    assert g2.dumps() == text
    assert set(g2.nodes) == set(g.nodes)
    assert [e.to_json_obj() for e in g2.edges] == [e.to_json_obj() for e in g.edges]
    for nid in g.nodes:
        assert g2.nodes[nid].pose.is_close(g.nodes[nid].pose, tol=0.0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o["nodes"][0].pop("pose"),
        lambda o: o["nodes"][0].update(id=1.5),
        lambda o: o["nodes"][0]["pose"]["t"].__setitem__(0, float("nan")),
        lambda o: o["edges"][0].update(family="glue"),
        lambda o: o["edges"][0].update(b=[7]),
        lambda o: o["edges"][0].update(a=[999, "a"]),
        lambda o: o.update(nodes=[1, 2]),
        # params the edge's family has no use for
        lambda o: o["edges"][0].update(family="stud", params={"yaw": 0, "flip": True}),
        lambda o: o["edges"][0].update(family="hinge", params={"yaw": 0, "flip": False, "slide": 4}),
        lambda o: o["edges"][0].update(family="stud", params={"yaw": 0, "euler": [0, 0, 0]}),
        lambda o: o["edges"][0].update(family="ball", params={"euler": [0, 0, 0], "yaw": 90}),
    ],
)
def test_graph_json_malformed_raises_parse_error(mutate):
    g = generate_random_path(CAT, np.random.default_rng(9), 4).graph
    obj = g.to_json_obj()
    mutate(obj)
    with pytest.raises(GraphParseError):
        ConnectivityGraph.from_json_obj(obj)


@pytest.mark.parametrize("euler", [(0, 90, 0), (45, 90, 0), (123, 270, 0), (0, 90, 45), (359, 89, 181)])
def test_ball_gimbal_and_boundary_cases(euler):
    canonical = canonical_ball_euler(euler)
    f = _frame(origin=(5, 6, 7))
    realized = realize_params(f, QuantizedParams(euler_deg=canonical), ConnectorFamily.BALL)
    assert extract_params(f, realized, ConnectorFamily.BALL).euler_deg == canonical
    # the canonical triple realizes the same rotation as the raw one
    raw_frame = realize_params(f, QuantizedParams(euler_deg=tuple(euler)), ConnectorFamily.BALL)
    assert raw_frame.is_close(realized, tol=1e-9)


def test_yaw_wraparound_quantization():
    a = _frame()
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 359.7)
    b = ConnectorFrame(a.origin, a.principal_axis, rot @ a.reference_axis)
    assert extract_params(a, b, ConnectorFamily.STUD).yaw_deg == 0
    rot = rotation_about_axis(np.array([0.0, 0.0, 1.0]), 359.4)
    b = ConnectorFrame(a.origin, a.principal_axis, rot @ a.reference_axis)
    assert extract_params(a, b, ConnectorFamily.STUD).yaw_deg == 359
