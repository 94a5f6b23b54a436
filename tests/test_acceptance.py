"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import brickir
from brickir.collision import box_mesh, inset_mesh, intersects, merge_meshes
from brickir.connectors import ConnectorFamily
from brickir.demo import build_demo_catalog, generate_random_path
from brickir.geometry import QuantizedParams, RigidTransform, compose
from brickir.graph import (
    ConnEdge,
    ConnectivityGraph,
    MatchTolerances,
    match_connectors,
    sample_corpus_paths,
    sample_path,
)
from brickir.ldraw import PartInstance
from brickir.metrics import (
    mean_valid_steps,
    p_invalid,
    sequence_validity_bound,
    survival_curve,
)
from brickir.program import (
    ValidityReport,
    execute,
    node_letters,
    parse_program,
    serialize,
    validate_prefix,
)

from conftest import (
    build_collision_mesh,
    icosphere_mesh,
    random_rigid,
    rotation_angle_deg,
    survival_proportion,
)
from oracles import brute_force_intersects, exhaustive_match, graphs_equal, replay_path_poses

CAT = build_demo_catalog()
IDENT = RigidTransform.identity()


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS")


def _structure_sizes(rng, count):
    sizes = []
    for _ in range(count):
        bucket = rng.random()
        if bucket < 0.70:
            sizes.append(int(rng.integers(2, 31)))
        elif bucket < 0.95:
            sizes.append(int(rng.integers(31, 61)))
        else:
            sizes.append(int(rng.integers(61, 101)))
    return sizes


def test_criterion_1_geometry_roundtrip():
    with criterion(1, "geometry round-trip over 1000 random structures"):
        rng = np.random.default_rng(2024)
        count = 1000
        sizes = _structure_sizes(rng, count)
        t0 = time.perf_counter()
        families_seen = set()
        worst_rot = 0.0
        worst_trans = 0.0
        for k, size in enumerate(sizes):
            path = generate_random_path(CAT, rng, size)
            assert len(path.nodes_in_order()) <= 100
            families_seen |= {s.edge.family for s in path.steps}
            text = serialize(path, CAT)
            result = parse_program(text, CAT)
            assert result.error is None
            poses = execute(text, CAT)
            letters = node_letters(path)
            root_pose = path.graph.nodes[path.root].pose
            for nid, letter in letters.items():
                src = path.graph.nodes[nid].pose
                got = compose(root_pose, poses[letter])
                worst_rot = max(worst_rot, rotation_angle_deg(got, src))
                worst_trans = max(
                    worst_trans, float(np.abs(np.subtract(got.translation, src.translation)).max())
                )
            if k % 10 == 0:
                # independent replay with plain homogeneous matrices
                replayed = replay_path_poses(path, CAT)
                for nid, mat in replayed.items():
                    src = path.graph.nodes[nid].pose
                    assert np.abs(mat[:3, :3] - src.rotation).max() <= 1e-9
                    assert np.abs(mat[:3, 3] - src.translation).max() <= 1e-9
        elapsed = time.perf_counter() - t0
        assert families_seen == set(ConnectorFamily)
        assert worst_rot <= 1e-6, f"rotation error {worst_rot}"
        assert worst_trans <= 1e-6, f"translation error {worst_trans}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(
            f"\n  1000 structures, worst rotation {worst_rot:.2e} deg, "
            f"worst translation {worst_trans:.2e} LDU, {elapsed:.1f}s",
            end="",
        )


def test_criterion_2_matching_oracle_equivalence():
    with criterion(2, "matcher equals exhaustive oracle on 200 structures"):
        rng = np.random.default_rng(7)
        tol = MatchTolerances()
        for k in range(200):
            size = int(rng.integers(2, 51))
            path = generate_random_path(CAT, rng, size)
            insts = list(path.graph.nodes.values())
            fast = match_connectors(insts, CAT, tol)
            oracle = exhaustive_match(insts, CAT, tol)
            assert graphs_equal(fast, oracle), f"divergence on structure {k}"


def _rigid_pair(rng, base_gap):
    """Two box meshes posed with a known signed gap along a random direction,
    then moved by a common random rigid transform."""
    a = build_collision_mesh(*box_mesh((6.0, 8.0, 10.0)))
    b = build_collision_mesh(*box_mesh((7.0, 5.0, 9.0)))
    world = random_rigid(rng, scale=30.0)
    offset = np.array([6.5 + base_gap, 0.987, 1.234])  # generic contact direction
    pose_b = RigidTransform(
        world.rotation, np.asarray(world.rotation) @ offset + world.translation
    )
    return a, world, b, pose_b


def test_criterion_3_collision_oracle_equivalence():
    with criterion(3, "BVH collision equals all-pairs oracle (1000 + 100 cases)"):
        rng = np.random.default_rng(99)
        meshes = [
            build_collision_mesh(*box_mesh(tuple(rng.uniform(2.0, 9.0, 3))))
            for _ in range(8)
        ]
        meshes.append(build_collision_mesh(*icosphere_mesh(3.0, 1)))
        meshes.append(build_collision_mesh(*icosphere_mesh(5.0, 1)))
        hits = 0
        for _ in range(1000):
            a = meshes[int(rng.integers(len(meshes)))]
            b = meshes[int(rng.integers(len(meshes)))]
            pa = random_rigid(rng, scale=5.0)
            pb = random_rigid(rng, scale=5.0)
            got = intersects(a, pa, b, pb)
            want = brute_force_intersects(a, pa, b, pb)
            assert got == want
            hits += got
        assert 100 < hits < 900  # both outcomes well represented

        # 100 near-touching cases within 0.5 LDU clearance
        for k in range(100):
            gap = float(rng.uniform(0.01, 0.5)) * (1 if k % 2 == 0 else -1)
            a, pa, b, pb = _rigid_pair(rng, gap)
            got = intersects(a, pa, b, pb)
            want = brute_force_intersects(a, pa, b, pb)
            assert got == want
            assert got == (gap < 0)  # overlap collides, clearance does not

        # planted tight fit: 0.5 LDU diametral interference clears after the
        # 0.25 LDU inset
        peg_raw = box_mesh((6.0, 6.0, 8.0), center=(0, 0, 4))
        sleeve_raw = merge_meshes(
            [
                box_mesh((3.25, 12, 8), center=(4.375, 0, 8)),
                box_mesh((3.25, 12, 8), center=(-4.375, 0, 8)),
                box_mesh((12, 3.25, 8), center=(0, 4.375, 8)),
                box_mesh((12, 3.25, 8), center=(0, -4.375, 8)),
            ]
        )
        assert intersects(
            build_collision_mesh(*peg_raw), IDENT, build_collision_mesh(*sleeve_raw), IDENT
        )
        assert not intersects(
            inset_mesh(*peg_raw, 0.25), IDENT, inset_mesh(*sleeve_raw, 0.25), IDENT
        )


CORRUPTION_CLASSES = (
    "unknown-part",
    "unknown-connector",
    "incompatible-subtypes",
    "bad-params",
    "target-not-introduced",
)


def _corrupt(lines, action_idx, code, intro_lines, attach_lines):
    """Apply one single-token corruption of the given class to the action."""
    if code == "unknown-part":
        li = intro_lines[action_idx]
        node_id, rest = lines[li].split(" ", 1)
        _, color = rest.split(" | ", 1)
        lines[li] = f"{node_id} zzz-unknown-part | {color}"
        return li
    li = attach_lines[action_idx]
    tokens = lines[li].split()
    if code == "unknown-connector":
        tokens[3] = "zz"
    elif code == "incompatible-subtypes":
        tokens[4] = tokens[2]  # same-polarity pair: never compatible
    elif code == "bad-params":
        if len(tokens) > 6:
            tokens[6] = "banana"
        else:
            tokens.append("banana")  # fixed family: breaks the arity instead
    elif code == "target-not-introduced":
        tokens[0] = "zz"
    lines[li] = " ".join(tokens)
    return li


def test_criterion_4_parseability_gate_fidelity():
    with criterion(4, "500 corrupted sequences match hand-derived prefixes"):
        rng = np.random.default_rng(41)
        cases = 0
        base_programs = []
        while len(base_programs) < 100:
            path = generate_random_path(CAT, rng, int(rng.integers(4, 26)))
            if len(path.nodes_in_order()) < 4:
                continue
            base_programs.append(serialize(path, CAT))
        for text in base_programs:
            lines = text.splitlines()
            intro_lines = [i for i, l in enumerate(lines) if " | " in l]
            attach_lines = {}
            for action_idx in range(1, len(intro_lines)):
                attach_lines[action_idx] = intro_lines[action_idx] + 1
            n_actions = len(intro_lines)
            sane = validate_prefix(text, CAT)
            assert sane.connectivity_steps == n_actions
            for code in CORRUPTION_CLASSES:
                action_idx = int(rng.integers(1, n_actions))  # 0-based, skip root
                corrupted = list(lines)
                li = _corrupt(corrupted, action_idx, code, intro_lines, attach_lines)
                report = validate_prefix("\n".join(corrupted) + "\n", CAT)
                expected_prefix = action_idx  # actions before the corrupted one
                assert report.connectivity_steps == expected_prefix, (code, text)
                assert report.first_error is not None
                assert report.first_error.code == code
                assert report.first_error.line == li + 1
                cases += 1
        assert cases == 500


def test_criterion_5_metric_arithmetic():
    with criterion(5, "survival/mean/p_invalid arithmetic and exact identity"):
        reports = [ValidityReport(s, s, None) for s in (3, 5, 7)]
        assert mean_valid_steps(reports) == 5.0
        curve = survival_curve(reports)
        assert survival_proportion(curve, 0) == 1.0
        assert survival_proportion(curve, 5) == pytest.approx(2 / 3)
        assert survival_proportion(curve, 8) == 0.0
        assert p_invalid([True] * 4 + [False] * 12) == 0.25

        rng = np.random.default_rng(55)
        steps = [int(s) for s in rng.integers(0, 60, size=501)]
        batch = [ValidityReport(s, s, None) for s in steps]
        curve = survival_curve(batch)
        mean_exact = Fraction(sum(steps), len(steps))
        survival_sum = sum(
            (Fraction(curve.survivors[k], curve.total)
             for k in range(1, len(curve.survivors))),
            Fraction(0),
        )
        assert mean_exact == survival_sum
        assert float(mean_exact) == mean_valid_steps(batch)


def test_criterion_6_sequence_validity_bound():
    with criterion(6, "closed-form bound (0.001, 4096) < 1.7%"):
        value = sequence_validity_bound(0.001, 4096)
        assert value < 0.017
        assert 0.016 < value  # the bound is tight at this scale


def _toy_graph(n_nodes, edge_pairs):
    nodes = {i: PartInstance(i, "3024", 4, IDENT) for i in range(n_nodes)}
    edges = [
        ConnEdge((a, "a"), (b, "b"), ConnectorFamily.STUD, QuantizedParams())
        for a, b in edge_pairs
    ]
    return ConnectivityGraph(nodes, edges)


def test_criterion_7_sampler_distributions():
    with criterion(7, "uniform spanning trees and sqrt-weighted corpus draws"):
        triangle = _toy_graph(3, [(0, 1), (0, 2), (1, 2)])
        counts = Counter()
        n = 10_000
        for seed in range(n):
            path = sample_path(triangle, root=0, seed=seed)
            tree = frozenset(frozenset((s.edge.a[0], s.edge.b[0])) for s in path.steps)
            counts[tree] += 1
        assert len(counts) == 3
        for tree, c in counts.items():
            assert abs(c / n - 1 / 3) <= 0.02, dict(counts)

        # corpus selection proportional to sqrt(piece count): sizes 4 and 16
        # must split 1:2 within +-2% absolute over 100,000 draws
        small = _toy_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        large = _toy_graph(16, [(i, i + 1) for i in range(15)] + [(0, 5), (3, 9)])
        draws = 100_000
        paths = sample_corpus_paths([small, large], draws, seed=123, max_parts=100)
        freq_small = sum(1 for p in paths if p.graph is small) / draws
        assert abs(freq_small - 1 / 3) <= 0.02
        assert abs((1 - freq_small) - 2 / 3) <= 0.02
        assert all(len(p.nodes_in_order()) == len(p.graph) for p in paths)


def test_criterion_8_rigid_invariance():
    with criterion(8, "global rigid motion changes no edge, param or byte"):
        rng = np.random.default_rng(88)
        for k in range(100):
            path = generate_random_path(CAT, rng, int(rng.integers(3, 26)))
            insts = list(path.graph.nodes.values())
            g1 = match_connectors(insts, CAT)
            world = random_rigid(rng, scale=500.0)
            moved = [
                PartInstance(i.node_id, i.part_id, i.color, compose(world, i.pose))
                for i in insts
            ]
            g2 = match_connectors(moved, CAT)
            assert graphs_equal(
                ConnectivityGraph(g1.nodes, g1.edges), ConnectivityGraph(g1.nodes, g2.edges)
            ), f"edge/param drift on structure {k}"
            p1 = sample_path(g1, root=path.root, seed=k)
            p2 = sample_path(g2, root=path.root, seed=k)
            assert serialize(p1, CAT) == serialize(p2, CAT)
