"""A small self-contained demo catalog plus structure generators.

The parts are LDraw-flavored stand-ins (boxes instead of detailed geometry,
-Y up, origins at the top surface) covering all five connection families.
They back the example corpus, the CLI walkthrough in the README and the
randomized round-trip experiments.
"""

from __future__ import annotations

import numpy as np

from .catalog import Catalog, PartDef, TriMesh, normalize_part_name
from .collision import box_mesh, merge_meshes
from .connectors import AnnotatedConnector, default_rules, dof_spec, index_sites
from .geometry import ConnectorFrame, QuantizedParams, RigidTransform
from .graph import (
    BuildPath,
    ConnEdge,
    ConnectivityGraph,
    PathStep,
    attach_pose,
    canonical_ball_euler,
    euler_zyx_matrix,
)
from .ldraw import PartInstance

_UP = (0.0, -1.0, 0.0)  # LDraw: -Y is up
_X = (1.0, 0.0, 0.0)


def _conn(subtype, origin, axis, ref=_X, length=None):
    return (
        default_rules().family_of(subtype),
        subtype,
        ConnectorFrame(origin, axis, ref),
        length,
    )


def _part(part_id, name, sites, mesh_parts):
    mesh = TriMesh(*merge_meshes(mesh_parts)) if mesh_parts else None
    return PartDef(part_id, normalize_part_name(name), index_sites(part_id, sites), mesh)


def _studs_and_holes(positions, depth):
    sites = []
    for x, z in positions:
        sites.append(_conn("stud", (x, 0, z), _UP))
        sites.append(_conn("hole", (x, depth, z), _UP))
    return sites


def build_demo_catalog() -> Catalog:
    parts = {}

    def add(part):
        parts[part.part_id] = part

    add(_part(
        "3024", "plate 1x1",
        _studs_and_holes([(0, 0)], 8),
        [box_mesh((20, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "3023", "plate 1x2",
        _studs_and_holes([(-10, 0), (10, 0)], 8),
        [box_mesh((40, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "3004", "brick 1x2",
        _studs_and_holes([(-10, 0), (10, 0)], 24),
        [box_mesh((40, 24, 20), (0, 12, 0))],
    ))
    add(_part(
        "3003", "brick 2x2",
        _studs_and_holes([(-10, -10), (-10, 10), (10, -10), (10, 10)], 24)
        + [_conn("tube", (0, 24, 0), _UP)],
        [box_mesh((40, 24, 40), (0, 12, 0))],
    ))
    add(_part(
        "3794", "jumper plate 1x2",
        [_conn("open_stud", (0, 0, 0), _UP),
         _conn("hole", (-10, 8, 0), _UP),
         _conn("hole", (10, 8, 0), _UP)],
        [box_mesh((40, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "61252", "plate 1x1 with post",
        [_conn("stud", (0, 0, 0), _UP),
         _conn("post", (0, 8, 0), _UP)],
        [box_mesh((20, 8, 20), (0, 4, 0))],
    ))
    # Technic brick: slabs and cheeks leave a 12x12 through-channel for pins.
    add(_part(
        "3700", "technic brick 1x2",
        _studs_and_holes([(-10, 0), (10, 0)], 24)
        + [_conn("pin_socket", (0, 12, 0), (0, 0, 1), length=20)],
        [
            box_mesh((40, 6, 20), (0, 3, 0)),
            box_mesh((40, 6, 20), (0, 21, 0)),
            box_mesh((12, 12, 20), (-14, 12, 0)),
            box_mesh((12, 12, 20), (14, 12, 0)),
        ],
    ))
    add(_part(
        "3673", "technic pin",
        [_conn("pin", (0, 0, -10), (0, 0, -1), length=20),
         _conn("pin", (0, 0, 10), (0, 0, 1), length=20)],
        [box_mesh((12, 12, 40), (0, 0, 0))],
    ))
    add(_part(
        "3704", "technic axle 2",
        [_conn("axle", (0, 0, 0), (0, 0, 1), length=40)],
        [box_mesh((8, 8, 40), (0, 0, 0))],
    ))
    add(_part(
        "4275", "hinge plate finger base",
        _studs_and_holes([(-10, 0)], 8)
        + [_conn("hinge_finger_on", (24, 4, 0), _UP)],
        [box_mesh((40, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "4276", "hinge plate finger top",
        _studs_and_holes([(10, 0)], 8)
        + [_conn("hinge_finger_in", (-24, 4, 0), _UP)],
        [box_mesh((40, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "3614", "towball plate",
        _studs_and_holes([(0, 0)], 8)
        + [_conn("towball", (14, 4, 0), (1, 0, 0), ref=(0, 0, 1))],
        [box_mesh((20, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "3615", "towball socket plate",
        _studs_and_holes([(0, 0)], 8)
        + [_conn("towball_socket", (-14, 4, 0), (1, 0, 0), ref=(0, 0, 1))],
        [box_mesh((20, 8, 20), (0, 4, 0))],
    ))
    add(_part(
        "2415", "plate 2x2 wheels holder",
        _studs_and_holes([(-10, -10), (-10, 10), (10, -10), (10, 10)], 8)
        + [_conn("bar", (0, 4, 24), (0, 0, 1), length=8),
           _conn("bar", (0, 4, -24), (0, 0, -1), length=8)],
        [box_mesh((40, 8, 40), (0, 4, 0))],
    ))
    add(_part(
        "4624", "wheel rim 6.4x8",
        [_conn("clip", (0, 0, 0), (0, 0, 1), length=8),
         _conn("in", (0, 0, 2), (0, 0, 1))],
        [box_mesh((16, 16, 8), (0, 0, 0))],
    ))
    add(_part(
        "3641", "tyre 6 50x8",
        [_conn("on", (0, 0, 0), (0, 0, 1))],
        [
            box_mesh((8, 40, 8), (16, 0, 0)),
            box_mesh((8, 40, 8), (-16, 0, 0)),
            box_mesh((40, 8, 8), (0, 16, 0)),
            box_mesh((40, 8, 8), (0, -16, 0)),
        ],
    ))
    return Catalog(parts)


_IDENTITY_ROW = "1 0 0 0 1 0 0 0 1"

DEMO_STRUCTURES = {
    # four stacked 1x2 plates: two stud contacts per adjacent pair
    "stack4": "\n".join(
        f"1 {color} 0 {-8 * k} 0 {_IDENTITY_ROW} 3023.dat"
        for k, color in enumerate((4, 14, 1, 2))
    )
    + "\n",
    # the same stack expressed as an MPD document with a nested submodel
    "mpd_stack": (
        "0 FILE main.ldr\n"
        "0 stacked plates via submodel\n"
        f"1 4 0 0 0 {_IDENTITY_ROW} sub.ldr\n"
        f"1 2 0 -16 0 {_IDENTITY_ROW} sub.ldr\n"
        "0 NOFILE\n"
        "0 FILE sub.ldr\n"
        f"1 14 0 0 0 {_IDENTITY_ROW} 3023.dat\n"
        f"1 14 0 -8 0 {_IDENTITY_ROW} 3023.dat\n"
        "0 NOFILE\n"
    ),
    # one connection of every family, in separated clusters
    "mixed": "\n".join(
        [
            f"1 4 0 0 0 {_IDENTITY_ROW} 3700.dat",
            f"1 4 0 12 10 {_IDENTITY_ROW} 3673.dat",
            f"1 14 40 0 0 {_IDENTITY_ROW} 3700.dat",
            f"1 2 40 12 6 {_IDENTITY_ROW} 3704.dat",
            f"1 1 10 -8 0 {_IDENTITY_ROW} 3024.dat",
            f"1 14 200 0 0 {_IDENTITY_ROW} 4275.dat",
            f"1 14 248 0 0 {_IDENTITY_ROW} 4276.dat",
            f"1 0 400 0 0 {_IDENTITY_ROW} 3614.dat",
            f"1 0 428 0 0 {_IDENTITY_ROW} 3615.dat",
            f"1 7 600 0 0 {_IDENTITY_ROW} 2415.dat",
            f"1 7 600 4 24 {_IDENTITY_ROW} 4624.dat",
            f"1 0 600 4 26 {_IDENTITY_ROW} 3641.dat",
        ]
    )
    + "\n",
}


def _compat_index(catalog: Catalog):
    """subtype -> [(part_id, connector)] of partners it can pair with."""
    rules = default_rules()
    index: dict[str, list] = {}
    for pid in sorted(catalog.parts):
        for conn in catalog.parts[pid].connectors:
            for other in rules.subtype_family:
                if rules.compatible(other, conn.subtype):
                    index.setdefault(other, []).append((pid, conn))
    return index


def _random_params(family, target_conn, new_conn, rng) -> QuantizedParams:
    dof = dof_spec(family)
    if dof.rotational_dof == 3:
        raw = tuple(int(rng.integers(0, 360)) for _ in range(3))
        return QuantizedParams(euler_deg=canonical_ball_euler(raw))
    if dof.rotational_dof == 0:
        return QuantizedParams()
    yaw = int(rng.integers(0, 360))
    flip = bool(rng.integers(2)) if dof.has_flip else False
    slide = 0
    if dof.has_slide:
        bound = int(((target_conn.axle_length or 0) + (new_conn.axle_length or 0)) // 2)
        if bound > 0:
            slide = int(rng.integers(-bound, bound + 1))
    return QuantizedParams(yaw_deg=yaw, flip=flip, slide_ldu=slide)


def generate_random_path(
    catalog: Catalog,
    rng: np.random.Generator,
    n_parts: int,
) -> BuildPath:
    """Grow a random build path with exactly-quantized parameters.

    Each step attaches a random compatible part to a random unconsumed
    connector; poses are realized from the quantized parameters, so every
    connection is exact on the integer grid. Collisions are not checked.
    """
    compat = _compat_index(catalog)
    part_ids = sorted(pid for pid in catalog.parts if catalog.parts[pid].connectors)
    colors = sorted(catalog.colors)

    def random_color():
        return colors[int(rng.integers(len(colors)))]

    root_part = part_ids[int(rng.integers(len(part_ids)))]
    e = tuple(int(rng.integers(0, 360)) for _ in range(3))
    pose = RigidTransform(euler_zyx_matrix(*e), rng.integers(-200, 200, size=3).astype(float))

    nodes = {0: PartInstance(0, root_part, random_color(), pose)}
    edges: list[ConnEdge] = []
    steps: list[PathStep] = []
    open_conns: list[tuple[int, AnnotatedConnector]] = [
        (0, c) for c in catalog.parts[root_part].connectors if c.subtype in compat
    ]

    while len(nodes) < n_parts and open_conns:
        ti = int(rng.integers(len(open_conns)))
        target_node, target_conn = open_conns.pop(ti)
        partners = compat[target_conn.subtype]
        new_part_id, new_conn = partners[int(rng.integers(len(partners)))]
        family = target_conn.family
        params = _random_params(family, target_conn, new_conn, rng)

        new_pose = attach_pose(
            nodes[target_node].pose, target_conn.frame, new_conn.frame, family, params
        )

        node_id = len(nodes)
        nodes[node_id] = PartInstance(node_id, new_part_id, random_color(), new_pose)
        edge = ConnEdge(
            (target_node, target_conn.index), (node_id, new_conn.index), family, params
        )
        edges.append(edge)
        steps.append(PathStep(node_id, edge))
        for c in catalog.parts[new_part_id].connectors:
            if c.index != new_conn.index and c.subtype in compat:
                open_conns.append((node_id, c))

    graph = ConnectivityGraph(nodes, edges)
    return BuildPath(0, steps, graph=graph)
