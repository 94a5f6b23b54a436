"""Connectivity-graph construction and spanning-tree build-path sampling.

Connector pairing follows the family semantics: coincident, compatible
connector frames become edges carrying the quantized relative-transform
parameters (yaw / flip / slide / euler triple). A structure is then
serializable as a spanning tree whose edges suffice to rebuild every pose.

Conventions fixed here (the canonical-alignment table):
  * A connector frame is (origin, principal axis z, reference axis x).
  * Canonical alignment (all parameters zero, no flip) means the two mated
    connector frames coincide exactly; annotations are authored so paired
    sites share axis direction when assembled.
  * yaw is the signed angle from the existing connector's reference axis to
    the new one's, about the existing principal axis.
  * flip (hinge/axle only) means principal axes anti-parallel instead: the
    180-degree turn about the shared reference axis.
  * slide (axle only) is the new origin's offset along the existing
    principal axis, bounded by the connectors' overlapping axle lengths.
  * ball rotations are intrinsic Z-Y-X euler angles relative to canonical
    alignment.

All graph values are immutable once built; samplers take explicit seeds and
are reentrant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog
from .collision import AssemblyChecker
from .connectors import ConnectorFamily, dof_spec, letter_index
from .errors import CatalogError, GraphParseError, MatchError
from .geometry import (
    ConnectorFrame,
    QuantizedParams,
    RigidTransform,
    frame_rotation,
    quantize_angle,
    quantize_slide,
    relative,
    unit_axes,
)
from .ldraw import PartInstance

# 180-degree rotation about the reference (x) axis: the "flip" of hinge and
# axle connections.
FLIP_ROTATION = np.diag([1.0, -1.0, -1.0])
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False

_GIMBAL_EPS = 1e-12


@dataclass(frozen=True)
class MatchTolerances:
    """Connector-coincidence tolerances. Defaults sit well below the 6-LDU
    stud diameter so distinct sites never alias."""

    position: float = 1.0  # LDU
    axis_deg: float = 2.0


@dataclass(frozen=True)
class ConnEdge:
    """A realized connection between two (node, connector-index) endpoints.
    ``params`` is extracted with endpoint ``a`` as the reference frame."""

    a: tuple[int, str]
    b: tuple[int, str]
    family: ConnectorFamily
    params: QuantizedParams

    def other_end(self, node_id: int) -> tuple[int, str]:
        if self.a[0] == node_id:
            return self.b
        if self.b[0] == node_id:
            return self.a
        raise ValueError(f"edge does not touch node {node_id}")

    def to_json_obj(self) -> dict:
        return {
            "a": [self.a[0], self.a[1]],
            "b": [self.b[0], self.b[1]],
            "family": self.family.value,
            "params": params_to_json_obj(self.family, self.params),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "ConnEdge":
        family = ConnectorFamily(obj["family"])
        return cls(
            _json_endpoint(obj["a"]),
            _json_endpoint(obj["b"]),
            family,
            params_from_json_obj(family, obj.get("params", {})),
        )


def _json_id(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphParseError(f"node id must be an integer, got {value!r}")
    return value


def _json_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise GraphParseError(f"{what} must be a string, got {value!r}")
    return value


def _json_endpoint(value) -> tuple[int, str]:
    node, index = value
    return _json_id(node), _json_string(index, "connector index")


def param_values(family: ConnectorFamily, p: QuantizedParams) -> list[int]:
    """The family's integers in program-token order: the yaw or the three
    euler angles (``DofSpec.rotational_dof`` of them), then the slide."""
    dof = dof_spec(family)
    angles = list(p.euler_deg or (0, 0, 0)) if dof.rotational_dof == 3 else [p.yaw_deg]
    return angles[: dof.rotational_dof] + [p.slide_ldu] * dof.has_slide


def params_from_values(family: ConnectorFamily, values, flip: bool = False) -> QuantizedParams:
    """Inverse of ``param_values``: angles are taken mod 360, and ``flip`` is
    kept only where the family has one. An out-of-range slide raises
    ValueError."""
    dof = dof_spec(family)
    n = dof.rotational_dof
    angles = tuple(v % 360 for v in values[:n])
    if n == 3:
        return QuantizedParams(euler_deg=angles)
    slide = values[n] if dof.has_slide else 0
    return QuantizedParams(angles[0] if angles else 0, flip and dof.has_flip, slide)


def params_to_json_obj(family: ConnectorFamily, p: QuantizedParams) -> dict:
    dof = dof_spec(family)
    values = param_values(family, p)
    if dof.rotational_dof == 3:
        return {"euler": values}
    obj = dict(zip(["yaw"] * dof.rotational_dof + ["slide"] * dof.has_slide, values))
    if dof.has_flip:
        obj["flip"] = p.flip
    return obj


def params_from_json_obj(family: ConnectorFamily, obj) -> QuantizedParams:
    """Read every key present; one that the family has no use for (a stud
    ``flip``, a hinge ``slide``, a ball ``yaw``) raises GraphParseError."""
    e = obj.get("euler", (0, 0, 0) if dof_spec(family).rotational_dof == 3 else None)
    params = QuantizedParams(
        yaw_deg=int(obj.get("yaw", 0)),
        flip=bool(obj.get("flip", False)),
        slide_ldu=int(obj.get("slide", 0)),
        euler_deg=None if e is None else (int(e[0]), int(e[1]), int(e[2])),
    )
    try:
        _validate_params(family, params)
    except MatchError as exc:
        raise GraphParseError(f"malformed graph JSON: {exc}") from exc
    return params


def _reachable(adj, start: int) -> set[int]:
    """Nodes connected to ``start`` in an adjacency map."""
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for v, _ in adj[u]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


class ConnectivityGraph:
    """Nodes (placed instances) plus realized connector edges."""

    def __init__(self, nodes, edges):
        self.nodes: dict[int, PartInstance] = dict(nodes)
        self.edges: list[ConnEdge] = list(edges)

    def __len__(self):
        return len(self.nodes)

    def adjacency(self) -> dict[int, list[tuple[int, ConnEdge]]]:
        adj: dict[int, list[tuple[int, ConnEdge]]] = {n: [] for n in sorted(self.nodes)}
        for e in self.edges:
            adj[e.a[0]].append((e.b[0], e))
            adj[e.b[0]].append((e.a[0], e))
        return adj

    def to_json_obj(self) -> dict:
        return {
            "nodes": [
                {
                    "id": nid,
                    "part": inst.part_id,
                    "color": inst.color,
                    "pose": inst.pose.to_json_obj(),
                }
                for nid, inst in sorted(self.nodes.items())
            ],
            "edges": [e.to_json_obj() for e in self.edges],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj) -> "ConnectivityGraph":
        """Rebuild a graph from its JSON object. Malformed input (an infinite
        number included), ids that are not integers, connector indices that
        are not strings and edges naming a missing node raise GraphParseError."""
        try:
            nodes = {}
            for n in obj.get("nodes", []):
                nid = _json_id(n["id"])
                nodes[nid] = PartInstance(
                    node_id=nid,
                    part_id=_json_string(n["part"], "part id"),
                    color=int(n["color"]),
                    pose=RigidTransform.from_json_obj(n["pose"]),
                )
            edges = [ConnEdge.from_json_obj(e) for e in obj.get("edges", [])]
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise GraphParseError(f"malformed graph JSON: {type(exc).__name__}: {exc}") from exc
        for e in edges:
            for node, _ in (e.a, e.b):
                if node not in nodes:
                    raise GraphParseError(f"edge endpoint names missing node {node}")
        return cls(nodes, edges)

    @classmethod
    def loads(cls, text: str) -> "ConnectivityGraph":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise GraphParseError(f"invalid graph JSON: {exc}") from exc
        return cls.from_json_obj(obj)


@dataclass(frozen=True)
class PathStep:
    """Introduce ``new_node`` and attach it over ``edge`` (whose other
    endpoint was introduced earlier)."""

    new_node: int
    edge: ConnEdge


@dataclass
class BuildPath:
    """Spanning-tree prefix: a root plus ordered attach steps."""

    root: int
    steps: list[PathStep]
    graph: ConnectivityGraph = field(repr=False)

    def nodes_in_order(self) -> list[int]:
        return [self.root] + [s.new_node for s in self.steps]


# ---------------------------------------------------------------------------
# Parameter extraction / realization


def _rx(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _ry(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rz(deg):
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_zyx_matrix(e1, e2, e3) -> np.ndarray:
    """Rotation of the intrinsic Z-Y-X euler angles (degrees) of ball edges."""
    return _rz(e1) @ _ry(e2) @ _rx(e3)


def _euler_zyx_angles(r: np.ndarray) -> tuple[float, float, float]:
    """Intrinsic Z-Y-X euler angles of a rotation; the gimbal-locked case
    pins the third angle to zero."""
    sy = min(1.0, max(-1.0, -float(r[2, 0])))
    b = math.degrees(math.asin(sy))
    if abs(sy) >= 1.0 - _GIMBAL_EPS:
        a = math.degrees(math.atan2(-r[0, 1], r[1, 1]))
        c = 0.0
    else:
        a = math.degrees(math.atan2(r[1, 0], r[0, 0]))
        c = math.degrees(math.atan2(r[2, 1], r[2, 2]))
    return a, b, c


def canonical_ball_euler(euler_deg) -> tuple[int, int, int]:
    """The canonical integer triple equivalent to the given one (the fixed
    point of extract-after-realize)."""
    r = euler_zyx_matrix(*euler_deg)
    a, b, c = _euler_zyx_angles(r)
    return (quantize_angle(a), quantize_angle(b), quantize_angle(c))


def _mate_rotation(family: ConnectorFamily, params: QuantizedParams) -> np.ndarray:
    dof = dof_spec(family)
    if dof.rotational_dof == 3:
        return euler_zyx_matrix(*(params.euler_deg or (0, 0, 0)))
    base = FLIP_ROTATION if params.flip else _IDENTITY
    if dof.rotational_dof == 0:
        return base
    return _rz(params.yaw_deg) @ base


def _validate_params(family: ConnectorFamily, params: QuantizedParams):
    dof = dof_spec(family)
    if params.flip and not dof.has_flip:
        raise MatchError(f"{family.value} connections have no flip parameter")
    if params.slide_ldu and not dof.has_slide:
        raise MatchError(f"{family.value} connections have no slide parameter")
    if dof.rotational_dof == 3:
        if params.euler_deg is None:
            raise MatchError(f"{family.value} connections need an euler triple")
        if params.yaw_deg:
            raise MatchError(f"{family.value} connections carry euler angles, not yaw")
    else:
        if params.euler_deg is not None:
            raise MatchError(f"{family.value} connections have no euler triple")
        if params.yaw_deg and dof.rotational_dof == 0:
            raise MatchError(f"{family.value} connections have no yaw parameter")


def _mate(
    frame_rot: np.ndarray,
    origin: np.ndarray,
    family: ConnectorFamily,
    params: QuantizedParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and origin of the connector mated onto the frame
    (frame_rot, origin) by quantized parameters, before the axes are
    renormalized. The params must suit the family (``_validate_params``)."""
    r = _mate_rotation(family, params)
    t = np.array([0.0, 0.0, float(params.slide_ldu)])
    return frame_rot @ r, frame_rot @ t + origin


def attach_pose(
    target_pose: RigidTransform,
    target_frame: ConnectorFrame,
    new_frame: ConnectorFrame,
    family: ConnectorFamily,
    params: QuantizedParams,
) -> RigidTransform:
    """Pose of a part whose connector ``new_frame`` (local) mates by
    ``params`` onto connector ``target_frame`` (local) of a part at
    ``target_pose``.

    The target connector's world frame is mated by ``_mate`` and composed
    with the new connector's inverse local frame, on bare arrays in the
    operation order of that composition of ConnectorFrames, so the result
    matches it bit for bit. Only the returned pose is built as a (checked)
    RigidTransform. The params must suit the family: the parser, the
    graph-JSON loader and the matcher check them where they enter.
    """
    rt = target_pose.rotation.T
    z, x = unit_axes(target_frame.principal_axis @ rt, target_frame.reference_axis @ rt)
    rot, origin = _mate(
        frame_rotation(z, x), target_frame.origin @ rt + target_pose.translation, family, params
    )
    z, x = unit_axes(rot[:, 2], rot[:, 0])
    mated = frame_rotation(z, x)
    inv = new_frame.inverse_transform()
    return RigidTransform(mated @ inv.rotation, mated @ inv.translation + origin)


def _wrap_deg(angle: float) -> float:
    """Wrap to (-180, 180]."""
    a = math.fmod(angle, 360.0)
    if a > 180.0:
        a -= 360.0
    elif a <= -180.0:
        a += 360.0
    return a


def _check_pairing(
    family: ConnectorFamily,
    r: np.ndarray,
    t: np.ndarray,
    tol: MatchTolerances,
    max_slide: float | None,
) -> bool:
    """Matching predicate on the relative connector transform, by ``DofSpec``:
    a slide bounds the on-axis offset by ``max_slide`` (when given) and the
    off-axis one by the position tolerance, three rotational DOF skip the axis
    test, a flip accepts either polarity, and zero rotational DOF pin the yaw."""
    dof = dof_spec(family)
    if dof.has_slide:
        dist = math.hypot(float(t[0]), float(t[1]))
        if max_slide is not None and abs(float(t[2])) > max_slide + tol.position:
            return False
    else:
        dist = float(np.linalg.norm(t))
    if dist > tol.position:
        return False
    if dof.rotational_dof == 3:
        return True
    align = float(r[2, 2])
    if (abs(align) if dof.has_flip else align) < math.cos(math.radians(tol.axis_deg)):
        return False
    if dof.rotational_dof == 0:
        yaw = math.degrees(math.atan2(r[1, 0], r[0, 0]))
        return abs(_wrap_deg(yaw)) <= tol.axis_deg
    return True


def _quantize(family: ConnectorFamily, r: np.ndarray, t: np.ndarray) -> QuantizedParams:
    """Quantized parameters of a relative connector transform (r, t)."""
    flip = bool(r[2, 2] < 0.0)  # kept only by the families that have a flip
    if dof_spec(family).rotational_dof == 3:
        values = [quantize_angle(v) for v in _euler_zyx_angles(r)]
    else:
        rz = r @ (FLIP_ROTATION if flip else _IDENTITY)
        yaw = quantize_angle(math.degrees(math.atan2(rz[1, 0], rz[0, 0])))
        values = [yaw, quantize_slide(float(t[2]))]
    return params_from_values(family, values, flip)


def reverse_params(family: ConnectorFamily, params: QuantizedParams) -> QuantizedParams:
    """Parameters of the same edge traversed in the opposite direction.

    Exact on the integer grid for stud/hinge/axle/fixed: a flipped edge is
    its own inverse (yaw and slide survive); otherwise yaw and slide negate.
    Ball reversal goes through float euler decomposition and re-quantizes
    (the ZYX triple of an inverted rotation is generally not on the integer
    grid). Rounding each angle on its own can err by more than a degree near
    gimbal lock, so the floor/ceil triple whose rotation is geodesically
    nearest the exact inverse is taken (the first in floor-before-ceil order
    on ties), then canonicalized.
    """
    family = ConnectorFamily(family)
    if params.flip:
        return params
    if dof_spec(family).rotational_dof != 3:
        return params_from_values(family, [-v for v in param_values(family, params)])
    inverse = euler_zyx_matrix(*(params.euler_deg or (0, 0, 0))).T
    grid = itertools.product(*((math.floor(v), math.ceil(v)) for v in _euler_zyx_angles(inverse)))
    # trace(C^T R) = 1 + 2 cos(angle between C and R): the largest is nearest
    nearest = max(grid, key=lambda e: float(np.sum(euler_zyx_matrix(*e) * inverse)))
    return QuantizedParams(euler_deg=canonical_ball_euler(nearest))


# ---------------------------------------------------------------------------
# Matching


def _connector_reach(connector) -> float:
    if dof_spec(connector.family).has_slide and connector.axle_length:
        return float(connector.axle_length) / 2.0
    return 0.0


def _endpoint_key(conn) -> tuple[int, int]:
    """Canonical order of a ``(node_id, connector, ...)`` endpoint."""
    return (conn[0], letter_index(conn[1].index))


def _collect_world_connectors(instances, catalog: Catalog):
    """(node_id, connector, world frame, reach) for every rigid instance;
    raises CatalogError naming any part without an annotation entry."""
    out = []
    for inst in instances:
        if inst.nonrigid:
            continue
        if inst.part_id not in catalog:
            raise CatalogError(f"no connector annotation for part {inst.part_id!r}")
        part = catalog.part(inst.part_id)
        for c in part.connectors:
            out.append((inst.node_id, c, c.frame.transformed(inst.pose), _connector_reach(c)))
    return out


def _candidate_pairs(conns, tol: MatchTolerances):
    """Spatial-hash broad phase: ids of connector pairs whose padded AABBs
    share a grid cell."""
    cell = max(8.0, 4.0 * tol.position)
    grid: dict[tuple[int, int, int], list[int]] = {}
    for i, (_, _, frame, reach) in enumerate(conns):
        pad = tol.position + reach
        # Python ints hold a cell index of any finite coordinate exactly
        lo = np.floor((frame.origin - pad) / cell).tolist()
        hi = np.floor((frame.origin + pad) / cell).tolist()
        for key in itertools.product(*(range(int(l), int(h) + 1) for l, h in zip(lo, hi))):
            grid.setdefault(key, []).append(i)
    pairs = set()
    for bucket in grid.values():  # ids ascend within a bucket
        pairs.update(itertools.combinations(bucket, 2))
    return pairs


def _resolve_candidates(conns, pairs, catalog: Catalog, tol: MatchTolerances):
    """Narrow phase plus deterministic degree-constraint resolution."""
    rules = catalog.rules
    candidates = []
    keys = [_endpoint_key(c) for c in conns]
    for i, j in pairs:
        if keys[j] < keys[i]:
            i, j = j, i  # canonical direction: the smaller (node, connector) endpoint is 'a'
        node_a, conn_a, frame_a, reach_a = conns[i]
        node_b, conn_b, frame_b, reach_b = conns[j]
        if node_a == node_b or not rules.compatible(conn_a.subtype, conn_b.subtype):
            continue
        family = conn_a.family
        m = relative(frame_a.as_transform(), frame_b.as_transform())
        if not _check_pairing(family, m.rotation, m.translation, tol, reach_a + reach_b):
            continue
        params = _quantize(family, m.rotation, m.translation)
        candidates.append(
            (
                keys[i],
                keys[j],
                ConnEdge((node_a, conn_a.index), (node_b, conn_b.index), family, params),
                rules.is_multi_accept(conn_a.subtype),
                rules.is_multi_accept(conn_b.subtype),
            )
        )

    candidates.sort(key=lambda c: (c[0], c[1]))
    used: set[tuple[int, int]] = set()
    edges = []
    for ka, kb, edge, multi_a, multi_b in candidates:
        if (not multi_a and ka in used) or (not multi_b and kb in used):
            continue
        used.add(ka)
        used.add(kb)
        edges.append(edge)
    return edges


def match_connectors(
    instances, catalog: Catalog, tol: MatchTolerances | None = None
) -> ConnectivityGraph:
    """Pair coincident compatible connectors across posed instances.

    Spatial hashing keeps the expected cost near-linear in connector count;
    when several coincident pairs compete for a single-accept connector the
    lexicographically smallest endpoints win (deterministic and invariant
    under global rigid motion).
    """
    tol = tol or MatchTolerances()
    conns = _collect_world_connectors(instances, catalog)
    pairs = _candidate_pairs(conns, tol)
    edges = _resolve_candidates(conns, pairs, catalog, tol)
    nodes = {inst.node_id: inst for inst in instances if not inst.nonrigid}
    return ConnectivityGraph(nodes, edges)


# ---------------------------------------------------------------------------
# Spanning-tree path sampling


def _wilson_tree(adj, root, comp, rng):
    """Uniform random spanning tree (Wilson's loop-erased random walks).

    Returns {node: (parent, edge)} over the component. Parallel edges count
    as distinct trees, matching the multigraph's spanning-tree distribution.
    """
    in_tree = {root}
    nxt: dict[int, tuple[int, ConnEdge]] = {}
    parent: dict[int, tuple[int, ConnEdge]] = {}
    for start in sorted(comp):
        if start in in_tree:
            continue
        u = start
        while u not in in_tree:
            choices = adj[u]
            if not choices:
                raise MatchError(f"node {u} is isolated within its component")
            nxt[u] = choices[int(rng.integers(len(choices)))]
            u = nxt[u][0]
        u = start
        while u not in in_tree:
            in_tree.add(u)
            parent[u] = nxt[u]
            u = nxt[u][0]
    return parent


def sample_path(
    g: ConnectivityGraph,
    root: int | None = None,
    max_parts: int | None = None,
    seed=None,
    rng: np.random.Generator | None = None,
) -> BuildPath:
    """Uniform-random spanning tree of root's component, introduced in
    random frontier order and truncated to ``max_parts`` nodes."""
    if rng is None:
        rng = np.random.default_rng(seed)
    node_ids = sorted(g.nodes)
    if not node_ids:
        raise MatchError("empty graph")
    if root is None:
        root = node_ids[int(rng.integers(len(node_ids)))]
    elif root not in g.nodes:
        raise MatchError(f"root {root} not in graph")
    if max_parts is not None and max_parts < 1:
        raise ValueError("max_parts must be >= 1")

    adj = g.adjacency()
    comp = _reachable(adj, root)
    parent = _wilson_tree(adj, root, comp, rng)

    children: dict[int, list[int]] = {n: [] for n in comp}
    for child in sorted(parent):
        children[parent[child][0]].append(child)

    order = [root]
    steps: list[PathStep] = []
    frontier = list(children[root])
    while frontier and (max_parts is None or len(order) < max_parts):
        node = frontier.pop(int(rng.integers(len(frontier))))
        steps.append(PathStep(node, parent[node][1]))
        order.append(node)
        frontier.extend(children[node])
    return BuildPath(root, steps, graph=g)


def select_corpus_indices(sizes, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw graph indices with probability proportional to sqrt(piece count)."""
    if len(sizes) == 0:
        raise MatchError("empty corpus")
    w = np.sqrt(np.asarray(sizes, dtype=np.float64))
    if not w.sum():
        raise MatchError("empty graph")  # every graph has no nodes: no weights to draw by
    return rng.choice(len(sizes), size=count, p=w / w.sum())


def truncate_on_collision(path: BuildPath, part_meshes) -> BuildPath:
    """Cut a path before the first step whose placement (at its graph pose)
    collides with the parts already placed. Parts without a mesh in
    ``part_meshes`` (part id -> CollisionMesh) never collide."""
    g = path.graph
    checker = AssemblyChecker()
    for i, node in enumerate(path.nodes_in_order()):
        mesh = part_meshes.get(g.nodes[node].part_id)
        if mesh is not None and checker.add(mesh, g.nodes[node].pose):
            return BuildPath(path.root, path.steps[: i - 1], graph=g)  # node i is step i - 1
    return path


def sample_corpus_paths(
    corpus,
    count: int,
    seed=None,
    max_parts: int = 100,
    part_meshes=None,
) -> list[BuildPath]:
    """Sample build paths across a corpus: graphs drawn proportionally to
    sqrt(piece count), each path capped at ``max_parts`` and truncated to its
    longest collision-free prefix when part meshes are supplied."""
    rng = np.random.default_rng(seed)
    sizes = [len(g) for g in corpus]
    picks = select_corpus_indices(sizes, count, rng)
    out = []
    for i in picks:
        path = sample_path(corpus[int(i)], root=None, max_parts=max_parts, rng=rng)
        if part_meshes is not None:
            path = truncate_on_collision(path, part_meshes)
        out.append(path)
    return out
