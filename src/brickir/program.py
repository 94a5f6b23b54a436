"""The build-sequence DSL: serializer, parser, executor and prefix validation.

A program is UTF-8 text, one step per line (LF endings). Each placement
action is a part-introduction line followed by one (or more) attach lines
binding the just-introduced part onto the existing structure:

    intro  := node_id SP part_name SP '|' SP color_name
    attach := target_id SP family SP subtype_target SP conn_index_target
              SP subtype_new SP conn_index_new {SP param}

Params by family -- stud: yaw; hinge: ["flip"] yaw; axle: ["flip"] yaw slide;
ball: e1 e2 e3; fixed: none. Node ids are assigned a, b, ..., z, aa, ... in
introduction order; the attach's "new" endpoint is always the most recently
introduced node. This grammar is the normative definition of the format.

A parsed program is its placement actions, each a part introduction and its
attaches (immutable values); execution is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .catalog import Catalog, PartDef
from .collision import AssemblyChecker
from .connectors import AnnotatedConnector, ConnectorFamily, default_rules, dof_spec, letter_id
from .errors import ProgramError
from .geometry import QuantizedParams, RigidTransform
from .graph import BuildPath, attach_pose, param_values, params_from_values, reverse_params

FAMILY_NAMES = {f.value: f for f in ConnectorFamily}


@dataclass(frozen=True)
class PartIntro:
    node: str
    part_id: str
    part_name: str
    color_name: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Attach:
    """An attach line, with the two connectors its indices name (the
    target's, then the newest part's), as the parser resolved them."""

    target: str
    family: ConnectorFamily
    target_connector: AnnotatedConnector
    new_connector: AnnotatedConnector
    params: QuantizedParams
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ProgramDiagnosis:
    line: int
    code: str
    message: str

    def to_json_obj(self) -> dict:
        return {"line": self.line, "code": self.code, "message": self.message}


@dataclass(frozen=True)
class ParseResult:
    """Longest valid prefix, as its placement actions, plus the first
    invalid line, if any. An action is a part introduction and its attaches;
    the first introduces the root and has none."""

    actions: tuple[tuple[PartIntro, tuple[Attach, ...]], ...]
    error: ProgramDiagnosis | None = None


@dataclass(frozen=True)
class ValidityReport:
    """Longest parse+execute-valid action prefix, and the prefix additionally
    free of part-part collisions."""

    connectivity_steps: int
    collision_steps: int
    first_error: ProgramDiagnosis | None = None

    def steps(self, mode: str) -> int:
        if mode == "connectivity":
            return self.connectivity_steps
        if mode == "collision":
            return self.collision_steps
        raise ValueError(f"unknown validity mode {mode!r}")

    def to_json_obj(self) -> dict:
        return {
            "connectivity_steps": self.connectivity_steps,
            "collision_steps": self.collision_steps,
            "first_error": self.first_error.to_json_obj() if self.first_error else None,
        }


# ---------------------------------------------------------------------------
# Serialization


def node_letters(path: BuildPath) -> dict[int, str]:
    """Graph node id -> program letter id, in introduction order."""
    return {nid: letter_id(i) for i, nid in enumerate(path.nodes_in_order())}


def _params_tokens(family: ConnectorFamily, params: QuantizedParams) -> list[str]:
    return ["flip"] * params.flip + [str(v) for v in param_values(family, params)]


def serialize(path: BuildPath, catalog: Catalog) -> str:
    """Emit a build path as program text (one step per line, LF endings)."""
    g = path.graph
    letters = node_letters(path)
    lines = []

    def intro_line(node_id: int) -> str:
        inst = g.nodes[node_id]
        part = catalog.part(inst.part_id)
        color = catalog.color_name(inst.color)
        return f"{letters[node_id]} {part.name} | {color}"

    lines.append(intro_line(path.root))
    for step in path.steps:
        edge = step.edge
        target_node, target_conn = edge.other_end(step.new_node)
        if edge.a[0] == target_node:
            params = edge.params
            new_conn = edge.b[1]
        else:
            params = reverse_params(edge.family, edge.params)
            new_conn = edge.a[1]
        target_subtype = catalog.part(g.nodes[target_node].part_id).connector(target_conn).subtype
        new_subtype = catalog.part(g.nodes[step.new_node].part_id).connector(new_conn).subtype
        lines.append(intro_line(step.new_node))
        tokens = [
            letters[target_node],
            edge.family.value,
            target_subtype,
            target_conn,
            new_subtype,
            new_conn,
        ] + _params_tokens(edge.family, params)
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing


_UNSEEN = object()  # a memo's default: no line has looked this key up yet


def _attach_family(family_name: str, sub_t: str, sub_n: str, rules):
    """The family of an attach's family token and subtypes, or the
    (code, message) of the first rule they break: an unknown family, a
    subtype that is not the family's (target, then new), subtypes that do
    not pair."""
    family = FAMILY_NAMES.get(family_name)
    if family is None:
        return "unknown-family", f"unknown family {family_name!r}"
    for sub in (sub_t, sub_n):
        if not rules.is_registered(sub) or rules.family_of(sub) != family:
            return "unknown-subtype", f"subtype {sub!r} is not a {family.value} subtype"
    if not rules.compatible(sub_t, sub_n):
        return "incompatible-subtypes", f"{sub_t!r} does not pair with {sub_n!r}"
    return family


def _parse_params(family: ConnectorFamily, tokens: list[str]):
    """The QuantizedParams of an attach's param tokens, or the
    ('bad-params', message) of what is wrong with them."""
    dof = dof_spec(family)
    flip = dof.has_flip and tokens[:1] == ["flip"]
    tokens = tokens[flip:]
    expected = dof.rotational_dof + dof.has_slide
    if len(tokens) != expected:
        return "bad-params", f"{family.value} attach takes {expected} value(s)"
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        return "bad-params", f"non-integer parameter in {tokens}"
    try:
        return params_from_values(family, values, flip)
    except ValueError as exc:
        return "bad-params", str(exc)


def parse_program(text: str, catalog: Catalog, strict: bool = False) -> ParseResult:
    """Parse program text into its longest valid prefix.

    In prefix mode the result carries the first invalid line as a structured
    diagnosis; strict mode raises ProgramError instead. An invalid line
    anywhere inside a placement action invalidates the whole action, so the
    result holds complete valid actions only. Each attach carries the two
    connectors it names, so nothing after the parser looks them up again.

    What a line checks against the catalog alone is worked out once per
    call: each distinct part name, colour, (family, target subtype, new
    subtype) and (family, param tokens) is checked on first sight, by the
    same rules in the same order as always, and its outcome kept for the
    lines after it: the value, or the (code, message) of the first rule it
    breaks, which each line raises with its own number. So every diagnosis
    keeps its code, message and line. Connectors are looked up by index
    (``PartDef.connectors_by_index``).
    """
    actions: list = []  # the complete actions
    intro: PartIntro | None = None  # the action in progress
    attaches: list[Attach] = []  # its attaches so far
    introduced: dict[str, PartDef] = {}  # letter -> part
    newest_part: PartDef | None = None
    newest_attached = True  # the root needs no attach
    parts: dict = {}  # part name -> PartDef, or None when not in the catalog
    colors: dict = {}  # colour -> its lowercase name, or None when not registered
    families: dict = {}  # (family, target subtype, new subtype) -> family or error
    params_of: dict = {}  # (family, *param tokens) -> QuantizedParams or error
    rules = default_rules()

    try:
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if " | " in line:
                if not newest_attached:
                    raise ProgramError(
                        "missing-attach", f"node {intro.node!r} was never attached", number
                    )
                if intro is not None:
                    actions.append((intro, tuple(attaches)))  # the previous action is done
                left, color_name = map(str.strip, line.split(" | ", 1))
                tokens = left.split()
                if len(tokens) < 2 or not color_name:
                    raise ProgramError(
                        "malformed-line", "intro needs '<id> <part name> | <color>'", number
                    )
                node_id = tokens[0]
                expected = letter_id(len(introduced))
                if node_id != expected:
                    raise ProgramError(
                        "bad-node-id", f"expected node id {expected!r}, got {node_id!r}", number
                    )
                part_name = " ".join(tokens[1:])
                part = parts.get(part_name, _UNSEEN)
                if part is _UNSEEN:
                    part = parts[part_name] = catalog.part_by_name(part_name)
                if part is None:
                    raise ProgramError(
                        "unknown-part", f"part name {part_name!r} not in catalog", number
                    )
                color = colors.get(color_name, _UNSEEN)
                if color is _UNSEEN:
                    known = catalog.has_color_name(color_name)
                    color = colors[color_name] = color_name.lower() if known else None
                if color is None:
                    raise ProgramError(
                        "unknown-color", f"color {color_name!r} not registered", number
                    )
                newest_attached = not introduced  # root completes at its intro
                introduced[node_id] = newest_part = part
                intro = PartIntro(node_id, part.part_id, part.name, color, number)
                attaches = []
            else:
                if intro is None:
                    raise ProgramError(
                        "unexpected-attach", "attach before any part introduction", number
                    )
                tokens = line.split()
                if len(tokens) < 6:
                    raise ProgramError("malformed-line", "attach needs at least 6 tokens", number)
                target_id, family_name, sub_t, idx_t, sub_n, idx_n = tokens[:6]
                key = (family_name, sub_t, sub_n)
                family = families.get(key)
                if family is None:
                    family = families[key] = _attach_family(family_name, sub_t, sub_n, rules)
                if type(family) is tuple:
                    raise ProgramError(*family, number)
                key = (family_name, *tokens[6:])
                params = params_of.get(key)
                if params is None:
                    params = params_of[key] = _parse_params(family, tokens[6:])
                if type(params) is tuple:
                    raise ProgramError(*params, number)
                if target_id == intro.node:
                    raise ProgramError(
                        "self-attach", "attach targets the node it introduces", number
                    )
                target_part = introduced.get(target_id)
                if target_part is None:
                    raise ProgramError(
                        "target-not-introduced",
                        f"target node {target_id!r} not introduced yet",
                        number,
                    )
                connectors = []  # the target's, then the new part's
                for part, sub, idx, role in (
                    (target_part, sub_t, idx_t, "target"),
                    (newest_part, sub_n, idx_n, "new"),
                ):
                    connector = part.connectors_by_index.get(idx)
                    if connector is None:
                        raise ProgramError(
                            "unknown-connector",
                            f"part {part.name!r} has no connector {idx!r} ({role})",
                            number,
                        )
                    if connector.subtype != sub:
                        raise ProgramError(
                            "subtype-mismatch",
                            f"connector {idx!r} of {part.name!r} is {connector.subtype!r}, "
                            f"not {sub!r}",
                            number,
                        )
                    connectors.append(connector)
                attaches.append(Attach(target_id, family, *connectors, params, line=number))
                newest_attached = True
        if not newest_attached:
            raise ProgramError(
                "missing-attach", f"node {intro.node!r} was never attached", intro.line
            )
        if intro is not None:
            actions.append((intro, tuple(attaches)))
    except ProgramError as exc:
        if strict:
            raise
        return ParseResult(tuple(actions), ProgramDiagnosis(exc.line or 0, exc.code, str(exc)))
    return ParseResult(tuple(actions), None)


# ---------------------------------------------------------------------------
# Execution


def _placements(actions):
    """Place the parsed actions, yielding ``(intro, place)`` for each action
    once its attaches have claimed their connectors. ``place()`` returns the
    node's pose:
    the root lands at the identity, every other node at its first attach.
    Further attaches on the same node only claim connectors.

    The parser has checked every other rule, so the one check left here is
    'connector-occupied' (reusing a single-accept connector), which raises
    ProgramError at the reusing attach. A pose is computed on the first
    ``place()`` and then kept. It is built from its target's pose, so callers
    must place in order: each placement they read needs every earlier one
    placed first (``execute`` places all, ``validate_prefix`` the
    collision-checked prefix).
    """
    poses: dict[str, RigidTransform] = {}
    consumed: set[tuple[str, str]] = set()
    is_multi_accept = default_rules().is_multi_accept

    def place(node: str, attach: Attach | None) -> RigidTransform:
        if node not in poses:
            poses[node] = RigidTransform.identity() if attach is None else attach_pose(
                poses[attach.target],
                attach.target_connector.frame,
                attach.new_connector.frame,
                attach.family,
                attach.params,
            )
        return poses[node]

    for intro, attaches in actions:
        for attach in attaches:
            for node, connector in (
                (attach.target, attach.target_connector),
                (intro.node, attach.new_connector),
            ):
                key = (node, connector.index)
                if key in consumed and not is_multi_accept(connector.subtype):
                    raise ProgramError(
                        "connector-occupied",
                        f"connector {connector.index!r} of node {node!r} reused",
                        attach.line,
                    )
                consumed.add(key)
        yield intro, partial(place, intro.node, attaches[0] if attaches else None)


def execute(text: str, catalog: Catalog) -> dict[str, RigidTransform]:
    """Run program text: the root lands at the identity and every attached
    node's pose satisfies its attach instruction exactly. The first invalid
    line raises ProgramError (the parser's codes, or 'connector-occupied')."""
    actions = parse_program(text, catalog, strict=True).actions
    return {intro.node: place() for intro, place in _placements(actions)}


# ---------------------------------------------------------------------------
# Prefix validation


def validate_prefix(text: str, catalog: Catalog, part_meshes=None) -> ValidityReport:
    """Longest valid action prefix of program text.

    connectivity_steps counts actions that parse and execute (the root intro
    is action 1); collision_steps additionally requires each placement to be
    collision-free against everything placed before it, with the meshes of
    ``part_meshes`` (part id -> CollisionMesh). Without it the two counts
    coincide and no pose is computed. With it, poses are computed in
    placement order up to the first collision, and none after it.
    """
    result = parse_program(text, catalog, strict=False)
    diagnoses = [result.error] if result.error else []
    part_meshes = part_meshes or {}
    checker = AssemblyChecker()
    connectivity = 0
    collision = 0
    try:
        for intro, place in _placements(result.actions):
            connectivity += 1
            if collision < connectivity - 1:
                continue  # an earlier placement collided
            if part_meshes:
                pose = place()  # even without a mesh: a later part may attach to it
                mesh = part_meshes.get(intro.part_id)
                if mesh is not None and checker.add(mesh, pose) is not None:
                    diagnoses.append(
                        ProgramDiagnosis(
                            intro.line, "collision", f"placement of {intro.node!r} collides"
                        )
                    )
                    continue
            collision = connectivity
    except ProgramError as exc:
        diagnoses.append(ProgramDiagnosis(exc.line or 0, exc.code, str(exc)))

    first_error = min(diagnoses, key=lambda d: d.line, default=None)
    return ValidityReport(connectivity, collision, first_error)
