"""Typed connector taxonomy, pairing rules and per-part annotation.

Five connection families are modeled (stud, hinge, axle, ball, fixed), each
with a fixed DOF signature. Subtypes and their pairing table are data-driven
(data/connector_rules.json) so hinge in/on variants can be extended without
code changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import AnnotationError
from .geometry import ConnectorFrame

# Longest axle length a catalog may declare, in LDU (50 studs, longer than any
# part): the matcher's spatial hash pads a connector's box by half of it on
# every side, so its cell walk grows with the cube of the length.
AXLE_LENGTH_MAX = 1000.0


class ConnectorFamily(str, Enum):
    STUD = "stud"
    HINGE = "hinge"
    AXLE = "axle"
    BALL = "ball"
    FIXED = "fixed"


@dataclass(frozen=True)
class DofSpec:
    rotational_dof: int
    has_flip: bool
    has_slide: bool


DOF_SPECS = {
    ConnectorFamily.STUD: DofSpec(1, False, False),
    ConnectorFamily.HINGE: DofSpec(1, True, False),
    ConnectorFamily.AXLE: DofSpec(1, True, True),
    ConnectorFamily.BALL: DofSpec(3, False, False),
    ConnectorFamily.FIXED: DofSpec(0, False, False),
}


def dof_spec(family: ConnectorFamily) -> DofSpec:
    return DOF_SPECS[family]  # a member or its value: a str enum hashes as its value


def letter_id(n: int) -> str:
    """Index n (0-based) as a lowercase letter id: a..z, aa, ab, ..."""
    if n < 0:
        raise ValueError("negative index")
    out = []
    n += 1
    while n > 0:
        n, rem = divmod(n - 1, 26)
        out.append(chr(ord("a") + rem))
    return "".join(reversed(out))


def letter_index(s: str) -> int:
    """Inverse of letter_id."""
    if not s or any(not ("a" <= c <= "z") for c in s):
        raise ValueError(f"invalid letter id {s!r}")
    n = 0
    for c in s:
        n = n * 26 + (ord(c) - ord("a") + 1)
    return n - 1


class ConnectorRules:
    """Registered subtypes, their families, pairing table and accept limits."""

    def __init__(self, subtype_family, pairs, multi_accept):
        self.subtype_family = dict(subtype_family)
        self.pairs = {frozenset(p) for p in pairs}
        self.multi_accept = set(multi_accept)
        for pair in self.pairs:
            for s in pair:
                if s not in self.subtype_family:
                    raise AnnotationError(f"pair references unregistered subtype {s!r}")
            fams = {self.subtype_family[s] for s in pair}
            if len(fams) != 1:
                raise AnnotationError(f"pair {sorted(pair)} crosses families")

    @classmethod
    def from_json_obj(cls, obj) -> "ConnectorRules":
        subtype_family = {}
        multi = set()
        for name, entry in obj["subtypes"].items():
            subtype_family[name] = ConnectorFamily(entry["family"])
            if entry.get("multi_accept"):
                multi.add(name)
        return cls(subtype_family, obj["pairs"], multi)

    def is_registered(self, subtype: str) -> bool:
        return subtype in self.subtype_family

    def family_of(self, subtype: str) -> ConnectorFamily:
        try:
            return self.subtype_family[subtype]
        except KeyError:
            raise AnnotationError(f"unregistered connector subtype {subtype!r}") from None

    def compatible(self, a: str, b: str) -> bool:
        """True iff the two subtypes may pair. Symmetric; unregistered names
        never pair."""
        if a == b:
            return False
        return frozenset((a, b)) in self.pairs

    def is_multi_accept(self, subtype: str) -> bool:
        return subtype in self.multi_accept


@lru_cache(maxsize=1)
def default_rules() -> ConnectorRules:
    """The shipped subtype and pairing table (data/connector_rules.json)."""
    text = resources.files("brickir.data").joinpath("connector_rules.json").read_text()
    return ConnectorRules.from_json_obj(json.loads(text))


@lru_cache(maxsize=1)
def default_primitive_table() -> dict:
    """The shipped connector-primitive table (data/primitives.json)."""
    text = resources.files("brickir.data").joinpath("primitives.json").read_text()
    return json.loads(text)["primitives"]


@dataclass(frozen=True)
class AnnotatedConnector:
    """One attachment site of a part, in the part's local frame."""

    index: str
    family: ConnectorFamily
    subtype: str
    frame: ConnectorFrame
    axle_length: float | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "index": self.index,
            "family": self.family.value,
            "subtype": self.subtype,
            "origin": [float(v) for v in self.frame.origin],
            "principal_axis": [float(v) for v in self.frame.principal_axis],
            "reference_axis": [float(v) for v in self.frame.reference_axis],
        }
        if self.axle_length is not None:
            obj["axle_length"] = float(self.axle_length)
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "AnnotatedConnector":
        """A connector from its JSON object; the index is read as given (the
        catalog checks it)."""
        subtype = obj["subtype"]
        family = _site_family(subtype, obj)
        frame = ConnectorFrame(
            np.array(obj["origin"], dtype=np.float64),
            np.array(obj["principal_axis"], dtype=np.float64),
            np.array(obj["reference_axis"], dtype=np.float64),
        )
        length = obj.get("axle_length")
        if length is not None and not (
            isinstance(length, (int, float))
            and not isinstance(length, bool)
            and 0.0 <= length <= AXLE_LENGTH_MAX
        ):
            raise ValueError(
                f"axle_length must be a number in [0, {AXLE_LENGTH_MAX:g}], got {length!r}"
            )
        return cls(obj.get("index"), family, subtype, frame, length)


def _site_family(subtype: str, obj) -> ConnectorFamily:
    """The family of a registered subtype. A ``family`` key in ``obj`` is
    parsed first and must name that family; an unregistered subtype raises
    AnnotationError."""
    declared = ConnectorFamily(obj["family"]) if "family" in obj else None
    family = default_rules().family_of(subtype)
    if declared not in (None, family):
        raise AnnotationError(f"subtype {subtype!r} is not in family {declared.value!r}")
    return family


def _site_key(site):
    """Sort key of a ``(family, subtype, frame, axle_length)`` site: local
    origin x -> y -> z, then family, subtype and axes."""
    family, subtype, frame, _ = site
    return (
        round(float(frame.origin[0]), 9),
        round(float(frame.origin[1]), 9),
        round(float(frame.origin[2]), 9),
        family.value,
        subtype,
        tuple(round(float(v), 9) for v in frame.principal_axis),
        tuple(round(float(v), 9) for v in frame.reference_axis),
    )


def index_sites(part_id: str, sites) -> tuple[AnnotatedConnector, ...]:
    """A part's connectors with their canonical indices: the
    ``(family, subtype, frame, axle_length)`` sites sorted by ``_site_key``
    get the letter ids a, b, ... Two sites with the same frame raise
    AnnotationError."""
    sites = sorted(sites, key=_site_key)
    by_origin: dict[tuple, list] = {}
    for site in sites:
        key = tuple(round(float(v), 9) for v in site[2].origin)
        group = by_origin.setdefault(key, [])
        for other in group:
            if other[2].is_close(site[2], tol=1e-9):
                raise AnnotationError(f"{part_id}: duplicate connector site at {key}")
        group.append(site)
    return tuple(
        AnnotatedConnector(letter_id(i), family, subtype, frame, length)
        for i, (family, subtype, frame, length) in enumerate(sites)
    )


def annotate_part(part_id: str, primitive_refs) -> tuple[AnnotatedConnector, ...]:
    """Derive the typed connector list of one part from the primitive scan,
    with canonical indices (``index_sites``)."""
    rules = default_rules()
    primitive_table = default_primitive_table()

    sites = []  # (family, subtype, frame, axle_length)
    for ref in primitive_refs:
        entry = primitive_table.get(ref.primitive_name)
        if entry is None:
            raise AnnotationError(
                f"{part_id}: primitive {ref.primitive_name!r} not in connector table"
            )
        subtype = entry["subtype"]
        family = rules.family_of(subtype)
        local = ConnectorFrame(
            np.array(entry.get("origin", (0.0, 0.0, 0.0)), dtype=np.float64),
            np.array(entry["principal_axis"], dtype=np.float64),
            np.array(entry["reference_axis"], dtype=np.float64),
        )
        frame = local.transformed(ref.transform)
        length = None
        if "base_length" in entry:
            length = float(entry["base_length"])
            if entry.get("scale_mode") == "axial":  # the scale along the principal axis
                length *= ref.scale[int(np.argmax(np.abs(entry["principal_axis"])))]
        sites.append((family, subtype, frame, length))
    return index_sites(part_id, sites)
