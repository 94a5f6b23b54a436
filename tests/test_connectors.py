import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickir.connectors import (
    AnnotatedConnector,
    ConnectorFamily,
    annotate_part,
    default_rules,
    dof_spec,
    index_sites,
    letter_id,
    letter_index,
)
from brickir.errors import AnnotationError
from brickir.geometry import IDENTITY_ROWS, ConnectorFrame

RULES = default_rules()
SUBTYPES = sorted(RULES.subtype_family)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("stud", "hole", True),
        ("stud", "tube", True),
        ("open_stud", "hole", True),
        ("open_stud", "tube", True),
        ("stud", "post", False),
        ("open_stud", "post", True),
        ("pin", "pin_socket", True),
        ("pin", "axle_socket", False),
        ("axle", "pin_socket", True),
        ("axle", "axle_socket", True),
        ("clip", "bar", True),
        ("towball", "towball_socket", True),
        ("technic_ball", "technic_socket", True),
        ("towball", "technic_socket", False),
        ("in", "on", True),
        ("stud", "stud", False),
        ("hole", "tube", False),
        ("hinge_finger_in", "hinge_finger_on", True),
        ("hinge_finger_in", "hinge_click_on", False),
    ],
)
def test_compatibility_table(a, b, expected):
    assert RULES.compatible(a, b) is expected
    assert RULES.compatible(b, a) is expected


@given(st.sampled_from(SUBTYPES), st.sampled_from(SUBTYPES))
def test_compatible_symmetric(a, b):
    assert RULES.compatible(a, b) == RULES.compatible(b, a)


@given(st.sampled_from(SUBTYPES))
def test_compatible_irreflexive(s):
    assert not RULES.compatible(s, s)


def test_stud_family_pairs_exactly_the_modeled_ones():
    # No entry models the non-standard tube-between-four-studs nesting: the
    # stud-family table is exactly the five documented pairings.
    stud_subtypes = [s for s in SUBTYPES if RULES.family_of(s) == ConnectorFamily.STUD]
    found = {
        frozenset((a, b))
        for a in stud_subtypes
        for b in stud_subtypes
        if RULES.compatible(a, b)
    }
    assert found == {
        frozenset(("stud", "hole")),
        frozenset(("stud", "tube")),
        frozenset(("open_stud", "hole")),
        frozenset(("open_stud", "tube")),
        frozenset(("open_stud", "post")),
    }


def test_pairs_never_cross_families():
    for pair in RULES.pairs:
        fams = {RULES.family_of(s) for s in pair}
        assert len(fams) == 1


@pytest.mark.parametrize(
    "family,expected",
    [
        (ConnectorFamily.STUD, (1, False, False)),
        (ConnectorFamily.HINGE, (1, True, False)),
        (ConnectorFamily.AXLE, (1, True, True)),
        (ConnectorFamily.BALL, (3, False, False)),
        (ConnectorFamily.FIXED, (0, False, False)),
    ],
)
def test_dof_spec_table(family, expected):
    spec = dof_spec(family)
    assert (spec.rotational_dof, spec.has_flip, spec.has_slide) == expected


def test_letter_ids():
    assert [letter_id(i) for i in (0, 1, 25, 26, 27, 51, 52)] == [
        "a", "b", "z", "aa", "ab", "az", "ba",
    ]
    for i in range(200):
        assert letter_index(letter_id(i)) == i
    with pytest.raises(ValueError):
        letter_index("A1")


def _stud_ref(x, y, z):
    """A stud.dat reference as ``ldraw.walk_part`` gives it."""
    return "stud.dat", 1, IDENTITY_ROWS, (float(x), float(y), float(z))


def test_annotate_two_studs():
    conns = annotate_part("p", [_stud_ref(10, 0, 0), _stud_ref(-10, 0, 0)])
    assert [c.index for c in conns] == ["a", "b"]
    assert all(c.family == ConnectorFamily.STUD and c.subtype == "stud" for c in conns)
    # canonical order: sorted by local coordinates x -> y -> z
    assert conns[0].frame.origin[0] == -10
    assert conns[1].frame.origin[0] == 10


def test_index_sites_orders_by_origin_then_family_and_subtype():
    up, x = np.array([0.0, -1.0, 0.0]), np.array([1.0, 0.0, 0.0])

    def site(subtype, origin, axis=up):
        frame = ConnectorFrame(np.array(origin, float), axis, x)
        return (RULES.family_of(subtype), subtype, frame, None)

    sites = [
        site("stud", (0, 8, 0)),
        site("hole", (0, 0, 0), -up),
        site("axle_socket", (0, 0, 0), np.array([0.0, 0.0, 1.0])),
        site("stud", (0, 0, 0)),
        site("stud", (-10, 8, 0)),
    ]
    assert [(c.index, c.subtype, list(c.frame.origin)) for c in index_sites("p", sites)] == [
        ("a", "stud", [-10, 8, 0]),
        ("b", "axle_socket", [0, 0, 0]),  # same origin: by family, then subtype
        ("c", "hole", [0, 0, 0]),
        ("d", "stud", [0, 0, 0]),
        ("e", "stud", [0, 8, 0]),
    ]


_JSON_SITE = {"index": "a", "origin": [0, 4, 0], "principal_axis": [0, 1, 0],
              "reference_axis": [1, 0, 0]}


@pytest.mark.parametrize("obj,message", [
    ({**_JSON_SITE, "family": "stud", "subtype": "no-such-subtype"},
     "unregistered connector subtype 'no-such-subtype'"),
    ({**_JSON_SITE, "family": "axle", "subtype": "hole"}, "subtype 'hole' is not in family 'axle'"),
], ids=["unregistered", "other-family"])
def test_connector_json_family_comes_from_the_subtype(obj, message):
    # an explicit family must name the registered subtype's family
    with pytest.raises(AnnotationError) as exc:
        AnnotatedConnector.from_json_obj(obj)
    assert str(exc.value) == message


def test_annotate_duplicate_site_errors():
    with pytest.raises(AnnotationError, match="duplicate"):
        annotate_part("p", [_stud_ref(0, 0, 0), _stud_ref(0, 0, 0)])


def test_annotation_determinism():
    refs = [_stud_ref(x, y, 0) for x in (10, -10) for y in (0, 8)]
    a = annotate_part("p", refs)
    b = annotate_part("p", refs[::-1])
    dump_a = json.dumps([c.to_json_obj() for c in a], sort_keys=True)
    dump_b = json.dumps([c.to_json_obj() for c in b], sort_keys=True)
    assert dump_a == dump_b
    assert len({c.index for c in a}) == len(a)
