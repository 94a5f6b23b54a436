import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickir.connectors import (
    AnnotatedConnector,
    ConnectorFamily,
    annotate_part,
    default_primitive_table,
)
from brickir.geometry import (
    AXIS_LIMIT,
    ORTHONORMAL_TOL,
    ConnectorFrame,
    QuantizedParams,
    RigidTransform,
    compose,
    frame_rotation,
    mat_mul,
    mat_t_mul,
    mat_t_vec,
    mat_vec,
    mat_vec_add,
    norm,
    orthonormal,
    place_frame,
    quantize_angle,
    quantize_slide,
    relative,
    unit_axes,
)
from brickir.graph import attach_pose
from brickir.ldraw import parse_structure, read_lines, walk_part

from conftest import (
    frame_from_transform,
    frame_transform,
    frames_close,
    is_close,
    orthonormality_error,
    random_rigid,
    random_rotation,
    rotation_about_axis,
)
from oracles import reference_rigid_check


def test_compose_identity():
    rng = np.random.default_rng(0)
    t = random_rigid(rng)
    assert is_close(compose(RigidTransform.identity(), t), t)
    assert is_close(compose(t, RigidTransform.identity()), t)


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(1)
    t = random_rigid(rng)
    assert is_close(compose(t, t.inverse()), RigidTransform.identity(), tol=1e-9)


def test_chain_of_90_degree_rotations_matches_integer_oracle():
    # 90-degree axis rotations are exact integer matrices: multiply them with
    # integer arithmetic as the oracle.
    rng = np.random.default_rng(2)
    axes = [np.array(a) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    acc = RigidTransform.identity()
    oracle = np.eye(3, dtype=np.int64)
    for _ in range(100):
        k = int(rng.integers(3))
        quarter = int(rng.integers(4))
        r = rotation_about_axis(axes[k], 90.0 * quarter)
        acc = compose(acc, RigidTransform(r, np.zeros(3)))
        oracle = oracle @ np.rint(r).astype(np.int64)
    assert np.abs(acc.rotation - oracle).max() <= 1e-6


def test_relative_trivial():
    rng = np.random.default_rng(3)
    t = random_rigid(rng)
    assert is_close(relative(t, t), RigidTransform.identity())
    assert is_close(relative(RigidTransform.identity(), t), t)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_relative_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    a = random_rigid(rng)
    b = random_rigid(rng)
    assert is_close(compose(a, relative(a, b)), b, tol=1e-9)


def test_roundtrip_error_over_1000_composed_steps():
    rng = np.random.default_rng(4)
    steps = [random_rigid(rng, scale=10.0) for _ in range(1000)]
    acc = RigidTransform.identity()
    for s in steps:
        acc = compose(acc, s)
    back = acc
    for s in reversed(steps):
        back = compose(back, s.inverse())
    assert is_close(back, RigidTransform.identity(), tol=1e-6)


def test_rotation_drift_4096_quantized_compositions():
    rng = np.random.default_rng(5)
    axes = [np.array(a, dtype=float) for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    acc = RigidTransform.identity()
    for _ in range(4096):
        axis = axes[int(rng.integers(3))]
        deg = float(rng.integers(0, 360))
        acc = compose(acc, RigidTransform(rotation_about_axis(axis, deg), np.zeros(3)))
    assert orthonormality_error(acc.rotation) <= 1e-6


def test_nonpositive_determinant_rejected():
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


@pytest.mark.parametrize(
    "theta,expected",
    [(89.6, 90), (359.7, 0), (-0.4, 0), (0.5, 1), (179.5, 180), (359.5, 0), (-0.5, 0), (360.0, 0)],
)
def test_quantize_angle_cases(theta, expected):
    assert quantize_angle(theta) == expected


@pytest.mark.parametrize("s,expected", [(3.4, 3), (3.5, 4), (0.0, 0), (-3.4, -3), (-3.5, -3)])
def test_quantize_slide_cases(s, expected):
    assert quantize_slide(s) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quantize_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        quantize_angle(bad)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_slide(bad)


def test_slide_bound_is_half_the_exact_float_range():
    # every integer up to 2**53 converts to float64 exactly; a slide up to
    # 2**52 leaves room for part-local offsets below it, and past ~1.8e308
    # float() overflows
    for ok in (2**52, -(2**52), 0):
        assert float(QuantizedParams(slide_ldu=ok).slide_ldu) == ok
    for bad in (2**52 + 1, -(2**52) - 1, 2**53, 10**400, -(10**400)):
        with pytest.raises(ValueError, match="slide out of range"):
            QuantizedParams(slide_ldu=bad)


@given(st.integers(-10_000, 10_000))
def test_quantize_angle_idempotent_on_integers(n):
    assert quantize_angle(float(n)) == n % 360
    assert quantize_angle(float(quantize_angle(float(n)))) == quantize_angle(float(n))


@given(
    # stay clear of .5 tie boundaries, where the float sum x + 360k can land
    # on the other side of the tie than x itself
    st.floats(-720.0, 720.0).filter(lambda x: abs((x % 1.0) - 0.5) > 1e-6),
    st.integers(-5, 5),
)
def test_quantize_angle_periodic(x, k):
    assert quantize_angle(x + 360.0 * k) == quantize_angle(x)


def test_connector_frame_invariants_enforced():
    f = ConnectorFrame(
        np.array([1.0, 2.0, 3.0]),
        np.array([0.0, 0.0, 2.0]),  # non-unit: normalized on construction
        np.array([1.0, 0.0, 0.3]),  # not perpendicular: projected
    )
    assert abs(np.linalg.norm(f.principal_axis) - 1.0) <= 1e-9
    assert abs(np.linalg.norm(f.reference_axis) - 1.0) <= 1e-9
    assert abs(np.dot(f.principal_axis, f.reference_axis)) <= 1e-9


def test_connector_frame_rejects_parallel_reference():
    with pytest.raises(ValueError):
        ConnectorFrame(np.zeros(3), np.array([0.0, 1.0, 0.0]), np.array([0.0, 2.0, 0.0]))


def test_connector_frame_transform_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = random_rigid(rng)
        f = frame_from_transform(t)
        assert is_close(frame_transform(f), t, tol=1e-9)
        moved = f.transformed(t)
        back = moved.transformed(t.inverse())
        assert frames_close(back, f, tol=1e-9)


def test_place_frame_equals_the_transformed_frame():
    # placing a part-local frame on a pose gives, bit for bit, the transform
    # of the frame that ConnectorFrame.transformed moves there
    rng = np.random.default_rng(19)
    for _ in range(500):
        pose = random_rigid(rng, scale=1e4)
        frame = ConnectorFrame(rng.normal(size=3) * 50, rng.normal(size=3), rng.normal(size=3))
        rotation, origin = place_frame(pose.rotation, pose.translation, frame)
        want = frame_transform(frame.transformed(pose))
        assert (rotation, origin) == (want.rotation, want.translation)


def _float_triple(v) -> bool:
    return type(v) is tuple and len(v) == 3 and all(type(x) is float for x in v)


def _holds_float_tuples(obj) -> bool:
    """Whether a transform's rotation is three rows and its translation one
    3-tuple, or a frame's origin and axes are 3-tuples, all of Python floats
    (not numpy scalars)."""
    if isinstance(obj, RigidTransform):
        rows = obj.rotation
        return type(rows) is tuple and len(rows) == 3 and all(
            map(_float_triple, (*rows, obj.translation)))
    return all(map(_float_triple, (obj.origin, obj.principal_axis, obj.reference_axis)))


def test_every_route_gives_float_tuples_that_compare_and_hash_by_value():
    rng = np.random.default_rng(29)
    a, b = random_rigid(rng), random_rigid(rng)
    drifted = random_rotation(rng) + 1e-6  # past ORTHONORMAL_TOL, within SCALE_TOL
    repaired = RigidTransform(drifted, np.zeros(3))
    assert repaired.rotation != tuple(map(tuple, drifted.tolist()))
    (placed,) = parse_structure("1 4 1 2 3 0 0 1 0 1 0 -1 0 0 3001.dat\n", {"3001"})
    frame = ConnectorFrame(np.array([1.0, 2.0, 3.0]), np.array([0, -2, 0]), [1, 0, 0])
    poses = [
        RigidTransform.identity(),
        RigidTransform.from_json_obj(a.to_json_obj()),
        placed.pose,
        compose(a, b),
        relative(a, b),
        a.inverse(),
        repaired,
        attach_pose(a, frame, frame, ConnectorFamily.STUD, QuantizedParams(yaw_deg=90)),
    ]
    assert all(map(_holds_float_tuples, poses))
    loaded = AnnotatedConnector.from_json_obj(
        {"subtype": "stud", "origin": [1, 2, 3], "principal_axis": [0, -1, 0],
         "reference_axis": [1, 0, 0]}
    )
    refs, _ = walk_part(
        read_lines("1 16 0 -4 0 1 0 0 0 1 0 0 0 1 stud.dat\n"),
        {"stud.dat": read_lines("0\n")},
        default_primitive_table(),
    )
    (scanned,) = annotate_part("p", refs)
    frames = [frame, frame.transformed(a), loaded.frame, scanned.frame]
    assert all(map(_holds_float_tuples, frames))
    # the same numbers, passed as arrays, lists or tuples: equal, hashed alike
    twin = RigidTransform(np.array(a.rotation), list(a.translation))
    assert twin == a and hash(twin) == hash(a) and a != b
    assert RigidTransform.identity() == RigidTransform.identity()
    assert hash(RigidTransform.identity()) == hash(RigidTransform.identity())
    assert loaded.frame == frame and hash(loaded.frame) == hash(frame)
    assert len({*poses, *poses, twin}) == len(poses)


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["rotation", "reflection", "scaled", "huge", "bad_r", "bad_t"]),
    exponent=st.floats(-12.0, -6.0),
)
def test_rigid_transform_check_matches_reference(seed, kind, exponent):
    """The one-route check (finite, triple-product determinant, repair only
    past 1e-9) raises the same error as the plain reference check, or stores
    bit-identical numbers."""
    rng = np.random.default_rng(seed)
    r = random_rotation(rng) + rng.standard_normal((3, 3)) * 10.0**exponent
    t = rng.uniform(-100.0, 100.0, 3)
    bad = rng.choice([np.nan, np.inf, -np.inf])
    if kind == "reflection":
        r = r @ np.diag([1.0, 1.0, -1.0])
    elif kind == "scaled":
        r = r * rng.choice([1.0 + 10.0**exponent, 1.0 - 10.0**exponent, rng.uniform(0.1, 10.0)])
    elif kind == "huge":
        r = r * 10.0 ** rng.uniform(150.0, 300.0)
    elif kind == "bad_r":
        r[rng.integers(3), rng.integers(3)] = bad
    elif kind == "bad_t":
        t[rng.integers(3)] = bad
    with np.errstate(over="ignore", invalid="ignore"):  # "huge" overflows in both
        try:
            want_r, want_t = reference_rigid_check(r.copy(), t.copy())
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                RigidTransform(r.copy(), t.copy())
            assert str(got.value) == str(exc)
            return
        got = RigidTransform(r.copy(), t.copy())
    assert np.array(got.rotation).tobytes() == want_r.tobytes()
    assert np.array(got.translation).tobytes() == want_t.tobytes()


# Entries of every size the pose path can meet: unit-scale, up to AXIS_LIMIT
# (whose products reach 1e300), and past it, where products overflow to inf
# and inf - inf is nan. Each entry is a normal draw times one of these scales.
_SCALES = np.array([1.0, 1e-3, 1e3, AXIS_LIMIT, 1e155, 1e200, 1e307])


def _draws(rng, shape):
    return rng.standard_normal(shape) * rng.choice(_SCALES, size=shape)


def _same_bits(got, want) -> bool:
    return np.array(got, dtype=np.float64).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernel_equals_the_ufunc_expressions_bit_for_bit(seed):
    # each scalar product is the numpy element-wise expression in the same
    # operation order, so no BLAS kernel and no fused multiply-add decides a bit
    rng = np.random.default_rng(seed)
    a, b, v, w = _draws(rng, (3, 3)), _draws(rng, (3, 3)), _draws(rng, 3), _draws(rng, 3)
    rows = tuple(map(tuple, a.tolist()))
    other = tuple(map(tuple, b.tolist()))
    x, y = tuple(v.tolist()), tuple(w.tolist())
    with np.errstate(all="ignore"):
        want = a[:, :1] * b[0] + a[:, 1:2] * b[1] + a[:, 2:] * b[2]
        assert _same_bits(mat_mul(rows, other), want)
        assert _same_bits(mat_t_mul(rows, other),
                          a[0][:, None] * b[0] + a[1][:, None] * b[1] + a[2][:, None] * b[2])
        assert _same_bits(mat_vec(rows, x), a[:, 0] * v[0] + a[:, 1] * v[1] + a[:, 2] * v[2])
        assert _same_bits(mat_vec_add(rows, x, y),
                          a[:, 0] * v[0] + a[:, 1] * v[1] + a[:, 2] * v[2] + w)
        assert _same_bits(mat_t_vec(rows, x), a[0] * v[0] + a[1] * v[1] + a[2] * v[2])
        assert _same_bits(norm(x), np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
        z0, z1, z2 = v
        x0, x1, x2 = w
        assert _same_bits(frame_rotation(x, y), np.array([
            [x0, z1 * x2 - z2 * x1, z0], [x1, z2 * x0 - z0 * x2, z1], [x2, z0 * x1 - z1 * x0, z2]]))
        gram = a[0][:, None] * a[0] + a[1][:, None] * a[1] + a[2][:, None] * a[2]
        assert orthonormal(rows) == bool((np.abs(gram - np.eye(3)) <= ORTHONORMAL_TOL).all())
        pn = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        p = v / pn
        r = w - (w[0] * p[0] + w[1] * p[1] + w[2] * p[2]) * p
        rn = np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2])
        try:
            got = unit_axes(x, y)
        except ValueError:
            assert pn < 1e-9 or rn < 1e-9
        else:
            assert not (pn < 1e-9 or rn < 1e-9)
            assert _same_bits(got, [p, r / rn])
