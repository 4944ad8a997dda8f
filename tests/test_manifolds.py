import numpy as np
import pytest

from lsnav import manifolds as mf
from lsnav.constraints import torus_of_revolution_field
from lsnav.errors import (
    BadLength,
    InvalidDirection,
    NotTangent,
    OddLength,
    SingularInput,
    WrongSpec,
)
from lsnav.manifolds import (
    Ellipsoid,
    Euclidean,
    ImplicitHypersurface,
    PointOnM,
    ProductSpheres,
    Sphere,
    StiefelV2,
    mult_i,
    mult_j,
    project_to_manifold,
    random_points,
    spec_from_json,
    spec_to_json,
    tangent_project,
)
from lsnav.paths import geodesic_to_antipode

ALL_SPECS = [
    Sphere(1),
    Sphere(2),
    ProductSpheres((1, 3)),
    Ellipsoid((1.0, 2.0, 3.0)),
    ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25),
    StiefelV2(4),
]


def test_project_sphere_normalizes():
    p = project_to_manifold(Sphere(2), [3.0, 4.0, 0.0])
    assert np.allclose(p.coords, [0.6, 0.8, 0.0])


def test_project_stiefel_orthonormal_unchanged():
    x = np.zeros(8)
    x[0] = 1.0
    x[5] = 1.0
    p = project_to_manifold(StiefelV2(4), x)
    assert np.allclose(p.coords, x, atol=1e-14)


def test_project_ellipsoid_newton():
    spec = Ellipsoid((1.0, 2.0, 3.0))
    ambient = np.array([2.0, 0.0, 0.0])
    p = project_to_manifold(spec, ambient)
    assert np.allclose(p.coords, [1.0, 0.0, 0.0], atol=1e-10)
    assert abs(spec.field.value(p.coords) - 1.0) <= 1e-12
    # displacement along the projection path is parallel to grad g at the foot
    g = spec.field.grad(p.coords)
    disp = ambient - p.coords
    perp = disp - np.dot(disp, g) / np.dot(g, g) * g
    assert np.linalg.norm(perp) < 1e-10


def test_project_singular_inputs():
    with pytest.raises(SingularInput):
        project_to_manifold(Sphere(2), [0.0, 0.0, 0.0])
    with pytest.raises(SingularInput):
        # rank-deficient frame: both columns equal
        x = np.concatenate([np.eye(4)[0], np.eye(4)[0]])
        project_to_manifold(StiefelV2(4), x)


def test_projection_validity_random():
    rng = np.random.default_rng(0)
    for spec in ALL_SPECS:
        raw = 3.0 * rng.standard_normal((200, spec.ambient_dim))
        if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
            raw = random_points(spec, 200, rng) + 0.3 * rng.standard_normal(
                (200, spec.ambient_dim)
            )
        pts = mf.project_points(spec, raw)
        assert np.max(mf.constraint_residual(spec, pts)) <= 1e-9


def test_tangent_project_examples():
    e1 = np.array([1.0, 0.0])
    p = PointOnM(e1, Sphere(1))
    assert np.allclose(tangent_project(p, [1.0, 1.0]).vec, [0.0, 1.0])
    assert np.allclose(tangent_project(p, [1.0, 0.0]).vec, [0.0, 0.0])


def test_tangent_project_idempotent_and_self_adjoint():
    rng = np.random.default_rng(1)
    for spec in ALL_SPECS:
        pts = random_points(spec, 1000, rng)
        w = rng.standard_normal(pts.shape)
        once = mf.project_tangent(spec, pts, w)
        twice = mf.project_tangent(spec, pts, once)
        assert np.max(np.abs(twice - once)) <= 1e-12
        assert np.max(mf.tangency_residual(spec, pts, once)) <= 1e-9
        w2 = rng.standard_normal(pts.shape)
        pw2 = mf.project_tangent(spec, pts, w2)
        lhs = np.sum(once * w2, axis=-1)
        rhs = np.sum(w * pw2, axis=-1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_stiefel_tangent_against_least_squares_basis():
    # oracle: assemble the tangent space from the constraint null space and
    # project by least squares
    rng = np.random.default_rng(2)
    spec = StiefelV2(4)
    x = random_points(spec, 1, rng)[0]
    xm = mf.frame_matrix(spec, x)

    rows = []
    for k in range(8):
        e = np.zeros(8)
        e[k] = 1.0
        ym = mf.frame_matrix(spec, e)
        c = xm.T @ ym + ym.T @ xm
        rows.append([c[0, 0], c[1, 1], c[0, 1]])
    constraint = np.array(rows).T  # (3, 8), tangent space is its null space
    _, s, vh = np.linalg.svd(constraint)
    null = vh[3:]  # (5, 8) orthonormal
    w = rng.standard_normal(8)
    oracle = null.T @ (null @ w)
    ours = mf.project_tangent(spec, x, w)
    assert np.max(np.abs(ours - oracle)) <= 1e-12
    assert float(mf.tangency_residual(spec, x, ours)) <= 1e-12


def test_geodesic_to_antipode():
    spec = Sphere(1)
    e1 = PointOnM(np.array([1.0, 0.0]), spec)
    e2 = tangent_project(e1, [0.0, 1.0])
    seg = geodesic_to_antipode(e1, e2, 0.0, 1.0)
    assert np.allclose(seg.eval(np.array([0.0]))[0], [1.0, 0.0])
    assert np.allclose(seg.eval(np.array([1.0]))[0], [-1.0, 0.0], atol=1e-15)
    assert np.allclose(seg.eval(np.array([0.5]))[0], [0.0, 1.0], atol=1e-15)
    # interior samples stay on the sphere
    ts = np.linspace(0.01, 0.99, 100)
    vals = seg.eval(ts)
    assert np.max(np.abs(np.linalg.norm(vals, axis=1) - 1.0)) <= 1e-12


def test_geodesic_speed_normalization():
    # over [0, 1/(r-1)] with r=3 the initial speed is (r-1) pi = 2 pi
    spec = Sphere(1)
    e1 = PointOnM(np.array([1.0, 0.0]), spec)
    e2 = tangent_project(e1, [0.0, 1.0])
    seg = geodesic_to_antipode(e1, e2, 0.0, 0.5)
    h = 1e-7
    vel = (seg.eval(np.array([h]))[0] - seg.eval(np.array([0.0]))[0]) / h
    assert abs(np.linalg.norm(vel) - 2.0 * np.pi) < 1e-5


def test_geodesic_rejects_bad_direction():
    spec = Sphere(1)
    e1 = PointOnM(np.array([1.0, 0.0]), spec)
    v = tangent_project(e1, [0.0, 0.5])
    with pytest.raises(InvalidDirection):
        geodesic_to_antipode(e1, v, 0.0, 1.0)


def test_mult_i_examples_and_identities():
    assert np.allclose(mult_i(np.array([1.0, 0, 0, 0])), [0, -1, 0, 0])
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 6))
    ix = mult_i(x)
    assert np.max(np.abs(np.sum(x * ix, axis=1))) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(ix, axis=1) - np.linalg.norm(x, axis=1))) <= 1e-12
    assert np.max(np.abs(mult_i(ix) + x)) <= 1e-15
    with pytest.raises(OddLength):
        mult_i(np.zeros(3))


def test_mult_j_examples_and_identities():
    assert np.allclose(mult_j(np.array([1.0, 0, 0, 0])), [0, 0, 0, 1])
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 8))
    jx = mult_j(x)
    ix = mult_i(x)
    assert np.max(np.abs(np.sum(x * jx, axis=1))) <= 1e-12
    assert np.max(np.abs(np.sum(ix * jx, axis=1))) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(jx, axis=1) - np.linalg.norm(x, axis=1))) <= 1e-12
    with pytest.raises(BadLength):
        mult_j(np.zeros(6))


def test_point_and_tangent_validation():
    with pytest.raises(Exception):
        PointOnM(np.array([1.0, 1.0]), Sphere(1))
    p = PointOnM(np.array([1.0, 0.0]), Sphere(1))
    with pytest.raises(NotTangent):
        from lsnav.manifolds import TangentVector

        TangentVector(p, np.array([1.0, 0.0]))


def test_spec_json_round_trip():
    for spec in ALL_SPECS + [Euclidean(3)]:
        back = spec_from_json(spec_to_json(spec))
        assert back.ambient_dim == spec.ambient_dim
        assert type(back) is type(spec)


def test_euclidean_is_flat():
    spec = Euclidean(3)
    raw = np.array([1.0, 2.0, 3.0])
    assert np.allclose(mf.project_points(spec, raw), raw)
    assert np.allclose(mf.project_tangent(spec, raw, raw), raw)
    assert float(mf.constraint_residual(spec, raw)) == 0.0


def test_implicit_spec_default_level():
    spec = spec_from_json({
        "kind": "implicit_hypersurface",
        "field": {"name": "torus_of_revolution",
                  "params": {"major_radius": 2.0, "minor_radius": 0.5}},
    })
    assert spec.level == 0.25


@pytest.mark.parametrize("obj, match", [
    ({"kind": "sphere"}, "'dim'"),
    ({"kind": "sphere", "dim": "two"}, "sphere spec .*'two'"),
    ({"kind": "product_spheres", "dims": 3}, "product_spheres spec .*not iterable"),
    ({"kind": "ellipsoid"}, "'semiaxes'"),
    ({"kind": "implicit_hypersurface", "field": {"name": "torus_of_revolution"}}, "'params'"),
    ({"kind": "implicit_hypersurface",
      "field": {"name": "torus_of_revolution", "params": {"major_radius": 2.0}}},
     "'minor_radius'"),
    ({"kind": "stiefel_v2", "frame_dim": None}, "stiefel_v2 spec .*NoneType"),
    ([1, 2], "unknown manifold kind"),
], ids=["sphere-no-dim", "sphere-bad-dim", "product-bad-dims", "ellipsoid-no-semiaxes",
        "implicit-no-params", "implicit-no-minor-radius", "stiefel-bad-frame-dim",
        "not-an-object"])
def test_spec_from_json_names_missing_and_ill_typed_fields(obj, match):
    with pytest.raises(WrongSpec, match=match):
        spec_from_json(obj)
