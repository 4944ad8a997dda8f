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
from lsnav.navigation import find_parallel_pairs, nav_field
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
    xm = x.reshape(2, 4).T  # frame matrix: columns x1, x2

    rows = []
    for k in range(8):
        e = np.zeros(8)
        e[k] = 1.0
        ym = e.reshape(2, 4).T
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
        assert spec_to_json(back) == spec_to_json(spec)


@pytest.mark.parametrize("operation, spec, match", [
    (mf.sphere_blocks, Ellipsoid((1.0, 2.0, 3.0)), "Ellipsoid has no sphere-block"),
    (mf.sphere_blocks, ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25),
     "ImplicitHypersurface has no sphere-block"),
    (mf.sphere_blocks, Euclidean(3), "Euclidean has no sphere-block"),
    (lambda s: nav_field(s, 2), Ellipsoid((1.0, 2.0, 3.0)), "Ellipsoid has no power"),
    (lambda s: nav_field(s, 2), StiefelV2(4), "StiefelV2 has no power"),
    (find_parallel_pairs, StiefelV2(4), "needs a hypersurface"),
], ids=["blocks-ellipsoid", "blocks-implicit", "blocks-euclidean", "power-ellipsoid",
        "power-stiefel", "pairs-stiefel"])
def test_unsupported_operation_raises_wrong_spec(operation, spec, match):
    # a kind without the operation says so; it never ends in an AttributeError
    with pytest.raises(WrongSpec, match=match):
        operation(spec)


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
    ({"kind": "euclidean", "dim": 0}, "euclidean dimension must be >= 1"),
    ({"kind": "euclidean", "dim": -3}, "euclidean dimension must be >= 1"),
    ({"kind": "ellipsoid", "semiaxes": [1, "nan"]}, "finite, strictly positive"),
    ({"kind": "ellipsoid", "semiaxes": [1, "inf"]}, "finite, strictly positive"),
    ({"kind": "sphere", "dim": 2.7}, "sphere spec .*2.7"),
    ({"kind": "product_spheres", "dims": [1.5, 3]}, "product_spheres spec .*1.5"),
    ({"kind": "stiefel_v2", "frame_dim": 4.9}, "stiefel_v2 spec .*4.9"),
    ({"kind": "sphere", "dim": True}, "sphere spec .*True"),
    ({"kind": "stiefel_v2", "frame_dim": True}, "stiefel_v2 spec .*True"),
    ({"kind": "ellipsoid", "semiaxes": [1e200, 1, 1]}, "from 1e-154 to 1e154"),
    ({"kind": "ellipsoid", "semiaxes": [1e-200, 1, 1]}, "from 1e-154 to 1e154"),
    ({"kind": "implicit_hypersurface",
      "field": {"name": "ellipsoid", "params": {"semiaxes": [1e-200, 1, 1]}}},
     r"1/a\^2 finite and nonzero"),
    ({"kind": "implicit_hypersurface",
      "field": {"name": "ellipsoid", "params": {"semiaxes": [1, "nan"]}}},
     "positive numbers"),
], ids=["sphere-no-dim", "sphere-bad-dim", "product-bad-dims", "ellipsoid-no-semiaxes",
        "implicit-no-params", "implicit-no-minor-radius", "stiefel-bad-frame-dim",
        "not-an-object", "euclidean-dim-0", "euclidean-dim-negative", "ellipsoid-nan",
        "ellipsoid-inf", "sphere-fractional-dim", "product-fractional-dims",
        "stiefel-fractional-frame-dim", "sphere-bool-dim", "stiefel-bool-frame-dim",
        "ellipsoid-square-overflows", "ellipsoid-square-underflows",
        "implicit-ellipsoid-square-underflows", "implicit-ellipsoid-nan"])
@pytest.mark.filterwarnings("error")
def test_spec_from_json_names_missing_and_ill_typed_fields(obj, match):
    with pytest.raises(WrongSpec, match=match):
        spec_from_json(obj)


def test_ellipsoid_field_is_built_once():
    spec = Ellipsoid((1.0, 2.0, 3.0))
    before = (hash(spec), spec_to_json(spec))
    assert spec.field is spec.field
    assert (hash(spec), spec_to_json(spec)) == before
    assert spec == Ellipsoid((1.0, 2.0, 3.0))
    assert hash(spec) == hash(Ellipsoid((1.0, 2.0, 3.0)))
    assert spec != Ellipsoid((1.0, 2.0, 4.0))


# Loop and SVD references for the vectorized kernels.

def _sphere_kernels_by_loop(spec, coords, w):
    """residual, tangency, project and project_tangent, one sphere block at a time."""
    res = np.zeros(coords.shape[:-1])
    tan = np.zeros(coords.shape[:-1])
    proj, ptan = coords.copy(), w.copy()
    for s, e in spec.blocks():
        x = coords[..., s:e]
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
        dot = np.sum(x * w[..., s:e], axis=-1, keepdims=True)
        res = np.maximum(res, np.abs(nrm[..., 0] - 1.0))
        tan = np.maximum(tan, np.abs(dot[..., 0]))
        proj[..., s:e] = x / nrm
        ptan[..., s:e] -= dot * x
    return res, tan, proj, ptan


SPHERE_KERNEL_SPECS = [Sphere(1), ProductSpheres((3, 3, 3)), ProductSpheres((1, 3, 1, 3))]


@pytest.mark.parametrize("spec", SPHERE_KERNEL_SPECS, ids=lambda s: str(s.dims))
@pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["d", "n-d", "r-n-d"])
def test_sphere_kernels_match_block_loop(spec, lead):
    rng = np.random.default_rng(len(lead) + spec.ambient_dim)
    shape = lead + (spec.ambient_dim,)
    raw = rng.standard_normal(shape)
    w = rng.standard_normal(shape)
    on = mf.project_points(spec, raw)
    for coords in (raw, on):
        ref = _sphere_kernels_by_loop(spec, coords, w)
        ours = (mf.constraint_residual(spec, coords), mf.tangency_residual(spec, coords, w),
                mf.project_points(spec, coords), mf.project_tangent(spec, coords, w))
        for got, want in zip(ours, ref):
            # segment sums may add in another order: 1e-15 relative to max(1, |value|)
            assert got.shape == want.shape
            assert (np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want))).all()


def _polar_by_svd(spec, coords):
    m = spec.frame_dim
    u, _, vh = np.linalg.svd(np.stack([coords[..., :m], coords[..., m:]], axis=-1),
                             full_matrices=False)
    q = u @ vh
    return np.concatenate([q[..., 0], q[..., 1]], axis=-1)


@pytest.mark.parametrize("m", [4, 8])
def test_closed_form_polar_factor_matches_svd(m):
    spec = StiefelV2(m)
    x = np.random.default_rng(m).standard_normal((10_000, 2 * m))
    q = mf.project_points(spec, x)
    assert np.max(np.abs(q - _polar_by_svd(spec, x))) <= 1e-12
    assert np.max(mf.constraint_residual(spec, q)) <= 1e-12


def _zero_blocks(spec):
    # a row whose blocks are unit vectors, with each block in turn set to zero
    rows = []
    for s, e in spec.blocks():
        row = np.zeros(spec.ambient_dim)
        row[np.array(spec.blocks())[:, 0]] = 1.0
        row[s:e] = 0.0
        rows.append(row)
    return rows


def _non_finite_entries(spec):
    # rows with one entry +inf, -inf or NaN, in every coordinate in turn
    rows = []
    for k in range(spec.ambient_dim):
        for v in (np.inf, -np.inf, np.nan):
            row = np.random.default_rng(k).standard_normal(spec.ambient_dim)
            row[k] = v
            rows.append(row)
    return rows


def _bad_frames():
    # every rank-deficient variant [x1, x2] and [x2, x1], the zero frame, and
    # frames with a NaN or an infinite entry
    x1 = np.random.default_rng(5).standard_normal(4)
    rows = [np.concatenate(pair) for x2 in (x1, 2.0 * x1, -x1, np.zeros(4))
            for pair in ((x1, x2), (x2, x1))]
    rows.append(np.zeros(8))
    for k, v in ((3, np.nan), (6, np.inf), (1, -np.inf)):
        row = np.random.default_rng(k).standard_normal(8)
        row[k] = v
        rows.append(row)
    return rows


TORUS = ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25)
UNPROJECTABLE = [
    *[(spec, _zero_blocks(spec)) for spec in SPHERE_KERNEL_SPECS],
    (StiefelV2(4), _bad_frames()),
    # the constraint gradient vanishes on the torus' core circle and at the
    # ellipsoid's centre, so Newton has no direction there
    (TORUS, [np.array([2.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0])]),
    (Ellipsoid((1.0, 2.0, 3.0)), [np.zeros(3)]),
    *[(spec, _non_finite_entries(spec)) for spec in (
        Sphere(2), ProductSpheres((1, 3, 1, 3)), TORUS, Ellipsoid((1.0, 2.0, 3.0)))],
    # finite, but the constraint value overflows
    (Ellipsoid((1.0, 2.0, 3.0)), [np.array([1e200, 0.0, 0.0]), np.array([0.0, -1e300, 1e300])]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, bad_rows", UNPROJECTABLE, ids=[
    "zero-block-(1,)", "zero-block-(3, 3, 3)", "zero-block-(1, 3, 1, 3)",
    "stiefel:4-rank-deficient-or-non-finite", "torus-core-circle", "ellipsoid-centre",
    "sphere:2-non-finite", "(1, 3, 1, 3)-non-finite", "torus-non-finite",
    "ellipsoid-non-finite", "ellipsoid-overflow"])
def test_unprojectable_row_comes_back_nan(spec, bad_rows):
    # one row the kind cannot project costs that row alone: it comes back NaN,
    # and every other row is bitwise what projecting it alone gives
    rng = np.random.default_rng(spec.ambient_dim)
    for bad in bad_rows:
        assert np.isnan(mf.project_points(spec, bad)).all()
        for row in range(4):
            batch = rng.standard_normal((4, spec.ambient_dim))
            batch[row] = bad
            out = mf.project_points(spec, batch)
            assert np.isnan(out[row]).all()
            for i in set(range(4)) - {row}:
                assert np.array_equal(out[i], mf.project_points(spec, batch[i]))
                assert mf.constraint_residual(spec, out[i]) <= 1e-9


@pytest.mark.filterwarnings("error")
def test_sphere_blocks_project_rows_whose_squares_overflow():
    # a finite block above about 1e154 overflows when squared; it is rescaled by
    # its largest entry instead of coming back NaN, and the other rows are untouched
    assert np.array_equal(mf.project_points(Sphere(2), [[1e200, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])
    spec = ProductSpheres((1, 2))
    batch = np.random.default_rng(9).standard_normal((4, 5))
    batch[1] = [1e200, -1e200, 3.0, 0.0, 4.0]
    batch[2] = [0.0, 1e300, 1e-300, 1e308, -1e308]
    out = mf.project_points(spec, batch)
    s = np.sqrt(0.5)
    assert np.allclose(out[1], [s, -s, 0.6, 0.0, 0.8], rtol=0, atol=1e-15)
    assert np.allclose(out[2], [0.0, 1.0, 0.0, s, -s], rtol=0, atol=1e-15)
    assert np.array_equal(out[[0, 3]], mf.project_points(spec, batch[[0, 3]]))
    # a block that is zero, or not finite, still makes its row NaN
    assert np.isnan(mf.project_points(spec, [[1e200, 0.0, 0.0, 0.0, 0.0]])).all()
    assert np.isnan(mf.project_points(spec, [[1e200, np.inf, 1.0, 0.0, 0.0]])).all()


@pytest.mark.filterwarnings("error")
def test_rank_deficient_frame_raises():
    # project_to_manifold, the check on outside input, raises for every
    # rank-deficient variant and the zero frame; in a batch the frame is a NaN row
    spec = StiefelV2(4)
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(4)
    frames = [np.concatenate(pair) for x2 in (x1, 2.0 * x1, -x1, np.zeros(4))
              for pair in ((x1, x2), (x2, x1))]
    for frame in [*frames, np.zeros(8)]:
        with pytest.raises(SingularInput):
            project_to_manifold(spec, frame)
        batch = rng.standard_normal((3, 8))
        batch[1] = frame
        out = mf.project_points(spec, batch)
        assert np.isnan(out[1]).all()
        assert np.isfinite(out[[0, 2]]).all()


@pytest.mark.filterwarnings("error")
def test_non_finite_frame_projects_to_a_nan_row():
    spec = StiefelV2(4)
    batch = np.random.default_rng(6).standard_normal((4, 8))
    batch[1, 3] = np.nan
    batch[2, 6] = np.inf
    out = mf.project_points(spec, batch)
    assert np.isnan(out[1:3]).all()
    assert np.array_equal(out[[0, 3]], mf.project_points(spec, batch[[0, 3]]))


@pytest.mark.filterwarnings("error")
def test_hypersurface_row_above_tolerance_at_the_cap_comes_back_nan(monkeypatch):
    # one damped Newton step takes [10, 0, 0] only to 5.05 on x^2 = 1
    spec = Ellipsoid((1.0, 2.0, 3.0))
    on = mf.project_points(spec, np.array([0.5, 1.0, 1.0]))
    monkeypatch.setattr(mf, "HYPERSURFACE_NEWTON_CAP", 1)
    out = mf.project_points(spec, np.stack([on, [10.0, 0.0, 0.0]]))
    assert np.array_equal(out[0], on)
    assert np.isnan(out[1]).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [Ellipsoid((1.0, 2.0, 3.0)), TORUS], ids=["ellipsoid", "torus"])
def test_hypersurface_sampling_keeps_only_projected_rows(spec, monkeypatch):
    # with a cap of 4 Newton steps about 60% of the box samples come back NaN
    monkeypatch.setattr(mf, "HYPERSURFACE_NEWTON_CAP", 4)
    pts = random_points(spec, 100, np.random.default_rng(0))
    assert pts.shape == (100, 3)
    assert mf.constraint_residual(spec, pts).max() <= mf.HYPERSURFACE_NEWTON_TOL


def _sample_by_unbounded_loop(spec, n, rng):
    """The hypersurface sampler before it gave up on empty rounds."""
    box = spec.field.bounding_box
    out = np.empty((0, 3))
    while out.shape[0] < n:
        raw = rng.uniform(box[:, 0], box[:, 1], size=(max(2 * (n - out.shape[0]), 16), 3))
        raw = raw[np.linalg.norm(spec.field.grad(raw), axis=-1) > 1e-6]
        if raw.shape[0] == 0:
            continue
        proj = mf._project_hypersurface(spec.field, spec.level, raw)
        out = np.vstack([out, proj[np.isfinite(proj).all(axis=-1)]])
    return out[:n]


@pytest.mark.parametrize("spec", [Ellipsoid((1.0, 2.0, 3.0)), TORUS], ids=["ellipsoid", "torus"])
@pytest.mark.parametrize("newton_cap", [mf.HYPERSURFACE_NEWTON_CAP, 4])
def test_hypersurface_sampling_draws_as_the_unbounded_loop(spec, newton_cap, monkeypatch):
    # at a Newton cap of 4 most rows fail, so the sampler runs several rounds
    monkeypatch.setattr(mf, "HYPERSURFACE_NEWTON_CAP", newton_cap)
    got = random_points(spec, 300, np.random.default_rng(5))
    assert np.array_equal(got, _sample_by_unbounded_loop(spec, 300, np.random.default_rng(5)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [
    ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), -1.0),
    ImplicitHypersurface(torus_of_revolution_field(1e200, 1.0), 1.0),
], ids=["below-least-value", "squares-overflow"])
def test_hypersurface_sampling_gives_up_on_an_unreachable_level_set(spec):
    with pytest.raises(WrongSpec, match="in 10 rounds"):
        random_points(spec, 20, np.random.default_rng(0))


def _projected_rows(monkeypatch):
    """The row count of every hypersurface projection from here on, in call order."""
    rows = []
    project = mf._project_hypersurface
    monkeypatch.setattr(mf, "_project_hypersurface",
                        lambda field, level, coords: rows.append(len(coords))
                        or project(field, level, coords))
    return rows


def test_rounds_after_an_empty_round_draw_16_points(monkeypatch):
    # the first round draws 2n points; once a round adds none, the next draws 16,
    # so refusing an empty level set costs about one round, not ten.  The first
    # round projects its first n rows, then, as all of them fail, the other n
    spec = ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), -1.0)
    rows = _projected_rows(monkeypatch)
    n = 500
    with pytest.raises(WrongSpec, match="in 10 rounds"):
        random_points(spec, n, np.random.default_rng(0))
    assert len(rows) == 11
    assert sum(rows) <= 2 * n + 9 * 16


def test_sampling_projects_only_the_rows_it_keeps(monkeypatch):
    # on the ellipsoid every drawn row projects, so the n points cost n projections
    rows = _projected_rows(monkeypatch)
    n = 500
    got = random_points(Ellipsoid((1.0, 2.0, 3.0)), n, np.random.default_rng(0))
    assert got.shape == (n, 3) and np.isfinite(got).all()
    assert rows == [n]


def test_polar_factor_of_nearly_dependent_columns_is_orthonormal():
    # the Gram-matrix form sqrt(ac - b^2) loses sigma_min below sqrt(eps) sigma_max;
    # the factor must stay on the manifold and within cond * 1e-14 of the SVD's
    spec = StiefelV2(4)
    rng = np.random.default_rng(6)
    x1 = rng.standard_normal(4)
    for eps in (1e-6, 1e-8, 1e-10):
        x = np.concatenate([x1, 0.3 * x1 + eps * rng.standard_normal(4)])
        sv = np.linalg.svd(x.reshape(2, 4).T, compute_uv=False)
        q = mf.project_points(spec, x)
        assert float(mf.constraint_residual(spec, q)) <= 1e-12
        assert np.max(np.abs(q - _polar_by_svd(spec, x))) <= 1e-14 * sv[0] / sv[1]


@pytest.mark.parametrize("m", [4, 8])
def test_stiefel_kernels_match_matrix_form(m):
    spec = StiefelV2(m)
    rng = np.random.default_rng(m + 1)
    x = random_points(spec, 200, rng).reshape(4, 50, 2 * m)
    w = rng.standard_normal(x.shape)
    xm = np.stack([x[..., :m], x[..., m:]], axis=-1)
    wm = np.stack([w[..., :m], w[..., m:]], axis=-1)
    xtw = np.swapaxes(xm, -1, -2) @ wm
    sym = 0.5 * (xtw + np.swapaxes(xtw, -1, -2))
    out = wm - xm @ sym
    want = np.concatenate([out[..., 0], out[..., 1]], axis=-1)
    assert np.max(np.abs(mf.project_tangent(spec, x, w) - want)) <= 1e-15
    gram = np.swapaxes(xm, -1, -2) @ xm
    assert np.max(np.abs(mf.constraint_residual(spec, x)
                         - np.linalg.norm(gram - np.eye(2), axis=(-2, -1)))) <= 1e-15
    assert np.max(np.abs(mf.tangency_residual(spec, x, w)
                         - np.linalg.norm(xtw + np.swapaxes(xtw, -1, -2), axis=(-2, -1)))) <= 1e-15


HESSIAN_SPECS = {
    "sphere:2": Sphere(2),
    "product:1,3": ProductSpheres((1, 3)),
    "stiefel:4": StiefelV2(4),
    "stiefel:8": StiefelV2(8),
    "ellipsoid:1,2,3": Ellipsoid((1.0, 2.0, 3.0)),
    "torus:2,0.5": ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25),
    "euclidean:3": Euclidean(3),
}


@pytest.mark.parametrize("name", list(HESSIAN_SPECS))
def test_riemannian_hessian_matches_gradient_differences(name):
    # F = x^T A x / 2 + b.x + sum x^3 / 3: a gradient with a normal part, so the
    # Weingarten term is exercised, and a Hessian that varies with x
    spec = HESSIAN_SPECS[name]
    d = spec.ambient_dim
    rng = np.random.default_rng(len(name))
    a = rng.standard_normal((d, d))
    a = a + a.T
    b = rng.standard_normal(d)

    def egrad(x):
        return x @ a + b + x**2

    def rgrad(x):
        return mf.project_tangent(spec, x, egrad(x))

    x = random_points(spec, 8, rng)
    hess = spec.riemannian_hessian(x, egrad(x), a + 2.0 * x[:, :, None] * np.eye(d))
    v = mf.project_tangent(spec, x, rng.standard_normal(x.shape))
    w = mf.project_tangent(spec, x, rng.standard_normal(x.shape))
    t = 1e-5
    fd = (rgrad(mf.project_points(spec, x + t * v))
          - rgrad(mf.project_points(spec, x - t * v))) / (2.0 * t)
    hv = np.einsum("nij,nj->ni", hess, v)
    scale = np.linalg.norm(hv, axis=-1).max()
    assert np.abs(hv - mf.project_tangent(spec, x, fd)).max() <= 1e-6 * scale
    # symmetric on the tangent space, and as a matrix
    whv = np.einsum("ni,nij,nj->n", w, hess, v)
    vhw = np.einsum("ni,nij,nj->n", v, hess, w)
    assert np.abs(whv - vhw).max() <= 1e-12 * scale
    assert np.abs(hess - np.swapaxes(hess, -1, -2)).max() <= 1e-12 * scale


def _weingarten(spec, coords, egrad, vec):
    """The Weingarten term of each kind on tangent vectors vec: the tangent part of
    the derivative of the tangent projection along vec, applied to egrad."""
    if isinstance(spec, (Sphere, ProductSpheres)):
        starts, sizes = spec._segments
        dots = np.add.reduceat(coords * egrad, starts, axis=-1)
        return -np.repeat(dots, sizes, axis=-1) * vec
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        g = spec.field.grad(coords)
        scale = (np.einsum("...i,...i->...", g, egrad)
                 / np.maximum(np.einsum("...i,...i->...", g, g), 1e-300))[..., None]
        hv = (spec.field.hess(coords) @ vec[..., None])[..., 0]
        return -scale * spec.project_tangent(coords, hv)
    if isinstance(spec, StiefelV2):
        rows = spec._rows
        vs = spec._sym(rows(coords), rows(egrad)) @ rows(vec)
        return -spec.project_tangent(coords, vs.reshape(vec.shape))
    return np.zeros(np.broadcast_shapes(coords.shape, vec.shape))


def _reference_hessian(spec, coords, egrad, ehess):
    """P ehess P plus the Weingarten term, each row of the identity projected."""
    x = coords[..., None, :]
    p = spec.project_tangent(x, np.broadcast_to(np.eye(spec.ambient_dim), ehess.shape))
    php = spec.project_tangent(x, np.swapaxes(ehess @ p, -1, -2))
    return php + _weingarten(spec, x, egrad[..., None, :], p)


@pytest.mark.parametrize("name", list(HESSIAN_SPECS))
def test_riemannian_hessian_matches_weingarten_form(name):
    # P (ehess - S) P against P ehess P + Weingarten, on batches and on the single
    # points with one shared ehess that the pair census's nullity test passes
    spec = HESSIAN_SPECS[name]
    d = spec.ambient_dim
    rng = np.random.default_rng(len(name) + 1)
    x = random_points(spec, 20, rng)
    egrad = rng.standard_normal(x.shape)
    a = rng.standard_normal((20, d, d))
    ehess = a + np.swapaxes(a, -1, -2)
    for args in ((x, egrad, ehess), (x[3], egrad[3], 2.0 * np.eye(d))):
        want = _reference_hessian(spec, *args)
        got = spec.riemannian_hessian(*args)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", list(HESSIAN_SPECS))
def test_riemannian_hessian_does_not_depend_on_the_other_rows(name):
    # one call against 7-row chunks, bit for bit, and a NaN row spoils only itself
    spec = HESSIAN_SPECS[name]
    d = spec.ambient_dim
    rng = np.random.default_rng(len(name) + 2)
    x = random_points(spec, 40, rng)
    egrad = rng.standard_normal(x.shape)
    a = rng.standard_normal((40, d, d))
    ehess = a + np.swapaxes(a, -1, -2)
    whole = spec.riemannian_hessian(x, egrad, ehess)
    parts = [spec.riemannian_hessian(x[i:i + 7], egrad[i:i + 7], ehess[i:i + 7])
             for i in range(0, 40, 7)]
    assert np.array_equal(whole, np.concatenate(parts))
    x[13], ehess[13] = np.nan, np.nan
    broken = spec.riemannian_hessian(x, egrad, ehess)
    assert np.isnan(broken[13]).all()
    others = np.arange(40) != 13
    assert np.array_equal(broken[others], whole[others])


@pytest.mark.parametrize("name", list(HESSIAN_SPECS))
def test_projections_do_not_depend_on_row_order(name):
    # permuted rows in, the same rows permuted out, bit for bit
    spec = HESSIAN_SPECS[name]
    rng = np.random.default_rng(len(name) + 4)
    x = random_points(spec, 60, rng)
    raw = x + 0.3 * rng.standard_normal(x.shape)
    w = rng.standard_normal(x.shape)
    perm = rng.permutation(len(x))
    assert np.array_equal(mf.project_points(spec, raw[perm]), mf.project_points(spec, raw)[perm])
    assert np.array_equal(mf.project_tangent(spec, x[perm], w[perm]),
                          mf.project_tangent(spec, x, w)[perm])
