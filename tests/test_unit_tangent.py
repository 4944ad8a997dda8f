import numpy as np
import pytest

from lsnav.errors import (
    FiberMismatch,
    NotCriticalFiberTuple,
    WrongDimension,
)
from lsnav.flow import ScalarField, rho
from lsnav.manifolds import (
    TANGENT_TOL,
    PointOnM,
    StiefelV2,
    frame_columns,
    frame_flat,
    mult_i,
    mult_j,
    random_points,
    tangency_residual,
    tangent_project,
)
from lsnav.unit_tangent import (
    FiberTuple,
    base_height_field,
    df_ut,
    f_ut,
    f_ut_coords,
    f_ut_euclidean_gradient,
    f_ut_field,
    fiber_fibration,
    random_fiber_tuple,
    sigma_u_planner,
    su_trivialization,
    to_complex,
    unitary_apply,
    vertical_flow_endpoints,
    vertical_gradient_coords,
    vertical_pseudo_gradient_coords,
    vertical_project_coords,
    vertical_proportionality_scan,
)

SPEC = StiefelV2(4)


def _frame(x, v):
    return PointOnM(frame_flat(np.asarray(x, float), np.asarray(v, float)), SPEC)


def _random_frame(rng, spec=SPEC):
    return random_points(spec, 1, rng)[0]


def test_f_ut_rotational_sections():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    assert abs(f_ut(_frame(x, mult_i(x))) - 1.0) <= 1e-14
    assert abs(f_ut(_frame(x, -mult_i(x))) + 1.0) <= 1e-14


def test_f_ut_orthogonal_example():
    e1 = np.array([1.0, 0, 0, 0])
    e3 = np.array([0.0, 0, 1, 0])
    # i e1 = (0, -1, 0, 0) is orthogonal to e3
    assert f_ut(_frame(e1, e3)) == 0.0


def test_f_ut_range():
    rng = np.random.default_rng(1)
    vals = f_ut_field(SPEC).value_at(random_points(SPEC, 500, rng))
    assert (np.abs(vals) <= 1.0 + 1e-12).all()


def test_df_ut_zero_at_critical():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    p = _frame(x, mult_i(x))
    for _ in range(20):
        y = tangent_project(p, rng.standard_normal(8))
        assert abs(df_ut(p, y)) <= 1e-13


def test_df_ut_witness_direction():
    # Y = (0, w) with w = i x1 - <i x1, x2> x2 gives Df(Y) = 1 - <i x1, x2>^2
    rng = np.random.default_rng(3)
    coords = _random_frame(rng)
    x1, x2 = frame_columns(SPEC, coords)
    p = PointOnM(coords, SPEC)
    fval = f_ut(p)
    w = mult_i(x1) - fval * x2
    y = tangent_project(p, frame_flat(np.zeros(4), w))
    assert abs(df_ut(p, y) - (1.0 - fval**2)) <= 1e-12


def test_df_ut_finite_differences():
    from lsnav.manifolds import project_points

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        coords = _random_frame(rng)
        p = PointOnM(coords, SPEC)
        y = tangent_project(p, rng.standard_normal(8))
        eps = 1e-6
        fp = f_ut(PointOnM(project_points(SPEC, coords + eps * y.vec), SPEC))
        fm = f_ut(PointOnM(project_points(SPEC, coords - eps * y.vec), SPEC))
        fd = (fp - fm) / (2 * eps)
        an = df_ut(p, y)
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    assert worst <= 1e-5


def test_vertical_project_examples():
    e = np.eye(4)
    p = _frame(e[0], e[1])
    # (0, e3) is already vertical
    y = tangent_project(p, frame_flat(np.zeros(4), e[2]))
    ver = vertical_project_coords(SPEC, p.coords, y.vec)
    assert np.allclose(ver, y.vec, atol=1e-14)
    assert np.linalg.norm(y.vec - ver) <= 1e-14
    # a tangent vector with base movement splits with zero vertical base column
    rng = np.random.default_rng(5)
    y2 = tangent_project(p, rng.standard_normal(8))
    ver2 = vertical_project_coords(SPEC, p.coords, y2.vec)
    assert np.linalg.norm(ver2[:4]) == 0.0
    if np.linalg.norm(y2.vec[:4]) > 1e-12:
        assert np.linalg.norm((y2.vec - ver2)[:4]) > 1e-12


def test_vertical_decomposition_reconstructs():
    rng = np.random.default_rng(6)
    for _ in range(100):
        coords = _random_frame(rng)
        p = PointOnM(coords, SPEC)
        y = tangent_project(p, rng.standard_normal(8))
        ver = vertical_project_coords(SPEC, coords, y.vec)
        hor = y.vec - ver
        assert np.max(np.abs(ver + hor - y.vec)) <= 1e-12
        assert abs(np.dot(ver, hor)) <= 1e-12
        # both parts are tangent to the frame manifold
        assert tangency_residual(SPEC, coords, ver) <= TANGENT_TOL
        assert tangency_residual(SPEC, coords, hor) <= TANGENT_TOL


def test_vertical_projection_against_explicit_basis():
    # oracle: orthonormal basis of {(0, w) : w orthogonal to both columns}
    rng = np.random.default_rng(7)
    for _ in range(50):
        coords = _random_frame(rng)
        x1, x2 = frame_columns(SPEC, coords)
        p = PointOnM(coords, SPEC)
        y = tangent_project(p, rng.standard_normal(8))
        comp = np.eye(4) - np.outer(x1, x1) - np.outer(x2, x2)
        q, r = np.linalg.qr(comp)
        basis = q[:, np.abs(np.diag(r)) > 1e-10]
        w = basis @ (basis.T @ y.vec[4:])
        oracle = frame_flat(np.zeros(4), w)
        ours = vertical_project_coords(SPEC, coords, y.vec)
        assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_proportionality_scan_invariant_function():
    rng = np.random.default_rng(8)
    field = f_ut_field(SPEC)
    report = vertical_proportionality_scan(field, random_points(SPEC, 5000, rng))
    assert report.singular_consistency
    assert np.isfinite(report.max_ratio)


def test_proportionality_scan_constant_field():
    from lsnav.flow import ScalarField

    field = ScalarField(SPEC, lambda x: np.zeros(np.asarray(x).shape[:-1]),
                        lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    rng = np.random.default_rng(9)
    report = vertical_proportionality_scan(field, random_points(SPEC, 100, rng))
    assert report.n_skipped == report.n_samples
    assert report.singular_consistency


def test_proportionality_scan_base_only_counterexample():
    rng = np.random.default_rng(10)
    field = base_height_field(SPEC)
    report = vertical_proportionality_scan(field, random_points(SPEC, 1000, rng))
    assert not report.singular_consistency
    assert report.n_inconsistent > 0


def test_fiber_tuple_validation():
    rng = np.random.default_rng(11)
    a = _random_frame(rng)
    b = _random_frame(rng)
    with pytest.raises(FiberMismatch):
        FiberTuple(SPEC, np.stack([a, b]))  # different basepoints


def test_fiber_vertical_gradient_critical_tuple_zero():
    rng = np.random.default_rng(12)
    field = f_ut_field(SPEC)
    t = random_fiber_tuple(SPEC, 3, rng, critical_mask=[True, True, True])
    grads = vertical_gradient_coords(field, t.entries)
    assert (np.linalg.norm(grads, axis=1) <= 1e-12).all()


def test_fiber_vertical_gradient_mixed_tuple():
    rng = np.random.default_rng(13)
    field = f_ut_field(SPEC)
    t = random_fiber_tuple(SPEC, 2, rng, critical_mask=[True, False])
    grads = vertical_gradient_coords(field, t.entries)
    # each entry's row is tangent to the frame manifold at that entry
    assert (tangency_residual(SPEC, t.entries, grads) <= TANGENT_TOL).all()
    norms = np.linalg.norm(grads, axis=1)
    assert norms[0] <= 1e-12
    assert norms[1] > 1e-6


def test_fiber_vertical_gradient_matches_direct_projection():
    # oracle: project the ambient gradient of the sum onto an explicit
    # orthonormal basis of the product of entrywise vertical spaces
    rng = np.random.default_rng(14)
    field = f_ut_field(SPEC)
    worst = 0.0
    for _ in range(100):
        t = random_fiber_tuple(SPEC, 2, rng)
        grad = field.euclidean_gradient_at(t.entries).reshape(-1)
        basis = []
        for i in range(2):
            x1, x2 = frame_columns(SPEC, t.entries[i])
            comp = np.eye(4) - np.outer(x1, x1) - np.outer(x2, x2)
            q, r = np.linalg.qr(comp)
            for col in q[:, np.abs(np.diag(r)) > 1e-10].T:
                vec = np.zeros(16)
                vec[i * 8 + 4 : i * 8 + 8] = col
                basis.append(vec)
        basis = np.array(basis)
        oracle = (basis.T @ (basis @ grad)).reshape(2, 8)
        ours = vertical_gradient_coords(field, t.entries)
        worst = max(worst, float(np.max(np.abs(ours - oracle))))
    assert worst <= 1e-10


def test_sum_function_critical_iff_every_entry_critical():
    # the full gradient of the sum restricted to the fiber product vanishes
    # exactly when every entry is critical for the invariant function
    from lsnav.unit_tangent import fiber_tangent_basis

    rng = np.random.default_rng(15)
    field = f_ut_field(SPEC)
    tol = 1e-6
    for _ in range(200):
        mask = rng.random(2) < 0.4
        t = random_fiber_tuple(SPEC, 2, rng, critical_mask=mask)
        basis = fiber_tangent_basis(SPEC, t)
        grad = field.euclidean_gradient_at(t.entries).reshape(-1)
        restricted = basis @ grad
        tuple_critical = np.linalg.norm(restricted) <= tol
        entry_norms = np.linalg.norm(field.riemannian_gradient(t.entries), axis=1)
        entries_critical = bool((entry_norms <= tol).all())
        assert tuple_critical == entries_critical


def _scaled_f_ut(spec, scale):
    return ScalarField(spec, lambda x: scale * f_ut_coords(spec, x),
                       lambda x: scale * f_ut_euclidean_gradient(spec, x))


# |grad f| = sqrt(2 (1 - f^2)) lies in [0, sqrt 2], so f itself has rows on both
# sides of 1; the scaled fields put rows in (1, 2] and above 2
@pytest.mark.parametrize("frame_dim", [4, 8])
@pytest.mark.parametrize("scale, low, high", [
    (1.0, -1.0, 1.0), (1.4, 1.0, 2.0), (3.0, 2.0, np.inf),
], ids=["rho-one", "rho-blend", "rho-identity"])
def test_one_pass_vertical_pseudo_gradient_matches_composed_form(frame_dim, scale, low, high):
    spec = StiefelV2(frame_dim)
    field = _scaled_f_ut(spec, scale)
    pts = random_points(spec, 500, np.random.default_rng(frame_dim))
    grad = field.riemannian_gradient(pts)
    gn = np.linalg.norm(grad, axis=-1)
    rows = (gn > low) & (gn <= high)
    assert rows.sum() >= 10
    pts = pts[rows]
    composed = vertical_project_coords(spec, pts, grad[rows]) / rho(gn[rows])[:, None]
    got = vertical_pseudo_gradient_coords(field, pts)
    bound = 1e-14 * (1.0 + np.linalg.norm(field.euclidean_gradient_at(pts), axis=-1))
    assert (np.abs(got - composed).max(axis=-1) <= bound).all()
    # a row of a batch is what the row gives alone: bitwise as a batch of one,
    # and within the bound as a 1-D row, whose products take another matmul path
    for i in range(0, len(pts), 7):
        assert np.array_equal(vertical_pseudo_gradient_coords(field, pts[i:i + 1])[0], got[i])
        assert np.abs(vertical_pseudo_gradient_coords(field, pts[i]) - got[i]).max() <= bound[i]


# Rows of the gradient that fixed-step RK4 at step 1e-2 evaluated on the flows
# below (stiefel:4, 50 seeds from rng 16, both directions); the adaptive driver
# must need at least four times fewer.  Every evaluation of the vertical field
# or of its norm evaluates the Euclidean gradient once.
FIXED_STEP_GRADIENT_ROWS = 962_150


def test_vertical_flow_reaches_rotational_sections():
    # in each fiber f is a height function, so descent ends at v = -ix and
    # ascent at v = +ix
    for spec in (SPEC, StiefelV2(8)):
        m = spec.frame_dim
        field = f_ut_field(spec)
        seeds = random_points(spec, 50, np.random.default_rng(16))
        rows = []
        grad = field.euclidean_gradient_at

        def counted(x):
            rows.append(x.shape[0])
            return grad(x)

        field.euclidean_gradient_at = counted
        for direction in (-1, +1):
            end, _gn, conv = vertical_flow_endpoints(field, seeds, direction=direction)
            assert conv.all()
            x1 = end[:, :m]
            x2 = end[:, m:]
            assert np.linalg.norm(x2 - direction * mult_i(x1), axis=1).max() <= 1e-7
            # f never moves against the flow, and fibers are preserved exactly
            assert (direction * (field.value_at(end) - field.value_at(seeds)) >= 0).all()
            assert np.array_equal(end[:, :m], seeds[:, :m])
        if spec == SPEC:
            assert 4 * sum(rows) <= FIXED_STEP_GRADIENT_ROWS


def test_sigma_u_r2_formula():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    ix, jx = mult_i(x), mult_j(x)
    t = FiberTuple(SPEC, np.stack([frame_flat(x, ix), frame_flat(x, -ix)]))
    path = sigma_u_planner(t)
    for tt in np.linspace(0, 1, 17):
        got = path.eval_many(np.array([tt]))[0]
        want = frame_flat(x, np.cos(np.pi * tt) * ix + np.sin(np.pi * tt) * jx)
        assert np.max(np.abs(got - want)) <= 1e-14


def test_sigma_u_constant_for_equal_signs():
    rng = np.random.default_rng(18)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    row = frame_flat(x, mult_i(x))
    t = FiberTuple(SPEC, np.tile(row, (3, 1)))
    path = sigma_u_planner(t)
    ts = np.linspace(0, 1, 64)
    assert np.max(np.abs(path.eval_many(ts) - row)) <= 1e-14


def test_sigma_u_r3_alternating():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    ix = mult_i(x)
    t = FiberTuple(SPEC, np.stack(
        [frame_flat(x, ix), frame_flat(x, -ix), frame_flat(x, ix)]))
    path = sigma_u_planner(t)
    rt = fiber_fibration(path, 3)
    assert np.max(np.abs(rt.entries - t.entries)) <= 1e-9
    ts = np.linspace(0, 1, 256)
    vals = path.eval_many(ts)
    second = vals[:, 4:]
    assert np.max(np.abs(np.linalg.norm(second, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(vals[:, :4] * second, axis=1))) <= 1e-12
    assert np.max(np.linalg.norm(vals[:, :4] - x, axis=1)) == 0.0


def test_sigma_u_pieces_follow_the_flips():
    # constant where consecutive signs agree; across a flip the direction is
    # (0, j x), with +0.0 on the base block
    from lsnav.paths import ConstantSegment, GreatCircleSegment

    rng = np.random.default_rng(21)
    x = rng.standard_normal(8)
    x /= np.linalg.norm(x)
    ix, jx = mult_i(x), mult_j(x)
    signs = (1, -1, -1, 1, 1)
    t = FiberTuple(StiefelV2(8), np.stack([frame_flat(x, s * ix) for s in signs]))
    path = sigma_u_planner(t)
    assert [type(s) for s in path.segments] == [
        GreatCircleSegment, ConstantSegment, GreatCircleSegment, ConstantSegment]
    for j, seg in enumerate(path.segments):
        if isinstance(seg, ConstantSegment):
            assert np.array_equal(seg.point, t.entries[j])
            continue
        assert np.array_equal(seg.start, t.entries[j])
        assert np.array_equal(seg.direction, frame_flat(np.zeros(8), jx))
        assert not np.signbit(seg.direction[:8]).any()


def test_sigma_u_names_the_first_entry_off_the_sections():
    rng = np.random.default_rng(22)
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    ix, jx = mult_i(x), mult_j(x)
    t = FiberTuple(SPEC, np.stack([frame_flat(x, v) for v in (ix, -ix, jx, -jx)]))
    with pytest.raises(NotCriticalFiberTuple, match="entry 2 is not on a rotational section"):
        sigma_u_planner(t)


def test_sigma_u_rejects_noncritical_and_bad_dimension():
    rng = np.random.default_rng(20)
    t = random_fiber_tuple(SPEC, 2, rng, critical_mask=[True, False])
    with pytest.raises(NotCriticalFiberTuple):
        sigma_u_planner(t)
    spec6 = StiefelV2(6)  # frame bundle of S^5: no quaternionic pairing
    t6 = random_fiber_tuple(spec6, 2, rng, critical_mask=[True, True])
    with pytest.raises(WrongDimension):
        sigma_u_planner(t6)


def test_su_trivialization_identity():
    b0 = np.array([1.0, 0, 0, 0])
    _, g = su_trivialization(b0, b0)
    assert np.linalg.norm(g - np.eye(2)) <= 1e-12


def test_su_trivialization_moves_basepoint():
    b0 = np.array([1.0, 0, 0, 0])
    b = np.array([0.0, 0, 1, 0])
    handle, g = su_trivialization(b0, b)
    assert np.linalg.norm(unitary_apply(g, b0) - b) <= 1e-10
    assert np.linalg.norm(g.conj().T @ g - np.eye(2)) <= 1e-10
    assert abs(np.linalg.det(g) - 1.0) <= 1e-10


def test_su_trivialization_antipodal_robust():
    rng = np.random.default_rng(21)
    b0 = rng.standard_normal(4)
    b0 /= np.linalg.norm(b0)
    handle, g = su_trivialization(b0, -b0)
    assert np.linalg.norm(unitary_apply(g, b0) + b0) <= 1e-10
    assert abs(np.linalg.det(g) - 1.0) <= 1e-10


def test_su_invariance_of_f():
    rng = np.random.default_rng(22)
    field = f_ut_field(SPEC)
    for _ in range(50):
        b0 = rng.standard_normal(4)
        b0 /= np.linalg.norm(b0)
        b = rng.standard_normal(4)
        b /= np.linalg.norm(b)
        handle, g = su_trivialization(b0, b)
        w = rng.standard_normal(4)
        w -= np.dot(w, b0) * b0
        w /= np.linalg.norm(w)
        x0 = frame_flat(b0, w)
        assert abs(float(field.value_at(handle.apply(g, x0)))
                   - float(field.value_at(x0))) <= 1e-10


def test_psi_round_trip():
    rng = np.random.default_rng(23)
    handle, _ = su_trivialization(np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]))
    coords = _random_frame(rng)
    base, fiber_elt = handle.psi(coords)
    back = handle.psi_inv(base, fiber_elt)
    assert np.max(np.abs(back - coords)) <= 1e-12
    # the fiber element sits over b0
    assert np.linalg.norm(fiber_elt[:4] - handle.b0) <= 1e-12


def test_complex_pairing_matches_mult_i():
    rng = np.random.default_rng(24)
    x = rng.standard_normal(6)
    # multiplication by the complex scalar -i reproduces the pairwise rotation
    assert np.allclose(mult_i(x), np.real_if_close(
        np.concatenate([[z.real, z.imag] for z in (-1j) * to_complex(x)])))


def test_trivialization_json_export():
    b0 = np.array([1.0, 0, 0, 0])
    b = np.array([0.0, 1, 0, 0])
    handle, g = su_trivialization(b0, b)
    payload = handle.to_json(b)
    mat = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
    assert np.max(np.abs(mat - g)) <= 1e-15
