from dataclasses import replace

import numpy as np
import pytest

from lsnav.errors import (
    FiberMismatch,
    NotCriticalFiberTuple,
    WrongDimension,
    WrongSpec,
)
from lsnav import flow
from lsnav.flow import ScalarField, pseudo_gradient_coords
from lsnav.manifolds import (
    TANGENT_TOL,
    PointOnM,
    Sphere,
    StiefelV2,
    constraint_residual,
    frame_columns,
    frame_flat,
    mult_i,
    mult_j,
    random_points,
    spec_from_json,
    spec_to_json,
    tangency_residual,
    tangent_project,
)
from lsnav.navigation import CLASSIFY_TOL
from lsnav.unit_tangent import (
    FiberTuple,
    ProportionalityReport,
    Trivialization,
    _FrameFibers,
    base_height_field,
    df_ut,
    f_ut,
    f_ut_coords,
    f_ut_euclidean_gradient,
    f_ut_field,
    fiber_fibration,
    random_fiber_tuple,
    sigma_u_planner,
    sign_classifier,
    su_trivialization,
    to_complex,
    unitary_apply,
    vertical_flow_endpoints,
    vertical_gradient_coords,
    vertical_pseudo_gradient_coords,
    vertical_project_coords,
    vertical_proportionality_scan,
)


def _sign_label_row(spec, row):
    """The per-frame rule: '+i' or '-i' within CLASSIFY_TOL of x2 = +-i x1, else None."""
    x1, x2 = frame_columns(spec, row)
    if np.linalg.norm(x2 - mult_i(x1)) <= CLASSIFY_TOL:
        return "+i"
    if np.linalg.norm(x2 + mult_i(x1)) <= CLASSIFY_TOL:
        return "-i"
    return None


@pytest.mark.parametrize("m", [4, 8])
def test_sign_classifier_batch_matches_row_rule(m):
    spec = StiefelV2(m)
    rng = np.random.default_rng(m)
    x1 = random_points(Sphere(m - 1), 6, rng)
    near = [frame_flat(x1, s * mult_i(x1) + eps * rng.standard_normal(x1.shape))
            for s in (1, -1) for eps in (0.0, 1e-6, 1e-3)]
    batch = np.concatenate(near + [random_points(spec, 6, rng)])
    want = [_sign_label_row(spec, row) for row in batch]
    assert want == ["+i"] * 12 + [None] * 6 + ["-i"] * 12 + [None] * 12
    assert list(sign_classifier(spec)(batch)) == want
    assert list(sign_classifier(spec)(batch[7:8])) == ["+i"]


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


def _reference_vertical_project(spec, coords, vec):
    """The vertical projection as first written, with np.sum and frame_flat."""
    x1, x2 = frame_columns(spec, coords)
    _, y2 = frame_columns(spec, np.asarray(vec, dtype=float))
    w = y2 - (np.sum(y2 * x1, axis=-1, keepdims=True) * x1
              + np.sum(y2 * x2, axis=-1, keepdims=True) * x2)
    return frame_flat(np.zeros_like(w), w)


@pytest.mark.parametrize("frame_dim", [4, 8])
def test_vertical_project_keeps_the_reference_bits(frame_dim):
    spec = StiefelV2(frame_dim)
    rng = np.random.default_rng(frame_dim)
    x = random_points(spec, 7, rng)
    v = rng.standard_normal(x.shape)
    x[3, 1] = np.nan
    cases = [(x, v), (x[0], v[0]), (x[3], v[3]), (x[0], v), (x, v[0]),
             (x[:, None], v[None, :4])]
    for coords, vec in cases:
        want = _reference_vertical_project(spec, coords, vec)
        got = vertical_project_coords(spec, coords, vec)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(vertical_project_coords(spec, x, v)[3, frame_dim:]).all()


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


def test_base_height_is_the_first_coordinate():
    field = base_height_field(SPEC)
    assert field.name == "base-height(axis=0)"
    x = random_points(SPEC, 5, np.random.default_rng(14))
    assert np.array_equal(field.value_at(x), x[:, 0])
    e0 = np.zeros(SPEC.ambient_dim)
    e0[0] = 1.0
    assert np.array_equal(field.euclidean_gradient_at(x), np.tile(e0, (5, 1)))
    assert not field.euclidean_hessian_at(x).any()
    with pytest.raises(WrongSpec):
        base_height_field(Sphere(3))


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


def _scaled_f_ut(spec, scale):
    return ScalarField(spec, lambda x: scale * f_ut_coords(spec, x),
                       lambda x: scale * f_ut_euclidean_gradient(spec, x))


# the vertical gradient of f has |w| = sqrt(1 - f^2) in [0, 1], so f itself has
# rows where rho is 1; the scaled fields put rows in (1, 2] and above 2
@pytest.mark.parametrize("frame_dim", [4, 8])
@pytest.mark.parametrize("scale, low, high", [
    (1.0, -1.0, 1.0), (1.4, 1.0, 2.0), (3.0, 2.0, np.inf),
], ids=["rho-one", "rho-blend", "rho-identity"])
def test_vertical_pseudo_gradient_contract(frame_dim, scale, low, high):
    spec = StiefelV2(frame_dim)
    field = _scaled_f_ut(spec, scale)
    pts = random_points(spec, 500, np.random.default_rng(frame_dim))
    w = vertical_gradient_coords(field, pts)
    wn = np.linalg.norm(w, axis=-1)
    rows = (wn > low) & (wn <= high)
    assert rows.sum() >= 10
    pts, w, wn = pts[rows], w[rows], wn[rows]
    got = vertical_pseudo_gradient_coords(field, pts)
    # the pseudo-gradient of f on the fibers, the stage the vertical flow evaluates
    fibers = replace(field, spec=_FrameFibers(frame_dim))
    assert np.array_equal(pseudo_gradient_coords(fibers, pts), got)
    stage, stage_norm = flow._pseudo_gradient(fibers, pts)
    assert np.array_equal(stage, got) and np.array_equal(stage_norm, wn)
    # |X| <= 2 min(|w|, 1) and <w, X> >= min(|w|, |w|^2), up to rounding
    slack = 1e-12 * (1.0 + wn**2)
    assert (np.linalg.norm(got, axis=-1) <= 2.0 * np.minimum(wn, 1.0) + slack).all()
    assert (np.sum(w * got, axis=-1) >= np.minimum(wn, wn**2) - slack).all()
    assert not got[:, :frame_dim].any()
    # a row of a batch is what the row gives alone, as a batch of one and as a 1-D row
    for i in range(0, len(pts), 7):
        assert np.array_equal(vertical_pseudo_gradient_coords(field, pts[i:i + 1])[0], got[i])
        assert np.array_equal(vertical_pseudo_gradient_coords(field, pts[i]), got[i])


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


# Integrator passes (``flow._dp54_step`` calls) of the 50-seed vertical flows of
# ut-f from rng 7, by frame_dim and direction.  Pinned, so that a change of the
# flow's work shows here.
VERTICAL_FLOW_PASSES = {(4, -1): 9, (4, 1): 12, (8, -1): 3, (8, 1): 4}


@pytest.mark.parametrize("frame_dim, direction", list(VERTICAL_FLOW_PASSES))
def test_vertical_flow_integrator_passes(monkeypatch, frame_dim, direction):
    spec = StiefelV2(frame_dim)
    seeds = random_points(spec, 50, np.random.default_rng(7))
    step, passes = flow._dp54_step, []

    def counted(*args):
        passes.append(args)
        return step(*args)

    monkeypatch.setattr(flow, "_dp54_step", counted)
    conv = vertical_flow_endpoints(f_ut_field(spec), seeds, direction=direction)[2]
    assert conv.all()
    assert len(passes) == VERTICAL_FLOW_PASSES[frame_dim, direction]


def test_vertical_hessian_is_the_fiber_derivative_of_the_vertical_gradient():
    # a quadratic field with a full Hessian, so the P H_vv P term is tested too
    spec = StiefelV2(4)
    rng = np.random.default_rng(24)
    a = rng.standard_normal((8, 8))
    a += a.T
    field = ScalarField(spec, lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, a, x),
                        lambda x: x @ a, euclidean_hessian=lambda x: a)
    x = random_points(spec, 5, rng)
    w = vertical_project_coords(spec, x, rng.standard_normal(x.shape))
    h = 1e-6
    # v moves along w, renormalized against the fixed first column: a curve in the fiber
    fibers = _FrameFibers(4)
    fd = (vertical_gradient_coords(field, fibers.project(x + h * w))
          - vertical_gradient_coords(field, fibers.project(x - h * w))) / (2 * h)
    jac = replace(field, spec=fibers).riemannian_hessian(x)
    want = vertical_project_coords(spec, x, fd)
    assert np.abs(np.einsum("nij,nj->ni", jac, w) - want).max() <= 1e-6 * (1 + np.abs(want).max())
    assert not jac[:, :4].any() and not jac[:, :, :4].any()
    # the flow on this field hands its rows to Newton too, and the fibers stay put
    end, gn, conv = vertical_flow_endpoints(field, x)
    assert conv.all() and np.array_equal(end[:, :4], x[:, :4])


@pytest.mark.parametrize("frame_dim", [4, 8])
def test_frame_fiber_samples_are_stiefel_frames(frame_dim):
    # the anchored projection keeps a Gaussian first column as it is, off the
    # manifold; the fiber kind draws the frames of the plain kind instead
    got = random_points(_FrameFibers(frame_dim), 3, np.random.default_rng(0))
    want = random_points(StiefelV2(frame_dim), 3, np.random.default_rng(0))
    assert np.array_equal(got, want)
    assert constraint_residual(_FrameFibers(frame_dim), got).max() <= 1e-12


def test_frame_fibers_have_no_json_form():
    # the tag stiefel_v2 would read back as the plain kind, whose projection
    # and tangent space are not the fibers'
    with pytest.raises(WrongSpec):
        spec_to_json(_FrameFibers(4))


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


# real coordinates of the trivialization tests: on C^2 the section is the one
# element of SU(2) moving b0 to b; from C^3 on the completion chooses it
SU_DIMS = (4, 8, 12)


def _unit(rng, d):
    b = rng.standard_normal(d)
    return b / np.linalg.norm(b)


def _assert_special_unitary(g):
    assert np.linalg.norm(g.conj().T @ g - np.eye(g.shape[0])) <= 1e-10
    assert abs(np.linalg.det(g) - 1.0) <= 1e-10


def test_su_trivialization_moves_basepoint():
    for d in SU_DIMS:
        b0, b = np.eye(d)[0], np.eye(d)[2]
        handle, g = su_trivialization(b0, b)
        assert g.shape == (d // 2, d // 2)
        assert np.linalg.norm(unitary_apply(g, b0) - b) <= 1e-10
        _assert_special_unitary(g)


def test_su_trivialization_antipodal_robust():
    rng = np.random.default_rng(21)
    for d in SU_DIMS:
        b0 = _unit(rng, d)
        handle, g = su_trivialization(b0, -b0)
        assert np.linalg.norm(unitary_apply(g, b0) + b0) <= 1e-10
        _assert_special_unitary(g)


def test_su_invariance_of_f():
    rng = np.random.default_rng(22)
    for d in SU_DIMS:
        field = f_ut_field(StiefelV2(d))
        for _ in range(50):
            b0, b = _unit(rng, d), _unit(rng, d)
            handle, g = su_trivialization(b0, b)
            assert np.linalg.norm(unitary_apply(g, b0) - b) <= 1e-10
            _assert_special_unitary(g)
            w = rng.standard_normal(d)
            w -= np.dot(w, b0) * b0
            w /= np.linalg.norm(w)
            x0 = frame_flat(b0, w)
            assert abs(float(field.value_at(handle.apply(g, x0)))
                       - float(field.value_at(x0))) <= 1e-10


def test_su_trivialization_on_c2_is_the_closed_su2_form():
    # U(c) = [[c1, -conj c2], [c2, conj c1]] is the element of SU(2) with first
    # column c, so U(b) U(b0)* is the only one that moves b0 to b
    def closed(c):
        return np.array([[c[0], -np.conj(c[1])], [c[1], np.conj(c[0])]])

    rng = np.random.default_rng(25)
    for _ in range(200):
        b0, b = _unit(rng, 4), _unit(rng, 4)
        _, g = su_trivialization(b0, b)
        want = closed(to_complex(b)) @ closed(to_complex(b0)).conj().T
        assert np.max(np.abs(g - want)) <= 1e-14


def test_su_trivialization_is_continuous_near_a_generic_basepoint():
    # away from ties of the largest complex coordinate the section moves with b0
    rng = np.random.default_rng(26)
    b0, b = _unit(rng, 8), _unit(rng, 8)
    assert np.sort(np.abs(to_complex(b0)))[-2:] @ [-1, 1] > 0.1
    _, g = su_trivialization(b0, b)
    for _ in range(20):
        e = rng.standard_normal(8)
        e -= np.dot(e, b0) * b0
        e /= np.linalg.norm(e)
        _, g_near = su_trivialization(np.cos(1e-7) * b0 + np.sin(1e-7) * e, b)
        assert np.linalg.norm(g_near - g) <= 1e-6


@pytest.mark.parametrize("b0, b", [
    (np.array([1.0, 0.0]), np.array([0.0, 1.0])),  # C^1: SU(1) moves no basepoint
    (np.eye(4)[0], np.eye(6)[2]),
    (np.eye(6)[0], np.eye(4)[2]),
    (np.eye(5)[0], np.eye(5)[2]),
], ids=["c1", "b-longer", "b-shorter", "odd"])
def test_su_trivialization_refuses_dimensions(b0, b):
    with pytest.raises(WrongDimension, match="one even dimension of at least 4"):
        su_trivialization(b0, b)
    handle = Trivialization(b0)
    with pytest.raises(WrongDimension, match="one even dimension of at least 4"):
        handle.section(b)


def test_psi_round_trip():
    rng = np.random.default_rng(23)
    for d in SU_DIMS:
        handle, _ = su_trivialization(np.eye(d)[0], np.eye(d)[1])
        coords = _random_frame(rng, StiefelV2(d))
        base, fiber_elt = handle.psi(coords)
        back = handle.psi_inv(base, fiber_elt)
        assert np.max(np.abs(back - coords)) <= 1e-12
        # the fiber element sits over b0
        assert np.linalg.norm(fiber_elt[:d] - handle.b0) <= 1e-12


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


def test_fiber_tuple_json_round_trip():
    t = random_fiber_tuple(SPEC, 3, np.random.default_rng(15), critical_mask=[True, False, True])
    payload = t.to_json()
    back = FiberTuple(spec_from_json(payload["manifold"]), payload["entries"])
    assert back.spec == t.spec
    assert np.array_equal(back.entries, t.entries)


@pytest.mark.parametrize("ratio, shown", [(2.5, 2.5), (np.inf, None)])
def test_proportionality_report_json(ratio, shown):
    # JSON has no infinity: an unbounded ratio is null and ratio_finite false
    report = ProportionalityReport(max_ratio=ratio, singular_consistency=True,
                                   n_samples=10, n_skipped=3, n_inconsistent=0)
    assert report.to_json() == {
        "schema": "v1", "max_ratio": shown, "ratio_finite": shown is not None,
        "singular_consistency": True, "n_samples": 10, "n_skipped": 3, "n_inconsistent": 0,
    }
