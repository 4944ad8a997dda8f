import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from lsnav import flow, numerics
from lsnav.constraints import torus_of_revolution_field
from lsnav.errors import NegativeInput, NoConvergedSeeds, NotCriticalTuple
from lsnav.flow import (
    FlowConfig,
    ScalarField,
    descent_diagnostic,
    detect_critical,
    find_critical_components,
    flow_endpoints,
    height_field,
    integrate_flow,
    newton_critical_search,
    pseudo_gradient_coords,
    rho,
    time_one_map,
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
    project_points,
    project_tangent,
    project_to_manifold,
    random_points,
)
from lsnav.navigation import nav_field
from lsnav.unit_tangent import (
    _FrameFibers,
    _vertical_pseudo_gradient,
    f_ut_coords,
    f_ut_euclidean_gradient,
    f_ut_field,
    vertical_flow_endpoints,
    vertical_gradient_coords,
    vertical_pseudo_gradient_coords,
)


def test_rho_branches():
    assert rho(0.5) == 1.0
    assert rho(4.0) == 4.0
    # Hermite blend at 1.5: 1 + 2 (0.5)^2 - (0.5)^3
    assert abs(rho(1.5) - 1.375) < 1e-15
    with pytest.raises(NegativeInput):
        rho(-0.1)


def test_rho_matches_three_branch_formula():
    s = np.concatenate([np.linspace(0.0, 3.0, 3001), [1.0, 2.0, np.nextafter(1.0, 2.0),
                                                      np.nextafter(2.0, 1.0), 1e6]])
    t = s - 1.0
    three = np.where(s <= 1.0, 1.0, np.where(s >= 2.0, s, 1.0 + 2.0 * t**2 - t**3))
    assert np.array_equal(rho(s), three)
    assert rho(1.0) == 1.0 and rho(2.0) == 2.0


def test_rho_passes_nan_and_rejects_every_negative_argument():
    assert np.isnan(rho(np.nan)) and rho(-0.0) == 1.0
    got = rho(np.array([np.nan, 0.5, 3.0]))
    assert np.isnan(got[0]) and np.array_equal(got[1:], [1.0, 3.0])
    for bad in ([np.nan, -1.0], [[0.5, 2.0], [np.inf, -1e-300]], -np.inf):
        with pytest.raises(NegativeInput):
            rho(np.array(bad))
    assert rho(np.array([])).shape == (0,)


def test_rho_monotone_and_below_identity():
    s = np.linspace(0.0, 3.0, 20001)
    vals = rho(s)
    assert (np.diff(vals) >= -1e-14).all()
    mid = (s >= 1.0) & (s <= 2.0)
    assert (vals[mid] <= s[mid] + 1e-14).all()
    assert (vals >= 1.0 - 1e-14).all()


def test_pseudo_gradient_small_gradient_branch():
    # gradient norm 0.5 at the equator point: X equals the gradient exactly
    spec = Sphere(2)
    field = ScalarField(spec, lambda x: 0.5 * x[..., 2],
                        lambda x: np.stack([np.zeros_like(x[..., 0]),
                                            np.zeros_like(x[..., 0]),
                                            np.full_like(x[..., 0], 0.5)], axis=-1))
    p = PointOnM(np.array([1.0, 0.0, 0.0]), spec)
    x_vec = pseudo_gradient_coords(field, p.coords)
    assert np.allclose(x_vec, [0.0, 0.0, 0.5], atol=1e-14)


def test_pseudo_gradient_large_gradient_branch():
    spec = Sphere(2)
    field = ScalarField(spec, lambda x: 4.0 * x[..., 2],
                        lambda x: np.stack([np.zeros_like(x[..., 0]),
                                            np.zeros_like(x[..., 0]),
                                            np.full_like(x[..., 0], 4.0)], axis=-1))
    p = PointOnM(np.array([1.0, 0.0, 0.0]), spec)
    x_vec = pseudo_gradient_coords(field, p.coords)
    assert abs(np.linalg.norm(x_vec) - 1.0) < 1e-14


def test_pseudo_gradient_zero_at_critical():
    spec = Sphere(2)
    field = height_field(spec)
    south = PointOnM(np.array([0.0, 0.0, -1.0]), spec)
    assert np.linalg.norm(pseudo_gradient_coords(field, south.coords)) == 0.0


def test_pseudo_gradient_contract_random():
    rng = np.random.default_rng(0)
    field = nav_field(Sphere(2), 2)
    x = random_points(field.spec, 1000, rng)
    grad = field.riemannian_gradient(x)
    gn = np.linalg.norm(grad, axis=-1)
    pg = pseudo_gradient_coords(field, x)
    assert (np.linalg.norm(pg, axis=-1) <= 2.0 * np.minimum(gn, 1.0) + 1e-10).all()
    df = np.sum(grad * pg, axis=-1)
    assert (df >= np.minimum(gn, gn**2) - 1e-10).all()


def test_integrate_flow_stationary_at_critical():
    spec = Sphere(2)
    field = height_field(spec)
    south = PointOnM(np.array([0.0, 0.0, -1.0]), spec)
    trace = integrate_flow(field, south)
    assert np.max(np.linalg.norm(trace.coords - south.coords, axis=1)) <= 1e-9


def test_integrate_flow_height_to_south_pole(monkeypatch):
    spec = Sphere(2)
    field = height_field(spec)
    start = project_to_manifold(spec, [0.05, -0.02, 0.998])
    trace = integrate_flow(field, start)
    assert np.linalg.norm(trace.coords[-1] - np.array([0.0, 0.0, -1.0])) <= 1e-6
    assert trace.max_value_increase() <= 1e-10
    # half-step integrator lands at the same endpoint
    monkeypatch.setattr(flow, "FIRST_STEP", 5e-3)
    half = integrate_flow(field, start)
    assert np.linalg.norm(trace.coords[-1] - half.coords[-1]) <= 1e-6


def _height_flow_closed_form(start, t):
    """Negative flow of the height x[2] on S^2 at times t.

    |grad h| = sin(theta) <= 1, so rho = 1 and the flow is theta' = sin(theta)
    with theta measured from the north pole: tan(theta(t)/2) = tan(theta0/2) e^t,
    at constant azimuth.
    """
    theta0 = np.arccos(np.clip(start[..., 2], -1.0, 1.0))
    phi = np.arctan2(start[..., 1], start[..., 0])
    theta = 2.0 * np.arctan(np.tan(0.5 * theta0) * np.exp(t))
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=-1)


def test_time_one_map_matches_closed_form():
    rng = np.random.default_rng(10)
    spec = Sphere(2)
    starts = random_points(spec, 50, rng)
    phi1 = time_one_map(height_field(spec), starts)
    exact = _height_flow_closed_form(starts, 1.0)
    assert np.max(np.linalg.norm(phi1 - exact, axis=1)) <= 1e-7


def test_time_one_map_accepts_a_step_of_one(monkeypatch):
    spec = Sphere(2)
    start = project_to_manifold(spec, [0.3, 0.1, 0.9]).coords[None, :]
    monkeypatch.setattr(flow, "FIRST_STEP", 1.0)
    monkeypatch.setattr(flow, "MAX_TIME", 2.0)
    phi1 = time_one_map(height_field(spec), start)
    assert np.linalg.norm(phi1 - _height_flow_closed_form(start, 1.0)) <= 1e-7


def test_endpoint_atol_leaves_trajectory_outputs_alone(monkeypatch):
    # time_one_map and integrate_flow return trajectories and hold every step to
    # ATOL; flow_endpoints and the vertical flow return endpoints and take
    # ENDPOINT_ATOL, at which they still converge to the same tolerances
    spec = Sphere(2)
    field = height_field(spec)
    starts = random_points(spec, 20, np.random.default_rng(11))
    start = project_to_manifold(spec, [0.3, 0.1, 0.9])
    frames = StiefelV2(4)
    ut = f_ut_field(frames)
    seeds = random_points(frames, 20, np.random.default_rng(12))

    def run():
        return (time_one_map(field, starts), integrate_flow(field, start),
                flow_endpoints(field, starts), vertical_flow_endpoints(ut, seeds))

    phi1, trace, ends, vends = run()
    monkeypatch.setattr(flow, "ENDPOINT_ATOL", 1e-3)
    phi1_loose, trace_loose, ends_loose, vends_loose = run()
    assert np.array_equal(phi1_loose, phi1)
    for name in ("times", "coords", "values", "grad_norms"):
        assert np.array_equal(getattr(trace_loose, name), getattr(trace, name))
    # the endpoint flows did take the patched bound
    assert not np.array_equal(ends_loose[0], ends[0])
    assert not np.array_equal(vends_loose[0], vends[0])
    grad_tol = FlowConfig().grad_tol
    for end, gn, conv in (ends, ends_loose):
        assert conv.all() and (gn <= grad_tol).all()
        assert np.linalg.norm(end - [0.0, 0.0, -1.0], axis=1).max() <= 1e-6
    for end, gn, conv in (vends, vends_loose):
        assert conv.all() and (gn <= grad_tol).all()
        assert np.linalg.norm(end[:, 4:] + mult_i(end[:, :4]), axis=1).max() <= 1e-7
        assert np.array_equal(end[:, :4], seeds[:, :4])


def _torus_height_x():
    # x on the torus (2, 0.5) about the z-axis: a minimum at x = -2.5, a maximum at
    # x = 2.5 and two index-1 points at x = -1.5 and 1.5 on the inner equator
    surface = ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25)
    return flow._coordinate_height(surface, 0, "height")


def _spy_lm(monkeypatch):
    """Record the starting rows of every Levenberg-Marquardt call the flows make."""
    starts = []
    solve = numerics.levenberg_marquardt

    def spy(residual, jacobian, z0, **kwargs):
        starts.append(np.array(z0))
        return solve(residual, jacobian, z0, **kwargs)

    monkeypatch.setattr(numerics, "levenberg_marquardt", spy)
    return starts


def _spy_handoffs(monkeypatch):
    """Record the points at which the flows' stop predicate takes rows out of the
    flow, one array per predicate call."""
    points = []
    batch = flow._flow_batch

    def spy(*args, stop=None, **kwargs):
        def recorded(rows, x):
            ok = stop(rows, x)
            points.append(x[ok])
            return ok

        return batch(*args, stop=None if stop is None else recorded, **kwargs)

    monkeypatch.setattr(flow, "_flow_batch", spy)
    return points


ENDPOINT_FLOWS = {
    # flow_endpoints has no Newton finish; the vertical flow hands every row of
    # ut-f to Newton, whose fiber Hessian -f P is definite at both sections
    "nav (S^3)^3": (lambda: nav_field(Sphere(3), 3), flow_endpoints, 60),
    "x on torus(2,0.5)": (_torus_height_x, flow_endpoints, 60),
    "vertical ut-f stiefel:8": (lambda: f_ut_field(StiefelV2(8)), vertical_flow_endpoints, 50),
}


@pytest.mark.parametrize("direction", [-1, 1])
@pytest.mark.parametrize("case", list(ENDPOINT_FLOWS))
def test_endpoint_flows_do_not_depend_on_the_other_rows(monkeypatch, case, direction):
    # one call against 7-row chunks, bit for bit, and a NaN seed retires only its
    # own row.  Every Newton finish here has fewer than numerics.LM_BATCH_AXIS_ROWS
    # rows; from there on it solves along the batch axis, as LM does.
    make, endpoints, n = ENDPOINT_FLOWS[case]
    field = make()
    seeds = random_points(field.spec, n, np.random.default_rng(21))
    lm_starts = _spy_lm(monkeypatch)
    whole = endpoints(field, seeds, direction=direction)
    assert whole[2].all()
    assert (sum(map(len, lm_starts)) > 0) == (endpoints is vertical_flow_endpoints)
    chunks = [endpoints(field, seeds[i:i + 7], direction=direction) for i in range(0, n, 7)]
    for got, parts in zip(whole, zip(*chunks)):
        assert np.array_equal(got, np.concatenate(parts))
    bad = seeds.copy()
    bad[13] = np.nan
    broken = endpoints(field, bad, direction=direction)
    assert not broken[2][13]
    others = np.arange(n) != 13
    for got, want in zip(broken, whole):
        assert np.array_equal(got[others], want[others])


NEWTON_KINDS = {
    "sphere:2": Sphere(2),
    "product:1,3": ProductSpheres((1, 3)),
    "stiefel:4": StiefelV2(4),
    "ellipsoid:1,2,3": Ellipsoid((1.0, 2.0, 3.0)),
    "torus:2,0.5": ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25),
    "euclidean:3": Euclidean(3),
}


@pytest.mark.parametrize("name", list(NEWTON_KINDS))
def test_newton_search_does_not_depend_on_the_other_rows(name):
    # F = x^T A x / 2 + b.x on each kind: one call against 7-row chunks, bit for
    # bit, and a NaN seed retires only its own row.  The gradient is an einsum:
    # BLAS may sum x @ A in an order that depends on the number of rows
    spec = NEWTON_KINDS[name]
    rng = np.random.default_rng(len(name))
    a = rng.standard_normal((spec.ambient_dim,) * 2)
    a = a + a.T
    b = rng.standard_normal(spec.ambient_dim)
    field = ScalarField(spec, lambda x: np.einsum("...i,ij,...j->...", x, a, x) / 2 + x @ b,
                        lambda x: np.einsum("...i,ij->...j", x, a) + b,
                        euclidean_hessian=lambda x: a)
    seeds = random_points(spec, 40, rng)
    whole = newton_critical_search(field, seeds)
    assert len(whole) >= 20
    chunks = [newton_critical_search(field, seeds[i:i + 7]) for i in range(0, 40, 7)]
    assert np.array_equal(whole, np.concatenate(chunks))
    assert np.array_equal(newton_critical_search(field, np.insert(seeds, 13, np.nan, axis=0)),
                          whole)


@pytest.mark.parametrize("frame_dim", [4, 8])
def test_newton_search_on_the_frame_fibers(frame_dim):
    # generic Newton on the fiber kind: ut-f is a linear height on each fiber
    # sphere, so every finite seed lands on a section (x, +-ix) over its own x.
    # One call against 7-row chunks, bit for bit, and a NaN seed retires only its row
    m = frame_dim
    field = _fibers(f_ut_field(StiefelV2(m)))
    seeds = random_points(StiefelV2(m), 40, np.random.default_rng(29))
    whole = newton_critical_search(field, seeds)
    assert len(whole) == len(seeds)
    assert np.abs(whole[:, :m] - seeds[:, :m]).max() <= 1e-12
    ix = mult_i(whole[:, :m])
    off = np.minimum(np.linalg.norm(whole[:, m:] - ix, axis=1),
                     np.linalg.norm(whole[:, m:] + ix, axis=1))
    assert off.max() <= 1e-8
    chunks = [newton_critical_search(field, seeds[i:i + 7]) for i in range(0, 40, 7)]
    assert np.array_equal(whole, np.concatenate(chunks))
    assert np.array_equal(newton_critical_search(field, np.insert(seeds, 13, np.nan, axis=0)),
                          whole)


def _fiber_quadratic(diag, linear=(0.0, 0.0, 0.0, 0.0)):
    """f(x, v) = sum_k diag[k] v_k^2 + linear[k] v_k on stiefel:4, restricted on
    the fiber over x to the unit sphere of x's complement."""
    d = np.concatenate([np.zeros(4), np.asarray(diag, dtype=float)])
    b = np.concatenate([np.zeros(4), np.asarray(linear, dtype=float)])
    return ScalarField(StiefelV2(4), lambda x: np.sum((d * x + b) * x, axis=-1),
                       lambda x: 2.0 * d * x + b, euclidean_hessian=lambda x: np.diag(2.0 * d))


def _frames_over_e1(n, rng):
    """n frames (e1, v) with v uniform on the unit sphere of span(e2, e3, e4)."""
    v = rng.standard_normal((n, 4))
    v[:, 0] = 0.0
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.concatenate([np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), v], axis=1)


def _fibers(field):
    """The field on the fiber kind the vertical flow runs on."""
    return replace(field, spec=_FrameFibers(field.spec.frame_dim))


def _plain_vertical_flow(field, starts, direction):
    """The vertical flow without its Newton finish: (endpoints, gradient norms)."""
    return flow._flow_batch(_fibers(field), direction, _vertical_pseudo_gradient, starts,
                            FlowConfig(), atol=flow.ENDPOINT_ATOL)


def _reference_guard(field, x, direction):
    """The hand-off guard as it was written before ``flow.inertia``, on any field:
    one ``eigh`` of the Riemannian Hessian has as many eigenvalues of the
    direction's sign beyond NEWTON_GUARD_MARGIN (1 + max |lambda|) as the trace of
    the tangent projector at the first point."""
    lam = np.linalg.eigh(field.riemannian_hessian(x))[0]
    margin = flow.NEWTON_GUARD_MARGIN * (1.0 + np.abs(lam).max(axis=-1, keepdims=True))
    dim = np.trace(project_tangent(field.spec, x[:1], np.eye(x.shape[-1])))
    return np.sum(-direction * lam > margin, axis=-1) > dim - 0.5


def _guard_admits(field, x, direction):
    """The hand-off guard, rebuilt, on the fiber kind the vertical flow runs on: the
    vertical Hessian is definite on the fiber sphere S^(frame_dim - 2)."""
    return _reference_guard(_fibers(field), x, direction)


def _inertia_guard(field, x, direction):
    """The hand-off guard through ``flow.inertia`` and ``ManifoldSpec.dim``, as
    ``flow._endpoint_flow`` runs it."""
    below, _, above, _ = flow.inertia(np.linalg.eigh(field.riemannian_hessian(x))[0],
                                      tol=flow.NEWTON_GUARD_MARGIN)
    return (above if direction < 0 else below).sum(axis=-1) >= field.spec.dim


def _reference_dp54_step(vfield, project, x, k1, h):
    """The driver's step before it took its stopping norm from the FSAL stage."""
    ks = [k1]
    for row in flow._DP_A:
        y = project(x + h * sum(a * k for a, k in zip(row, ks) if a))
        ks.append(vfield(y))
    err = h[:, 0] * np.linalg.norm(sum(e * k for e, k in zip(flow._DP_E, ks) if e), axis=-1)
    return y, ks[-1], err


def _reference_flow_batch(field, direction, pseudo_gradient, project, grad_norm, starts, cfg,
                          max_time=None, record=None, atol=None, stop=None):
    """The driver before it took its stopping norm from the FSAL stage: it
    evaluates grad_norm(field, x) at the starts and again at every accepted
    point, where the step's last stage has just evaluated the field.  The stop
    predicate sees the starts that are to flow and the accepted rows that are
    still to flow."""
    max_time = flow.MAX_TIME if max_time is None else max_time
    atol = flow.ATOL if atol is None else atol

    def vfield(x):
        return direction * pseudo_gradient(field, x)

    def proj(x):
        return project(field.spec, x)

    def lyapunov(x):
        return -direction * field.value_at(x)

    x = proj(np.array(starts, dtype=float))
    t, h = np.zeros(len(x)), np.full(len(x), flow.FIRST_STEP)
    n = x.shape[0]
    gn = np.asarray(grad_norm(field, x), dtype=float)
    active = (gn > cfg.grad_tol) & (t < max_time)
    if stop is not None and active.any():
        rows = np.flatnonzero(active)
        active[rows[stop(rows, x[rows])]] = False
    idx = np.flatnonzero(active)
    k = np.zeros_like(x)
    lyap = np.zeros(n)
    if idx.size:
        k[idx] = vfield(x[idx])
        lyap[idx] = lyapunov(x[idx])
    if record is not None:
        record(t, x, gn)
    while idx.size:
        hs = np.minimum(h[idx], max_time - t[idx])
        x0 = x[idx]
        y, ky, err = _reference_dp54_step(vfield, proj, x0, k[idx], hs[:, None])
        ly = lyapunov(y)
        tol = np.minimum(atol, flow.RTOL * np.linalg.norm(y - x0, axis=-1))
        monotone = ly <= lyap[idx] + flow.LYAPUNOV_SLACK * (1.0 + np.abs(lyap[idx]))
        ok = (err <= tol) & monotone
        fac = np.clip(0.9 * (tol / np.maximum(err, 1e-300)) ** 0.2, 0.2, 5.0)
        h[idx] = hs * np.where(monotone, fac, np.minimum(fac, 0.5))
        acc = idx[ok]
        if acc.size:
            x[acc] = y[ok]
            k[acc] = ky[ok]
            lyap[acc] = ly[ok]
            t[acc] += hs[ok]
            gn[acc] = grad_norm(field, x[acc])
            if record is not None:
                record(t, x, gn)
        active[idx] = ((gn[idx] > cfg.grad_tol) & (t[idx] < max_time)
                       & (ok | (h[idx] >= flow.STEP_FLOOR)))
        rows = acc[active[acc]]
        if stop is not None and rows.size:
            active[rows[stop(rows, x[rows])]] = False
        idx = np.flatnonzero(active)
    return x, gn, t, h


def _reference_pseudo_gradient_flow(field, starts, direction, max_time=None, record=None,
                                    atol=None):
    return _reference_flow_batch(field, direction, pseudo_gradient_coords, project_points,
                                 ScalarField.gradient_norm, starts, FlowConfig(), max_time,
                                 record, atol)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


REFERENCE_FLOWS = {
    "nav (S^3)^3": (lambda: nav_field(Sphere(3), 3), 60),
    "x on torus(2,0.5)": (_torus_height_x, 50),
}


@pytest.mark.parametrize("direction", [-1, 1])
@pytest.mark.parametrize("case", list(REFERENCE_FLOWS))
def test_fsal_stopping_norm_leaves_endpoint_flows_bit_identical(case, direction):
    # the stopping norm read off the last stage is the one the reference driver
    # evaluates again at the accepted point: endpoints and norms agree bit for
    # bit, zero signs included
    make, n = REFERENCE_FLOWS[case]
    field = make()
    seeds = random_points(field.spec, n, np.random.default_rng(31))
    want = _reference_pseudo_gradient_flow(field, seeds, direction, atol=flow.ENDPOINT_ATOL)
    got = flow._flow_batch(field, direction, flow._pseudo_gradient, seeds, FlowConfig(),
                           atol=flow.ENDPOINT_ATOL)
    assert want[1].max() <= FlowConfig().grad_tol
    for g, w in zip(got, want):
        assert _same_bits(g, w)
    end, gn, conv = flow_endpoints(field, seeds, direction=direction)
    assert _same_bits(end, want[0]) and _same_bits(gn, want[1]) and conv.all()


def test_fsal_stopping_norm_leaves_trajectories_bit_identical():
    field = nav_field(Sphere(3), 3)
    start = random_points(field.spec, 1, np.random.default_rng(32))[0]
    times, coords, gns = [], [], []

    def record(t, x, gn):
        times.append(t[0])
        coords.append(x[0].copy())
        gns.append(gn[0])

    _reference_pseudo_gradient_flow(field, start[None, :], -1, record=record)
    trace = integrate_flow(field, PointOnM(start, field.spec))
    assert len(times) > 10
    assert _same_bits(trace.times, np.array(times))
    assert _same_bits(trace.coords, np.array(coords))
    assert _same_bits(trace.grad_norms, np.array(gns))
    seeds = random_points(field.spec, 30, np.random.default_rng(33))
    want = _reference_pseudo_gradient_flow(field, seeds, -1, max_time=1.0)[0]
    assert _same_bits(time_one_map(field, seeds), want)


@pytest.mark.parametrize("direction", [-1, 1])
@pytest.mark.parametrize("frame_dim", [4, 8])
def test_fsal_stopping_norm_keeps_the_vertical_flow(monkeypatch, frame_dim, direction):
    # the reference: ut-f in its composed form, flowed by the reference driver,
    # which stops on |vertical_gradient_coords| evaluated at every accepted point
    # and takes the same hand-off predicate (Newton finish unchanged); the
    # one-pass stage reads |w| off its own w
    spec = StiefelV2(frame_dim)
    field = f_ut_field(spec)
    seeds = random_points(spec, 50, np.random.default_rng(34))
    got = vertical_flow_endpoints(field, seeds, direction=direction)
    composed = ScalarField(spec, lambda x: f_ut_coords(spec, x),
                           lambda x: f_ut_euclidean_gradient(spec, x),
                           euclidean_hessian=field.euclidean_hessian)

    def reference_batch(fld, d, stage, starts, cfg, max_time=None, record=None,
                        atol=None, stop=None):
        return _reference_flow_batch(
            fld, d, vertical_pseudo_gradient_coords, project_points,
            lambda f, x: np.linalg.norm(vertical_gradient_coords(f, x), axis=-1),
            starts, cfg, max_time, record, atol, stop)[:2]

    monkeypatch.setattr(flow, "_flow_batch", reference_batch)
    want = vertical_flow_endpoints(composed, seeds, direction=direction)
    assert want[2].all() and np.array_equal(got[2], want[2])
    assert np.abs(got[0] - want[0]).max() <= 1e-15
    assert np.array_equal(got[0][:, :frame_dim], seeds[:, :frame_dim])


def test_descent_near_a_saddle_ends_at_the_minimum(monkeypatch):
    # over x = e1 the fiber is the unit sphere of span(e2, e3, e4), where f is
    # 2 v2^2 + 3 v3^2 + 4 v4^2: minima +-e2, index-1 points +-e3.  Newton from
    # seeds near +-e3 would stop there; the guard keeps them flowing.
    field = _fiber_quadratic([1.0, 2.0, 3.0, 4.0])
    saddles = np.zeros((20, 8))
    saddles[:, 0] = 1.0
    saddles[:, 6] = np.repeat([1.0, -1.0], 10)
    step = 5e-4 * _frames_over_e1(20, np.random.default_rng(22))
    step[:, 0] = 0.0
    starts = project_points(_fibers(field).spec, saddles + step)
    assert np.linalg.norm(starts - saddles, axis=1).max() <= 1e-3
    lm_starts = _spy_lm(monkeypatch)
    handoffs = _spy_handoffs(monkeypatch)
    end, gn, conv = vertical_flow_endpoints(field, starts)
    assert conv.all()
    assert np.abs(np.abs(end[:, 5]) - 1.0).max() <= 1e-6
    assert np.array_equal(end[:, :4], starts[:, :4])
    # the guard refuses the seeds, where the Hessian has eigenvalues of both
    # signs; a row is handed to Newton only where the flow has taken it to a
    # point the guard admits, and LM starts from points the guard admits
    assert not _guard_admits(field, starts, -1).any()
    handed = np.concatenate(handoffs)
    assert len(handed) > 0 and _guard_admits(field, handed, -1).all()
    newton = np.concatenate(lm_starts)
    assert len(newton) == len(handed) and _guard_admits(field, newton, -1).all()


@pytest.mark.parametrize("finish", ["uphill", "unconverged"])
def test_newton_finish_that_fails_keeps_flowing(monkeypatch, finish):
    # the finish returns the section v = +ix (critical, but f rose) or gives
    # up; either way every row runs the plain descent again from its start and
    # ends bit for bit where the flow alone ends, on the section v = -ix
    field = f_ut_field(StiefelV2(4))
    starts = random_points(field.spec, 10, np.random.default_rng(23))
    calls = []

    def fake(residual, jacobian, z0, *, tol, retract=None):
        calls.append(len(z0))
        if finish == "uphill":
            return np.concatenate([z0[:, :4], mult_i(z0[:, :4])], axis=1), np.zeros(len(z0))
        return z0.copy(), np.full(len(z0), np.inf)

    monkeypatch.setattr(numerics, "levenberg_marquardt", fake)
    end, gn, conv = vertical_flow_endpoints(field, starts)
    assert calls == [10]
    assert conv.all() and (gn <= FlowConfig().grad_tol).all()
    assert np.linalg.norm(end[:, 4:] + mult_i(end[:, :4]), axis=1).max() <= 1e-7
    plain = _plain_vertical_flow(field, starts, -1)
    assert np.array_equal(end, plain[0]) and np.array_equal(gn, plain[1])


def test_refused_rows_keep_the_flows_time_budget(monkeypatch):
    # over x = e1, f = (v4 - 1/2)^2 has a Morse-Bott minimum, the circle v4 = 1/2
    # of the fiber.  On their way there some rows pass the guard and the
    # contraction test, and Newton takes them onto the circle, where the
    # eigenvalue along it (at most 2.1e-9 of 1 + max |lambda|) is below the
    # guard's margin: the guard refuses every Newton limit, and those rows run
    # the plain flow again from their starts.  At MAX_TIME = 12.5 the flow alone
    # converges some rows; a refused row gets the whole time budget again, so
    # the same rows stop unconverged at MAX_TIME, and every row ends bit for bit
    # where the flow alone ends.
    field = _fiber_quadratic([0.0, 0.0, 0.0, 1.0], linear=[0.0, 0.0, 0.0, -1.0])
    starts = _frames_over_e1(40, np.random.default_rng(25))
    monkeypatch.setattr(flow, "MAX_TIME", 12.5)
    lm_starts = _spy_lm(monkeypatch)
    end, gn, conv = vertical_flow_endpoints(field, starts)
    assert sum(map(len, lm_starts)) > 0
    assert 0 < conv.sum() < len(conv)
    plain = _plain_vertical_flow(field, starts, -1)
    assert np.array_equal(end, plain[0]) and np.array_equal(gn, plain[1])


def test_rows_the_flow_stops_are_not_handed_off(monkeypatch):
    # the fiber Hessian of ut-f is -f P, which the guard refuses for descent
    # where f > -NEWTON_GUARD_MARGIN; rows from f >= 0.2 are still there at
    # MAX_TIME = 0.1, so they reach MAX_TIME uncertified and stop where the flow
    # alone stops, with no Newton call
    field = f_ut_field(StiefelV2(4))
    seeds = random_points(field.spec, 40, np.random.default_rng(26))
    starts = seeds[f_ut_coords(field.spec, seeds) >= 0.2]
    monkeypatch.setattr(flow, "MAX_TIME", 0.1)
    lm_starts = _spy_lm(monkeypatch)
    end, gn, conv = vertical_flow_endpoints(field, starts)
    assert len(starts) >= 5 and not conv.any()
    assert (f_ut_coords(field.spec, end) > 0.0).all()
    assert lm_starts == []
    plain = _plain_vertical_flow(field, starts, -1)
    assert np.array_equal(end, plain[0]) and np.array_equal(gn, plain[1])


@pytest.mark.parametrize("direction", [-1, 1])
def test_certified_rows_hand_off_above_the_old_norm(monkeypatch, direction):
    # ut-f is a linear height on each fiber sphere, so one Newton step from a
    # point the guard admits lands on the section: theta is 0 to rounding, and
    # rows are certified far above gradient norm 1e-2, most of them at their
    # seeds.  Every row is handed off in one LM call and kept.
    field = f_ut_field(StiefelV2(4))
    seeds = random_points(field.spec, 50, np.random.default_rng(27))
    lm_starts = _spy_lm(monkeypatch)
    handoffs = _spy_handoffs(monkeypatch)
    end, gn, conv = vertical_flow_endpoints(field, seeds, direction=direction)
    assert conv.all() and (gn <= FlowConfig().grad_tol).all()
    assert [len(z) for z in lm_starts] == [50]
    handed = np.concatenate(handoffs)
    assert len(handed) == 50 and _guard_admits(field, handed, direction).all()
    assert np.sum(np.linalg.norm(vertical_gradient_coords(field, handed), axis=1) > 1e-2) >= 25
    assert np.linalg.norm(end[:, 4:] - direction * mult_i(end[:, :4]), axis=1).max() <= 1e-7
    assert np.array_equal(end[:, :4], seeds[:, :4])


CERTIFIED_FLOWS = {
    # certified at the seeds; refused near the saddles +-e3; refused at the
    # Newton limits on the Morse-Bott circle (descent)
    "ut-f stiefel:4": (lambda: f_ut_field(StiefelV2(4)),
                       lambda n, rng: random_points(StiefelV2(4), n, rng)),
    "saddle quadratic": (lambda: _fiber_quadratic([1.0, 2.0, 3.0, 4.0]), _frames_over_e1),
    "Morse-Bott quadratic": (lambda: _fiber_quadratic([0.0, 0.0, 0.0, 1.0],
                                                      linear=[0.0, 0.0, 0.0, -1.0]),
                             _frames_over_e1),
}


@pytest.mark.parametrize("direction", [-1, 1])
@pytest.mark.parametrize("case", list(CERTIFIED_FLOWS))
def test_certified_hand_off_does_not_depend_on_the_other_rows(monkeypatch, case, direction):
    # the stop predicate, the Newton finish and the end-point guard work row by
    # row: one call against 7-row chunks, bit for bit, and a NaN seed retires
    # only its own row
    make, draw = CERTIFIED_FLOWS[case]
    field = make()
    seeds = draw(40, np.random.default_rng(28))
    lm_starts = _spy_lm(monkeypatch)
    whole = vertical_flow_endpoints(field, seeds, direction=direction)
    assert whole[2].all() and sum(map(len, lm_starts)) > 0
    chunks = [vertical_flow_endpoints(field, seeds[i:i + 7], direction=direction)
              for i in range(0, 40, 7)]
    for got, parts in zip(whole, zip(*chunks)):
        assert np.array_equal(got, np.concatenate(parts))
    bad = seeds.copy()
    bad[13] = np.nan
    broken = vertical_flow_endpoints(field, bad, direction=direction)
    assert not broken[2][13]
    others = np.arange(40) != 13
    for got, want in zip(broken, whole):
        assert np.array_equal(got[others], want[others])


@pytest.mark.parametrize("direction", [-1, 1])
@pytest.mark.parametrize("case", list(CERTIFIED_FLOWS))
def test_inertia_guard_admits_the_rows_the_old_guard_admits(case, direction):
    # at the seeds and at the endpoints of the vertical flows, which include
    # saddles and points of a Morse-Bott circle, the guard through flow.inertia
    # admits exactly the rows of the rule it replaced
    make, draw = CERTIFIED_FLOWS[case]
    field = make()
    seeds = draw(40, np.random.default_rng(28))
    ends = vertical_flow_endpoints(field, seeds, direction=direction)[0]
    for pts in (seeds, ends):
        got = _inertia_guard(_fibers(field), pts, direction)
        assert np.array_equal(got, _guard_admits(field, pts, direction))


def test_integrate_flow_trace_matches_closed_form():
    spec = Sphere(2)
    start = project_to_manifold(spec, [0.3, 0.1, 0.9])
    trace = integrate_flow(height_field(spec), start)
    assert (np.diff(trace.times) > 0).all()
    exact = _height_flow_closed_form(trace.coords[0], trace.times)
    assert np.max(np.linalg.norm(trace.coords - exact, axis=1)) <= 1e-7
    # adaptive steps; fixed steps of 1e-2 recorded 2,090 entries on this flow
    assert len(trace.times) < 500


def test_flow_trace_serialization(monkeypatch):
    spec = Sphere(2)
    field = height_field(spec)
    start = project_to_manifold(spec, [0.3, 0.1, 0.9])
    monkeypatch.setattr(flow, "MAX_TIME", 1.0)
    trace = integrate_flow(field, start, FlowConfig(grad_tol=1e-3))
    csv_text = trace.to_csv()
    assert csv_text.splitlines()[0] == "t,x0,x1,x2,F,gradnorm"
    payload = trace.to_json()
    assert payload["schema"] == "v1"
    assert len(payload["times"]) == len(payload["values"])


def test_detect_critical_s1_pair():
    rng = np.random.default_rng(1)
    field = nav_field(Sphere(1), 2)
    seeds = random_points(field.spec, 100, rng)
    comps = find_critical_components(field, seeds)
    values = sorted(round(c.value, 6) for c in comps)
    assert values == [0.0, 4.0]
    labels = {c.label for c in comps}
    assert labels == {"++", "+-"}


def test_detect_critical_single_diagonal_seed():
    field = nav_field(Sphere(1), 2)
    x = np.array([1.0, 0.0])
    seeds = np.tile(np.concatenate([x, x]), (5, 1))
    comps = detect_critical(field, seeds)
    assert len(comps) == 1
    assert abs(comps[0].value) <= 1e-12


def test_detect_critical_with_newton_refined_seeds():
    # the flow alone cannot reach saddle components (their basins have
    # measure zero); feeding Newton-refined seeds recovers the full set
    rng = np.random.default_rng(2)
    field = nav_field(Sphere(3), 3)
    seeds = random_points(field.spec, 150, rng)
    refined = newton_critical_search(field, seeds)
    end_lo, _, conv_lo = flow_endpoints(field, seeds, direction=-1)
    end_hi, _, conv_hi = flow_endpoints(field, seeds, direction=+1)
    pool = np.vstack([refined, end_lo[conv_lo], end_hi[conv_hi]])
    comps = detect_critical(field, pool)
    values = sorted(set(round(c.value, 5) for c in comps))
    assert values == [0.0, 4.0, 8.0]


def test_detected_values_lie_in_navigation_value_set():
    rng = np.random.default_rng(3)
    field = nav_field(ProductSpheres((1, 1)), 2)
    comps = find_critical_components(field, random_points(field.spec, 150, rng))
    allowed = {0.0, 4.0, 8.0}
    for c in comps:
        assert min(abs(c.value - a) for a in allowed) <= 1e-5


def test_no_converged_seeds(monkeypatch):
    spec = Sphere(2)
    field = height_field(spec)
    equator = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    monkeypatch.setattr(flow, "MAX_TIME", 0.05)
    with pytest.raises(NoConvergedSeeds, match="within time 0.05"):
        detect_critical(field, equator, FlowConfig(grad_tol=1e-12))
    for detect in (detect_critical, find_critical_components):
        with pytest.raises(NoConvergedSeeds, match="seed set is empty"):
            detect(field, np.empty((0, 3)))


def test_step_halving_changes_endpoint_little(monkeypatch):
    rng = np.random.default_rng(4)
    field = nav_field(Sphere(1), 2)
    seeds = random_points(field.spec, 20, rng)
    monkeypatch.setattr(flow, "FIRST_STEP", 1e-2)
    end1, _, conv1 = flow_endpoints(field, seeds)
    monkeypatch.setattr(flow, "FIRST_STEP", 5e-3)
    end2, _, conv2 = flow_endpoints(field, seeds)
    assert conv1.all() and conv2.all()
    assert np.max(np.linalg.norm(end1 - end2, axis=1)) <= 1e-6


def test_flow_stops_when_every_step_raises_the_value():
    # value = x[-1] contradicts the gradient -e_last, so every descent step
    # raises F and is rejected until the step falls below the floor
    calls = []

    def grad(x):
        calls.append(x.shape[0])
        g = np.zeros_like(x)
        g[..., -1] = -1.0
        return g

    field = ScalarField(Sphere(2), lambda x: x[..., -1], grad)
    seeds = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.6, 0.0, -0.8]])
    end, _gn, conv = flow_endpoints(field, seeds)
    assert not conv.any()
    assert np.allclose(end, seeds, atol=1e-15)
    # a few dozen rejected steps, not max_time / STEP_FLOOR of them
    assert len(calls) < 250


def test_classifier_domain_errors_become_unclassified():
    rng = np.random.default_rng(11)
    field = height_field(Sphere(2))

    def reject(p):
        raise NotCriticalTuple("not a structural critical point")

    field.classifier = reject
    comps = detect_critical(field, random_points(field.spec, 20, rng))
    assert [c.label for c in comps] == ["unclassified"]


@pytest.mark.parametrize("make", [lambda: nav_field(Sphere(3), 3),
                                  lambda: f_ut_field(StiefelV2(4))])
def test_cluster_endpoints_classifies_each_value_group_once(make):
    rng = np.random.default_rng(8)
    field = make()
    if isinstance(field.spec, StiefelV2):  # x2 = +-i x1: the two critical values +-1
        x1 = random_points(Sphere(3), 40, rng)
        signs = rng.choice([-1.0, 1.0], size=(40, 1))
        pts = np.concatenate([x1, signs * mult_i(x1)], axis=1)
        groups, labels = 2, {"+i", "-i"}
    else:  # (S^3)^3 tuples (x, +-x, +-x): values 0, 4 and 8
        base = random_points(Sphere(3), 40, rng)
        signs = np.concatenate([np.ones((40, 1)), rng.choice([-1.0, 1.0], size=(40, 2))], axis=1)
        pts = (signs[:, :, None] * base[:, None, :]).reshape(40, -1)
        groups, labels = 3, {"+++", "++-", "+--", "+-+"}
    calls = []
    classify = field.classifier

    def counted(batch):
        calls.append(len(batch))
        return classify(batch)

    field.classifier = counted
    comps = flow._cluster_endpoints(field, pts, FlowConfig())
    assert len(calls) == groups and sum(calls) == len(pts)
    assert {c.label for c in comps} == labels
    assert sum(len(c.representatives) for c in comps) == len(pts)


def test_classifier_programming_errors_propagate():
    rng = np.random.default_rng(11)
    field = height_field(Sphere(2))
    field.classifier = lambda p: 1 / 0
    with pytest.raises(ZeroDivisionError):
        detect_critical(field, random_points(field.spec, 20, rng))


def test_descent_diagnostic_nav():
    rng = np.random.default_rng(5)
    field = nav_field(Sphere(1), 2)
    report = descent_diagnostic(field, random_points(field.spec, 100, rng))
    assert report.all_positive
    assert report.min_decrement > 0


def test_descent_diagnostic_critical_excluded():
    field = nav_field(Sphere(1), 2)
    x = np.array([1.0, 0.0])
    diag = np.concatenate([x, x])[None, :]
    report = descent_diagnostic(field, diag)
    assert report.n_noncritical == 0
    assert report.all_positive


def test_descent_diagnostic_equator_height():
    spec = Sphere(2)
    field = height_field(spec)
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    samples = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    report = descent_diagnostic(field, samples)
    assert report.all_positive
    assert report.min_decrement > 0


def test_descent_report_json():
    field = nav_field(Sphere(1), 2)
    x = np.array([1.0, 0.0])
    moving = descent_diagnostic(field, random_points(field.spec, 20, np.random.default_rng(5)))
    fixed = descent_diagnostic(field, np.concatenate([x, x])[None, :])
    assert moving.to_json() == {"schema": "v1", "n_samples": 20,
                                "n_noncritical": moving.n_noncritical,
                                "min_decrement": moving.min_decrement, "all_positive": True}
    # with no noncritical sample there is no decrement to report
    assert fixed.to_json() == {"schema": "v1", "n_samples": 1, "n_noncritical": 0,
                               "min_decrement": None, "all_positive": True}


def test_fd_gradient_fallback():
    spec = Sphere(2)
    field = ScalarField(spec, lambda x: np.sum(x**3, axis=-1))
    rng = np.random.default_rng(6)
    pts = random_points(spec, 50, rng)
    fd = field.euclidean_gradient_at(pts)
    exact = 3.0 * pts**2
    rel = np.linalg.norm(fd - exact, axis=1) / np.maximum(np.linalg.norm(exact, axis=1), 1.0)
    assert np.max(rel) <= 1e-5


def test_fd_hessian_fallback():
    # no Hessian given: central differences of the gradient, analytic or not
    spec = Sphere(2)
    rng = np.random.default_rng(6)
    pts = random_points(spec, 50, rng)
    exact = 6.0 * pts[:, :, None] * np.eye(3)
    for grad in (lambda x: 3.0 * x**2, None):
        field = ScalarField(spec, lambda x: np.sum(x**3, axis=-1), grad)
        fd = field.euclidean_hessian_at(pts)
        assert fd.shape == (50, 3, 3)
        assert np.abs(fd - exact).max() <= (1e-8 if grad else 1e-4) * np.abs(exact).max()


def _gradient_differences(field, x, t=1e-6):
    cols = []
    for k in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[k] = t
        cols.append((field.euclidean_gradient_at(x + e) - field.euclidean_gradient_at(x - e))
                    / (2.0 * t))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("name", ["nav-s1-r3", "nav-product-r2", "ut-f", "height",
                                  "base-height"])
def test_field_hessians_match_gradient_differences(name):
    from lsnav.manifolds import StiefelV2
    from lsnav.unit_tangent import base_height_field, f_ut_field

    field = {"nav-s1-r3": lambda: nav_field(Sphere(1), 3),
             "nav-product-r2": lambda: nav_field(ProductSpheres((1, 3)), 2),
             "ut-f": lambda: f_ut_field(StiefelV2(4)),
             "height": lambda: height_field(Sphere(2)),
             "base-height": lambda: base_height_field(StiefelV2(4))}[name]()
    assert field.euclidean_hessian is not None
    x = np.random.default_rng(12).standard_normal((5, field.spec.ambient_dim))
    hess = field.euclidean_hessian_at(x)
    assert hess.shape == (5,) + (field.spec.ambient_dim,) * 2
    assert np.abs(hess - _gradient_differences(field, x)).max() <= 1e-8


@pytest.mark.parametrize("case", ["ut-f-stiefel:4", "nav-sphere:1"])
def test_nan_seed_does_not_abort_detection(case):
    from lsnav.manifolds import StiefelV2
    from lsnav.unit_tangent import f_ut_field

    field = f_ut_field(StiefelV2(4)) if case.startswith("ut-f") else nav_field(Sphere(1), 2)
    seeds = random_points(field.spec, 24, np.random.default_rng(3))
    with_nan = np.insert(seeds, 10, np.nan, axis=0)
    assert [(c.value, c.label) for c in find_critical_components(field, with_nan)] == \
        [(c.value, c.label) for c in find_critical_components(field, seeds)]


def _one_bad_seed_case(case):
    """A field and a seed its manifold cannot project."""
    from lsnav.manifolds import StiefelV2
    from lsnav.unit_tangent import f_ut_field

    if case == "nav-sphere:1-zero-block":
        return nav_field(Sphere(1), 2), np.array([0.0, 0.0, 1.0, 0.0])
    if case == "ut-f-stiefel:4-rank-deficient":
        x1 = np.array([1.0, 2.0, -1.0, 0.5])
        return f_ut_field(StiefelV2(4)), np.concatenate([x1, x1])
    return height_field(_torus()), np.array([2.0, 0.0, 0.0])  # on the core circle


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["nav-sphere:1-zero-block", "ut-f-stiefel:4-rank-deficient",
                                  "height-torus-core-circle"])
def test_one_bad_seed_costs_one_row(case):
    field, bad = _one_bad_seed_case(case)
    seeds = random_points(field.spec, 199, np.random.default_rng(11))

    def summary(seeds):
        return [(c.value, c.label, c.representatives.shape[0])
                for c in find_critical_components(field, seeds)]

    assert summary(np.insert(seeds, 57, bad, axis=0)) == summary(seeds)


def _torus():
    from lsnav.constraints import torus_of_revolution_field
    from lsnav.manifolds import ImplicitHypersurface

    return ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25)


@pytest.mark.parametrize("scale", [
    pytest.param(1000.0, marks=pytest.mark.xfail(
        strict=True, raises=NoConvergedSeeds,
        reason="ROADMAP item 18: Newton's step cap is absolute")),
    pytest.param(1e-6, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 18: cluster_tol fuses the poles in absolute units")),
], ids=["1000*(1,2,3)-converges-nowhere", "1e-6*(1,2,3)-fuses-the-poles"])
def test_height_on_a_large_ellipsoid_finds_its_two_poles(scale):
    # the height on scale (1, 2, 3) has two critical points, its poles at +-3 scale
    spec = Ellipsoid((scale, 2.0 * scale, 3.0 * scale))
    comps = find_critical_components(height_field(spec),
                                     random_points(spec, 200, np.random.default_rng(0)))
    assert [round(1000 * c.value / scale) for c in comps] == [-3000, 3000]


@pytest.mark.parametrize("n_seeds", [50, 100, 400])
def test_torus_height_gives_one_component_per_critical_circle(n_seeds):
    # the circles z = +-r are Morse-Bott: Newton lands on them at scattered
    # points, which continuation along the Hessian kernel joins up
    surface = _torus()
    field = height_field(surface)
    for rng_seed in range(3):
        seeds = random_points(surface, n_seeds, np.random.default_rng([rng_seed, n_seeds]))
        comps = find_critical_components(field, seeds)
        assert [round(c.value, 6) for c in comps] == [-0.5, 0.5]


def test_morse_bott_merge_keeps_disjoint_circles_apart():
    # z^2 on the torus: the inner and outer equators at value 0 and the top and
    # bottom circles at 0.25 are four disjoint critical circles
    surface = _torus()
    field = ScalarField(surface, lambda x: x[..., 2] ** 2,
                        lambda x: np.stack([0.0 * x[..., 0], 0.0 * x[..., 1], 2.0 * x[..., 2]], -1),
                        euclidean_hessian=lambda x: np.diag([0.0, 0.0, 2.0]))
    for n_seeds in (50, 100, 400):
        seeds = random_points(surface, n_seeds, np.random.default_rng([0, n_seeds]))
        comps = find_critical_components(field, seeds)
        assert [round(c.value, 6) for c in comps] == [0.0, 0.0, 0.25, 0.25]
        radii = sorted(round(float(np.hypot(*c.representatives[0, :2])), 6) for c in comps)
        assert radii == [1.5, 2.0, 2.0, 2.5]


@pytest.mark.parametrize("radius", [0.1, 1.0])
def test_isolated_critical_points_closer_than_the_linkage_distance_stay_apart(radius):
    # z^2 on a sphere of this radius: the equator at 0 and the two poles at r^2.
    # At r = 0.1 the poles are 0.2 apart, inside POINT_MERGE_DIST; their Hessian
    # has no kernel, so they are grouped only where their points coincide
    spec = Ellipsoid((radius,) * 3)
    field = ScalarField(spec, lambda x: x[..., 2] ** 2,
                        lambda x: np.stack([0.0 * x[..., 0], 0.0 * x[..., 1], 2.0 * x[..., 2]], -1),
                        euclidean_hessian=lambda x: np.diag([0.0, 0.0, 2.0]))
    comps = find_critical_components(field, random_points(spec, 200, np.random.default_rng(0)))
    assert [round(c.value / radius**2, 6) for c in comps] == [0.0, 1.0, 1.0]
    poles = sorted(float(p[2]) for c in comps[1:] for p in c.representatives)
    assert np.allclose(poles[:1] + poles[-1:], [-radius, radius], atol=1e-9)
    assert all(np.ptp(c.representatives, axis=0).max() <= 1e-9 for c in comps[1:])


def test_isolated_point_first_in_a_cluster_with_a_critical_circle():
    # f = (1 - z)(z - 0.88)^2 on S^2 is 0 at the north pole, a nondegenerate
    # minimum, and on the circle z = 0.88, 0.49 from the pole, at draws where the
    # pole comes first.  The pole has no Hessian kernel and stays apart; the
    # circle's points have one and stay one component, and no walk arrives at the pole
    field = _pole_and_circle()
    for rng_seed in range(5, 9):
        seeds = random_points(field.spec, 300, np.random.default_rng(rng_seed))
        comps = [c for c in find_critical_components(field, seeds, FlowConfig(cluster_tol=1e-6))
                 if abs(c.value) < 1e-9]
        heights = [np.unique(np.round(c.representatives[:, 2], 6)).tolist() for c in comps]
        assert sorted(heights) == [[0.88], [1.0]]


def test_isolated_point_beside_a_critical_circle_is_its_own_component():
    # -(1 - z)(z - 0.88)^2: the pole is a nondegenerate maximum at value 0, 0.49
    # from the critical circle z = 0.88 at the same value.  Each point is judged
    # by its own kernel test, so the pole is a component of its own whatever
    # point comes first; a draw where Newton misses the pole has the circle alone
    field = _pole_and_circle(-1.0)
    found_pole = 0
    for rng_seed in range(12):
        seeds = random_points(field.spec, 300, np.random.default_rng(rng_seed))
        comps = [c for c in find_critical_components(field, seeds, FlowConfig(cluster_tol=1e-6))
                 if abs(c.value) < 1e-9]
        heights = sorted(np.unique(np.round(c.representatives[:, 2], 6)).tolist() for c in comps)
        assert heights in ([[0.88]], [[0.88], [1.0]])
        found_pole += len(heights) == 2
    assert found_pole >= 11


@pytest.mark.parametrize("a", [30.0, 100.0])
def test_degenerate_isolated_minimum_is_one_component(a):
    # a x^4 + y^2 on S^2: the poles are isolated minima, degenerate along x.
    # Newton's points scatter along x by some 1e-5, and the Hessian's x
    # eigenvalue, 12 a x^2, falls on either side of the kernel threshold; the
    # points without a kernel join the points they coincide with
    field = _quartic_minima(a)
    for rng_seed in range(4):
        seeds = random_points(field.spec, 300, np.random.default_rng(rng_seed))
        found = newton_critical_search(field, seeds)
        kernel = _kernel_flags(field, found)
        assert 0 < kernel.sum() < len(found)  # the tests disagree
        comps = [c for c in find_critical_components(field, seeds) if abs(c.value) < 1e-6]
        assert sorted(round(float(c.representatives[0, 2])) for c in comps) == [-1, 1]


def _kernel_flags(field, pts):
    """The Morse-Bott merge's kernel test, as ``flow._morse_bott_merge`` runs it: the
    ``flow.inertia`` nullity of one ``eigh``, less the ambient minus ``spec.dim``
    normal directions, is positive."""
    lam = np.linalg.eigh(field.riemannian_hessian(pts))[0]
    return flow.inertia(lam, pts.shape[-1] - field.spec.dim).nullity > 0


def _reference_kernel(field, pts):
    """The merge's kernel test as it was written before ``flow.inertia``: the
    eigenvectors E of the eigenvalues within MERGE_KERNEL_TOL (1 + max |lambda|)
    span the kernel plus the normal space, and the projector P E E^T P onto their
    tangent part has trace above 1/2."""
    lam, vec = np.linalg.eigh(field.riemannian_hessian(pts))
    small = np.abs(lam) <= flow.MERGE_KERNEL_TOL * (1.0 + np.abs(lam).max(axis=-1, keepdims=True))
    pe = project_tangent(field.spec, pts[:, None, :], np.swapaxes(vec * small[:, None, :], -1, -2))
    return np.trace(np.swapaxes(pe, -1, -2) @ pe, axis1=-2, axis2=-1) > 0.5


SPECTRUM_FIELDS = {
    "height torus(2,0.5)": lambda: height_field(_torus()),
    "30 x^4 + y^2": lambda: _quartic_minima(30.0),
    "100 x^4 + y^2": lambda: _quartic_minima(100.0),
    "1000 x^4 + y^2": lambda: _quartic_minima(1000.0),
}


@pytest.mark.parametrize("case", list(SPECTRUM_FIELDS))
def test_inertia_keeps_the_old_kernel_test_and_guard(case):
    # the merge's kernel flags and the guard's admissions through flow.inertia
    # and ManifoldSpec.dim are those of the rules they replaced, at 300 Newton
    # points per draw and at the seeds, in both directions.  The torus's Newton
    # points lie on critical circles; on S^2, a x^4 + y^2 has minima degenerate
    # along x, whose kernel tests straddle the threshold at a = 30 and 100 and
    # all read no kernel at a = 1000
    field = SPECTRUM_FIELDS[case]()
    flags, admitted = set(), set()
    for rng_seed in range(4):
        seeds = random_points(field.spec, 300, np.random.default_rng(rng_seed))
        found = newton_critical_search(field, seeds)
        kernel = _kernel_flags(field, found)
        assert np.array_equal(kernel, _reference_kernel(field, found))
        flags.update(kernel.tolist())
        for pts, direction in product((seeds, found), (-1, 1)):
            got = _inertia_guard(field, pts, direction)
            assert np.array_equal(got, _reference_guard(field, pts, direction))
            admitted.update(got.tolist())
    assert flags == {"height torus(2,0.5)": {True}, "1000 x^4 + y^2": {False}}.get(
        case, {True, False})
    assert admitted == {True, False}


def _reference_merge(field, pts, dist, cfg):
    """The Morse-Bott merge of one value group on its own, in calls of its own:
    isolated points grouped point by point, each group joining the least label
    within cluster_tol, and kernel points linked and walked."""
    kernel = _reference_kernel(field, pts)
    labels = np.full(len(pts), -1)
    labels[kernel] = flow._single_linkage(dist[np.ix_(kernel, kernel)], flow.POINT_MERGE_DIST)
    n = labels.max() + 1
    for i in np.flatnonzero(~kernel):
        if labels[i] < 0:
            near = labels[(labels >= 0) & (dist[i] <= cfg.cluster_tol)]
            labels[(labels < 0) & (dist[i] <= cfg.cluster_tol)] = near.min() if near.size else n
            n += near.size == 0
    tried = np.zeros((n, n), dtype=bool)
    root = np.arange(n)
    while True:
        comp = root[labels]
        open_ = ((comp[:, None] != comp[None, :]) & ~tried[labels[:, None], labels[None, :]]
                 & kernel[:, None] & kernel[None, :])
        gap = np.where(open_, dist, np.inf)
        starts, targets = [], []
        for c in np.unique(comp[kernel]):
            rows = np.flatnonzero(comp == c)
            i, j = np.unravel_index(np.argmin(gap[rows]), (rows.size, len(pts)))
            if np.isfinite(gap[rows[i], j]):
                starts.append(rows[i])
                targets.append(j)
        if not starts:
            return np.unique(comp, return_inverse=True)[1]
        for i, j in zip(starts, targets):
            a, b = root == comp[i], root == comp[j]
            tried |= np.outer(a, b) | np.outer(b, a)
        hit = flow._follow_kernel(field, pts, np.array(starts), np.array(targets),
                                  kernel & (comp[None, :] != comp[starts][:, None]), cfg)
        for i, j in zip(starts, hit):
            if j >= 0:
                root[root == root[labels[j]]] = root[labels[i]]


def _per_group_components(field, endpoints, cfg):
    """(value, label, representatives) of the components that clustering each
    value group on its own gives."""
    values = field.value_at(endpoints)
    order = np.argsort(values, kind="stable")
    endpoints, values = endpoints[order], values[order]
    out = []
    cuts = np.flatnonzero(np.diff(values) > 10.0 * cfg.cluster_tol)
    for group in np.split(np.arange(len(values)), cuts + 1):
        pts, vals = endpoints[group], values[group]
        dist = np.array([np.linalg.norm(pts - p, axis=-1) for p in pts])
        cl = _reference_merge(field, pts, dist, cfg)
        for c in range(cl.max() + 1):
            sel = cl == c
            out.append((float(np.mean(vals[sel])), "unclassified",
                        pts[sel][np.lexsort(pts[sel].T[::-1])]))
    return sorted(out, key=lambda c: c[0])


def _z_squared(spec):
    return ScalarField(spec, lambda x: x[..., 2] ** 2,
                       lambda x: np.stack([0.0 * x[..., 0], 0.0 * x[..., 1], 2.0 * x[..., 2]], -1),
                       euclidean_hessian=lambda x: np.diag([0.0, 0.0, 2.0]))


def _pole_and_circle(sign=1.0):
    # sign (1 - z)(z - 0.88)^2 on S^2: a point and a circle at value 0, 0.49 apart
    z0 = 0.88
    return ScalarField(
        Sphere(2), lambda x: sign * (1.0 - x[..., 2]) * (x[..., 2] - z0) ** 2,
        lambda x: np.stack([0.0 * x[..., 0], 0.0 * x[..., 1],
                            -sign * (x[..., 2] - z0) * (3.0 * x[..., 2] - 2.0 - z0)], -1),
        euclidean_hessian=lambda x: np.einsum("...,ij->...ij",
                                              sign * (2.0 + 4.0 * z0 - 6.0 * x[..., 2]),
                                              np.diag([0.0, 0.0, 1.0])))


def _quartic_minima(a):
    # a x^4 + y^2 on S^2: two isolated minima at the poles, degenerate along x
    return ScalarField(Sphere(2), lambda x: a * x[..., 0] ** 4 + x[..., 1] ** 2,
                       lambda x: np.stack([4.0 * a * x[..., 0] ** 3, 2.0 * x[..., 1],
                                           0.0 * x[..., 2]], -1),
                       euclidean_hessian=lambda x: np.einsum(
                           "...,ij->...ij", 12.0 * a * x[..., 0] ** 2, np.diag([1.0, 0.0, 0.0]))
                       + np.diag([0.0, 2.0, 0.0]))


POOLED_MERGE_CASES = {
    # (field, seeds, rng seeds, cluster_tol)
    "height torus(2,0.5)": (lambda: height_field(_torus()), 100, (0, 1, 2), 1e-4),
    "z^2 torus(2,0.5)": (lambda: _z_squared(_torus()), 100, (0, 1, 2), 1e-4),
    "z^2 sphere radius 0.1": (lambda: _z_squared(Ellipsoid((0.1,) * 3)), 200, (0,), 1e-4),
    "pole and circle on S^2": (_pole_and_circle, 300, (5, 6), 1e-6),
    "pole maximum and circle on S^2": (lambda: _pole_and_circle(-1.0), 300, (0, 1), 1e-6),
    "degenerate minima on S^2": (lambda: _quartic_minima(30.0), 300, (0, 1), 1e-4),
}


@pytest.mark.parametrize("case", list(POOLED_MERGE_CASES))
def test_pooled_merge_matches_the_merge_of_each_value_group(monkeypatch, case):
    # one Morse-Bott merge over all value groups gives, bit for bit, the
    # components of one merge per group, and its rounds walk every group at once
    make, n, rng_seeds, tol = POOLED_MERGE_CASES[case]
    field = make()
    cfg = FlowConfig(cluster_tol=tol)
    calls = []
    follow = flow._follow_kernel

    def spy(field, pts, starts, targets, others, cfg):
        calls.append(np.unique(np.round(field.value_at(pts[starts]), 6)).size)
        return follow(field, pts, starts, targets, others, cfg)

    for rng_seed in rng_seeds:
        found = newton_critical_search(field, random_points(field.spec, n,
                                                            np.random.default_rng(rng_seed)))
        want = _per_group_components(field, found, cfg)
        monkeypatch.setattr(flow, "_follow_kernel", spy)
        comps = flow._cluster_endpoints(field, found, cfg)
        monkeypatch.setattr(flow, "_follow_kernel", follow)
        assert len(comps) == len(want)
        for c, (value, label, reps) in zip(comps, want):
            assert (c.value, c.label) == (value, label)
            assert np.array_equal(c.representatives, reps)
    if case.endswith("torus(2,0.5)"):
        assert max(calls) == 2  # walks at both values in one call


def test_pooled_merge_keeps_value_groups_apart():
    # z^2 on the torus (0.4, 0.1) at level 0.01: equators at 0 and the top and
    # bottom circles at 0.01 lie within POINT_MERGE_DIST of each other, and a
    # walk arrives only in its own value group
    field = _z_squared(ImplicitHypersurface(torus_of_revolution_field(0.4, 0.1), 0.01))
    cfg = FlowConfig()
    comps = find_critical_components(field, random_points(field.spec, 200,
                                                          np.random.default_rng(0)), cfg)
    assert {round(c.value, 6) for c in comps} == {0.0, 0.01}
    for c in comps:
        assert np.ptp(field.value_at(c.representatives)) <= 10.0 * cfg.cluster_tol


ROW_ORDER_CASES = {
    # (field, seeds, cluster_tol)
    "height torus(2,0.5)": (lambda: height_field(_torus()), 200, 1e-4),
    "z^2 torus(2,0.5)": (lambda: _z_squared(_torus()), 200, 1e-4),
    "pole and circle on S^2": (_pole_and_circle, 300, 1e-6),
    "pole maximum and circle on S^2": (lambda: _pole_and_circle(-1.0), 300, 1e-6),
}


@pytest.mark.parametrize("case", list(ROW_ORDER_CASES))
def test_clustering_does_not_depend_on_row_order(case):
    # the same components from permuted rows: representatives bit for bit after
    # their lexsort, values up to the order of the mean's sum
    make, n, tol = ROW_ORDER_CASES[case]
    field = make()
    cfg = FlowConfig(cluster_tol=tol)

    def components(pts):
        comps = flow._cluster_endpoints(field, pts, cfg)
        return sorted(comps, key=lambda c: (round(c.value, 9), c.representatives[0].tobytes()))

    for rng_seed in range(3):
        found = newton_critical_search(field, random_points(field.spec, n,
                                                            np.random.default_rng(rng_seed)))
        want = components(found)
        got = components(found[np.random.default_rng([29, rng_seed]).permutation(len(found))])
        assert len(got) == len(want)
        for c, w in zip(got, want):
            assert c.representatives.tobytes() == w.representatives.tobytes()
            assert abs(c.value - w.value) <= 1e-12


def test_isolated_points_cluster_without_a_distance_matrix():
    # the height on the ellipsoid (1,2,3) from 4,000 seeds: two nondegenerate
    # poles of about 2,000 points each.  Each point's kernel test marks it
    # isolated, and points are grouped where they coincide, with no n x n
    # distance matrix or edge list (the per-cluster merge peaked at 156 MB)
    field = height_field(Ellipsoid((1.0, 2.0, 3.0)))
    found = newton_critical_search(field, random_points(field.spec, 4000,
                                                        np.random.default_rng(0)))
    tracemalloc.start()
    try:
        comps = flow._cluster_endpoints(field, found, FlowConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [round(c.value, 9) for c in comps] == [-3.0, 3.0]
    assert sum(len(c.representatives) for c in comps) == len(found) == 4000
    assert peak <= 8 * 2**20


def _bfs_clusters(points, threshold):
    """Reference single linkage: a breadth-first search from each unlabelled
    point in row order, so clusters are numbered by their first row."""
    labels = -np.ones(len(points), dtype=int)
    current = 0
    for i in range(len(points)):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            near = np.flatnonzero((np.linalg.norm(points - points[j], axis=-1) <= threshold)
                                  & (labels < 0))
            labels[near] = current
            stack.extend(near.tolist())
        current += 1
    return labels


def _point_sets():
    rng = np.random.default_rng(5)
    for n, d in ((40, 2), (120, 3), (300, 4)):
        yield rng.uniform(-1.0, 1.0, size=(n, d))
    # chains along circles in shuffled row order, with uneven spacing, so that
    # a threshold near the mean spacing cuts a chain into arcs
    for n in (12, 75, 200):
        angles = (rng.permutation(n) + rng.uniform(-0.3, 0.3, n)) * 2.0 * np.pi / n
        yield np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    # a sparse integer grid: at threshold 1 neighbours sit exactly at the threshold
    yield rng.permutation(np.argwhere(rng.random((8, 8)) < 0.6)).astype(float)
    yield np.zeros((1, 3))


@pytest.mark.parametrize("threshold", [0.035, 0.05, 0.1, 0.2, 0.5, 1.0])
def test_single_linkage_matches_breadth_first_search(threshold):
    for pts in _point_sets():
        dist = np.array([np.linalg.norm(pts - p, axis=-1) for p in pts])
        assert np.array_equal(flow._single_linkage(dist, threshold),
                              _bfs_clusters(pts, threshold))


def _reference_single_linkage(dist, threshold):
    """Single linkage as it was before it read the matrix once: a masked minimum
    over the whole neighbour matrix per pointer-jumping pass."""
    near = dist <= threshold
    labels = np.arange(len(dist))
    grid = np.broadcast_to(labels, near.shape)
    while True:
        new = np.minimum.reduce(grid, axis=1, where=near, initial=len(labels))
        new = np.minimum(new, labels, out=new)[new]
        if (new == labels).all():
            return np.unique(labels, return_inverse=True)[1]
        labels[:] = new


def _coordinate_distances(pts):
    return np.sqrt(sum((c[:, None] - c) ** 2 for c in pts.T))


@pytest.mark.parametrize("n, d", [(0, 3), (1, 3), (7, 1), (300, 2), (2513, 3), (40, 12)])
def test_pairwise_distances_match_the_coordinate_sums_in_place(n, d):
    # the same bits as summing the squared coordinate differences in order, with
    # one result array and a small scratch instead of n x n temporaries
    pts = np.random.default_rng([36, n, d]).standard_normal((n, d))
    tracemalloc.start()
    try:
        got = flow._pairwise_distances(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == _coordinate_distances(pts).reshape(n, n).tobytes()
    assert peak <= 8 * n * n + 2**20  # the result, the scratch and ufunc buffers


def test_single_linkage_matches_the_matrix_pass_reference():
    rng = np.random.default_rng(35)
    angles = rng.uniform(0.0, 2.0 * np.pi, 2500)
    circle = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    # a chain in shuffled row order, cut where a gap exceeds the threshold
    chain = np.cumsum(rng.uniform(0.3, 0.6, 300))[rng.permutation(300), None]
    surface = ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25)
    torus = newton_critical_search(height_field(surface),
                                   random_points(surface, 500, np.random.default_rng([5, 500])))
    cases = [(circle, 0.5, 1), (chain, 0.5, None), (np.zeros((1, 3)), 0.5, 1),
             (torus, flow.POINT_MERGE_DIST, None), (torus, FlowConfig().cluster_tol, None)]
    for pts, threshold, clusters in cases:
        dist = _coordinate_distances(pts)
        got = flow._single_linkage(dist, threshold)
        assert np.array_equal(got, _reference_single_linkage(dist, threshold))
        assert clusters is None or got.max() + 1 == clusters
    assert 1 < flow._single_linkage(_coordinate_distances(chain), 0.5).max() < 299


def test_flow_config_validation():
    for name in ("grad_tol", "cluster_tol"):
        for bad in (-1.0, 0.0, np.inf, -np.inf):
            with pytest.raises(ValueError):
                FlowConfig(**{name: bad})


@pytest.mark.parametrize("name", ["grad_tol", "cluster_tol"])
def test_flow_config_rejects_nan(name):
    with pytest.raises(ValueError):
        FlowConfig(**{name: float("nan")})


def test_flow_config_accepts_a_large_first_step(monkeypatch):
    # the adaptive driver shrinks a first step that is too large
    field = height_field(Sphere(2))
    start = project_to_manifold(Sphere(2), [0.3, 0.1, 0.9]).coords[None, :]
    monkeypatch.setattr(flow, "FIRST_STEP", 5.0)
    end, _, conv = flow_endpoints(field, start)
    assert conv.all()
    assert np.linalg.norm(end[0] - [0.0, 0.0, -1.0]) <= 1e-6


def test_detect_critical_distance_clustering_without_classifier():
    rng = np.random.default_rng(7)
    spec = Sphere(2)
    field = height_field(spec)
    comps = detect_critical(field, random_points(spec, 30, rng))
    assert len(comps) == 1
    assert abs(comps[0].value + 1.0) <= 1e-6
    assert comps[0].label == "unclassified"


def test_components_json():
    from lsnav.flow import components_to_json

    rng = np.random.default_rng(8)
    field = nav_field(Sphere(1), 2)
    comps = find_critical_components(field, random_points(field.spec, 60, rng))
    payload = components_to_json(comps)
    assert payload["schema"] == "v1"
    assert len(payload["components"]) == len(comps)
    assert all("representative" in c for c in payload["components"])


def test_component_invariants():
    # every representative converged below grad_tol and sits at the
    # component value up to cluster_tol
    rng = np.random.default_rng(9)
    cfg = FlowConfig()
    field = nav_field(Sphere(1), 2)
    comps = find_critical_components(field, random_points(field.spec, 80, rng), cfg)
    for c in comps:
        gn = field.gradient_norm(c.representatives)
        assert (gn <= cfg.grad_tol).all()
        vals = field.value_at(c.representatives)
        assert np.max(np.abs(vals - c.value)) <= cfg.cluster_tol
