import numpy as np
import pytest

from lsnav import flow
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
    PointOnM,
    ProductSpheres,
    Sphere,
    StiefelV2,
    mult_i,
    project_to_manifold,
    random_points,
)
from lsnav.navigation import nav_field
from lsnav.unit_tangent import f_ut_field, vertical_flow_endpoints


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
