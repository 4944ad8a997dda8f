"""Acceptance suite: one check per criterion, with pinned tolerances.

Each criterion body takes a seeded generator and returns its list of
problems; the ``_criterion`` runner times it, applies its runtime gate and
wraps the outcome in a CriterionResult.  ``run`` executes a selection and
prints one pass/fail line per criterion.  The CLI ``verify`` subcommand and
the test suite both call into this module.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from . import manifolds as mf
from .bounds import (
    bound_input_from_components,
    BoundInput,
    ls_upper_bound,
    product_spheres_bound,
    reference_tc,
    unit_tangent_bound,
)
from .flow import (
    FD_SCALE,
    FlowConfig,
    ScalarField,
    _central_differences,
    descent_diagnostic,
    find_critical_components,
    integrate_flow,
)
from .manifolds import Ellipsoid, ProductSpheres, Sphere, StiefelV2, mult_i, random_points
from .navigation import (
    NavTuple,
    classify_sphere_critical,
    find_parallel_pairs,
    nav_field,
    pair_system_jacobian,
    pair_system_residual,
    random_critical_tuple,
)
from .paths import (
    DeformationHandle,
    compose_section_through_deformation,
    deformation_to_section,
    path_fibration,
    plan_product_odd_spheres,
)
from .unit_tangent import (
    FiberTuple,
    f_ut_field,
    base_height_field,
    fiber_fibration,
    random_fiber_tuple,
    sigma_u_planner,
    su_trivialization,
    vertical_flow_endpoints,
    vertical_gradient_coords,
    vertical_proportionality_scan,
    _orthonormalize,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.index:>2}  {self.name:<28}  ({self.seconds:5.1f}s)  {self.detail}"


ALL_CHECKS = []


def _criterion(index: int, name: str, success: str, gate: float = 120.0):
    """Register a criterion body ``body(rng) -> problems`` as check number ``index``.

    The registered ``check(seed=0) -> CriterionResult`` times the body on
    ``np.random.default_rng(seed)``; it fails on any problem or when the body
    runs for ``gate`` seconds or longer, and passes with the detail ``success``.
    """
    def register(body):
        def check(seed: int = 0) -> CriterionResult:
            t0 = time.time()
            problems = body(np.random.default_rng(seed))
            elapsed = time.time() - t0
            if elapsed >= gate:
                problems.append(f"runtime {elapsed:.1f}s >= {gate:g}s")
            return CriterionResult(index, name, not problems, "; ".join(problems) or success,
                                   elapsed)

        check.__name__ = check.__qualname__ = body.__name__
        ALL_CHECKS.append(check)
        return check
    return register


def _values_of(components, tol):
    """Distinct critical values after merging within tol."""
    vals = sorted(c.value for c in components)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# 1. Navigation critical values
# ---------------------------------------------------------------------------

@_criterion(1, "nav critical values", "value sets {0,4},{0,4,8},{0,4,8}", gate=60.0)
def check_nav_critical_values(rng):
    cases = [
        (Sphere(1), 2, [0.0, 4.0]),
        (Sphere(3), 3, [0.0, 4.0, 8.0]),
        (ProductSpheres((1, 3)), 2, [0.0, 4.0, 8.0]),
    ]
    cfg = FlowConfig()
    problems = []
    for spec, r, expected in cases:
        field = nav_field(spec, r)
        seeds = random_points(field.spec, 200, rng)
        comps = find_critical_components(field, seeds, cfg)
        found = _values_of(comps, 10 * cfg.cluster_tol)
        if len(found) != len(expected) or any(
            abs(f - e) > 1e-5 for f, e in zip(found, expected)
        ):
            problems.append(f"{spec}/r={r}: values {found} != {expected}")
            continue
        for c in comps:
            for rep in c.representatives:
                t = NavTuple.from_flat(spec, r, rep)
                try:
                    classify_sphere_critical(t, tol=1e-4)
                except Exception as exc:  # noqa: BLE001
                    problems.append(f"{spec}/r={r}: endpoint unclassified ({exc})")
                    break
    return problems


# ---------------------------------------------------------------------------
# 2. Unit tangent bundle critical set
# ---------------------------------------------------------------------------

@_criterion(2, "unit tangent critical set", "all endpoints on (x, +-ix), values +-1")
def check_unit_tangent_critical(rng):
    problems = []
    seen_values = set()
    for frame_dim in (4, 8):
        spec = StiefelV2(frame_dim)
        field = f_ut_field(spec)
        seeds = random_points(spec, 500, rng)
        for direction in (-1, +1):
            end, _gn, conv = vertical_flow_endpoints(field, seeds, direction=direction)
            if not conv.all():
                problems.append(f"frame_dim={frame_dim}: {int((~conv).sum())} seeds unconverged")
                continue
            x1 = end[:, :frame_dim]
            x2 = end[:, frame_dim:]
            ix = mult_i(x1)
            dist = np.minimum(
                np.linalg.norm(x2 - ix, axis=1), np.linalg.norm(x2 + ix, axis=1)
            )
            if dist.max() > 1e-5:
                problems.append(
                    f"frame_dim={frame_dim}: endpoint {dist.max():.2e} from the critical set"
                )
            vals = field.value_at(end)
            off = np.minimum(np.abs(vals - 1.0), np.abs(vals + 1.0))
            if off.max() > 1e-6:
                problems.append(f"frame_dim={frame_dim}: value off by {off.max():.2e}")
            seen_values.update(np.round(vals, 6).tolist())
    if not {-1.0, 1.0} <= seen_values:
        problems.append(f"values seen {sorted(seen_values)} do not cover -1 and +1")
    return problems


# ---------------------------------------------------------------------------
# 3. Bound reproduction
# ---------------------------------------------------------------------------

def _constructive_complexity_one(spec, r, comps):
    """Assign complexity 1 only after the planner produces a section on a
    representative of every component.

    Detected representatives sit within grad_tol of the critical set, so the
    section check runs on the idealized tuple obtained by snapping the
    representative onto its sign pattern.
    """
    from .navigation import critical_tuple

    for c in comps:
        approx = NavTuple.from_flat(spec, r, c.representatives[0])
        pattern = classify_sphere_critical(approx, tol=1e-4)
        t = critical_tuple(spec, pattern, approx.points[0])
        path = plan_product_odd_spheres(t, pattern)
        err = np.max(np.abs(path_fibration(path, r).points - t.points))
        if err > 1e-9:
            raise AssertionError(f"planner section error {err:.2e} on {pattern.label}")
    return bound_input_from_components(comps, complexity=1)


@_criterion(3, "bound reproduction", "k(r-1)+1 and r+1 reproduced, pipeline consistent")
def check_bounds(rng):
    problems = []
    for k in (1, 2, 3):
        for r in range(2, 7):
            res = product_spheres_bound(k, r)
            if res.bound != k * (r - 1) + 1 or not res.exact:
                problems.append(f"product bound k={k} r={r}: {res.bound}")
    for m in (1, 2, 3):
        for r in range(2, 7):
            res = unit_tangent_bound(m, r)
            if res.bound != r + 1 or not res.exact:
                problems.append(f"unit tangent bound m={m} r={r}: {res.bound}")
            if len(res.breakdown) != r + 1:
                problems.append(f"unit tangent groups m={m} r={r}: {len(res.breakdown)}")
    # pipeline consistency: aggregated detected data equals the closed forms
    cfg = FlowConfig()
    for spec, r, k in [(Sphere(1), 2, 1), (ProductSpheres((1, 3)), 2, 2)]:
        field = nav_field(spec, r)
        comps = find_critical_components(field, random_points(field.spec, 200, rng), cfg)
        inp = _constructive_complexity_one(spec, r, comps)
        got = ls_upper_bound(inp).bound
        want = product_spheres_bound(k, r).bound
        if got != want:
            problems.append(f"pipeline k={k} r={r}: {got} != {want}")
    for m, r in [(1, 2), (1, 5)]:
        got = ls_upper_bound(BoundInput.fiber_signs(r, complexity=1)).bound
        want = unit_tangent_bound(m, r).bound
        if got != want:
            problems.append(f"fiber pipeline m={m} r={r}: {got} != {want}")
    return problems


# ---------------------------------------------------------------------------
# 4. Section properties
# ---------------------------------------------------------------------------

@_criterion(4, "section properties", "sections reproduce tuples <= 1e-9, fibers preserved")
def check_section_properties(rng):
    problems = []
    for spec, r in [(Sphere(1), 2), (Sphere(3), 3), (ProductSpheres((1, 3)), 3)]:
        worst = 0.0
        for _ in range(100):
            t = random_critical_tuple(spec, r, rng)
            pattern = classify_sphere_critical(t)
            path = plan_product_odd_spheres(t, pattern)
            err = np.max(np.abs(path_fibration(path, r).points - t.points))
            worst = max(worst, err)
        if worst > 1e-9:
            problems.append(f"planner {spec} r={r}: section error {worst:.2e}")
    for frame_dim, r in [(4, 2), (4, 3), (8, 2)]:
        spec = StiefelV2(frame_dim)
        worst = 0.0
        drift = 0.0
        for _ in range(100):
            t = random_fiber_tuple(spec, r, rng, critical_mask=[True] * r)
            path = sigma_u_planner(t)
            err = np.max(np.abs(fiber_fibration(path, r).entries - t.entries))
            worst = max(worst, err)
            samples = path.eval_many(np.linspace(0, 1, 64))
            drift = max(drift, float(np.max(np.linalg.norm(
                samples[:, :frame_dim] - t.basepoint, axis=1))))
        if worst > 1e-9:
            problems.append(f"rotational planner frame_dim={frame_dim} r={r}: {worst:.2e}")
        if drift > 1e-12:
            problems.append(f"fiber drift frame_dim={frame_dim} r={r}: {drift:.2e}")
    return problems


# ---------------------------------------------------------------------------
# 5. Hypersurface pair count
# ---------------------------------------------------------------------------

@_criterion(5, "hypersurface pair count", "alpha=3 exact, sphere continuum flagged")
def check_parallel_pairs(rng):
    problems = []
    census = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)))
    if census.alpha != 3:
        problems.append(f"ellipsoid alpha {census.alpha} != 3")
    else:
        worst = max(p.alignment_residual for p in census.pairs)
        if worst > 1e-10:
            problems.append(f"alignment residual {worst:.2e} > 1e-10")
        if not census.alpha >= reference_tc("sphere-even", 2) - 1:
            problems.append("alpha below the TC lower bound")
    sphere_census = find_parallel_pairs(Sphere(2))
    if not sphere_census.is_continuum:
        problems.append(f"sphere census {sphere_census.alpha} is not a continuum")
    return problems


# ---------------------------------------------------------------------------
# 6. Gradient correctness
# ---------------------------------------------------------------------------

def _relative_error(analytic, fd):
    """Largest |analytic - fd| / max(|analytic|, 1) over the rows, in the Frobenius norm."""
    num = np.linalg.norm((analytic - fd).reshape(len(fd), -1), axis=-1)
    den = np.maximum(np.linalg.norm(analytic.reshape(len(fd), -1), axis=-1), 1.0)
    return float(np.max(num / den))


@_criterion(6, "gradient correctness", "all FD checks <= 1e-5")
def check_gradients(rng):
    problems = []
    for label, field in [("nav gradient", nav_field(Sphere(2), 3)),
                         ("invariant-function", f_ut_field(StiefelV2(4)))]:
        samples = random_points(field.spec, 1000, rng)
        err = _relative_error(field.euclidean_gradient_at(samples), field.fd_gradient(samples))
        if err > 1e-5:
            problems.append(f"{label} FD error {err:.2e}")

    surf = Ellipsoid((1.0, 2.0, 3.0))
    pts = random_points(surf, 2000, rng)
    z = np.concatenate([pts[:1000], pts[1000:]], axis=1)
    z = z[np.linalg.norm(z[:, :3] - z[:, 3:], axis=1) > 1e-2]
    fd = _central_differences(lambda w: pair_system_residual(surf.field, surf.level, w), z,
                              FD_SCALE)
    err = _relative_error(pair_system_jacobian(surf.field, surf.level, z), fd)
    if err > 1e-5:
        problems.append(f"pair system Jacobian FD error {err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# 7. Vertical structure
# ---------------------------------------------------------------------------

def _direct_fiber_vertical(field: ScalarField, t: FiberTuple) -> np.ndarray:
    """Project the ambient gradient of the sum function onto the vertical space
    of the fiber product, built from an explicit orthonormal basis."""
    spec = field.spec
    r, amb = t.r, spec.ambient_dim
    grad = field.euclidean_gradient_at(t.entries).reshape(-1)
    basis = []
    for i in range(r):
        x1, x2 = mf.frame_columns(spec, t.entries[i])
        span = _orthonormalize(np.stack([x1, x2]))
        comp = np.eye(spec.frame_dim) - span.T @ span
        w = _orthonormalize(comp)
        for row in w:
            cand = np.zeros(r * amb)
            cand[i * amb + spec.frame_dim : (i + 1) * amb] = row
            basis.append(cand)
    basis = np.array(basis)
    coeff = basis @ grad
    return (coeff @ basis).reshape(r, amb)


@_criterion(7, "vertical structure",
            "componentwise = projected <= 1e-10; consistency as expected")
def check_vertical_structure(rng):
    problems = []
    spec = StiefelV2(4)
    field = f_ut_field(spec)
    worst = 0.0
    for _ in range(200):
        mask = rng.random(2) < 0.5
        t = random_fiber_tuple(spec, 2, rng, critical_mask=mask)
        comp = vertical_gradient_coords(field, t.entries)
        direct = _direct_fiber_vertical(field, t)
        worst = max(worst, float(np.max(np.abs(comp - direct))))
    if worst > 1e-10:
        problems.append(f"componentwise vs projected vertical gradient {worst:.2e}")

    scan = vertical_proportionality_scan(field, random_points(spec, 2000, rng))
    if not scan.singular_consistency:
        problems.append("invariant function failed singular-set consistency")
    base_only = base_height_field(spec)
    scan2 = vertical_proportionality_scan(base_only, random_points(spec, 2000, rng))
    if scan2.singular_consistency:
        problems.append("base-only field passed singular-set consistency (should fail)")
    return problems


# ---------------------------------------------------------------------------
# 8. Pseudo-gradient contract
# ---------------------------------------------------------------------------

@_criterion(8, "pseudo-gradient contract", "bounds with C1=2, C2=1 hold; strict descent")
def check_pseudo_gradient(rng):
    from .flow import pseudo_gradient_coords

    problems = []
    field = nav_field(Sphere(2), 2)
    samples = random_points(field.spec, 1000, rng)
    grad = field.riemannian_gradient(samples)
    gn = np.linalg.norm(grad, axis=-1)
    x_vec = pseudo_gradient_coords(field, samples)
    xn = np.linalg.norm(x_vec, axis=-1)
    upper = 2.0 * np.minimum(gn, 1.0)
    if not (xn <= upper + 1e-10).all():
        problems.append(f"norm bound violated by {float(np.max(xn - upper)):.2e}")
    df = np.sum(grad * x_vec, axis=-1)
    lower = np.minimum(gn, gn**2)
    if not (df >= lower - 1e-10).all():
        problems.append(f"descent bound violated by {float(np.max(lower - df)):.2e}")

    cfg = FlowConfig()
    for _ in range(5):
        start = mf.project_to_manifold(field.spec, rng.standard_normal(field.spec.ambient_dim))
        trace = integrate_flow(field, start, cfg)
        if trace.max_value_increase() > 1e-10:
            problems.append(f"Lyapunov violation {trace.max_value_increase():.2e}")
            break

    rep = descent_diagnostic(field, random_points(field.spec, 100, rng), cfg)
    if not rep.all_positive:
        problems.append(f"nonpositive decrement {rep.min_decrement:.2e}")
    return problems


# ---------------------------------------------------------------------------
# 9. Conversion formulas
# ---------------------------------------------------------------------------

@_criterion(9, "conversion formulas", "p_r o s = id at knots <= 1e-12")
def check_conversions(rng):
    problems = []
    for r in (2, 3, 4):
        spec = mf.Euclidean(2)

        def to_diagonal(a, s):
            target = np.tile(a.points[0], (a.r, 1))
            return NavTuple(spec, (1.0 - s) * a.points + s * target)

        h = DeformationHandle(map=to_diagonal, end_at_diagonal=True)
        a = NavTuple(spec, rng.standard_normal((r, 2)))
        sec = deformation_to_section(h, a, r)
        err = np.max(np.abs(path_fibration(sec, r).points - a.points))
        if err > 1e-12:
            problems.append(f"deformation conversion r={r}: knot error {err:.2e}")

        center = rng.standard_normal(2)

        def toward_center(x, s):
            return NavTuple(spec, x.points + 0.5 * s * (center - x.points))

        phi = DeformationHandle(map=toward_center)
        target = lambda tup: deformation_to_section(h, tup, r)
        x = NavTuple(spec, rng.standard_normal((r, 2)))
        comp = compose_section_through_deformation(phi, target, x, r)
        err = np.max(np.abs(path_fibration(comp, r).points - x.points))
        if err > 1e-12:
            problems.append(f"composed conversion r={r}: knot error {err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# 10. Equivariance
# ---------------------------------------------------------------------------

@_criterion(10, "equivariance", "g in SU(n) and f invariant <= 1e-10")
def check_equivariance(rng):
    spec = StiefelV2(4)
    field = f_ut_field(spec)
    problems = []
    worst_unitary = worst_det = worst_inv = 0.0
    for _ in range(100):
        b0 = rng.standard_normal(4)
        b0 /= np.linalg.norm(b0)
        b = rng.standard_normal(4)
        b /= np.linalg.norm(b)
        handle, g = su_trivialization(b0, b, spec)
        n = g.shape[0]
        worst_unitary = max(worst_unitary, float(np.linalg.norm(
            g.conj().T @ g - np.eye(n))))
        worst_det = max(worst_det, abs(np.linalg.det(g) - 1.0))
        w = rng.standard_normal(4)
        w -= np.dot(w, b0) * b0
        w /= np.linalg.norm(w)
        x0 = np.concatenate([b0, w])
        moved = handle.apply(g, x0)
        worst_inv = max(worst_inv, abs(float(field.value_at(moved))
                                       - float(field.value_at(x0))))
    if worst_unitary > 1e-10:
        problems.append(f"unitarity residual {worst_unitary:.2e}")
    if worst_det > 1e-10:
        problems.append(f"determinant residual {worst_det:.2e}")
    if worst_inv > 1e-10:
        problems.append(f"invariance residual {worst_inv:.2e}")
    return problems


def run(only=None, stream=None, seed: int = 0):
    """Run the selected criteria (all by default) and print one line each."""
    stream = stream or sys.stdout
    results = []
    for idx, check in enumerate(ALL_CHECKS, start=1):
        if only is not None and idx not in only:
            continue
        result = check(seed=seed)
        results.append(result)
        print(result.line(), file=stream)
        stream.flush()
    return results
