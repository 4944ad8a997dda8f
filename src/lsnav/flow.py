"""Pseudo-gradient flows and critical-component detection.

The pseudo-gradient of a C^1 field F is X = grad F / rho(|grad F|), with rho
the C^1 ramp that is 1 below 1 and the identity above 2.  It satisfies
|X| <= 2 min(|grad F|, 1) and DF(X) >= min(|grad F|, |grad F|^2), so the
negative flow is a strict Lyapunov descent away from critical points.

Every flow integrates this X with an adaptive Dormand-Prince 5(4) pair (first
same as last), re-projecting onto the field's spec after every stage;
FIRST_STEP is the initial step of every row.  It is 0.25, about the step the
controller settles at under ENDPOINT_ATOL on every endpoint flow shipped.  Of
50 seeds from rng 7 started at 1e-2, the median step of passes 4-10 reads
0.25-0.27 on the ut-f vertical flows, 0.27-0.31 for the height on S^2,
0.16-0.30 for nav on (S^3)^3, 0.12-0.14 for nav on S^1 with r = 2 and
0.45-0.57 for the height on the ellipsoid (1,2,3).  So a row does not spend
its first passes growing its step, at most 5x a pass, from a small start.
One field evaluation per stage, ``_pseudo_gradient``, gives the vector field
and the stopping norm |grad F|, so an accepted step's norm is its last
stage's.  A step is accepted only when its local error estimate meets
min(atol, RTOL |y - x|) and F has not moved against the flow beyond rounding,
so flows stay Lyapunov-monotone; a row rejected down to a step below
STEP_FLOOR stops unconverged.  The same driver records single traces
(``integrate_flow``) and runs the time-1 map; ``detect_critical`` clusters
flow endpoints.
Trajectories (``integrate_flow``, ``time_one_map``) take atol = ATOL; flows
that return only endpoints (``flow_endpoints``, so ``detect_critical``, and
``unit_tangent.vertical_flow_endpoints``) take ENDPOINT_ATOL.  The vertical
flow is the pseudo-gradient flow of the field moved onto the fiber kind
``unit_tangent._FrameFibers``, whose Riemannian gradient is the vertical one,
and finishes with Newton once Newton is certified (``_endpoint_flow``).  One
rule, ``inertia``, judges Hessian eigenvalues wherever they are judged: the
Newton guard's definiteness, the Morse-Bott merge's kernel and
``navigation``'s pair nullity.

``find_critical_components`` runs no flow.  Damped Newton on the Riemannian
gradient, with the analytic Riemannian Hessian P (hess F - S) P (P the tangent
projector, S the manifold's shape term) as Jacobian, reaches critical points
of every index.  The converged points are clustered by value, then by
structural label, or by one Morse-Bott merge: isolated points where they
coincide, points on one critical manifold where continuation along the
Hessian kernel, pooled over the value groups, walks from one to another.
"""
from __future__ import annotations

import csv
import io
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import manifolds as mf
from .errors import LsnavError, NegativeInput, NoConvergedSeeds
from .manifolds import PointOnM


def rho(s):
    """Ramp used to normalize large gradients.

    1 on [0, 1], identity on [2, inf); on [1, 2] the C^1 Hermite blend
    rho(1+t) = 1 + 2 t^2 - t^3, which is monotone and satisfies rho(s) <= s.
    """
    s = np.asarray(s, dtype=float)
    if np.fmin.reduce(s, axis=None, initial=0.0) < 0:  # fmin skips NaN, which passes
        raise NegativeInput("rho is defined for nonnegative arguments")
    t = np.minimum(np.maximum(s - 1.0, 0.0), 1.0)
    out = np.where(s >= 2.0, s, 1.0 + 2.0 * t**2 - t**3)
    return float(out) if out.ndim == 0 else out


@dataclass
class FlowConfig:
    grad_tol: float = 1e-8
    cluster_tol: float = 1e-4

    def __post_init__(self):
        if not (0 < self.grad_tol < np.inf and 0 < self.cluster_tol < np.inf):
            raise ValueError("all flow parameters must be finite and strictly positive")


@dataclass(eq=False)
class ScalarField:
    """A scalar field on a manifold with an ambient (Euclidean) gradient.

    ``value`` and ``euclidean_gradient`` take coordinate arrays of shape
    (..., ambient_dim) and broadcast; ``euclidean_hessian`` returns an array
    that broadcasts to (..., ambient_dim, ambient_dim), so a constant Hessian
    may be one matrix.  When no analytic gradient is given, central finite
    differences of ``value`` with step FD_SCALE * (1 + |x|) are used; when no
    Hessian is given, central differences of the gradient with step
    FD_HESSIAN_SCALE * (1 + |x|).  Batched results are row-independent only
    when these callables compute row by row: elementwise or ``einsum`` forms,
    not a BLAS product such as ``x @ a``.
    ``classifier`` optionally labels critical points in batches: (n, ambient_dim)
    in, n labels out, None for a row it cannot classify; clustering calls it once
    per value group, and an LsnavError from it leaves the group unclassified.
    """

    spec: mf.ManifoldSpec
    value: Callable[[np.ndarray], np.ndarray]
    euclidean_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    classifier: Optional[Callable[[np.ndarray], np.ndarray]] = None
    euclidean_hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def value_at(self, coords):
        return np.asarray(self.value(np.asarray(coords, dtype=float)), dtype=float)

    def euclidean_gradient_at(self, coords):
        coords = np.asarray(coords, dtype=float)
        if self.euclidean_gradient is not None:
            return np.asarray(self.euclidean_gradient(coords), dtype=float)
        return self.fd_gradient(coords)

    def fd_gradient(self, coords):
        """Central finite differences of ``value``, step FD_SCALE * (1 + |x|)."""
        return _central_differences(self.value_at, np.asarray(coords, dtype=float), FD_SCALE)

    def euclidean_hessian_at(self, coords):
        coords = np.asarray(coords, dtype=float)
        if self.euclidean_hessian is not None:
            d = coords.shape[-1]
            return np.broadcast_to(self.euclidean_hessian(coords), coords.shape + (d,))
        return self.fd_hessian(coords)

    def fd_hessian(self, coords):
        """Central differences of ``euclidean_gradient_at`` in the ambient space (no
        projection), step FD_HESSIAN_SCALE * (1 + |x|), symmetrized."""
        hess = _central_differences(self.euclidean_gradient_at, np.asarray(coords, dtype=float),
                                    FD_HESSIAN_SCALE)
        return 0.5 * (hess + np.swapaxes(hess, -1, -2))

    def riemannian_gradient(self, coords):
        """Tangent projection of the ambient gradient (induced metric)."""
        coords = np.asarray(coords, dtype=float)
        return mf.project_tangent(self.spec, coords, self.euclidean_gradient_at(coords))

    def riemannian_hessian(self, coords):
        """The Riemannian Hessian P (hess F - S) P at coords, as (..., d, d) matrices."""
        coords = np.asarray(coords, dtype=float)
        return self.spec.riemannian_hessian(coords, self.euclidean_gradient_at(coords),
                                            self.euclidean_hessian_at(coords))

    def gradient_norm(self, coords):
        return np.linalg.norm(self.riemannian_gradient(coords), axis=-1)


def _central_differences(fn, coords, scale):
    """Central differences of fn along each ambient coordinate, step scale * (1 + |x|),
    stacked on a new last axis."""
    h = scale * (1.0 + np.linalg.norm(coords, axis=-1))
    cols = []
    for k in range(coords.shape[-1]):
        plus = coords.copy()
        minus = coords.copy()
        plus[..., k] += h
        minus[..., k] -= h
        diff = fn(plus) - fn(minus)
        cols.append(diff / (2.0 * h).reshape(h.shape + (1,) * (diff.ndim - h.ndim)))
    return np.stack(cols, axis=-1)


def pseudo_gradient_coords(field: ScalarField, coords):
    """Array form of the pseudo-gradient X = grad F / rho(|grad F|)."""
    return _pseudo_gradient(field, coords)[0]


def _pseudo_gradient(field: ScalarField, coords):
    """The stage of every flow: (X, |grad F|), X as ``pseudo_gradient_coords``."""
    grad = field.riemannian_gradient(coords)
    gn = np.linalg.norm(grad, axis=-1)
    return np.asarray(1.0 / rho(gn))[..., None] * grad, gn


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, Table II.5.2).
# Row j gives stage j+2 from the earlier stages; the last row is the
# fifth-order solution, whose vector field is the next step's first stage.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Fifth- minus fourth-order weights: the local error estimate.
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

FIRST_STEP = 0.25      # initial step of every row of a flow: the step endpoint flows settle at
MAX_TIME = 200.0       # flow time after which a row stops unconverged
ATOL = 1e-9            # local error bound per step of a trajectory
ENDPOINT_ATOL = 1e-6   # local error bound per step of an endpoint-only flow
NEWTON_GUARD_MARGIN = 1e-2  # least |eigenvalue| the Newton guard admits, relative to
                            # 1 + max |lambda|
RTOL = 1e-3            # local error bound relative to the step's displacement
STEP_FLOOR = 1e-8      # a row rejected down to a step below this stops unconverged
LYAPUNOV_SLACK = 1e-13  # rounding allowance on F, relative to 1 + |F|
FD_SCALE = 1e-6        # finite-difference gradient step, relative to 1 + |x|
FD_HESSIAN_SCALE = 1e-4  # finite-difference Hessian step, relative to 1 + |x|
POINT_MERGE_DIST = 0.5  # linkage and walk-arrival distance of points with a Hessian kernel
MERGE_KERNEL_TOL = 1e-6  # Hessian eigenvalues below this, relative to 1 + the largest, are 0
MERGE_STEP = 0.5 * POINT_MERGE_DIST  # predictor step of the Morse-Bott continuation
MERGE_MAX_STEPS = 100   # predictor-corrector steps per continuation walk
Inertia = namedtuple("Inertia", "below within above nullity")  # what ``inertia`` returns


def inertia(lam, normal: int = 0, tol: float = MERGE_KERNEL_TOL) -> Inertia:
    """The masks (..., d) of the Hessian eigenvalues lam below -tol s, within tol s and
    above tol s, s = 1 + max |lambda| per row, and the nullity (...): the count within,
    less the ``normal`` directions a Riemannian Hessian maps to zero (ambient minus
    ``ManifoldSpec.dim``).  At MERGE_KERNEL_TOL a nullity > 0 means a Morse-Bott family."""
    scale = tol * (1.0 + np.abs(lam).max(axis=-1, keepdims=True))
    within = np.abs(lam) <= scale
    return Inertia(-lam > scale, within, lam > scale, within.sum(axis=-1) - normal)


def _combine(coefs, ks):
    """sum(a * k) over the nonzero coefficients, accumulated in place in their order."""
    terms = [a * k for a, k in zip(coefs, ks) if a]
    for term in terms[1:]:
        terms[0] += term
    return terms[0]


def _dp54_step(stage, project, x, k1, h):
    """One projected Dormand-Prince step of sizes h (shape (n, 1)) from x with
    first stage k1; returns (new point, its field and stopping norm, local error norm)."""
    ks = [k1]
    for row in _DP_A:
        y = _combine(row, ks)
        y = project(np.add(np.multiply(y, h, out=y), x, out=y))
        k, gn = stage(y)
        ks.append(k)
    err = h[:, 0] * np.linalg.norm(_combine(_DP_E, ks), axis=-1)
    return y, k, gn, err


def _flow_batch(field: ScalarField, direction: int, starts, cfg: FlowConfig,
                max_time=None, record=None, atol=None, stop=None):
    """Adaptive Dormand-Prince 5(4) flow of a batch along direction * X, with
    (X, |grad F|) = ``_pseudo_gradient(field, x)``, one step size per row,
    re-projecting onto field.spec with ``project_points`` after every stage (the
    fiber kind's anchored projection for the vertical flow) and holding
    -direction * F monotone.

    Every row starts at time 0 from step FIRST_STEP.  A row stops once |grad F|
    (after a step, its last stage's) is at most grad_tol, at time max_time
    (default MAX_TIME), or when a rejection leaves its step below STEP_FLOOR.
    A step is accepted when its error estimate is at most min(atol, RTOL
    |y - x|), atol defaulting to ATOL (endpoint-only callers pass
    ENDPOINT_ATOL), and the Lyapunov function -direction * F has not increased
    beyond rounding; the relative half of the bound keeps steps inside the
    stability region as rows approach the critical set.  Since the floor lies far above the steps
    whose change of F is rounding, a row rejected again and again reaches it
    within a few dozen steps.  ``record(t, x, gn)`` sees the starts and every
    pass that accepts a step.  An optional predicate ``stop(rows, x)``, given
    the indices of some rows and their points, returns a boolean per row; it
    sees the starts that are to flow and, after every pass, the rows that pass
    accepted and that are still to flow, and a row it returns True for stops
    there.  Returns (endpoints, final norms).
    """
    max_time = MAX_TIME if max_time is None else max_time
    atol = ATOL if atol is None else atol

    def vfield(x):
        k, gn = _pseudo_gradient(field, x)
        return direction * k, gn

    def proj(x):
        return mf.project_points(field.spec, x)

    def lyapunov(x):
        return -direction * field.value_at(x)

    x = proj(np.array(starts, dtype=float))
    t, h = np.zeros(len(x)), np.full(len(x), FIRST_STEP)

    def halt(rows):
        if stop is not None and rows.size:
            active[rows[stop(rows, x[rows])]] = False

    k, gn = vfield(x)
    active = (gn > cfg.grad_tol) & (t < max_time)
    halt(np.flatnonzero(active))
    idx = np.flatnonzero(active)
    lyap = lyapunov(x)
    if record is not None:
        record(t, x, gn)
    while idx.size:
        hs = np.minimum(h[idx], max_time - t[idx])
        x0 = x[idx]
        y, ky, gy, err = _dp54_step(vfield, proj, x0, k[idx], hs[:, None])
        ly = lyapunov(y)
        tol = np.minimum(atol, RTOL * np.linalg.norm(y - x0, axis=-1))
        monotone = ly <= lyap[idx] + LYAPUNOV_SLACK * (1.0 + np.abs(lyap[idx]))
        ok = (err <= tol) & monotone
        fac = np.clip(0.9 * (tol / np.maximum(err, 1e-300)) ** 0.2, 0.2, 5.0)
        h[idx] = hs * np.where(monotone, fac, np.minimum(fac, 0.5))
        acc = idx[ok]
        if acc.size:
            x[acc] = y[ok]
            k[acc] = ky[ok]
            gn[acc] = gy[ok]
            lyap[acc] = ly[ok]
            t[acc] += hs[ok]
            if record is not None:
                record(t, x, gn)
        active[idx] = ((gn[idx] > cfg.grad_tol) & (t[idx] < max_time)
                       & (ok | (h[idx] >= STEP_FLOOR)))
        halt(acc[active[acc]])
        idx = np.flatnonzero(active)
    return x, gn


@dataclass(eq=False)
class FlowTrace:
    """Time series produced by a single negative pseudo-gradient flow."""

    times: np.ndarray
    coords: np.ndarray
    values: np.ndarray
    grad_norms: np.ndarray
    spec: mf.ManifoldSpec

    def max_value_increase(self) -> float:
        """Largest Lyapunov violation along the trace (0 for monotone descent)."""
        return float(np.max(np.diff(self.values), initial=0.0))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        d = self.coords.shape[1]
        writer.writerow(["t"] + [f"x{k}" for k in range(d)] + ["F", "gradnorm"])
        for i in range(len(self.times)):
            writer.writerow(
                [repr(float(self.times[i]))]
                + [repr(float(v)) for v in self.coords[i]]
                + [repr(float(self.values[i])), repr(float(self.grad_norms[i]))]
            )
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "manifold": mf.spec_to_json(self.spec),
            "times": [float(t) for t in self.times],
            "points": [[float(v) for v in row] for row in self.coords],
            "values": [float(v) for v in self.values],
            "grad_norms": [float(g) for g in self.grad_norms],
        }


def integrate_flow(field: ScalarField, start: PointOnM, cfg: FlowConfig = None) -> FlowTrace:
    """Integrate the descending pseudo-gradient flow from a single point.

    Records the start and every accepted step of the adaptive driver, held to
    the trajectory bound ATOL, so times increase strictly but unevenly and F
    never increases.  Stops at cfg.grad_tol, after MAX_TIME or at the step
    floor, as every row of ``flow_endpoints`` does.
    """
    cfg = cfg or FlowConfig()
    times, coords, gns = [], [], []

    def record(t, x, gn):
        times.append(t[0])
        coords.append(x[0].copy())
        gns.append(gn[0])

    _flow_batch(field, -1, start.coords[None, :], cfg, record=record)
    coords = np.array(coords)
    return FlowTrace(
        times=np.array(times),
        coords=coords,
        values=field.value_at(coords),
        grad_norms=np.array(gns),
        spec=field.spec,
    )


def _endpoint_flow(field: ScalarField, direction: int, starts, cfg: FlowConfig):
    """An endpoint-only flow that finishes with Newton once Newton is certified.

    Everything comes from the field and its spec: the flow's stage
    (``_pseudo_gradient``), the projection (``project_points``), the residual
    G = ``riemannian_gradient`` and its Jacobian J = ``riemannian_hessian``.
    The vertical flow passes a field on the fiber kind
    ``unit_tangent._FrameFibers``, whose projection is anchored at the first
    column and whose tangent space is the vertical one.  ``_flow_batch`` at
    ENDPOINT_ATOL runs every row toward cfg.grad_tol, stopping on |G(x)|.  Its
    stop predicate takes a row out of the flow, at any gradient norm, where
    two tests hold; it sees the starts and the rows each pass accepts.

    Guard: J maps to zero the directions normal to the space the Newton step
    moves in, the tangent space, of dimension ``field.spec.dim``.  The guard
    admits a row if ``inertia`` at tol = NEWTON_GUARD_MARGIN finds that many
    eigenvalues of J (one ``eigh``) of the sign ``direction`` asks for (positive
    for descent): J is then definite on that space.  So a descent row near a
    saddle is not polished onto it.

    Certificate: with J^+ the pseudo-inverse over those eigenpairs, the Newton
    step D0 = -J^+ G(x) leads to x1 = project(x + D0), and the simplified step
    D1 = -J^+ G(x1) reuses the decomposition.  The row is certified if
    theta = |D1| / |D0| <= 1/4, the affine-covariant Newton-Kantorovich
    contraction test (Deuflhard, Newton Methods for Nonlinear Problems, 2004,
    2.1), where theta <= 1/4 stands for Kantorovich's h <= 1/2.

    The certified rows go to one ``_newton`` call, to cfg.grad_tol, each
    started from its x1, the first Newton iterate the certificate has already
    taken.  A Newton result z is kept only if it converged, -direction * F has
    not increased beyond LYAPUNOV_SLACK from the hand-off point, and the guard
    admits z too: a Newton limit on a Morse-Bott set has a zero eigenvalue
    along it, and one at a saddle has eigenvalues of both signs.  (Descending
    f = (v_4 - 1/2)^2 on the fiber over e_1 of stiefel:4, rows are certified
    where the eigenvalue along the minimum circle v_4 = 1/2 reads 1.3e-2 to
    4.2e-2 of 1 + max |lambda|; at their Newton limits on the circle it reads
    at most 2.1e-9, and all are refused.)  Rows whose result is not kept run
    the plain flow again from their starts, without the predicate, so they end
    where the flow alone ends, unconverged at MAX_TIME included.  Rows the
    flow stops unconverged, at MAX_TIME or on the step floor, are not handed
    off.

    Every stage treats rows independently, so a row's result does not depend on
    which rows share the call, with one exception inherited from
    ``numerics.levenberg_marquardt``: a finish of at least
    numerics.LM_BATCH_AXIS_ROWS handed-off rows solves along the batch axis,
    whose last bits may differ from the per-matrix solve.
    Returns (endpoints, gradient norms, converged mask).
    """
    def guard(p):
        """(admitted, eigenvalues, eigenvectors, the eigenpairs beyond the margin)."""
        jac = field.riemannian_hessian(p)
        finite = np.isfinite(jac).all(axis=(1, 2))
        lam, vec = np.linalg.eigh(jac if finite.all() else np.where(finite[:, None, None], jac, 0))
        below, _, above, _ = inertia(lam, tol=NEWTON_GUARD_MARGIN)
        beyond = above if direction < 0 else below
        return finite & (beyond.sum(axis=-1) >= field.spec.dim), lam, vec, beyond

    def newton_step(lam, vec, beyond, g):  # -J^+ g over the eigenpairs beyond the margin
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=beyond)
        return -np.einsum("nij,nj->ni", vec, inv * np.einsum("nij,ni->nj", vec, g))

    certified = np.zeros(len(starts), dtype=bool)
    newton = np.array(starts, dtype=float)  # x1 of each certified row

    def stop(rows, p):
        ok, lam, vec, beyond = guard(p)
        i = np.flatnonzero(ok)
        if i.size:
            lam, vec, beyond = lam[i], vec[i], beyond[i]
            d0 = newton_step(lam, vec, beyond, field.riemannian_gradient(p[i]))
            x1 = mf.project_points(field.spec, p[i] + d0)
            d1 = newton_step(lam, vec, beyond, field.riemannian_gradient(x1))
            ok[i] = 4.0 * np.linalg.norm(d1, axis=-1) <= np.linalg.norm(d0, axis=-1)
            newton[rows[i]] = x1
        certified[rows[ok]] = True
        return ok

    x, gn = _flow_batch(field, direction, starts, cfg, atol=ENDPOINT_ATOL, stop=stop)
    go = np.flatnonzero(certified)
    if go.size:
        z, rn = _newton(field, newton[go], cfg.grad_tol)
        before = -direction * field.value_at(x[go])
        after = -direction * field.value_at(z)
        slack = LYAPUNOV_SLACK * (1.0 + np.abs(before))
        kept = (rn <= cfg.grad_tol) & (after <= before + slack) & guard(z)[0]
        x[go[kept]], gn[go[kept]] = z[kept], rn[kept]
        rest = go[~kept]
        if rest.size:
            x[rest], gn[rest] = _flow_batch(field, direction, np.asarray(starts)[rest], cfg,
                                            atol=ENDPOINT_ATOL)
    return x, gn, gn <= cfg.grad_tol


def flow_endpoints(field: ScalarField, starts, cfg: FlowConfig = None, direction: int = -1):
    """Batched adaptive flow of direction * pseudo-gradient to the critical set.

    Dormand-Prince 5(4) with projection after every stage, starting from
    step FIRST_STEP in every row and held to ENDPOINT_ATOL (only endpoints are
    returned); F never moves against ``direction``.  Rows that do not reach
    cfg.grad_tol (by MAX_TIME or the step floor) are reported unconverged.
    There is no Newton finish (see ``_endpoint_flow``): its guard refuses
    every row on a Morse-Bott critical set, such as those of the nav fields.
    Returns (endpoints, gradient norms, converged mask).
    """
    cfg = cfg or FlowConfig()
    x, gn = _flow_batch(field, direction, starts, cfg, atol=ENDPOINT_ATOL)
    return x, gn, gn <= cfg.grad_tol


def time_one_map(field: ScalarField, starts, cfg: FlowConfig = None):
    """Time-1 map of the negative pseudo-gradient flow, batched.

    Runs the adaptive driver at the trajectory bound ATOL to t = 1 from step
    FIRST_STEP, whatever MAX_TIME is; the last step of each row is cut to land
    on t = 1.  A row whose gradient norm reaches cfg.grad_tol stops there,
    before t = 1, as does a row stopped by the step floor.
    """
    return _flow_batch(field, -1, starts, cfg or FlowConfig(), max_time=1.0)[0]


# ---------------------------------------------------------------------------
# Critical components
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CriticalComponent:
    """A detected critical component: value, representative points, structural label."""

    value: float
    representatives: np.ndarray
    label: str = "unclassified"

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "label": self.label,
            "n_representatives": int(self.representatives.shape[0]),
            "representative": [float(v) for v in self.representatives[0]],
        }


def components_to_json(components) -> dict:
    return {
        "schema": "v1",
        "values": [float(c.value) for c in components],
        "components": [c.to_json() for c in components],
    }


def _single_linkage(dist, threshold):
    """Single-linkage labels from a pairwise distance matrix, numbered by each
    cluster's first row: every row takes the least label within threshold
    (its own included), then that label's label, until nothing changes."""
    rows, cols = np.divmod(np.flatnonzero(dist <= threshold), len(dist))  # 2-D nonzero is slower
    labels = np.arange(len(dist))
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if (new == labels).all():
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def _tangent_kernel(field, coords):
    """Projectors (n, d, d) onto the Riemannian Hessian's kernel in the tangent spaces at
    coords, for the walks: the eigenvectors E of the eigenvalues ``inertia`` finds within
    its threshold span that kernel and the normal space; P E E^T P drops the latter."""
    lam, vec = np.linalg.eigh(field.riemannian_hessian(coords))
    kernel_rows = np.swapaxes(vec * inertia(lam).within[:, None, :], -1, -2)
    pe = mf.project_tangent(field.spec, coords[:, None, :], kernel_rows)
    return np.swapaxes(pe, -1, -2) @ pe


def _follow_kernel(field, pts, starts, targets, others, cfg):
    """Predictor-corrector continuation along the critical set (Allgower & Georg,
    Numerical Continuation Methods, 1990) from pts[starts] toward pts[targets].

    Each step predicts MERGE_STEP along the Hessian-kernel component of the
    direction to the target and corrects with Levenberg-Marquardt on the
    Riemannian gradient.  A walk stops when the kernel gives no direction, the
    corrector does not converge, moves more than MERGE_STEP or changes the value
    by more than cluster_tol, or the target is no nearer.  It arrives when it is
    within POINT_MERGE_DIST of a point of pts allowed by its row of ``others``.
    Walks share each step's ``eigh`` and LM call, not their bits: both work per
    row (LM below numerics.LM_BATCH_AXIS_ROWS; 1,024 walks would switch its path).
    Returns, per walk, the index of the point it arrived at, or -1.
    """
    y, goal = pts[starts], pts[targets]
    level = field.value_at(y)
    dist = np.linalg.norm(goal - y, axis=-1)
    hit, idx = np.full(len(starts), -1), np.arange(len(starts))
    for _ in range(MERGE_MAX_STEPS):
        ya = y[idx]
        u = np.einsum("nij,nj->ni", _tangent_kernel(field, ya), goal[idx] - ya)
        un = np.linalg.norm(u, axis=-1)
        pred = mf.project_points(field.spec, ya + MERGE_STEP * u / np.maximum(un, 1e-300)[:, None])
        z, rn = _newton(field, pred, cfg.grad_tol)
        nd = np.linalg.norm(goal[idx] - z, axis=-1)
        ok = ((un > 1e-12) & (rn <= cfg.grad_tol) & (nd < dist[idx])
              & (np.linalg.norm(z - pred, axis=-1) <= MERGE_STEP)
              & (np.abs(field.value_at(z) - level[idx]) <= cfg.cluster_tol))
        y[idx], dist[idx] = z, nd
        near = ((np.linalg.norm(z[:, None, :] - pts[None, :, :], axis=-1) <= POINT_MERGE_DIST)
                & others[idx] & ok[:, None])
        arrived = near.any(axis=-1)
        hit[idx[arrived]] = np.argmax(near[arrived], axis=-1)
        idx = idx[ok & ~arrived]
        if idx.size == 0:
            break
    return hit


def _pairwise_distances(q):
    """The (n, n) Euclidean distance matrix of the rows of q, its squares summed in
    coordinate order, as np.linalg.norm sums fewer than 8 coordinates.  Built in place
    a block of rows at a time: besides the result, one scratch of about 2^16 entries."""
    n = len(q)
    dist = np.zeros((n, n))
    rows = max(1, 2**16 // max(n, 1))
    scratch = np.empty((min(rows, n), n))
    for s in range(0, n, rows):
        block = dist[s:s + rows]
        diff = scratch[:len(block)]
        for c in q.T:
            np.subtract(c[s:s + rows, None], c, out=diff)
            block += np.multiply(diff, diff, out=diff)
    return np.sqrt(dist, out=dist)


def _morse_bott_merge(field, pts, groups, cfg):
    """Component labels of pts, numbered across the value groups (rows of pts,
    each at one value), from the ``inertia`` nullity of the Riemannian Hessian per point.

    Points with a kernel lie on critical manifolds (Bott, Ann. of Math. 60, 1954)
    and are linked at POINT_MERGE_DIST per group.  A point with none is isolated:
    in row order, the first remaining one takes every remaining one within
    cluster_tol, and they join the lowest-numbered cluster of the group with a
    point within cluster_tol of it, a kernel point or an earlier isolated one
    (Newton's points scatter at a degenerate critical point, and their kernel
    tests disagree).  Each cluster of kernel points walks, by
    ``_follow_kernel``, from its point nearest to the nearest component of its
    group it has not yet walked toward, and is united with whatever component it
    arrives at, until no component has such a neighbour.  A walk stays on the
    critical set and arrives only at a kernel point of its own group, so disjoint
    critical sets are never united.  Each round walks all groups in one call; a
    group keeps its kernel points' distances only while walks remain.  Clusters
    of kernel points are numbered first, isolated points after, in row order.
    """
    group = np.repeat(np.arange(len(groups)), [g.size for g in groups])
    lam = np.linalg.eigh(field.riemannian_hessian(pts))[0]
    kernel = inertia(lam, pts.shape[-1] - field.spec.dim).nullity > 0
    walkers = [g[kernel[g]] for g in groups]
    labels, dists, n = np.empty(len(pts), dtype=int), {}, 0
    for k, g in enumerate(walkers):
        dist = _pairwise_distances(pts[g])
        lab = _single_linkage(dist, POINT_MERGE_DIST)
        labels[g] = n + lab
        n += lab.max(initial=-1) + 1
        if lab.max(initial=0) > 0:  # else no walk can start
            dists[k] = dist
    n_walk = n
    for g, done in zip(groups, walkers):
        rest = g[~kernel[g]]
        while rest.size:
            same = np.linalg.norm(pts[rest] - pts[rest[0]], axis=-1) <= cfg.cluster_tol
            near = labels[done[np.linalg.norm(pts[done] - pts[rest[0]], axis=-1) <= cfg.cluster_tol]]
            labels[rest[same]] = near.min(initial=n)
            n += near.size == 0
            done, rest = np.concatenate([done, rest[same]]), rest[~same]
    tried, root = np.zeros((n_walk, n_walk), dtype=bool), np.arange(n)
    while True:
        comp = root[labels]
        starts, targets = [], []
        for k in dists:
            g = walkers[k]
            open_ = (comp[g, None] != comp[None, g]) & ~tried[labels[g, None], labels[None, g]]
            gap = np.where(open_, dists[k], np.inf)
            for c in np.unique(comp[g]):
                rows = np.flatnonzero(comp[g] == c)
                i, j = np.unravel_index(np.argmin(gap[rows]), (rows.size, g.size))
                if np.isfinite(gap[rows[i], j]):
                    starts.append(g[rows[i]])
                    targets.append(g[j])
        dists = {k: dists[k] for k in np.unique(group[starts])}  # a group with no walk is done
        if not starts:
            return comp
        for i, j in zip(starts, targets):
            a, b = root[:n_walk] == comp[i], root[:n_walk] == comp[j]
            tried |= np.outer(a, b) | np.outer(b, a)
        others = kernel & (comp != comp[starts][:, None]) & (group == group[starts][:, None])
        hit = _follow_kernel(field, pts, np.array(starts), np.array(targets), others, cfg)
        for i, j in zip(starts, hit):
            if j >= 0:
                root[root == root[labels[j]]] = root[labels[i]]


def _cluster_endpoints(field, endpoints, cfg):
    """Group converged points into components: by value, with gaps larger than
    10 * cluster_tol, then by the field's structural classifier (one call per
    group), or, when none is set, by one Morse-Bott merge over all groups:
    isolated points where they coincide, points on critical manifolds by
    distance at POINT_MERGE_DIST and continuation walks."""
    values = field.value_at(endpoints)
    order = np.argsort(values, kind="stable")
    endpoints, values = endpoints[order], values[order]
    cuts = np.flatnonzero(np.diff(values) > 10.0 * cfg.cluster_tol)
    groups = np.split(np.arange(len(values)), cuts + 1)
    merged = _morse_bott_merge(field, endpoints, groups, cfg) if field.classifier is None else None
    components = []
    for group in groups:
        pts, vals = endpoints[group], values[group]
        if merged is not None:
            labels = merged[group]
        else:
            try:
                labels = np.array(field.classifier(pts), dtype=object)
            except LsnavError:
                labels = np.full(len(pts), None, dtype=object)
            labels[np.equal(labels, None)] = "unclassified"
        for lab in sorted(set(labels.tolist())):
            sel = labels == lab
            rep, name = pts[sel], "unclassified" if merged is not None else str(lab)
            components.append(CriticalComponent(float(np.mean(vals[sel])),
                                                rep[np.lexsort(rep.T[::-1])], name))
    return sorted(components, key=lambda c: (c.value, c.label))


def detect_critical(field: ScalarField, seeds, cfg: FlowConfig = None):
    """Flow every seed down and cluster the converged endpoints into components.

    Endpoints with gradient norm above cfg.grad_tol are discarded; the rest
    are clustered by value, then by the field's classifier or by point
    distance (see ``_cluster_endpoints``).  Raises
    NoConvergedSeeds when no flow converges, which at the numerical level
    signals Palais-Smale trouble.
    """
    cfg = cfg or FlowConfig()
    seeds = _as_coords(seeds)
    if seeds.shape[0] == 0:
        raise NoConvergedSeeds("seed set is empty")
    endpoints, gn, converged = flow_endpoints(field, seeds, cfg, -1)
    if not converged.any():
        raise NoConvergedSeeds(
            f"no seed reached gradient norm {cfg.grad_tol} within time {MAX_TIME}"
        )
    return _cluster_endpoints(field, endpoints[converged], cfg)


def _as_coords(seeds):
    return np.atleast_2d(np.asarray(seeds, dtype=float))


# ---------------------------------------------------------------------------
# Newton refinement (finds components of every index, including saddles)
# ---------------------------------------------------------------------------

def newton_critical_search(field: ScalarField, seeds, *, tol: float = 1e-10):
    """Multistart damped Newton on the projected gradient G(x) = 0.

    Unlike descent flows, whose generic trajectories only reach extremal
    components, Newton iterations converge to critical points of any index.
    The Jacobian of G is the field's Riemannian Hessian; Levenberg-Marquardt
    damping with a step cap keeps the iteration stable where that Hessian
    degenerates, for at most numerics.LM_MAX_ITER iterations.  A seed that is
    not finite, or that the manifold cannot project (it comes back NaN), is
    dropped.  Returns the converged points as an array (possibly empty).
    """
    z, rn = _newton(field, _as_coords(seeds), tol)
    return z[rn <= tol]


def _newton(field: ScalarField, z0, tol):
    """Levenberg-Marquardt on the Riemannian gradient, with the Riemannian Hessian as
    Jacobian and ``project_points`` as retraction: (points, residual norms)."""
    from .numerics import levenberg_marquardt

    return levenberg_marquardt(field.riemannian_gradient, field.riemannian_hessian, z0, tol=tol,
                               retract=lambda p: mf.project_points(field.spec, p))


def find_critical_components(field: ScalarField, seeds, cfg: FlowConfig = None):
    """Newton-first detection: ``newton_critical_search`` from every seed, then
    one clustering of the converged points by value, then by the field's
    classifier or by point distance with the Morse-Bott merge (see
    ``_cluster_endpoints``).  Of cfg it reads only grad_tol and cluster_tol;
    the flows are not run (``detect_critical`` clusters flow endpoints).
    """
    cfg = cfg or FlowConfig()
    seeds = _as_coords(seeds)
    if seeds.shape[0] == 0:
        raise NoConvergedSeeds("seed set is empty")
    found = newton_critical_search(field, seeds, tol=min(cfg.grad_tol, 1e-10))
    if found.shape[0] == 0:
        raise NoConvergedSeeds("no seed converged under Newton's method")
    return _cluster_endpoints(field, found, cfg)


# ---------------------------------------------------------------------------
# Descent diagnostic (strict Lyapunov decrease of the time-1 map)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DescentReport:
    n_samples: int
    n_noncritical: int
    min_decrement: float
    argmin_coords: Optional[np.ndarray]
    all_positive: bool
    decrements: np.ndarray = field(repr=False, default=None)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "n_samples": self.n_samples,
            "n_noncritical": self.n_noncritical,
            "min_decrement": float(self.min_decrement) if self.n_noncritical else None,
            "all_positive": bool(self.all_positive),
        }


def descent_diagnostic(field: ScalarField, samples, cfg: FlowConfig = None) -> DescentReport:
    """Check F(x) - F(phi_1(x)) > 0 on samples away from the critical set.

    Samples whose gradient norm is at or below grad_tol count as fixed points
    and are excluded from the positivity assertion.  Reports the minimum
    observed decrement and the sample attaining it.
    """
    cfg = cfg or FlowConfig()
    x = _as_coords(samples)
    gn = field.gradient_norm(x)
    noncrit = gn > cfg.grad_tol
    phi1 = time_one_map(field, x, cfg)
    dec = field.value_at(x) - field.value_at(phi1)
    sub = dec[noncrit]
    k = int(np.argmin(sub)) if sub.size else None
    return DescentReport(n_samples=x.shape[0], n_noncritical=sub.size,
                         min_decrement=0.0 if k is None else float(sub[k]),
                         argmin_coords=None if k is None else x[noncrit][k],
                         all_positive=bool((sub > 0).all()), decrements=dec)


# ---------------------------------------------------------------------------
# Simple built-in fields
# ---------------------------------------------------------------------------

def _coordinate_height(spec, axis: int, name: str) -> ScalarField:
    """f(x) = x[axis], named ``name(axis=axis)``: gradient e_axis, Hessian 0."""

    def value(x):
        return np.asarray(x, dtype=float)[..., axis]

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., axis] = 1.0
        return g

    return ScalarField(spec, value, grad, name=f"{name}(axis={axis})",
                       euclidean_hessian=lambda x: np.zeros((spec.ambient_dim,) * 2))


def height_field(spec) -> ScalarField:
    """Coordinate height function f(x) = x[-1], the last ambient coordinate."""
    return _coordinate_height(spec, spec.ambient_dim - 1, "height")
