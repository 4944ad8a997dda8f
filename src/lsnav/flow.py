"""Pseudo-gradient flows and critical-component detection.

The pseudo-gradient of a C^1 field F is X = grad F / rho(|grad F|), with rho
the C^1 ramp that is 1 below 1 and the identity above 2.  It satisfies
|X| <= 2 min(|grad F|, 1) and DF(X) >= min(|grad F|, |grad F|^2), so the
negative flow is a strict Lyapunov descent away from critical points.

Batched flows to critical points integrate with an adaptive Dormand-Prince
5(4) pair (first same as last), re-projecting onto the manifold after every
stage; FIRST_STEP is the initial step of every row.  One field evaluation per
stage gives the vector field and the stopping norm, so an accepted step's norm
is its last stage's.  A step is accepted only when its local error estimate
meets min(atol, RTOL |y - x|) and F has not moved against the flow beyond
rounding, so flows stay Lyapunov-monotone; a row rejected down to a step below
STEP_FLOOR stops unconverged.  The same driver records single traces (``integrate_flow``)
and runs the time-1 map; ``detect_critical`` clusters flow endpoints.
Trajectories (``integrate_flow``, ``time_one_map``) take atol = ATOL; flows
that return only endpoints (``flow_endpoints``, so ``detect_critical``, and
``unit_tangent.vertical_flow_endpoints``) take ENDPOINT_ATOL.  The vertical
flow finishes with Newton (``_endpoint_flow``): it flows down to gradient norm
NEWTON_HANDOFF, where the flow closes on the critical set only linearly, and
one Levenberg-Marquardt call on the vertical gradient, with the vertical
Hessian as Jacobian, takes it to grad_tol.  A row is handed off only where
that Hessian is definite with the sign the direction asks for, so a descent
row near a saddle or on a Morse-Bott set keeps flowing, and a Newton result
is kept only if it converged without moving F against the flow; rows refused
either way resume the flow where it stopped, at their hand-off time and step,
and end where the flow alone would have ended.

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
    out = _ramp(s)
    return float(out) if out.ndim == 0 else out


def _ramp(s):  # rho on a float array, without the sign check
    t = np.minimum(np.maximum(s - 1.0, 0.0), 1.0)
    return np.where(s >= 2.0, s, 1.0 + 2.0 * t**2 - t**3)


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
    """The flow stage of ``pseudo_gradient_coords``: (X, |grad F|)."""
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

FIRST_STEP = 1e-2      # initial step of every row of a flow
MAX_TIME = 200.0       # flow time after which a row stops unconverged
ATOL = 1e-9            # local error bound per step of a trajectory
ENDPOINT_ATOL = 1e-6   # local error bound per step of an endpoint-only flow
NEWTON_HANDOFF = 1e-2  # gradient norm at which the vertical flow hands off to Newton,
                       # and the guard's eigenvalue margin, relative to 1 + max |lambda|
RTOL = 1e-3            # local error bound relative to the step's displacement
STEP_FLOOR = 1e-8      # a row rejected down to a step below this stops unconverged
LYAPUNOV_SLACK = 1e-13  # rounding allowance on F, relative to 1 + |F|
FD_SCALE = 1e-6        # finite-difference gradient step, relative to 1 + |x|
FD_HESSIAN_SCALE = 1e-4  # finite-difference Hessian step, relative to 1 + |x|
POINT_MERGE_DIST = 0.5  # linkage and walk-arrival distance of points with a Hessian kernel
MERGE_KERNEL_TOL = 1e-6  # Hessian eigenvalues below this, relative to 1 + the largest, are 0
MERGE_STEP = 0.5 * POINT_MERGE_DIST  # predictor step of the Morse-Bott continuation
MERGE_MAX_STEPS = 100   # predictor-corrector steps per continuation walk


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


def _flow_batch(field: ScalarField, direction: int, stage, project, starts, cfg: FlowConfig,
                max_time=None, record=None, atol=None, clock=None):
    """Adaptive Dormand-Prince 5(4) flow of a batch along direction * X, where
    stage(field, x) = (X, stopping norm), one step size per row, re-projecting
    with project(field.spec, x) after every stage and holding -direction * F monotone.

    Every row starts at time 0 from step FIRST_STEP.  Given clock = (t, h),
    the times and next steps an earlier call returned for these rows, the
    flow resumes instead: the starts, points that call returned, are not
    projected again, and each row goes on at time t from step h, exactly as
    if that call had run on.  A row stops once its norm (after a step, its
    last stage's) is at most grad_tol, at time max_time (default MAX_TIME),
    or when a rejection leaves its step below STEP_FLOOR.  A step is accepted
    when its error estimate is at most min(atol, RTOL |y - x|), atol
    defaulting to ATOL (endpoint-only callers pass ENDPOINT_ATOL), and the
    Lyapunov function -direction * F has not increased beyond rounding; the
    relative half of the bound keeps steps inside the stability region as
    rows approach the critical set.  Since the floor lies far above the steps
    whose change of F is rounding, a row rejected again and again reaches it
    within a few dozen steps.  ``record(t, x, gn)`` sees the starts and every
    pass that accepts a step.  Returns (endpoints, final norms, times, next
    steps).
    """
    max_time = MAX_TIME if max_time is None else max_time
    atol = ATOL if atol is None else atol

    def vfield(x):
        k, gn = stage(field, x)
        return direction * k, gn

    def proj(x):
        return project(field.spec, x)

    def lyapunov(x):
        return -direction * field.value_at(x)

    x = np.array(starts, dtype=float)
    if clock is None:
        x = proj(x)
        t, h = np.zeros(len(x)), np.full(len(x), FIRST_STEP)
    else:
        t, h = (np.array(c, dtype=float) for c in clock)
    k, gn = vfield(x)
    active = (gn > cfg.grad_tol) & (t < max_time)
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
        idx = np.flatnonzero(active)
    return x, gn, t, h


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


def _pseudo_gradient_flow(field: ScalarField, starts, cfg: FlowConfig, direction: int,
                          max_time=None, record=None, atol=None):
    """``_flow_batch`` on the pseudo-gradient, projecting onto field.spec and
    stopping on the Riemannian gradient norm."""
    return _flow_batch(field, direction, _pseudo_gradient, mf.project_points, starts, cfg,
                       max_time, record, atol)


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

    _pseudo_gradient_flow(field, start.coords[None, :], cfg, -1, record=record)
    coords = np.array(coords)
    return FlowTrace(
        times=np.array(times),
        coords=coords,
        values=field.value_at(coords),
        grad_norms=np.array(gns),
        spec=field.spec,
    )


def _endpoint_flow(field: ScalarField, direction: int, stage, project, residual, jacobian,
                   tangent, starts, cfg: FlowConfig):
    """An endpoint-only flow that finishes with Newton.

    ``_flow_batch`` at ENDPOINT_ATOL, stopping on the norm stage(field, x) returns,
    |residual(field, x)| to rounding, runs every row down to gradient norm
    NEWTON_HANDOFF (or cfg.grad_tol, if that is larger).  A row stopped there
    is handed to one Levenberg-Marquardt call on residual, with Jacobian
    jacobian(field, x) and retraction ``project``, to cfg.grad_tol.

    Guard: the Jacobian maps to zero the directions normal to the space the
    Newton step moves in, the space of dimension dim that
    tangent(field.spec, x, .) projects onto.  A row is handed off only if dim
    of its eigenvalues have the sign ``direction`` asks for (positive for
    descent), each beyond NEWTON_HANDOFF (1 + max |lambda|): the Hessian is
    then definite on that space.  So a descent row near a saddle is not
    polished onto it, nor a row near a Morse-Bott set, where the Newton limit
    lies some 1e-6 off the flow's own (3e-6 on nav over (S^1)^2).  The margin
    shares NEWTON_HANDOFF with the hand-off norm because a row with gradient
    norm at most NEWTON_HANDOFF and eigenvalues beyond the margin lies within
    about 1 / (1 + max |lambda|) of its critical point.  At the vertical flow's
    hand-off the eigenvalue along the Morse-Bott minimum circle of
    f = (v_4 - 1/2)^2 on the fiber over e_1 of stiefel:4 reads at most 2.4e-3
    of 1 + max |lambda|, of either sign, and the definite ones of ut-f on
    stiefel:4 and stiefel:8 at least 0.49.

    A Newton result is kept only if LM converged and -direction * F has not
    increased beyond LYAPUNOV_SLACK.  Rows the guard refuses, and rows whose
    result is not kept, resume the flow at their hand-off time and step, so
    they end bit for bit where the flow alone ends, unconverged at MAX_TIME
    included.  Rows the flow stopped unconverged are not handed off.

    Every stage treats rows independently, so a row's result does not depend on
    which rows share the call, with one exception inherited from
    ``numerics.levenberg_marquardt``: a finish of at least
    numerics.LM_BATCH_AXIS_ROWS handed-off rows solves along the batch axis,
    whose last bits may differ from the per-matrix solve.
    Returns (endpoints, gradient norms, converged mask).
    """
    from .numerics import levenberg_marquardt

    def run(x, tol, clock=None):
        return _flow_batch(field, direction, stage, project, x, FlowConfig(tol, cfg.cluster_tol),
                           atol=ENDPOINT_ATOL, clock=clock)

    x, gn, t, h = run(starts, max(cfg.grad_tol, NEWTON_HANDOFF))
    handed = np.flatnonzero((gn > cfg.grad_tol) & (gn <= NEWTON_HANDOFF) & (t < MAX_TIME))
    if handed.size:
        x0 = x[handed]
        jac = jacobian(field, x0)
        ok = np.isfinite(jac).all(axis=(1, 2))
        lam = direction * np.linalg.eigvalsh(jac[ok])
        margin = NEWTON_HANDOFF * (1.0 + np.abs(lam).max(axis=-1, keepdims=True))
        # the rank of the projector, the same at every point
        dim = np.trace(tangent(field.spec, x0[:1], np.eye(x0.shape[-1])))
        ok[ok] = np.sum(lam < -margin, axis=-1) > dim - 0.5
        go = handed[ok]
        kept = np.zeros(go.size, dtype=bool)
        if go.size:
            z, rn = levenberg_marquardt(lambda p: residual(field, p), lambda p: jacobian(field, p),
                                        x[go], tol=cfg.grad_tol,
                                        retract=lambda p: project(field.spec, p))
            before = -direction * field.value_at(x[go])
            after = -direction * field.value_at(z)
            slack = LYAPUNOV_SLACK * (1.0 + np.abs(before))
            kept = (rn <= cfg.grad_tol) & (after <= before + slack)
            x[go[kept]], gn[go[kept]] = z[kept], rn[kept]
        rest = np.setdiff1d(handed, go[kept])
        if rest.size:
            x[rest], gn[rest] = run(x[rest], cfg.grad_tol, (t[rest], h[rest]))[:2]
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
    x, gn = _pseudo_gradient_flow(field, starts, cfg, direction, atol=ENDPOINT_ATOL)[:2]
    return x, gn, gn <= cfg.grad_tol


def time_one_map(field: ScalarField, starts, cfg: FlowConfig = None):
    """Time-1 map of the negative pseudo-gradient flow, batched.

    Runs the adaptive driver at the trajectory bound ATOL to t = 1 from step
    FIRST_STEP, whatever MAX_TIME is; the last step of each row is cut to land
    on t = 1.  A row whose gradient norm reaches cfg.grad_tol stops there,
    before t = 1, as does a row stopped by the step floor.
    """
    return _pseudo_gradient_flow(field, starts, cfg or FlowConfig(), -1, max_time=1.0)[0]


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
    """Projectors (n, d, d) onto the kernel of the Riemannian Hessian in the tangent
    spaces at coords.  The eigenvectors E of eigenvalues at most MERGE_KERNEL_TOL
    (relative to 1 + the largest) span that kernel plus the normal space, which
    the Hessian maps to zero; P E E^T P drops the normal part."""
    lam, vec = np.linalg.eigh(field.riemannian_hessian(coords))
    small = np.abs(lam) <= MERGE_KERNEL_TOL * (1.0 + np.abs(lam).max(axis=-1, keepdims=True))
    kernel_rows = np.swapaxes(vec * small[:, None, :], -1, -2)
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
    from .numerics import levenberg_marquardt

    y, goal = pts[starts], pts[targets]
    level = field.value_at(y)
    dist = np.linalg.norm(goal - y, axis=-1)
    hit, idx = np.full(len(starts), -1), np.arange(len(starts))
    for _ in range(MERGE_MAX_STEPS):
        ya = y[idx]
        u = np.einsum("nij,nj->ni", _tangent_kernel(field, ya), goal[idx] - ya)
        un = np.linalg.norm(u, axis=-1)
        pred = mf.project_points(field.spec, ya + MERGE_STEP * u / np.maximum(un, 1e-300)[:, None])
        z, rn = levenberg_marquardt(field.riemannian_gradient, field.riemannian_hessian, pred,
                                    tol=cfg.grad_tol, retract=_retraction(field))
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
    each at one value), from one kernel test of the Riemannian Hessian per point.

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
    kernel = np.trace(_tangent_kernel(field, pts), axis1=-2, axis2=-1) > 0.5
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
    from .numerics import levenberg_marquardt

    z, rn = levenberg_marquardt(field.riemannian_gradient, field.riemannian_hessian,
                                _as_coords(seeds), tol=tol, retract=_retraction(field))
    return z[rn <= tol]


def _retraction(field):
    return lambda pts: mf.project_points(field.spec, pts)


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
