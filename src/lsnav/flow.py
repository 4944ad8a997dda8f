"""Pseudo-gradient flows and critical-component detection.

The pseudo-gradient of a C^1 field F is X = grad F / rho(|grad F|), with rho
the C^1 ramp that is 1 below 1 and the identity above 2.  It satisfies
|X| <= 2 min(|grad F|, 1) and DF(X) >= min(|grad F|, |grad F|^2), so the
negative flow is a strict Lyapunov descent away from critical points.

Batched flows to critical points integrate with an adaptive Dormand-Prince
5(4) pair (first same as last), re-projecting onto the manifold after every
stage; FIRST_STEP is the initial step of every row.  A step is
accepted only when its local error estimate meets min(atol, RTOL |y - x|)
and F has not moved against the flow beyond rounding, so flows stay
Lyapunov-monotone; a row rejected down to a step below STEP_FLOOR stops
unconverged.  The same driver records single traces (``integrate_flow``)
and runs the time-1 map; ``detect_critical`` clusters flow endpoints.
Trajectories (``integrate_flow``, ``time_one_map``) take atol = ATOL; flows
that return only endpoints (``flow_endpoints``, so ``detect_critical``, and
``unit_tangent.vertical_flow_endpoints``) take ENDPOINT_ATOL.

``find_critical_components`` runs no flow.  Damped Newton on the Riemannian
gradient, with the analytic Riemannian Hessian (the manifold's projection of
the field's Euclidean Hessian plus its Weingarten term) as Jacobian, reaches
critical points of every index from every seed.  The converged points are
clustered by value, then by structural label, or by point distance followed
by a Morse-Bott merge: clusters on one critical manifold are joined when
predictor-corrector continuation along the Hessian kernel walks from one to
the other, so disjoint critical sets stay apart.
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
    if (s < 0).any():
        raise NegativeInput("rho is defined for nonnegative arguments")
    t = np.clip(s - 1.0, 0.0, 1.0)
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
    may be one matrix.  When no analytic gradient is given,
    central finite differences of ``value`` with step FD_SCALE * (1 + |x|) are
    used; when no Hessian is given, central differences of the gradient with
    step FD_HESSIAN_SCALE * (1 + |x|).
    ``classifier`` optionally maps a critical point to a structural label.
    """

    spec: mf.ManifoldSpec
    value: Callable[[np.ndarray], np.ndarray]
    euclidean_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    classifier: Optional[Callable[[np.ndarray], Optional[str]]] = None
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
        """The Riemannian Hessian at coords as (..., d, d) matrices: the tangent
        projection of the ambient Hessian plus the Weingarten term of the manifold."""
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
    grad = field.riemannian_gradient(coords)
    gn = np.linalg.norm(grad, axis=-1)
    h = 1.0 / rho(gn)
    return np.asarray(h)[..., None] * grad


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
RTOL = 1e-3            # local error bound relative to the step's displacement
STEP_FLOOR = 1e-8      # a row rejected down to a step below this stops unconverged
LYAPUNOV_SLACK = 1e-13  # rounding allowance on F, relative to 1 + |F|
FD_SCALE = 1e-6        # finite-difference gradient step, relative to 1 + |x|
FD_HESSIAN_SCALE = 1e-4  # finite-difference Hessian step, relative to 1 + |x|
POINT_MERGE_DIST = 0.5  # single-linkage distance when a field has no classifier
MERGE_KERNEL_TOL = 1e-6  # Hessian eigenvalues below this, relative to 1 + the largest, are 0
MERGE_STEP = 0.5 * POINT_MERGE_DIST  # predictor step of the Morse-Bott continuation
MERGE_MAX_STEPS = 100   # predictor-corrector steps per continuation walk


def _dp54_step(vfield, project, x, k1, h):
    """One projected Dormand-Prince step of sizes h (shape (n, 1)) from x with
    first stage k1; returns (new point, its vector field, local error norm)."""
    ks = [k1]
    for row in _DP_A:
        y = project(x + h * sum(a * k for a, k in zip(row, ks) if a))
        ks.append(vfield(y))
    err = h[:, 0] * np.linalg.norm(sum(e * k for e, k in zip(_DP_E, ks) if e), axis=-1)
    return y, ks[-1], err


def _flow_batch(field: ScalarField, direction: int, pseudo_gradient, project, grad_norm,
                starts, cfg: FlowConfig, max_time=None, record=None, atol=None):
    """Adaptive Dormand-Prince 5(4) flow of a batch along direction *
    pseudo_gradient(field, x), one step size per row, re-projecting with
    project(field.spec, x) after every stage and holding -direction * F monotone.

    Every row starts from step FIRST_STEP.  A row stops once
    grad_norm(field, x) <= grad_tol, after max_time (default MAX_TIME), or when
    a rejection leaves its step below STEP_FLOOR.  A step is accepted when its
    error estimate is at most min(atol, RTOL |y - x|), atol defaulting to ATOL
    (endpoint-only callers pass ENDPOINT_ATOL), and the Lyapunov function
    -direction * F has not increased beyond rounding; the relative half of the
    bound keeps steps inside the stability region as rows approach the critical
    set.  Since the floor lies far above the steps whose change of F is
    rounding, a row rejected again and again reaches it within a few dozen
    steps.  ``record(t, x, gn)`` sees the starts and every pass that accepts a
    step.  Returns (endpoints, final gradient norms, converged mask).
    """
    max_time = MAX_TIME if max_time is None else max_time
    atol = ATOL if atol is None else atol

    def vfield(x):
        return direction * pseudo_gradient(field, x)

    def proj(x):
        return project(field.spec, x)

    def lyapunov(x):
        return -direction * field.value_at(x)

    x = proj(np.array(starts, dtype=float))
    n = x.shape[0]
    gn = np.asarray(grad_norm(field, x), dtype=float)
    active = gn > cfg.grad_tol
    idx = np.flatnonzero(active)
    k = np.zeros_like(x)
    lyap = np.zeros(n)
    if idx.size:
        k[idx] = vfield(x[idx])
        lyap[idx] = lyapunov(x[idx])
    t = np.zeros(n)
    h = np.full(n, FIRST_STEP)
    if record is not None:
        record(t, x, gn)
    while idx.size:
        hs = np.minimum(h[idx], max_time - t[idx])
        x0 = x[idx]
        y, ky, err = _dp54_step(vfield, proj, x0, k[idx], hs[:, None])
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
            lyap[acc] = ly[ok]
            t[acc] += hs[ok]
            gn[acc] = grad_norm(field, x[acc])
            if record is not None:
                record(t, x, gn)
        active[idx] = ((gn[idx] > cfg.grad_tol) & (t[idx] < max_time)
                       & (ok | (h[idx] >= STEP_FLOOR)))
        idx = np.flatnonzero(active)
    return x, gn, gn <= cfg.grad_tol


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
    return _flow_batch(field, direction, pseudo_gradient_coords, mf.project_points,
                       ScalarField.gradient_norm, starts, cfg, max_time, record, atol)


def integrate_flow(field: ScalarField, start: PointOnM, cfg: FlowConfig = None) -> FlowTrace:
    """Integrate the descending pseudo-gradient flow from a single point.

    Records the start and every accepted step of the adaptive driver, held to
    the trajectory bound ATOL, so times increase strictly but unevenly and F
    never increases.  Stops like a row of ``flow_endpoints``.
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


def flow_endpoints(field: ScalarField, starts, cfg: FlowConfig = None, direction: int = -1):
    """Batched adaptive flow of direction * pseudo-gradient to the critical set.

    Dormand-Prince 5(4) with projection after every stage, starting from
    step FIRST_STEP in every row and held to ENDPOINT_ATOL (only endpoints are
    returned); F never moves against ``direction``.  Rows that do not reach
    cfg.grad_tol (by MAX_TIME or the step floor) are reported unconverged.
    Returns (endpoints, gradient norms, converged mask).
    """
    return _pseudo_gradient_flow(field, starts, cfg or FlowConfig(), direction, atol=ENDPOINT_ATOL)


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


def _split_by_gaps(sorted_vals, gap):
    cuts = np.flatnonzero(np.diff(sorted_vals) > gap)
    return np.split(np.arange(len(sorted_vals)), cuts + 1)


def _distance_clusters(points, threshold):
    """Single-linkage clusters of rows of points at the given threshold."""
    n = points.shape[0]
    labels = -np.ones(n, dtype=int)
    current = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        stack = [i]
        labels[i] = current
        while stack:
            j = stack.pop()
            dist = np.linalg.norm(points - points[j], axis=-1)
            near = np.flatnonzero((dist <= threshold) & (labels < 0))
            labels[near] = current
            stack.extend(near.tolist())
        current += 1
    return labels


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
    Returns, per walk, the index of the point it arrived at, or -1.
    """
    from .numerics import levenberg_marquardt

    y = pts[starts]
    goal = pts[targets]
    level = field.value_at(y)
    dist = np.linalg.norm(goal - y, axis=-1)
    hit = np.full(len(starts), -1)
    idx = np.arange(len(starts))
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


def _morse_bott_merge(field, pts, labels, cfg):
    """Merge the single-linkage clusters (labels over rows of pts, all at one
    value) that are connected through the critical set.

    A cluster whose Hessian kernel is trivial at its first point is an isolated
    critical point and stays alone.  Otherwise every component walks, by
    ``_follow_kernel``, from its point nearest to the nearest component it has
    not yet walked toward, and is united with whatever component it arrives at;
    this repeats until no component has such a neighbour.  Disjoint critical
    sets are never united, because a walk stays on the critical set.
    """
    k = labels.max() + 1
    if k == 1:
        return labels
    first = np.unique(labels, return_index=True)[1]
    walkable = np.trace(_tangent_kernel(field, pts[first]), axis1=-2, axis2=-1) > 0.5
    tried = ~np.outer(walkable, walkable)
    root = np.arange(k)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    while True:
        comp = root[labels]
        open_ = (comp[:, None] != comp[None, :]) & ~tried[labels[:, None], labels[None, :]]
        gap = np.where(open_, dist, np.inf)
        starts, targets = [], []
        for c in np.unique(comp):
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
        hit = _follow_kernel(field, pts, np.array(starts), np.array(targets),
                             comp[None, :] != comp[starts][:, None], cfg)
        for i, j in zip(starts, hit):
            if j >= 0:
                root[root == root[labels[j]]] = root[labels[i]]


def _cluster_endpoints(field, endpoints, cfg):
    """Group converged points into components: by value, with gaps larger than
    10 * cluster_tol, then by the field's structural classifier, or, when none
    is set, by point distance at POINT_MERGE_DIST followed by the Morse-Bott
    merge of clusters connected through the critical set."""
    values = field.value_at(endpoints)
    order = np.argsort(values, kind="stable")
    endpoints = endpoints[order]
    values = values[order]
    components = []
    for group in _split_by_gaps(values, 10.0 * cfg.cluster_tol):
        pts = endpoints[group]
        vals = values[group]
        if field.classifier is not None:
            labels = []
            for p in pts:
                try:
                    lab = field.classifier(p)
                except LsnavError:
                    lab = None
                labels.append(lab if lab is not None else "unclassified")
            labels = np.array(labels, dtype=object)
            for lab in sorted(set(labels.tolist())):
                sel = labels == lab
                components.append((float(np.mean(vals[sel])), pts[sel], str(lab)))
        else:
            cl = _morse_bott_merge(field, pts, _distance_clusters(pts, POINT_MERGE_DIST), cfg)
            for c in range(cl.max() + 1):
                sel = cl == c
                components.append((float(np.mean(vals[sel])), pts[sel], "unclassified"))
    out = []
    for val, pts, lab in components:
        key = np.lexsort(pts.T[::-1])
        out.append(CriticalComponent(val, pts[key], lab))
    out.sort(key=lambda c: (c.value, c.label))
    return out


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

def height_field(spec) -> ScalarField:
    """Coordinate height function f(x) = x[-1], the last ambient coordinate."""
    axis = spec.ambient_dim - 1

    def value(x):
        return np.asarray(x, dtype=float)[..., axis]

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., axis] = 1.0
        return g

    return ScalarField(spec, value, grad, name=f"height(axis={axis})",
                       euclidean_hessian=lambda x: np.zeros((spec.ambient_dim,) * 2))
