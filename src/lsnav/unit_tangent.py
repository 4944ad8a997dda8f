"""Unit tangent bundles of odd spheres as frame fibrations.

A frame X = (x, v) in V_2(R^2n) is a point of the unit tangent bundle of
S^(2n-1); the bundle projection keeps the first column.  The invariant
function f(X) = <i x, v> has exactly two critical levels, +-1, attained on
the sections v = +-i x.  This module provides f and its differential,
vertical/horizontal splitting of tangent vectors, vertical pseudo-gradient
flows that preserve fibers exactly, the fiberwise rotational planner through
j x on spheres of dimension 4m-1, and special-unitary trivializations
that make f fiberwise constant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flow, manifolds as mf
from .errors import (
    DegenerateBase,
    FiberMismatch,
    NotCriticalFiberTuple,
    NotTangent,
    WrongDimension,
    WrongSpec,
)
from .flow import FlowConfig, ScalarField, rho
from .manifolds import PointOnM, StiefelV2, TangentVector, mult_i, mult_j
from .navigation import CLASSIFY_TOL, slot_signs
from .paths import PathSpec, sign_flip_path


def _require_frames(spec) -> StiefelV2:
    if not isinstance(spec, StiefelV2):
        raise WrongSpec("operation requires an orthonormal 2-frame manifold")
    return spec


# ---------------------------------------------------------------------------
# The invariant function f(X) = <i x1, x2>
# ---------------------------------------------------------------------------

def f_ut_coords(spec: StiefelV2, coords):
    x1, x2 = mf.frame_columns(spec, coords)
    return np.sum(mult_i(x1) * x2, axis=-1)


def f_ut_euclidean_gradient(spec: StiefelV2, coords):
    # d<i x1, x2> = <i y1, x2> + <i x1, y2> and i is antisymmetric
    x1, x2 = mf.frame_columns(spec, coords)
    return mf.frame_flat(-mult_i(x2), mult_i(x1))


def f_ut(p: PointOnM) -> float:
    """Inner product of the rotated basepoint with the fiber vector; in [-1, 1]."""
    spec = _require_frames(p.spec)
    return float(f_ut_coords(spec, p.coords))


def df_ut(p: PointOnM, y: TangentVector) -> float:
    """Differential of f at p applied to a tangent frame vector."""
    spec = _require_frames(p.spec)
    if y.base is not p and np.linalg.norm(y.base.coords - p.coords) > 1e-12:
        raise NotTangent("tangent vector is based at a different point")
    x1, x2 = mf.frame_columns(spec, p.coords)
    y1, y2 = mf.frame_columns(spec, y.vec)
    return float(np.dot(mult_i(y1), x2) + np.dot(mult_i(x1), y2))


def sign_classifier(spec: StiefelV2):
    """Label a frame '+i' or '-i' according to which rotational section it sits on."""
    labels = {1: "+i", -1: "-i", 0: None}

    def classify(coords):
        x1, x2 = mf.frame_columns(spec, coords)
        return labels[int(slot_signs(mult_i(x1), x2, CLASSIFY_TOL))]

    return classify


def f_ut_field(spec: StiefelV2) -> ScalarField:
    _require_frames(spec)
    # f = x2^T A x1 with A x = i x is bilinear, so its gradient is H x with the constant
    # symmetric H = [[0, A^T], [A, 0]], whose rows are the gradients at the unit vectors
    hess = f_ut_euclidean_gradient(spec, np.eye(spec.ambient_dim))
    return ScalarField(
        spec,
        value=lambda x: f_ut_coords(spec, x),
        euclidean_gradient=lambda x: f_ut_euclidean_gradient(spec, x),
        name="ut-f",
        classifier=sign_classifier(spec),
        euclidean_hessian=lambda x: hess,
    )


def base_height_field(spec: StiefelV2) -> ScalarField:
    """f(X) = <x1, e_0>: depends on the base only, so its vertical gradient
    vanishes identically.  The standard counterexample to vertical
    proportionality."""
    _require_frames(spec)

    def value(x):
        x1, _ = mf.frame_columns(spec, x)
        return x1[..., 0]

    def grad(x):
        g = np.zeros_like(np.asarray(x, dtype=float))
        g[..., 0] = 1.0
        return g

    return ScalarField(spec, value, grad, name="base-height(axis=0)",
                       euclidean_hessian=lambda x: np.zeros((spec.ambient_dim,) * 2))


# ---------------------------------------------------------------------------
# Vertical / horizontal decomposition
# ---------------------------------------------------------------------------

def vertical_project_coords(spec: StiefelV2, coords, vec):
    """Vertical part (0, w) of a tangent frame vector: w is the component of
    the second column orthogonal to the span of both columns.  The horizontal
    part is vec minus the vertical part."""
    x1, x2 = mf.frame_columns(spec, coords)
    _, y2 = mf.frame_columns(spec, np.asarray(vec, dtype=float))
    w = y2 - (np.sum(y2 * x1, axis=-1, keepdims=True) * x1
              + np.sum(y2 * x2, axis=-1, keepdims=True) * x2)
    return mf.frame_flat(np.zeros_like(w), w)


def vertical_gradient_coords(field: ScalarField, coords):
    """Vertical part of the Riemannian gradient of f, row by row: the vertical
    projection of the Euclidean gradient, since the vertical space lies in the
    tangent space.

    On the entries of a fiber tuple (an (r, ambient_dim) array) this is the
    vertical gradient of the sum function on the fiber product: its vertical
    space splits as the product of the entrywise vertical spaces.  Acceptance
    criterion 7 checks this against a projection onto an explicit basis.
    """
    spec = _require_frames(field.spec)
    return vertical_project_coords(spec, coords, field.euclidean_gradient_at(coords))


@dataclass(eq=False)
class ProportionalityReport:
    """Empirical vertical-proportionality constant over a sample set.

    ``max_ratio`` is sup |grad f| / |vertical grad f| over samples with
    |grad f| > 1e-6 (inf when the vertical part vanishes there);
    ``singular_consistency`` holds when vertical-critical samples are
    critical for the full gradient too.
    """

    max_ratio: float
    singular_consistency: bool
    n_samples: int
    n_skipped: int
    n_inconsistent: int

    def to_json(self):
        ratio = self.max_ratio
        return {
            "schema": "v1",
            "max_ratio": None if np.isinf(ratio) else float(ratio),
            "ratio_finite": bool(np.isfinite(ratio)),
            "singular_consistency": bool(self.singular_consistency),
            "n_samples": self.n_samples,
            "n_skipped": self.n_skipped,
            "n_inconsistent": self.n_inconsistent,
        }


def vertical_proportionality_scan(field: ScalarField, samples) -> ProportionalityReport:
    """Measure an empirical proportionality constant; never asserts a bound."""
    coords = np.atleast_2d(np.asarray(samples, dtype=float))
    grad = field.riemannian_gradient(coords)
    gn = np.linalg.norm(grad, axis=-1)
    vn = np.linalg.norm(
        vertical_project_coords(field.spec, coords, grad), axis=-1
    )
    active = gn > 1e-6
    if active.any():
        with np.errstate(divide="ignore"):
            ratios = np.where(vn[active] > 0, gn[active] / np.maximum(vn[active], 1e-300),
                              np.inf)
        max_ratio = float(ratios.max())
    else:
        max_ratio = 0.0
    vertical_singular = vn <= 1e-8
    inconsistent = vertical_singular & (gn > 1e-6)
    return ProportionalityReport(
        max_ratio=max_ratio,
        singular_consistency=not bool(inconsistent.any()),
        n_samples=coords.shape[0],
        n_skipped=int((~active).sum()),
        n_inconsistent=int(inconsistent.sum()),
    )


# ---------------------------------------------------------------------------
# Fiber tuples and the componentwise vertical gradient
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiberTuple:
    """r frames sharing a basepoint: an element of the fiber product."""

    spec: StiefelV2
    entries: np.ndarray

    def __post_init__(self):
        _require_frames(self.spec)
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[1] != self.spec.ambient_dim:
            raise FiberMismatch("entries must be an (r, 2*frame_dim) array")
        if entries.shape[0] < 2:
            raise FiberMismatch("fiber tuples need r >= 2 entries")
        res = mf.constraint_residual(self.spec, entries)
        if not (res <= mf.POINT_TOL).all():
            raise FiberMismatch(f"entry violates the frame constraint ({res.max():.3e})")
        first = entries[:, : self.spec.frame_dim]
        drift = np.max(np.linalg.norm(first - first[0], axis=-1))
        if drift > 1e-9:
            raise FiberMismatch(f"entries do not share a basepoint (drift {drift:.3e})")
        object.__setattr__(self, "entries", entries)

    @property
    def r(self) -> int:
        return self.entries.shape[0]

    @property
    def basepoint(self) -> np.ndarray:
        return self.entries[0, : self.spec.frame_dim].copy()

    def to_json(self) -> dict:
        return {
            "manifold": mf.spec_to_json(self.spec),
            "entries": [[float(v) for v in row] for row in self.entries],
        }


def fiber_tangent_basis(spec: StiefelV2, t: FiberTuple) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent space of the fiber product at t,
    inside R^(r * 2 * frame_dim).

    The tangent space splits into per-entry vertical directions (0, w) with w
    orthogonal to both columns, plus one horizontal lift per base direction u:
    the lift at an entry (x, v) is (u, -<v, u> x), the unique tangent vector
    with base movement u and no vertical part.
    """
    r, amb, m = t.r, spec.ambient_dim, spec.frame_dim
    x = t.basepoint
    raw = []
    for i in range(r):
        v = t.entries[i, m:]
        comp = np.eye(m) - np.outer(x, x) - np.outer(v, v)
        for w in _orthonormalize(comp):
            cand = np.zeros(r * amb)
            cand[i * amb + m : (i + 1) * amb] = w
            raw.append(cand)
    for u in _orthonormalize(np.eye(m) - np.outer(x, x)):
        cand = np.zeros(r * amb)
        for i in range(r):
            v = t.entries[i, m:]
            cand[i * amb : i * amb + m] = u
            cand[i * amb + m : (i + 1) * amb] = -np.dot(v, u) * x
        raw.append(cand)
    return _orthonormalize(np.array(raw))


def _orthonormalize(rows):
    """Orthonormal rows spanning rows; R pivots at or below 1e-10 count as rank loss."""
    q, r = np.linalg.qr(rows.T)
    keep = np.abs(np.diag(r)) > 1e-10
    return q.T[keep]


def random_fiber_tuple(spec: StiefelV2, r: int, rng: np.random.Generator,
                       critical_mask=None) -> FiberTuple:
    """Random fiber tuple over a random basepoint; entries flagged in
    critical_mask are placed on the rotational sections (random sign)."""
    m = spec.frame_dim
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    rows = []
    for i in range(r):
        if critical_mask is not None and critical_mask[i]:
            sign = 1 if rng.random() < 0.5 else -1
            v = sign * mult_i(x)
        else:
            w = rng.standard_normal(m)
            w -= np.dot(w, x) * x
            v = w / np.linalg.norm(w)
        rows.append(mf.frame_flat(x, v))
    return FiberTuple(spec, np.array(rows))


# ---------------------------------------------------------------------------
# Fiber-preserving vertical flow
# ---------------------------------------------------------------------------

def vertical_pseudo_gradient_coords(field: ScalarField, coords):
    """Vertical part of the gradient scaled by 1/rho(|full gradient|), in one pass
    over the row views of X and of the Euclidean gradient G.  The vertical space
    lies in the tangent space, so the vertical part of G is that of its tangent
    projection; |P_tan G|^2 = |G|^2 - |sym(X^T G)|^2_F, clamped at 0 (rho is 1
    on [0, 1], so cancellation near 0 does no harm)."""
    spec, g = field.spec, field.euclidean_gradient_at(coords)
    x, rows = spec._rows(coords), spec._rows(g)
    xg = x @ np.swapaxes(rows, -1, -2)  # entry (k, l) is <x_k, g_l>
    w = rows[..., 1, :] - np.einsum("...k,...km->...m", xg[..., 1], x)
    s = xg + np.swapaxes(xg, -1, -2)  # 2 sym(X^T G)
    tan2 = np.einsum("...i,...i->...", g, g) - 0.25 * np.einsum("...ij,...ij->...", s, s)
    out = np.zeros_like(g)
    out[..., spec.frame_dim:] = w / np.asarray(rho(np.sqrt(np.maximum(tan2, 0.0))))[..., None]
    return out


def _anchored_project(spec: StiefelV2, coords):
    """Re-orthonormalize the second column against the untouched first column."""
    x1, x2 = mf.frame_columns(spec, coords)
    x2 = x2 - np.sum(x2 * x1, axis=-1, keepdims=True) * x1
    x2 = x2 / np.linalg.norm(x2, axis=-1, keepdims=True)
    return mf.frame_flat(x1, x2)


def _vertical_gradient_norm(field: ScalarField, coords):
    return np.linalg.norm(vertical_gradient_coords(field, coords), axis=-1)


def vertical_flow_endpoints(field: ScalarField, starts, cfg: FlowConfig = None,
                            direction: int = -1):
    """Batched adaptive flow of the vertical pseudo-gradient.

    The vector field has zero base component and the projection after every
    stage is anchored at the first column, so trajectories stay in their
    fiber exactly.  Integrates with the adaptive Dormand-Prince 5(4) driver of
    ``flow_endpoints`` from initial step flow.FIRST_STEP, never moving f against
    ``direction``; terminates on the vertical gradient norm.  Only the endpoints
    are returned, so steps are held to flow.ENDPOINT_ATOL, not to flow.ATOL.
    """
    _require_frames(field.spec)
    return flow._flow_batch(field, direction, vertical_pseudo_gradient_coords,
                            _anchored_project, _vertical_gradient_norm, starts,
                            cfg or FlowConfig(), atol=flow.ENDPOINT_ATOL)


# ---------------------------------------------------------------------------
# The fiberwise rotational planner
# ---------------------------------------------------------------------------

def sigma_u_planner(t: FiberTuple, tol: float = 1e-9) -> PathSpec:
    """Fiberwise section on rotational critical tuples over S^(4m-1).

    Every entry must be (x, +-i x).  Between consecutive equal signs the path
    is constant; across a sign flip the second column rotates through j x,
    which is orthogonal to both x and i x, so the moving column stays unit
    and tangent.  The first column never moves.
    """
    spec = _require_frames(t.spec)
    if spec.frame_dim % 4 != 0:
        raise WrongDimension(
            "rotational planner needs the quaternionic pairing: frame_dim divisible by 4"
        )
    x = t.basepoint
    ix = mult_i(x)
    signs = slot_signs(ix, t.entries[:, spec.frame_dim:], tol)
    if not signs.all():
        raise NotCriticalFiberTuple(
            f"entry {int(np.argmin(signs != 0))} is not on a rotational section (tolerance {tol})"
        )
    flips = (signs[1:] != signs[:-1])[:, None]
    starts = mf.frame_flat(np.tile(x, (t.r - 1, 1)), signs[:-1, None] * ix)
    directions = np.where(flips, mf.frame_flat(np.zeros_like(x), mult_j(x)), 0.0)
    return sign_flip_path(spec, starts, directions)


def fiber_fibration(p: PathSpec, r: int) -> FiberTuple:
    """Evaluate a fiber path at the r equally spaced times; validates the
    shared-basepoint condition."""
    spec = _require_frames(p.spec)
    ts = np.arange(r) / (r - 1)
    return FiberTuple(spec, p.eval_many(ts))


# ---------------------------------------------------------------------------
# Special-unitary trivialization
# ---------------------------------------------------------------------------

def to_complex(x):
    """Pair real coordinates (x1, x2, x3, x4, ...) as (x1 + i x2, x3 + i x4, ...)."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def from_complex(z):
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def unitary_apply(g, x):
    """Apply a complex matrix to real coordinates through the pairing."""
    return from_complex(np.asarray(g) @ to_complex(x))


def _complete_unitary(b: np.ndarray) -> np.ndarray:
    """Unitary matrix with first column b, by column-pivoted Gram-Schmidt.

    At every step the standard basis vector with the largest residual is
    orthogonalized in (re-anchoring); a dimension count guarantees that
    residual is at least 1/sqrt(n), so the completion is well-defined for
    every unit b and deterministic (ties break by index).
    """
    n = b.size
    cols = np.empty((n, n), dtype=complex)
    cols[:, 0] = b / np.linalg.norm(b)
    residual = np.eye(n, dtype=complex)
    residual -= cols[:, :1] @ (cols[:, :1].conj().T @ residual)
    for j in range(1, n):
        norms = np.linalg.norm(residual, axis=0)
        k = int(np.argmax(np.round(norms, 12)))
        if norms[k] <= 1e-7:
            raise DegenerateBase("could not complete the basepoint to a unitary basis")
        col = residual[:, k] / norms[k]
        cols[:, j] = col
        residual -= col[:, None] * (col.conj()[None, :] @ residual)
    return cols


# where a Trivialization is defined, as reported by its to_json
TRIVIALIZATION_DOMAIN = "unit vectors b; Gram-Schmidt pivots re-anchor near -b0"


@dataclass(eq=False)
class Trivialization:
    """Fiberwise identification over a neighborhood of b0.

    ``section(b)`` returns a special-unitary matrix moving b0 to b; ``psi``
    splits a frame into (basepoint, fiber element over b0) and ``psi_inv``
    rebuilds it.  The invariant function is constant under both.
    """

    spec: StiefelV2
    b0: np.ndarray

    def section(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if abs(np.linalg.norm(b) - 1.0) > 1e-9 or abs(np.linalg.norm(self.b0) - 1.0) > 1e-9:
            raise DegenerateBase("basepoints must be unit vectors")
        u0 = _complete_unitary(to_complex(self.b0))
        u1 = _complete_unitary(to_complex(b))
        det = np.linalg.det(u1) * np.conj(np.linalg.det(u0))
        u1 = u1.copy()
        u1[:, -1] *= np.conj(det)  # determinant-phase correction, first column untouched
        return u1 @ u0.conj().T

    def apply(self, g, frame_coords):
        x1, x2 = mf.frame_columns(self.spec, np.asarray(frame_coords, dtype=float))
        return mf.frame_flat(unitary_apply(g, x1), unitary_apply(g, x2))

    def psi(self, frame_coords):
        x1, _ = mf.frame_columns(self.spec, np.asarray(frame_coords, dtype=float))
        g = self.section(x1)
        return x1.copy(), self.apply(g.conj().T, frame_coords)

    def psi_inv(self, b, fiber_coords):
        return self.apply(self.section(b), fiber_coords)

    def to_json(self, b=None) -> dict:
        payload = {
            "schema": "v1",
            "basepoint": [float(v) for v in self.b0],
            "domain": TRIVIALIZATION_DOMAIN,
        }
        if b is not None:
            payload["matrix"] = matrix_to_json(self.section(b))
        return payload


def matrix_to_json(g) -> list:
    """Complex matrix as row-major [re, im] pairs."""
    g = np.asarray(g, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in g]


def su_trivialization(b0, b, spec: StiefelV2 = None):
    """Trivialization handle anchored at b0 together with g = section(b).

    Returns (handle, g) where g is special unitary with g b0 = b, both within
    1e-10; psi/psi_inv conjugate frames by the section and leave the
    invariant function unchanged.
    """
    b0 = np.asarray(b0, dtype=float)
    b = np.asarray(b, dtype=float)
    if b0.size % 2 != 0:
        raise WrongDimension("complex pairing needs an even ambient dimension")
    spec = spec or StiefelV2(b0.size)
    handle = Trivialization(spec=spec, b0=b0)
    return handle, handle.section(b)
