"""Chained-distance navigation functions and their critical structure.

The r-point navigation function on an embedded manifold M is
F(x_1,...,x_r) = sum |x_i - x_{i+1}|^2.  It vanishes exactly on the diagonal,
and on spheres and products of spheres its critical tuples are exactly those
with every slot equal to plus or minus the first slot, factorwise.  The value
of a critical tuple is 4 per consecutive sign change, summed over factors.

Also here: the multistart search for pairs (x, y) on a compact hypersurface
with a common tangent plane perpendicular to the chord, whose count bounds
the topological complexity of the surface from below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import flow
from . import manifolds as mf
from .errors import InvalidPoint, NoPairsFound, NotCriticalTuple, WrongSpec
from .flow import ScalarField
from .manifolds import Ellipsoid, ImplicitHypersurface, ProductSpheres, Sphere

# sign tolerance of the classifiers that label flow endpoints (nav and ut-f)
CLASSIFY_TOL = 1e-4
# largest r * ambient_dim of a nav field: its Hessian is a dense (r d, r d) matrix,
# and Newton forms one per seed
NAV_MAX_COORDS = 256

# ---------------------------------------------------------------------------
# Tuples on M^r
# ---------------------------------------------------------------------------

def _require_slots(r: int):
    if r < 2:
        raise InvalidPoint("navigation tuples need r >= 2 slots")


@dataclass(frozen=True, eq=False)
class NavTuple:
    """An r-tuple of points on a common manifold, stored as an (r, d) array."""

    spec: mf.ManifoldSpec
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.spec.ambient_dim:
            raise InvalidPoint("points must be an (r, ambient_dim) array")
        _require_slots(pts.shape[0])
        res = mf.constraint_residual(self.spec, pts)
        if not (res <= mf.POINT_TOL).all():
            raise InvalidPoint(f"tuple slot violates constraint ({res.max():.3e})")
        object.__setattr__(self, "points", pts)

    @property
    def r(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_flat(cls, spec, r: int, flat) -> "NavTuple":
        flat = np.asarray(flat, dtype=float).reshape(r, -1)
        return cls(spec, flat)

    def to_json(self) -> dict:
        return {
            "manifold": mf.spec_to_json(self.spec),
            "points": [[float(v) for v in row] for row in self.points],
        }


# ---------------------------------------------------------------------------
# Values and gradients
# ---------------------------------------------------------------------------

def _chain_value(pts):
    diff = pts[..., :-1, :] - pts[..., 1:, :]
    return np.sum(diff * diff, axis=(-2, -1))


def _chain_euclidean_gradient(pts):
    diff = pts[..., :-1, :] - pts[..., 1:, :]
    grad = np.zeros_like(pts)
    grad[..., :-1, :] += 2.0 * diff
    grad[..., 1:, :] -= 2.0 * diff
    return grad


def nav_value(t: NavTuple) -> float:
    """Sum of squared consecutive Euclidean distances; zero iff diagonal."""
    return float(_chain_value(t.points))


def nav_gradient(t: NavTuple) -> np.ndarray:
    """Riemannian gradient of F at t on M^r: the chain gradient projected onto
    the tangent space of each slot, as an (r, ambient_dim) array."""
    return mf.project_tangent(t.spec, t.points, _chain_euclidean_gradient(t.points))


def nav_field(spec, r: int) -> ScalarField:
    """The navigation function as a scalar field on M^r (flat coordinates), r >= 2
    and r * ambient_dim <= NAV_MAX_COORDS."""
    _require_slots(r)
    d = spec.ambient_dim
    if r * d > NAV_MAX_COORDS:
        raise WrongSpec(f"nav field on M^{r} has {r * d} coordinates, above {NAV_MAX_COORDS}")

    def value(x):
        x = np.asarray(x, dtype=float)
        return _chain_value(x.reshape(x.shape[:-1] + (r, d)))

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = _chain_euclidean_gradient(x.reshape(x.shape[:-1] + (r, d)))
        return g.reshape(x.shape)

    # F = |(D (x) I_d) x|^2 with D the (r-1, r) difference matrix of consecutive
    # slots, so its Hessian is the constant 2 (D^T D (x) I_d), D^T D the path Laplacian
    diff = np.eye(r - 1, r) - np.eye(r - 1, r, k=1)
    hess = np.kron(2.0 * diff.T @ diff, np.eye(d))

    classifier = None
    if isinstance(spec, (Sphere, ProductSpheres)):
        def classifier(coords):
            # NavTuple's check and block signs on all rows; each distinct row is labelled once
            pts = np.asarray(coords, dtype=float).reshape(-1, r, d)
            labels = np.full(len(pts), None, dtype=object)
            on = np.flatnonzero((mf.constraint_residual(spec, pts) <= mf.POINT_TOL).all(axis=1))
            signs = _block_signs(spec, pts[on], CLASSIFY_TOL).astype(np.int8)
            width = signs.shape[1] * r
            _, first, inv = np.unique(signs.reshape(-1, width).view(f"V{width}").ravel(),
                                      return_index=True, return_inverse=True)
            names = [SignPattern(signs[i]).label if ok else None
                     for i, ok in zip(first, signs[first].all(axis=(1, 2)))]
            labels[on] = np.array(names, dtype=object)[inv]
            return labels

    return ScalarField(spec.power(r), value, grad, name=f"nav(r={r})", classifier=classifier,
                       euclidean_hessian=lambda x: hess)


# ---------------------------------------------------------------------------
# Sign patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignPattern:
    """Per-factor, per-slot signs of a critical tuple; the first slot is +1."""

    signs: tuple

    def __post_init__(self):
        signs = tuple(tuple(int(s) for s in factor) for factor in self.signs)
        object.__setattr__(self, "signs", signs)
        if not signs or any(len(f) < 2 or len(f) != len(signs[0]) for f in signs):
            raise ValueError("pattern needs at least one factor and two slots, as many in each")
        if any(f[0] != 1 for f in signs):
            raise ValueError("slot 1 is +1 by convention")
        if any(s not in (-1, 1) for f in signs for s in f):
            raise ValueError("signs must be +1 or -1")

    @property
    def n_factors(self) -> int:
        return len(self.signs)

    @property
    def r(self) -> int:
        return len(self.signs[0])

    @property
    def flips(self) -> tuple:
        """Per-factor count of consecutive sign changes along the slots."""
        return tuple(
            sum(1 for a, b in zip(f, f[1:]) if a != b) for f in self.signs
        )

    @property
    def label(self) -> str:
        return "|".join("".join("+" if s == 1 else "-" for s in f) for f in self.signs)


def pattern_value(p: SignPattern) -> float:
    """Navigation value of a tuple realizing the pattern: 4 per sign change."""
    return 4.0 * sum(p.flips)


def slot_signs(ref, pts, tol: float) -> np.ndarray:
    """Per row of pts: +1 if within tol of ref, else -1 if within tol of -ref,
    else 0.  The +1 test goes first, so it wins when |ref| <= tol."""
    pts = np.asarray(pts, dtype=float)
    plus = np.linalg.norm(pts - ref, axis=-1) <= tol
    minus = np.linalg.norm(pts + ref, axis=-1) <= tol
    return np.where(plus, 1, np.where(minus, -1, 0))


def _block_signs(spec, pts, tol: float) -> np.ndarray:
    """slot_signs of the (n, r, d) tuples pts against slot 1, block by block: (n, blocks, r)."""
    return np.stack([slot_signs(pts[:, :1, s:e], pts[:, :, s:e], tol)
                     for s, e in mf.sphere_blocks(spec)], axis=1)


def classify_sphere_critical(t: NavTuple, tol: float = 1e-9) -> SignPattern:
    """Accept a tuple iff every slot of every factor is within tol of +-(slot 1).

    Rejected tuples are certified noncritical: NotCriticalTuple carries the
    norm of the projected gradient, which is the value of the differential
    along the normalized gradient direction.
    """
    if not isinstance(t.spec, (Sphere, ProductSpheres)):
        raise WrongSpec("structural classification needs a sphere or product of spheres")
    signs = _block_signs(t.spec, t.points[None], tol)[0]
    if signs.all():
        return SignPattern(signs)
    grad = nav_gradient(t).reshape(-1)
    witness = float(np.linalg.norm(grad))
    direction = grad / witness if witness > 0 else grad
    raise NotCriticalTuple(
        f"tuple is not of the +-x1 form; |DF| along the gradient direction is {witness:.3e}",
        witness=witness,
        direction=direction,
    )


def critical_tuple(spec, pattern: SignPattern, base: np.ndarray) -> NavTuple:
    """The critical tuple realizing a sign pattern over a base point of M."""
    blocks = mf.sphere_blocks(spec)
    if len(blocks) != pattern.n_factors:
        raise WrongSpec("pattern factor count does not match the manifold")
    base = np.asarray(base, dtype=float)
    if base.shape != (spec.ambient_dim,):
        raise InvalidPoint("the base must be one point of the manifold")
    signs = np.repeat(pattern.signs, [e - s for s, e in blocks], axis=0).T
    return NavTuple(spec, signs * base)


def random_critical_tuple(spec, r: int, rng: np.random.Generator) -> NavTuple:
    """Random base point and random sign pattern (slot 1 fixed at +1)."""
    base = mf.random_points(spec, 1, rng)[0]
    signs = [(1, *rng.choice([-1, 1], size=r - 1)) for _ in mf.sphere_blocks(spec)]
    return critical_tuple(spec, SignPattern(signs), base)


# ---------------------------------------------------------------------------
# Parallel-pair search on hypersurfaces
# ---------------------------------------------------------------------------

PAIR_RESIDUAL_TOL = 1e-11     # residual norm of a converged pair
PAIR_DEDUP_TOL = 1e-3         # pairs this close (in either order) are one pair
PAIR_MIN_SEPARATION = 1e-3    # pairs with |x - y| below this lie on the diagonal


@dataclass(frozen=True)
class PairSearchConfig:
    """Seed count and RNG seed of one census.  On any ellipsoid (the sphere and the
    built-in ellipsoid field included) the seeds are n_seeds unit directions, each
    solved for a critical point of the support function; on any other hypersurface,
    n_seeds points of M, each paired with the far end of its normal line.  The
    solver settings are the module constants above."""

    n_seeds: int = 10000
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("n_seeds", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            try:
                ok = mf._integer(value) >= least
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True, eq=False)
class CriticalPair:
    """An unordered pair {x, y} with aligned normals perpendicular to the chord."""

    x: np.ndarray
    y: np.ndarray
    value: float
    alignment_residual: float

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "y": [float(v) for v in self.y],
            "value": float(self.value),
            "alignment_residual": float(self.alignment_residual),
        }


@dataclass(eq=False)
class PairCensus:
    """Deduplicated critical pairs and their count, or the continuum flag; nn_distance,
    the least distance between two kept pairs, is None for a continuum or one pair."""

    pairs: list
    alpha: object
    n_converged: int
    nn_distance: Optional[float] = None

    @property
    def is_continuum(self) -> bool:
        return self.alpha == "continuum"

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "alpha": self.alpha,
            "n_converged": self.n_converged,
            "nn_distance": self.nn_distance,
            "pairs": [p.to_json() for p in self.pairs],
        }


def _hypersurface_of(spec):
    """The hypersurface a census searches, routed by its geometry: the sphere is the
    unit ellipsoid, and the built-in ellipsoid field (semiaxes a) at level L > 0 is
    the ellipsoid of semiaxes a sqrt(L); so every ellipsoid takes the support route.
    At L <= 0 the level set is the origin or empty, and the census is refused."""
    if isinstance(spec, Sphere):
        return Ellipsoid((1.0,) * spec.ambient_dim)
    if isinstance(spec, ImplicitHypersurface) and spec.field.name == "ellipsoid":
        if not spec.level > 0:
            raise WrongSpec(f"the ellipsoid field at level {spec.level!r} has no ellipsoid "
                            "to search: a pair census needs a level > 0")
        scale = math.sqrt(spec.level)
        return Ellipsoid(tuple(a * scale for a in spec.field.params["semiaxes"]))
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        return spec
    raise WrongSpec("parallel-pair search needs a hypersurface (ellipsoid, implicit, sphere)")


def _pair_chord(z):
    """x, y, the chord length |x - y| (at least 1e-12) and the unit chord d of z = (x, y)."""
    z = np.asarray(z, dtype=float)
    n = z.shape[-1] // 2
    x, y = z[..., :n], z[..., n:]
    chord = x - y
    dist = np.maximum(np.linalg.norm(chord, axis=-1, keepdims=True), 1e-12)
    return x, y, dist, chord / dist


def pair_system_residual(fld, level, z):
    """Residual of the double-normal system at z = (x, y), vectorized.

    Components: g(x) - level, g(y) - level, then (I - d d^T) u_x and
    (I - d d^T) u_y, the parts across the unit chord d of the unit normals
    u = grad g / |grad g| at each end.  The norm of each normal block is the
    sine of the angle between that normal and the chord, whatever |grad g| is
    there (Kuiper's double normals, Israel J. Math. 2, 1964).
    """
    x, y, _, d = _pair_chord(z)
    n = x.shape[-1]
    # filled in place so the rows stay C-ordered: LM's row norms sum in that order
    out = np.empty(x.shape[:-1] + (2 + 2 * n,))
    for s, p in enumerate((x, y)):
        out[..., s] = fld.value(p) - level
        g = fld.grad(p)
        gd, gg = (np.einsum("...i,...i->...", g, v)[..., None] for v in (d, g))
        out[..., 2 + s * n:2 + (s + 1) * n] = (g - gd * d) / np.sqrt(gg)
    return out


def pair_system_jacobian(fld, level, z):
    """Analytic Jacobian of pair_system_residual with respect to (x, y), as a
    C-ordered (..., 2+2n, 2n) array.

    At an end p with unit normal u, normal block r = u - (u.d) d, chord length
    rho and C = +-((u.d)/rho I + d (u - 2 (u.d) d)^T / rho), + at x: the block's
    derivative is (H - r (Hu)^T - d (Hd)^T)/|grad g| - C with respect to p and
    C with respect to the other end.  Every product is an elementwise or einsum
    form, so a row's bits do not depend on the batch."""
    x, y, dist, d = _pair_chord(z)
    n = x.shape[-1]
    jac = np.zeros(x.shape[:-1] + (2 + 2 * n, 2 * n))
    for s, (p, rho) in enumerate(((x, dist), (y, -dist))):
        g, h = fld.grad(p), fld.hess(p)
        norm = np.sqrt(np.einsum("...i,...i->...", g, g))[..., None]
        u = g / norm
        ud = np.einsum("...i,...i->...", u, d)[..., None]
        hu, hd = (np.einsum("...ij,...j->...i", h, v) for v in (u, d))
        c = d[..., :, None] * ((u - 2.0 * ud * d) / rho)[..., None, :]
        c += (ud / rho)[..., None] * np.eye(n)
        own = (h - (u - ud * d)[..., :, None] * hu[..., None, :]
               - d[..., :, None] * hd[..., None, :]) / norm[..., None] - c
        jac[..., s, s * n:(s + 1) * n] = g
        jac[..., 2 + s * n:2 + (s + 1) * n, s * n:(s + 1) * n] = own
        jac[..., 2 + s * n:2 + (s + 1) * n, (1 - s) * n:(2 - s) * n] = c
    return jac


def _normal_line_pairs(surf, x):
    """Seed pairs (x, y), one row per point x of M: y is where the normal line
    x + t grad g(x) meets M again, under g's second-order model at x.

    Along the line the model is g(x) - level + t |grad g|^2 + t^2 c / 2 with
    c = grad g^T H grad g, so its second zero is t = -2 |grad g|^2 / c, behind
    x where c > 0.  Both built-in fields are exactly quadratic along their
    normal lines (the ellipsoid everywhere, the torus of revolution in each
    meridian half-plane), so y lies on M before it is projected there, and
    the normal block of x in the pair residual starts at zero.  A row with
    c <= 0 has no crossing behind x; it, and a row whose partner does not
    project, gets a NaN partner."""
    fld = surf.field
    g, h = fld.grad(x), fld.hess(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # c <= 0 gives NaN
        c = np.einsum("ij,ijk,ik->i", g, h, g)
        y = x - (2.0 * np.einsum("ij,ij->i", g, g) / np.where(c > 0, c, np.nan))[:, None] * g
    return np.concatenate([x, surf.project(y)], axis=1)


def _gauss_newton_pairs(fld, level, z0):
    """Levenberg-Marquardt on the double-normal system from the seed pairs z0.

    Its normal blocks are unit sines, so no row gains by seeking small
    |grad g| instead of aligning the pair, and seed pairs almost never close
    onto the diagonal.  A normal-line seed pair starts with the first end's
    block at zero; where the second end's block is zero too (on the round
    sphere and the torus of revolution), the row has converged before its
    first Jacobian.  A row evaluated within PAIR_MIN_SEPARATION of
    the diagonal is still retired: its Jacobian is set to NaN, so the solver
    abandons it with an infinite residual norm (its row-failure rule).  There
    the unit chord and the 1/|x - y| terms of the Jacobian are undefined to
    working accuracy, and find_parallel_pairs drops such pairs anyway.  A row
    whose converging trial step lands on the diagonal is never evaluated
    there, so find_parallel_pairs' separation filter still drops it.
    """
    from .numerics import levenberg_marquardt

    n = fld.ambient_dim

    def jacobian(z):
        jac = pair_system_jacobian(fld, level, z)
        chord = z[:, :n] - z[:, n:]
        jac[np.einsum("ij,ij->i", chord, chord) < PAIR_MIN_SEPARATION ** 2] = np.nan
        return jac

    return levenberg_marquardt(lambda z: pair_system_residual(fld, level, z), jacobian, z0,
                               tol=PAIR_RESIDUAL_TOL)


def _pair_nullity(surf, x, y):
    """Nullity of the Riemannian Hessian of |x - y|^2 on M x M at (x, y): 0 at a
    nondegenerate pair, the family's dimension on a Morse-Bott family (Bott, Ann. of
    Math. 60, 1954).  Its diagonal blocks are each factor's Hessian, its off-diagonal
    block -2 P_x P_y; ``flow.inertia`` counts its zero eigenvalues (one ``eigvalsh``),
    less the 2 (n - dim M) normal directions, which it maps to zero."""
    eye = np.eye(x.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # a Hessian that overflows is refused
        off = -2.0 * surf.tangent_projector(x) @ surf.tangent_projector(y)
        hess = np.block([[surf.riemannian_hessian(x, 2.0 * (x - y), 2.0 * eye), off],
                         [off.T, surf.riemannian_hessian(y, 2.0 * (y - x), 2.0 * eye)]])
    if not np.isfinite(hess).all():
        raise WrongSpec(f"the Hessian of |x - y|^2 at a pair of value {np.sum((x - y) ** 2):.3e} "
                        "overflows on this surface, so its nullity cannot be judged")
    return int(flow.inertia(np.linalg.eigvalsh(hess), 2 * (len(x) - surf.dim)).nullity)


def _dedup_pairs(x, y, tol):
    """Representatives of the unordered pairs {x_i, y_i}, yielded in turn as rows
    (x, y): each pair in canonical order (decided on coordinates rounded to
    tol/10, so solver noise cannot flip it), then the lexicographically least
    remaining pair kept, the first of equal ones, and every pair within tol of it
    in either order dropped: the representatives, in order, of a stable sort.
    The rounded coordinates stay floats: their difference has the sign, and is zero
    exactly when an integer difference would be, beyond the int64 range too."""
    n = x.shape[1]
    diff = np.round(x / (0.1 * tol)) - np.round(y / (0.1 * tol))
    swap = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)] > 0  # x > y as tuples
    cand = np.concatenate([x, y], axis=1)
    cand[swap] = np.concatenate([y[swap], x[swap]], axis=1)
    while len(cand):
        rows = np.flatnonzero(cand[:, 0] == cand[:, 0].min())
        for col in cand.T[1:]:  # narrow the ties one column at a time
            if rows.size == 1:
                break
            rows = rows[col[rows] == col[rows].min()]
        rep = cand[rows[0]]
        yield rep
        swapped = np.concatenate([rep[n:], rep[:n]])
        cand = cand[np.minimum(np.linalg.norm(cand - rep, axis=-1),
                               np.linalg.norm(cand - swapped, axis=-1)) > tol]


def _seed_pair_solutions(surf, n_seeds, rng):
    """The census on a level set with no support function: n_seeds points x of M,
    each paired with the far end of its normal line (_normal_line_pairs), solved by
    _gauss_newton_pairs; returns the converged rows (x, y).

    One mask drops the nearly coincident seed pairs (the diagonal is a spurious
    solution set) and those without a partner (NaN, so never separated): a seed
    whose normal-line model has no crossing behind it (grad g^T H grad g <= 0), or
    whose partner does not project onto M.  When it drops every seed, no solve
    runs, and NoPairsFound says so."""
    n = surf.ambient_dim
    z0 = _normal_line_pairs(surf, mf.random_points(surf, n_seeds, rng))
    z0 = z0[np.linalg.norm(z0[:, :n] - z0[:, n:], axis=-1) > 10 * PAIR_MIN_SEPARATION]
    if len(z0) == 0:
        raise NoPairsFound(f"all {n_seeds} seed points were dropped before the solve: none "
                           "has a partner on M along its normal line, away from it")
    z, rn = _gauss_newton_pairs(surf.field, surf.level, z0)
    return z[rn <= PAIR_RESIDUAL_TOL]


def _support_pairs(surf, support, u0):
    """The census on an ellipsoid: the double normals (x(u), -x(u)) of the directions
    u that damped Newton (flow.newton_critical_search) takes from the unit directions
    u0 to critical points of the support field h / c, support = (h / c, c) as
    ``Ellipsoid.support_field`` returns it; x(u) = c grad(h / c) at u.

    On a convex body the double normals are the critical points of the width
    h(u) + h(-u) (Kuiper, Israel J. Math. 2, 1964), here 2h, so n unknowns replace
    the 2n of the pair system.  The stopping tolerance is PAIR_RESIDUAL_TOL min a / c:
    |grad(h / c)| = |x - h u| / c, and the sine between the chord 2x and the normal u
    is |x - h u| / |x| with |x| >= min a, so every converged pair is aligned to
    PAIR_RESIDUAL_TOL.  Rows are solved independently (below
    numerics.LM_BATCH_AXIS_ROWS rows, bit for bit); a direction that is not finite
    is dropped alone."""
    fld, c = support
    u = flow.newton_critical_search(fld, u0, tol=PAIR_RESIDUAL_TOL * min(surf.semiaxes) / c)
    x = c * fld.euclidean_gradient_at(u)
    return np.concatenate([x, -x], axis=1)


def find_parallel_pairs(spec, search: PairSearchConfig = None) -> PairCensus:
    """Multistart damped Newton for pairs with a common tangent plane.

    Two routes, chosen by geometry (_hypersurface_of).  On every ellipsoid,
    whether an Ellipsoid, the sphere or the built-in ellipsoid field at any
    positive level, the census draws n_seeds unit directions and solves for
    critical points of the support function (_support_pairs), n unknowns per
    seed.  On any other level set, such as the torus, which bounds no convex
    body, or that of a hand-built ConstraintField, it draws n_seeds points of M,
    pairs each with the far end of its normal line and solves the double-normal
    system (_seed_pair_solutions), 2n unknowns per seed.  Either way, pairs
    closer than PAIR_MIN_SEPARATION to the diagonal are dropped, the rest
    deduplicated as unordered pairs at the dedup threshold.  A kept pair whose Hessian has a
    kernel lies on a family of critical pairs, and the census then reports a
    continuum (no pairs, nn_distance None) instead of a count.
    """
    search = search or PairSearchConfig()
    surf = _hypersurface_of(spec)
    fld, level = surf.field, surf.level
    n = fld.ambient_dim
    rng = np.random.default_rng(search.rng_seed)
    support = surf.support_field()
    if support is None:
        z = _seed_pair_solutions(surf, search.n_seeds, rng)
    else:
        z = _support_pairs(surf, support, mf.random_points(support[0].spec, search.n_seeds, rng))

    x, y = z[:, :n], z[:, n:]
    with np.errstate(over="ignore"):  # a pair whose |x - y|^2 overflows is refused
        sep = np.linalg.norm(x - y, axis=-1)
    if not np.isfinite(sep).all():
        raise WrongSpec("a pair's |x - y|^2 overflows on this surface")
    keep = sep >= PAIR_MIN_SEPARATION
    x, y = x[keep], y[keep]
    n_converged = int(keep.sum())
    if n_converged == 0:
        raise NoPairsFound("no admissible pair converged; try more seeds" if len(z) == 0 else
                           f"every converged pair lies within {PAIR_MIN_SEPARATION} of the "
                           "diagonal x = y")

    reps = []
    for rep in _dedup_pairs(x, y, PAIR_DEDUP_TOL):
        if _pair_nullity(surf, rep[:n], rep[n:]) > 0:
            return PairCensus(pairs=[], alpha="continuum", n_converged=n_converged)
        reps.append(rep)
    reps = np.array(reps)

    nn = None
    if reps.shape[0] > 1:
        dmat = np.linalg.norm(reps[:, None, :] - reps[None, :, :], axis=-1)
        np.fill_diagonal(dmat, np.inf)
        nn = float(dmat.min())

    # the alignment residual is the larger sine of the two normal blocks
    blocks = pair_system_residual(fld, level, reps)[:, 2:].reshape(-1, 2, n)
    sines = np.linalg.norm(blocks, axis=-1)
    pairs = [CriticalPair(z[:n], z[n:], float(np.sum((z[:n] - z[n:]) ** 2)), float(a))
             for z, a in zip(reps, sines.max(axis=1))]
    pairs.sort(key=lambda p: (p.value, tuple(p.x), tuple(p.y)))
    return PairCensus(pairs=pairs, alpha=len(pairs), n_converged=n_converged,
                      nn_distance=nn)
