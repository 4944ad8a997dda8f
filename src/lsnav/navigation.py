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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

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
            # NavTuple's check and classify_sphere_critical's signs on all rows at once; that
            # function labels each distinct pattern (its bits as one byte string) once
            pts = np.asarray(coords, dtype=float).reshape(-1, r, d)
            labels = np.full(len(pts), None, dtype=object)
            on = np.flatnonzero((mf.constraint_residual(spec, pts) <= mf.POINT_TOL).all(axis=1))
            signs = np.concatenate([slot_signs(pts[on, :1, s:e], pts[on, :, s:e], CLASSIFY_TOL)
                                    for s, e in mf.sphere_blocks(spec)], axis=1)
            full = signs.all(axis=1)
            on, bits = on[full], np.packbits(signs[full] > 0, axis=1)
            _, first, inv = np.unique(bits.view(f"V{bits.shape[1]}").ravel(),
                                      return_index=True, return_inverse=True)
            names = [classify_sphere_critical(NavTuple(spec, p), CLASSIFY_TOL).label
                     for p in pts[on[first]]]
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
        if not signs or any(len(f) < 2 for f in signs):
            raise ValueError("pattern needs at least one factor and two slots")
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


def classify_sphere_critical(t: NavTuple, tol: float = 1e-9) -> SignPattern:
    """Accept a tuple iff every slot of every factor is within tol of +-(slot 1).

    Rejected tuples are certified noncritical: NotCriticalTuple carries the
    norm of the projected gradient, which is the value of the differential
    along the normalized gradient direction.
    """
    if not isinstance(t.spec, (Sphere, ProductSpheres)):
        raise WrongSpec("structural classification needs a sphere or product of spheres")
    signs = [slot_signs(t.points[0, s:e], t.points[:, s:e], tol)
             for s, e in mf.sphere_blocks(t.spec)]
    if all(factor.all() for factor in signs):
        return SignPattern(tuple(signs))
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
    pts = np.tile(base, (pattern.r, 1))
    for (s, e), factor in zip(blocks, pattern.signs):
        for i, sign in enumerate(factor):
            pts[i, s:e] = sign * base[s:e]
    return NavTuple(spec, pts)


def random_critical_tuple(spec, r: int, rng: np.random.Generator) -> NavTuple:
    """Random base point and random sign pattern (slot 1 fixed at +1)."""
    base = mf.random_points(spec, 1, rng)[0]
    signs = tuple(
        (1,) + tuple(int(s) for s in rng.choice([-1, 1], size=r - 1))
        for _ in mf.sphere_blocks(spec)
    )
    return critical_tuple(spec, SignPattern(signs), base)


# ---------------------------------------------------------------------------
# Parallel-pair search on hypersurfaces
# ---------------------------------------------------------------------------

PAIR_RESIDUAL_TOL = 1e-11     # residual norm of a converged pair
PAIR_DEDUP_TOL = 1e-3         # pairs this close (in either order) are one pair
PAIR_MIN_SEPARATION = 1e-3    # pairs with |x - y| below this lie on the diagonal
CONTINUUM_THRESHOLD = 50      # more distinct pairs than this form a continuum


@dataclass(frozen=True)
class PairSearchConfig:
    """Seed pairs and RNG seed of one census; the solver settings are the
    module constants above."""

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
    """Deduplicated critical pairs and the resulting count (or continuum flag)."""

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
    if isinstance(spec, Sphere):
        # the unit sphere is the unit-ellipsoid special case
        return mf.Ellipsoid((1.0,) * spec.ambient_dim)
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


@lru_cache(maxsize=None)
def _minor_pairs(n):
    """Rows a < b of the 2x2 minors in itertools.combinations order, read-only (shared)."""
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def pair_system_residual(fld, level, z):
    """Residual of the parallel-pair system at z = (x, y), vectorized.

    Components: g(x) - level, g(y) - level, then the 2x2 minors of
    (grad g(x), d) and (grad g(y), d) with d the normalized chord, each in
    the order of ``itertools.combinations(range(n), 2)``.  Minors avoid
    Lagrange multipliers at the cost of redundancy, handled by least-squares
    steps.
    """
    x, y, _, d = _pair_chord(z)
    gx = fld.grad(x)
    gy = fld.grad(y)
    a, b = _minor_pairs(x.shape[-1])
    k = a.size
    # filled in place so the rows stay C-ordered: LM's row norms sum in that order
    out = np.empty(x.shape[:-1] + (2 + 2 * k,))
    out[..., 0] = fld.value(x) - level
    out[..., 1] = fld.value(y) - level
    out[..., 2:2 + k] = gx[..., a] * d[..., b] - gx[..., b] * d[..., a]
    out[..., 2 + k:] = gy[..., a] * d[..., b] - gy[..., b] * d[..., a]
    return out


def pair_system_jacobian(fld, level, z):
    """Analytic Jacobian of pair_system_residual with respect to (x, y)."""
    x, y, dist, d = _pair_chord(z)
    n = x.shape[-1]
    # derivative of the normalized chord: (I - d d^T)/|x-y| wrt x, negated wrt y
    dd_dx = (np.eye(n) - d[..., :, None] * d[..., None, :]) / dist[..., None]
    gx = fld.grad(x)
    gy = fld.grad(y)
    hx = fld.hess(x)
    hy = fld.hess(y)
    a, b = _minor_pairs(n)
    k = a.size
    jac = np.zeros(x.shape[:-1] + (2 + 2 * k, 2 * n))
    jac[..., 0, :n] = gx
    jac[..., 1, n:] = gy
    # minors of (grad g(x), d): rows 2 .. 2+k
    ga = gx[..., a, None] * dd_dx[..., b, :]
    gb = gx[..., b, None] * dd_dx[..., a, :]
    jac[..., 2:2 + k, :n] = (
        hx[..., a, :] * d[..., b, None] - hx[..., b, :] * d[..., a, None] + ga - gb
    )
    jac[..., 2:2 + k, n:] = -(ga - gb)
    # minors of (grad g(y), d): the last k rows
    gyd = gy[..., a, None] * dd_dx[..., b, :] - gy[..., b, None] * dd_dx[..., a, :]
    jac[..., 2 + k:, :n] = gyd
    jac[..., 2 + k:, n:] = hy[..., a, :] * d[..., b, None] - hy[..., b, :] * d[..., a, None] - gyd
    return jac


def _gauss_newton_pairs(fld, level, z0):
    """Levenberg-Marquardt on the pair system from the seed pairs z0.

    A row evaluated within PAIR_MIN_SEPARATION of the diagonal is retired:
    its Jacobian is set to NaN, so the solver abandons it with an infinite
    residual norm (its row-failure rule).  There the unit chord and its
    1/|x - y| derivative are undefined to working accuracy, and
    find_parallel_pairs drops such pairs anyway.  A row whose converging
    trial step lands on the diagonal is never evaluated there, so
    find_parallel_pairs' separation filter still drops it.
    """
    from .numerics import levenberg_marquardt

    n = fld.ambient_dim

    def jacobian(z):
        jac = pair_system_jacobian(fld, level, z)
        jac[np.linalg.norm(z[:, :n] - z[:, n:], axis=-1) < PAIR_MIN_SEPARATION] = np.nan
        return jac

    return levenberg_marquardt(
        lambda z: pair_system_residual(fld, level, z),
        jacobian,
        z0,
        tol=PAIR_RESIDUAL_TOL,
    )


def _alignment_residual(fld, x, y):
    """Relative norm of the normal components orthogonal to the chord."""
    d = (x - y) / np.linalg.norm(x - y, axis=-1, keepdims=True)
    out = np.zeros(x.shape[:-1])
    for p in (x, y):
        g = fld.grad(p)
        perp = g - np.sum(g * d, axis=-1, keepdims=True) * d
        out = np.maximum(
            out, np.linalg.norm(perp, axis=-1) / np.linalg.norm(g, axis=-1)
        )
    return out


def _dedup_pairs(x, y, tol, cap):
    """Representatives of the unordered pairs {x_i, y_i}, as rows (x, y): each
    pair in canonical order (decided on coordinates rounded to tol/10, so
    solver noise cannot flip it), the pairs sorted, then a pair kept unless it
    lies within tol of a kept pair in either order; at most cap + 1 kept."""
    n = x.shape[1]
    diff = np.round(x / (0.1 * tol)).astype(int) - np.round(y / (0.1 * tol)).astype(int)
    swap = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)] > 0  # x > y as tuples
    cand = np.concatenate([x, y], axis=1)
    cand[swap] = np.concatenate([y[swap], x[swap]], axis=1)
    cand = cand[np.lexsort(cand.T[::-1])]

    def near(rows, kept):
        swapped = np.concatenate([kept[:, n:], kept[:, :n]], axis=1)
        return (np.minimum(np.linalg.norm(rows[:, None] - kept, axis=-1),
                           np.linalg.norm(rows[:, None] - swapped, axis=-1)) <= tol).any(axis=1)

    # each block of 256 candidates is screened against the pairs kept so far
    # at once; its survivors are settled in order, each new pair masking the rest
    kept = np.empty((cap + 1, 2 * n))
    k = 0
    for start in range(0, len(cand), 256):
        block = cand[start:start + 256]
        masked = near(block, kept[:k])
        while k <= cap and not masked.all():
            kept[k] = block[masked.argmin()]
            masked |= near(block, kept[k:k + 1])
            k += 1
        if k > cap:
            break
    return kept[:k]


def find_parallel_pairs(spec, search: PairSearchConfig = None) -> PairCensus:
    """Multistart damped Newton for pairs with a common tangent plane.

    Seeds are random surface points paired up; converged solutions are
    deduplicated as unordered pairs at the dedup threshold.  When the
    deduplicated pairs exceed the continuum threshold they form a curve or
    larger family and the census reports a continuum instead of a count.
    """
    search = search or PairSearchConfig()
    surf = _hypersurface_of(spec)
    fld, level = surf.field, surf.level
    rng = np.random.default_rng(search.rng_seed)
    pts = mf.random_points(surf, 2 * search.n_seeds, rng)
    z0 = np.concatenate([pts[: search.n_seeds], pts[search.n_seeds:]], axis=1)
    # drop nearly coincident seed pairs, the diagonal is a spurious solution set
    sep = np.linalg.norm(z0[:, : fld.ambient_dim] - z0[:, fld.ambient_dim:], axis=-1)
    z0 = z0[sep > 10 * PAIR_MIN_SEPARATION]

    z, rn = _gauss_newton_pairs(fld, level, z0)

    n = fld.ambient_dim
    good = rn <= PAIR_RESIDUAL_TOL
    x, y = z[good, :n], z[good, n:]
    sep = np.linalg.norm(x - y, axis=-1)
    keep = sep >= PAIR_MIN_SEPARATION
    x, y = x[keep], y[keep]
    n_converged = int(keep.sum())
    if n_converged == 0:
        raise NoPairsFound("no admissible pair converged; try more seeds")

    reps = _dedup_pairs(x, y, PAIR_DEDUP_TOL, 4 * CONTINUUM_THRESHOLD)

    nn = None
    if reps.shape[0] > 1:
        dmat = np.linalg.norm(reps[:, None, :] - reps[None, :, :], axis=-1)
        np.fill_diagonal(dmat, np.inf)
        nn = float(dmat.min())

    if reps.shape[0] > CONTINUUM_THRESHOLD:
        return PairCensus(pairs=[], alpha="continuum", n_converged=n_converged,
                          nn_distance=nn)

    x, y = reps[:, :n], reps[:, n:]
    pairs = [CriticalPair(px, py, float(np.sum((px - py) ** 2)), float(ares))
             for px, py, ares in zip(x, y, _alignment_residual(fld, x, y))]
    pairs.sort(key=lambda p: (p.value, tuple(p.x), tuple(p.y)))
    return PairCensus(pairs=pairs, alpha=len(pairs), n_converged=n_converged,
                      nn_distance=nn)
