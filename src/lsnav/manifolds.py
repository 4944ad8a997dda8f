"""Geometry of the supported embedded manifolds.

Manifold descriptors, constraint/tangency residuals, projections onto the
manifold and onto tangent spaces, uniform random sampling, and the complex
and quaternionic multiplications on even-dimensional ambient spaces.

Coordinate conventions:
  * points are flat float vectors of length ``ambient_dim``;
  * product manifolds concatenate factor coordinates, and all per-factor
    operations act blockwise;
  * orthonormal 2-frames are stored column-major, first column then second.

All array-level functions are vectorized over leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .constraints import ConstraintField, builtin_field, default_level
from .errors import (
    BadLength,
    InvalidPoint,
    NoConvergence,
    NotTangent,
    OddLength,
    SingularInput,
    WrongSpec,
)

POINT_TOL = 1e-9
TANGENT_TOL = 1e-9
HYPERSURFACE_NEWTON_TOL = 1e-12
HYPERSURFACE_NEWTON_CAP = 50


# ---------------------------------------------------------------------------
# Manifold descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere:
    """Unit sphere S^dim embedded in R^(dim+1)."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise WrongSpec("sphere dimension must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1


@dataclass(frozen=True)
class ProductSpheres:
    """Product S^n1 x ... x S^nk with concatenated coordinates."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise WrongSpec("product requires factor dimensions >= 1")

    @property
    def ambient_dim(self) -> int:
        return sum(d + 1 for d in self.dims)


@dataclass(frozen=True)
class Ellipsoid:
    """Hypersurface sum x_i^2/a_i^2 = 1 with strictly positive semiaxes."""

    semiaxes: tuple

    def __post_init__(self):
        semi = tuple(float(a) for a in self.semiaxes)
        object.__setattr__(self, "semiaxes", semi)
        if len(semi) < 2 or any(a <= 0 for a in semi):
            raise WrongSpec("ellipsoid requires >= 2 strictly positive semiaxes")

    @property
    def ambient_dim(self) -> int:
        return len(self.semiaxes)

    @property
    def field(self) -> ConstraintField:
        return builtin_field("ellipsoid", {"semiaxes": self.semiaxes})

    @property
    def level(self) -> float:
        return 1.0


@dataclass(frozen=True)
class ImplicitHypersurface:
    """Level set g = level of a named built-in constraint field."""

    field: ConstraintField
    level: float

    @property
    def ambient_dim(self) -> int:
        return self.field.ambient_dim


@dataclass(frozen=True)
class StiefelV2:
    """Orthonormal 2-frames in R^frame_dim, stored as a flat length-2*frame_dim vector.

    With frame_dim = 2n this is the unit tangent bundle of S^(2n-1): the first
    column is the basepoint, the second the unit tangent vector.
    """

    frame_dim: int

    def __post_init__(self):
        if self.frame_dim < 2 or self.frame_dim % 2 != 0:
            raise WrongSpec("frame_dim must be an even integer >= 2")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.frame_dim


@dataclass(frozen=True)
class Euclidean:
    """Flat R^dim; projections are the identity.  Used by path-conversion tests."""

    dim: int

    @property
    def ambient_dim(self) -> int:
        return self.dim


ManifoldSpec = Union[Sphere, ProductSpheres, Ellipsoid, ImplicitHypersurface, StiefelV2, Euclidean]


def sphere_blocks(spec) -> tuple:
    """Coordinate ranges of the unit-norm blocks of a spec, as (start, stop) pairs."""
    if isinstance(spec, Sphere):
        return ((0, spec.ambient_dim),)
    if isinstance(spec, ProductSpheres):
        out = []
        start = 0
        for d in spec.dims:
            out.append((start, start + d + 1))
            start += d + 1
        return tuple(out)
    if isinstance(spec, StiefelV2):
        m = spec.frame_dim
        return ((0, m), (m, 2 * m))
    raise WrongSpec(f"{type(spec).__name__} has no sphere-block structure")


def spec_to_json(spec) -> dict:
    if isinstance(spec, Sphere):
        return {"kind": "sphere", "dim": spec.dim}
    if isinstance(spec, ProductSpheres):
        return {"kind": "product_spheres", "dims": list(spec.dims)}
    if isinstance(spec, Ellipsoid):
        return {"kind": "ellipsoid", "semiaxes": list(spec.semiaxes)}
    if isinstance(spec, ImplicitHypersurface):
        return {
            "kind": "implicit_hypersurface",
            "field": spec.field.to_json(),
            "level": spec.level,
        }
    if isinstance(spec, StiefelV2):
        return {"kind": "stiefel_v2", "frame_dim": spec.frame_dim}
    if isinstance(spec, Euclidean):
        return {"kind": "euclidean", "dim": spec.dim}
    raise WrongSpec(f"cannot serialize {spec!r}")


def spec_from_json(obj: dict):
    """The spec of a ``spec_to_json`` object; a missing or ill-typed field raises WrongSpec."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    try:
        if kind == "sphere":
            return Sphere(int(obj["dim"]))
        if kind == "product_spheres":
            return ProductSpheres(tuple(obj["dims"]))
        if kind == "ellipsoid":
            return Ellipsoid(tuple(obj["semiaxes"]))
        if kind == "implicit_hypersurface":
            fld = builtin_field(obj["field"]["name"], obj["field"]["params"])
            level = obj.get("level")
            return ImplicitHypersurface(fld, default_level(fld) if level is None else float(level))
        if kind == "stiefel_v2":
            return StiefelV2(int(obj["frame_dim"]))
        if kind == "euclidean":
            return Euclidean(int(obj["dim"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WrongSpec(f"{kind} spec has a missing or ill-typed field: {exc!r}") from None
    raise WrongSpec(f"unknown manifold kind {kind!r}")


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def frame_columns(spec: StiefelV2, coords):
    """Split flat frame coordinates into the two column vectors."""
    m = spec.frame_dim
    coords = np.asarray(coords, dtype=float)
    return coords[..., :m], coords[..., m:]


def frame_matrix(spec: StiefelV2, coords):
    """Flat frame coordinates as a (..., frame_dim, 2) matrix."""
    x1, x2 = frame_columns(spec, coords)
    return np.stack([x1, x2], axis=-1)


def frame_flat(x1, x2):
    return np.concatenate([x1, x2], axis=-1)


def constraint_residual(spec, coords):
    """Max constraint violation of coords on spec, vectorized over leading axes."""
    coords = np.asarray(coords, dtype=float)
    if isinstance(spec, Euclidean):
        return np.zeros(coords.shape[:-1])
    if isinstance(spec, (Sphere, ProductSpheres)):
        res = np.zeros(coords.shape[:-1])
        for s, e in sphere_blocks(spec):
            res = np.maximum(res, np.abs(np.linalg.norm(coords[..., s:e], axis=-1) - 1.0))
        return res
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        return np.abs(spec.field.value(coords) - spec.level)
    if isinstance(spec, StiefelV2):
        x = frame_matrix(spec, coords)
        gram = np.swapaxes(x, -1, -2) @ x
        eye = np.eye(2)
        return np.linalg.norm(gram - eye, axis=(-2, -1))
    raise WrongSpec(f"unsupported spec {spec!r}")


def tangency_residual(spec, coords, vec):
    """Max violation of the tangency constraints of vec at coords."""
    coords = np.asarray(coords, dtype=float)
    vec = np.asarray(vec, dtype=float)
    if isinstance(spec, Euclidean):
        return np.zeros(coords.shape[:-1])
    if isinstance(spec, (Sphere, ProductSpheres)):
        res = np.zeros(coords.shape[:-1])
        for s, e in sphere_blocks(spec):
            res = np.maximum(
                res, np.abs(np.sum(coords[..., s:e] * vec[..., s:e], axis=-1))
            )
        return res
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        g = spec.field.grad(coords)
        return np.abs(np.sum(g * vec, axis=-1)) / np.maximum(
            np.linalg.norm(g, axis=-1), 1e-300
        )
    if isinstance(spec, StiefelV2):
        x = frame_matrix(spec, coords)
        y = frame_matrix(spec, vec)
        xty = np.swapaxes(x, -1, -2) @ y
        return np.linalg.norm(xty + np.swapaxes(xty, -1, -2), axis=(-2, -1))
    raise WrongSpec(f"unsupported spec {spec!r}")


# ---------------------------------------------------------------------------
# Points and tangent vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PointOnM:
    """A single point on a manifold; validated against POINT_TOL at creation."""

    coords: np.ndarray
    spec: ManifoldSpec

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float).reshape(-1)
        object.__setattr__(self, "coords", coords)
        if coords.size != self.spec.ambient_dim:
            raise InvalidPoint(
                f"expected {self.spec.ambient_dim} coordinates, got {coords.size}"
            )
        res = float(constraint_residual(self.spec, coords))
        if not res <= POINT_TOL:
            raise InvalidPoint(f"constraint residual {res:.3e} exceeds {POINT_TOL}")

    @property
    def residual(self) -> float:
        return float(constraint_residual(self.spec, self.coords))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient vector tangent to the manifold at ``base``."""

    base: PointOnM
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=float).reshape(-1)
        object.__setattr__(self, "vec", vec)
        if vec.size != self.base.spec.ambient_dim:
            raise NotTangent("tangent vector has wrong length")
        res = float(tangency_residual(self.base.spec, self.base.coords, vec))
        if not res <= TANGENT_TOL:
            raise NotTangent(f"tangency residual {res:.3e} exceeds {TANGENT_TOL}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

def _project_hypersurface(field, level, coords, tol=HYPERSURFACE_NEWTON_TOL,
                          cap=HYPERSURFACE_NEWTON_CAP, soft=False):
    """Damped Newton steps along grad g until |g - level| <= tol.

    With soft=True returns (points, ok_mask) instead of raising on
    non-convergent or singular rows.
    """
    x = np.array(coords, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    ok = np.ones(flat.shape[0], dtype=bool)
    res = field.value(flat) - level
    for _ in range(cap):
        active = ok & (np.abs(res) > tol)
        if not active.any():
            break
        xa = flat[active]
        g = field.grad(xa)
        gn2 = np.sum(g * g, axis=-1)
        sing = gn2 < 1e-24
        if sing.any():
            if not soft:
                raise SingularInput("constraint gradient vanishes along projection path")
            idx = np.flatnonzero(active)[sing]
            ok[idx] = False
            active = ok & (np.abs(res) > tol)
            if not active.any():
                break
            xa = flat[active]
            g = field.grad(xa)
            gn2 = np.sum(g * g, axis=-1)
        ra = res[active]
        step = (ra / gn2)[:, None] * g
        lam = np.ones(len(xa))
        best_x = xa - step
        best_res = field.value(best_x) - level
        for _ in range(8):
            worse = np.abs(best_res) >= np.abs(ra)
            if not worse.any():
                break
            lam[worse] *= 0.5
            trial = xa[worse] - lam[worse, None] * step[worse]
            best_x[worse] = trial
            best_res[worse] = field.value(trial) - level
        flat[active] = best_x
        res[active] = best_res
    bad = ok & (np.abs(res) > tol)
    if bad.any():
        if not soft:
            raise NoConvergence(
                f"hypersurface projection above tolerance after {cap} iterations"
            )
        ok[bad] = False
    if soft:
        return flat.reshape(x.shape), ok.reshape(x.shape[:-1])
    return flat.reshape(x.shape)


def project_points(spec, coords):
    """Project ambient coordinates onto the manifold, vectorized over leading axes."""
    coords = np.asarray(coords, dtype=float)
    if isinstance(spec, Euclidean):
        return coords.copy()
    if isinstance(spec, (Sphere, ProductSpheres)):
        out = coords.copy()
        for s, e in sphere_blocks(spec):
            nrm = np.linalg.norm(out[..., s:e], axis=-1, keepdims=True)
            if (nrm < 1e-15).any():
                raise SingularInput("cannot normalize a zero block")
            out[..., s:e] /= nrm
        return out
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        return _project_hypersurface(spec.field, spec.level, coords)
    if isinstance(spec, StiefelV2):
        x = frame_matrix(spec, coords)
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        if (s[..., -1] < 1e-12).any():
            raise SingularInput("rank-deficient frame has no polar factor")
        q = u @ vh
        return frame_flat(q[..., 0], q[..., 1])
    raise WrongSpec(f"unsupported spec {spec!r}")


def project_to_manifold(spec, ambient) -> PointOnM:
    """Project a single ambient vector and wrap it as a validated point."""
    coords = project_points(spec, np.asarray(ambient, dtype=float).reshape(-1))
    return PointOnM(coords, spec)


def project_tangent(spec, coords, w):
    """Orthogonal projection of ambient vectors w onto tangent spaces at coords."""
    coords = np.asarray(coords, dtype=float)
    w = np.asarray(w, dtype=float)
    if isinstance(spec, Euclidean):
        return w.copy()
    if isinstance(spec, (Sphere, ProductSpheres)):
        out = w.copy()
        for s, e in sphere_blocks(spec):
            x = coords[..., s:e]
            dot = np.sum(x * out[..., s:e], axis=-1, keepdims=True)
            out[..., s:e] -= dot * x
        return out
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        g = spec.field.grad(coords)
        gn2 = np.maximum(np.sum(g * g, axis=-1, keepdims=True), 1e-300)
        return w - (np.sum(g * w, axis=-1, keepdims=True) / gn2) * g
    if isinstance(spec, StiefelV2):
        x = frame_matrix(spec, coords)
        y = frame_matrix(spec, w)
        xty = np.swapaxes(x, -1, -2) @ y
        sym = 0.5 * (xty + np.swapaxes(xty, -1, -2))
        out = y - x @ sym
        return frame_flat(out[..., 0], out[..., 1])
    raise WrongSpec(f"unsupported spec {spec!r}")


def tangent_project(p: PointOnM, w) -> TangentVector:
    """Project a single ambient vector onto the tangent space at p."""
    vec = project_tangent(p.spec, p.coords, np.asarray(w, dtype=float).reshape(-1))
    return TangentVector(p, vec)


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------

def random_points(spec, n: int, rng: np.random.Generator):
    """Draw n points on the manifold.

    Sphere blocks use normalized Gaussians (uniform), frames use the polar
    factor of a Gaussian matrix, hypersurfaces project samples from the
    bounding box of the constraint field.
    """
    d = spec.ambient_dim
    if isinstance(spec, Euclidean):
        return rng.standard_normal((n, d))
    if isinstance(spec, (Sphere, ProductSpheres, StiefelV2)):
        raw = rng.standard_normal((n, d))
        return project_points(spec, raw)
    if isinstance(spec, (Ellipsoid, ImplicitHypersurface)):
        box = spec.field.bounding_box
        out = np.empty((0, d))
        while out.shape[0] < n:
            m = max(2 * (n - out.shape[0]), 16)
            raw = rng.uniform(box[:, 0], box[:, 1], size=(m, d))
            g = spec.field.grad(raw)
            raw = raw[np.linalg.norm(g, axis=-1) > 1e-6]
            if raw.shape[0] == 0:
                continue
            proj, ok = _project_hypersurface(spec.field, spec.level, raw, soft=True)
            out = np.vstack([out, proj[ok]])
        return out[:n]
    raise WrongSpec(f"unsupported spec {spec!r}")


# ---------------------------------------------------------------------------
# Complex and quaternionic multiplications
# ---------------------------------------------------------------------------

def mult_i(x):
    """Pairwise rotation (x1,...,x2n) -> (x2,-x1,x4,-x3,...); a linear isometry with i^2 = -id."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 0:
        raise OddLength("mult_i requires an even number of coordinates")
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 1::2]
    out[..., 1::2] = -x[..., 0::2]
    return out


def mult_j(x):
    """Blockwise map (x1,x2,x3,x4,...) -> (-x4,-x3,x2,x1,...) on blocks of four.

    Orthogonal to both x and mult_i(x), and norm-preserving.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 4 != 0:
        raise BadLength("mult_j requires a length divisible by 4")
    out = np.empty_like(x)
    out[..., 0::4] = -x[..., 3::4]
    out[..., 1::4] = -x[..., 2::4]
    out[..., 2::4] = x[..., 1::4]
    out[..., 3::4] = x[..., 0::4]
    return out
