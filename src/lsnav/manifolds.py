"""Geometry of the supported embedded manifolds.

One class per manifold kind, carrying its constraint/tangency residuals,
projections onto the manifold and onto tangent spaces, uniform random
sampling and JSON form; module-level entry points that call them; and the
complex and quaternionic multiplications on even-dimensional ambient spaces.

Coordinate conventions:
  * points are flat float vectors of length ``ambient_dim``;
  * product manifolds concatenate factor coordinates, and all per-factor
    operations act blockwise;
  * orthonormal 2-frames are stored column-major, first column then second.

All array-level functions are vectorized over leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .constraints import ConstraintField, builtin_field, default_level
from .errors import (
    BadLength,
    InvalidPoint,
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
# Manifold kinds
# ---------------------------------------------------------------------------

class ManifoldSpec:
    """Common base of the manifold kinds: each kind carries its ``dim``, its geometry as
    methods on float arrays of shape (..., ambient_dim) and its JSON tag as ``kind``; the
    module functions below call them.  An operation a kind lacks raises WrongSpec."""

    def blocks(self) -> tuple:
        """Coordinate ranges of the unit-norm blocks, as (start, stop) pairs."""
        raise WrongSpec(f"{type(self).__name__} has no sphere-block structure")

    def power(self, r: int) -> "ManifoldSpec":
        """The manifold M^r (slot-major layout)."""
        raise WrongSpec(f"{type(self).__name__} has no power spec")

    def sample(self, n: int, rng: np.random.Generator):
        """n points: Gaussian samples projected onto the manifold."""
        return project_points(self, rng.standard_normal((n, self.ambient_dim)))

    def to_json(self) -> dict:
        """The kind and the dataclass fields, tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"kind": self.kind,
                **{k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}}

    @classmethod
    def from_json(cls, obj: dict) -> "ManifoldSpec":
        """The inverse of ``to_json``: the fields go to the constructor by name."""
        return cls(**{k: v for k, v in obj.items() if k != "kind"})

    def tangent_projector(self, coords):
        """The tangent projectors P at coords, (..., d, d) symmetric matrices: here
        ``project_tangent`` of each row of the identity.  The sphere blocks and the
        hypersurfaces build the same matrices, bit for bit, in closed form."""
        eye = np.broadcast_to(np.eye(self.ambient_dim), coords.shape + coords.shape[-1:])
        return self.project_tangent(coords[..., None, :], eye)

    def riemannian_hessian(self, coords, egrad, ehess):
        """The Riemannian Hessian of F, a (..., d, d) matrix, from the ambient gradient
        egrad and Hessian ehess of F at coords: P (ehess - S) P with P the
        ``tangent_projector`` and S the kind's ``shape_term(coords, egrad)``, so that
        -P S P is the Weingarten term (Absil, Mahony & Trumpf, "An extrinsic look at the
        Riemannian Hessian", 2013).  The matrix maps normal vectors to zero and is
        symmetric.  The sphere blocks subtract their diagonal S on the diagonal, and the
        hypersurfaces evaluate grad g once for P and S; both build P in closed form, and
        the Stiefel and Euclidean kinds project the identity."""
        p = self.tangent_projector(coords)
        return p @ (ehess - self.shape_term(coords, egrad)) @ p


class _SphereBlocks(ManifoldSpec):
    """Shared geometry of Sphere and ProductSpheres: a unit S^d per entry d of ``dims``."""

    @property
    def ambient_dim(self) -> int:
        return sum(d + 1 for d in self.dims)

    def blocks(self) -> tuple:
        starts, sizes = self._segments
        return tuple(zip(starts.tolist(), (starts + sizes).tolist()))

    def power(self, r: int) -> "ProductSpheres":
        return ProductSpheres(self.dims * r)

    @cached_property
    def _segments(self) -> tuple:
        """Block starts (for np.add.reduceat) and sizes (for np.repeat back)."""
        sizes = np.array(self.dims) + 1
        return np.cumsum(sizes) - sizes, sizes

    @cached_property
    def _same_block(self):
        """The (d, d) mask of coordinate pairs in one block: 1.0 there, else 0.0."""
        block = np.repeat(np.arange(len(self.dims)), self._segments[1])
        return (block[:, None] == block).astype(float)

    def _block_dots(self, u, v):
        return np.add.reduceat(u * v, self._segments[0], axis=-1)

    def residual(self, coords):
        return np.abs(np.sqrt(self._block_dots(coords, coords)) - 1.0).max(axis=-1)

    def tangency(self, coords, vec):
        return np.abs(self._block_dots(coords, vec)).max(axis=-1)

    def project(self, coords):
        with np.errstate(over="ignore"):  # a finite row whose squares overflow is rescaled
            nrm = np.sqrt(self._block_dots(coords, coords))
        ok = (nrm >= 1e-15) & (nrm < np.inf)
        if not ok.all():  # a row with a zero or non-finite block comes back NaN
            over = np.isinf(nrm).any(axis=-1) & np.isfinite(coords).all(axis=-1)
            if over.any():  # finite rows whose squares overflowed: scale by the largest entry
                starts, sizes = self._segments
                big = np.maximum.reduceat(np.abs(coords[over]), starts, axis=-1)
                unit = coords[over] / np.repeat(np.maximum(big, 1e-300), sizes, axis=-1)
                nrm[over] = big * np.sqrt(self._block_dots(unit, unit))
                ok = (nrm >= 1e-15) & (nrm < np.inf)
            nrm = np.where(ok.all(axis=-1, keepdims=True), nrm, np.nan)
        return coords / np.repeat(nrm, self._segments[1], axis=-1)

    def project_tangent(self, coords, w):
        return w - np.repeat(self._block_dots(coords, w), self._segments[1], axis=-1) * coords

    def tangent_projector(self, coords):
        """I - (x x^T) * M, M the same-block mask, built in place."""
        p = np.einsum("...i,...j->...ij", coords, coords)  # faster than broadcasting at d = 3
        p *= self._same_block
        return np.subtract(np.eye(self.ambient_dim), p, out=p)

    def shape_term(self, coords, egrad):
        """diag(<x_b, egrad_b>), repeated over each block b."""
        return self._shape_diagonal(coords, egrad)[..., None] * np.eye(self.ambient_dim)

    def _shape_diagonal(self, coords, egrad):
        return np.repeat(self._block_dots(coords, egrad), self._segments[1], axis=-1)

    def riemannian_hessian(self, coords, egrad, ehess):
        d = self.ambient_dim
        p = self.tangent_projector(coords)
        a = np.empty(p.shape)
        a[...] = ehess
        a.reshape(p.shape[:-2] + (d * d,))[..., :: d + 1] -= self._shape_diagonal(coords, egrad)
        return np.matmul(p @ a, p, out=a)


@dataclass(frozen=True)
class Sphere(_SphereBlocks):
    """Unit sphere S^dim embedded in R^(dim+1)."""

    dim: int
    kind = "sphere"

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim))
        if self.dim < 1:
            raise WrongSpec("sphere dimension must be >= 1")

    @property
    def dims(self) -> tuple:
        return (self.dim,)


@dataclass(frozen=True)
class ProductSpheres(_SphereBlocks):
    """Product S^n1 x ... x S^nk with concatenated coordinates."""

    dims: tuple
    kind = "product_spheres"
    dim = property(lambda self: sum(self.dims))

    def __post_init__(self):
        dims = tuple(_integer(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise WrongSpec("product requires factor dimensions >= 1")


def _project_hypersurface(field, level, coords):
    """Damped Newton steps along grad g until |g - level| <= HYPERSURFACE_NEWTON_TOL,
    for at most HYPERSURFACE_NEWTON_CAP iterations.  A row whose constraint value is
    not finite, whose constraint gradient vanishes on the way, or that is still above
    the tolerance at the cap, comes back NaN."""
    x = np.array(coords, dtype=float)
    flat = x.reshape(-1, x.shape[-1])
    with np.errstate(over="ignore"):  # a row whose constraint value overflows comes back NaN
        res = field.value(flat) - level
    res[~np.isfinite(res)] = np.nan  # NaN rows are never active
    for _ in range(HYPERSURFACE_NEWTON_CAP):
        active = np.abs(res) > HYPERSURFACE_NEWTON_TOL  # False for a NaN row
        if not active.any():
            break
        xa = flat[active]
        g = field.grad(xa)
        gn2 = np.sum(g * g, axis=-1)
        ra = res[active]
        step = (ra / np.where(gn2 < 1e-24, np.nan, gn2))[:, None] * g
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
    flat[~(np.abs(res) <= HYPERSURFACE_NEWTON_TOL)] = np.nan
    return flat.reshape(x.shape)


class _Hypersurface(ManifoldSpec):
    """Shared geometry of Ellipsoid and ImplicitHypersurface: the level set field = level."""

    dim = property(lambda self: self.ambient_dim - 1)

    @property
    def ambient_dim(self) -> int:
        return self.field.ambient_dim

    def residual(self, coords):
        return np.abs(self.field.value(coords) - self.level)

    def tangency(self, coords, vec):
        g = self.field.grad(coords)
        gn = np.maximum(np.linalg.norm(g, axis=-1), 1e-300)
        return np.abs(np.sum(g * vec, axis=-1)) / gn

    def project(self, coords):
        return _project_hypersurface(self.field, self.level, coords)

    def project_tangent(self, coords, w):
        g = self.field.grad(coords)
        gn2 = np.maximum(np.sum(g * g, axis=-1, keepdims=True), 1e-300)
        return w - (np.sum(g * w, axis=-1, keepdims=True) / gn2) * g

    def tangent_projector(self, coords):
        return self._projector(self.field.grad(coords))

    @staticmethod
    def _projector(g):
        """I - (g / |g|^2) g^T at constraint gradients g, built in place."""
        gn2 = np.maximum(np.sum(g * g, axis=-1, keepdims=True), 1e-300)
        p = np.einsum("...i,...j->...ij", g / gn2, g)
        return np.subtract(np.eye(g.shape[-1]), p, out=p)

    def shape_term(self, coords, egrad):
        """(<grad g, egrad> / |grad g|^2) hess(g)."""
        return self._shape(coords, self.field.grad(coords), egrad)

    def _shape(self, coords, g, egrad):
        scale = _dot(g, egrad) / np.maximum(_dot(g, g), 1e-300)
        return scale[..., None] * self.field.hess(coords)

    def riemannian_hessian(self, coords, egrad, ehess):
        g = self.field.grad(coords)
        p = self._projector(g)
        a = ehess - self._shape(coords, g, egrad)
        return np.matmul(p @ a, p, out=a)

    def sample(self, n: int, rng: np.random.Generator):
        """n points: uniform draws from the field's bounding box, those with a gradient
        above 1e-6 projected onto the level set.  A round draws 2 (n - have) points, or
        16 after a round that adds none; ten such rounds in a row raise WrongSpec.  Rows
        project independently, so a round projects only the first n - have drawn rows,
        and the rest of its draw only when some of those fail: the same points as
        projecting every row, at about half the projections."""
        d = self.ambient_dim
        box = self.field.bounding_box
        out = np.empty((0, d))
        idle = 0
        while out.shape[0] < n:
            need = n - out.shape[0]
            m = 16 if idle else max(2 * need, 16)
            raw = rng.uniform(box[:, 0], box[:, 1], size=(m, d))
            with np.errstate(over="ignore"):  # a gradient whose square overflows is not small
                raw = raw[np.linalg.norm(self.field.grad(raw), axis=-1) > 1e-6]
            proj = self._project_finite(raw[:need])
            if len(proj) < need and len(raw) > need:
                proj = np.vstack([proj, self._project_finite(raw[need:])])
            idle = 0 if len(proj) else idle + 1
            if idle == 10:
                raise WrongSpec(f"no point of the bounding box projects onto {self.kind} "
                                f"at level {self.level} in {idle} rounds")
            out = np.vstack([out, proj])
        return out[:n]

    def _project_finite(self, raw):
        proj = _project_hypersurface(self.field, self.level, raw)
        return proj[np.isfinite(proj).all(axis=-1)]

    def support_field(self):
        """The support function of the body M bounds, as (field, c): see
        ``Ellipsoid.support_field``.  None here: the level set of a general field need
        not bound a convex body (the torus does not)."""
        return None


@dataclass(frozen=True)
class Ellipsoid(_Hypersurface):
    """Hypersurface sum x_i^2/a_i^2 = 1 with semiaxes from 1e-154 to 1e154, where
    a^2 and 1/a^2 are finite and nonzero."""

    semiaxes: tuple
    kind = "ellipsoid"
    level = 1.0

    def __post_init__(self):
        semi = tuple(float(a) for a in self.semiaxes)
        object.__setattr__(self, "semiaxes", semi)
        if len(semi) < 2 or not all(1e-154 <= a <= 1e154 for a in semi):
            raise WrongSpec("ellipsoid requires >= 2 finite, strictly positive semiaxes, "
                            "each from 1e-154 to 1e154 so that a^2 and 1/a^2 are finite")

    @cached_property
    def field(self) -> ConstraintField:
        return builtin_field("ellipsoid", {"semiaxes": self.semiaxes})

    def support_field(self):
        """(h / c, c): the support function h(u) = (sum a_i^2 u_i^2)^(1/2) of the solid
        ellipsoid, a scalar field on the unit sphere of directions S^(n-1), divided by c,
        the least power of two at or above max a_i.

        Its gradient at u is x(u) / c, x(u) = A^2 u / h(u) being the point of M whose
        outward normal is u.  Dividing by a power of two is exact, so the field of 2^k M
        is the field of M, bit for bit.  The Hessian is (diag(b^2) - g g^T) / h with
        b = a / c and g the gradient, |g_i| <= b_i <= 1.  Since h >= min b, no entry
        exceeds max b^2 / min b <= max a / min a, so it is finite for any semiaxes the
        spec accepts; a c below max a would let it overflow."""
        from .flow import ScalarField

        mant, exp = np.frexp(max(self.semiaxes))
        c = float(np.ldexp(1.0, int(exp) - int(mant == 0.5)))
        b = np.array(self.semiaxes) / c
        b2, eye = b**2, np.eye(len(b))

        def value(u):
            h = np.sqrt(np.einsum("...i,...i->...", b2 * u, u))
            low = h < 2.0**-511  # h^2 underflowed (h(e_i) = b_i < 2^-511): take hypot
            return np.where(low, np.hypot.reduce(b * u, axis=-1), h) if np.any(low) else h

        def grad(u):
            return b2 * u / value(u)[..., None]

        def hess(u):
            h = value(u)[..., None]
            g = b2 * u / h
            out = np.einsum("...i,...j->...ij", g, g)  # faster than broadcasting at n = 3
            np.subtract(b2 * eye, out, out=out)
            out /= h[..., None]
            return out

        return ScalarField(Sphere(len(b2) - 1), value, grad, name="support/c",
                           euclidean_hessian=hess), c


@dataclass(frozen=True)
class ImplicitHypersurface(_Hypersurface):
    """Level set g = level of a named built-in constraint field; the level is finite."""

    field: ConstraintField
    level: float
    kind = "implicit_hypersurface"

    def __post_init__(self):
        level = float(self.level)
        if not np.isfinite(level):
            raise WrongSpec(f"implicit hypersurface level must be finite, got {level!r}")
        object.__setattr__(self, "level", level)

    def to_json(self) -> dict:
        return {"kind": self.kind, "field": self.field.to_json(), "level": self.level}

    @classmethod
    def from_json(cls, obj: dict) -> "ImplicitHypersurface":
        fld = builtin_field(obj["field"]["name"], obj["field"]["params"])
        level = obj.get("level")
        return cls(fld, default_level(fld) if level is None else float(level))


@dataclass(frozen=True)
class StiefelV2(ManifoldSpec):
    """Orthonormal 2-frames in R^frame_dim, stored as a flat length-2*frame_dim vector.

    With frame_dim = 2n this is the unit tangent bundle of S^(2n-1): the first
    column is the basepoint, the second the unit tangent vector.
    """

    frame_dim: int
    kind = "stiefel_v2"
    dim = property(lambda self: 2 * self.frame_dim - 3)

    def __post_init__(self):
        object.__setattr__(self, "frame_dim", _integer(self.frame_dim))
        if self.frame_dim < 2 or self.frame_dim % 2 != 0:
            raise WrongSpec("frame_dim must be an even integer >= 2")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.frame_dim

    def blocks(self) -> tuple:
        m = self.frame_dim
        return ((0, m), (m, 2 * m))

    def _rows(self, coords):  # (..., 2, frame_dim) views: row k is column k of the frame
        return coords.reshape(coords.shape[:-1] + (2, self.frame_dim))

    def residual(self, coords):
        x = self._rows(coords)
        return np.linalg.norm(x @ np.swapaxes(x, -1, -2) - np.eye(2), axis=(-2, -1))

    def tangency(self, coords, vec):
        xty = self._rows(coords) @ np.swapaxes(self._rows(vec), -1, -2)
        return np.linalg.norm(xty + np.swapaxes(xty, -1, -2), axis=(-2, -1))

    def project(self, coords):
        """The polar factor of the frame matrix X, in closed form: Gram-Schmidt, run twice,
        gives X = [e1 e2] [[r11, r12], [0, r22]], whose 2x2 factor has the polar factor
        [[k, r12], [-r12, k]] / t with k = r11 + r22 and t = hypot(k, r12) = sigma_1 + sigma_2.
        A row with a non-finite entry or sigma_min below 1e-12 sigma_max comes back NaN."""
        x1, x2 = frame_columns(self, coords)
        with np.errstate(invalid="ignore"):  # a non-finite entry makes its row NaN throughout
            r11 = np.sqrt(_dot(x1, x1))
            e1 = x1 / np.maximum(r11, 1e-300)  # a zero x1 gives r11 r22 = 0 below
            c1 = _dot(e1, x2)
            p = x2 - c1 * e1
            c2 = _dot(e1, p)
            p -= c2 * e1
            r12, r22 = c1 + c2, np.sqrt(_dot(p, p))
            k, t = r11 + r22, np.hypot(r11 + r22, r12)
            sigma_max = 0.5 * (t + np.hypot(r11 - r22, r12))
            low = ~(r11 * r22 > 1e-12 * sigma_max)[..., 0]  # sigma_min = r11 r22 / sigma_max
            e2 = p / r22
            out = frame_flat(k * e1 - r12 * e2, r12 * e1 + k * e2) / t
        if low.any():
            out[low] = np.nan
        return out

    def project_tangent(self, coords, w):
        """W - X sym(X^T W), on the row views (X sym)^T = sym X^T."""
        x, y = self._rows(coords), self._rows(w)
        return (y - self._sym(x, y) @ x).reshape(w.shape)

    def shape_term(self, coords, egrad):
        """kron(sym(X^T egrad), I_m): V -> V sym(X^T egrad) on flat frames."""
        return np.kron(self._sym(self._rows(coords), self._rows(egrad)), np.eye(self.frame_dim))

    @staticmethod
    def _sym(x, y):  # sym(X^T Y) from the row views
        xty = x @ np.swapaxes(y, -1, -2)
        return 0.5 * (xty + np.swapaxes(xty, -1, -2))


@dataclass(frozen=True)
class Euclidean(ManifoldSpec):
    """The flat manifold R^dim: projections are the identity."""

    dim: int
    kind = "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim))
        if self.dim < 1:
            raise WrongSpec("euclidean dimension must be >= 1")

    @property
    def ambient_dim(self) -> int:
        return self.dim

    def power(self, r: int) -> "Euclidean":
        return Euclidean(self.dim * r)

    def residual(self, coords):
        return np.zeros(coords.shape[:-1])

    def tangency(self, coords, vec):
        return np.zeros(coords.shape[:-1])

    def project(self, coords):
        return coords.copy()

    def project_tangent(self, coords, w):
        return w.copy()

    def shape_term(self, coords, egrad):
        return 0.0


def _integer(value) -> int:
    """value as an int; a bool or a number with a fractional part raises ValueError."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def spec_to_json(spec) -> dict:
    return spec.to_json()


def spec_from_json(obj: dict):
    """The spec of a ``spec_to_json`` object; a missing or ill-typed field raises WrongSpec."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    kinds = (Sphere, ProductSpheres, Ellipsoid, ImplicitHypersurface, StiefelV2, Euclidean)
    cls = next((c for c in kinds if c.kind == kind), None)
    if cls is None:
        raise WrongSpec(f"unknown manifold kind {kind!r}")
    try:
        return cls.from_json(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WrongSpec(f"{kind} spec has a missing or ill-typed field: {exc!r}") from None


def frame_columns(spec: StiefelV2, coords):
    """Split flat frame coordinates into the two column vectors."""
    m = spec.frame_dim
    coords = np.asarray(coords, dtype=float)
    return coords[..., :m], coords[..., m:]


def frame_flat(x1, x2):
    return np.concatenate([x1, x2], axis=-1)


def _dot(u, v):
    """Row-wise dot products over the last axis, kept as a length-1 axis."""
    return np.einsum("...i,...i->...", u, v)[..., None]


def sphere_blocks(spec) -> tuple:
    """Coordinate ranges of the unit-norm blocks of a spec, as (start, stop) pairs."""
    return spec.blocks()


def constraint_residual(spec, coords):
    """Max constraint violation of coords on spec."""
    return spec.residual(np.asarray(coords, dtype=float))


def tangency_residual(spec, coords, vec):
    """Max violation of the tangency constraints of vec at coords."""
    return spec.tangency(np.asarray(coords, dtype=float), np.asarray(vec, dtype=float))


def project_points(spec, coords):
    """Project ambient coordinates onto the manifold."""
    return spec.project(np.asarray(coords, dtype=float))


def project_tangent(spec, coords, w):
    """Orthogonal projection of ambient vectors w onto tangent spaces at coords."""
    return spec.project_tangent(np.asarray(coords, dtype=float), np.asarray(w, dtype=float))


def random_points(spec, n: int, rng: np.random.Generator):
    """Draw n points on the manifold: normalized Gaussians on sphere blocks
    (uniform), polar factors of Gaussian frames, and samples from the bounding
    box of a hypersurface's constraint field projected onto it."""
    return spec.sample(n, rng)


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


def project_to_manifold(spec, ambient) -> PointOnM:
    """Project a single ambient vector and wrap it as a validated point; a vector
    the kind cannot project raises SingularInput."""
    coords = project_points(spec, np.asarray(ambient, dtype=float).reshape(-1))
    if not np.isfinite(coords).all():
        raise SingularInput(f"{spec.kind} cannot project this vector")
    return PointOnM(coords, spec)


def tangent_project(p: PointOnM, w) -> TangentVector:
    """Project a single ambient vector onto the tangent space at p."""
    vec = project_tangent(p.spec, p.coords, np.asarray(w, dtype=float).reshape(-1))
    return TangentVector(p, vec)


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
