"""Built-in implicit constraint fields for hypersurfaces.

Fields are named built-ins with parameters; there is no runtime expression
parsing.  Each field exposes an analytic value, gradient and Hessian, all
vectorized over leading axes, plus a bounding box used for seed sampling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import WrongSpec


@dataclass(frozen=True)
class ConstraintField:
    """Scalar field g on an ambient space, defining a hypersurface g = level.
    Batched results are row-independent only when value, grad and hess compute
    row by row: elementwise or ``einsum`` forms, not a BLAS product (``x @ a``)."""

    name: str
    params: dict
    ambient_dim: int
    value: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    grad: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    hess: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    bounding_box: np.ndarray = field(repr=False, default=None)

    def to_json(self):
        return {"name": self.name, "params": dict(self.params)}


def ellipsoid_field(semiaxes) -> ConstraintField:
    """g(x) = sum x_i^2 / a_i^2, surface at level 1."""
    a = np.asarray(semiaxes, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):  # out-of-range semiaxes are refused below
        inv2 = 1.0 / a**2
    if a.ndim != 1 or not ((a > 0) & (inv2 > 0) & (inv2 < np.inf)).all():
        raise WrongSpec("ellipsoid semiaxes must be a vector of positive numbers a "
                        "with 1/a^2 finite and nonzero")
    n = a.size

    def value(x):
        x = np.asarray(x, dtype=float)
        return np.sum(x**2 * inv2, axis=-1)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x * inv2

    def hess(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape + (n,))
        idx = np.arange(n)
        h[..., idx, idx] = 2.0 * inv2
        return h

    box = np.stack([-1.25 * a, 1.25 * a], axis=1)
    return ConstraintField(
        name="ellipsoid",
        params={"semiaxes": [float(v) for v in a]},
        ambient_dim=n,
        value=value,
        grad=grad,
        hess=hess,
        bounding_box=box,
    )


def torus_of_revolution_field(major_radius: float, minor_radius: float) -> ConstraintField:
    """g(x,y,z) = (sqrt(x^2+y^2) - R)^2 + z^2, surface at level r^2."""
    big_r = float(major_radius)
    small_r = float(minor_radius)
    if not (np.isfinite(big_r) and big_r > small_r > 0):
        raise WrongSpec("torus requires major_radius > minor_radius > 0, major_radius finite")

    def value(x):
        x = np.asarray(x, dtype=float)
        s = np.hypot(x[..., 0], x[..., 1])
        return (s - big_r) ** 2 + x[..., 2] ** 2

    def grad(x):
        x = np.asarray(x, dtype=float)
        s = np.hypot(x[..., 0], x[..., 1])
        s = np.where(s == 0.0, 1e-300, s)
        fac = 2.0 * (1.0 - big_r / s)
        g = np.empty_like(x)
        g[..., 0] = fac * x[..., 0]
        g[..., 1] = fac * x[..., 1]
        g[..., 2] = 2.0 * x[..., 2]
        return g

    def hess(x):
        x = np.asarray(x, dtype=float)
        s = np.hypot(x[..., 0], x[..., 1])
        s = np.where(s == 0.0, 1e-300, s)
        s3 = s**3
        h = np.zeros(x.shape + (3,))
        h[..., 0, 0] = 2.0 * (1.0 - big_r / s) + 2.0 * big_r * x[..., 0] ** 2 / s3
        h[..., 1, 1] = 2.0 * (1.0 - big_r / s) + 2.0 * big_r * x[..., 1] ** 2 / s3
        h[..., 0, 1] = h[..., 1, 0] = 2.0 * big_r * x[..., 0] * x[..., 1] / s3
        h[..., 2, 2] = 2.0
        return h

    extent = big_r + 1.25 * small_r
    box = np.array(
        [[-extent, extent], [-extent, extent], [-1.25 * small_r, 1.25 * small_r]]
    )
    return ConstraintField(
        name="torus_of_revolution",
        params={"major_radius": big_r, "minor_radius": small_r},
        ambient_dim=3,
        value=value,
        grad=grad,
        hess=hess,
        bounding_box=box,
    )


def builtin_field(name: str, params: dict) -> ConstraintField:
    if name == "ellipsoid":
        return ellipsoid_field(params["semiaxes"])
    if name == "torus_of_revolution":
        return torus_of_revolution_field(params["major_radius"], params["minor_radius"])
    raise WrongSpec(f"unknown constraint field {name!r}")


def default_level(fld: ConstraintField) -> float:
    """Conventional level for a built-in field (ellipsoid: 1, torus: r^2)."""
    if fld.name == "ellipsoid":
        return 1.0
    if fld.name == "torus_of_revolution":
        return fld.params["minor_radius"] ** 2
    raise WrongSpec(f"no default level for field {fld.name!r}")
