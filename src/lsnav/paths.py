"""Piecewise paths, the evaluation fibration, and explicit motion planners.

A path is an ordered list of segments whose intervals partition [0, 1]:
constant segments, blockwise great circles (factors with a zero direction
block stay put), and sampled segments with linear interpolation re-projected
onto the manifold.  The evaluation fibration sends a path to its values at
the r equally spaced times (0, 1/(r-1), ..., 1).

Planners produce sections of that fibration on critical sets.
``sign_flip_path`` turns a sign pattern into a path, constant where
consecutive signs agree and an antipodal great circle where they flip; the
sequential planner on products of odd spheres (initial direction i*x) and the
fiberwise planner of ``unit_tangent`` both build their paths with it.  Two
conversion routines turn diagonal-ending deformations (or a deformation
composed with a section on its image) into sections.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import manifolds as mf
from .errors import (
    EvenDimension,
    InvalidDirection,
    LsnavError,
    NotEndingAtDiagonal,
    OutOfDomain,
    PathDiscontinuity,
    PatternMismatch,
    SingularInput,
    TargetDomainMiss,
    WrongSpec,
)
from .manifolds import PointOnM, Sphere, TangentVector
from .navigation import NavTuple, SignPattern, classify_sphere_critical, critical_tuple

CONTINUITY_TOL = 1e-9
KNOTS_PER_PIECE = 64  # knots of each sampled piece of a converted section


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstantSegment:
    point: np.ndarray
    t0: float
    t1: float

    def eval(self, ts, spec=None):
        ts = np.asarray(ts, dtype=float)
        return np.broadcast_to(self.point, ts.shape + self.point.shape).copy()

    def to_json(self):
        return {"type": "constant", "point": _num(self.point),
                "t0": self.t0, "t1": self.t1}


@dataclass(frozen=True, eq=False)
class GreatCircleSegment:
    """Blockwise rotation cos(pi tau) start + sin(pi tau) direction.

    Blocks of the manifold where ``direction`` vanishes stay constant; every
    rotating block reaches its antipode at t1.
    """

    start: np.ndarray
    direction: np.ndarray
    t0: float
    t1: float
    blocks: tuple

    def eval(self, ts, spec=None):
        ts = np.asarray(ts, dtype=float)
        tau = (ts - self.t0) / (self.t1 - self.t0)
        c = np.cos(np.pi * tau)[..., None]
        s = np.sin(np.pi * tau)[..., None]
        moving = np.repeat([self.direction[b0:b1].any() for b0, b1 in self.blocks],
                           [b1 - b0 for b0, b1 in self.blocks])
        return np.where(moving, c * self.start + s * self.direction, self.start)

    def to_json(self):
        return {"type": "great_circle", "start": _num(self.start),
                "direction": _num(self.direction), "t0": self.t0, "t1": self.t1,
                "blocks": [list(b) for b in self.blocks]}


@dataclass(frozen=True, eq=False)
class SampledSegment:
    """Knot times and values; evaluation interpolates linearly in the
    parameter and re-projects onto the manifold, so knots are exact."""

    times: np.ndarray
    values: np.ndarray

    @property
    def t0(self):
        return float(self.times[0])

    @property
    def t1(self):
        return float(self.times[-1])

    def eval(self, ts, spec=None):
        ts = np.asarray(ts, dtype=float)
        idx = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0,
                      len(self.times) - 2)
        t_lo = self.times[idx]
        t_hi = self.times[idx + 1]
        w = ((ts - t_lo) / (t_hi - t_lo))[..., None]
        out = (1.0 - w) * self.values[idx] + w * self.values[idx + 1]
        if spec is not None:
            out = mf.project_points(spec, out)
            if not np.isfinite(out).all():
                raise SingularInput("sampled segment passes where the manifold has no projection")
        return out

    def to_json(self):
        return {"type": "sampled", "times": _num(self.times),
                "points": [_num(v) for v in self.values]}


def _num(a):
    return [float(v) for v in a]


# ---------------------------------------------------------------------------
# PathSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PathSpec:
    """A piecewise path on [0, 1]; segments partition the interval and agree
    at shared knots within 1e-9."""

    segments: tuple
    spec: mf.ManifoldSpec

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise PathDiscontinuity("a path needs at least one segment")
        if abs(segs[0].t0) > 1e-12 or abs(segs[-1].t1 - 1.0) > 1e-12:
            raise PathDiscontinuity("segments must cover [0, 1]")
        for a, b in zip(segs, segs[1:]):
            if abs(a.t1 - b.t0) > 1e-12:
                raise PathDiscontinuity("segment intervals must share endpoints")
            left = a.eval(np.array([a.t1]), self.spec)[0]
            right = b.eval(np.array([b.t0]), self.spec)[0]
            if np.linalg.norm(left - right) > CONTINUITY_TOL:
                raise PathDiscontinuity(
                    f"segments disagree at t={a.t1:.6f} by {np.linalg.norm(left - right):.3e}"
                )

    def eval_many(self, ts):
        """Evaluate at times in [0, 1]; knots use the right segment except t in the last."""
        ts = np.asarray(ts, dtype=float)
        if (ts < -1e-12).any() or (ts > 1.0 + 1e-12).any():
            raise OutOfDomain("path parameter outside [0, 1]")
        ts = np.clip(ts, 0.0, 1.0)
        starts = np.array([s.t0 for s in self.segments])
        idx = np.clip(np.searchsorted(starts, ts, side="right") - 1, 0,
                      len(self.segments) - 1)
        out = np.empty(ts.shape + (self.ambient_dim,))
        for k, seg in enumerate(self.segments):
            sel = idx == k
            if sel.any():
                out[sel] = seg.eval(ts[sel], self.spec)
        return out

    @property
    def ambient_dim(self) -> int:
        return self.spec.ambient_dim

    def constraint_residual(self, n_samples: int = 256) -> float:
        ts = np.linspace(0.0, 1.0, n_samples)
        return float(np.max(mf.constraint_residual(self.spec, self.eval_many(ts))))

    def to_json(self) -> dict:
        return {"schema": "v1", "manifold": mf.spec_to_json(self.spec),
                "segments": [s.to_json() for s in self.segments]}

    def to_csv(self, n_samples: int = 256) -> str:
        ts = np.linspace(0.0, 1.0, n_samples)
        vals = self.eval_many(ts)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t"] + [f"x{k}" for k in range(vals.shape[1])])
        for t, row in zip(ts, vals):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        return buf.getvalue()


def path_from_json(obj: dict) -> PathSpec:
    spec = mf.spec_from_json(obj["manifold"])
    segs = []
    for s in obj["segments"]:
        if s["type"] == "constant":
            segs.append(ConstantSegment(np.array(s["point"]), s["t0"], s["t1"]))
        elif s["type"] == "great_circle":
            blocks = tuple(tuple(b) for b in s["blocks"])
            if blocks != mf.sphere_blocks(spec):
                raise LsnavError(f"great-circle blocks {s['blocks']} are not the manifold's")
            segs.append(GreatCircleSegment(np.array(s["start"]), np.array(s["direction"]),
                                           s["t0"], s["t1"], blocks))
        elif s["type"] == "sampled":
            segs.append(SampledSegment(np.array(s["times"]), np.array(s["points"])))
        else:
            raise LsnavError(f"unknown segment type {s['type']!r}")
    return PathSpec(tuple(segs), spec)


def eval_path(p: PathSpec, t: float) -> np.ndarray:
    """Evaluate a path at a single parameter in [0, 1]."""
    return p.eval_many(np.array([float(t)]))[0]


def path_fibration(p: PathSpec, r: int) -> NavTuple:
    """Evaluate at the r equally spaced times (0, 1/(r-1), ..., 1)."""
    if r < 2:
        raise WrongSpec("the evaluation fibration needs r >= 2")
    ts = np.arange(r) / (r - 1)
    return NavTuple(p.spec, p.eval_many(ts))


# ---------------------------------------------------------------------------
# Great-circle geodesics to the antipode
# ---------------------------------------------------------------------------

def geodesic_to_antipode(x: PointOnM, direction: TangentVector, t0: float,
                         t1: float) -> GreatCircleSegment:
    """Constant-speed great circle from x at t0 to -x at t1.

    Over an interval of length 1/(r-1) the initial speed is (r-1)*pi, the
    normalization that makes the segment geodesic with the prescribed
    initial vector.
    """
    if not isinstance(x.spec, Sphere):
        raise WrongSpec("antipodal geodesics are defined on a single sphere factor")
    if not t0 < t1:
        raise InvalidDirection("need t0 < t1")
    vec = direction.vec
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise InvalidDirection("direction must be a unit vector")
    if abs(float(np.dot(x.coords, vec))) > 1e-9:
        raise InvalidDirection("direction must be tangent at x")
    return GreatCircleSegment(x.coords.copy(), vec.copy(), float(t0), float(t1),
                              ((0, x.spec.ambient_dim),))


# ---------------------------------------------------------------------------
# Sign-flip paths; the sequential planner on products of odd spheres
# ---------------------------------------------------------------------------

def sign_flip_path(spec, starts, directions) -> PathSpec:
    """Path through len(starts) pieces on equal subintervals: piece j stays at
    starts[j] where row j of directions is zero, otherwise it is the blockwise
    great circle from starts[j] along that row over spec's blocks."""
    blocks = mf.sphere_blocks(spec)
    n = len(starts)
    segments = []
    for j, (start, direction) in enumerate(zip(starts, directions)):
        t0, t1 = j / n, (j + 1) / n
        if direction.any():
            segments.append(GreatCircleSegment(start, direction, t0, t1, blocks))
        else:
            segments.append(ConstantSegment(start, t0, t1))
    return PathSpec(tuple(segments), spec)


def plan_product_odd_spheres(t: NavTuple, pattern: SignPattern,
                             tol: float = 1e-9) -> PathSpec:
    """Section of the evaluation fibration on a sign-pattern critical set.

    Per factor the path concatenates r-1 pieces on equal subintervals:
    constant where consecutive signs agree, otherwise the antipodal great
    circle with initial direction i*(start point), which exists because every
    factor sphere is odd-dimensional.  Refuses tuples that do not realize the
    pattern; no snapping.
    """
    spec = t.spec
    found = classify_sphere_critical(t, tol=tol)  # WrongSpec unless spheres
    if any(d % 2 == 0 for d in spec.dims):
        raise EvenDimension("every factor must be an odd-dimensional sphere")
    if found.signs != pattern.signs:
        raise PatternMismatch(
            f"tuple realizes pattern {found.label}, not {pattern.label}"
        )
    starts = critical_tuple(spec, pattern, t.points[0]).points[:-1]
    # (r-1, ambient_dim) mask: the blocks whose sign changes after each slot
    flips = np.array([np.diff(factor) != 0 for factor in pattern.signs])
    widths = [e - s for s, e in mf.sphere_blocks(spec)]
    moving = np.repeat(flips, widths, axis=0).T
    return sign_flip_path(spec, starts, np.where(moving, mf.mult_i(starts), 0.0))


# ---------------------------------------------------------------------------
# Deformation / section conversions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DeformationHandle:
    """A deformation h(a, t) of tuples in X^r with h(a, 0) = a.

    ``map`` takes a NavTuple and a time in [0, 1] and returns a NavTuple.
    ``deformation_to_section`` checks that h(a, 1) lies on the diagonal.
    """

    map: Callable[[NavTuple, float], NavTuple]

    def component(self, j: int, a: NavTuple, t: float) -> np.ndarray:
        return self.map(a, float(t)).points[j]

    def check_at(self, a: NavTuple, tol: float = 1e-9):
        start = self.map(a, 0.0).points
        if np.max(np.linalg.norm(start - a.points, axis=-1)) > tol:
            raise NotEndingAtDiagonal("deformation does not start at the identity")


def _legs(r, pieces):
    """Sampled segments through r slots: leg j (1 <= j <= r-1) covers
    [(j-1)/(r-1), j/(r-1)] in len(pieces) equal parts, and part k takes
    the values pieces[k](j, s) at KNOTS_PER_PIECE local times s in [0, 1]."""
    s = np.linspace(0.0, 1.0, KNOTS_PER_PIECE)
    return tuple(SampledSegment((j - 1 + (k + s) / len(pieces)) / (r - 1),
                                np.array([fn(j, sk) for sk in s]))
                 for j in range(1, r) for k, fn in enumerate(pieces))


def deformation_to_section(h: DeformationHandle, a: NavTuple, r: int) -> PathSpec:
    """Path through the slots of a, riding the deformation to the diagonal
    and back between consecutive slots.

    On [ (j-1)/(r-1), (j-1/2)/(r-1) ) the path follows component j-1 of the
    deformation forward, on the mirrored half it follows component j
    backward; continuity at the midpoint is exactly the diagonal condition,
    so h(a, 1) off the diagonal by more than 1e-9 raises NotEndingAtDiagonal.
    """
    if r != a.r:
        raise WrongSpec("tuple length must equal r")
    h.check_at(a)
    end = h.map(a, 1.0).points
    if np.max(np.linalg.norm(end - end[0], axis=-1)) > CONTINUITY_TOL:
        raise NotEndingAtDiagonal("deformation does not end on the diagonal")
    return PathSpec(_legs(r, (lambda j, s: h.component(j - 1, a, s),
                              lambda j, s: h.component(j, a, 1.0 - s))), a.spec)


def compose_section_through_deformation(phi: DeformationHandle, s_target,
                                        x: NavTuple, r: int) -> PathSpec:
    """Section at x from a section defined on the deformed tuple.

    Each of the r-1 subintervals splits in three: ride the deformation
    forward from slot j-1, traverse the target section's path over the same
    subinterval, ride the deformation backward into slot j.
    """
    if r != x.r:
        raise WrongSpec("tuple length must equal r")
    phi.check_at(x)
    end_tuple = phi.map(x, 1.0)
    try:
        target_path = s_target(end_tuple)
    except LsnavError as exc:
        raise TargetDomainMiss(
            f"target section undefined on the deformed tuple: {exc}"
        ) from exc
    return PathSpec(_legs(r, (lambda j, s: phi.component(j - 1, x, s),
                              lambda j, s: eval_path(target_path, (j - 1 + s) / (r - 1)),
                              lambda j, s: phi.component(j, x, 1.0 - s))), x.spec)
