"""The unit tangent bundle of an odd sphere as a frame fibration.

Frames X = (x, v) with |x| = |v| = 1, x perpendicular to v.  The invariant
function f(X) = <i x, v> has critical levels +-1 on the rotational sections
v = +-i x.  Vertical pseudo-gradient flow (zero base component, second
column re-orthonormalized against the untouched first column) finds them
without ever leaving a fiber.  Over spheres of dimension 4m-1 the planner
rotates v through j x between the two sections, and special-unitary
trivializations make f fiberwise constant.
"""
import numpy as np

from lsnav import StiefelV2, f_ut_field, fiber_fibration, sigma_u_planner, su_trivialization
from lsnav.manifolds import frame_flat, mult_i, mult_j, random_points
from lsnav.unit_tangent import (
    FiberTuple,
    unitary_apply,
    vertical_flow_endpoints,
    vertical_proportionality_scan,
)

rng = np.random.default_rng(0)
spec = StiefelV2(4)  # frames in R^4 = unit tangent bundle of S^3
field = f_ut_field(spec)

print("== vertical flow onto the rotational sections ==")
seeds = random_points(spec, 100, rng)
end, gn, conv = vertical_flow_endpoints(field, seeds)
vals = field.value_at(end)
drift = np.max(np.abs(end[:, :4] - seeds[:, :4]))
print(f"  {conv.sum()}/100 converged, values in [{vals.min():.8f}, {vals.max():.8f}]")
print(f"  base point drift: {drift}  (fibers preserved exactly)")

print("\n== vertical proportionality: invariant vs base-only fields ==")
scan = vertical_proportionality_scan(field, random_points(spec, 3000, rng))
print(f"  invariant f: empirical constant {scan.max_ratio:.3f}, "
      f"singular sets consistent: {scan.singular_consistency}")
from lsnav.unit_tangent import base_height_field

scan = vertical_proportionality_scan(base_height_field(spec), random_points(spec, 3000, rng))
print(f"  base-only field: singular sets consistent: {scan.singular_consistency} "
      f"({scan.n_inconsistent} vertical-critical but not critical)")

print("\n== the fiberwise rotational planner ==")
x = rng.standard_normal(4)
x /= np.linalg.norm(x)
ix = mult_i(x)
t = FiberTuple(spec, np.stack([frame_flat(x, ix), frame_flat(x, -ix), frame_flat(x, ix)]))
path = sigma_u_planner(t)
rt = fiber_fibration(path, 3)
print("  waypoint reproduction error:", float(np.max(np.abs(rt.entries - t.entries))))
mid = path.eval_many(np.array([1.0 / 4.0]))[0]
print("  quarter-way frame second column =", np.round(mid[4:], 6))
print("  (rotates through j x =", np.round(mult_j(x), 6), ")")

print("\n== special-unitary trivialization ==")
b0 = np.array([1.0, 0, 0, 0])
b = rng.standard_normal(4)
b /= np.linalg.norm(b)
handle, g = su_trivialization(b0, b)
print("  g b0 - b:", np.linalg.norm(unitary_apply(g, b0) - b))
print("  det g:", np.linalg.det(g))
w = rng.standard_normal(4)
w -= np.dot(w, b0) * b0
w /= np.linalg.norm(w)
x0 = frame_flat(b0, w)
print("  f(g X0) - f(X0):",
      float(field.value_at(handle.apply(g, x0)) - field.value_at(x0)))
