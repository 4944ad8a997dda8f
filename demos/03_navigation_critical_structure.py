"""Navigation functions on sphere products and their critical structure.

F(x_1,...,x_r) = sum |x_i - x_{i+1}|^2 vanishes exactly on the diagonal of
M^r.  On spheres and products of spheres its critical tuples have every slot
equal to +-(first slot) factorwise, with value 4 per consecutive sign change.
Descent and ascent flows find the extremal components only: the intermediate
(saddle) components have measure-zero basins.  The detection pipeline
therefore runs a damped Newton search on the projected gradient, which
reaches critical points of every index.
"""
import numpy as np

from lsnav import (
    ProductSpheres,
    Sphere,
    classify_sphere_critical,
    find_critical_components,
    nav_field,
    nav_value,
    pattern_value,
)
from lsnav.flow import detect_critical, flow_endpoints, newton_critical_search
from lsnav.manifolds import random_points
from lsnav.navigation import NavTuple

rng = np.random.default_rng(0)

print("== critical values on (S^1)^2, r = 2 ==")
field = nav_field(Sphere(1), 2)
comps = find_critical_components(field, random_points(field.spec, 200, rng))
for c in comps:
    print(f"  value {c.value:8.5f}  pattern {c.label}  ({c.representatives.shape[0]} endpoints)")

print("\n== r = 3 on S^3: flows alone miss the middle level ==")
field = nav_field(Sphere(3), 3)
seeds = random_points(field.spec, 200, rng)
lo, _, ok_lo = flow_endpoints(field, seeds, direction=-1)
hi, _, ok_hi = flow_endpoints(field, seeds, direction=+1)
flow_comps = detect_critical(field, np.vstack([lo[ok_lo], hi[ok_hi]]))
print("  flow-only values:", sorted(round(c.value, 5) for c in flow_comps))
refined = newton_critical_search(field, seeds)
all_comps = detect_critical(field, np.vstack([lo[ok_lo], hi[ok_hi], refined]))
print("  with Newton refinement:", sorted(set(round(c.value, 5) for c in all_comps)))
for c in all_comps:
    print(f"    value {c.value:8.5f}  pattern {c.label}")

print("\n== structural classification agrees with the function values ==")
t = NavTuple(Sphere(1), np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
pat = classify_sphere_critical(t)
print(f"  (e1, -e1, e1): pattern {pat.label}, flips {pat.flips}, "
      f"4*flips = {pattern_value(pat)}, F = {nav_value(t)}")

print("\n== a two-factor example ==")
field = nav_field(ProductSpheres((1, 3)), 2)
comps = find_critical_components(field, random_points(field.spec, 200, rng))
print("  (S^1 x S^3)^2 values:", sorted(set(round(c.value, 5) for c in comps)))
