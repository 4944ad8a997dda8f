"""Turning deformations into sections of the evaluation fibration.

A subset of X^r admits a continuous section exactly when it deforms into the
diagonal.  The forward conversion rides each deformation component to the
diagonal and back between consecutive waypoints; the second conversion
composes a deformation with a section defined on its image, traversing
deformation legs forward, the target path, and the deformation reversed.
Both produce paths hitting the prescribed waypoints exactly.
"""
import numpy as np

from lsnav import (
    DeformationHandle,
    NavTuple,
    compose_section_through_deformation,
    deformation_to_section,
    eval_path,
    path_fibration,
)
from lsnav.manifolds import Euclidean

spec = Euclidean(2)


def straight_line_to_diagonal(a, s):
    target = np.tile(a.points[0], (a.r, 1))
    return NavTuple(spec, (1.0 - s) * a.points + s * target)


h = DeformationHandle(map=straight_line_to_diagonal)

print("== deformation -> section, r = 3 on the plane ==")
a = NavTuple(spec, np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]))
sec = deformation_to_section(h, a, 3)
for j, tt in enumerate([0.0, 0.5, 1.0]):
    print(f"  s({tt}) = {np.round(eval_path(sec, tt), 12)}   (waypoint {j}: {a.points[j]})")
print("  p_3(s) - a:", float(np.max(np.abs(path_fibration(sec, 3).points - a.points))))
mid = eval_path(sec, 0.25)
print("  halfway to the first waypoint the path sits on the diagonal point:", mid)

print("\n== composing through a deformation ==")
center = np.array([0.5, 0.5])
phi = DeformationHandle(
    map=lambda x, s: NavTuple(spec, x.points + s * (center - x.points) * 0.5)
)
target = lambda tup: deformation_to_section(h, tup, 3)
x = NavTuple(spec, np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, 2.0]]))
comp = compose_section_through_deformation(phi, target, x, 3)
print("  p_3(composed) - x:",
      float(np.max(np.abs(path_fibration(comp, 3).points - x.points))))
print("  segments:", len(comp.segments), "sampled legs (3 per waypoint interval)")
