"""Common-tangent pairs on hypersurfaces and the complexity lower bound.

A pair {x, y} on a compact hypersurface M with T_x M = T_y M perpendicular
to the chord x - y is a positive-value critical point of |x - y|^2 on M x M.
Their count alpha(M) satisfies alpha(M) >= TC(M) - 1, so a surface with few
such pairs has small topological complexity.  The search takes one of two
routes.  On an ellipsoid (and the round sphere) such pairs are the critical
points of the width u -> h(u) + h(-u) of the body over unit directions u, h
the support function (Kuiper 1964), so it runs multistart damped Newton on
h over random directions and turns each critical direction u into the pair
(x(u), -x(u)), x(u) the point with outward normal u.  On other surfaces,
such as the torus, it pairs each seed point with the far end of its normal
line and runs damped Newton on the system {g = level at x and y, normals
parallel to the chord}.  Either way it deduplicates unordered pairs.  A pair
whose Hessian has a kernel lies on a family of such pairs, and the census
reports a continuum.
"""
import numpy as np

from lsnav import Ellipsoid, PairSearchConfig, Sphere, find_parallel_pairs, reference_tc
from lsnav.constraints import torus_of_revolution_field
from lsnav.manifolds import ImplicitHypersurface

print("== triaxial ellipsoid (1, 2, 3) ==")
census = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)), PairSearchConfig(rng_seed=0))
print(f"  alpha = {census.alpha} (from {census.n_converged} converged seeds)")
for p in census.pairs:
    print(f"  pair x={np.round(p.x, 6)} y={np.round(p.y, 6)} "
          f"|x-y|^2={p.value:.6f} alignment residual {p.alignment_residual:.1e}")
tc = reference_tc("sphere-even", 2)
print(f"  bound check: alpha = {census.alpha} >= TC(S^2) - 1 = {tc - 1}")

print("\n== round sphere: every antipodal pair qualifies ==")
census = find_parallel_pairs(Sphere(2), PairSearchConfig(rng_seed=0))
print(f"  alpha = {census.alpha!r} (from {census.n_converged} converged seeds)")
print("  reason: the Hessian of |x - y|^2 on S^2 x S^2 at an antipodal pair has a")
print("  2-dimensional kernel, the directions along the family of antipodal pairs")

print("\n== torus of revolution: continua again ==")
fld = torus_of_revolution_field(2.0, 0.5)
census = find_parallel_pairs(ImplicitHypersurface(fld, 0.25), PairSearchConfig(rng_seed=0))
print(f"  alpha = {census.alpha!r}")
