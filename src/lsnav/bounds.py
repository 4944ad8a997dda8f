"""Lusternik-Schnirelmann-type upper bounds from critical data.

The aggregation rule: group critical components by value up to a cutoff,
take the largest assigned subspace complexity per value, and sum.  Component
complexities are inputs, not computed; a value of 1 is only justified when a
planner constructively produced a section on the component (or the user
asserts it).  All values use the unreduced convention throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import TooLarge, UnknownComplexity, UnknownSpace

VALUE_TOL = 1e-6  # critical values closer than this are one level
# most levels a closed-form bound lists: its breakdown holds one (value, 1) pair per level
BOUND_MAX_LEVELS = 100_000


@dataclass(frozen=True)
class ComponentComplexity:
    value: float
    complexity: Optional[int]
    label: str = ""

    def __post_init__(self):
        c = self.complexity
        if not math.isfinite(self.value):
            raise ValueError(f"component values are finite, got {self.value!r}")
        if c is not None and (isinstance(c, bool) or not (float(c).is_integer() and c >= 1)):
            raise ValueError(f"assigned complexities are integers >= 1, got {c!r}")
        object.__setattr__(self, "complexity", c if c is None else int(c))


@dataclass(frozen=True)
class BoundInput:
    """Critical components with per-component subspace complexities.

    mode is one of 'plain' (explicit component list) or 'fiber-signs'
    (components obtained by summing one sign per slot).
    """

    mode: str
    components: tuple

    @classmethod
    def plain(cls, entries) -> "BoundInput":
        comps = tuple(
            e if isinstance(e, ComponentComplexity) else ComponentComplexity(*e)
            for e in entries
        )
        return cls("plain", comps)

    @classmethod
    def fiber_signs(cls, r: int, complexity: int = 1) -> "BoundInput":
        """Sign tuples (+-1)^r combined by summation, all with the same
        complexity assignment."""
        comps = tuple(
            ComponentComplexity(value=float(sum(combo)), complexity=complexity,
                                label="(" + ",".join(f"{v:g}" for v in combo) + ")")
            for combo in product((-1.0, 1.0), repeat=r)
        )
        return cls("fiber-signs", comps)

    def to_json(self) -> dict:
        return {
            "schema": "v1",
            "mode": self.mode,
            "components": [
                {"value": c.value, "complexity": c.complexity, "label": c.label}
                for c in self.components
            ],
        }


@dataclass(frozen=True)
class BoundResult:
    bound: int
    breakdown: tuple  # (value, contribution) pairs
    exact: Optional[bool] = None
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "schema": "v1",
            "bound": int(self.bound),
            "breakdown": [[float(v), int(c)] for v, c in self.breakdown],
        }
        if self.exact is not None:
            out["exact"] = bool(self.exact)
        if self.note:
            out["note"] = self.note
        return out

    def table(self) -> str:
        lines = [f"{'value':>12}  {'contribution':>12}"]
        for v, c in self.breakdown:
            lines.append(f"{v:>12g}  {c:>12d}")
        lines.append(f"{'bound':>12}  {self.bound:>12d}")
        return "\n".join(lines)


def ls_upper_bound(inp: BoundInput, lambda_cut: float = math.inf) -> BoundResult:
    """Sum over values <= lambda_cut of the per-value maximum complexity.

    Values within VALUE_TOL of each other count as one critical level.
    Raises UnknownComplexity listing the components whose complexity is
    needed but unassigned.
    """
    comps = [c for c in inp.components if c.value <= lambda_cut + VALUE_TOL]
    if not comps:
        return BoundResult(bound=0, breakdown=())
    missing = [(c.value, c.label) for c in comps if c.complexity is None]
    if missing:
        raise UnknownComplexity(
            f"{len(missing)} component(s) below the cutoff have no assigned complexity",
            components=missing,
        )
    comps.sort(key=lambda c: c.value)
    breakdown = []
    level_value = comps[0].value
    level_max = comps[0].complexity
    for c in comps[1:]:
        if c.value - level_value > VALUE_TOL:
            breakdown.append((level_value, level_max))
            level_value, level_max = c.value, c.complexity
        else:
            level_max = max(level_max, c.complexity)
    breakdown.append((level_value, level_max))
    return BoundResult(bound=sum(c for _, c in breakdown), breakdown=tuple(breakdown))


def reference_tc(space: str, r: int, k: int = 1) -> int:
    """Reference sequential complexities, unreduced convention.

    'sphere-odd' -> r, 'sphere-even' -> r + 1,
    'product-odd-spheres' (k factors) -> k (r - 1) + 1.
    """
    if r < 2:
        raise UnknownSpace("reference values need r >= 2")
    if space == "sphere-odd":
        return r
    if space == "sphere-even":
        return r + 1
    if space == "product-odd-spheres":
        if k < 1:
            raise UnknownSpace("product needs k >= 1 factors")
        return k * (r - 1) + 1
    raise UnknownSpace(f"no reference value for space {space!r}")


def _check_levels(name: str, formula: str, levels: int):
    """Refuse, before anything is built, a breakdown of more than BOUND_MAX_LEVELS levels."""
    if levels > BOUND_MAX_LEVELS:
        raise TooLarge(f"{name} lists {formula} = {levels} levels, "
                       f"above BOUND_MAX_LEVELS = {BOUND_MAX_LEVELS}")


def product_spheres_bound(k: int, r: int) -> BoundResult:
    """Upper bound for k odd-sphere factors and r waypoints: k (r - 1) + 1.

    Critical values are 0, 4, ..., 4 k (r - 1), listed directly, one
    planner-constructed section per component, so every level contributes 1.
    The reference value for products of odd spheres matches, so the bound is
    exact.  Raises TooLarge, before building anything, above BOUND_MAX_LEVELS
    levels.
    """
    if k < 1 or r < 2:
        raise UnknownSpace("need k >= 1 and r >= 2")
    levels = k * (r - 1) + 1
    _check_levels("product_spheres_bound", "k(r - 1) + 1", levels)
    return BoundResult(levels, tuple((4.0 * i, 1) for i in range(levels)),
                       exact=levels == reference_tc("product-odd-spheres", r, k),
                       note=f"k={k}, r={r}")


def unit_tangent_bound(m: int, r: int) -> BoundResult:
    """Upper bound r + 1 for the frame bundle over S^(4m-1), declared exact.

    Sign tuples in (+-1)^r grouped by their sum give the r + 1 levels 2i - r,
    i = 0, ..., r, each carried by a rotational planner section (contribution 1);
    they are listed directly, not enumerated as ``BoundInput.fiber_signs`` does.
    The fiber S^(4m-2) forces the lower bound r + 1, hence equality.  Raises
    TooLarge, before building anything, above BOUND_MAX_LEVELS levels.
    """
    if m < 1 or r < 2:
        raise UnknownSpace("need m >= 1 and r >= 2")
    _check_levels("unit_tangent_bound", "r + 1", r + 1)
    lower = reference_tc("sphere-even", r)
    return BoundResult(r + 1, tuple((float(2 * i - r), 1) for i in range(r + 1)),
                       exact=r + 1 == lower, note=f"m={m}, r={r}, fiber lower bound {lower}")


def bound_input_from_components(components, complexity: int = 1) -> BoundInput:
    """Plain input from detected critical components, one entry per component."""
    return BoundInput.plain(
        ComponentComplexity(value=float(c.value), complexity=complexity,
                            label=getattr(c, "label", ""))
        for c in components
    )
