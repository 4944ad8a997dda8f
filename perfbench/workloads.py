"""The benchmark's four workloads: inputs drawn from a seed, the timed library
calls, and reference checks at the acceptance tolerances (never looser).

A workload builds one *round*: a fixed mix of problems whose inputs come from
``numpy.random.default_rng([seed, round])``.  Building the round is the
workload's set-up; each problem's ``solve`` is one timed library call; its
``judge`` checks the answer afterwards, outside the timed region.

Library functions are looked up on their modules at call time, so wrappers
installed by ``tracing.Tracer`` see the calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from lsnav import constraints, flow, manifolds, navigation, unit_tangent
from lsnav.errors import LsnavError

# Library defaults; the acceptance criteria run with these.
FLOW = flow.FlowConfig()

# Seeds per problem, sized so that one round takes a few seconds and a run
# holds several rounds (see README.md for the measurements behind them).
SPHERE_SEEDS = 100
FRAME_SEEDS = 25
TORUS_SEEDS = 100  # the torus case ROADMAP E.4 describes; its split is reported, not hidden
TORUS_PROBLEMS = 2
VERTICAL_SEEDS = 50


@dataclass
class Verdict:
    failures: list  # reference checks the answer missed
    seeds_ok: int  # seeds for which some stage converged
    components: int  # components (or pairs, or sections) reported
    answer: Any  # rounded answer, the input of the output digest


@dataclass
class Problem:
    label: str
    n_seeds: int
    true_components: int
    solve: Callable[[], Any]
    judge: Callable[[Any, list], Verdict]  # (answer, stage outcomes) -> Verdict


def _r6(v) -> float:
    return round(float(v), 6) + 0.0  # + 0.0 folds -0.0 into 0.0


def _distinct_values(components, tol):
    """Distinct critical values after merging within tol (as criterion 1 does)."""
    vals = sorted(c.value for c in components)
    out = vals[:1]
    for v in vals[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return out


def _seeds_ok(outcomes, n_seeds) -> int:
    """Seeds for which at least one stage (descent, ascent, Newton) converged."""
    masks = [ok for _stage, ok in outcomes if ok.shape == (n_seeds,)]
    return int(np.logical_or.reduce(masks).sum()) if masks else 0


def _components_answer(comps):
    return [[_r6(c.value), c.label, int(c.representatives.shape[0])] for c in comps]


# ---------------------------------------------------------------------------
# critfind-spheres: criterion 1's three navigation cases
# ---------------------------------------------------------------------------

SPHERE_CASES = (
    (manifolds.Sphere(1), 2, (0.0, 4.0)),
    (manifolds.Sphere(3), 3, (0.0, 4.0, 8.0)),
    (manifolds.ProductSpheres((1, 3)), 2, (0.0, 4.0, 8.0)),
)


def _judge_nav(spec, r, expected):
    def judge(comps, outcomes):
        failures = []
        found = _distinct_values(comps, 10 * FLOW.cluster_tol)
        if len(found) != len(expected) or any(abs(f - e) > 1e-5 for f, e in zip(found, expected)):
            failures.append(f"values {found} != {list(expected)}")
        for c in comps:
            for rep in c.representatives:
                try:
                    navigation.classify_sphere_critical(
                        navigation.NavTuple.from_flat(spec, r, rep), tol=1e-4)
                except LsnavError as exc:
                    failures.append(f"representative unclassified at 1e-4 ({exc})")
                    break
        return Verdict(failures, _seeds_ok(outcomes, SPHERE_SEEDS),
                       len(comps), _components_answer(comps))

    return judge


def critfind_spheres(rng, tracer=None):
    problems = []
    for spec, r, expected in SPHERE_CASES:
        field = navigation.nav_field(spec, r)
        seeds = manifolds.random_points(field.spec, SPHERE_SEEDS, rng)
        # one component per sign pattern: 2^(r-1) per sphere factor
        true = 2 ** (len(manifolds.sphere_blocks(spec)) * (r - 1))
        problems.append(Problem(
            f"nav {spec} r={r}", SPHERE_SEEDS, true,
            lambda field=field, seeds=seeds: flow.find_critical_components(field, seeds, FLOW),
            _judge_nav(spec, r, expected)))
    return problems


# ---------------------------------------------------------------------------
# critfind-embedded: ut-f on frames (polar-factor projection) and the height
# on a torus of revolution (damped-Newton projection)
# ---------------------------------------------------------------------------

def _judge_frames(comps, outcomes):
    failures = []
    labels = {c.label: c.value for c in comps}
    if len(comps) != 2 or set(labels) != {"+i", "-i"}:
        failures.append(f"components {[(c.value, c.label) for c in comps]} are not +i and -i")
    for label, want in (("+i", 1.0), ("-i", -1.0)):
        if label in labels and abs(labels[label] - want) > 1e-6:
            failures.append(f"{label} value {labels[label]!r} is not {want} within 1e-6")
    return Verdict(failures, _seeds_ok(outcomes, FRAME_SEEDS), len(comps),
                   _components_answer(comps))


def _judge_torus(comps, outcomes):
    failures = []
    vals = [c.value for c in comps]
    if not all(min(abs(v - 0.5), abs(v + 0.5)) <= 1e-6 for v in vals):
        failures.append(f"values {vals} are not +-0.5 within 1e-6")
    if not (any(v > 0 for v in vals) and any(v < 0 for v in vals)):
        failures.append(f"values {vals} miss a critical level")
    return Verdict(failures, _seeds_ok(outcomes, TORUS_SEEDS), len(comps),
                   _components_answer(comps))


def critfind_embedded(rng, tracer=None):
    problems = []
    for frame_dim in (4, 8):
        spec = manifolds.StiefelV2(frame_dim)
        field = unit_tangent.f_ut_field(spec)
        seeds = manifolds.random_points(spec, FRAME_SEEDS, rng)
        problems.append(Problem(
            f"ut-f stiefel:{frame_dim}", FRAME_SEEDS, 2,
            lambda field=field, seeds=seeds: flow.find_critical_components(field, seeds, FLOW),
            _judge_frames))
    fld = constraints.torus_of_revolution_field(2.0, 0.5)
    if tracer is not None:
        fld = tracer.counting_field(fld)
    surface = manifolds.ImplicitHypersurface(fld, constraints.default_level(fld))
    field = flow.height_field(surface)
    for k in range(TORUS_PROBLEMS):
        seeds = manifolds.random_points(surface, TORUS_SEEDS, rng)
        # two critical circles, z = +-r; true count 2 (ROADMAP E.4)
        problems.append(Problem(
            f"height torus(2,0.5) #{k}", TORUS_SEEDS, 2,
            lambda seeds=seeds: flow.find_critical_components(field, seeds, FLOW),
            _judge_torus))
    return problems


# ---------------------------------------------------------------------------
# vertical-flow: criterion 2's fiber-preserving flows, both directions
# ---------------------------------------------------------------------------

def _judge_vertical(spec, seeds, direction):
    m = spec.frame_dim

    def judge(out, outcomes):
        end, _gn, conv = out
        failures = []
        ends = end[conv]
        x1, x2 = ends[:, :m], ends[:, m:]
        ix = manifolds.mult_i(x1)
        dist = np.minimum(np.linalg.norm(x2 - ix, axis=1), np.linalg.norm(x2 + ix, axis=1))
        if dist.size and dist.max() > 1e-5:
            failures.append(f"endpoint {dist.max():.2e} from (x, +-ix)")
        vals = unit_tangent.f_ut_coords(spec, ends)
        # in each fiber f is a linear height on a sphere: descent ends at -1, ascent at +1
        off = np.abs(vals - direction)
        if off.size and off.max() > 1e-6:
            failures.append(f"value off {direction:+d} by {off.max():.2e}")
        drift = np.abs(end[:, :m] - seeds[:, :m]).max()
        if drift > 1e-12:
            failures.append(f"first column moved by {drift:.2e}")
        if not conv.any():
            failures.append("no seed converged")
        sections = len(set(np.sign(vals).tolist()))
        answer = [int(conv.sum()), sorted(set(_r6(v) for v in vals))]
        return Verdict(failures, int(conv.sum()), sections, answer)

    return judge


def vertical_flow(rng, tracer=None):
    problems = []
    for frame_dim in (4, 8):
        spec = manifolds.StiefelV2(frame_dim)
        field = unit_tangent.f_ut_field(spec)
        seeds = manifolds.random_points(spec, VERTICAL_SEEDS, rng)
        for direction in (-1, +1):
            # each direction reaches one section, v = -ix or v = +ix
            problems.append(Problem(
                f"vertical stiefel:{frame_dim} direction {direction:+d}", VERTICAL_SEEDS, 1,
                lambda field=field, seeds=seeds, d=direction:
                    unit_tangent.vertical_flow_endpoints(field, seeds, FLOW, direction=d),
                _judge_vertical(spec, seeds, direction)))
    return problems


# ---------------------------------------------------------------------------
# pair-census: criterion 5, no flow at all
# ---------------------------------------------------------------------------

def _lm_converged(outcomes) -> int:
    return int(sum(ok.sum() for stage, ok in outcomes if stage == "lm"))


def _judge_ellipsoid(census, outcomes):
    failures = []
    if census.alpha != 3:
        failures.append(f"ellipsoid alpha {census.alpha} != 3")
    worst = max((p.alignment_residual for p in census.pairs), default=0.0)
    if worst > 1e-10:
        failures.append(f"alignment residual {worst:.2e} > 1e-10")
    pairs = [[_r6(v) for v in np.concatenate([p.x, p.y])] for p in census.pairs]
    return Verdict(failures, _lm_converged(outcomes), len(census.pairs),
                   [census.alpha, census.n_converged, pairs])


def _judge_sphere(census, outcomes):
    failures = [] if census.is_continuum else [f"sphere census {census.alpha} is not a continuum"]
    count = 1 if census.is_continuum else len(census.pairs)
    return Verdict(failures, _lm_converged(outcomes), count, [census.alpha, census.n_converged])


def pair_census(rng, tracer=None):
    problems = []
    for label, spec, true, judge in (
        ("pairs ellipsoid(1,2,3)", manifolds.Ellipsoid((1.0, 2.0, 3.0)), 3, _judge_ellipsoid),
        ("pairs sphere:2", manifolds.Sphere(2), 1, _judge_sphere),
    ):
        # the census samples its own seeds from this integer; sampling is timed
        search = navigation.PairSearchConfig(rng_seed=int(rng.integers(2**32)))
        problems.append(Problem(
            label, search.n_seeds, true,
            lambda spec=spec, search=search: navigation.find_parallel_pairs(spec, search),
            judge))
    return problems


WORKLOADS: dict[str, Callable[..., list]] = {
    "critfind-spheres": critfind_spheres,
    "critfind-embedded": critfind_embedded,
    "vertical-flow": vertical_flow,
    "pair-census": pair_census,
}

