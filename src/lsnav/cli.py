"""Command-line front end: reproducible runs with machine-readable output.

Subcommands: critfind (critical-component detection for a named field),
plan (sequential or fiberwise planner from a tuple file), pairs
(common-tangent pair search on a hypersurface), bound (upper-bound
evaluation), verify (the acceptance suite).  Exit codes: 0 success,
1 domain error, 2 usage error.  Fixing --seed makes the JSON output
byte-identical across runs on the same platform.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import acceptance
from .bounds import (
    BoundInput,
    ls_upper_bound,
    product_spheres_bound,
    unit_tangent_bound,
)
from .constraints import torus_of_revolution_field
from .errors import LsnavError
from .flow import FlowConfig, components_to_json, find_critical_components, height_field
from .manifolds import (
    Ellipsoid,
    ImplicitHypersurface,
    ProductSpheres,
    Sphere,
    StiefelV2,
    random_points,
    spec_from_json,
)
from .navigation import (
    NavTuple,
    PairSearchConfig,
    classify_sphere_critical,
    find_parallel_pairs,
    nav_field,
)
from .paths import path_fibration, plan_product_odd_spheres
from .unit_tangent import FiberTuple, f_ut_field, fiber_fibration, sigma_u_planner


def _parse_manifold(text: str):
    """sphere:N | product:N1,N2,... | ellipsoid:a,b,c | stiefel:FRAME_DIM | @spec.json

    Invalid specs, unparsable numbers and unreadable files raise
    ArgumentTypeError, which argparse reports as a usage error."""
    try:
        if text.startswith("@"):
            with open(text[1:]) as fh:
                return spec_from_json(json.load(fh))
        kind, _, rest = text.partition(":")
        if kind == "sphere":
            return Sphere(int(rest))
        if kind == "product":
            return ProductSpheres(tuple(int(v) for v in rest.split(",")))
        if kind == "ellipsoid":
            return Ellipsoid(tuple(float(v) for v in rest.split(",")))
        if kind == "stiefel":
            return StiefelV2(int(rest))
    except (LsnavError, OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(
        f"unknown manifold {text!r} (use sphere:N, product:N1,N2, ellipsoid:a,b,c, "
        "stiefel:FRAME_DIM, or @file.json)"
    )


def _checked(parse, ok, expected: str):
    """An argparse type: parse(text) when that succeeds and passes ok, else a
    usage error saying what was expected."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


def _numbers(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _surface(kind: str):
    """An argparse type reading ``pairs --KIND TEXT`` as ``--manifold KIND:TEXT``."""
    return lambda text: _parse_manifold(f"{kind}:{text}")


def _torus(text: str) -> ImplicitHypersurface:
    major, minor = _radii(text)
    return ImplicitHypersurface(torus_of_revolution_field(major, minor), minor**2)


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_not_nan = _checked(float, lambda v: not np.isnan(v), "a number, not NaN")
_tolerance = _checked(float, lambda v: 0 < v < np.inf, "a finite number > 0")
_radii = _checked(_numbers, lambda v: len(v) == 2, "major,minor radii")
_criteria = _checked(lambda text: [int(v) for v in text.split(",")],
                     lambda only: all(1 <= k <= len(acceptance.ALL_CHECKS) for k in only),
                     f"criterion numbers 1 to {len(acceptance.ALL_CHECKS)}")


def _emit(args, payload, text_renderer=None):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        out = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    else:
        out = text_renderer() if text_renderer else json.dumps(payload, indent=2, sort_keys=True)
        if not out.endswith("\n"):
            out += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _flow_config(args) -> FlowConfig:
    try:
        return FlowConfig(grad_tol=args.grad_tol, cluster_tol=args.cluster_tol)
    except ValueError as exc:
        raise LsnavError(str(exc)) from None


def cmd_critfind(args) -> int:
    rng = np.random.default_rng(args.seed)
    spec = args.manifold
    cfg = _flow_config(args)
    if args.field == "nav":
        field = nav_field(spec, args.r)
    elif args.field == "ut-f":
        if not isinstance(spec, StiefelV2):
            raise LsnavError("field ut-f lives on a frame manifold (stiefel:FRAME_DIM)")
        field = f_ut_field(spec)
    else:  # "height"; argparse restricts the choices
        field = height_field(spec)
    seeds = random_points(field.spec, args.seeds, rng)
    comps = find_critical_components(field, seeds, cfg)
    payload = components_to_json(comps)

    def text():
        lines = [f"{'value':>12}  {'label':<12}  representatives"]
        for c in comps:
            lines.append(f"{c.value:>12.6f}  {c.label:<12}  {c.representatives.shape[0]}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return 0


def _load_json(path: str, expected: str, convert):
    """convert(contents of the JSON file at path); a malformed file, or one
    that convert rejects, is an LsnavError saying what was expected."""
    with open(path) as fh:
        try:
            return convert(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise LsnavError(f"{path} is not {expected}: {exc}") from None


def _load_tuple(path: str) -> np.ndarray:
    return _load_json(path, "a JSON array of coordinate arrays",
                      lambda data: np.asarray(data, dtype=float))


def _load_components(path: str) -> BoundInput:
    return _load_json(
        path, 'a JSON object {"components": [{"value": ..., "complexity": ...}, ...]}',
        lambda data: BoundInput.plain((float(c["value"]), c.get("complexity"), c.get("label", ""))
                                      for c in data["components"]))


def cmd_plan(args) -> int:
    pts = _load_tuple(args.tuple)
    spec = args.manifold
    if args.planner == "product-spheres":
        t = NavTuple(spec, pts)
        pattern = classify_sphere_critical(t, tol=args.tol)
        path = plan_product_odd_spheres(t, pattern, tol=args.tol)
        reproduced = path_fibration(path, t.r)
        err = float(np.max(np.abs(reproduced.points - t.points)))
    else:
        t = FiberTuple(spec, pts)
        path = sigma_u_planner(t, tol=args.tol)
        reproduced = fiber_fibration(path, t.r)
        err = float(np.max(np.abs(reproduced.entries - t.entries)))
    if args.format == "csv":
        _emit(args, path.to_csv(args.samples))
        return 0
    payload = {"schema": "v1", "section_error": err, "path": path.to_json()}
    _emit(args, payload)
    return 0


def cmd_pairs(args) -> int:
    spec = args.ellipsoid or args.sphere or args.torus
    if spec is None:
        raise LsnavError("choose a surface: --ellipsoid, --sphere or --torus")
    census = find_parallel_pairs(
        spec, PairSearchConfig(n_seeds=args.seeds, rng_seed=args.seed)
    )
    _emit(args, census.to_json())
    return 0


def cmd_bound(args) -> int:
    chosen = [bool(args.unit_tangent), bool(args.product_spheres), bool(args.components)]
    if sum(chosen) != 1:
        raise LsnavError("choose exactly one of --unit-tangent, --product-spheres, --components")
    if args.unit_tangent:
        if args.m is None or args.r is None:
            raise LsnavError("--unit-tangent needs --m and --r")
        result = unit_tangent_bound(args.m, args.r)
    elif args.product_spheres:
        if args.k is None or args.r is None:
            raise LsnavError("--product-spheres needs --k and --r")
        result = product_spheres_bound(args.k, args.r)
    else:
        result = ls_upper_bound(_load_components(args.components), lambda_cut=args.lambda_cut)
    _emit(args, result.to_json(), result.table)
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run(only=args.only, seed=args.seed)
    passed = all(r.passed for r in results)
    print(("ALL PASS" if passed else "FAILURES PRESENT")
          + f"  ({sum(r.passed for r in results)}/{len(results)})")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsnav",
        description="Pseudo-gradient flows, navigation functions, explicit "
                    "motion planners and Lusternik-Schnirelmann bound "
                    "aggregation on embedded manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_io(p):
        p.add_argument("--output", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--seed", type=_seed, default=0, help="RNG seed (fixed seed gives byte-identical output)")

    p = sub.add_parser(
        "critfind",
        help="detect critical components of a scalar field by damped Newton "
             "on its Riemannian gradient",
        description="Detect critical components of a named field: 'nav' is the "
                    "chained squared-distance navigation function on M^r, "
                    "'ut-f' the invariant function <i x, v> on a unit tangent "
                    "bundle, 'height' a coordinate height function.  Newton's "
                    "method with the analytic Riemannian Hessian runs from every "
                    "seed; converged points are grouped by value, then by the "
                    "field's structural label, or by distance with clusters "
                    "joined when continuation along the Hessian kernel connects "
                    "them through the critical set.",
    )
    p.add_argument("--field", choices=["nav", "ut-f", "height"], required=True)
    p.add_argument("--manifold", type=_parse_manifold, required=True,
                   help="sphere:N | product:N1,N2 | ellipsoid:a,b,c | stiefel:FRAME_DIM | @spec.json")
    p.add_argument("--r", type=int, default=2, help="number of waypoints for the nav field")
    p.add_argument("--seeds", type=_positive_int, default=200)
    p.add_argument("--grad-tol", type=float, default=1e-8,
                   help="gradient tolerance of a critical point; Newton runs to "
                        "min(this, 1e-10)")
    p.add_argument("--cluster-tol", type=float, default=1e-4,
                   help="critical values closer than 10x this form one level")
    common_io(p)
    p.set_defaults(fn=cmd_critfind)

    p = sub.add_parser(
        "plan",
        help="run a motion planner on a critical tuple file",
        description="Produce a section of the evaluation fibration on a "
                    "critical tuple: the sequential planner on products of "
                    "odd spheres, or the fiberwise rotational planner on a "
                    "unit tangent bundle.",
    )
    p.add_argument("--planner", choices=["product-spheres", "sigma-u"], required=True)
    p.add_argument("--tuple", required=True, help="JSON file: array of coordinate arrays")
    p.add_argument("--manifold", type=_parse_manifold, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--samples", type=_positive_int, default=256, help="dense samples for csv export")
    common_io(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser(
        "pairs",
        help="count common-tangent pairs on a compact hypersurface",
        description="Multistart Newton search for unordered pairs {x, y} with "
                    "T_x M = T_y M perpendicular to the chord; their count "
                    "bounds TC(M) - 1 from below.",
    )
    p.add_argument("--ellipsoid", type=_surface("ellipsoid"), help="semiaxes a,b,c")
    p.add_argument("--sphere", type=_surface("sphere"), help="sphere dimension n")
    p.add_argument("--torus", type=_torus, help="major,minor radii of a torus of revolution")
    p.add_argument("--seeds", type=_positive_int, default=10000)
    common_io(p)
    p.set_defaults(fn=cmd_pairs)

    p = sub.add_parser(
        "bound",
        help="evaluate Lusternik-Schnirelmann-type upper bounds",
        description="Sum over critical values of the per-value maximum "
                    "subspace complexity: closed forms for products of odd "
                    "spheres (k(r-1)+1) and unit tangent bundles of "
                    "S^(4m-1) (r+1, exact), or a components JSON file.",
    )
    p.add_argument("--unit-tangent", action="store_true")
    p.add_argument("--product-spheres", action="store_true")
    p.add_argument("--components", help="JSON file with a components list")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--lambda-cut", type=_not_nan, default=float("inf"))
    common_io(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser(
        "verify",
        help="run the acceptance suite and print a pass/fail table",
        description="Run every acceptance criterion at its pinned tolerance "
                    "and print one pass/fail line per criterion.",
    )
    p.add_argument("--only", type=_criteria,
                   help="comma-separated criterion numbers, e.g. 3,9")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LsnavError, OSError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
