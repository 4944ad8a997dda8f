"""Microbenchmark of the per-kind geometry kernels and of the Newton stage.

Times ``project_points``, ``project_tangent`` and ``flow.rho`` at batch sizes
1, 500 and 5000 on sphere:1^2, (S^3)^3, (S^1 x S^3)^2, stiefel:4, stiefel:8,
the ellipsoid (1,2,3) and the torus of revolution (2, 0.5), and
``flow.newton_critical_search`` at 1 and 500 seeds on the nav field of
sphere:1 (r=2) and of S^3 (r=3, on (S^3)^3), ut-f on stiefel:4 and the height
on that torus; the right-hand side of the vertical flow,
``unit_tangent.vertical_pseudo_gradient_coords`` of ut-f, at batch sizes 1,
500 and 5000 on stiefel:4 and stiefel:8; and one descending
``unit_tangent.vertical_flow_endpoints`` call of ut-f from 50 seeds on each of
them, for one or more source trees of lsnav in one process:

    python3 scripts/bench_kernels.py change=src
    python3 scripts/bench_kernels.py parent=/path/to/parent/src change=src > BENCH_kernels.json

Each ``LABEL=SRC`` argument loads the ``lsnav`` package under SRC as its own
module, so the trees are timed alternately, repeat by repeat, and a change of
host speed hits all of them alike.  Every figure is the median and quartiles
over REPEATS repeats of the time per call, with the calls and rows behind it.
``rho`` does not depend on the manifold; it is timed on the row norms of a
Gaussian batch, once per batch size, under the kind ``"-"``.  Next to each
Newton median stand the Levenberg-Marquardt iterations and Jacobian rows of
one call, and next to each vertical-flow median its integrator steps and its
right-hand-side calls and rows, each counted in an untimed call.

Kernel times on a shared host are noisy: treat them as a guide to where the
time goes, and the benchmark's ``solve_ref`` as the end-to-end evidence.
"""
from __future__ import annotations

import importlib.util
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

BATCHES = (1, 500, 5000)
MANIFOLDS = ("sphere:1^2", "(S^3)^3", "(S^1xS^3)^2", "stiefel:4", "stiefel:8",
             "ellipsoid(1,2,3)", "torus(2,0.5)")
REPEATS = 9
MIN_REPEAT_S = 0.01  # calls per repeat are chosen so that one repeat takes at least this
NEWTON_PROBLEMS = ("nav sphere:1 r=2", "nav (S^3)^3", "ut-f stiefel:4", "height torus(2,0.5)")
NEWTON_BATCHES = (1, 500)
FRAMES = ("stiefel:4", "stiefel:8")
VERTICAL_FLOW_SEEDS = 50


def load_tree(label: str, src: str):
    """The lsnav package under src, imported as the module ``lsnav_<label>``."""
    init = os.path.join(src, "lsnav", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        f"lsnav_{label}", init, submodule_search_locations=[os.path.dirname(init)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def manifold(lsnav, name: str):
    mf = lsnav.manifolds
    return {"sphere:1^2": mf.Sphere(1).power(2),
            "(S^3)^3": mf.ProductSpheres((3, 3, 3)),
            "(S^1xS^3)^2": mf.ProductSpheres((1, 3)).power(2),
            "stiefel:4": mf.StiefelV2(4),
            "stiefel:8": mf.StiefelV2(8),
            "ellipsoid(1,2,3)": mf.Ellipsoid((1.0, 2.0, 3.0)),
            "torus(2,0.5)": torus(lsnav)}[name]


def torus(lsnav):
    fld = lsnav.constraints.torus_of_revolution_field(2.0, 0.5)
    return lsnav.manifolds.ImplicitHypersurface(fld, 0.25)


def cases(lsnav):
    """(kernel, kind, batch, zero-argument call) for every timed case."""
    mf = lsnav.manifolds
    out = []
    for name in MANIFOLDS:
        spec = manifold(lsnav, name)
        for n in BATCHES:
            rng = np.random.default_rng([0, n, spec.ambient_dim])
            raw = rng.standard_normal((n, spec.ambient_dim))
            pts = mf.project_points(spec, raw)
            w = rng.standard_normal(raw.shape)
            out.append(("project_points", name, n, lambda s=spec, x=raw: mf.project_points(s, x)))
            out.append(("project_tangent", name, n,
                        lambda s=spec, x=pts, v=w: mf.project_tangent(s, x, v)))
    for n in BATCHES:
        norms = 2.0 * np.abs(np.random.default_rng([0, n]).standard_normal(n))
        out.append(("rho", "-", n, lambda g=norms: lsnav.flow.rho(g)))
    for name in NEWTON_PROBLEMS:
        field = newton_field(lsnav, name)
        for n in NEWTON_BATCHES:
            seeds = mf.random_points(field.spec, n, np.random.default_rng([1, n]))
            out.append(("newton_critical_search", name, n,
                        lambda f=field, x=seeds: lsnav.flow.newton_critical_search(f, x)))
    ut = lsnav.unit_tangent
    for name in FRAMES:
        field = ut.f_ut_field(manifold(lsnav, name))
        for n in BATCHES:
            pts = mf.random_points(field.spec, n, np.random.default_rng([2, n]))
            out.append(("vertical_pseudo_gradient_coords", name, n,
                        lambda f=field, x=pts: ut.vertical_pseudo_gradient_coords(f, x)))
        n = VERTICAL_FLOW_SEEDS
        seeds = mf.random_points(field.spec, n, np.random.default_rng([3, n]))
        out.append(("vertical_flow_endpoints", name, n,
                    lambda f=field, x=seeds: ut.vertical_flow_endpoints(f, x)))
    return out


def newton_field(lsnav, name: str):
    mf = lsnav.manifolds
    if name == "height torus(2,0.5)":
        return lsnav.flow.height_field(torus(lsnav))
    return {"nav sphere:1 r=2": lambda: lsnav.navigation.nav_field(mf.Sphere(1), 2),
            "nav (S^3)^3": lambda: lsnav.navigation.nav_field(mf.Sphere(3), 3),
            "ut-f stiefel:4": lambda: lsnav.unit_tangent.f_ut_field(mf.StiefelV2(4))}[name]()


def lm_counts(lsnav, call) -> dict:
    """Levenberg-Marquardt iterations and Jacobian rows of one call of ``call``."""
    numerics = lsnav.numerics
    solve = numerics.levenberg_marquardt
    counts = {"lm_iterations": 0, "jacobian_rows": 0}

    def counted(residual, jacobian, z0, **kwargs):
        def counted_jacobian(z):
            counts["lm_iterations"] += 1
            counts["jacobian_rows"] += len(z)
            return jacobian(z)

        return solve(residual, counted_jacobian, z0, **kwargs)

    numerics.levenberg_marquardt = counted
    try:
        call()
    finally:
        numerics.levenberg_marquardt = solve
    return counts


def vertical_flow_counts(lsnav, call) -> dict:
    """Batched integrator steps, and right-hand-side calls and rows, of one call
    of ``call``.  The vertical pseudo-gradient is evaluated once per stage; the
    vertical gradient norm once at the start and then once per step, that is
    per pass of the integrator that accepts a step in some row."""
    ut = lsnav.unit_tangent
    rhs, norm = ut.vertical_pseudo_gradient_coords, ut.vertical_gradient_coords
    counts = {"steps": -1, "rhs_calls": 0, "rhs_rows": 0}

    def counted_rhs(field, coords):
        counts["rhs_calls"] += 1
        counts["rhs_rows"] += len(coords)
        return rhs(field, coords)

    def counted_norm(field, coords):
        counts["steps"] += 1
        return norm(field, coords)

    ut.vertical_pseudo_gradient_coords, ut.vertical_gradient_coords = counted_rhs, counted_norm
    try:
        call()
    finally:
        ut.vertical_pseudo_gradient_coords, ut.vertical_gradient_coords = rhs, norm
    return counts


def calls_per_repeat(call) -> int:
    """Enough calls for one repeat to last MIN_REPEAT_S."""
    call()  # warm up
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            call()
        if time.perf_counter() - start >= MIN_REPEAT_S:
            return calls
        calls *= 2


def run(trees: dict) -> dict:
    modules = {label: load_tree(label, src) for label, src in trees.items()}
    per_tree = {label: cases(module) for label, module in modules.items()}
    first = next(iter(per_tree.values()))
    results = {label: [] for label in trees}
    for i, (kernel, kind, n, _) in enumerate(first):
        calls = calls_per_repeat(first[i][3])
        times = {label: [] for label in trees}
        for _ in range(REPEATS):
            for label, tree_cases in per_tree.items():
                call = tree_cases[i][3]
                start = time.perf_counter()
                for _ in range(calls):
                    call()
                times[label].append((time.perf_counter() - start) / calls * 1e6)
        for label, ts in times.items():
            q1, med, q3 = statistics.quantiles(ts, n=4)
            record = {"kernel": kernel, "kind": kind, "batch": n,
                      "calls": calls * REPEATS, "rows": calls * REPEATS * n,
                      "us_per_call_median": round(med, 2),
                      "us_per_call_q1": round(q1, 2), "us_per_call_q3": round(q3, 2)}
            if kernel == "newton_critical_search":
                record.update(lm_counts(modules[label], per_tree[label][i][3]))
            if kernel == "vertical_flow_endpoints":
                record.update(vertical_flow_counts(modules[label], per_tree[label][i][3]))
            results[label].append(record)
    return {"host": {"machine": platform.machine(), "processor": platform.processor(),
                     "cpus": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__},
            "repeats": REPEATS, "trees": list(trees), "results": results}


def main(argv) -> int:
    pairs = argv or ["change=src"]
    if not all("=" in a for a in pairs):
        print(__doc__, file=sys.stderr)
        return 2
    trees = dict(a.split("=", 1) for a in pairs)
    json.dump(run(trees), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
