"""Microbenchmark of the per-kind geometry kernels and of the Newton stage.

Times ``project_points``, ``project_tangent``, the spec's
``riemannian_hessian`` (from a random ambient gradient and symmetric ambient
Hessian per row) and ``flow.rho`` at batch sizes 1, 500 and 5000 on
sphere:1^2, (S^3)^3, (S^1 x S^3)^2, stiefel:4, stiefel:8, the ellipsoid
(1,2,3), the torus of revolution (2, 0.5) and euclidean:3, and
``flow.newton_critical_search`` at 1 and 500 seeds on the nav field of
sphere:1 (r=2) and of S^3 (r=3, on (S^3)^3), ut-f on stiefel:4 and the height
on that torus; the right-hand side of the vertical flow,
``unit_tangent.vertical_pseudo_gradient_coords`` of ut-f, at batch sizes 1,
500 and 5000 on stiefel:4 and stiefel:8; one stage of the vertical flow, the
anchored projection and then the stage kernel the flow evaluates
(``unit_tangent._vertical_pseudo_gradient``, or in a tree without it
``vertical_pseudo_gradient_coords``), at 1, 50 and 500 rows on each of them;
one descending ``unit_tangent.vertical_flow_endpoints`` call of ut-f from 50 seeds on each of
them; one descending ``flow.flow_endpoints`` call from 50 seeds on the nav
field of S^3 (r=3, on (S^3)^3), whose critical sets are Morse-Bott, and on
the coordinate x of that torus, whose critical points are nondegenerate;
``navigation.pair_system_residual`` and ``pair_system_jacobian`` at
batch sizes 1, 500 and 5000 on the ellipsoids (1,2,3) and (1,1.5,2,3) (three
and four unknowns per end) and on that torus; one Levenberg-Marquardt
iteration, ``lm_iteration``, at batch sizes 1, 500 and 5000 on the pair
system of the ellipsoid (1,2,3) (d = 6) and on the Riemannian gradient and
Hessian of the nav field of S^3 (r=3, d = 12), each solved per matrix and
along the batch axis; and one ``navigation.find_parallel_pairs`` census of
the ellipsoid (1,2,3) and one of S^2, each from its default 10000 seeds,
for one or more source trees of lsnav in one process:

    python3 scripts/bench_kernels.py change=src
    python3 scripts/bench_kernels.py parent=/path/to/parent/src change=src > BENCH_kernels.json

Each ``LABEL=SRC`` argument loads the ``lsnav`` package under SRC as its own
module, so the trees are timed alternately, repeat by repeat, and a change of
host speed hits all of them alike.  Every figure is the median and quartiles
over REPEATS repeats of the time per call, with the calls and rows behind it.
``rho`` does not depend on the manifold; it is timed on the row norms of a
Gaussian batch, once per batch size, under the kind ``"-"``.  Next to each
Newton median and each census median stand the Levenberg-Marquardt iterations
and Jacobian rows of one call, and next to each median of an endpoint flow
its integrator steps (``flow._dp54_step`` calls), its stage calls and rows,
the separate stopping-norm calls of a tree whose ``flow._flow_batch`` still
takes ``grad_norm`` (0 otherwise), and the iterations and residual rows of its
Newton finish, each counted in an untimed call.  Stage calls plus norm calls
are the field evaluations of the flow.
``flow._cluster_endpoints``, the clustering that labels converged points, is
timed at batch sizes 1, 500 and 5000 on critical points of two classified
fields: the nav field of S^3 (r=3), tuples (x, +-x, +-x) on (S^3)^3, and ut-f
on stiefel:4, frames (x, +-ix); and on the points that
``flow.newton_critical_search`` reaches from that many seeds of the height on
that torus, which has no classifier, so the Morse-Bott merge joins the
scattered points of its two critical circles: by continuation walks at
MERGE_SEEDS seeds, the benchmark's size, where single linkage leaves each
circle in several clusters, and by kernel tests alone from 500 seeds on; and,
at 500 and 5000 seeds, on the points Newton reaches of the height on the
ellipsoid (1,2,3), whose two poles are isolated, so the merge groups them
where they coincide, with no walk.  Next to
each clustering median stands the peak memory of one untimed call, as
``tracemalloc`` counts it (numpy reports its arrays there).  ``lm_iteration`` runs
``levenberg_marquardt`` for one iteration on a system frozen at random points:
the normal equations and one damped solve, accepted in every row, since every
trial residual is zero.  Its kind names the problem and the solve, forced
through ``numerics.LM_BATCH_AXIS_ROWS`` ("per-matrix" or "batch-axis"); a tree
without that constant solves per matrix under both names.

Kernel times on a shared host are noisy: treat them as a guide to where the
time goes, and the benchmark's ``solve_ref`` as the end-to-end evidence.
"""
from __future__ import annotations

import importlib.util
import inspect
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

BATCHES = (1, 500, 5000)
STAGE_BATCHES = (1, 50, 500)
MANIFOLDS = ("sphere:1^2", "(S^3)^3", "(S^1xS^3)^2", "stiefel:4", "stiefel:8",
             "ellipsoid(1,2,3)", "torus(2,0.5)", "euclidean:3")
REPEATS = 9
MIN_REPEAT_S = 0.01  # calls per repeat are chosen so that one repeat takes at least this
NEWTON_PROBLEMS = ("nav sphere:1 r=2", "nav (S^3)^3", "ut-f stiefel:4", "height torus(2,0.5)")
NEWTON_BATCHES = (1, 500)
FRAMES = ("stiefel:4", "stiefel:8")
CLUSTER_PROBLEMS = ("nav (S^3)^3", "ut-f stiefel:4", "height torus(2,0.5)",
                    "height ellipsoid(1,2,3)")
MERGE_SEEDS = 100  # torus seeds whose Newton points lie far enough apart for walks
CLUSTER_BATCHES = {"height torus(2,0.5)": BATCHES + (MERGE_SEEDS,),
                   "height ellipsoid(1,2,3)": (500, 5000)}
FLOW_SEEDS = 50
FLOW_PROBLEMS = ("nav (S^3)^3", "x torus(2,0.5)")
PAIR_SURFACES = ("ellipsoid(1,2,3)", "ellipsoid(1,1.5,2,3)", "torus(2,0.5)")
LM_PROBLEMS = ("pair ellipsoid(1,2,3)", "nav (S^3)^3")
LM_PATHS = ("per-matrix", "batch-axis")
CENSUS_SURFACES = ("ellipsoid(1,2,3)", "sphere:2")


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
            "ellipsoid(1,1.5,2,3)": mf.Ellipsoid((1.0, 1.5, 2.0, 3.0)),
            "sphere:2": mf.Sphere(2),
            "torus(2,0.5)": torus(lsnav),
            "euclidean:3": mf.Euclidean(3)}[name]


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
            a = rng.standard_normal((n, spec.ambient_dim, spec.ambient_dim))
            out.append(("project_points", name, n, lambda s=spec, x=raw: mf.project_points(s, x)))
            out.append(("project_tangent", name, n,
                        lambda s=spec, x=pts, v=w: mf.project_tangent(s, x, v)))
            out.append(("riemannian_hessian", name, n,
                        lambda s=spec, x=pts, g=w, h=a + np.swapaxes(a, -1, -2):
                            s.riemannian_hessian(x, g, h)))
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
        stage = getattr(ut, "_vertical_pseudo_gradient", ut.vertical_pseudo_gradient_coords)
        for n in STAGE_BATCHES:
            pts = mf.random_points(field.spec, n, np.random.default_rng([8, n]))
            out.append(("vertical_stage", name, n, lambda f=field, x=pts, k=stage:
                        k(f, ut._anchored_project(f.spec, x))))
        n = FLOW_SEEDS
        seeds = mf.random_points(field.spec, n, np.random.default_rng([3, n]))
        out.append(("vertical_flow_endpoints", name, n,
                    lambda f=field, x=seeds: ut.vertical_flow_endpoints(f, x)))
    for name in FLOW_PROBLEMS:
        field = newton_field(lsnav, name)
        n = FLOW_SEEDS
        seeds = mf.random_points(field.spec, n, np.random.default_rng([7, n]))
        out.append(("flow_endpoints", name, n,
                    lambda f=field, x=seeds: lsnav.flow.flow_endpoints(f, x)))
    for name in CLUSTER_PROBLEMS:
        field = newton_field(lsnav, name)
        for n in CLUSTER_BATCHES.get(name, BATCHES):
            pts = critical_points(lsnav, name, n, np.random.default_rng([5, n]))
            out.append(("_cluster_endpoints", name, n,
                        lambda f=field, x=pts: lsnav.flow._cluster_endpoints(
                            f, x, lsnav.flow.FlowConfig())))
    nav = lsnav.navigation
    for name in PAIR_SURFACES:
        surf = manifold(lsnav, name)
        for n in BATCHES:
            pts = mf.random_points(surf, 2 * n, np.random.default_rng([4, n]))
            z = np.concatenate([pts[:n], pts[n:]], axis=1)
            for kernel in ("pair_system_residual", "pair_system_jacobian"):
                out.append((kernel, name, n, lambda k=getattr(nav, kernel), s=surf, z=z:
                            k(s.field, s.level, z)))
    for name in LM_PROBLEMS:
        for n in BATCHES:
            z, res, jac = lm_system(lsnav, name, n, np.random.default_rng([6, n]))
            for path in LM_PATHS:
                out.append(("lm_iteration", f"{name} {path}", n,
                            lambda z=z, r=res, j=jac, p=path: lm_iteration(lsnav, z, r, j, p)))
    search = nav.PairSearchConfig(rng_seed=0)
    for name in CENSUS_SURFACES:
        out.append(("find_parallel_pairs", name, search.n_seeds,
                    lambda s=manifold(lsnav, name): nav.find_parallel_pairs(s, search)))
    return out


def newton_field(lsnav, name: str):
    mf = lsnav.manifolds
    if name.startswith("height "):
        return lsnav.flow.height_field(manifold(lsnav, name[len("height "):]))
    if name == "x torus(2,0.5)":
        return lsnav.flow._coordinate_height(torus(lsnav), 0, "height")
    return {"nav sphere:1 r=2": lambda: lsnav.navigation.nav_field(mf.Sphere(1), 2),
            "nav (S^3)^3": lambda: lsnav.navigation.nav_field(mf.Sphere(3), 3),
            "ut-f stiefel:4": lambda: lsnav.unit_tangent.f_ut_field(mf.StiefelV2(4))}[name]()


def critical_points(lsnav, name: str, n: int, rng):
    """n critical points with random signs over random base points of S^3: nav
    tuples (x, +-x, +-x) of (S^3)^3, or ut-f frames (x, +-ix) of stiefel:4; or,
    for a height, the points Newton reaches from n seeds."""
    mf = lsnav.manifolds
    if name.startswith("height "):
        field = newton_field(lsnav, name)
        return lsnav.flow.newton_critical_search(field, mf.random_points(field.spec, n, rng))
    x = mf.random_points(mf.Sphere(3), n, rng)
    if name == "ut-f stiefel:4":
        return mf.frame_flat(x, rng.choice([-1.0, 1.0], size=(n, 1)) * mf.mult_i(x))
    signs = np.concatenate([np.ones((n, 1)), rng.choice([-1.0, 1.0], size=(n, 2))], axis=1)
    return (signs[:, :, None] * x[:, None, :]).reshape(n, -1)


def lm_system(lsnav, name: str, n: int, rng):
    """n random points z of an LM problem, with its residual and Jacobian there:
    the pair system of the ellipsoid (1,2,3), or the Riemannian gradient and
    Hessian of the nav field of S^3 (r=3)."""
    if name == "pair ellipsoid(1,2,3)":
        surf = manifold(lsnav, "ellipsoid(1,2,3)")
        pts = lsnav.manifolds.random_points(surf, 2 * n, rng)
        z = np.concatenate([pts[:n], pts[n:]], axis=1)
        nav = lsnav.navigation
        return (z, nav.pair_system_residual(surf.field, surf.level, z),
                nav.pair_system_jacobian(surf.field, surf.level, z))
    field = newton_field(lsnav, name)
    z = lsnav.manifolds.random_points(field.spec, n, rng)
    return z, field.riemannian_gradient(z), field.riemannian_hessian(z)


def lm_iteration(lsnav, z, res, jac, path: str):
    """One ``levenberg_marquardt`` iteration from z with the residual res there
    and the Jacobian jac, and a zero residual at every trial point, solved the
    way path names."""
    numerics = importlib.import_module(f"{lsnav.__name__}.numerics")
    saved = numerics.LM_MAX_ITER, getattr(numerics, "LM_BATCH_AXIS_ROWS", None)
    start = [res.copy()]  # LM writes accepted residuals into the array it is given

    def residual(w):
        return start.pop() if start else np.zeros((len(w), res.shape[1]))

    numerics.LM_MAX_ITER = 1
    if saved[1] is not None:
        numerics.LM_BATCH_AXIS_ROWS = 1 if path == "batch-axis" else len(z) + 1
    try:
        numerics.levenberg_marquardt(residual, lambda w: jac, z, tol=0.0)
    finally:
        numerics.LM_MAX_ITER = saved[0]
        if saved[1] is not None:
            numerics.LM_BATCH_AXIS_ROWS = saved[1]


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


def endpoint_flow_counts(lsnav, call) -> dict:
    """Integrator steps, stage calls and rows, stopping-norm calls, and
    Levenberg-Marquardt iterations and residual rows, of one call of ``call``.
    A step is one ``flow._dp54_step`` call, a pass of the integrator over the
    active rows.  Each ``flow._flow_batch`` call evaluates its stage (the third
    argument) at the starts and at every stage of every step; a tree whose
    ``_flow_batch`` takes ``grad_norm`` also evaluates that at the starts and
    at every pass that accepts a step in some row.  The Newton finish evaluates
    the residual inside ``levenberg_marquardt``; those rows count as LM
    residual rows, and each Jacobian evaluation there as one LM iteration, as
    in ``lm_counts``."""
    flow = lsnav.flow
    numerics = importlib.import_module(f"{lsnav.__name__}.numerics")
    solve, batch, step = numerics.levenberg_marquardt, flow._flow_batch, flow._dp54_step
    takes_norm = "grad_norm" in inspect.signature(batch).parameters
    counts = {"steps": 0, "rhs_calls": 0, "rhs_rows": 0, "norm_calls": 0, "lm_iterations": 0,
              "lm_residual_rows": 0}

    def counted_batch(field, direction, stage, project, *args, **kwargs):
        def counted_stage(f, coords):
            counts["rhs_calls"] += 1
            counts["rhs_rows"] += len(coords)
            return stage(f, coords)

        if takes_norm:
            norm = args[0]

            def counted_norm(f, coords):
                counts["norm_calls"] += 1
                return norm(f, coords)

            args = (counted_norm,) + args[1:]
        return batch(field, direction, counted_stage, project, *args, **kwargs)

    def counted_step(*args):
        counts["steps"] += 1
        return step(*args)

    def counted_solve(residual, jacobian, z0, **kwargs):
        def counted_residual(z):
            counts["lm_residual_rows"] += len(z)
            return residual(z)

        def counted_jacobian(z):
            counts["lm_iterations"] += 1
            return jacobian(z)

        return solve(counted_residual, counted_jacobian, z0, **kwargs)

    numerics.levenberg_marquardt, flow._flow_batch = counted_solve, counted_batch
    flow._dp54_step = counted_step
    try:
        call()
    finally:
        numerics.levenberg_marquardt, flow._flow_batch, flow._dp54_step = solve, batch, step
    return counts


def peak_mb(call) -> float:
    """Peak memory allocated during one call of ``call``, in MB (tracemalloc)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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
            if kernel in ("newton_critical_search", "find_parallel_pairs"):
                record.update(lm_counts(modules[label], per_tree[label][i][3]))
            if kernel == "_cluster_endpoints":
                record["peak_mb"] = round(peak_mb(per_tree[label][i][3]), 2)
            if kernel in ("vertical_flow_endpoints", "flow_endpoints"):
                record.update(endpoint_flow_counts(modules[label], per_tree[label][i][3]))
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
