"""Timing and counting wrappers installed on lsnav's public functions from outside.

lsnav calls every function wrapped here through a module global or a
call-time import, so replacing the module attribute (or the class attribute,
for ``ScalarField.gradient_norm``) routes the library's own calls through the
wrapper.  ``unit_tangent`` binds ``rho`` at import time, so ``rho`` is wrapped
in both modules under one span name.

Each wrapped call records a span ``(id, parent id, name, start, end, rows)``,
where ``rows`` is the batch size passed in.  Spans stay in memory; per-layer
figures are derived from them when the run ends.  Counts that no span carries
(Levenberg-Marquardt rows and iterations, constraint-gradient rows, stage
outcomes) are added under a lock because the pair search may run its solver
chunks on worker threads.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import math
import threading
import time
from collections import defaultdict

import numpy as np

from lsnav import flow, manifolds, navigation, numerics, unit_tangent
from lsnav.constraints import ConstraintField


def _rows(x) -> int:
    """Number of points in a coordinate array of shape (..., d)."""
    return math.prod(np.shape(x)[:-1])


def _size(x) -> int:
    return math.prod(np.shape(x))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("rows_per_converged"):
        return "rows"
    return "count"


def _kind(spec) -> str:
    if isinstance(spec, (manifolds.Sphere, manifolds.ProductSpheres)):
        return "sphere"
    if isinstance(spec, manifolds.StiefelV2):
        return "frames"
    if isinstance(spec, (manifolds.Ellipsoid, manifolds.ImplicitHypersurface)):
        return "hypersurface"
    return "euclidean"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Installs wrappers with ``install`` and removes them with ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.outcomes = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the calling thread."""
        return any(label == name for _, label in self._stack())

    def innermost(self) -> str:
        stack = self._stack()
        return stack[-1][1] if stack else ""

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counts[key] += value

    def _wrap(self, owner, attr, name, rows=None, prepare=None, after=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            label = name(args) if callable(name) else name
            n = rows(args) if rows is not None else 0
            stack = tracer._stack()
            parent = stack[-1][0] if stack else 0
            sid = next(tracer._ids)
            stack.append((sid, label))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, label, start, end, n))
            if after is not None:
                after(args, kwargs, out)
            return out

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    # -- stage outcomes --------------------------------------------------

    def _after_flow(self, args, kwargs, out):
        if self.inside("flow.detect_critical"):
            return
        stage = "descent" if _arg(args, kwargs, 3, "direction", -1) < 0 else "ascent"
        conv = np.asarray(out[2], dtype=bool)
        self.outcomes.append((stage, conv))
        self.add(f"flow.{stage}.attempted", conv.size)
        self.add(f"flow.{stage}.converged", int(conv.sum()))

    def _after_lm(self, args, kwargs, out):
        ok = np.asarray(out[1]) <= kwargs["tol"]
        self.outcomes.append(("lm", ok))
        self.add("numerics.lm.attempted", ok.size)
        self.add("numerics.lm.converged", int(ok.sum()))

    def _prepare_lm(self, args, kwargs):
        residual, jacobian, z0 = args[:3]

        def counted_residual(z):
            self.add("numerics.lm.residual_rows", _rows(z))
            return residual(z)

        def counted_jacobian(z):
            self.add("numerics.lm.iterations")
            self.add("numerics.lm.jacobian_rows", _rows(z))
            return jacobian(z)

        return (counted_residual, counted_jacobian, z0) + tuple(args[3:]), kwargs

    def _after_newton(self, args, kwargs, out):
        self.add("flow.newton.attempted", _rows(np.atleast_2d(args[1])))
        self.add("flow.newton.converged", _rows(out))

    # -- installation ----------------------------------------------------

    def install(self, full: bool = True):
        """Wrap the stage functions, and with ``full`` every traced layer.

        The stage wrappers (flow_endpoints, detect_critical and
        levenberg_marquardt, a few calls per problem) record each stage's
        per-seed converged mask, so the untraced run installs them too.
        """
        rows1 = lambda a: _rows(a[1])  # noqa: E731
        self._wrap(flow, "flow_endpoints", "flow.flow_endpoints", rows1, after=self._after_flow)
        self._wrap(flow, "detect_critical", "flow.detect_critical", rows1)
        self._wrap(numerics, "levenberg_marquardt", "numerics.levenberg_marquardt",
                   lambda a: _rows(a[2]),
                   prepare=self._prepare_lm if full else None, after=self._after_lm)
        if not full:
            return
        self._wrap(manifolds, "project_points",
                   lambda a: "manifolds.project_points." + _kind(a[0]), rows1)
        self._wrap(manifolds, "project_tangent", "manifolds.project_tangent", rows1)
        self._wrap(manifolds, "random_points", "manifolds.random_points", lambda a: a[1])
        self._wrap(flow, "pseudo_gradient_coords", "flow.pseudo_gradient_coords", rows1)
        self._wrap(flow, "rho", "flow.rho", lambda a: _size(a[0]))
        self._wrap(unit_tangent, "rho", "flow.rho", lambda a: _size(a[0]))
        self._wrap(flow.ScalarField, "gradient_norm", "flow.gradient_norm", rows1)
        self._wrap(flow, "newton_critical_search", "flow.newton_critical_search", rows1,
                   after=self._after_newton)
        self._wrap(flow, "find_critical_components", "flow.find_critical_components", rows1)
        rows2 = lambda a: _rows(a[2])  # noqa: E731
        self._wrap(navigation, "pair_system_residual", "navigation.pair_system_residual", rows2)
        self._wrap(navigation, "pair_system_jacobian", "navigation.pair_system_jacobian", rows2)
        self._wrap(navigation, "classify_sphere_critical", "navigation.classify_sphere_critical",
                   lambda a: a[0].r)
        self._wrap(navigation, "find_parallel_pairs", "navigation.find_parallel_pairs")
        self._wrap(unit_tangent, "vertical_pseudo_gradient_coords",
                   "unit_tangent.vertical_pseudo_gradient_coords", rows1)
        self._wrap(unit_tangent, "vertical_gradient_coords",
                   "unit_tangent.vertical_gradient_coords", rows1)
        self._wrap(unit_tangent, "vertical_flow_endpoints",
                   "unit_tangent.vertical_flow_endpoints", rows1)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def counting_field(self, fld: ConstraintField) -> ConstraintField:
        """The same constraint field, counting gradient rows evaluated inside
        ``project_points`` (one row per damped-Newton iteration per point)."""
        grad = fld.grad

        def counted_grad(x):
            if self.innermost() == "manifolds.project_points.hypersurface":
                self.add("manifolds.hypersurface.grad_rows", _rows(x))
            return grad(x)

        return ConstraintField(fld.name, fld.params, fld.ambient_dim, fld.value,
                               counted_grad, fld.hess, fld.bounding_box)

    # -- results ---------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start,end,rows\n")
            for sid, parent, name, start, end, n in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{n}\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics: calls, rows and inclusive busy time per span name,
        self time per layer, and the counts recorded outside spans."""
        calls = defaultdict(int)
        rows = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        for _sid, parent, name, start, end, _n in self.spans:
            child[parent] += end - start
        self_time = defaultdict(float)
        for sid, _parent, name, start, end, n in self.spans:
            calls[name] += 1
            rows[name] += n
            busy[name] += end - start
            self_time[name] += (end - start) - child[sid]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for kind in ("sphere", "frames", "hypersurface"):
            key = f"manifolds.project_points.{kind}"
            m[f"{key}.calls"] = calls[key]
            m[f"{key}.rows"] = rows[key]
            m[f"{key}.busy_s"] = busy[key]
        m["manifolds.project_tangent.rows"] = rows["manifolds.project_tangent"]
        m["manifolds.project_tangent.busy_s"] = busy["manifolds.project_tangent"]
        m["manifolds.hypersurface.grad_rows"] = int(c["manifolds.hypersurface.grad_rows"])
        m["manifolds.random_points.busy_s"] = busy["manifolds.random_points"]

        m["flow.rhs_calls"] = calls["flow.pseudo_gradient_coords"]
        m["flow.rhs_rows"] = rows["flow.pseudo_gradient_coords"]
        m["flow.steps"] = calls["flow.gradient_norm"] - calls["flow.flow_endpoints"]
        m["flow.flow_endpoints.busy_s"] = busy["flow.flow_endpoints"]
        for stage in ("descent", "ascent", "newton"):
            m[f"flow.{stage}.yield"] = ratio(c[f"flow.{stage}.converged"],
                                             c[f"flow.{stage}.attempted"])
        m["flow.newton_critical_search.busy_s"] = busy["flow.newton_critical_search"]
        m["flow.detect_critical.busy_s"] = busy["flow.detect_critical"]
        m["flow.rho.calls"] = calls["flow.rho"]
        m["flow.rho.busy_s"] = busy["flow.rho"]

        lm = "numerics.levenberg_marquardt"
        m["numerics.lm.calls"] = calls[lm]
        m["numerics.lm.busy_s"] = busy[lm]
        for key in ("iterations", "residual_rows", "jacobian_rows"):
            m[f"numerics.lm.{key}"] = int(c[f"numerics.lm.{key}"])
        m["numerics.lm.yield"] = ratio(c["numerics.lm.converged"], c["numerics.lm.attempted"])
        m["numerics.lm.rows_per_converged"] = ratio(c["numerics.lm.jacobian_rows"],
                                                    c["numerics.lm.converged"])

        for fn in ("pair_system_residual", "pair_system_jacobian"):
            m[f"navigation.{fn}.rows"] = rows[f"navigation.{fn}"]
            m[f"navigation.{fn}.busy_s"] = busy[f"navigation.{fn}"]
        m["navigation.dedup_s"] = self_time["navigation.find_parallel_pairs"]
        csc = "navigation.classify_sphere_critical"
        m[f"{csc}.calls"] = calls[csc]
        m[f"{csc}.busy_s"] = busy[csc]

        vpg = "unit_tangent.vertical_pseudo_gradient_coords"
        vgc = "unit_tangent.vertical_gradient_coords"
        vfe = "unit_tangent.vertical_flow_endpoints"
        m[f"{vpg}.rows"] = rows[vpg]
        m[f"{vpg}.busy_s"] = busy[vpg]
        m[f"{vgc}.calls"] = calls[vgc]
        m[f"{vgc}.rows"] = rows[vgc]
        m[f"{vgc}.busy_s"] = busy[vgc]
        m["unit_tangent.steps"] = calls[vgc] - calls[vfe]
        m[f"{vfe}.busy_s"] = busy[vfe]

        for layer in ("manifolds", "flow", "numerics", "navigation", "unit_tangent"):
            m[f"{layer}.self_s"] = sum(v for k, v in self_time.items()
                                       if k.split(".", 1)[0] == layer)
        m["trace.spans"] = len(self.spans)
        return m
