"""The benchmark's tracer (perfbench/tracing.py, loaded as it is) still finds
every library name it wraps and still records the per-seed stage masks that
its seed_ok_frac figure is built from."""
import importlib.util
from pathlib import Path

import numpy as np

from lsnav import flow, manifolds, navigation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_each_stage_of_find_critical_components():
    field = navigation.nav_field(manifolds.Sphere(1), 2)
    seeds = manifolds.random_points(field.spec, 10, np.random.default_rng(0))
    original = flow.find_critical_components
    tracer = _tracing_module().Tracer()
    tracer.install(full=True)  # raises AttributeError if a wrapped name is gone
    try:
        comps = flow.find_critical_components(field, seeds)
    finally:
        tracer.uninstall()
    assert flow.find_critical_components is original
    # detection is Newton-first: one Levenberg-Marquardt stage over the seeds, no flow
    assert [(stage, ok.shape) for stage, ok in tracer.outcomes] == [("lm", (10,))]
    assert {c.label for c in comps} == {"++", "+-"}
    metrics = tracer.layer_metrics()
    assert metrics["flow.rhs_calls"] == 0
    assert metrics["numerics.lm.iterations"] > 0
    # the nav classifier labels each sign pattern from the signs it takes, with no
    # round trip through the single-tuple classifier
    assert metrics["navigation.classify_sphere_critical.calls"] == 0
