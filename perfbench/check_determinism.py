"""Self-checks of the benchmark's counters.

Run from the root of a checkout with

    python3 -m pytest -q perfbench/check_determinism.py

The repository's own test run does not collect this file (its name does not
match ``test_*.py``): each check runs whole traced rounds and takes seconds
to tens of seconds.
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402  (pins BLAS to one thread and unsets LSNAV_THREADS)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def traced_round(workload):
    tracer = Tracer()
    rec = run.run_round(workload, SEED, 0, tracer, full=True)
    assert not rec.failures
    return tracer.layer_metrics(), run.digest(rec.answers)


def counts(metrics):
    """Every per-layer figure except times: calls, rows, steps, iterations, yields."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_at_the_same_seed(workload):
    first, first_digest = traced_round(workload)
    second, second_digest = traced_round(workload)
    assert counts(first) == counts(second)
    assert first_digest == second_digest


def test_pair_census_rows_and_digest_do_not_depend_on_threads(monkeypatch):
    monkeypatch.setenv("LSNAV_THREADS", "1")
    one, one_digest = traced_round("pair-census")
    monkeypatch.setenv("LSNAV_THREADS", "2")
    two, two_digest = traced_round("pair-census")
    rows = sorted(k for k in one if k.endswith("rows"))
    assert rows
    # calls and iterations may differ, because each worker's chunk runs its own loop
    assert {k: one[k] for k in rows} == {k: two[k] for k in rows}
    assert one["numerics.lm.jacobian_rows"] > 0
    assert one_digest == two_digest
