"""Acceptance criteria, one test per criterion.

Each test prints its pass/fail line (visible with pytest -s or -v plus
capture disabled) and asserts the criterion including its runtime limit.
"""
from types import SimpleNamespace

from lsnav import acceptance

CRITERIA = [
    acceptance.check_nav_critical_values,
    acceptance.check_unit_tangent_critical,
    acceptance.check_bounds,
    acceptance.check_section_properties,
    acceptance.check_parallel_pairs,
    acceptance.check_gradients,
    acceptance.check_vertical_structure,
    acceptance.check_pseudo_gradient,
    acceptance.check_conversions,
    acceptance.check_equivariance,
]


def _run(check):
    result = check(seed=0)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_nav_critical_values():
    _run(acceptance.check_nav_critical_values)


def test_criterion_2_unit_tangent_critical_set():
    _run(acceptance.check_unit_tangent_critical)


def test_criterion_3_bound_reproduction():
    _run(acceptance.check_bounds)


def test_criterion_4_section_properties():
    _run(acceptance.check_section_properties)


def test_criterion_5_hypersurface_pair_count():
    _run(acceptance.check_parallel_pairs)


def test_criterion_6_gradient_correctness():
    _run(acceptance.check_gradients)


def test_criterion_7_vertical_structure():
    _run(acceptance.check_vertical_structure)


def test_criterion_8_pseudo_gradient_contract():
    _run(acceptance.check_pseudo_gradient)


def test_criterion_9_conversion_formulas():
    _run(acceptance.check_conversions)


def test_criterion_10_equivariance():
    _run(acceptance.check_equivariance)


def test_runner_fails_a_criterion_past_its_gate(monkeypatch):
    # a patched clock, read once before and once after the body, puts
    # criterion 1 past its 60 s gate and criterion 9 past the 120 s one
    assert acceptance.ALL_CHECKS == CRITERIA
    for check, index, elapsed, detail in [
        (acceptance.check_nav_critical_values, 1, 61.0, "runtime 61.0s >= 60s"),
        (acceptance.check_conversions, 9, 130.0, "runtime 130.0s >= 120s"),
    ]:
        ticks = iter([1000.0, 1000.0 + elapsed])
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(time=lambda: next(ticks)))
        result = check(seed=0)
        assert (result.index, result.passed, result.detail) == (index, False, detail)
        assert result.seconds == elapsed
        assert f"({elapsed:5.1f}s)" in result.line()
    monkeypatch.undo()
    result = acceptance.check_conversions(seed=0)
    assert result.passed and result.detail == "p_r o s = id at knots <= 1e-12"
    assert acceptance.ALL_CHECKS == CRITERIA
