import math
import json

import pytest

from lsnav.bounds import (
    BoundInput,
    ComponentComplexity,
    ls_upper_bound,
    product_spheres_bound,
    reference_tc,
    unit_tangent_bound,
)
from lsnav.errors import UnknownComplexity, UnknownSpace


def test_ls_upper_bound_examples():
    # circle navigation data at r=2: one component each at 0 and 4
    inp = BoundInput.plain([(0.0, 1), (4.0, 1)])
    assert ls_upper_bound(inp).bound == 2

    assert ls_upper_bound(BoundInput.plain([(0.0, 1)])).bound == 1

    inp = BoundInput.plain([(0.0, 1), (4.0, 2), (8.0, 1), (8.0, 3)])
    res = ls_upper_bound(inp)
    assert res.bound == 6
    assert res.breakdown == ((0.0, 1), (4.0, 2), (8.0, 3))


def test_fiber_signs_sums_one_sign_per_slot():
    inp = BoundInput.fiber_signs(2)
    assert inp.mode == "fiber-signs"
    assert [(c.value, c.complexity, c.label) for c in inp.components] == [
        (-2.0, 1, "(-1,-1)"), (0.0, 1, "(-1,1)"), (0.0, 1, "(1,-1)"), (2.0, 1, "(1,1)")]


def test_ls_upper_bound_lambda_cut_monotone():
    inp = BoundInput.plain([(0.0, 1), (4.0, 2), (8.0, 3)])
    bounds = [ls_upper_bound(inp, lambda_cut=c).bound for c in [-1.0, 0.0, 4.0, 8.0, math.inf]]
    assert bounds == [0, 1, 3, 6, 6]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))


def test_ls_upper_bound_monotone_in_complexities():
    lo = BoundInput.plain([(0.0, 1), (4.0, 1)])
    hi = BoundInput.plain([(0.0, 1), (4.0, 5)])
    assert ls_upper_bound(lo).bound <= ls_upper_bound(hi).bound


def test_ls_upper_bound_unknown_complexity():
    inp = BoundInput.plain([(0.0, 1), (4.0, None)])
    with pytest.raises(UnknownComplexity) as err:
        ls_upper_bound(inp)
    assert err.value.components == [(4.0, "")]
    # components above the cutoff do not need assignments
    assert ls_upper_bound(inp, lambda_cut=2.0).bound == 1


def test_product_spheres_bound_closed_form():
    for k in (1, 2, 3):
        for r in range(2, 7):
            res = product_spheres_bound(k, r)
            assert res.bound == k * (r - 1) + 1
            assert res.exact
            values = [v for v, _ in res.breakdown]
            assert values == [4.0 * i for i in range(k * (r - 1) + 1)]


def test_unit_tangent_bound_closed_form():
    for m in (1, 2, 3):
        for r in range(2, 7):
            res = unit_tangent_bound(m, r)
            assert res.bound == r + 1
            assert res.exact
            assert len(res.breakdown) == r + 1


def test_unit_tangent_group_count():
    for r in range(2, 9):
        res = unit_tangent_bound(1, r)
        sums = [v for v, _ in res.breakdown]
        assert sums == [float(2 * k - r) for k in range(r + 1)]


def test_reference_tc_table():
    assert reference_tc("sphere-even", 2) == 3
    assert reference_tc("sphere-odd", 2) == 2
    assert reference_tc("product-odd-spheres", 3, k=2) == 5
    with pytest.raises(UnknownSpace):
        reference_tc("lens-space", 2)


def test_bound_result_json_and_table():
    res = unit_tangent_bound(1, 2)
    payload = res.to_json()
    assert payload["bound"] == 3
    assert payload["exact"] is True
    text = res.table()
    assert "bound" in text and "3" in text


def test_bound_input_json_is_a_components_file():
    # the "components" list of to_json is the form `lsnav bound --components` reads
    inp = BoundInput.fiber_signs(3, complexity=2)
    payload = json.loads(json.dumps(inp.to_json()))
    assert (payload["schema"], payload["mode"], len(payload["components"])) == (
        "v1", "fiber-signs", 8)
    back = BoundInput.plain((c["value"], c["complexity"], c["label"])
                            for c in payload["components"])
    assert back.components == inp.components
    assert ls_upper_bound(back).bound == ls_upper_bound(inp).bound == 8


def test_component_complexity_validation():
    with pytest.raises(ValueError):
        ComponentComplexity(0.0, 0)
    for bad in (1.5, 2.7, 0.5, math.inf, math.nan, True):
        with pytest.raises(ValueError):
            ComponentComplexity(0.0, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ComponentComplexity(bad, 1)
    whole = ComponentComplexity(4.0, 2.0)
    assert whole.complexity == 2 and type(whole.complexity) is int
    assert ComponentComplexity(4.0, None).complexity is None
