"""Smoke test: the demos that use lsnav.manifolds names beyond random_points
run to the end in-process.  Demos 03 and 05 take about 2 s each and are left out."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_manifolds_and_projection",
    "04_product_sphere_planner",
    "06_unit_tangent_bundle",
    "08_deformation_sections",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
