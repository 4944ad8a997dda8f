import json
import time
import tracemalloc

import numpy as np
import pytest

from lsnav import cli
from lsnav.cli import main
from lsnav.manifolds import mult_i


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_unit_tangent(capsys):
    code, out, _ = run_cli(capsys, "bound", "--unit-tangent", "--m", "1", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 3
    assert payload["exact"] is True


def test_bound_unit_tangent_lists_its_levels_without_enumerating_signs(capsys):
    # the 61 levels of r = 60 come directly; 2^60 sign tuples would never finish
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bound", "--unit-tangent", "--m", "1", "--r", "60")
    assert time.perf_counter() - start < 0.1
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 61 and payload["exact"] is True
    assert payload["breakdown"] == [[float(2 * i - 60), 1] for i in range(61)]


def _too_large(message):
    return {"error": "TooLarge", "message": message + ", above BOUND_MAX_LEVELS = 100000"}


# (argv, the bound it answers or the JSON error it ends in, wall-time limit in s)
SIZE_CASES = [
    (["bound", "--product-spheres", "--k", "2", "--r", "1000000000000"],
     _too_large("product_spheres_bound lists k(r - 1) + 1 = 1999999999999 levels"), 0.1),
    (["bound", "--product-spheres", "--k", "1000000000000", "--r", "2"],
     _too_large("product_spheres_bound lists k(r - 1) + 1 = 1000000000001 levels"), 0.1),
    (["bound", "--unit-tangent", "--m", "1", "--r", "1000000000000"],
     _too_large("unit_tangent_bound lists r + 1 = 1000000000001 levels"), 0.1),
    (["bound", "--unit-tangent", "--m", "1", "--r", "100000"],
     _too_large("unit_tangent_bound lists r + 1 = 100001 levels"), 0.1),
    (["critfind", "--field", "nav", "--manifold", "sphere:1", "--r", "1000000000"],
     {"error": "WrongSpec",
      "message": "nav field on M^1000000000 has 2000000000 coordinates, above 256"}, 0.1),
    (["bound", "--unit-tangent", "--m", "1", "--r", "99999"], 100000, 5.0),
    (["bound", "--product-spheres", "--k", "1", "--r", "100000"], 100000, 5.0),
]


@pytest.mark.parametrize("argv, expected, seconds", SIZE_CASES,
                         ids=["product-r-1e12", "product-k-1e12", "unit-tangent-r-1e12",
                              "unit-tangent-above-cap", "nav-r-1e9", "unit-tangent-at-cap",
                              "product-at-cap"])
def test_sizes_are_capped_before_any_allocation(argv, expected, seconds, capsys):
    # an answer within the cap comes within the wall-time limit; a request
    # above it exits 1 with one JSON error line naming the cap, and the
    # refusal allocates almost nothing (tracemalloc, this process only)
    start = time.perf_counter()
    code = main(argv + ["--format", "json"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert elapsed < seconds
    if isinstance(expected, int):
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["bound"] == expected
        return
    assert code == 1 and captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == expected
    tracemalloc.start()
    try:
        main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 2**20


def test_bound_product_spheres(capsys):
    code, out, _ = run_cli(capsys, "bound", "--product-spheres", "--k", "3", "--r", "2")
    assert code == 0
    assert json.loads(out)["bound"] == 4


def test_bound_components_file(tmp_path, capsys):
    comp_file = tmp_path / "components.json"
    comp_file.write_text(json.dumps({"components": [
        {"value": 0.0, "complexity": 1},
        {"value": 4.0, "complexity": 2},
    ]}))
    code, out, _ = run_cli(capsys, "bound", "--components", str(comp_file))
    assert code == 0
    assert json.loads(out)["bound"] == 3


def test_critfind_nav_circle(capsys):
    code, out, _ = run_cli(
        capsys, "critfind", "--field", "nav", "--manifold", "sphere:1",
        "--r", "2", "--seeds", "80", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(round(v, 6) for v in payload["values"]) == [0.0, 4.0]
    labels = {c["label"] for c in payload["components"]}
    assert labels == {"++", "+-"}


def test_critfind_ut_field(capsys):
    code, out, _ = run_cli(
        capsys, "critfind", "--field", "ut-f", "--manifold", "stiefel:4",
        "--seeds", "60", "--seed", "0",
    )
    assert code == 0
    payload = json.loads(out)
    vals = sorted(round(v, 6) for v in payload["values"])
    assert vals == [-1.0, 1.0]
    assert {c["label"] for c in payload["components"]} == {"+i", "-i"}


def test_critfind_determinism(tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for path in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "critfind", "--field", "nav", "--manifold", "sphere:1",
            "--r", "2", "--seeds", "40", "--seed", "9", "--output", str(path),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_pairs_ellipsoid(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--ellipsoid", "1,2,3",
                           "--seeds", "3000", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 3


def test_pairs_sphere_continuum(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--sphere", "2",
                           "--seeds", "2500", "--seed", "0")
    assert code == 0
    assert json.loads(out)["alpha"] == "continuum"


def test_pairs_sphere_continuum_at_few_seeds(capsys):
    # 50 seeds keep 50 distinct antipodal pairs; the Hessian kernel says family
    code, out, _ = run_cli(capsys, "pairs", "--sphere", "2", "--seeds", "50", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert (payload["alpha"], payload["pairs"], payload["nn_distance"]) == ("continuum", [], None)


def test_pairs_on_extreme_semiaxes_answer_or_give_one_error_line(capsys):
    # RuntimeWarnings are errors under pytest, so none may reach stderr on the way
    code, out, err = run_cli(capsys, "pairs", "--ellipsoid", "1e-150,1,1e150", "--seeds", "1000")
    if code == 0:
        assert json.loads(out)["schema"] == "v1" and err == ""
    else:
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "WrongSpec"


def test_plan_product_spheres(tmp_path, capsys):
    x = np.array([0.6, 0.8])
    tuple_file = tmp_path / "tuple.json"
    tuple_file.write_text(json.dumps([list(x), list(-x)]))
    code, out, _ = run_cli(capsys, "plan", "--planner", "product-spheres",
                           "--tuple", str(tuple_file), "--manifold", "sphere:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["section_error"] <= 1e-9
    assert payload["path"]["segments"][0]["type"] == "great_circle"


def test_plan_sigma_u(tmp_path, capsys):
    b = np.array([0.5, 0.5, 0.5, 0.5])
    ib = mult_i(b)
    tuple_file = tmp_path / "fiber.json"
    tuple_file.write_text(json.dumps([
        list(b) + list(ib),
        list(b) + list(-ib),
    ]))
    code, out, _ = run_cli(capsys, "plan", "--planner", "sigma-u",
                           "--tuple", str(tuple_file), "--manifold", "stiefel:4")
    assert code == 0
    assert json.loads(out)["section_error"] <= 1e-9


def test_plan_csv_export(tmp_path, capsys):
    x = np.array([1.0, 0.0])
    tuple_file = tmp_path / "tuple.json"
    tuple_file.write_text(json.dumps([list(x), list(-x)]))
    out_file = tmp_path / "path.csv"
    code, _, _ = run_cli(capsys, "plan", "--planner", "product-spheres",
                         "--tuple", str(tuple_file), "--manifold", "sphere:1",
                         "--format", "csv", "--samples", "16",
                         "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "t,x0,x1"
    assert len(lines) == 17


def test_critfind_text_table(capsys):
    argv = ["critfind", "--field", "nav", "--manifold", "sphere:1", "--r", "2",
            "--seeds", "80", "--seed", "0"]
    _, out, _ = run_cli(capsys, *argv)
    comps = json.loads(out)["components"]
    code, text, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 0
    assert text.endswith("\n")
    header, *rows = text.splitlines()
    assert header.split() == ["value", "label", "representatives"]
    assert [row.split() for row in rows] == [
        [f"{c['value']:.6f}", c["label"], str(c["n_representatives"])] for c in comps]


@pytest.mark.parametrize("argv, fmt", [
    (["critfind", "--field", "nav", "--manifold", "sphere:1", "--seeds", "20"], "csv"),
    (["bound", "--unit-tangent", "--m", "1", "--r", "2"], "csv"),
    (["pairs", "--sphere", "2", "--seeds", "50"], "csv"),
    (["pairs", "--sphere", "2", "--seeds", "50"], "text"),
    (["plan", "--planner", "product-spheres", "--manifold", "sphere:1",
      "--tuple", "antipodal.json"], "text"),
], ids=["critfind-csv", "bound-csv", "pairs-csv", "pairs-text", "plan-text"])
def test_format_offers_only_what_a_command_renders(argv, fmt, tmp_path, monkeypatch, capsys):
    (tmp_path / "antipodal.json").write_text("[[1, 0], [-1, 0]]")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: lsnav {argv[0]}")
    assert f"argument --format: invalid choice: '{fmt}'" in captured.err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "critfind", "--field", "ut-f",
                           "--manifold", "sphere:2")
    assert code == 1
    assert "error" in err


def test_critfind_empty_seed_set(capsys):
    # an empty seed set is a usage error; the library's own NoConvergedSeeds
    # for it is tested in test_flow.py::test_no_converged_seeds
    with pytest.raises(SystemExit) as exc:
        main(["critfind", "--field", "nav", "--manifold", "sphere:1", "--seeds", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seeds: expected an integer >= 1, got '0'" in captured.err


# spec files read by the usage-error cases below, written into tmp_path
SPEC_FILES = {
    "sphere-without-dim.json": {"kind": "sphere"},
    "euclidean-dim-0.json": {"kind": "euclidean", "dim": 0},
    "euclidean-dim-negative.json": {"kind": "euclidean", "dim": -3},
    "ellipsoid-nan.json": {"kind": "ellipsoid", "semiaxes": [1, "nan"]},
    "ellipsoid-inf.json": {"kind": "ellipsoid", "semiaxes": [1, "inf"]},
    "sphere-fractional-dim.json": {"kind": "sphere", "dim": 2.7},
    "product-fractional-dims.json": {"kind": "product_spheres", "dims": [1.5, 3]},
    "stiefel-fractional-frame-dim.json": {"kind": "stiefel_v2", "frame_dim": 4.9},
    "sphere-bool-dim.json": {"kind": "sphere", "dim": True},
}


@pytest.mark.parametrize("field, manifold", [
    ("bogus", "sphere:1"),
    ("height", "sphere:0"),
    ("height", "stiefel:3"),
    ("height", "@no-such-spec.json"),
    ("height", "@sphere-without-dim.json"),
    ("height", "ellipsoid:1,nan"),
] + [("height", "@" + name) for name in list(SPEC_FILES)[1:]],
    ids=["unknown-field", "sphere-0", "stiefel-3", "missing-spec-file", "spec-missing-field",
         "ellipsoid-nan-arg"] + [name[:-5] for name in list(SPEC_FILES)[1:]])
def test_usage_error_exit_code(field, manifold, tmp_path, monkeypatch):
    for name, spec in SPEC_FILES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["critfind", "--field", field, "--manifold", manifold])
    assert exc.value.code == 2


@pytest.mark.parametrize("option, value, message", [
    ("--grad-tol", "-1", "strictly positive"),
    ("--cluster-tol", "0", "strictly positive"),
    ("--cluster-tol", "nan", "strictly positive"),
    ("--grad-tol", "nan", "strictly positive"),
    ("--grad-tol", "inf", "finite"),
    ("--cluster-tol", "inf", "finite"),
], ids=["negative-grad-tol", "zero-cluster-tol", "nan-cluster-tol", "nan-grad-tol",
        "inf-grad-tol", "inf-cluster-tol"])
def test_invalid_flow_parameters_exit_code(option, value, message, capsys):
    code, out, err = run_cli(capsys, "critfind", "--field", "nav", "--manifold", "sphere:1",
                             "--r", "2", "--seeds", "20", option, value)
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "LsnavError"
    assert message in payload["message"]


def test_flow_only_options_are_gone_from_critfind(capsys):
    # detection runs no flow, so the flow's step and horizon are not options
    for option in ("--step", "--max-time"):
        with pytest.raises(SystemExit) as exc:
            main(["critfind", "--field", "nav", "--manifold", "sphere:1", option, "0.01"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_pairs_ignores_lsnav_threads(capsys, monkeypatch):
    # lsnav runs single-threaded; the variable that once set a worker count is read by nobody
    argv = ("pairs", "--sphere", "2", "--seeds", "50")
    monkeypatch.delenv("LSNAV_THREADS", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("LSNAV_THREADS", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert unset[0] == code == 0
    assert out == unset[1]
    assert err == ""


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "9")
    assert code == 0
    assert "PASS" in out


def test_manifold_from_json_file(tmp_path, capsys):
    from lsnav.manifolds import StiefelV2, spec_to_json

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_to_json(StiefelV2(4))))
    code, out, _ = run_cli(
        capsys, "critfind", "--field", "ut-f", "--manifold", f"@{spec_file}",
        "--seeds", "40", "--seed", "0",
    )
    assert code == 0
    assert sorted(round(v, 6) for v in json.loads(out)["values"]) == [-1.0, 1.0]


def test_pairs_torus(capsys):
    code, out, _ = run_cli(capsys, "pairs", "--torus", "2,0.5",
                           "--seeds", "2000", "--seed", "0")
    assert code == 0
    assert json.loads(out)["alpha"] == "continuum"


# files read by the bad-input cases below, written into tmp_path
INPUT_FILES = {
    "object.json": '{"points": [[1, 0], [-1, 0]]}',
    "antipodal.json": "[[1, 0], [-1, 0]]",
    "malformed.json": "[[1, 0], [-1,",
    "comps-array.json": '[{"value": 0, "complexity": 1}]',
    "comps-no-value.json": '{"components": [{"complexity": 1}]}',
    "comps-text-value.json": '{"components": [{"value": "four", "complexity": 1}]}',
    "comps-zero.json": '{"components": [{"value": 0, "complexity": 0}]}',
    "comps-fractional.json": '{"components": [{"value": 0, "complexity": 1.5}, '
                             '{"value": 4, "complexity": 2.7}]}',
    "comps-nan-value.json": '{"components": [{"value": NaN, "complexity": 1}, '
                            '{"value": 4, "complexity": 1}]}',
    "comps-infinite-value.json": '{"components": [{"value": Infinity, "complexity": 1}]}',
    "comps-two-levels.json": '{"components": [{"value": 0, "complexity": 1}, '
                             '{"value": 4, "complexity": 2}]}',
    # the height of flat space has no critical point for Newton to converge to
    "euclidean.json": '{"kind": "euclidean", "dim": 3}',
    # a torus of revolution below its least value 0: no point has g = -1
    "torus-level-negative.json": '{"kind": "implicit_hypersurface", "level": -1.0, "field": '
                                 '{"name": "torus_of_revolution", '
                                 '"params": {"major_radius": 2.0, "minor_radius": 0.5}}}',
    # Python's json reads the token Infinity as a float
    "torus-infinite-radius.json": '{"kind": "implicit_hypersurface", "level": 1.0, "field": '
                                  '{"name": "torus_of_revolution", '
                                  '"params": {"major_radius": Infinity, "minor_radius": 1.0}}}',
}
TORUS_RADII = "torus requires major_radius > minor_radius > 0, major_radius finite"
NAV = ["critfind", "--field", "nav", "--manifold", "sphere:1", "--seeds", "20"]
PLAN = ["plan", "--planner", "product-spheres", "--manifold", "sphere:1", "--tuple"]
BOUND = ["bound", "--components"]
# a count above cli.MAX_COUNT that numpy, too, refuses before it allocates anything
HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv, code, expected", [
    (NAV + ["--seeds", "-1"], 2, "argument --seeds: expected an integer >= 1, got '-1'"),
    (NAV + ["--seeds", "x"], 2, "argument --seeds: expected an integer >= 1, got 'x'"),
    (["pairs", "--sphere", "2", "--seeds", "-5"], 2,
     "argument --seeds: expected an integer >= 1, got '-5'"),
    (["pairs", "--ellipsoid", "1,2,x"], 2,
     "argument --ellipsoid: could not convert string to float: 'x'"),
    (["pairs", "--ellipsoid", "1,2,nan"], 2,
     "argument --ellipsoid: ellipsoid requires >= 2 finite, strictly positive semiaxes"),
    (["pairs", "--ellipsoid", "1,-2,3"], 2,
     "argument --ellipsoid: ellipsoid requires >= 2 finite, strictly positive semiaxes"),
    (["pairs", "--ellipsoid", "1e200,1,1"], 2,
     "argument --ellipsoid: ellipsoid requires >= 2 finite, strictly positive semiaxes, "
     "each from 1e-154 to 1e154"),
    (["pairs", "--ellipsoid", "1e-200,1,1"], 2,
     "argument --ellipsoid: ellipsoid requires >= 2 finite, strictly positive semiaxes, "
     "each from 1e-154 to 1e154"),
    (["pairs", "--sphere", "0"], 2, "argument --sphere: sphere dimension must be >= 1"),
    (["pairs", "--torus", "2"], 2, "argument --torus: expected major,minor radii, got '2'"),
    (["pairs", "--torus", "2,0.5,1"], 2,
     "argument --torus: expected major,minor radii, got '2,0.5,1'"),
    (["pairs", "--torus", "0.5,2"], 2,
     "argument --torus: torus requires major_radius > minor_radius > 0"),
    (["pairs", "--torus", "1e160,1e155"], 2,
     "argument --torus: implicit hypersurface level must be finite, got inf"),
    (["pairs", "--torus", "inf,1"], 2, "argument --torus: " + TORUS_RADII),
    (["critfind", "--field", "height", "--manifold", "@torus-infinite-radius.json"], 2,
     "argument --manifold: " + TORUS_RADII),
    (["verify", "--only", "x"], 2, "argument --only: expected criterion numbers 1 to 10, got 'x'"),
    (["verify", "--only", "99"], 2,
     "argument --only: expected criterion numbers 1 to 10, got '99'"),
    (["verify", "--only", "3,0"], 2,
     "argument --only: expected criterion numbers 1 to 10, got '3,0'"),
    (NAV + ["--seed", "-1"], 2, "argument --seed: expected an integer >= 0, got '-1'"),
    (["pairs", "--sphere", "2", "--seed", "-1"], 2,
     "argument --seed: expected an integer >= 0, got '-1'"),
    (["verify", "--seed", "-1"], 2, "argument --seed: expected an integer >= 0, got '-1'"),
    (PLAN + ["object.json", "--format", "csv", "--samples", "-3"], 2,
     "argument --samples: expected an integer >= 1, got '-3'"),
    (BOUND + ["comps-two-levels.json", "--lambda-cut", "nan"], 2,
     "argument --lambda-cut: expected a number, not NaN, got 'nan'"),
    (["critfind", "--field", "nav", "--manifold", "torus:2,0.5"], 2, "unknown manifold"),
    (NAV + ["--r", "1"], 1, "InvalidPoint"),
    (NAV + ["--r", "0"], 1, "InvalidPoint"),
    (NAV + ["--r", "1000000000"], 1, "WrongSpec"),
    (PLAN + ["object.json"], 1, "LsnavError"),
    (PLAN + ["malformed.json"], 1, "LsnavError"),
    (PLAN + ["."], 1, "IsADirectoryError"),
    (BOUND + ["malformed.json"], 1, "LsnavError"),
    (BOUND + ["comps-array.json"], 1, "LsnavError"),
    (BOUND + ["comps-no-value.json"], 1, "LsnavError"),
    (BOUND + ["comps-text-value.json"], 1, "LsnavError"),
    (BOUND + ["comps-zero.json"], 1, "LsnavError"),
    (BOUND + ["comps-fractional.json"], 1, "LsnavError"),
    (BOUND + ["comps-nan-value.json"], 1, "LsnavError"),
    (BOUND + ["comps-infinite-value.json"], 1, "LsnavError"),
    (["critfind", "--field", "height", "--manifold", "@torus-level-negative.json"], 1,
     "WrongSpec"),
    (["critfind", "--field", "height", "--manifold", "@euclidean.json"], 1,
     "NoConvergedSeeds"),
    (["pairs", "--torus", "1e200,1"], 1, "WrongSpec"),
    (["pairs", "--seeds", "50"], 2,
     "one of the arguments --ellipsoid --sphere --torus is required"),
    (["pairs", "--ellipsoid", "1,2,3", "--sphere", "2"], 2,
     "argument --sphere: not allowed with argument --ellipsoid"),
    (["pairs", "--sphere", "2", "--torus", "2,0.5"], 2,
     "argument --torus: not allowed with argument --sphere"),
    (["bound", "--m", "1", "--r", "2"], 2,
     "one of the arguments --unit-tangent --product-spheres --components is required"),
    (["bound", "--unit-tangent", "--product-spheres", "--m", "1", "--k", "2", "--r", "2"], 2,
     "argument --product-spheres: not allowed with argument --unit-tangent"),
    (BOUND + ["comps-two-levels.json", "--unit-tangent", "--m", "1", "--r", "2"], 2,
     "argument --unit-tangent: not allowed with argument --components"),
    (["bound", "--unit-tangent", "--m", "1"], 1, "LsnavError"),
    (["bound", "--product-spheres", "--k", "2"], 1, "LsnavError"),
    (["critfind", "--field", "height", "--manifold", "sphere:2", "--seeds", HUGE], 2,
     f"argument --seeds: expected at most {cli.MAX_COUNT}, got '{HUGE}'"),
    (["pairs", "--sphere", "2", "--seeds", HUGE], 2,
     f"argument --seeds: expected at most {cli.MAX_COUNT}, got '{HUGE}'"),
    (PLAN + ["antipodal.json", "--format", "csv", "--samples", HUGE], 2,
     f"argument --samples: expected at most {cli.MAX_COUNT}, got '{HUGE}'"),
], ids=["critfind-seeds-negative", "critfind-seeds-non-numeric", "pairs-seeds-negative",
        "pairs-ellipsoid-non-numeric", "pairs-ellipsoid-nan", "pairs-ellipsoid-negative",
        "pairs-ellipsoid-square-overflows", "pairs-ellipsoid-square-underflows",
        "pairs-sphere-0", "pairs-torus-one-radius", "pairs-torus-three-radii",
        "pairs-torus-minor-above-major", "pairs-torus-level-overflows",
        "pairs-torus-infinite-radius", "critfind-torus-file-infinite-radius",
        "verify-only-non-numeric", "verify-only-99", "verify-only-0", "critfind-seed-negative",
        "pairs-seed-negative", "verify-seed-negative", "plan-samples-negative",
        "bound-lambda-cut-nan", "critfind-unknown-manifold", "nav-r-1", "nav-r-0",
        "nav-r-1000000000",
        "plan-tuple-object", "plan-tuple-malformed", "plan-tuple-directory",
        "bound-components-malformed", "bound-components-array", "bound-components-no-value",
        "bound-components-text-value", "bound-components-zero-complexity",
        "bound-components-fractional-complexity", "bound-components-nan-value",
        "bound-components-infinite-value", "critfind-torus-empty-level",
        "critfind-euclidean-height",
        "pairs-torus-out-of-float-range", "pairs-no-surface", "pairs-two-surfaces",
        "pairs-sphere-and-torus", "bound-no-mode", "bound-two-modes",
        "bound-components-and-unit-tangent", "bound-unit-tangent-no-r",
        "bound-product-spheres-no-r", "critfind-seeds-huge", "pairs-seeds-huge",
        "plan-samples-huge"])
def test_bad_input_ends_in_usage_or_json_error(argv, code, expected, tmp_path, monkeypatch,
                                               capsys):
    # exit 2 with argparse's usage message, or exit 1 with a JSON error on
    # stderr; never a traceback and never output on stdout
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("usage: lsnav")
        assert expected in captured.err
    else:
        payload = json.loads(captured.err)
        assert payload["error"] == expected
        if "--r" in argv:  # a value of --r; the cap is checked before anything is allocated
            assert payload["message"] == {
                "InvalidPoint": "navigation tuples need r >= 2 slots",
                "WrongSpec": "nav field on M^1000000000 has 2000000000 coordinates, above 256",
            }[expected]


def test_memory_error_ends_in_json_error(monkeypatch, capsys):
    class _ArrayMemoryError(MemoryError):
        """Like numpy's MemoryError subclass, named otherwise."""

    def exhausted(spec, n, rng):
        raise _ArrayMemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(cli, "random_points", exhausted)
    code = main(NAV)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err) == {"error": "MemoryError",
                                        "message": "Unable to allocate 7.45 GiB for an array"}


# Every numeric flag of critfind, pairs, plan and bound, with the argv it is
# appended to; each is fed every value of BAD_NUMBERS as --flag=VALUE
NUMERIC_FLAGS = [
    (NAV, "--r"), (NAV, "--seeds"), (NAV, "--grad-tol"), (NAV, "--cluster-tol"), (NAV, "--seed"),
    (["pairs", "--sphere", "2", "--seeds", "50"], "--seeds"),
    (["pairs", "--sphere", "2", "--seeds", "50"], "--seed"),
    (["pairs", "--seeds", "50"], "--sphere"),
    (["pairs", "--seeds", "50"], "--ellipsoid"),
    (["pairs", "--seeds", "50"], "--torus"),
    (PLAN + ["antipodal.json"], "--tol"),
    (PLAN + ["antipodal.json", "--format", "csv"], "--samples"),
    (PLAN + ["antipodal.json"], "--seed"),
    (["bound", "--unit-tangent", "--m", "1", "--r", "2"], "--m"),
    (["bound", "--unit-tangent", "--m", "1", "--r", "2"], "--r"),
    (["bound", "--unit-tangent", "--m", "1", "--r", "2"], "--seed"),
    (["bound", "--product-spheres", "--k", "2", "--r", "2"], "--k"),
    (BOUND + ["comps-two-levels.json"], "--lambda-cut"),
]
BAD_NUMBERS = ["-1", "0", "nan", "inf", "-inf", "abc", ""]
# the values among BAD_NUMBERS that a flag accepts
VALID_NUMBERS = {"--seed": {"0"}, "--lambda-cut": {"-1", "0", "inf", "-inf"}}


@pytest.mark.parametrize("argv, flag", NUMERIC_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in NUMERIC_FLAGS])
def test_numeric_flags_reject_bad_values(argv, flag, tmp_path, monkeypatch, capsys):
    (tmp_path / "antipodal.json").write_text("[[1, 0], [-1, 0]]")
    (tmp_path / "comps-two-levels.json").write_text(INPUT_FILES["comps-two-levels.json"])
    monkeypatch.chdir(tmp_path)
    for value in BAD_NUMBERS:
        try:
            code = main(argv + [f"{flag}={value}"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err, (flag, value)
        if value in VALID_NUMBERS.get(flag, ()):
            assert code == 0, (flag, value, captured.err)
            continue
        assert captured.out == "", (flag, value)
        if code == 2:
            assert captured.err.startswith("usage: lsnav"), (flag, value)
            assert f"argument {flag}:" in captured.err, (flag, value)
        else:
            assert code == 1, (flag, value, captured.err)
            assert json.loads(captured.err)["error"], (flag, value)
