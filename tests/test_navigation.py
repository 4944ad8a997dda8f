import re
from itertools import combinations, product

import numpy as np
import pytest

from lsnav import manifolds as mf
from lsnav import navigation, numerics
from lsnav.errors import InvalidPoint, NotCriticalTuple, WrongSpec
from lsnav.manifolds import (
    Ellipsoid,
    ImplicitHypersurface,
    ProductSpheres,
    Sphere,
    StiefelV2,
    random_points,
)
from lsnav.constraints import torus_of_revolution_field
from lsnav.numerics import LM_MAX_ITER, levenberg_marquardt
from lsnav.navigation import (
    PAIR_MIN_SEPARATION,
    PAIR_RESIDUAL_TOL,
    NavTuple,
    PairSearchConfig,
    SignPattern,
    _dedup_pairs,
    _gauss_newton_pairs,
    classify_sphere_critical,
    critical_tuple,
    find_parallel_pairs,
    nav_field,
    nav_gradient,
    nav_value,
    pair_system_jacobian,
    pair_system_residual,
    pattern_value,
    random_critical_tuple,
    slot_signs,
)

E1 = np.array([1.0, 0.0])


def _tuple_s1(*pts):
    return NavTuple(Sphere(1), np.array(pts))


def test_nav_value_examples():
    assert nav_value(_tuple_s1(E1, E1)) == 0.0
    assert nav_value(_tuple_s1(E1, -E1)) == 4.0
    assert nav_value(_tuple_s1(E1, -E1, E1)) == 8.0


def test_nav_value_zero_iff_diagonal():
    rng = np.random.default_rng(0)
    spec = Sphere(2)
    for _ in range(100):
        pts = random_points(spec, 3, rng)
        t = NavTuple(spec, pts)
        v = nav_value(t)
        assert v >= 0.0
        diag = np.max(np.linalg.norm(pts - pts[0], axis=1))
        if v <= 1e-12:
            assert diag <= 1e-5
        if diag <= 1e-12:
            assert v <= 1e-12


def test_nav_gradient_diagonal_zero():
    t = _tuple_s1(E1, E1, E1)
    grads = nav_gradient(t)
    assert grads.shape == (3, 2)
    assert (np.linalg.norm(grads, axis=1) == 0.0).all()


def test_nav_gradient_antipodal_projects_to_zero():
    # Euclidean gradient (4 e1, -4 e1) is normal at both slots
    t = _tuple_s1(E1, -E1)
    grads = nav_gradient(t)
    assert (np.linalg.norm(grads, axis=1) <= 1e-14).all()
    # consistent with structural criticality
    classify_sphere_critical(t)


def test_nav_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    field = nav_field(Sphere(2), 3)
    pts = random_points(field.spec, 50, rng)
    analytic = field.euclidean_gradient_at(pts)
    fd = field.fd_gradient(pts)
    rel = np.linalg.norm(analytic - fd, axis=1) / np.maximum(
        np.linalg.norm(analytic, axis=1), 1.0
    )
    assert np.max(rel) <= 1e-5


def test_classify_examples():
    t = _tuple_s1(E1, -E1, E1)
    pat = classify_sphere_critical(t)
    assert pat.signs == ((1, -1, 1),)
    assert pattern_value(pat) == 8.0

    diag = _tuple_s1(E1, E1, E1)
    pat0 = classify_sphere_critical(diag)
    assert pat0.signs == ((1, 1, 1),)
    assert pattern_value(pat0) == 0.0


def _slot_signs_loop(ref, rows, tol):
    out = []
    for row in rows:
        if np.linalg.norm(row - ref) <= tol:
            out.append(1)
        elif np.linalg.norm(row + ref) <= tol:
            out.append(-1)
        else:
            out.append(0)
    return out


def test_slot_signs_matches_row_loop():
    rng = np.random.default_rng(5)
    tol = 1e-3
    for d in (2, 4, 7):
        ref = rng.standard_normal(d)
        ref /= np.linalg.norm(ref)
        unit = rng.standard_normal((6, d))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        rows = np.concatenate([
            rng.standard_normal((20, d)),
            [ref, -ref],
            ref + 0.5 * tol * unit[:3], -ref + 0.5 * tol * unit[3:],
            ref + 2.0 * tol * unit[:3], -ref + 2.0 * tol * unit[3:],
        ])
        got = slot_signs(ref, rows, tol)
        assert got.tolist() == _slot_signs_loop(ref, rows, tol)
        assert got.tolist()[20:] == [1, -1] + [1] * 3 + [-1] * 3 + [0] * 6
        assert int(slot_signs(ref, -ref, tol)) == -1  # a single row
    # |ref| <= tol: a row within tol of both +ref and -ref counts as +1
    ref = np.full(3, 0.1 * tol)
    rows = np.array([np.zeros(3), -ref, 0.5 * ref, -ref - 0.8 * tol * ref / np.linalg.norm(ref)])
    assert slot_signs(ref, rows, tol).tolist() == _slot_signs_loop(ref, rows, tol) == [1, 1, 1, -1]


def _classify_row(spec, r, row):
    """The per-tuple label: None where the tuple is invalid or not critical."""
    try:
        t = NavTuple.from_flat(spec, r, row)
        return classify_sphere_critical(t, tol=navigation.CLASSIFY_TOL).label
    except (NotCriticalTuple, InvalidPoint):
        return None


@pytest.mark.parametrize("spec, r", [(Sphere(1), 3), (Sphere(3), 3), (ProductSpheres((1, 3)), 2)])
def test_nav_batch_classifier_matches_row_reference(spec, r):
    rng = np.random.default_rng(r * spec.ambient_dim)
    field = nav_field(spec, r)
    k = len(mf.sphere_blocks(spec))
    patterns = [SignPattern(tuple((1,) + bits[f * (r - 1):(f + 1) * (r - 1)] for f in range(k)))
                for bits in product((1, -1), repeat=k * (r - 1))]
    crit = np.array([critical_tuple(spec, p, base).points.reshape(-1)
                     for p in patterns for base in random_points(spec, 3, rng)])
    near = mf.project_points(field.spec, crit + 1e-6 * rng.standard_normal(crit.shape))
    off = crit + 1e-3 * rng.standard_normal(crit.shape)  # off the manifold
    apart = mf.project_points(field.spec, off)  # on it, 1e-3 from every pattern
    bad = np.stack([1.01 * crit[0], np.full(crit.shape[1], np.nan),
                    np.full(crit.shape[1], np.inf)])
    batch = np.concatenate([crit, near, off, apart, bad, random_points(field.spec, 5, rng)])
    batch = batch[rng.permutation(len(batch))]
    want = [_classify_row(spec, r, row) for row in batch]
    got = field.classifier(batch)
    assert len(got) == len(batch)
    assert list(got) == want
    assert {lab for lab in want if lab is not None} == {p.label for p in patterns}
    assert want.count(None) >= 2 * len(crit) + 3
    for row in batch[:4]:
        assert list(field.classifier(row[None, :])) == [_classify_row(spec, r, row)]


def test_classify_rejects_with_witness():
    spec = Sphere(2)
    t = NavTuple(spec, np.array([[1.0, 0, 0], [0.0, 1, 0]]))
    with pytest.raises(NotCriticalTuple) as err:
        classify_sphere_critical(t)
    assert err.value.witness > 0.1


def test_classify_gradient_consistency():
    # accepted tuples have projected gradient <= 10 tol, rejected ones do not
    rng = np.random.default_rng(2)
    spec = ProductSpheres((1, 2))
    tol = 1e-9
    for _ in range(500):
        t = random_critical_tuple(spec, 3, rng)
        classify_sphere_critical(t, tol=tol)
        grad = nav_gradient(t).reshape(-1)
        assert np.linalg.norm(grad) <= 10 * tol
    for _ in range(500):
        t = NavTuple(spec, random_points(spec, 3, rng))
        grads = nav_gradient(t)
        # each slot's row is tangent to M at that slot
        assert (mf.tangency_residual(spec, t.points, grads) <= mf.TANGENT_TOL).all()
        grad = grads.reshape(-1)
        if np.linalg.norm(grad) > 10 * tol:
            with pytest.raises(NotCriticalTuple):
                classify_sphere_critical(t, tol=tol)


def test_pattern_value_examples():
    assert pattern_value(SignPattern(((1, 1, 1, 1),))) == 0.0
    assert pattern_value(SignPattern(((1, -1),))) == 4.0
    # two factors, r=3, flips (2, 1) -> 12
    pat = SignPattern(((1, -1, 1), (1, 1, -1)))
    assert pat.flips == (2, 1)
    assert pattern_value(pat) == 12.0
    # value lies in {0, 4, ..., 4 k (r-1)}
    assert pattern_value(pat) <= 4 * 2 * (3 - 1)


def test_pattern_value_matches_nav_value():
    rng = np.random.default_rng(3)
    for spec in [Sphere(1), Sphere(3), ProductSpheres((1, 3))]:
        for _ in range(100):
            t = random_critical_tuple(spec, 4, rng)
            pat = classify_sphere_critical(t)
            assert abs(pattern_value(pat) - nav_value(t)) <= 1e-9


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern(((-1, 1),))
    with pytest.raises(ValueError):
        SignPattern(((1, 0),))


def test_critical_tuple_round_trip():
    rng = np.random.default_rng(4)
    spec = ProductSpheres((1, 3))
    base = random_points(spec, 1, rng)[0]
    pat = SignPattern(((1, -1, -1), (1, 1, -1)))
    t = critical_tuple(spec, pat, base)
    assert classify_sphere_critical(t).signs == pat.signs


def test_parallel_pairs_ellipsoid():
    census = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)),
                                 PairSearchConfig(n_seeds=4000, rng_seed=0))
    assert census.alpha == 3
    expected = [4.0, 16.0, 36.0]  # squared axis diameters 2a, 2b, 2c
    got = [p.value for p in census.pairs]
    assert np.allclose(sorted(got), expected, atol=1e-8)
    for p in census.pairs:
        assert p.alignment_residual <= 1e-10
        assert abs(p.value - float(np.sum((p.x - p.y) ** 2))) == 0.0
        # each pair is an antipodal principal-axis pair
        assert np.linalg.norm(p.x + p.y) <= 1e-8
        assert np.count_nonzero(np.abs(p.x) > 1e-6) == 1


def test_parallel_pairs_sphere_continuum():
    census = find_parallel_pairs(Sphere(2), PairSearchConfig(n_seeds=3000, rng_seed=0))
    assert census.is_continuum
    # antipodal pairs satisfy the gradient criterion identically: the normal
    # at x is x itself and the chord is 2x
    rng = np.random.default_rng(5)
    x = random_points(Sphere(2), 20, rng)
    chord = x - (-x)
    g = 2.0 * x  # gradient of |x|^2
    cross = np.cross(g, chord)
    assert np.max(np.abs(cross)) <= 1e-12


def test_parallel_pairs_torus_continuum():
    fld = torus_of_revolution_field(2.0, 0.5)
    census = find_parallel_pairs(ImplicitHypersurface(fld, 0.25),
                                 PairSearchConfig(n_seeds=3000, rng_seed=0))
    assert census.is_continuum


def test_parallel_pairs_wrong_spec():
    with pytest.raises(WrongSpec):
        find_parallel_pairs(StiefelV2(4))


def test_parallel_pairs_deterministic():
    cfg = PairSearchConfig(n_seeds=2000, rng_seed=11)
    a = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)), cfg)
    b = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)), cfg)
    assert a.to_json() == b.to_json()


def test_pair_census_json():
    census = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)),
                                 PairSearchConfig(n_seeds=2000, rng_seed=0))
    payload = census.to_json()
    assert payload["alpha"] == 3
    assert len(payload["pairs"]) == 3


@pytest.mark.parametrize("threads", ["4", "abc"])
def test_parallel_pairs_one_solve_whatever_lsnav_threads(monkeypatch, threads):
    # the census makes one LM call over every seed row, and the variable that
    # once chose a worker count is read by nobody
    cfg = PairSearchConfig(n_seeds=2000, rng_seed=3)
    monkeypatch.delenv("LSNAV_THREADS", raising=False)
    unset = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)), cfg).to_json()
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return levenberg_marquardt(*args, **kwargs)

    monkeypatch.setattr(numerics, "levenberg_marquardt", counted)
    monkeypatch.setenv("LSNAV_THREADS", threads)
    got = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)), cfg).to_json()
    assert len(calls) == 1
    assert calls[0] > 1900  # every admissible seed pair of the 2000
    assert got == unset


PAIR_SURFACES = {
    "torus": ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25),
    "ellipsoid-4d": Ellipsoid((1.0, 1.5, 2.0, 3.0)),
}


def _pair_starts(surf, count, seed):
    pts = random_points(surf, 2 * count, np.random.default_rng(seed))
    z = np.concatenate([pts[:count], pts[count:]], axis=1)
    n = surf.ambient_dim
    return z[np.linalg.norm(z[:, :n] - z[:, n:], axis=1) > 1e-2]


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_pair_system_jacobian_matches_central_differences(name):
    # criterion 6 checks only the 3-D ellipsoid, whose Hessian is diagonal;
    # the torus Hessian is not, and the 4-D ellipsoid has six minors per side
    surf = PAIR_SURFACES[name]
    fld, level = surf.field, surf.level
    z = _pair_starts(surf, 300, seed=4)
    jac = pair_system_jacobian(fld, level, z)
    n = surf.ambient_dim
    assert jac.shape == (len(z), 2 + n * (n - 1), 2 * n)
    fd = np.empty_like(jac)
    h = 1e-6 * (1.0 + np.linalg.norm(z, axis=-1))
    for k in range(z.shape[1]):
        step = np.zeros_like(z)
        step[:, k] = h
        fd[:, :, k] = (pair_system_residual(fld, level, z + step)
                       - pair_system_residual(fld, level, z - step)) / (2.0 * h)[:, None]
    num = np.linalg.norm(jac - fd, axis=(1, 2))
    den = np.maximum(np.linalg.norm(jac, axis=(1, 2)), 1.0)
    assert np.max(num / den) <= 1e-5


def _reference_pair_residual(fld, level, z):
    """The pair residual built one minor at a time, in combinations order."""
    n = z.shape[-1] // 2
    x, y = z[..., :n], z[..., n:]
    chord = x - y
    d = chord / np.maximum(np.linalg.norm(chord, axis=-1, keepdims=True), 1e-12)
    parts = [fld.value(x) - level, fld.value(y) - level]
    for u in (fld.grad(x), fld.grad(y)):
        for a, b in combinations(range(n), 2):
            parts.append(u[..., a] * d[..., b] - u[..., b] * d[..., a])
    return np.stack(parts, axis=-1)


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_pair_system_residual_matches_reference_loop(name):
    surf = PAIR_SURFACES[name]
    z = _pair_starts(surf, 200, seed=5)
    got = pair_system_residual(surf.field, surf.level, z)
    assert np.array_equal(got, _reference_pair_residual(surf.field, surf.level, z))
    assert got.flags.c_contiguous
    # a single point gives the same row
    assert np.array_equal(pair_system_residual(surf.field, surf.level, z[0]), got[0])


# the census' surfaces: S^2 is searched as the unit ellipsoid
CENSUS_SURFACES = {
    "ellipsoid-3d": Ellipsoid((1.0, 2.0, 3.0)),
    "ellipsoid-4d": Ellipsoid((1.0, 1.5, 2.0, 3.0)),
    "sphere-2": Ellipsoid((1.0, 1.0, 1.0)),
}


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("name", sorted(CENSUS_SURFACES))
def test_diagonal_retirement_keeps_converged_rows(name, seed):
    # retiring rows that reach the diagonal changes no row that converges:
    # the plain solver on the unmodified Jacobian converges the same rows to
    # the same bits
    surf = CENSUS_SURFACES[name]
    fld, level = surf.field, surf.level
    z0 = _pair_starts(surf, 1000, seed)
    z, rn = _gauss_newton_pairs(fld, level, z0)
    want_z, want_rn = levenberg_marquardt(
        lambda w: pair_system_residual(fld, level, w),
        lambda w: pair_system_jacobian(fld, level, w),
        z0, tol=PAIR_RESIDUAL_TOL)
    good = rn <= PAIR_RESIDUAL_TOL
    assert np.array_equal(good, want_rn <= PAIR_RESIDUAL_TOL)
    assert np.array_equal(z[good], want_z[good])
    assert np.array_equal(rn[good], want_rn[good])
    # a retired row stops where it was evaluated too close to the diagonal
    n = surf.ambient_dim
    retired = np.isinf(rn)
    assert np.all(np.linalg.norm(z[retired, :n] - z[retired, n:], axis=1) < PAIR_MIN_SEPARATION)


def test_diagonal_sliders_stop_before_the_iteration_cap(monkeypatch):
    # on the ellipsoid about one seed pair in eight slides onto the diagonal;
    # without retirement those rows keep the solver running to LM_MAX_ITER
    calls = []
    jacobian = navigation.pair_system_jacobian

    def counted(fld, level, z):
        calls.append(len(z))
        return jacobian(fld, level, z)

    monkeypatch.setattr(navigation, "pair_system_jacobian", counted)
    surf = CENSUS_SURFACES["ellipsoid-3d"]
    z0 = _pair_starts(surf, 1000, seed=0)
    _, rn = _gauss_newton_pairs(surf.field, surf.level, z0)
    assert np.isinf(rn).sum() >= 50
    assert len(calls) < LM_MAX_ITER


@pytest.mark.parametrize("kwargs, message", [
    ({"n_seeds": 0}, "n_seeds must be an integer >= 1, got 0"),
    ({"n_seeds": -3}, "n_seeds must be an integer >= 1, got -3"),
    ({"n_seeds": 2.5}, "n_seeds must be an integer >= 1, got 2.5"),
    ({"n_seeds": float("inf")}, "n_seeds must be an integer >= 1, got inf"),
    ({"n_seeds": "10"}, "n_seeds must be an integer >= 1, got '10'"),
    ({"n_seeds": True}, "n_seeds must be an integer >= 1, got True"),
    ({"rng_seed": -1}, "rng_seed must be an integer >= 0, got -1"),
    ({"rng_seed": 1.5}, "rng_seed must be an integer >= 0, got 1.5"),
    ({"rng_seed": None}, "rng_seed must be an integer >= 0, got None"),
], ids=["seeds-zero", "seeds-negative", "seeds-fractional", "seeds-inf", "seeds-text",
        "seeds-bool", "rng-negative", "rng-fractional", "rng-none"])
def test_pair_search_config_rejects_invalid_values(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PairSearchConfig(**kwargs)


def test_pair_search_config_takes_integral_values_as_ints():
    # the integer rule of the manifold specs: numpy integers and integral floats
    cfg = PairSearchConfig(n_seeds=np.int64(1), rng_seed=np.uint32(2**32 - 1))
    assert (cfg.n_seeds, cfg.rng_seed) == (1, 2**32 - 1)
    cfg = PairSearchConfig(n_seeds=10.0, rng_seed=0)
    assert (type(cfg.n_seeds), type(cfg.rng_seed)) == (int, int)
    assert (cfg.n_seeds, cfg.rng_seed) == (10, 0)


def _reference_dedup(x, y, tol, cap):
    """Greedy pair dedup one candidate at a time, as a list of kept rows."""
    n = x.shape[1]
    grid = 0.1 * tol
    xr = np.round(x / grid).astype(int)
    yr = np.round(y / grid).astype(int)
    swap = np.array([tuple(a) > tuple(b) for a, b in zip(xr, yr)])
    x, y = x.copy(), y.copy()
    x[swap], y[swap] = y[swap].copy(), x[swap].copy()
    cand = np.concatenate([x, y], axis=1)
    cand = cand[np.lexsort(cand.T[::-1])]
    kept, kept_swapped = [], []
    for row in cand:
        if kept:
            dist = np.linalg.norm(np.array(kept) - row, axis=-1)
            dist_sw = np.linalg.norm(np.array(kept_swapped) - row, axis=-1)
            if (np.minimum(dist, dist_sw) <= tol).any():
                continue
        kept.append(row)
        kept_swapped.append(np.concatenate([row[n:], row[:n]]))
        if len(kept) > cap:
            break
    return np.array(kept)


@pytest.mark.parametrize("spread, cap", [(0.0, 200), (3e-3, 200), (1.0, 200), (1.0, 40)])
def test_dedup_pairs_matches_reference_loop(spread, cap):
    # clusters of noisy copies of a few pairs, stored in either order, plus a
    # scattered family when spread is large (more distinct pairs than the cap)
    rng = np.random.default_rng(6)
    centres = rng.normal(size=(5, 6))
    rows = centres[rng.integers(0, 5, size=700)] + 2e-4 * rng.normal(size=(700, 6))
    rows = np.concatenate([rows, spread * rng.normal(size=(300, 6))])
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = np.concatenate([rows[flip, 3:], rows[flip, :3]], axis=1)
    x, y = rows[:, :3], rows[:, 3:]
    got = _dedup_pairs(x, y, 1e-3, cap)
    assert np.array_equal(got, _reference_dedup(x, y, 1e-3, cap))
