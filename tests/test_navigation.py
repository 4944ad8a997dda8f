import re
from itertools import islice, product

import numpy as np
import pytest

from lsnav import manifolds as mf
from lsnav import acceptance, flow, navigation, numerics
from lsnav.errors import InvalidPoint, NoPairsFound, NotCriticalTuple, WrongSpec
from lsnav.manifolds import (
    Ellipsoid,
    ImplicitHypersurface,
    ProductSpheres,
    Sphere,
    StiefelV2,
    random_points,
)
from lsnav.constraints import ConstraintField, ellipsoid_field, torus_of_revolution_field
from lsnav.numerics import LM_BATCH_AXIS_ROWS, LM_MAX_ITER, levenberg_marquardt
from lsnav.navigation import (
    PAIR_MIN_SEPARATION,
    PAIR_RESIDUAL_TOL,
    NavTuple,
    PairSearchConfig,
    SignPattern,
    _dedup_pairs,
    _gauss_newton_pairs,
    _normal_line_pairs,
    _pair_nullity,
    _support_pairs,
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
    """The per-tuple rule, written out apart from the library's: None where the tuple
    is off M (NavTuple's check) or some slot is off +-(slot 1), else its label."""
    try:
        t = NavTuple.from_flat(spec, r, row)
    except InvalidPoint:
        return None
    signs = [slot_signs(t.points[0, s:e], t.points[:, s:e], navigation.CLASSIFY_TOL)
             for s, e in mf.sphere_blocks(spec)]
    return SignPattern(tuple(signs)).label if all(f.all() for f in signs) else None


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
    # a call with no row on M, or no row at all, labels nothing
    assert list(field.classifier(np.concatenate([off, bad]))) == [None] * (len(off) + 3)
    assert field.classifier(batch[:0]).shape == (0,)


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
    with pytest.raises(ValueError, match="as many in each"):
        SignPattern(((1, -1), (1, 1, -1)))


def test_critical_tuple_round_trip():
    rng = np.random.default_rng(4)
    spec = ProductSpheres((1, 3))
    base = random_points(spec, 1, rng)[0]
    pat = SignPattern(((1, -1, -1), (1, 1, -1)))
    t = critical_tuple(spec, pat, base)
    assert classify_sphere_critical(t).signs == pat.signs
    for wrong_length in (base[:-1], np.append(base, 0.0)):
        with pytest.raises(InvalidPoint):
            critical_tuple(spec, pat, wrong_length)


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


@pytest.mark.parametrize("spec, n_seeds", [
    (Sphere(2), 25), (Sphere(2), 30), (Sphere(2), 50),
    (ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25), 25),
    (Ellipsoid((1.0, 1.0, 2.0)), 50),
], ids=["sphere-25", "sphere-30", "sphere-50", "torus-25", "spheroid-50"])
def test_parallel_pairs_small_budget_continuum(spec, n_seeds):
    # a few dozen distinct pairs on a family are still a family: the verdict
    # comes from the Hessian kernel of the first kept pair, not from a count
    census = find_parallel_pairs(spec, PairSearchConfig(n_seeds=n_seeds, rng_seed=0))
    assert census.is_continuum
    assert census.pairs == [] and census.nn_distance is None


def _lagrangian_spectrum(surf, x, y):
    """Eigenvalues, on the tangent space of M x M, of the Hessian of the
    Lagrangian |x - y|^2 - mu_x g(x) - mu_y g(y) at a critical pair: the
    second-order test of constrained optimisation, an independent route to
    the Riemannian Hessian's index and nullity."""
    n = len(x)
    eye = np.eye(n)
    hess = np.block([[2.0 * eye, -2.0 * eye], [-2.0 * eye, 2.0 * eye]])
    normals = np.zeros((2, 2 * n))
    for k, (p, q) in enumerate(((x, y), (y, x))):
        g = surf.field.grad(p)
        mu = g @ (2.0 * (p - q)) / (g @ g)
        hess[k * n:(k + 1) * n, k * n:(k + 1) * n] -= mu * surf.field.hess(p)
        normals[k, k * n:(k + 1) * n] = g
    tangent = np.linalg.svd(normals)[2][2:].T
    return np.linalg.eigvalsh(tangent.T @ hess @ tangent)


@pytest.mark.parametrize("semiaxes, indices", [
    ((1.0, 2.0, 3.0), [2, 3, 4]),
    ((1.0, 1.5, 2.0, 3.0), [3, 4, 5, 6]),
    ((1.0, 1.001, 1.002), [2, 3, 4]),
], ids=["ellipsoid-1,2,3", "ellipsoid-1,1.5,2,3", "near-round-ellipsoid"])
def test_pair_hessian_ellipsoid_axis_pairs(semiaxes, indices):
    # the antipodal pair on each principal axis is nondegenerate, even on a
    # nearly round ellipsoid; its Morse index grows with the axis length
    surf = Ellipsoid(semiaxes)
    got = []
    for i, a in enumerate(semiaxes):
        x = np.zeros(len(semiaxes))
        x[i] = a
        lam = _lagrangian_spectrum(surf, x, -x)
        assert np.abs(lam).min() > 1e-3
        assert _pair_nullity(surf, x, -x) == 0
        got.append(int(np.sum(lam < 0)))
    assert got == indices


def _reference_pair_nullity(surf, x, y):
    """The pair nullity as it was written before ``flow.inertia``: the block Hessian's
    eigenvalues (one ``eigvalsh``) within MERGE_KERNEL_TOL (1 + max |lambda|), less a
    literal 2 for the two normal directions."""
    eye = np.eye(len(x))
    off = -2.0 * surf.tangent_projector(x) @ surf.tangent_projector(y)
    hess = np.block([[surf.riemannian_hessian(x, 2.0 * (x - y), 2.0 * eye), off],
                     [off.T, surf.riemannian_hessian(y, 2.0 * (y - x), 2.0 * eye)]])
    lam = np.abs(np.linalg.eigvalsh(hess))
    return int(np.sum(lam <= flow.MERGE_KERNEL_TOL * (1.0 + lam.max()))) - 2


@pytest.mark.parametrize("semiaxes, nullities", [
    ((1.0, 2.0, 3.0), [0, 0, 0]),
    ((1.0, 1.0, 3.0), [1, 1, 0]),
    ((1.0, 1.0, 1.0), [2, 2, 2]),
    ((0.03, 1.0, 30.0), [1, 1, 0]),
    ((1e-3, 1.0, 1e3), [2, 2, 2]),
], ids=["1,2,3", "1,1,3", "sphere", "0.03,1,30", "1e-3,1,1e3"])
def test_pair_nullity_keeps_the_old_rule(semiaxes, nullities):
    # at the axis pairs (a_i e_i, -a_i e_i) and at the census's converged pairs,
    # the nullity through flow.inertia with 2 (n - dim M) normal directions is the
    # old count.  Every axis pair of a thin ellipsoid is isolated, but those of
    # (0.03, 1, 30) and (1e-3, 1, 1e3) read nullities above 0: their small
    # eigenvalues fall within the threshold (ROADMAP item 18)
    surf = Ellipsoid(semiaxes)
    got = []
    for x in np.diag(semiaxes):
        got.append(_pair_nullity(surf, x, -x))
        assert got[-1] == _reference_pair_nullity(surf, x, -x)
    assert got == nullities
    support = surf.support_field()
    z = _support_pairs(surf, support, random_points(support[0].spec, 300,
                                                    np.random.default_rng(0)))
    for x, y in zip(z[:, :3], z[:, 3:]):
        assert _pair_nullity(surf, x, y) == _reference_pair_nullity(surf, x, y)


def test_pair_nullity_keeps_the_old_rule_on_the_torus():
    # the double normals of the torus of revolution lie on circles of pairs
    surf = ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25)
    z = navigation._seed_pair_solutions(surf, 100, np.random.default_rng(0))
    assert len(z) >= 50
    got = [_pair_nullity(surf, x, y) for x, y in zip(z[:, :3], z[:, 3:])]
    assert got == [_reference_pair_nullity(surf, x, y) for x, y in zip(z[:, :3], z[:, 3:])]
    assert min(got) >= 1


@pytest.mark.xfail(strict=True, raises=(AssertionError, NoPairsFound),
                   reason="ROADMAP item 18: the census judges in absolute units")
@pytest.mark.parametrize("semiaxes, n_seeds", [
    ((0.03, 1.0, 30.0), 1000),
    ((1e-3, 1.0, 1e3), 1000),
    ((1e-5, 1.0, 1e5), 1000),
    ((1e-4, 2e-4, 3e-4), 1000),
    ((3e-4, 6e-4, 9e-4), 1000),
], ids=["0.03,1,30-reads-a-continuum", "1e-3,1,1e3-reads-a-continuum",
        "1e-5,1,1e5-reads-a-continuum", "1e-4*(1,2,3)-finds-no-pair",
        "3e-4*(1,2,3)-finds-two-pairs"])
def test_census_of_a_thin_or_small_ellipsoid_counts_its_three_axes(semiaxes, n_seeds):
    # each ellipsoid with distinct semiaxes has exactly 3 double normals, its axes
    census = find_parallel_pairs(Ellipsoid(semiaxes), PairSearchConfig(n_seeds=n_seeds))
    assert census.alpha == 3


def test_pair_hessian_sphere_antipodal_nullity():
    # the antipodal pairs of S^2 form a 2-dimensional family, along which
    # the Hessian vanishes; the other two directions descend
    surf = Ellipsoid((1.0, 1.0, 1.0))
    x = np.array([0.6, 0.0, 0.8])
    lam = _lagrangian_spectrum(surf, x, -x)
    assert int(np.sum(np.abs(lam) <= 1e-9)) == 2
    assert int(np.sum(lam < -1e-9)) == 2
    assert _pair_nullity(surf, x, -x) == 2


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
    # the torus Hessian is not, and the 4-D ellipsoid has four coordinates per end
    surf = PAIR_SURFACES[name]
    fld, level = surf.field, surf.level
    z = _pair_starts(surf, 300, seed=4)
    jac = pair_system_jacobian(fld, level, z)
    n = surf.ambient_dim
    assert jac.shape == (len(z), 2 + 2 * n, 2 * n)
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


def _reference_pair_jacobian(fld, z):
    """The formula of pair_system_jacobian's docstring, one row and one end at a time."""
    n = z.shape[1] // 2
    out = np.zeros((len(z), 2 + 2 * n, 2 * n))
    for k, row in enumerate(z):
        rho = np.linalg.norm(row[:n] - row[n:])
        d = (row[:n] - row[n:]) / rho
        for s, (p, sign) in enumerate(((row[:n], 1.0), (row[n:], -1.0))):
            g, h = fld.grad(p), fld.hess(p)
            u = g / np.linalg.norm(g)
            ud = u @ d
            c = sign * (ud * np.eye(n) + np.outer(d, u - 2.0 * ud * d)) / rho
            own = (h - np.outer(u - ud * d, h @ u) - np.outer(d, h @ d)) / np.linalg.norm(g) - c
            out[k, s, s * n:(s + 1) * n] = g
            out[k, 2 + s * n:2 + (s + 1) * n, s * n:(s + 1) * n] = own
            out[k, 2 + s * n:2 + (s + 1) * n, (1 - s) * n:(2 - s) * n] = c
    return out


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_pair_system_jacobian_matches_its_formula_row_by_row(name):
    # the broadcast build agrees with the per-row loop to rounding
    surf = PAIR_SURFACES[name]
    z = _pair_starts(surf, 200, seed=7)
    jac = pair_system_jacobian(surf.field, surf.level, z)
    want = _reference_pair_jacobian(surf.field, z)
    num = np.linalg.norm(jac - want, axis=(1, 2))
    assert np.max(num / np.maximum(np.linalg.norm(want, axis=(1, 2)), 1.0)) <= 1e-14


def _reference_alignment(fld, x, y):
    """Per end, the norm of the gradient's part across the unit chord, relative
    to the gradient's norm: (N, 2)."""
    d = (x - y) / np.linalg.norm(x - y, axis=-1, keepdims=True)
    out = []
    for p in (x, y):
        g = fld.grad(p)
        perp = g - np.sum(g * d, axis=-1, keepdims=True) * d
        out.append(np.linalg.norm(perp, axis=-1) / np.linalg.norm(g, axis=-1))
    return np.stack(out, axis=-1)


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_pair_residual_blocks_measure_the_alignment(name):
    # the value rows, then one block per end whose norm is the sine between
    # that end's normal and the chord
    surf = PAIR_SURFACES[name]
    fld, level = surf.field, surf.level
    z = _pair_starts(surf, 200, seed=5)
    n = surf.ambient_dim
    x, y = z[:, :n], z[:, n:]
    got = pair_system_residual(fld, level, z)
    assert got.shape == (len(z), 2 + 2 * n)
    assert np.array_equal(got[:, 0], fld.value(x) - level)
    assert np.array_equal(got[:, 1], fld.value(y) - level)
    sines = np.linalg.norm(got[:, 2:].reshape(-1, 2, n), axis=-1)
    assert np.allclose(sines, _reference_alignment(fld, x, y), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("name", sorted(PAIR_SURFACES))
def test_pair_system_one_point_matches_its_batch_row(name):
    # a row's bits do not depend on the batch: one point, a batch and a batch of batches;
    # the residual and the Jacobian are C-ordered
    surf = PAIR_SURFACES[name]
    z = _pair_starts(surf, 200, seed=6)
    m = len(z) // 2
    for system in (pair_system_residual, pair_system_jacobian):
        got = system(surf.field, surf.level, z)
        assert got.flags.c_contiguous
        assert np.array_equal(system(surf.field, surf.level, z[0]), got[0])
        nested = system(surf.field, surf.level, z[:2 * m].reshape(2, m, -1))
        assert np.array_equal(nested.reshape((2 * m,) + got.shape[1:]), got[:2 * m])


# the pair system's ellipsoids; S^2 is the unit ellipsoid (their censuses take the support route)
CENSUS_SURFACES = {
    "ellipsoid-3d": Ellipsoid((1.0, 2.0, 3.0)),
    "ellipsoid-4d": Ellipsoid((1.0, 1.5, 2.0, 3.0)),
    "sphere-2": Ellipsoid((1.0, 1.0, 1.0)),
}


# the last case is large enough for LM to solve along the batch axis
@pytest.mark.parametrize("seed, count", [(0, 1000), (6, 1000), (7, 2 * LM_BATCH_AXIS_ROWS)],
                         ids=["0", "6", "7-batch-axis"])
@pytest.mark.parametrize("name", sorted(CENSUS_SURFACES))
def test_diagonal_retirement_keeps_converged_rows(name, seed, count):
    # retiring rows that reach the diagonal changes no row that converges:
    # the plain solver on the unmodified Jacobian converges the same rows to
    # the same bits
    surf = CENSUS_SURFACES[name]
    fld, level = surf.field, surf.level
    z0 = _pair_starts(surf, count, seed)
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
    # seed pairs just outside the seed filter, 1.1 times 10 * PAIR_MIN_SEPARATION
    # apart along the surface: a few of them close onto the diagonal, and
    # without retirement those rows keep the solver running to LM_MAX_ITER
    calls = []
    jacobian = navigation.pair_system_jacobian

    def counted(fld, level, z):
        calls.append(len(z))
        return jacobian(fld, level, z)

    monkeypatch.setattr(navigation, "pair_system_jacobian", counted)
    surf = CENSUS_SURFACES["ellipsoid-3d"]
    rng = np.random.default_rng(0)
    x = random_points(surf, 1000, rng)
    v = mf.project_tangent(surf, x, rng.standard_normal(x.shape))
    step = 11 * PAIR_MIN_SEPARATION * v / np.linalg.norm(v, axis=1, keepdims=True)
    z0 = np.concatenate([x, mf.project_points(surf, x + step)], axis=1)
    assert np.all(np.linalg.norm(z0[:, :3] - z0[:, 3:], axis=1) > 10 * PAIR_MIN_SEPARATION)
    _, rn = _gauss_newton_pairs(surf.field, surf.level, z0)
    assert np.isinf(rn).sum() >= 5
    assert len(calls) < LM_MAX_ITER
    calls.clear()
    levenberg_marquardt(lambda w: pair_system_residual(surf.field, surf.level, w),
                        lambda w: counted(surf.field, surf.level, w), z0, tol=PAIR_RESIDUAL_TOL)
    assert len(calls) == LM_MAX_ITER


@pytest.mark.parametrize("rng_seed", [0, 1, 2])
@pytest.mark.parametrize("axes, least", [((0.5, 1.0, 4.0), 950), ((1.0, 2.0, 3.0), 990)],
                         ids=["ellipsoid-0.5,1,4", "ellipsoid-1,2,3"])
def test_pair_census_converges_off_the_diagonal(axes, least, rng_seed):
    # the normal blocks are unit sines, so LM cannot lower them by seeking
    # small gradients near the diagonal: nearly every seed pair converges to a pair
    search = PairSearchConfig(n_seeds=1000, rng_seed=rng_seed)
    assert find_parallel_pairs(Ellipsoid(axes), search).n_converged >= least


def _flipped_ellipsoid(p):
    """The ellipsoid (1,2,3) as an ImplicitHypersurface whose field's Hessian is
    negated at the point p alone: there grad g^T H grad g < 0, so the normal-line
    model at p has no crossing behind it, and every other point sees the
    ellipsoid's field."""
    base = ellipsoid_field((1.0, 2.0, 3.0))

    def hess(x):
        h = base.hess(x)
        return np.where((x == p).all(axis=-1)[..., None, None], -h, h)

    fld = ConstraintField("flipped", {}, 3, base.value, base.grad, hess, base.bounding_box)
    return ImplicitHypersurface(fld, 1.0)


NORMAL_LINE_SURFACES = {**CENSUS_SURFACES, "torus": PAIR_SURFACES["torus"]}


@pytest.mark.parametrize("name", sorted(NORMAL_LINE_SURFACES) + ["flipped"])
def test_normal_line_pairs_do_not_depend_on_the_batch(name):
    # one call against 7-row chunks, bit for bit; on the flipped field the row
    # without a crossing gets a NaN partner and changes no other row
    surf = NORMAL_LINE_SURFACES.get(name, CENSUS_SURFACES["ellipsoid-3d"])
    x = random_points(surf, 60, np.random.default_rng(9))
    if name == "flipped":
        surf = _flipped_ellipsoid(x[17])
    whole = _normal_line_pairs(surf, x)
    chunks = [_normal_line_pairs(surf, x[i:i + 7]) for i in range(0, len(x), 7)]
    assert whole.tobytes() == np.concatenate(chunks).tobytes()
    n = surf.ambient_dim
    assert np.array_equal(whole[:, :n], x)
    dropped = (np.arange(len(x)) == 17) & (name == "flipped")
    assert np.array_equal(~np.isfinite(whole).all(axis=1), dropped)


def test_row_without_a_normal_crossing_is_dropped():
    # the flipped row alone is dropped by the seed filter; every other seed pair
    # is the ellipsoid's, and LM solves each of them to the same bits
    ellipsoid = Ellipsoid((1.0, 2.0, 3.0))
    x = random_points(ellipsoid, 200, np.random.default_rng(10))
    flipped = _flipped_ellipsoid(x[17])
    z0 = _normal_line_pairs(flipped, x)
    sep = np.linalg.norm(z0[:, :3] - z0[:, 3:], axis=1)
    kept = sep > 10 * PAIR_MIN_SEPARATION
    assert np.array_equal(~kept, np.arange(len(x)) == 17)
    want = _normal_line_pairs(ellipsoid, x)
    assert np.array_equal(z0[kept], want[kept])
    z, rn = _gauss_newton_pairs(flipped.field, flipped.level, z0[kept])
    want_z, want_rn = _gauss_newton_pairs(ellipsoid.field, ellipsoid.level, want[kept])
    assert (rn <= PAIR_RESIDUAL_TOL).all()
    assert np.array_equal(z, want_z) and np.array_equal(rn, want_rn)


@pytest.mark.parametrize("name", ["ellipsoid-3d", "ellipsoid-4d", "torus"])
def test_normal_line_partner_lies_on_the_surface(name, monkeypatch):
    # both built-in fields are exactly quadratic along normal lines, so the
    # model's second zero is on M before it is projected, and the seed's own
    # normal block of the pair residual starts at zero
    surf = NORMAL_LINE_SURFACES[name]
    x = random_points(surf, 500, np.random.default_rng(11))
    handed = []
    project = mf._project_hypersurface

    def recorded(fld, level, coords):
        handed.append(np.array(coords))
        return project(fld, level, coords)

    monkeypatch.setattr(mf, "_project_hypersurface", recorded)
    z0 = _normal_line_pairs(surf, x)
    (y,) = handed
    assert np.max(np.abs(surf.field.value(y) - surf.level)) <= 1e-12
    n = surf.ambient_dim
    assert np.max(np.abs(z0[:, n:] - y)) <= 1e-12
    res = pair_system_residual(surf.field, surf.level, z0)
    assert np.max(np.linalg.norm(res[:, 2:2 + n], axis=1)) <= 1e-12


@pytest.mark.parametrize("name", ["sphere-2", "torus"])
def test_round_census_makes_no_jacobian_call(name, monkeypatch):
    # on S^2 each seed's partner is its antipode, and on the torus of revolution
    # the far end of its tube normal: every seed pair is a solution at the start
    calls = []
    jacobian = navigation.pair_system_jacobian

    def counted(fld, level, z):
        calls.append(len(z))
        return jacobian(fld, level, z)

    monkeypatch.setattr(navigation, "pair_system_jacobian", counted)
    spec = Sphere(2) if name == "sphere-2" else PAIR_SURFACES[name]
    census = find_parallel_pairs(spec, PairSearchConfig(n_seeds=2000, rng_seed=0))
    assert census.is_continuum and census.n_converged == 2000
    assert calls == []


CENSUS_ROUTES = {
    "ellipsoid": Ellipsoid((1.0, 2.0, 3.0)),
    "sphere-2": Sphere(2),
    "implicit-ellipsoid": ImplicitHypersurface(ellipsoid_field((1.0, 2.0, 3.0)), 1.0),
    "torus": PAIR_SURFACES["torus"],
}


@pytest.mark.parametrize("name", sorted(CENSUS_ROUTES))
def test_census_makes_no_jacobian_call(name, monkeypatch):
    # every ellipsoid takes the support route, whichever spec wraps it, and the torus's
    # normal-line seed pairs are solutions at the start
    calls = []
    jacobian = navigation.pair_system_jacobian
    monkeypatch.setattr(navigation, "pair_system_jacobian",
                        lambda fld, level, z: calls.append(len(z)) or jacobian(fld, level, z))
    find_parallel_pairs(CENSUS_ROUTES[name], PairSearchConfig(n_seeds=1000, rng_seed=0))
    assert calls == []


def _same_census(got, want):
    assert (got.alpha, got.n_converged, got.nn_distance) == (
        want.alpha, want.n_converged, want.nn_distance)
    for p, q in zip(got.pairs, want.pairs, strict=True):
        assert (p.x.tobytes(), p.y.tobytes()) == (q.x.tobytes(), q.y.tobytes())
        assert (p.value, p.alignment_residual) == (q.value, q.alignment_residual)


def test_implicit_ellipsoid_census_is_the_ellipsoid_census():
    # g = sum x_i^2 / a_i^2 at level 4 is the ellipsoid of semiaxes 2a, bit for bit
    cfg = PairSearchConfig(n_seeds=1000, rng_seed=0)
    got = find_parallel_pairs(ImplicitHypersurface(ellipsoid_field((1.0, 2.0, 3.0)), 4.0), cfg)
    _same_census(got, find_parallel_pairs(Ellipsoid((2.0, 4.0, 6.0)), cfg))
    assert got.alpha == 3


def test_implicit_ellipsoid_finds_every_axis_in_8d():
    # the pair system found 7 of these 8 pairs from the same seeds
    axes = tuple(float(a) for a in range(1, 9))
    census = find_parallel_pairs(ImplicitHypersurface(ellipsoid_field(axes), 1.0),
                                 PairSearchConfig(rng_seed=2))
    assert census.alpha == 8
    _same_census(census, find_parallel_pairs(Ellipsoid(axes), PairSearchConfig(rng_seed=2)))


@pytest.mark.parametrize("level", [0.0, -1.0, float("nan"), float("inf")])
def test_implicit_ellipsoid_at_an_empty_or_unbounded_level_is_refused(level):
    # a non-finite level is refused by the spec, a level <= 0 by the census,
    # each with a message that names the level
    if not np.isfinite(level):
        with pytest.raises(WrongSpec, match=f"level must be finite, got {level!r}"):
            ImplicitHypersurface(ellipsoid_field((1.0, 2.0, 3.0)), level)
        return
    surf = ImplicitHypersurface(ellipsoid_field((1.0, 2.0, 3.0)), level)
    with pytest.raises(WrongSpec, match=re.escape(f"ellipsoid field at level {level!r} has no")):
        find_parallel_pairs(surf, PairSearchConfig(n_seeds=10))


@pytest.mark.parametrize("level", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make", [lambda: ellipsoid_field((1.0, 2.0, 3.0)),
                                  lambda: torus_of_revolution_field(2.0, 0.5)],
                         ids=["ellipsoid", "torus"])
def test_implicit_hypersurface_refuses_a_non_finite_level(make, level):
    with pytest.raises(WrongSpec, match="level must be finite"):
        ImplicitHypersurface(make(), level)
    obj = ImplicitHypersurface(make(), 1.0).to_json()
    obj["level"] = level
    with pytest.raises(WrongSpec, match="level must be finite"):
        ImplicitHypersurface.from_json(obj)


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


@pytest.mark.parametrize("k", range(-8, 9))
def test_census_of_a_scaled_ellipsoid_is_the_scaled_census(k):
    # the support field of 2^k M is that of M, bit for bit, so every pair scales exactly
    # (a pair search with an absolute step cap converges from few seeds at k = 6 and none at 10)
    cfg = PairSearchConfig(n_seeds=1000, rng_seed=0)
    base = find_parallel_pairs(Ellipsoid((1.0, 2.0, 3.0)), cfg)
    got = find_parallel_pairs(Ellipsoid(tuple(2.0 ** k * a for a in (1.0, 2.0, 3.0))), cfg)
    assert (got.alpha, got.n_converged) == (base.alpha, base.n_converged) == (3, 1000)
    assert got.nn_distance == 2.0 ** k * base.nn_distance
    for p, q in zip(got.pairs, base.pairs, strict=True):
        assert p.x.tobytes() == (2.0 ** k * q.x).tobytes()
        assert p.y.tobytes() == (2.0 ** k * q.y).tobytes()
        assert p.value == 4.0 ** k * q.value
        assert p.alignment_residual == q.alignment_residual


@pytest.mark.parametrize("rng_seed", range(4))
def test_census_finds_the_long_axis_of_a_needle(rng_seed):
    # normal-line seed pairs on (0.1, 1, 10) almost all cross the short directions
    census = find_parallel_pairs(Ellipsoid((0.1, 1.0, 10.0)),
                                 PairSearchConfig(n_seeds=1000, rng_seed=rng_seed))
    assert census.alpha == 3
    assert np.allclose([p.value for p in census.pairs], [0.04, 4.0, 400.0], rtol=1e-12)


@pytest.mark.parametrize("rng_seed", range(4))
def test_census_finds_every_axis_of_an_8d_ellipsoid(rng_seed):
    axes = tuple(float(a) for a in range(1, 9))
    census = find_parallel_pairs(Ellipsoid(axes), PairSearchConfig(rng_seed=rng_seed))
    assert census.alpha == 8
    assert np.allclose([p.value for p in census.pairs], [4.0 * a * a for a in axes],
                       rtol=1e-12)


@pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (0.5, 1.0, 4.0), (0.1, 1.0, 10.0),
                                  (1.0, 1.5, 2.0, 3.0), (1e-3, 2e-3, 3e-3), (1e3, 2e3, 3e3)])
@pytest.mark.parametrize("rng_seed", [0, 1])
def test_every_kept_pair_is_aligned_to_the_residual_tolerance(axes, rng_seed):
    census = find_parallel_pairs(Ellipsoid(axes), PairSearchConfig(n_seeds=2000,
                                                                   rng_seed=rng_seed))
    assert census.alpha == len(axes)
    assert max(p.alignment_residual for p in census.pairs) <= PAIR_RESIDUAL_TOL


@pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (1.0, 1.5, 2.0, 3.0), (1.0, 1.0, 1.0)],
                         ids=["ellipsoid-3d", "ellipsoid-4d", "sphere-2"])
def test_support_field_derivatives_match_central_differences(axes):
    fld, c = Ellipsoid(axes).support_field()
    u = random_points(fld.spec, 200, np.random.default_rng(12))
    b = np.array(axes) / c
    assert np.allclose(fld.value_at(u), np.sqrt(np.sum((b * u) ** 2, axis=-1)), rtol=1e-15)
    assert np.allclose(fld.euclidean_gradient_at(u), fld.fd_gradient(u), rtol=0, atol=1e-8)
    assert np.allclose(fld.euclidean_hessian_at(u), fld.fd_hessian(u), rtol=0, atol=1e-6)
    # the gradient at u, times c, is the point of the ellipsoid with outward normal u
    x = c * fld.euclidean_gradient_at(u)
    assert np.max(Ellipsoid(axes).residual(x)) <= 1e-14
    normal = Ellipsoid(axes).field.grad(x)
    assert np.allclose(normal / np.linalg.norm(normal, axis=-1, keepdims=True), u, atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_support_field_is_exact_at_every_coordinate_direction():
    # b_0^2 underflows on (1e-154, 1, 1e154), where h(e_0) = b_0: h is summed from
    # b u rescaled on such rows, so h > 0 and its derivatives are finite
    axes = (1e-154, 1.0, 1e154)
    fld, c = Ellipsoid(axes).support_field()
    b = np.array(axes) / c
    for u in np.concatenate([np.eye(3), -np.eye(3)]):
        i = int(np.argmax(np.abs(u)))
        assert np.isclose(fld.value_at(u), b[i], rtol=1e-15, atol=0.0)
        assert np.allclose(fld.euclidean_gradient_at(u), b * u, rtol=1e-15,
                           atol=np.finfo(float).tiny)
        hess = fld.euclidean_hessian_at(u)
        assert np.isfinite(hess).all()
        assert np.allclose(np.diag(hess), np.where(np.arange(3) == i, 0.0, b**2 / b[i]),
                           rtol=1e-15, atol=np.finfo(float).tiny)
    # a row whose h^2 does not underflow keeps the plain sum's bits
    u = random_points(fld.spec, 50, np.random.default_rng(14))
    assert fld.value_at(u).tobytes() == np.sqrt(np.einsum("ni,ni->n", b**2 * u, u)).tobytes()


@pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (1e-154, 1.0, 1e154)])
def test_support_hessian_keeps_the_broadcast_formula_bits(axes):
    # (b^2 I - g g^T) / h with g g^T broadcast, on random directions and on the
    # coordinate directions, where h takes its hypot branch on (1e-154, 1, 1e154)
    fld, c = Ellipsoid(axes).support_field()
    b2 = (np.array(axes) / c) ** 2
    u = np.concatenate([random_points(fld.spec, 10000, np.random.default_rng(15)),
                        np.eye(3), -np.eye(3)])
    h = fld.value_at(u)[:, None, None]
    g = fld.euclidean_gradient_at(u)
    want = (b2 * np.eye(3) - g[:, :, None] * g[:, None, :]) / h
    assert fld.euclidean_hessian_at(u).tobytes() == want.tobytes()


def _support_directions(fld, rows, rng_seed):
    """rows random unit directions of the support field's sphere, then +-e_i."""
    eye = np.eye(fld.spec.ambient_dim)
    return np.concatenate([random_points(fld.spec, rows, np.random.default_rng(rng_seed)),
                           eye, -eye])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (0.5, 1.0, 4.0), (1.0, 1.5, 2.0, 3.0),
                                  (1e-150, 1.0, 1e150), (1e-154, 1.0, 1e154)])
def test_support_riemannian_hessian_matches_the_generic_route(axes):
    # the closed form against P (hess h - <u, grad h> I) P from the Euclidean derivatives,
    # to 1e-14 of the largest term either sums, max b^2 / h: where |u_i| is small for the
    # largest b_i, entries near h are differences of terms near b_i^2 / h, and both routes
    # round there alike; finite, symmetric and silent on extreme semiaxes
    fld, c = Ellipsoid(axes).support_field()
    u = _support_directions(fld, 10000, 16)
    got = fld.riemannian_hessian(u)
    want = Sphere(len(axes) - 1).riemannian_hessian(u, fld.euclidean_gradient_at(u),
                                                    fld.euclidean_hessian_at(u))
    assert np.isfinite(got).all()
    assert (got == np.swapaxes(got, 1, 2)).all()
    scale = np.max(np.array(axes) / c) ** 2 / fld.value_at(u)
    assert (np.abs(got - want).max(axis=(1, 2)) <= 1e-14 * scale).all()


@pytest.mark.parametrize("axes", [(1.0, 2.0, 3.0), (0.5, 1.0, 4.0), (1.0, 1.5, 2.0, 3.0)])
def test_support_riemannian_hessian_matches_central_differences(axes):
    # on tangent vectors the Riemannian Hessian is P times the derivative of the
    # Riemannian gradient, extended off the sphere as P(x) grad h(x)
    fld, c = Ellipsoid(axes).support_field()
    u = random_points(fld.spec, 500, np.random.default_rng(17))
    fd = flow._central_differences(fld.riemannian_gradient, u, flow.FD_SCALE)
    p = fld.spec.tangent_projector(u)
    want = np.einsum("nij,njk,nkl->nil", p, fd, p)
    assert acceptance._relative_error(fld.riemannian_hessian(u), want) <= 1e-5


def test_support_riemannian_hessian_keeps_the_batch_axis_last():
    # numerics reads the (N, n, n) result component-major in place; one direction
    # gives its (n, n) matrix, bit for bit, and a NaN direction spoils only its row
    fld, c = Ellipsoid((1.0, 1.5, 2.0, 3.0)).support_field()
    u = _support_directions(fld, 50, 18)
    got = fld.riemannian_hessian(u)
    assert got.shape == (len(u), 4, 4)
    assert got.transpose(1, 2, 0).flags.c_contiguous
    for i in (0, 7, len(u) - 1):
        one = fld.riemannian_hessian(u[i])
        assert one.shape == (4, 4)
        assert one.tobytes() == np.ascontiguousarray(got[i]).tobytes()
    holed = u.copy()
    holed[7] = np.nan
    spoiled = fld.riemannian_hessian(holed)
    assert np.isnan(spoiled[7]).all()
    assert np.delete(spoiled, 7, axis=0).tobytes() == np.delete(got, 7, axis=0).tobytes()


def test_only_the_ellipsoid_offers_a_support_field():
    torus = ImplicitHypersurface(torus_of_revolution_field(2.0, 0.5), 0.25)
    assert torus.support_field() is None
    fld, c = Ellipsoid((1.0, 2.0, 3.0)).support_field()
    assert (fld.spec, c) == (Sphere(2), 4.0)
    assert Ellipsoid((1.0, 1.0)).support_field()[1] == 1.0


def test_direction_solve_does_not_depend_on_the_batch():
    # one call against 7-row chunks, bit for bit; a NaN direction is dropped alone
    surf = Ellipsoid((1.0, 1.5, 2.0, 3.0))
    support = surf.support_field()
    u0 = random_points(support[0].spec, 200, np.random.default_rng(13))
    whole = _support_pairs(surf, support, u0)
    assert len(whole) == len(u0)
    chunks = [_support_pairs(surf, support, u0[i:i + 7]) for i in range(0, len(u0), 7)]
    assert whole.tobytes() == np.concatenate(chunks).tobytes()
    holed = u0.copy()
    holed[17] = np.nan
    got = _support_pairs(surf, support, holed)
    assert got.tobytes() == np.delete(whole, 17, axis=0).tobytes()


def test_census_on_extreme_semiaxes_warns_nothing():
    # the support Hessian stays finite; the pair Hessian of |x - y|^2 overflows at
    # a long-axis pair 1e300 times longer than the short axis, and the census says so
    with pytest.raises(WrongSpec, match="overflows on this surface"):
        find_parallel_pairs(Ellipsoid((1e-150, 1.0, 1e150)), PairSearchConfig(n_seeds=1000))
    with pytest.raises(WrongSpec, match=re.escape("|x - y|^2 overflows")):
        find_parallel_pairs(Ellipsoid((1e154, 1e154)), PairSearchConfig(n_seeds=100))


def test_census_says_when_the_seed_mask_drops_every_seed():
    # the ellipsoid's functions under another name take the normal-line route, where
    # grad g^T H grad g overflows and every partner is its own seed
    base = ellipsoid_field((1e-150, 1.0, 1e150))
    fld = ConstraintField("stretched", {}, 3, base.value, base.grad, base.hess,
                          base.bounding_box)
    surf = ImplicitHypersurface(fld, 1.0)
    with pytest.raises(NoPairsFound, match="all 100 seed points were dropped before the solve"):
        find_parallel_pairs(surf, PairSearchConfig(n_seeds=100))


def test_census_says_when_every_pair_is_near_the_diagonal():
    with pytest.raises(NoPairsFound, match="within 0.001 of the diagonal"):
        find_parallel_pairs(Ellipsoid((1e-5, 2e-5, 3e-5)), PairSearchConfig(n_seeds=100))


def test_dedup_pairs_beyond_the_int64_range():
    # the rounding grid stays in floats, so coordinates of 1e150 neither warn nor wrap
    x = np.array([[0.0, 1e150], [0.0, -1e150], [1.0, 0.0]])
    got = np.array(list(_dedup_pairs(x, -x, 1e-3)))
    assert got.tolist() == [[-1.0, -0.0, 1.0, 0.0], [0.0, -1e150, 0.0, 1e150]]


def _reference_dedup(x, y, tol):
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
    return np.array(kept)


@pytest.mark.parametrize("spread", [0.0, 3e-3, 1.0])
def test_dedup_pairs_matches_reference_loop(spread):
    # clusters of noisy copies of a few pairs, stored in either order, plus a
    # scattered family when spread is large (hundreds of distinct pairs)
    rng = np.random.default_rng(6)
    centres = rng.normal(size=(5, 6))
    rows = centres[rng.integers(0, 5, size=700)] + 2e-4 * rng.normal(size=(700, 6))
    rows = np.concatenate([rows, spread * rng.normal(size=(300, 6))])
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = np.concatenate([rows[flip, 3:], rows[flip, :3]], axis=1)
    x, y = rows[:, :3], rows[:, 3:]
    got = np.array(list(_dedup_pairs(x, y, 1e-3)))
    assert np.array_equal(got, _reference_dedup(x, y, 1e-3))


def _lexsort_dedup(x, y, tol):
    """The dedup by a full stable sort: every canonical pair sorted by np.lexsort,
    then the first remaining pair kept and every pair within tol of it dropped."""
    n = x.shape[1]
    diff = np.round(x / (0.1 * tol)) - np.round(y / (0.1 * tol))
    swap = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)] > 0
    cand = np.concatenate([x, y], axis=1)
    cand[swap] = np.concatenate([y[swap], x[swap]], axis=1)
    cand = cand[np.lexsort(cand.T[::-1])]
    while len(cand):
        rep = cand[0]
        yield rep
        swapped = np.concatenate([rep[n:], rep[:n]])
        cand = cand[np.minimum(np.linalg.norm(cand - rep, axis=-1),
                               np.linalg.norm(cand - swapped, axis=-1)) > tol]


def _same_representatives(x, y, tol, count=None):
    got = list(islice(_dedup_pairs(x, y, tol), count))
    want = list(islice(_lexsort_dedup(x, y, tol), count))
    assert len(got) == len(want)
    # bit for bit, so a -0.0 representative is not a 0.0 one
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    return got


@pytest.mark.parametrize("rng_seed", range(4))
@pytest.mark.parametrize("spec", [Ellipsoid((1.0, 2.0, 3.0)), Sphere(2)], ids=str)
def test_dedup_pairs_selects_what_a_full_sort_keeps(spec, rng_seed):
    # the converged rows of a 10,000-seed census; on S^2, a continuum of 10,000
    # distinct pairs, the first 30 representatives
    surf = navigation._hypersurface_of(spec)
    support = surf.support_field()
    u0 = random_points(support[0].spec, 10000, np.random.default_rng(rng_seed))
    z = _support_pairs(surf, support, u0)
    n = surf.ambient_dim
    z = z[np.linalg.norm(z[:, :n] - z[:, n:], axis=-1) >= PAIR_MIN_SEPARATION]
    assert len(z) > 9000
    got = _same_representatives(z[:, :n], z[:, n:], navigation.PAIR_DEDUP_TOL,
                                30 if isinstance(spec, Sphere) else None)
    assert len(got) == (30 if isinstance(spec, Sphere) else 3)


def test_dedup_pairs_breaks_ties_as_a_stable_sort():
    # rows tied in their leading columns, rows that differ only by -0.0 against 0.0
    # (equal to the sort, so the first one stays), and exact duplicates
    rows = np.array([[0.0, 1.0, 2.0, 0.0, -1.0, -2.0],
                     [0.0, 1.0, 1.0, 0.0, -1.0, -1.0],
                     [-0.0, 1.0, 1.0, -0.0, -1.0, -1.0],
                     [0.0, 1.0, 1.0, 0.0, -1.0, -1.0],
                     [0.0, -0.0, 3.0, 0.0, 0.0, -3.0],
                     [-0.0, 0.0, 3.0, 0.0, -0.0, -3.0],
                     [0.0, 1.0, 2.0, 0.0, -1.0, -2.0],
                     [5.0, 5.0, 5.0, 6.0, 6.0, 6.0],
                     [5.0, 5.0, 5.0, 6.0, 6.0, 6.0]])
    for order in (np.arange(len(rows)), np.arange(len(rows))[::-1],
                  np.random.default_rng(3).permutation(len(rows))):
        x, y = rows[order, :3], rows[order, 3:]
        got = _same_representatives(x, y, 1e-3)
        assert len(got) == 4
    got = _same_representatives(rows[:, :3], rows[:, 3:], 1e-3)
    assert got[0].tobytes() == np.array([0.0, -1.0, -2.0, 0.0, 1.0, 2.0]).tobytes()


def test_nav_tuple_json_round_trip():
    t = random_critical_tuple(ProductSpheres((1, 3)), 3, np.random.default_rng(2))
    payload = t.to_json()
    back = NavTuple(mf.spec_from_json(payload["manifold"]), payload["points"])
    assert back.spec == t.spec
    assert np.array_equal(back.points, t.points)
