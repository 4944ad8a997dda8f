import warnings

import numpy as np
import pytest

from lsnav import numerics
from lsnav.manifolds import Ellipsoid, project_points, random_points
from lsnav.navigation import PAIR_RESIDUAL_TOL, pair_system_jacobian, pair_system_residual
from lsnav.numerics import LM_BATCH_AXIS_ROWS, LM_BLOCK_ROWS, levenberg_marquardt

# one batch solved per matrix, one along the batch axis in one row block and
# one along the batch axis in two row blocks
BATCHES = [40, 2 * LM_BATCH_AXIS_ROWS, LM_BLOCK_ROWS + 17]


def _linear(a, b):
    """Residual z -> A z - b, the same for every row, and its Jacobian."""
    def residual(z):
        return z @ a.T - b

    def jacobian(z):
        return np.broadcast_to(a, (len(z),) + a.shape).copy()

    return residual, jacobian


@pytest.mark.parametrize("rows", BATCHES)
def test_lm_evaluates_each_point_once(monkeypatch, rows):
    monkeypatch.setattr(numerics, "LM_MAX_ITER", 60)
    # the residual is evaluated at the starts and at trial points only: an
    # accepted trial keeps the residual it was judged by
    seen = []

    def residual(z):
        seen.append(np.array(z))
        # one equation in two unknowns: each start converges to its own point of the circle
        return np.sum(z * z, axis=-1, keepdims=True) - 1.0

    def jacobian(z):
        return 2.0 * z[:, None, :]

    z0 = np.random.default_rng(0).uniform(-2.0, 2.0, size=(rows, 2))
    z, rn = levenberg_marquardt(residual, jacobian, z0, tol=1e-12)
    assert (rn <= 1e-12).all()
    assert np.array_equal(seen[0], z0)
    rows = np.concatenate(seen)
    assert len(np.unique(rows, axis=0)) == len(rows)
    # the reported norms are those of the residual at the returned points
    assert np.array_equal(np.linalg.norm(residual(z), axis=-1), rn)


# one bad entry of a row's Jacobian, at (z[:, 1] of its start, component, coordinate)
SINGLE_ENTRY_FAULTS = {100.0: (0, 0, np.nan), 200.0: (3, 1, np.inf), 300.0: (2, 0, 1e200)}


def test_lm_abandons_non_finite_rows(monkeypatch):
    monkeypatch.setattr(numerics, "LM_MAX_ITER", 100)
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 2))
    residual, linear_jacobian = _linear(a, a @ np.array([0.3, -0.2]))

    def jacobian(z):
        j = linear_jacobian(z)
        j[(z[:, 0] > 5.0) & (z[:, 0] < 8.0)] = np.inf
        # a NaN entry, an infinite one and one whose square overflows, each in its own row
        for start, (k, i, bad) in SINGLE_ENTRY_FAULTS.items():
            j[z[:, 1] == start, k, i] = bad
        return j

    for rows in BATCHES:  # solved per matrix, then along the batch axis
        z0 = rng.uniform(-1.0, 1.0, size=(rows, 2))
        z0[0, 0] = np.nan  # residual not finite at the start
        z0[1] = 10.0  # on its way to the solution, row 1 crosses the band 5 < x < 8
        z0[2:5, 1] = list(SINGLE_ENTRY_FAULTS)
        z, rn = levenberg_marquardt(residual, jacobian, z0, tol=1e-10)
        assert np.isinf(rn[:5]).all()
        assert (rn[5:] <= 1e-10).all()
        assert 5.0 < z[1, 0] < 8.0
        assert np.array_equal(z[2:5], z0[2:5])  # abandoned where they started
        # the other rows take the steps they take without the faulty rows, bit for bit
        want_z, want_rn = levenberg_marquardt(residual, jacobian, z0[5:], tol=1e-10)
        assert z[5:].tobytes() == want_z.tobytes()
        assert rn[5:].tobytes() == want_rn.tobytes()


@pytest.mark.parametrize("rows", BATCHES)
def test_lm_abandoned_row_leaves_the_other_rows_unchanged(monkeypatch, rows):
    monkeypatch.setattr(numerics, "LM_MAX_ITER", 60)
    # the other rows of a batch take the same steps, bit for bit, whether or
    # not a row in it is abandoned part-way
    def residual(z):
        return np.sum(z * z, axis=-1, keepdims=True) - 1.0

    def jacobian(z):
        jac = 2.0 * z[:, None, :]
        r = np.linalg.norm(z, axis=-1)
        jac[(r > 5.0) & (r < 12.0)] = np.nan
        return jac

    z0 = np.random.default_rng(3).uniform(-2.0, 2.0, size=(rows, 2))
    victim = 17
    z0[victim] = 10.0  # |z| = 14.1: a few capped steps, then its Jacobian turns NaN
    z, rn = levenberg_marquardt(residual, jacobian, z0, tol=1e-12)
    assert np.isinf(rn[victim])
    assert 5.0 < np.linalg.norm(z[victim]) < 12.0
    others = np.arange(len(z0)) != victim
    want_z, want_rn = levenberg_marquardt(residual, jacobian, z0[others], tol=1e-12)
    assert (want_rn <= 1e-12).all()
    assert np.array_equal(z[others], want_z)
    assert np.array_equal(rn[others], want_rn)


@pytest.mark.parametrize("rows", [1, LM_BATCH_AXIS_ROWS])
def test_lm_damping_overflow_is_silent(rows):
    # diag J^T J = 4e300: the damping grows on every rejected trial until
    # lambda * diag overflows; such a trial is rejected, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z, rn = levenberg_marquardt(lambda z: np.ones((len(z), 1)),
                                    lambda z: np.full((len(z), 1, 2), 2e150),
                                    np.zeros((rows, 2)), tol=1e-12)
    assert np.array_equal(z, np.zeros((rows, 2)))
    assert np.array_equal(rn, np.ones(rows))


def test_lm_matches_lstsq_on_linear_problems(monkeypatch):
    monkeypatch.setattr(numerics, "LM_MAX_ITER", 200)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(7, 3))
    z0 = rng.uniform(-3.0, 3.0, size=(30, 3))
    # consistent: the least-squares solution has a zero residual
    b = a @ np.array([0.4, -1.2, 2.0])
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    z, rn = levenberg_marquardt(*_linear(a, b), z0, tol=1e-13)
    assert np.max(np.abs(z - want)) <= 1e-10
    # inconsistent: LM stops at the least-squares residual norm
    b = rng.normal(size=7)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    best = np.linalg.norm(a @ want - b)
    z, rn = levenberg_marquardt(*_linear(a, b), z0, tol=1e-13)
    assert np.max(np.abs(rn - best)) <= 1e-10 * best


def _augmented_spd(d, n, rng):
    """(n, d, d) symmetric positive definite A, (n, d) b and the batch-axis
    (d, d + 1, n) array [A | b] that numerics._cholesky_solve takes."""
    j = rng.normal(size=(n, d + 2, d))
    a = np.einsum("nki,nkj->nij", j, j) + 0.1 * np.eye(d)
    b = rng.normal(size=(n, d))
    aug = np.concatenate([a, b[:, :, None]], axis=2).transpose(1, 2, 0).copy()
    return a, b, aug


@pytest.mark.parametrize("d", [3, 6, 12])
def test_batch_axis_solve_matches_lapack(d):
    a, b, aug = _augmented_spd(d, 300, np.random.default_rng(d))
    x = numerics._cholesky_solve(aug).T
    want = np.linalg.solve(a, b[..., None])[..., 0]
    assert np.max(np.linalg.norm(x - want, axis=1) / np.linalg.norm(want, axis=1)) <= 1e-12


def test_batch_axis_solve_falls_back_per_row():
    # a row whose Cholesky pivot is not positive is solved by LAPACK, and
    # the other rows keep the bits they have without it
    a, b, aug = _augmented_spd(6, 50, np.random.default_rng(5))
    bad = 21
    a[bad] = np.diag([2.0, -1.0, 3.0, 1.0, 1.0, 4.0]) + 0.1  # symmetric, indefinite
    aug[:, :6, bad] = a[bad]
    x = numerics._cholesky_solve(aug.copy())
    assert np.array_equal(x[:, bad], np.linalg.solve(a[bad], b[bad]))
    rest = np.arange(50) != bad
    assert np.array_equal(x[:, rest], numerics._cholesky_solve(aug[..., rest]))


@pytest.mark.parametrize("d", [3, 6, 12])
def test_lapack_solve_falls_back_per_row(d):
    # an exactly singular matrix is solved by its pseudo-inverse alone: the
    # other rows keep the bits they have in a batch without it
    a, b, _ = _augmented_spd(d, 5, np.random.default_rng(d))
    a[2] = 0.0
    x = numerics._lapack_solve(a, b)
    rest = np.arange(5) != 2
    assert np.array_equal(x[rest], numerics._lapack_solve(a[rest], b[rest]))
    assert np.array_equal(x[2], np.zeros(d))


@pytest.mark.parametrize("d", [2, 3, 6, 12])
def test_lapack_solve_sends_only_an_exactly_singular_row_to_pinv(d, monkeypatch):
    # a rank-1 matrix u u^T with u = (1, 2, 4, ...): every LU multiplier is a
    # power of two, so its Schur complement is exactly 0 and LAPACK reports it
    # singular.  The other rows keep the bits of np.linalg.solve on the batch
    # without it; the singular row gets the pseudo-inverse solution, the
    # least-squares solution of least norm, from one pinv call on it alone.
    a, b, _ = _augmented_spd(d, 5, np.random.default_rng(d))
    u = 2.0 ** np.arange(d)
    a[2] = np.outer(u, u)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a[2], b[2])
    pinv_args = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda m: pinv_args.append(m.copy()) or pinv(m))
    x = numerics._lapack_solve(a, b)
    rest = np.arange(5) != 2
    assert x[rest].tobytes() == np.linalg.solve(a[rest], b[rest][..., None])[..., 0].tobytes()
    assert len(pinv_args) == 1 and np.array_equal(pinv_args[0], a[2:3])
    want = np.linalg.lstsq(a[2], b[2], rcond=None)[0]
    assert np.allclose(x[2], want, rtol=1e-12, atol=1e-15)
    assert np.allclose(x[2], u * (u @ b[2]) / (u @ u) ** 2, rtol=1e-12, atol=1e-15)


def _reference_normal_equations(jac, r):
    """The multiply-add loop form of numerics._normal_equations: the Jacobian,
    with r as a last column, copied component-major, each upper entry of
    [J^T J | J^T r] summed over the m components in order, the lower half
    mirrored."""
    n, m, d = jac.shape
    jc = np.empty((m, d + 1, n))
    jc[:, :d] = jac.transpose(1, 2, 0)
    jc[:, d] = r.T
    aug = np.empty((d, d + 1, n))
    for i in range(d):
        row = aug[i, i:]
        np.multiply(jc[0, i], jc[0, i:], out=row)
        for k in range(1, m):
            row += jc[k, i] * jc[k, i:]
        aug[i + 1:, i] = row[1:d - i]
    return aug


def _census_starts(surf, rows, seed):
    pts = random_points(surf, 2 * rows, np.random.default_rng(seed))
    return np.concatenate([pts[:rows], pts[rows:]], axis=1)


def _component_major(jac):
    """The (n, m, d) Jacobian jac as the row-major view of a component-major
    (m, d, n) copy, the layout numerics._normal_equations reads in place."""
    return np.ascontiguousarray(jac.transpose(1, 2, 0)).transpose(2, 0, 1)


def _normal_equations_system(name, rows):
    """(Jacobian, residual) of an LM problem at rows points: the Jacobian as the
    row-major view of a component-major array."""
    if name == "random":
        rng = np.random.default_rng(rows)
        return rng.normal(size=(9, 5, rows)).transpose(2, 0, 1), rng.normal(size=(rows, 9))
    surf = Ellipsoid(name)
    z = _census_starts(surf, rows, rows)
    return (_component_major(pair_system_jacobian(surf.field, surf.level, z)),
            pair_system_residual(surf.field, surf.level, z))


@pytest.mark.parametrize("rows", [1, 7, 2 * LM_BATCH_AXIS_ROWS])
@pytest.mark.parametrize("name", [(1.0, 2.0, 3.0), (1.0, 1.5, 2.0, 3.0), "random"],
                         ids=["ellipsoid-3d", "ellipsoid-4d", "random"])
def test_normal_equations_match_the_loop_form(name, rows):
    # one einsum per row of J^T J sums in the loop's order: the same bits, read
    # in place from the component-major view or copied from a C-ordered Jacobian
    # and written into an array of its own or into a column block of a wider one
    jac, r = _normal_equations_system(name, rows)
    want = _reference_normal_equations(jac, r).tobytes()
    d = jac.shape[2]
    for layout in (jac, np.ascontiguousarray(jac)):
        own, wide = np.empty((d, d + 1, rows)), np.full((d, d + 1, rows + 9), np.nan)
        numerics._normal_equations(layout, r, own)
        numerics._normal_equations(layout, r, wide[..., 4:4 + rows])
        assert own.tobytes() == want
        assert np.ascontiguousarray(wide[..., 4:4 + rows]).tobytes() == want
        assert np.isnan(wide[..., :4]).all() and np.isnan(wide[..., 4 + rows:]).all()


@pytest.mark.parametrize("rows", BATCHES)
def test_lm_census_does_not_depend_on_the_jacobian_layout(rows):
    # the pair Jacobian as the row-major view of a component-major copy or
    # as the C-ordered array it is built as: the same steps, bit for bit, on
    # either solve path
    surf = Ellipsoid((1.0, 2.0, 3.0))
    z0 = _census_starts(surf, rows, 0)

    def residual(z):
        return pair_system_residual(surf.field, surf.level, z)

    def jacobian(z):
        return pair_system_jacobian(surf.field, surf.level, z)

    z, rn = levenberg_marquardt(residual, lambda w: _component_major(jacobian(w)), z0,
                                tol=PAIR_RESIDUAL_TOL)
    want_z, want_rn = levenberg_marquardt(residual, jacobian, z0, tol=PAIR_RESIDUAL_TOL)
    assert (rn <= PAIR_RESIDUAL_TOL).mean() > 0.9
    assert z.tobytes() == want_z.tobytes()
    assert rn.tobytes() == want_rn.tobytes()


def _census_problem(rows):
    """(residual, jacobian, starts, tol, retract) of the pair system of the
    ellipsoid (1,2,3) at rows seed pairs."""
    surf = Ellipsoid((1.0, 2.0, 3.0))
    return (lambda z: pair_system_residual(surf.field, surf.level, z),
            lambda z: pair_system_jacobian(surf.field, surf.level, z),
            _census_starts(surf, rows, 0), PAIR_RESIDUAL_TOL, None)


def _support_problem(rows):
    """The same for the census's Newton on the support field of the ellipsoid
    (0.5,1,4), from rows unit directions, at the census's tolerance; on
    (1,2,3) no trial step of it is rejected."""
    surf = Ellipsoid((0.5, 1.0, 4.0))
    fld, c = surf.support_field()
    return (fld.riemannian_gradient, fld.riemannian_hessian,
            random_points(fld.spec, rows, np.random.default_rng(0)),
            PAIR_RESIDUAL_TOL * min(surf.semiaxes) / c, lambda p: project_points(fld.spec, p))


@pytest.mark.parametrize("block", [7, 1000])
@pytest.mark.parametrize("problem", [_census_problem, _support_problem], ids=["census", "support"])
def test_lm_row_blocks_keep_every_row_bit_for_bit(monkeypatch, problem, block):
    # along the batch axis, each iteration evaluates the Jacobian and solves its
    # damped systems in blocks of at most LM_BLOCK_ROWS rows: every row takes the
    # steps it takes in one block, bit for bit, a row abandoned at its start too
    rows = 2 * LM_BATCH_AXIS_ROWS + 17
    residual, jacobian, z0, tol, retract = problem(rows)
    z0[5] = np.nan
    monkeypatch.setattr(numerics, "LM_BLOCK_ROWS", rows)
    want_z, want_rn = levenberg_marquardt(residual, jacobian, z0, tol=tol, retract=retract)
    calls = []  # ("r" or "J", rows) of each residual and Jacobian evaluation

    def logged(kind, fn):
        return lambda z: calls.append((kind, len(z))) or fn(z)

    monkeypatch.setattr(numerics, "LM_BLOCK_ROWS", block)
    z, rn = levenberg_marquardt(logged("r", residual), logged("J", jacobian), z0, tol=tol,
                                retract=retract)
    assert z.tobytes() == want_z.tobytes()
    assert rn.tobytes() == want_rn.tobytes()
    assert np.isinf(rn[5]) and (rn <= tol).mean() > 0.9
    assert max(k for kind, k in calls if kind == "J") == block
    # some iteration runs a second damped trial on part of the rows of its first
    assert any(a == b == "r" and m < k for (a, k), (b, m) in zip(calls[1:], calls[2:]))
