"""Shared numerical helpers: batched Levenberg-Marquardt least squares."""
from __future__ import annotations

import numpy as np

LM_LAM0 = 1e-3       # initial damping, in units of max(diag J^T J, 1)
LM_LAM_MIN = 1e-12   # damping bounds
LM_LAM_MAX = 1e8
LM_STEP_CAP = 0.5    # largest step norm
LM_MAX_ITER = 80     # iterations per row
LM_BATCH_AXIS_ROWS = 1024  # calls with this many starting rows solve along the batch axis
LM_BLOCK_ROWS = 2048       # rows per block of the batch-axis normal equations and solves


def levenberg_marquardt(residual, jacobian, z0, *, tol: float, retract=None):
    """Damped least-squares iteration on a batch of starting points.

    residual(z) -> (n, m), jacobian(z) -> (n, m, d) with z of shape (n, d).
    Solves (J^T J + lam D) delta = -J^T r per row, D = diag(max(diag J^T J, 1))
    (Marquardt's scaling, so the damping survives rounding whatever the
    residual scale), for at most LM_MAX_ITER iterations; accepted steps shrink
    the damping, rejected ones grow it.
    Steps are capped at LM_STEP_CAP in norm, which keeps iterates from
    tunneling between basins when the Jacobian is rank-deficient (flat
    valleys, solution continua).  An optional ``retract`` maps trial points
    back onto a constraint set after each step.  Rows whose
    residual is not finite at the start, or whose Jacobian stops being finite
    (judged by diag J^T J and J^T r, which every non-finite or overflowing
    entry of J reaches), are abandoned and report an infinite residual norm; a
    trial point with a non-finite residual is rejected like any other worse point.

    The residual is evaluated at the starts and once per trial point; an
    accepted trial keeps the residual it was judged by.  An iteration in which
    every row is active works on z and the residuals in place, and a batch of
    trials that are all accepted is written in one assignment per array; else
    the active rows are copied out and written back once per iteration.

    The damped systems are solved one of two ways, chosen once per call from
    the number of starting rows.  Below LM_BATCH_AXIS_ROWS, per matrix:
    batched matrix products of the C-ordered Jacobian for J^T J and J^T r, and
    LAPACK's ``solve`` (``pinv`` for a matrix that is exactly singular).
    From LM_BATCH_AXIS_ROWS on, along the batch axis, in row blocks of at most
    LM_BLOCK_ROWS.  Per block of k active rows, ``jacobian`` is called once and
    its Jacobian read component-major (in place if it is the row-major view of
    an (m, d, k) array, else from one copy) into the block's columns of one
    (d, d + 1, n) array of normal equations; per block of trial rows, those
    columns are copied out, damped and factored in place by a Cholesky solve.
    Both are sums and loops on contiguous vectors of the block's length
    (``_normal_equations``, ``_cholesky_solve``); a row whose pivot is not
    positive is solved again, per matrix, by LAPACK.  The blocks bound the
    Jacobian chain and these temporaries, about 730 bytes a row at d = 3, by
    the block rather than the batch (blocking: Lam, Rothberg & Wolf, ASPLOS
    1991), so one block reuses the memory the allocator kept from the last,
    where whole-batch temporaries have the operating system fault in fresh
    pages every iteration; residuals, retractions and norms run on the whole
    batch.  Either way a
    row takes the same steps, bit for bit, whichever rows are still active
    and whatever the blocks, as long as ``residual`` and ``jacobian`` compute
    row by row: a BLAS product such as ``z @ a`` breaks this, elementwise and
    ``einsum`` forms keep it.

    Returns (z, residual_norms).
    """
    z = np.array(z0, dtype=float)
    if retract is not None:
        z = retract(z)
    n, d = z.shape
    batch_axis = n >= LM_BATCH_AXIS_ROWS
    res = residual(z)
    rn = np.linalg.norm(res, axis=-1)
    dead = ~np.isfinite(rn)
    rn[dead] = np.inf
    lam = np.full(n, LM_LAM0)
    for _ in range(LM_MAX_ITER):
        active = (rn > tol) & ~dead
        if not active.any():
            break
        act_idx = np.flatnonzero(active)
        # the active rows: views of z, res, rn and lam when every row is active,
        # else copies that are written back once, after the iteration
        act = _rows(act_idx, n)
        za, ra, rna, la = z[act], res[act], rn[act], lam[act]
        if batch_axis:
            aug = np.empty((d, d + 1, len(za)))  # [J^T J | J^T r], batch axis last
            for blk in _blocks(len(za)):
                _normal_equations(jacobian(za[blk]), ra[blk], aug[..., blk])
            diag, jtr = aug.reshape(d * (d + 1), -1)[:: d + 2], aug[:, d]
        else:
            jac = np.ascontiguousarray(jacobian(za))
            jt = np.swapaxes(jac, -1, -2)
            with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows are dropped below
                jtj = jt @ jac
                jtr = (jt @ ra[..., None])[..., 0]
            diag = np.einsum("nii->ni", jtj)
        finite = (np.isfinite(diag) & np.isfinite(jtr)).all(axis=0 if batch_axis else 1)
        dead[act_idx[~finite]], rna[~finite] = True, np.inf
        # Marquardt scaling: damp relative to the diagonal of J^T J so the
        # shift survives rounding whatever the residual scale is
        scale = np.maximum(diag, 1.0)
        accepted = ~finite  # an abandoned row takes no trial
        for _ in range(8):
            todo = ~accepted
            if not todo.any():
                break
            tix = np.flatnonzero(todo)
            t = _rows(tix, len(todo))
            if batch_axis:
                delta = np.empty((len(tix), d))
                with np.errstate(over="ignore"):  # an infinite damping yields a rejected trial
                    damp = la[t] * scale[:, t]
                    for blk in _blocks(len(tix)):
                        # the block's trial rows, copied contiguous and factored in place
                        if isinstance(t, slice):
                            a = aug[..., blk].copy()
                        else:
                            a = np.take(aug, tix[blk], axis=-1)
                        a.reshape(d * (d + 1), -1)[:: d + 2] += damp[:, blk]
                        np.negative(_cholesky_solve(a).T, out=delta[blk])
            else:
                a = jtj[todo]
                with np.errstate(over="ignore"):  # an infinite damping yields a rejected trial
                    a.reshape(len(a), d * d)[:, :: d + 1] += la[t, None] * scale[t]
                delta = -_lapack_solve(a, jtr[t])
            norms = np.linalg.norm(delta, axis=-1)
            over = norms > LM_STEP_CAP
            if over.any():
                delta[over] *= (LM_STEP_CAP / norms[over])[:, None]
            trial = za[t] + delta
            if retract is not None:
                trial = retract(trial)
            tres = residual(trial)
            trn = np.linalg.norm(tres, axis=-1)
            good = trn < rna[t]  # False for a non-finite trial norm
            # when every trial is accepted, each array takes them in one assignment
            put, take = (t, slice(None)) if good.all() else (tix[good], good)
            za[put], ra[put], rna[put] = trial[take], tres[take], trn[take]
            accepted[put] = True
            la[t] = np.where(good, np.maximum(la[t] * 0.3, LM_LAM_MIN),
                             np.minimum(la[t] * 10.0, LM_LAM_MAX))
        if act_idx.size < n:
            z[act_idx], res[act_idx], rn[act_idx], lam[act_idx] = za, ra, rna, la
    return z, rn


def _rows(idx, n):
    """The row indices idx of an n-row array, as a slice when they are all n rows:
    indexing by it reads a view and writes in one pass, without a gather or scatter."""
    return slice(None) if idx.size == n else idx


def _blocks(n):
    """Slices of at most LM_BLOCK_ROWS rows that cover n rows in order."""
    return [slice(lo, lo + LM_BLOCK_ROWS) for lo in range(0, n, LM_BLOCK_ROWS)]


def _lapack_solve(a, b):
    """x with a[i] x[i] = b[i] for (n, d, d) a and (n, d) b, by LAPACK.  When
    some a[i] is exactly singular, each row is solved again on its own, and
    only a singular one by its pseudo-inverse.

    LAPACK calls a matrix singular only when an LU pivot is exactly 0, and
    LM's damped matrices J^T J + lam D stay far from that: scaled by D^(-1/2)
    on both sides (D = diag(max(diag J^T J, 1))), each is a positive
    semidefinite matrix with entries of at most 1 in magnitude, computed with
    a rounding error of about m eps, plus lam >= LM_LAM_MIN = 1e-12, some 4,500
    times eps, times the identity; an infinite damping makes a pivot
    infinite, not 0.  LM drops rows with a non-finite J^T J before it solves.
    No LM call of the tests, of the acceptance criteria or of the benchmark
    workloads reaches the fallback; it guards the solve, and a test runs it on
    an exactly singular matrix."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.einsum("nij,nj->ni", np.linalg.pinv(a), b)
        return np.concatenate([_lapack_solve(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _normal_equations(jac, r, aug):
    """Write the augmented normal equations [J^T J | J^T r] of the (n, m, d)
    Jacobian and the (n, m) residual into aug, a (d, d + 1, n) array or view
    whose batch axis, last, is contiguous.

    The Jacobian is read component-major, in place when jac.transpose(1, 2, 0)
    is C-contiguous and else from one copy.  Each upper row of J^T J, and J^T r,
    is one einsum that sums over the m components in order on length-n vectors,
    so its bits depend neither on n nor on the block of a wider array that aug
    may be; the lower half is mirrored from the upper."""
    d = jac.shape[2]
    jc = np.ascontiguousarray(jac.transpose(1, 2, 0))
    del jac  # passed inline, a C-ordered Jacobian is freed once copied
    with np.errstate(invalid="ignore", over="ignore"):  # LM drops non-finite rows
        for i in range(d):
            np.einsum("kn,kjn->jn", jc[:, i], jc[:, i:], out=aug[i, i:d])
            aug[i + 1:, i] = aug[i, i + 1:d]
        np.einsum("kin,nk->in", jc, r, out=aug[:, d])


def _cholesky_solve(a):
    """x with A[:, :, i] x[:, i] = b[:, i] for the augmented (d, d + 1, n)
    batch a = [A | b] of symmetric positive definite A, batch axis last.

    a is factored in place, A = U^T U, left-looking (Golub & Van Loan,
    Matrix Computations, 4.2): row j of U overwrites the upper half of row j
    of A, and the same updates carry b along into the solution y of
    U^T y = b; U x = y is then solved backwards.  The strict lower half of A is
    left as it was.  Every step is an elementwise operation on length-n
    vectors, so a row's bits do not depend on the other rows.  A pivot that
    is not positive (an indefinite or numerically singular A) leaves that
    row's x non-finite; such a row is rebuilt from that lower half and the
    saved diagonal and right-hand side, and solved by LAPACK."""
    d = len(a)
    diag, b = a.reshape(d * (d + 1), -1)[:: d + 2].copy(), a[:, d].copy()
    with np.errstate(all="ignore"):  # failed rows are solved again below
        for j in range(d):
            for k in range(j):
                a[j, j:] -= a[k, j] * a[k, j:]
            np.sqrt(a[j, j], out=a[j, j])
            a[j, j + 1:] /= a[j, j]
        x = a[:, d].copy()
        for k in range(d - 1, -1, -1):
            x[k] /= a[k, k]
            x[:k] -= a[:k, k] * x[k]
    fail = ~np.isfinite(x).all(axis=0)
    if fail.any():
        low = np.tril(np.moveaxis(a[:, :d, fail], -1, 0), -1)
        full = low + np.swapaxes(low, 1, 2)
        full.reshape(len(full), d * d)[:, :: d + 1] = diag[:, fail].T
        x[:, fail] = _lapack_solve(full, b[:, fail].T).T
    return x
