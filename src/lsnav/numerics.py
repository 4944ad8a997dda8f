"""Shared numerical helpers: batched Levenberg-Marquardt least squares."""
from __future__ import annotations

import numpy as np

LM_LAM0 = 1e-3       # initial damping, in units of max(diag J^T J, 1)
LM_LAM_MIN = 1e-12   # damping bounds
LM_LAM_MAX = 1e8
LM_STEP_CAP = 0.5    # largest step norm
LM_MAX_ITER = 80     # iterations per row


def levenberg_marquardt(residual, jacobian, z0, *, tol: float, retract=None):
    """Damped least-squares iteration on a batch of starting points.

    residual(z) -> (n, m), jacobian(z) -> (n, m, d) with z of shape (n, d).
    Solves (J^T J + lam I) delta = -J^T r per row for at most LM_MAX_ITER
    iterations; accepted steps shrink the damping, rejected ones grow it.
    Steps are capped at LM_STEP_CAP in norm, which keeps iterates from
    tunneling between basins when the Jacobian is rank-deficient (flat
    valleys, solution continua).  An optional ``retract`` maps trial points
    back onto a constraint set after each step.  Rows whose
    residual is not finite at the start, or whose Jacobian stops being
    finite, are abandoned and report an infinite residual norm; a trial point
    with a non-finite residual is rejected like any other worse point.

    The residual is evaluated at the starts and once per trial point; an
    accepted trial keeps the residual it was judged by.

    Returns (z, residual_norms).
    """
    z = np.array(z0, dtype=float)
    if retract is not None:
        z = retract(z)
    n, d = z.shape
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
        za = z[act_idx]
        ra = res[act_idx]
        la = lam[act_idx]
        jac = jacobian(za)
        jt = np.swapaxes(jac, -1, -2)
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows are dropped below
            jtj = jt @ jac
            jtr = (jt @ ra[..., None])[..., 0]
        bad = ~(np.isfinite(jtj).all(axis=(1, 2)) & np.isfinite(jtr).all(axis=1))
        if bad.any():
            dead[act_idx[bad]] = True
            rn[act_idx[bad]] = np.inf
            keep = ~bad
            act_idx = act_idx[keep]
            if act_idx.size == 0:
                continue
            za, ra, la, jtj, jtr = za[keep], ra[keep], la[keep], jtj[keep], jtr[keep]
        # Marquardt scaling: damp relative to the diagonal of J^T J so the
        # shift survives rounding whatever the residual scale is
        diag = np.einsum("nii->ni", jtj)
        scale = np.maximum(diag, 1.0)
        accepted = np.zeros(len(za), dtype=bool)
        for _ in range(8):
            todo = ~accepted
            if not todo.any():
                break
            a = jtj[todo]
            a.reshape(len(a), d * d)[:, :: d + 1] += la[todo, None] * scale[todo]
            try:
                delta = -np.linalg.solve(a, jtr[todo, :, None])[..., 0]
            except np.linalg.LinAlgError:
                delta = -np.einsum("nij,nj->ni", np.linalg.pinv(a), jtr[todo])
            norms = np.linalg.norm(delta, axis=-1)
            over = norms > LM_STEP_CAP
            if over.any():
                delta[over] *= (LM_STEP_CAP / norms[over])[:, None]
            trial = za[todo] + delta
            if retract is not None:
                trial = retract(trial)
            tres = residual(trial)
            trn = np.linalg.norm(tres, axis=-1)
            idx = np.flatnonzero(todo)
            good = trn < rn[act_idx[idx]]  # False for a non-finite trial norm
            gi = idx[good]
            z[act_idx[gi]], res[act_idx[gi]], rn[act_idx[gi]] = trial[good], tres[good], trn[good]
            accepted[gi] = True
            la[gi] = np.maximum(la[gi] * 0.3, LM_LAM_MIN)
            bi = idx[~good]
            la[bi] = np.minimum(la[bi] * 10.0, LM_LAM_MAX)
        lam[act_idx] = la
    return z, rn
