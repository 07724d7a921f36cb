"""Reference weighted lasso solver and oracles for the path tests: KKT
residuals, the objective and the penalty grid's top, from X directly.

An active-set method at one penalty (Osborne, Presnell & Turlach 2000), on a
Gram built here from the columns of X directly, so that it shares no code
with the knot walk it checks. Like the fit, it works on columns rescaled to
unit weighted norm, and leaves zero columns and exact duplicates of earlier
columns at 0.
"""

import warnings

import numpy as np

from parkcast.lasso import LassoConvergenceWarning, LassoProblem

OBJ_SLACK = 1e-12  # float roundoff allowance for the monotonicity assertion


def usable_columns(X: np.ndarray) -> np.ndarray:
    """The nonzero columns that equal no earlier column."""
    return np.array([j for j in range(X.shape[1]) if X[:, j].any()
                     and not any(np.array_equal(X[:, i], X[:, j]) for i in range(j))],
                    dtype=np.intp)


def kkt(problem: LassoProblem, coefficients: np.ndarray, lam: float) -> np.ndarray:
    """Per-column KKT residuals on the standardized scale, from X and the
    residual directly (0 for a zero column)."""
    X, w, b = problem.design, problem.weights, np.asarray(coefficients, dtype=float)
    scale = np.sqrt(w @ X ** 2)
    nz = scale > 0.0
    g = np.zeros(X.shape[1])
    g[nz] = ((w * (problem.response - X @ b)) @ X[:, nz]) / scale[nz]
    thr = np.zeros(X.shape[1])
    thr[nz] = 0.5 * lam * problem.penalize_mask[nz] / scale[nz]
    inactive = np.maximum((g if problem.nonnegative else np.abs(g)) - thr, 0.0)
    return np.where(b != 0.0, np.abs(g - thr * np.sign(b)), inactive)


def objective_value(problem: LassoProblem, coefficients: np.ndarray, lam: float) -> float:
    support = np.flatnonzero(coefficients)
    r = problem.response - problem.design[:, support] @ coefficients[support]
    rss = float(np.dot(problem.weights * r, r))
    pen = float(np.abs(coefficients[problem.penalize_mask]).sum())
    return rss + lam * pen


def lambda_max(problem: LassoProblem) -> float:
    """The smallest penalty at which every penalized coefficient is zero:
    2 max_j |x_j' W r| over the penalized columns j, where r is the weighted
    least-squares residual of the response on the unpenalized columns."""
    X, y, w, pen = problem.design, problem.response, problem.weights, problem.penalize_mask
    r = y
    if not pen.all():
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(sw[:, None] * X[:, ~pen], sw * y, rcond=None)
        r = y - X[:, ~pen] @ beta
    return 2.0 * float(np.abs((w * r) @ X[:, pen]).max(initial=0.0))


def grid(problem: LassoProblem, count: int, ratio: float) -> np.ndarray:
    """``count`` log-spaced penalties from ``lambda_max`` down to ``ratio`` times it."""
    top = lambda_max(problem)
    return np.geomspace(top, top * ratio, count)


def solve(problem: LassoProblem, lam: float, warm_start: np.ndarray | None = None,
          tol: float = 1e-7, max_iter: int = 10_000) -> np.ndarray:
    """The lasso at penalty ``lam`` from ``warm_start`` (zeros by default);
    coefficients on the raw scale.

    Each iteration checks the KKT residuals first. While the active set is not
    optimal, it steps toward the exact solution of its KKT equations with the
    signs held fixed (repeated while that lowers the residual), stopping at the
    first zero crossing of a sign-fixed coefficient, whose column leaves. Once
    the set is optimal, the inactive column with the largest KKT residual joins
    with the sign of its gradient, moving along the ray on which the old set
    stays optimal; every step lowers the objective, which is asserted. A step
    lost in roundoff on (nearly) collinear columns is undone, and the column
    stays out.
    """
    X, y, sw = problem.design, problem.response, np.sqrt(problem.weights)
    cols = usable_columns(X)
    scale = np.sqrt(problem.weights @ X[:, cols] ** 2)
    Xs = sw[:, None] * X[:, cols] / scale
    ys = sw * y
    G, c, yy = Xs.T @ Xs, Xs.T @ ys, float(ys @ ys)
    thr = 0.5 * lam * np.where(problem.penalize_mask[cols], 1.0 / scale, 0.0)
    nonneg = problem.nonnegative
    fixed = np.ones(cols.size, dtype=bool) if nonneg else thr > 0.0

    def state(b):
        g = c - G @ b
        obj = yy - 2.0 * float(c @ b) + float(b @ G @ b) + 2.0 * float(thr @ np.abs(b))
        on = b != 0.0
        res = np.where(on, np.abs(g - thr * np.sign(b)),
                       np.maximum((g if nonneg else np.abs(g)) - thr, 0.0))
        return g, obj, res

    b = np.zeros(cols.size)
    if warm_start is not None:
        b = np.asarray(warm_start, dtype=float)[cols] * scale
        if nonneg:
            np.maximum(b, 0.0, out=b)
        if b.any() and np.linalg.eigvalsh(G[np.ix_(b != 0, b != 0)]).min() <= 1e-10:
            b[:] = 0.0  # a warm start on (nearly) collinear columns: start afresh
    active = b.nonzero()[0]
    signs = np.ones(b.size) if nonneg else np.sign(b)
    blocked = np.zeros(b.size, dtype=bool)
    slack = OBJ_SLACK * (yy + 1.0)
    g, obj, res = state(b)
    refine_res, iterations = np.inf, 0
    while True:
        converged = res.max(initial=0.0) <= tol
        if converged or iterations >= max_iter:
            break
        on = b != 0.0
        worst = res.max(where=on, initial=0.0)
        if tol < worst < refine_res:
            entered, refine_res = -1, worst
        else:
            candidates = np.where(on | blocked, 0.0, res)
            entered = int(np.argmax(candidates))
            if candidates[entered] <= tol:
                break  # only roundoff on the active set or a blocked column is left
            signs[entered] = 1.0 if nonneg else np.sign(g[entered])
            active = np.concatenate((active, [entered]))
            refine_res = np.inf
        iterations += 1
        s, ba, h = signs[active], b[active], G[np.ix_(active, active)]
        try:
            if entered >= 0:
                # H^-1 e_j = [-u; 1] / sc: the ray on which the old set stays optimal
                u = np.linalg.solve(h[:-1, :-1], h[:-1, -1])
                sc = h[-1, -1] - float(h[-1, :-1] @ u)
                v = np.concatenate((-u, [1.0])) * s[-1]
                t_max = abs(g[entered] - thr[entered] * s[-1]) / sc if sc > 0.0 else np.inf
            else:
                v = np.linalg.solve(h, g[active] - thr[active] * s)
                t_max = 1.0
        except np.linalg.LinAlgError:
            v = np.full(active.size, np.nan)
        cross = fixed[active] & (v * s < 0.0)
        reach = -ba[cross] / v[cross]
        t = min(t_max, float(np.min(reach, initial=np.inf)))
        ok = np.isfinite(t) and bool(np.all(np.isfinite(v)))
        if ok:
            b[active] = ba + t * v
            dropped = active[cross][reach <= t]
            b[dropped] = 0.0
            g_new, new_obj, res_new = state(b)
            ok = new_obj <= obj + slack
            if not ok and np.linalg.eigvalsh(h).min() > 1e-6:
                raise AssertionError("objective increased in an active-set step")
        if not ok:
            b[active] = ba
            if entered < 0:
                break
            blocked[entered] = True
            active = active[:-1]
            continue
        active = active[b[active] != 0.0]
        if dropped.size:
            refine_res = np.inf
        g, obj, res = g_new, new_obj, res_new
    if not converged:
        warnings.warn(f"reference lasso stopped without meeting tol={tol:g} at "
                      f"lambda={lam:g} after {iterations} iterations", LassoConvergenceWarning)
    b[(b != 0.0) & (np.abs(b) < 1e-3 * tol)] = 0.0  # dust far below the solver's resolution
    out = np.zeros(X.shape[1])
    out[cols] = b / scale
    return out
