"""Weighted (optionally nonnegative) lasso by an active-set method, BIC-tuned.

The objective is exactly

    f(b) = (y - X b)' diag(w) (y - X b) + lambda * sum_j penalized_j |b_j|

on the raw coefficient scale. Columns are rescaled to unit weighted norm
internally (per-coordinate thresholds carry the scale back), and returned
coefficients are on the raw scale. Each penalty is solved by an active-set
method warm-started from the previous one on the path: exact sign-fixed
KKT solves on the support, a step back to the first zero crossing, and one
vectorized gradient to find the columns that must enter (the homotopy view
of the lasso, Osborne, Presnell & Turlach 2000). Nonnegative problems hold
every sign at +, as in Lawson & Hanson's NNLS, which keeps volatility
recursions well defined.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_OBJ_SLACK = 1e-12  # float roundoff allowance for the monotonicity assertion


class DegenerateGridError(ValueError):
    """No usable penalty grid (e.g. all-zero response)."""


class LassoConvergenceWarning(UserWarning):
    pass


@dataclass
class LassoProblem:
    """One weighted lasso regression.

    ``weights`` holds the diagonal heteroscedasticity weights (all ones for
    the volatility regressions); ``penalize_mask`` marks which coefficients
    the L1 term applies to (the single constant basis column is exempt).
    """

    response: np.ndarray
    design: np.ndarray
    weights: np.ndarray | None = None
    nonnegative: bool = False
    penalize_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.response = np.asarray(self.response, dtype=float)
        self.design = np.asarray(self.design, dtype=float)
        m = self.response.shape[0]
        if self.design.ndim != 2 or self.design.shape[0] != m:
            raise ValueError("design must be (m, p) aligned with the response")
        if m == 0 or self.design.shape[1] == 0:
            raise ValueError("empty problem")
        if self.weights is None:
            self.weights = np.ones(m)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (m,):
                raise ValueError("weights must be length m")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
                raise ValueError("weights must be positive and finite")
        if self.penalize_mask is None:
            self.penalize_mask = np.ones(self.design.shape[1], dtype=bool)
        else:
            self.penalize_mask = np.asarray(self.penalize_mask, dtype=bool)
            if self.penalize_mask.shape != (self.design.shape[1],):
                raise ValueError("penalize_mask must be length p")

    @property
    def m(self) -> int:
        return self.response.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


@dataclass
class LassoFit:
    """Solution path with its BIC trace and the selected model."""

    lambdas: np.ndarray
    coef_path: np.ndarray  # (n_lambda, p), raw scale
    bic_path: np.ndarray
    selected_index: int
    sweeps: np.ndarray  # active-set iterations per lambda
    converged: np.ndarray
    objective: float
    zero_rss: bool = False
    kkt_max: float = float("nan")  # residual at the selected solution

    @property
    def selected_lambda(self) -> float:
        return float(self.lambdas[self.selected_index])

    @property
    def coefficients(self) -> np.ndarray:
        return self.coef_path[self.selected_index]


def soft_threshold(z, g):
    """sign(z) * max(|z| - g, 0); g = 0 is the identity."""
    return np.sign(z) * np.maximum(np.abs(z) - g, 0.0)


def objective_value(problem: LassoProblem, coefficients: np.ndarray, lam: float) -> float:
    r = problem.response - problem.design @ coefficients
    rss = float(np.dot(problem.weights * r, r))
    pen = float(np.abs(coefficients[problem.penalize_mask]).sum())
    return rss + lam * pen


class _Work:
    """Standardized view of a problem shared across a path fit.

    Zero-norm columns and exact duplicates of earlier columns are excluded
    from the solver (their coefficients stay 0). The Gram matrix is formed
    once when that is cheaper than working from the residuals.
    """

    def __init__(self, problem: LassoProblem):
        self.problem = problem
        X, w, y = problem.design, problem.weights, problem.response
        m, p = problem.m, problem.p
        self.scale = np.sqrt(np.einsum("ij,ij->j", X * w[:, None], X))
        usable = self.scale > 0
        seen: dict[bytes, int] = {}
        for j in range(p):
            if not usable[j]:
                continue
            key = X[:, j].tobytes()
            if key in seen:
                usable[j] = False
            else:
                seen[key] = j
        self.cols = np.flatnonzero(usable)
        s = self.scale[self.cols]
        self.Xs = X[:, self.cols] / s
        self.c = (w * y) @ self.Xs
        self.yy = float(np.dot(w * y, y))
        # per-coordinate threshold back on the raw-objective scale
        self.pen_scale = np.where(problem.penalize_mask[self.cols], 1.0 / s, 0.0)
        # coefficients that may not cross zero: all of them when nonnegative,
        # else the penalized ones (the sign of an unpenalized one is free)
        self.sign_fixed = (np.ones(self.cols.size, dtype=bool) if problem.nonnegative
                           else self.pen_scale > 0)
        k = self.cols.size
        # Gram construction is a one-off BLAS product; it pays for itself
        # unless the matrix is huge or there are more columns than rows help
        self.use_gram = 0 < k <= 2500 and m * k * k <= 4e10 and m >= k
        if self.use_gram:
            self.G = self.Xs.T @ (w[:, None] * self.Xs)

    def full_coefficients(self, b_std: np.ndarray) -> np.ndarray:
        out = np.zeros(self.problem.p)
        out[self.cols] = b_std / self.scale[self.cols]
        return out

    def gradient(self, b: np.ndarray) -> tuple[np.ndarray, float]:
        """X'W r on the standardized columns and the weighted RSS at ``b``."""
        if self.use_gram:
            g = self.c - self.G @ b
            return g, self.yy - float(np.dot(self.c, b)) - float(np.dot(b, g))
        active = np.flatnonzero(b)
        r = self.problem.response - self.Xs[:, active] @ b[active]
        wr = self.problem.weights * r
        return wr @ self.Xs, float(np.dot(wr, r))

    def gram(self, active: np.ndarray) -> np.ndarray:
        if self.use_gram:
            return self.G[active][:, active]
        xa = self.Xs[:, active]
        return xa.T @ (self.problem.weights[:, None] * xa)


def _kkt_std(work: _Work, b: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """KKT residuals per usable coordinate, on the standardized scale, from
    the gradient ``g`` = X'W r at ``b``."""
    thr = 0.5 * lam * work.pen_scale
    active = b != 0.0
    if work.problem.nonnegative:
        inactive = np.maximum(g - thr, 0.0)
    else:
        inactive = np.maximum(np.abs(g) - thr, 0.0)
    return np.where(active, np.abs(g - thr * np.sign(b)), inactive)


def _independent(gram: np.ndarray, floor: float = 1e-10) -> bool:
    """Whether unit-norm columns with this Gram matrix are numerically
    independent: each column's squared distance to the span of the ones
    before it (a squared Cholesky pivot) exceeds ``floor``."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return float(np.min(np.diag(chol))) ** 2 > floor


def _solve(work: _Work, lam: float, b: np.ndarray, tol: float, max_iter: int):
    """Active-set solve at one lambda from warm start ``b`` (standardized
    scale, updated in place; feasible, on numerically independent columns).

    Each iteration steps toward the exact solution of the KKT equations on
    the active set with the signs held fixed. If a sign-fixed coefficient
    would cross zero on the way, the step stops at the first crossing and
    that column leaves the set. Once the set is optimal, the inactive column
    with the largest KKT residual joins with the sign of its gradient, and
    the next step moves it along the ray on which the old set stays optimal
    (Osborne, Presnell & Turlach 2000); every step lowers the objective. The
    solve stops when every KKT residual is <= ``tol``.

    Returns (b, iterations, converged, weighted RSS).
    """
    thr = 0.5 * lam * work.pen_scale
    active = np.flatnonzero(b)
    signs = np.where(work.problem.nonnegative, 1.0, np.sign(b))
    blocked = np.zeros(b.size, dtype=bool)  # violators that cannot enter
    # float-roundoff allowance for the quadratic form; genuine increases are
    # orders of magnitude larger
    slack = _OBJ_SLACK * (work.yy + 1.0)
    g, rss = work.gradient(b)
    obj = rss + lam * float(np.dot(work.pen_scale, np.abs(b)))
    entered = -1  # column added by the previous iteration (last in ``active``)
    refine_res = np.inf  # active-set residual before a refinement step
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        if active.size:
            s = signs[active]
            ba = b[active]
            h = work.gram(active)
            try:
                if entered >= 0:
                    # H^-1 e_j = [-u; 1] / sc: the ray on which the old set
                    # stays optimal, followed to the objective's minimum on
                    # it, or only to a crossing if the column lies in the
                    # span of the others (sc = 0: the fit does not change
                    # along the ray, the penalty falls)
                    u = np.linalg.solve(h[:-1, :-1], h[:-1, -1])
                    sc = h[-1, -1] - float(h[-1, :-1] @ u)
                    v = np.append(-u, 1.0) * s[-1]
                    t_max = (abs(g[entered] - thr[entered] * s[-1]) / sc
                             if sc > 0.0 else np.inf)
                else:
                    # Newton step from the fresh gradient, so a repeat is an
                    # iterative refinement: G_AA v = g_A - thr_A s_A
                    v = np.linalg.solve(h, g[active] - thr[active] * s)
                    t_max = 1.0
            except np.linalg.LinAlgError:
                v = np.full(active.size, np.nan)
            cross = work.sign_fixed[active] & (v * s < 0.0)
            reach = -ba[cross] / v[cross]
            t = min(t_max, float(np.min(reach, initial=np.inf)))
            ok = np.isfinite(t) and bool(np.all(np.isfinite(v)))
            if ok:
                b[active] = ba + t * v
                dropped = active[cross][reach <= t]
                b[dropped] = 0.0
                g_new, rss_new = work.gradient(b)
                new_obj = rss_new + lam * float(np.dot(work.pen_scale, np.abs(b)))
                ok = new_obj <= obj + slack
                if not ok and _independent(h, 1e-6):
                    raise AssertionError("objective increased in an active-set step")
            if not ok:
                # on (nearly) collinear columns the step is lost in roundoff:
                # undo it, and keep a new column out
                b[active] = ba
                if entered < 0:
                    break
                blocked[entered] = True
                active = active[:-1]
                entered = -1
                continue
            active = active[b[active] != 0.0]
            entered = -1
            g, rss, obj = g_new, rss_new, new_obj
            if dropped.size:
                continue
        res = _kkt_std(work, b, g, lam)
        if np.max(res, initial=0.0) <= tol:
            converged = True
            break
        candidates = np.where((b == 0.0) & ~blocked, res, 0.0)
        j = int(np.argmax(candidates))
        if candidates[j] > tol:
            signs[j] = 1.0 if work.problem.nonnegative else np.sign(g[j])
            active = np.append(active, j)
            entered = j
            refine_res = np.inf
            continue
        # only roundoff on the active set (or a blocked column) is left:
        # refine while that still helps
        worst = float(np.max(np.where(b != 0.0, res, 0.0), initial=0.0))
        if worst <= tol or worst >= refine_res:
            break
        refine_res = worst
    if not converged:
        warnings.warn(
            f"active-set lasso stopped without meeting tol={tol:g} at "
            f"lambda={lam:g} after {iterations} iterations",
            LassoConvergenceWarning,
        )
    # razor-edge activations far below the solver's own resolution are zero
    dust = (b != 0.0) & (np.abs(b) < 1e-3 * tol)
    if dust.any():
        b[dust] = 0.0
        g, rss = work.gradient(b)
    return b, iterations, converged, rss


def coordinate_descent(
    problem: LassoProblem,
    lam: float,
    warm_start: np.ndarray | None = None,
    tol: float = 1e-7,
    max_sweeps: int = 10_000,
) -> np.ndarray:
    """Solve one weighted lasso at penalty ``lam``; coefficients on raw scale.

    The name is historical: the solver is the active-set method of
    ``_solve``, and ``max_sweeps`` caps its iterations.
    """
    work = _Work(problem)
    if warm_start is None:
        b = np.zeros(work.cols.size)
    else:
        ws = np.asarray(warm_start, dtype=float)
        b = ws[work.cols] * work.scale[work.cols]
        if problem.nonnegative:
            np.maximum(b, 0.0, out=b)
        active = np.flatnonzero(b)
        if active.size and not _independent(work.gram(active)):
            b[:] = 0.0  # a warm start on (nearly) collinear columns: start afresh
    b, _, _, _ = _solve(work, lam, b, tol, max_sweeps)
    return work.full_coefficients(b)


def _kkt_at(work: _Work, coefficients: np.ndarray, lam: float) -> np.ndarray:
    b_std = np.asarray(coefficients, dtype=float)[work.cols] * work.scale[work.cols]
    return _kkt_std(work, b_std, work.gradient(b_std)[0], lam)


def kkt_residuals(problem: LassoProblem, coefficients: np.ndarray, lam: float) -> np.ndarray:
    """Per-column KKT residuals on the standardized scale (0 for excluded
    columns); a solution is optimal iff these vanish."""
    work = _Work(problem)
    out = np.zeros(problem.p)
    out[work.cols] = _kkt_at(work, coefficients, lam)
    return out


def lambda_grid(problem: LassoProblem, count: int = 100, ratio: float = 1e-4) -> np.ndarray:
    """Descending log-spaced penalty grid.

    The top value is the smallest penalty at which every penalized
    coefficient is zero: twice the largest weighted inner product between a
    penalized column and the response residualized on the unpenalized
    columns.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    w, X, y = problem.weights, problem.design, problem.response
    unpen = ~problem.penalize_mask
    r = y
    if unpen.any():
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(sw[:, None] * X[:, unpen], sw * y, rcond=None)
        r = y - X[:, unpen] @ beta
    pen = X[:, problem.penalize_mask]
    lam_max = 2.0 * float(np.max(np.abs((w * r) @ pen), initial=0.0))
    # Cauchy-Schwarz bound on the same inner products; a top value this far
    # below it is floating-point residue, not signal
    norms = np.sqrt(np.einsum("ij,ij->j", pen * w[:, None], pen))
    bound = 2.0 * float(np.max(norms, initial=0.0)) * np.sqrt(float(np.dot(w * y, y)))
    if not np.isfinite(lam_max) or lam_max <= 1e-10 * bound or lam_max <= 0.0:
        raise DegenerateGridError(
            "no usable penalty grid (response carries no penalizable signal)"
        )
    return np.geomspace(lam_max, lam_max * ratio, count)


def weighted_bic(problem: LassoProblem, coefficients: np.ndarray):
    """m log(RSS_w / m) + df log(m) with df = number of nonzero coefficients.

    A perfect fit (zero weighted RSS up to float roundoff) returns the
    (-inf, True) sentinel; callers must treat that as a flag, not a score.
    """
    m = problem.m
    r = problem.response - problem.design @ coefficients
    rss = float(np.dot(problem.weights * r, r))
    df = int(np.count_nonzero(coefficients))
    scale = float(np.dot(problem.weights * problem.response, problem.response))
    if rss <= 1e-20 * max(scale, 1.0):
        return -np.inf, True
    return m * np.log(rss / m) + df * np.log(m), False


@dataclass
class LassoSettings:
    grid_count: int = 100
    grid_ratio: float = 1e-4
    tol: float = 1e-7
    max_sweeps: int = 10_000  # cap on active-set iterations per lambda


def fit_path_bic(problem: LassoProblem, settings: LassoSettings | None = None) -> LassoFit:
    """Warm-started active-set solves along the descending grid; pick the BIC minimizer,
    breaking ties toward the larger penalty (sparser model)."""
    settings = settings or LassoSettings()
    lambdas = lambda_grid(problem, settings.grid_count, settings.grid_ratio)
    work = _Work(problem)
    nlam = lambdas.size
    coef_path = np.zeros((nlam, problem.p))
    bic_path = np.empty(nlam)
    sweeps = np.zeros(nlam, dtype=int)
    converged = np.zeros(nlam, dtype=bool)
    zero_rss = False
    b = np.zeros(work.cols.size)
    m = problem.m
    rss_floor = 1e-20 * max(work.yy, 1.0)
    for li, lam in enumerate(lambdas):
        b, n_sw, ok, rss = _solve(work, lam, b, settings.tol, settings.max_sweeps)
        coef_path[li] = work.full_coefficients(b)
        sweeps[li] = n_sw
        converged[li] = ok
        df = int(np.count_nonzero(b))
        if rss <= rss_floor:
            bic_path[li] = -np.inf
            zero_rss = True
        else:
            bic_path[li] = m * np.log(rss / m) + df * np.log(m)
    selected = int(np.argmin(bic_path))  # first occurrence = largest lambda
    objective = objective_value(problem, coef_path[selected], float(lambdas[selected]))
    kkt_max = float(np.max(_kkt_at(work, coef_path[selected], float(lambdas[selected])),
                           initial=0.0))
    return LassoFit(
        lambdas=lambdas,
        coef_path=coef_path,
        bic_path=bic_path,
        selected_index=selected,
        sweeps=sweeps,
        converged=converged,
        objective=objective,
        zero_rss=zero_rss,
        kkt_max=kkt_max,
    )
