"""Weighted (optionally nonnegative) lasso path, walked knot to knot, BIC-tuned.

The objective is exactly

    f(b) = (y - X b)' diag(w) (y - X b) + lambda * sum_j penalized_j |b_j|

on the raw coefficient scale, solved from [X y]' W [X y] summed over row blocks by
NumPy products (Friedman, Hastie & Tibshirani 2010's covariance form). Columns are
rescaled to unit weighted norm internally (per-coordinate thresholds carry the scale
back), and returned coefficients are on the raw scale. On a fixed support and signs
the path is affine in the penalty, so it is walked exactly from knot to knot, where
one column enters or leaves (the lasso homotopy: Osborne, Presnell & Turlach 2000;
Efron et al. 2004), on the inverse of the support's Cholesky factor. The walk is the
only solver. Columns need not be in general position (Tibshirani 2013): tied events
are taken one at a time, a column in the span of the support stays out, and every
grid penalty is checked against its KKT conditions; a failed check restarts the walk
from the last checked penalty. Nonnegative problems hold every sign at +, as in
Lawson & Hanson's NNLS, which keeps volatility recursions well defined.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

_TIE = 1e-12  # relative gap within which two knots, or a knot and a grid penalty, coincide
_PAIR_BLOCK = 1 << 16  # norm-neighbour column pairs screened at once for duplicates
_BLOCK_BYTES = 1 << 21  # one row block of [X y]' as _Work accumulates it
_BLOCK_ROWS = 1024  # the fewest rows per block, so a wide one amortizes its (p+1)^2 update
_PANEL = 512  # rows of A per product while _Work accumulates it
_CHECK_EVERY = 16  # segments a path walk records between checks of their grid penalties


class DegenerateGridError(ValueError):
    """No usable penalty grid (e.g. all-zero response); ``fit_path_bic`` fits
    such a problem at lambda = 0 instead."""


class LassoConvergenceWarning(UserWarning):
    pass


@dataclass
class LassoProblem:
    """One weighted lasso regression.

    ``weights`` holds the diagonal heteroscedasticity weights (all ones for
    the volatility regressions); ``penalize_mask`` marks which coefficients
    the L1 term applies to (the single constant basis column is exempt).
    ``design`` is an (m, p) array or a plan with its ``shape``, ``rows`` and ``[:, k]``
    (``design.DesignPlan``): the fit reads blocks of rows and a few whole columns.
    """

    response: np.ndarray
    design: np.ndarray
    weights: np.ndarray | None = None
    nonnegative: bool = False
    penalize_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.response = np.asarray(self.response, dtype=float)
        if not hasattr(self.design, "rows"):  # an array, not a plan
            self.design = np.asarray(self.design, dtype=float)
        m = self.response.shape[0]
        if len(self.design.shape) != 2 or self.design.shape[0] != m:
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

    def rows(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Rows lo..hi of [X y] times sqrt(w), transposed into C-ordered ``out``."""
        if isinstance(self.design, np.ndarray):
            out[:-1] = self.design[lo:hi].T
        else:
            self.design.rows(lo, hi, out[:-1])
        out[-1] = self.response[lo:hi]
        if not np.all(self.weights[lo:hi] == 1.0):
            out *= np.sqrt(self.weights[lo:hi])

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
    sweeps: np.ndarray  # per lambda: knots walked since the previous one, plus one
    converged: np.ndarray
    objective: float
    zero_rss: bool
    kkt_max: float  # residual at the selected solution

    @property
    def selected_lambda(self) -> float:
        return float(self.lambdas[self.selected_index])

    @property
    def coefficients(self) -> np.ndarray:
        return self.coef_path[self.selected_index]


def objective_value(problem: LassoProblem, coefficients: np.ndarray, lam: float) -> float:
    support = np.flatnonzero(coefficients)
    r = problem.response - problem.design[:, support] @ coefficients[support]
    rss = float(np.dot(problem.weights * r, r))
    pen = float(np.abs(coefficients[problem.penalize_mask]).sum())
    return rss + lam * pen


class _Work:
    """Scales, G = X'WX, c = X'Wy and y'Wy on the standardized columns, all from
    A = [X y]' W [X y], the only pass over the m rows: each row block Z of ``_BLOCK_BYTES``
    (at least ``_BLOCK_ROWS``, or p + 1 - ``_PANEL``, rows) adds Z Z' to A's upper
    triangle ``_PANEL`` rows at a time, by a NumPy self-product (a syrk) and a product
    right of it, and G is made symmetric from its upper triangle as it is scaled. Zero
    columns and exact duplicates of earlier columns are excluded (their coefficients
    stay 0): a pair is flagged when ||x_i - x_j||^2_W = G_ii + G_jj - 2 G_ij <=
    1e-8 max(G_ii, G_jj) and confirmed by an exact column compare, so a near-copy stays
    usable. Such a pair's norms agree to 1e-4, so only neighbours in norm order are
    tested. Memory: a block and a panel (at most (p + 1)^2), then A and G, O(p^2) each.
    """

    def __init__(self, problem: LassoProblem):
        self.problem = problem
        X, p, m = problem.design, problem.p, problem.m
        rows = min(m, max(_BLOCK_BYTES // (8 * (p + 1)), _BLOCK_ROWS, p + 1 - _PANEL))
        buf, A = np.empty((p + 1) * rows), np.zeros((p + 1, p + 1))
        panel = np.empty(min(_PANEL, p + 1) * (p + 1))
        for lo in range(0, m, rows):
            Z = buf[:(p + 1) * (min(lo + rows, m) - lo)].reshape(p + 1, -1)
            problem.rows(lo, lo + Z.shape[1], Z)
            for r in range(0, p + 1, _PANEL):  # A[r:e, r:] += Z[r:e] Z[r:]'
                e = min(r + _PANEL, p + 1)
                out = A[r:e, r:] if lo == 0 else panel[:(e - r) * (p + 1 - r)].reshape(e - r, -1)
                np.matmul(Z[r:e], Z[r:e].T, out=out[:, :e - r])
                np.matmul(Z[r:e], Z[e:].T, out=out[:, e - r:])
                if lo:
                    A[r:e, r:] += out
        del buf, panel, Z, out  # with the views that would keep them alive
        diag = A.diagonal()[:p]
        usable = diag > 0.0
        order = np.argsort(diag)
        ends = np.searchsorted(diag[order], diag[order] * (1.0 + 4e-4), side="right")
        # each pair of norm-order positions a < b < ends[a], ordered by a, then b; in blocks
        cand = np.flatnonzero(usable[order] & (ends > np.arange(p) + 1))
        last = np.cumsum(ends[cand] - cand - 1)  # one past each candidate's last pair
        offset = last - ends[cand]  # pair k of candidate c sits at position k - offset[c]
        n_pairs = int(last[-1]) if cand.size else 0
        for k0 in range(0, n_pairs, _PAIR_BLOCK):
            k = np.arange(k0, min(k0 + _PAIR_BLOCK, n_pairs))
            c = np.searchsorted(last, k, side="right")
            i, j = order[cand[c]], order[k - offset[c]]
            i, j = np.minimum(i, j), np.maximum(i, j)  # A's upper triangle
            near = diag[i] + diag[j] - 2.0 * A[i, j] <= 1e-8 * np.maximum(diag[i], diag[j])
            for lo, hi in zip(i[near], j[near]):
                if usable[hi] and np.array_equal(X[:, lo], X[:, hi]):
                    usable[hi] = False  # the later of two equal columns
        self.scale = np.sqrt(diag)
        self.cols = np.flatnonzero(usable)
        s = self.scale[self.cols]
        self.c = A[self.cols, p] / s
        self.G = G = A[np.ix_(self.cols, self.cols)]  # upper triangle: cols ascend
        for r in range(0, s.size, 512):  # in row blocks: no k x k temporary
            rs = slice(r, r + 512)
            G[rs, :r] = G[:r, rs].T  # from rows already scaled
            G[rs, r:] /= np.outer(s[rs], s[r:])
            G[rs, rs] = np.triu(G[rs, rs]) + np.triu(G[rs, rs], 1).T
        self.yy = float(A[p, p])
        # per-coordinate threshold back on the raw-objective scale
        self.pen_scale = np.where(problem.penalize_mask[self.cols], 1.0 / s, 0.0)
        # coefficients that may not cross zero: all of them when nonnegative,
        # else the penalized ones (the sign of an unpenalized one is free)
        self.sign_fixed = (np.ones(self.cols.size, dtype=bool) if problem.nonnegative
                           else self.pen_scale > 0)

    def gram(self, active: np.ndarray) -> np.ndarray:
        return self.G.take(active, 0).take(active, 1)


def _kkt_std(work: _Work, b: np.ndarray, lam: float) -> np.ndarray:
    """KKT residuals per usable coordinate at ``b``, on the standardized scale."""
    g = work.c - work.G @ b  # X'W r
    thr = 0.5 * lam * work.pen_scale
    active = b != 0.0
    if work.problem.nonnegative:
        inactive = np.maximum(g - thr, 0.0)
    else:
        inactive = np.maximum(np.abs(g) - thr, 0.0)
    return np.where(active, np.abs(g - thr * np.sign(b)), inactive)


def coordinate_descent(problem: LassoProblem, lam: float, tol: float = 1e-7,
                       max_sweeps: int = 10_000) -> np.ndarray:
    """Solve one weighted lasso at penalty ``lam``: the path walked to the
    one-point grid [lam]; coefficients on the raw scale. The name is historical,
    and ``max_sweeps`` is the walk's knot cap."""
    work = _Work(problem)
    b = _path(work, np.array([float(lam)]), np.zeros(work.cols.size, bool), tol, max_sweeps)[0]
    coefficients = np.zeros(problem.p)
    coefficients[work.cols] = b[0] / work.scale[work.cols]
    return coefficients


def kkt_residuals(problem: LassoProblem, coefficients: np.ndarray, lam: float) -> np.ndarray:
    """Per-column KKT residuals on the standardized scale (0 for excluded
    columns); a solution is optimal iff these vanish."""
    work = _Work(problem)
    out = np.zeros(problem.p)
    b = np.asarray(coefficients, dtype=float)[work.cols] * work.scale[work.cols]
    out[work.cols] = _kkt_std(work, b, lam)
    return out


def _grid(work: _Work, count: int, ratio: float, tol: float = 1e-7) -> np.ndarray:
    if count < 2:
        raise ValueError("count must be >= 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    pen = work.pen_scale > 0.0
    unpen = np.flatnonzero(~pen)
    g = work.c
    if unpen.size:
        # the response residualized on the unpenalized columns (Gram block)
        beta, *_ = np.linalg.lstsq(work.gram(unpen), g[unpen], rcond=None)
        g = g - work.G[:, unpen] @ beta
    lam_max = 2.0 * float(np.max(np.abs(g[pen]) * work.scale[work.cols][pen], initial=0.0))
    # where no penalized gradient exceeds tol, b_pen = 0 meets KKT at every penalty
    if not (np.isfinite(lam_max) and np.max(np.abs(g[pen]), initial=0.0) > tol):
        raise DegenerateGridError("no usable penalty grid (no penalizable signal above tol)")
    return np.geomspace(lam_max, lam_max * ratio, count)


def lambda_grid(problem: LassoProblem, count: int = 100, ratio: float = 1e-4) -> np.ndarray:
    """Descending log-spaced penalty grid.

    The top value is the smallest penalty at which every penalized
    coefficient is zero: twice the largest weighted inner product between a
    penalized column and the response residualized on the unpenalized
    columns, taken from the Gram matrix. ``DegenerateGridError`` where no
    penalized column's standardized inner product exceeds tol = 1e-7.
    """
    return _grid(_Work(problem), count, ratio)


def weighted_bic(problem: LassoProblem, coefficients: np.ndarray):
    """m log(RSS_w / m) + df log(m) with df = number of nonzero coefficients.

    A perfect fit (zero weighted RSS up to float roundoff) returns the
    (-inf, True) sentinel; callers must treat that as a flag, not a score.
    """
    m = problem.m
    rss = objective_value(problem, coefficients, 0.0)
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
    max_sweeps: int = 10_000  # cap on the knots walked between two grid penalties


def _fill(work: _Work, lambdas: np.ndarray, segs: list, path: np.ndarray,
          rss: np.ndarray, sweeps: np.ndarray, tol: float) -> int:
    """Fill the grid penalties of the segments ``_walk`` recorded, segment
    (lo, hi, knots since the previous one, ...) holding lambdas[lo:hi]. All
    are written and checked at once (KKT, and the dust floor on the sign-fixed
    support); those before the first failure are counted."""
    lo, hi, crossed, q0, dq, free, sup, sfix, w, v, a, bq, _ = zip(*segs)
    at = np.repeat(np.arange(len(segs)), np.subtract(hi, lo))
    lw, free = lambdas[lo[0]:lo[0] + at.size, None], np.array(free)[at]
    q = np.array(q0)[at] + lw * np.array(dq)[at]
    # |q| on the support; off it |q| - lam pen / 2 (q - lam pen / 2 if nonnegative)
    res = ((np.where(free, q, np.abs(q)) if work.problem.nonnegative else np.abs(q))
           - lw * np.where(free, 0.5 * work.pen_scale, 0.0))
    # b_A = w - lam v, scattered to full width; sf: the sign of a sign-fixed b_j, else 0
    wf, vf, sf = np.zeros((3, len(segs), work.c.size))
    rows, cols = np.repeat(np.arange(len(segs)), [x.size for x in sup]), np.concatenate(sup)
    wf[rows, cols], vf[rows, cols], sf[rows, cols] = map(np.concatenate, (w, v, sfix))
    ba, sb = wf[at] - lw * vf[at], sf[at]
    ok = (res.max(axis=1) <= tol) & ((ba * sb > 1e-3 * tol) | (sb == 0.0)).all(axis=1)
    n = at.size if ok.all() else int(np.argmin(ok))
    path[lo[0]:lo[0] + at.size] = ba
    # weighted RSS y'Wy - 2 c_A'b_A + b_A'G_AA b_A = y'Wy - c_A'w + lam^2 v'G_AA v
    rss[lo[0]:lo[0] + at.size] = np.array(a)[at] + lw[:, 0] ** 2 * np.array(bq)[at]
    first = np.array(lo) < lo[0] + n  # segments with a penalty filled
    sweeps[np.array(lo)[first]] = np.array(crossed)[first] + 1
    return n


def _check(work: _Work, lambdas: np.ndarray, segs: list, li: int, blocked: np.ndarray,
           path: np.ndarray, rss: np.ndarray, sweeps: np.ndarray, tol: float) -> int:
    """Fill the segments ``_walk`` recorded from grid index ``li`` on
    (``_fill``); return the first index not filled. On a failure ``blocked``
    is restored as it stood at the failing segment."""
    li += _fill(work, lambdas, segs, path, rss, sweeps, tol)
    if li < segs[-1][1]:  # a check failed inside a segment
        blocked[:] = next(seg[-1] for seg in segs if seg[0] <= li < seg[1])
    return li


def _factor(G: np.ndarray, act: np.ndarray, n: int, floor: float = 1e-10,
            V: np.ndarray | None = None, na: int = 0):
    """V = U^-1 for the upper Cholesky factor U of G_AA, A = act[:n], or None unless each
    column's squared distance to the span of those before it (a squared pivot) exceeds
    ``floor``. Given V for act[:na], it borders act[na:n], each j by r = V'G_Aj,
    rho^2 = G_jj - r'r and the column (-V r / rho, 1 / rho), in a buffer that doubles."""
    V = np.empty((16, 16)) if V is None else V
    for i in range(na, n):
        Vi, j = V[:i, :i], act[i]
        r = Vi.T @ G[j, act[:i]]
        schur = G[j, j] - r @ r
        if schur <= floor:
            return None
        V = np.pad(V, (0, i)) if i == V.shape[0] else V
        rho = np.sqrt(schur)
        V[:i, i], V[i, :i], V[i, i] = Vi @ r / -rho, 0.0, 1.0 / rho
    return V


def _drop(V: np.ndarray, na: int, at: int) -> None:
    """Remove column ``at`` of V = U^-1 in V[:na, :na], in place: for v = V[at, at:], G_AA^-1
    becomes P (I - v'v / vv') P' with P = V less row ``at``. V[:at, :at] stays; P's trailing
    columns M turn by the orthonormal basis of v's complement with column c in e_0..e_{c+1},
    M[:, c+1] n_c / n_{c+1} - M[:, :c+1] v[:c+1] v[c+1] / (n_c n_{c+1}) for n_c = ||v[:c+1]||."""
    v, M = V[at, at:na], V[:na, at:na]
    n = np.sqrt(np.cumsum(v * v))
    MQ = M[:, 1:] * (n[:-1] / n[1:]) - np.cumsum(M * v, axis=1)[:, :-1] * (v[1:] / (n[:-1] * n[1:]))
    V[:at, at:na - 1], V[at:na - 1, at:na - 1] = MQ[:at], MQ[at + 1:]


def _walk(work: _Work, lambdas: np.ndarray, li: int, lam: float, active: np.ndarray,
          s: np.ndarray, blocked: np.ndarray, path: np.ndarray, rss: np.ndarray,
          sweeps: np.ndarray, tol: float, cap: int) -> int:
    """Fill the path from lambdas[li] on, walking down from penalty ``lam`` on
    support ``active`` (which ``_factor`` accepts) with signs ``s``; return the
    first grid index not filled. Between knots b_A = w - lam v, with
    G_AA [w v] = [c_A, pen_A s_A / 2], and q = gradient - lam pen s / 2 =
    q0 + lam dq. The next knot is the largest penalty where a free column's
    |q_j| (q_j if nonnegative) reaches lam pen_j / 2 or a sign-fixed b_j
    reaches 0; the column enters (``_factor`` borders V = U^-1 for U'U = G_AA,
    a solve is V (V' rhs)) or leaves (``_drop``). Tied events are taken one at
    a time, at one penalty. A column whose Schur complement is on the
    ``_factor`` floor lies in the span of the support: it stays out,
    ``blocked`` until a column leaves, and the walk goes on. The grid
    penalties above a knot, or within ``_TIE`` below, belong to its segment,
    whose (q0, dq, w, v, support, signs, knot count) is recorded; past ``cap``
    knots the segment also takes the next grid penalty, and the walk stops.
    Every ``_CHECK_EVERY`` segments, and once the walk stops, ``_check``
    checks the recorded penalties in one pass; the walk stops at the first
    that fails."""
    G, c, half, fixed = work.G, work.c, 0.5 * work.pen_scale, work.sign_fixed
    nonneg, nlam, k, na = work.problem.nonnegative, lambdas.size, work.c.size, active.size
    # the support, its signs and [c_A, pen_A s_A / 2]; a column enters at the end
    act, sg, rhs = np.empty(k, dtype=np.intp), np.empty(k), np.empty((k, 2), order="F")
    act[:na], sg[:na], rhs[:na, 0], rhs[:na, 1] = active, s, c[active], half[active] * s
    free = np.isin(np.arange(k), active, invert=True)
    enter = free & ~blocked
    sides = np.array([[1.0]]) if nonneg else np.array([[1.0], [-1.0]])
    events = np.empty((sides.size, k))
    rising, V = (-lambdas).tolist(), _factor(G, act, na)
    crossed = 0  # knots since the last grid penalty
    segs, end = [], li  # the segments holding grid penalties; the grid index they reach
    while True:
        active, s, Va = act[:na], sg[:na], V[:na, :na]
        sol = rhs[:na].T @ Va @ Va.T  # [w v]' = [c_A, pen_A s_A / 2]' V V'
        (w, v), qd = sol, sol @ G[active]  # rows = columns: G is symmetric
        q0, dq = c - qd[0], qd[1]
        dq[active] -= rhs[:na, 1]
        # each column's event: +-q crosses lam pen / 2 or b_A s reaches 0; at most lam
        den = half - sides * dq
        events.fill(-np.inf)
        np.divide(sides * q0, den, out=events, where=enter & (den > 0.0))
        drop = fixed[active] & (v * s < 0.0)
        if drop.any():
            events[0, active[drop]] = w[drop] / v[drop]
        np.minimum(events, lam, out=events)
        side, j = divmod(int(events.argmax()), k)
        knot, capped = max(float(events[side, j]), 0.0), crossed > cap
        stop = bisect.bisect_right(rising, -knot * (1.0 - _TIE), end)
        if capped:
            stop = max(stop, end + 1)
        if stop > end:
            segs.append((end, stop, crossed, q0, dq, free.copy(), active.copy(),
                         s * fixed[active], w, v, work.yy - rhs[:na, 0] @ w,
                         rhs[:na, 1] @ v, blocked.copy()))
            crossed, end = 0, stop
            if len(segs) == _CHECK_EVERY:
                li, segs = _check(work, lambdas, segs, li, blocked, path, rss, sweeps, tol), []
                if li < end:
                    return li
        if knot == 0.0 or end == nlam or capped:
            break
        lam = knot
        if free[j]:
            act[na], sg[na] = j, 1.0 - 2.0 * side
            U = _factor(G, act, na + 1, V=V, na=na)
            if U is None:  # refused: no knot, the support stays
                blocked[j] = True
            else:
                V, rhs[na], free[j] = U, (c[j], half[j] * sg[na]), False
                na, crossed = na + 1, crossed + 1
        else:
            at = int(np.flatnonzero(active == j)[0])
            _drop(V, na, at)
            for buf in act, sg, rhs:
                buf[at:na - 1] = buf[at + 1:na]
            na, crossed = na - 1, crossed + 1
            free[j], blocked[:] = True, False  # the span shrank
        enter = free & ~blocked
    return _check(work, lambdas, segs, li, blocked, path, rss, sweeps, tol) if segs else li


def _accept(G: np.ndarray, cols: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """The columns of ``cols`` that ``_factor`` accepts in turn; the rest lie in
    the span of those before them and are ``blocked``."""
    act, V, na = cols.copy(), None, 0
    for j in cols:
        act[na] = j
        U = _factor(G, act, na + 1, V=V, na=na)
        if U is None:
            blocked[j] = True
        else:
            V, na = U, na + 1
    return act[:na]


def _path(work: _Work, lambdas: np.ndarray, blocked: np.ndarray, tol: float, cap: int):
    """The walk over ``lambdas``: b on the standardized scale, the weighted RSS,
    sweeps and convergence flags per penalty. It starts above the grid from the
    unpenalized columns ``_accept`` takes (if nonnegative, those whose start
    coefficient is above the 1e-3 tol dust floor). A failed check or the knot
    cap restarts it from the last filled penalty with a fresh factor; where a
    restart fills nothing, that penalty keeps the walk's value, unconverged, and
    the walk goes on below it. A problem with no usable column has b = 0."""
    nlam, k, nonneg = lambdas.size, work.cols.size, work.problem.nonnegative
    path, rss = np.zeros((nlam, k)), np.full(nlam, work.yy)
    sweeps, converged = np.ones(nlam, dtype=int), np.ones(nlam, dtype=bool)
    li, lam, stuck = 0, np.inf, -1  # stuck: where a restart begins
    while k and li < nlam:
        cols = np.flatnonzero(path[li - 1] if li else work.pen_scale == 0.0)
        active = _accept(work.G, cols, blocked)
        if nonneg and not li:
            active = active[np.linalg.solve(work.gram(active), work.c[active]) > 1e-3 * tol]
        s = np.sign(path[li - 1, active]) if li and not nonneg else np.ones(active.size)
        start, li = li, _walk(work, lambdas, li, lam, active, s, blocked, path, rss, sweeps,
                              tol, cap)
        if li == start == stuck:
            converged[li] = False
            warnings.warn(f"lasso path walk failed its KKT check (tol={tol:g}) at "
                          f"lambda={lambdas[li]:g}", LassoConvergenceWarning)
            li += 1
        stuck, lam = li, lambdas[li - 1] if li else np.inf
    return path, rss, sweeps, converged


def fit_path_bic(problem: LassoProblem, settings: LassoSettings | None = None) -> LassoFit:
    """Exact lasso path along the descending grid (``_path``); pick the BIC
    minimizer, breaking ties toward the larger penalty (sparser model). Where no
    penalized column carries signal (``DegenerateGridError``) the grid is the one
    point lambda = 0, which the walk reaches at once with the penalized columns
    held out: the least-squares fit on the unpenalized columns."""
    settings = settings or LassoSettings()
    tol, work = settings.tol, _Work(problem)
    blocked = np.zeros(work.cols.size, dtype=bool)  # refused as dependent on the support
    try:
        lambdas = _grid(work, settings.grid_count, settings.grid_ratio, tol)
    except DegenerateGridError:
        lambdas, blocked = np.zeros(1), work.pen_scale > 0.0
    nlam = lambdas.size
    path, rss, sweeps, converged = _path(work, lambdas, blocked, tol, settings.max_sweeps)
    m = problem.m
    # zero at the Gram's precision: y'Wy - c_A'w rounds by up to m eps y'Wy, the
    # worst case of the m-term sums behind both (a y'Wy below 1 counts as 1)
    zero = rss <= m * np.finfo(float).eps * max(work.yy, 1.0)
    df = np.count_nonzero(path, axis=1)
    bic_path = np.where(zero, -np.inf, m * np.log(np.maximum(rss, 1e-300) / m) + df * np.log(m))
    selected = int(np.argmin(bic_path))  # first occurrence = largest lambda
    lam_sel = float(lambdas[selected])
    coef_path = np.zeros((nlam, problem.p))
    coef_path[:, work.cols] = path / work.scale[work.cols]
    b_sel = path[selected]
    objective = float(rss[selected]) + lam_sel * float(np.dot(work.pen_scale, np.abs(b_sel)))
    kkt_max = float(np.max(_kkt_std(work, b_sel, lam_sel), initial=0.0))
    return LassoFit(lambdas, coef_path, bic_path, selected, sweeps, converged, objective,
                    zero_rss=bool(zero.any()), kkt_max=kkt_max)
