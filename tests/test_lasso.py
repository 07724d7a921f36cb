import tracemalloc
import warnings

import lasso_reference as reference
import numpy as np
import pytest

from parkcast import lasso
from parkcast.lasso import (
    _Work,
    LassoConvergenceWarning,
    LassoProblem,
    LassoSettings,
    coordinate_descent,
    fit_path_bic,
    weighted_bic,
)


def random_problem(rng, m=50, p=8, weighted=True, nonneg=False):
    X = rng.standard_normal((m, p))
    y = rng.standard_normal(m)
    w = rng.uniform(0.5, 2.0, m) if weighted else None
    return LassoProblem(y, X, weights=w, nonnegative=nonneg)


def weighted_ls(problem):
    X, y, w = problem.design, problem.response, problem.weights
    return np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))


def collinear_design(rng, m=60):
    """x1 = x0 + x2 exactly, x3 a near-copy of x0, x4 a constant."""
    X = rng.standard_normal((m, 8))
    X[:, 1] = X[:, 0] + X[:, 2]
    X[:, 3] = X[:, 0] * (1 + 1e-9)
    X[:, 4] = 1.0
    return X


def fit_grid(problem, count=100, ratio=1e-4):
    """The fit's penalty grid, or None where it is degenerate."""
    return lasso._grid(_Work(problem), LassoSettings(grid_count=count, grid_ratio=ratio))


class RowPlan:
    """The part of a design plan the fit reads: its shape, blocks of rows and whole columns."""

    def __init__(self, X):
        self.X, self.shape = X, X.shape

    def rows(self, lo, hi, out):
        out[:] = self.X[lo:hi].T

    def __getitem__(self, key):
        return self.X[key]


class TestLambdaGrid:
    def test_count_two(self):
        prob = random_problem(np.random.default_rng(0))
        grid = fit_grid(prob, count=2, ratio=0.25)
        assert grid.size == 2
        assert grid[1] == pytest.approx(grid[0] * 0.25)

    def test_single_column_stationarity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(60)
        w = rng.uniform(0.5, 2.0, 60)
        prob = LassoProblem(x.copy(), x[:, None], weights=w)
        grid = fit_grid(prob, count=3, ratio=0.1)
        assert grid[0] == pytest.approx(2.0 * abs(np.dot(w * x, x)))
        # at lambda >= lambda_max the coefficient is exactly zero
        assert coordinate_descent(prob, grid[0] * (1 + 1e-12))[0] == 0.0

    def test_weight_scaling_linearity(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        g1 = fit_grid(LassoProblem(y, X), count=4, ratio=0.5)
        g2 = fit_grid(LassoProblem(y, X, weights=np.full(40, 3.0)), count=4, ratio=0.5)
        assert g2[0] == pytest.approx(3.0 * g1[0])

    def test_zero_response_degenerate(self):
        prob = LassoProblem(np.zeros(20), np.random.default_rng(3).standard_normal((20, 4)))
        assert fit_grid(prob) is None

    def test_unpenalized_columns_residualized(self):
        # response fully explained by the unpenalized constant
        X = np.column_stack([np.ones(30), np.random.default_rng(4).standard_normal(30)])
        prob = LassoProblem(np.full(30, 7.0), X,
                            penalize_mask=np.array([False, True]))
        assert fit_grid(prob) is None


class TestCoordinateDescent:
    def test_lam0_matches_normal_equations(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            prob = random_problem(rng)
            b = coordinate_descent(prob, 0.0)
            assert np.abs(b - weighted_ls(prob)).max() < 1e-6

    def test_one_dim_closed_form(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        y = 0.8 * x + 0.1 * rng.standard_normal(40)
        w = rng.uniform(0.5, 2.0, 40)
        lam = 2.5
        prob = LassoProblem(y, x[:, None], weights=w)
        b = coordinate_descent(prob, lam)[0]
        z = np.dot(w * x, y)
        expect = np.sign(z) * max(abs(z) - lam / 2.0, 0.0) / np.dot(w * x, x)
        assert b == pytest.approx(expect, abs=1e-10)

    def test_one_dim_brute_force(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(30)
        y = -0.6 * x + 0.2 * rng.standard_normal(30)
        w = rng.uniform(0.5, 2.0, 30)
        lam = 1.0
        prob = LassoProblem(y, x[:, None], weights=w)
        b = coordinate_descent(prob, lam)[0]
        grid = np.linspace(-2.0, 2.0, 400_001)
        resid = y[:, None] - x[:, None] * grid[None, :]
        obj = (w[:, None] * resid * resid).sum(axis=0) + lam * np.abs(grid)
        assert abs(grid[np.argmin(obj)] - b) < 1e-4

    def test_nonnegative_clamps_exactly(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(40)
        y = -x + 0.01 * rng.standard_normal(40)
        prob = LassoProblem(y, x[:, None], nonnegative=True)
        b = coordinate_descent(prob, 0.5)
        assert b[0] == 0.0 and not np.signbit(b[0])

    def test_warm_start_matches_cold(self):
        rng = np.random.default_rng(14)
        prob = random_problem(rng, m=80, p=10)
        lam = reference.grid(prob, 10, 0.01)[4]
        cold = coordinate_descent(prob, lam)
        warm = reference.solve(prob, lam, warm_start=cold + rng.normal(0, 0.1, 10))
        assert np.abs(cold - warm).max() < 1e-8

    def test_duplicated_rows_leave_ls_solution(self):
        rng = np.random.default_rng(15)
        prob = random_problem(rng, m=40, p=5)
        X2 = np.vstack([prob.design, prob.design])
        y2 = np.concatenate([prob.response, prob.response])
        w2 = np.concatenate([prob.weights, prob.weights])
        b1 = coordinate_descent(prob, 0.0)
        b2 = coordinate_descent(LassoProblem(y2, X2, weights=w2), 0.0)
        assert np.abs(b1 - b2).max() < 1e-7

    def test_duplicate_columns_excluded(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(30)
        X = np.column_stack([x, x, rng.standard_normal(30)])
        b = coordinate_descent(LassoProblem(x.copy(), X), 0.1)
        assert b[1] == 0.0  # later duplicate carries no weight

    def test_collinear_columns_reach_optimum(self):
        # x1 = x0 + x2 exactly, x3 a near-copy of x0 and an unpenalized
        # constant: entering columns lie (nearly) in the active span
        rng = np.random.default_rng(17)
        X = collinear_design(rng)
        y = X[:, :3].sum(axis=1) + rng.standard_normal(60)
        mask = np.ones(8, dtype=bool)
        mask[4] = False
        for nonneg in (False, True):
            prob = LassoProblem(y, X, weights=rng.uniform(0.5, 2.0, 60),
                                nonnegative=nonneg, penalize_mask=mask)
            for lam in reference.grid(prob, 8, 1e-3):
                b = coordinate_descent(prob, lam)
                assert reference.kkt(prob, b, lam).max() <= 1e-7
                warm = reference.solve(prob, lam, warm_start=rng.standard_normal(8))
                assert (reference.objective_value(prob, warm, lam)
                        <= reference.objective_value(prob, b, lam) + 1e-9)

    def test_iteration_cap_warns(self):
        prob = random_problem(np.random.default_rng(18), m=60, p=8)
        with pytest.warns(LassoConvergenceWarning):
            coordinate_descent(prob, 0.0, max_sweeps=1)


class TestWeightedBic:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(20)
        y = rng.standard_normal(100)
        prob = LassoProblem(y, rng.standard_normal((100, 3)))
        bic, flag = weighted_bic(prob, np.zeros(3))
        assert bic == pytest.approx(100 * np.log(np.dot(y, y) / 100))
        assert not flag

    def test_df_counts_nonzeros_only(self):
        rng = np.random.default_rng(21)
        y = rng.standard_normal(50)
        X = rng.standard_normal((50, 4))
        prob = LassoProblem(y, X)
        b = np.array([0.0, 0.5, 0.0, -0.2])
        bic, _ = weighted_bic(prob, b)
        r = y - X @ b
        assert bic == pytest.approx(50 * np.log(np.dot(r, r) / 50) + 2 * np.log(50))

    def test_perfect_fit_flagged(self):
        x = np.arange(1.0, 11.0)
        prob = LassoProblem(2.0 * x, x[:, None])
        bic, flag = weighted_bic(prob, np.array([2.0]))
        assert flag and bic == -np.inf

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_one_zero_rss_rule_with_the_path(self, factor):
        # a least-squares residual whose weighted RSS is factor * m eps max(y'Wy, 1),
        # with y'Wy below 1: zero just below the bound, a score just above it
        rng = np.random.default_rng(22)
        m = 50
        X = np.column_stack([np.ones(m), rng.standard_normal(m)])
        w = rng.uniform(0.5, 2.0, m)
        r = rng.standard_normal(m)
        r -= X @ np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * r))  # W-orthogonal to X
        r *= np.sqrt(factor * m * np.finfo(float).eps / np.dot(w * r, r))
        prob = LassoProblem(1e-7 * (X @ [1.0, 0.5]) + r, X, weights=w,
                            penalize_mask=np.zeros(2, dtype=bool))
        assert float(np.dot(w * prob.response, prob.response)) < 1.0
        fit = fit_path_bic(prob)  # nothing penalized: the one point lambda = 0
        bic, zero = weighted_bic(prob, fit.coefficients)
        assert zero == fit.zero_rss == (factor < 1.0)
        if zero:
            assert bic == fit.bic_path[0] == -np.inf
        else:
            assert bic == pytest.approx(fit.bic_path[0], rel=1e-9)


class TestFitPathBic:
    def test_pure_noise_selects_mostly_nothing(self):
        rng = np.random.default_rng(30)
        empty = 0
        kept = 0
        for _ in range(10):
            prob = LassoProblem(rng.standard_normal(200),
                                rng.standard_normal((200, 6)))
            fit = fit_path_bic(prob, LassoSettings(grid_count=40))
            nz = np.count_nonzero(fit.coefficients)
            empty += nz == 0
            kept += nz
        # BIC keeps noise out of almost every fit (60 candidate columns here)
        assert empty >= 8
        assert kept <= 6

    def test_strong_signal_recovered(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((300, 10))
        beta = np.zeros(10)
        beta[[2, 7]] = (1.5, -2.0)
        y = X @ beta + 0.3 * rng.standard_normal(300)
        fit = fit_path_bic(LassoProblem(y, X))
        support = set(np.flatnonzero(fit.coefficients))
        assert {2, 7} <= support

    def test_kkt_on_selected_solution(self):
        rng = np.random.default_rng(32)
        prob = random_problem(rng, m=120, p=12)
        fit = fit_path_bic(prob, LassoSettings(grid_count=30))
        res = reference.kkt(prob, fit.coefficients, fit.selected_lambda)
        assert res.max() <= 1e-6

    def test_every_lambda_converged(self):
        rng = np.random.default_rng(35)
        prob = random_problem(rng, m=150, p=20, nonneg=True)
        settings = LassoSettings(grid_count=30, grid_ratio=1e-3)
        fit = fit_path_bic(prob, settings)
        assert fit.converged.all() and (fit.sweeps >= 1).all()
        for lam, coef in zip(fit.lambdas, fit.coef_path):
            assert reference.kkt(prob, coef, lam).max() <= 10 * settings.tol

    def test_objective_not_above_zero_start(self):
        rng = np.random.default_rng(33)
        prob = random_problem(rng, m=60, p=6)
        fit = fit_path_bic(prob)
        start = reference.objective_value(prob, np.zeros(6), fit.selected_lambda)
        assert fit.objective <= start + 1e-9

    def test_tie_break_prefers_larger_lambda(self):
        rng = np.random.default_rng(34)
        prob = LassoProblem(rng.standard_normal(50), rng.standard_normal((50, 3)))
        fit = fit_path_bic(prob, LassoSettings(grid_count=25))
        ties = np.flatnonzero(fit.bic_path == fit.bic_path[fit.selected_index])
        assert fit.selected_index == ties[0]


# LassoFit.sweeps wherever it is not 1 (knots crossed since the previous grid
# penalty, plus one), per fit of each test below; when and in what groups the
# grid penalties are checked must not move them
PINNED_SWEEPS = {
    "test_signed_with_unpenalized_intercept": [
        {1: 2, 2: 2, 9: 2, 11: 2, 16: 2, 23: 2, 39: 3, 42: 2, 48: 2, 59: 2},
        {1: 2, 10: 2, 21: 2, 31: 2, 33: 2, 43: 2, 44: 2, 46: 2, 49: 2, 50: 2, 51: 2},
        {1: 2, 12: 2, 14: 2, 18: 2, 25: 2, 29: 2, 32: 2, 46: 2, 51: 2, 54: 2, 57: 2},
    ],
    "test_nonnegative": [
        {1: 4, 2: 2, 3: 2, 4: 2, 9: 3, 13: 2, 17: 2},
        {1: 2, 2: 4, 8: 2, 9: 2, 12: 2, 15: 2, 27: 2, 38: 2},
        {1: 3, 2: 3, 7: 2, 9: 2, 14: 2, 16: 2, 18: 2, 23: 2},
    ],
    "test_nonnegative_unpenalized_column_held_at_zero": [
        {0: 9, 12: 2},
    ],
    "test_near_collinear_columns": [
        {1: 2, 38: 2, 41: 2, 64: 2, 83: 2},
        {1: 2, 14: 2, 37: 2, 38: 2, 48: 2},
    ],
    "test_knot_walk_needs_at_most_one_solve": [
        {1: 2, 5: 2, 11: 2, 14: 2, 26: 2, 28: 2, 38: 2, 49: 2, 50: 2, 63: 2, 76: 2,
         81: 3, 82: 2, 98: 2},
        {1: 2, 11: 3, 19: 2, 33: 2, 50: 2, 55: 2, 75: 2, 77: 2, 79: 2, 83: 2, 92: 2,
         96: 2},
        {1: 2, 2: 2, 4: 2, 15: 2, 35: 2, 41: 2, 49: 2, 53: 2, 76: 2, 81: 2, 83: 2,
         85: 2},
        {1: 2, 16: 2, 42: 2, 49: 2, 58: 2, 74: 2, 90: 3, 91: 2, 93: 2},
    ],
    "test_orthogonal_design_is_the_soft_threshold[False]": [
        {1: 2, 3: 2, 6: 2, 11: 2, 16: 2, 22: 2, 28: 2, 37: 2},
    ],
    "test_orthogonal_design_is_the_soft_threshold[True]": [
        {1: 2, 6: 2, 11: 2, 22: 2, 37: 2},
    ],
    "test_two_columns_entering_at_one_knot": [
        {1: 2, 6: 3, 19: 2, 32: 2},
    ],
    "test_dependent_entry_stays_blocked": [
        {1: 2, 6: 2, 18: 2, 31: 2, 36: 2, 40: 2, 85: 2},
    ],
}


class TestPathSegments:
    """The path is walked knot to knot along exact linear segments; every
    grid penalty must still match a cold solve at that penalty alone."""

    @pytest.fixture(autouse=True)
    def pinned(self, request):
        self.pinned = iter(PINNED_SWEEPS.get(request.node.name, ()))
        yield
        assert next(self.pinned, None) is None  # every pinned fit was checked

    def check_against_cold(self, prob, monkeypatch):
        """Fit the path and compare every grid penalty with a cold reference
        solve; return the fit, the walks it took (1 unless a check failed) and
        the grid steps on which the support changed."""
        settings = LassoSettings(grid_count=100, grid_ratio=1e-3)
        walks = []
        walk = lasso._walk
        monkeypatch.setattr(lasso, "_walk", lambda *a: walks.append(1) or walk(*a))
        fit = fit_path_bic(prob, settings)
        monkeypatch.undo()
        assert fit.converged.all() and (fit.sweeps >= 1).all()
        pinned = next(self.pinned, None)
        if pinned is not None:
            assert {i: int(x) for i, x in enumerate(fit.sweeps) if x != 1} == pinned
        for lam, coef, bic in zip(fit.lambdas, fit.coef_path, fit.bic_path):
            assert reference.kkt(prob, coef, lam).max() <= 10 * settings.tol
            cold = reference.solve(prob, lam, tol=settings.tol)
            assert np.abs(coef - cold).max() <= 1e-8
            assert bic == pytest.approx(weighted_bic(prob, coef)[0], rel=1e-10)
        on = fit.coef_path != 0.0
        return fit, len(walks), int((on[:-1] != on[1:]).any(axis=1).sum())

    def test_signed_with_unpenalized_intercept(self, monkeypatch):
        rng = np.random.default_rng(40)
        for _ in range(3):
            X = rng.standard_normal((120, 12))
            X[:, 0] = 1.0
            beta = np.where(rng.uniform(size=12) < 0.4, rng.normal(0, 1.5, 12), 0.0)
            y = X @ beta + rng.standard_normal(120)
            mask = np.ones(12, dtype=bool)
            mask[0] = False
            prob = LassoProblem(y, X, weights=rng.uniform(0.5, 2.0, 120),
                                penalize_mask=mask)
            fit, _, _ = self.check_against_cold(prob, monkeypatch)
            assert (fit.coef_path[:, 0] != 0.0).all()

    def test_nonnegative(self, monkeypatch):
        rng = np.random.default_rng(41)
        for _ in range(3):
            X = np.abs(rng.standard_normal((150, 10)))
            y = X @ np.abs(rng.normal(0, 0.5, 10)) + np.abs(rng.standard_normal(150))
            fit, _, _ = self.check_against_cold(LassoProblem(y, X, nonnegative=True), monkeypatch)
            assert (fit.coef_path >= 0.0).all()

    def test_nonnegative_unpenalized_column_held_at_zero(self, monkeypatch):
        rng = np.random.default_rng(46)
        X = np.abs(rng.standard_normal((150, 10)))
        y = X @ np.abs(rng.normal(0, 0.5, 10)) + np.abs(rng.standard_normal(150))
        X[:, 0] = rng.standard_normal(150) - y  # its gradient stays negative
        mask = np.ones(10, dtype=bool)
        mask[0] = False
        prob = LassoProblem(y, X, nonnegative=True, penalize_mask=mask)
        fit, walks, _ = self.check_against_cold(prob, monkeypatch)
        assert (fit.coef_path[:, 0] == 0.0).all()
        assert walks == 1

    def test_near_collinear_columns(self, monkeypatch):
        rng = np.random.default_rng(42)
        X = collinear_design(rng)
        y = X[:, :3].sum(axis=1) + rng.standard_normal(60)
        mask = np.ones(8, dtype=bool)
        mask[4] = False
        for nonneg in (False, True):
            prob = LassoProblem(y, X, weights=rng.uniform(0.5, 2.0, 60),
                                nonnegative=nonneg, penalize_mask=mask)
            self.check_against_cold(prob, monkeypatch)

    def test_knot_walk_needs_at_most_one_solve(self, monkeypatch):
        # correlated columns, so that coefficients also leave the support
        rng = np.random.default_rng(45)
        for _ in range(4):
            Z = rng.standard_normal((120, 4))
            X = Z @ rng.standard_normal((4, 10)) + 0.3 * rng.standard_normal((120, 10))
            y = X[:, 0] - X[:, 1] + rng.standard_normal(120)
            _, walks, n_changes = self.check_against_cold(LassoProblem(y, X), monkeypatch)
            assert n_changes >= 5 and walks == 1

    def test_support_losing_columns_matches_cold_solves(self, monkeypatch):
        # strongly correlated columns: columns leave the path from the front
        # and the middle of the support, not only from its end
        rng = np.random.default_rng(49)
        Z = rng.standard_normal((150, 3))
        X = Z @ rng.standard_normal((3, 14)) + 0.2 * rng.standard_normal((150, 14))
        y = X[:, 0] - 0.8 * X[:, 1] + 0.6 * X[:, 2] + rng.standard_normal(150)
        drops, drop = [], lasso._drop
        monkeypatch.setattr(lasso, "_drop",
                            lambda V, na, at: drops.append((na, at)) or drop(V, na, at))
        fit, _, _ = self.check_against_cold(LassoProblem(y, X), monkeypatch)
        assert any(na - at >= 3 for na, at in drops)  # a trailing block to downdate
        on = fit.coef_path != 0.0
        assert (on[:-1] & ~on[1:]).any()  # a column left between grid penalties

    @staticmethod
    def orthogonal_problem(rng, inner, nonneg=False):
        """Orthogonal columns with squared norms d2 and X'y = inner, so that the
        lasso solution is the soft threshold (inner -+ lam / 2) / d2."""
        Q, _ = np.linalg.qr(rng.standard_normal((80, inner.size + 1)))
        d = rng.uniform(0.5, 3.0, inner.size)
        y = Q[:, :-1] @ (inner / d) + 2.0 * Q[:, -1]
        return LassoProblem(y, Q[:, :-1] * d, nonnegative=nonneg), d * d

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_orthogonal_design_is_the_soft_threshold(self, nonneg, monkeypatch):
        rng = np.random.default_rng(47)
        inner = np.array([9.0, -7.5, 6.0, 4.2, -3.1, 2.0, -1.3, 0.7])
        prob, d2 = self.orthogonal_problem(rng, inner, nonneg)
        fit, walks, _ = self.check_against_cold(prob, monkeypatch)
        assert walks == 1
        for lam, coef in zip(fit.lambdas, fit.coef_path):
            shrunk = (inner if nonneg else np.abs(inner)) - 0.5 * lam
            expected = np.where(shrunk > 0.0, np.sign(inner) * shrunk, 0.0) / d2
            np.testing.assert_allclose(coef, expected, rtol=1e-10, atol=1e-12)
        # one knot per column that entered, and no column ever left
        assert (fit.sweeps - 1).sum() == np.count_nonzero(fit.coef_path[-1])

    def test_two_columns_entering_at_one_knot(self, monkeypatch):
        rng = np.random.default_rng(48)
        # columns 1 and 2 both reach the threshold at lam = 12, below column 0's 18
        prob, _ = self.orthogonal_problem(rng, np.array([9.0, 6.0, -6.0, 2.5, -1.0]))
        fit, walks, _ = self.check_against_cold(prob, monkeypatch)
        # the walk takes the tied entries one at a time, two knots at one penalty
        assert walks == 1 and fit.sweeps[np.argmax(fit.lambdas < 12.0)] == 3
        on = fit.coef_path != 0.0
        assert np.array_equal(on[:, 1], on[:, 2]) and on[:, 1].any() and not on[:, 1].all()

    def test_dependent_entry_stays_blocked(self, monkeypatch):
        rng = np.random.default_rng(45)
        X = rng.standard_normal((60, 8))
        X[:, 3] = X[:, 0] + 1e-7 * rng.standard_normal(60)  # a near-copy of x0
        y = X[:, 0] + 0.5 * X[:, 1] + 2e6 * (X[:, 3] - X[:, 0]) + rng.standard_normal(60)
        refused = []
        walk = lasso._walk
        monkeypatch.setattr(lasso, "_walk",
                            lambda *a: (walk(*a), refused.append(a[7].copy()))[0])
        _, walks, _ = self.check_against_cold(LassoProblem(y, X), monkeypatch)
        # the pair's Schur complement is below the floor: the entering column
        # is refused and stays out, and the walk goes on
        assert any(r[[0, 3]].any() for r in refused)
        assert walks == 1

    def test_failed_deferred_check_restarts_the_walk(self, monkeypatch):
        # the walk checks its grid penalties in one pass every _CHECK_EVERY
        # segments and once it stops; a failure there stops the walk, which
        # restarts from the penalty above the failed one and goes on
        rng = np.random.default_rng(45)
        Z = rng.standard_normal((120, 4))
        X = Z @ rng.standard_normal((4, 40)) + 0.3 * rng.standard_normal((120, 40))
        y = X[:, 0] - X[:, 1] + rng.standard_normal(120)
        fill, walk, failed, began, past, starts = lasso._fill, lasso._walk, [], [], [], []

        def failing_fill(work, lambdas, segs, *rest):
            starts.extend(lo for lo, *_ in segs)
            if not failed and segs[-1][1] - segs[0][0] > 10:
                failed.append(segs[0][0] + 7)  # its check fails at the eighth penalty
                past.append(sum(lo > failed[0] for lo, *_ in segs))
                segs = [(lo, min(hi, failed[0]), *more) for lo, hi, *more in segs
                        if lo < failed[0]]
            return fill(work, lambdas, segs, *rest)

        monkeypatch.setattr(lasso, "_fill", failing_fill)
        monkeypatch.setattr(lasso, "_walk",
                            lambda work, lambdas, li, lam, *a: began.append((li, lam))
                            or walk(work, lambdas, li, lam, *a))
        fit, walks, _ = self.check_against_cold(LassoProblem(y, X), monkeypatch)
        # one restart, at the failed penalty, from the one above it
        assert failed and walks == 2
        assert began == [(0, np.inf), (failed[0], fit.lambdas[failed[0] - 1])]
        # the failing walk recorded fewer than _CHECK_EVERY segments past the
        # failure, though the path has more than that many there
        assert past[0] < lasso._CHECK_EVERY < sum(lo > failed[0] for lo in starts) - past[0]

    def test_failed_check_restores_the_blocked_columns_of_its_segment(self, monkeypatch):
        # column 1, refused before the walk, is freed by a drop further down;
        # a check failing above that drop leaves the state it had there for the restart
        rng = np.random.default_rng(45)
        Z = rng.standard_normal((120, 4))
        X = Z @ rng.standard_normal((4, 10)) + 0.3 * rng.standard_normal((120, 10))
        work = _Work(LassoProblem(X[:, 0] - X[:, 1] + rng.standard_normal(120), X))
        lambdas = lasso._grid(work, LassoSettings(grid_ratio=1e-3))
        k, fill = work.cols.size, lasso._fill

        def walk(fail_at):
            monkeypatch.setattr(lasso, "_fill", lambda work, lambdas, segs, *rest: fill(
                work, lambdas, [(lo, min(hi, fail_at), *more) for lo, hi, *more in segs
                                if lo < fail_at], *rest))
            blocked = np.arange(k) == 1
            none = np.zeros(0, dtype=np.intp)
            li = lasso._walk(work, lambdas, 0, np.inf, none, lasso._factor(work.G, none, 0),
                             np.ones(0), blocked, np.zeros((100, k)), np.empty(100),
                             np.ones(100, dtype=int), 1e-7, 10_000)
            return li, blocked

        li, blocked = walk(100)
        assert li == 100 and not blocked.any()
        li, blocked = walk(3)
        assert li == 3 and np.array_equal(blocked, np.arange(k) == 1)

    def test_objective_is_the_path_objective(self):
        rng = np.random.default_rng(43)
        prob = random_problem(rng, m=90, p=9)
        fit = fit_path_bic(prob, LassoSettings(grid_count=40))
        assert fit.objective == pytest.approx(
            reference.objective_value(prob, fit.coefficients, fit.selected_lambda), rel=1e-10)


def stress_problem(name, nonneg):
    """One design whose columns are not in general position, or whose response
    carries no penalizable signal."""
    rng = np.random.default_rng(80 + STRESS.index(name))
    m = 60
    X, mask, w = rng.standard_normal((m, 6)), np.ones(6, dtype=bool), rng.uniform(0.5, 2.0, m)
    y = X[:, 0] - 0.6 * X[:, 1] + 0.4 * X[:, 4] + 0.5 * rng.standard_normal(m)
    if nonneg:
        X, y = np.abs(X), np.abs(y)
    if name == "negated":  # a column and its negative
        X[:, 2] = -X[:, 0]
    elif name == "dependent_triple":  # exactly dependent
        X[:, 3] = X[:, 0] + X[:, 1]
    elif name == "dependent_unpenalized":  # x and 2x, neither penalized
        X[:, 1], mask[:2] = 2.0 * X[:, 0], False
    elif name == "constant_and_zero":
        X[:, 2], X[:, 3], mask[2] = 1.0, 0.0, False
    elif name == "ties":  # orthogonal: ties at the top of the path and inside it
        inner = np.array([9.0, -9.0, 6.0, 4.0, -4.0, 1.5])
        Q, _ = np.linalg.qr(rng.standard_normal((m, 7)))
        X = Q[:, :6] * 2.0
        y = X @ ((np.abs(inner) if nonneg else inner) / 4.0) + 2.0 * Q[:, 6]
    elif name == "near_copy":  # test_dependent_entry_stays_blocked's design
        rng = np.random.default_rng(45)
        X, mask, w = rng.standard_normal((m, 8)), None, None
        X = np.abs(X) if nonneg else X
        X[:, 3] = X[:, 0] + 1e-7 * rng.standard_normal(m)  # under the _factor floor
        y = X[:, 0] + 0.5 * X[:, 1] + 2e6 * (X[:, 3] - X[:, 0]) + rng.standard_normal(m)
    elif name == "constant_panel":  # the rounding noise of a zero-RSS mean fit
        X[:, 0], mask[0] = 1.0, False
        y = 1e-15 * rng.standard_normal(m)
    return LassoProblem(y, X, weights=w, nonnegative=nonneg, penalize_mask=mask)


STRESS = ["negated", "dependent_triple", "dependent_unpenalized", "constant_and_zero",
          "ties", "near_copy", "constant_panel"]


class TestStressCorpus:
    """Designs whose columns are not in general position (Tibshirani 2013): the
    walk alone meets KKT at every grid penalty and matches the reference."""

    @staticmethod
    def check(prob, fit, tol, skip=()):
        for i, (lam, coef) in enumerate(zip(fit.lambdas, fit.coef_path)):
            if i in skip:
                continue
            assert reference.kkt(prob, coef, lam).max() <= 10 * tol, i
            cold = reference.solve(prob, lam, tol=tol)
            assert np.abs(coef - cold).max() <= 1e-8, i

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("name", STRESS)
    def test_walk_meets_kkt_and_matches_the_reference(self, name, nonneg, monkeypatch):
        prob = stress_problem(name, nonneg)
        settings = LassoSettings(grid_count=50, grid_ratio=1e-3)
        walks, walk = [], lasso._walk
        monkeypatch.setattr(lasso, "_walk", lambda *a: walks.append(1) or walk(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_path_bic(prob, settings)
            assert fit.converged.all() and len(walks) == 1  # no restart
            self.check(prob, fit, settings.tol)
        if name == "constant_panel":
            assert fit.lambdas.tolist() == [0.0]

    def test_near_copy_the_walk_cannot_follow_is_flagged(self):
        # a near-copy whose refusal the walk cannot walk past: blocked, it leaves
        # KKT residuals just above tol at the small penalties. Each such penalty
        # is flagged with one warning and keeps the walk's value, within 10 tol
        rng = np.random.default_rng(89)
        X = np.abs(rng.standard_normal((60, 6)))
        X[:, 3] = X[:, 0] + 1e-7 * rng.standard_normal(60)
        y = X[:, 0] + 0.5 * X[:, 1] + 2e6 * (X[:, 3] - X[:, 0]) + rng.standard_normal(60)
        prob = LassoProblem(y, X, weights=rng.uniform(0.5, 2.0, 60), nonnegative=True)
        settings = LassoSettings(grid_count=50, grid_ratio=1e-3)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            fit = fit_path_bic(prob, settings)
        assert len(record) == np.count_nonzero(~fit.converged)
        assert all(issubclass(r.category, LassoConvergenceWarning) for r in record)
        for lam, coef in zip(fit.lambdas, fit.coef_path):
            assert reference.kkt(prob, coef, lam).max() <= 10 * settings.tol

    def test_fill_failing_at_one_index_leaves_it_unconverged(self, monkeypatch):
        # every check of penalty 20 fails: a restart there fills nothing, so it
        # keeps the walk's value, flagged, and the walk goes on below it
        rng = np.random.default_rng(90)
        Z = rng.standard_normal((120, 4))
        X = Z @ rng.standard_normal((4, 12)) + 0.3 * rng.standard_normal((120, 12))
        prob = LassoProblem(X[:, 0] - X[:, 1] + rng.standard_normal(120), X)
        fill, bad = lasso._fill, 20

        def failing_fill(work, lambdas, segs, *rest):
            n, lo = fill(work, lambdas, segs, *rest), segs[0][0]
            return min(n, bad - lo) if lo <= bad else n

        monkeypatch.setattr(lasso, "_fill", failing_fill)
        settings = LassoSettings(grid_count=50, grid_ratio=1e-3)
        with pytest.warns(LassoConvergenceWarning) as record:
            fit = fit_path_bic(prob, settings)
        assert len(record) == 1 and f"lambda={fit.lambdas[bad]:g}" in str(record[0].message)
        assert np.flatnonzero(~fit.converged).tolist() == [bad]
        self.check(prob, fit, settings.tol)  # the walk's value at 20 is right here

    def test_knot_cap_restarts_the_walk(self):
        # at most one knot between grid penalties: a penalty past the cap is
        # taken from the segment the walk stopped on, checked, and flagged if
        # it fails; the walk restarts below it
        rng = np.random.default_rng(91)
        prob = random_problem(rng, m=80, p=10)
        settings = LassoSettings(grid_count=8, grid_ratio=1e-3, max_sweeps=0)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            fit = fit_path_bic(prob, settings)
        assert len(record) == np.count_nonzero(~fit.converged) >= 1
        assert all(issubclass(r.category, LassoConvergenceWarning) for r in record)
        self.check(prob, fit, settings.tol, skip=set(np.flatnonzero(~fit.converged)))


class TestDegenerateGrid:
    """No penalized column carries signal: ``_grid`` returns None, and
    ``fit_path_bic`` fits the one-point grid lambda = 0 on the path, with the
    penalized coefficients at zero."""

    def fit(self, prob, monkeypatch, walks=1):
        calls = []
        walk = lasso._walk
        monkeypatch.setattr(lasso, "_walk", lambda *a: calls.append(1) or walk(*a))
        fit = fit_path_bic(prob)
        assert len(calls) == walks
        assert fit.lambdas.tolist() == [0.0] and fit.selected_index == 0
        assert fit.sweeps.tolist() == [1] and fit.converged.all()
        assert np.all(fit.coefficients[prob.penalize_mask] == 0.0)
        assert np.isfinite(fit.kkt_max) and fit.kkt_max <= LassoSettings().tol
        return fit

    def check_objective_and_bic(self, prob, fit):
        assert fit.objective == pytest.approx(
            reference.objective_value(prob, fit.coefficients, 0.0), rel=1e-12)
        bic, zero = weighted_bic(prob, fit.coefficients)
        assert fit.bic_path[0] == pytest.approx(bic, rel=1e-12) and not zero
        assert not fit.zero_rss

    def test_weighted_response_with_zero_penalized_columns(self, monkeypatch):
        rng = np.random.default_rng(70)
        X = np.column_stack([np.ones(80), np.zeros((80, 3))])
        prob = LassoProblem(3.0 + rng.standard_normal(80), X,
                            weights=rng.uniform(0.5, 2.0, 80),
                            penalize_mask=np.array([False, True, True, True]))
        fit = self.fit(prob, monkeypatch)  # the walk reaches lambda = 0 at once
        assert fit.coefficients[0] == pytest.approx(
            np.average(prob.response, weights=prob.weights), rel=1e-12)
        self.check_objective_and_bic(prob, fit)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nonnegative_response(self, monkeypatch, sign):
        # a negative least-squares intercept is below the dust floor: the walk
        # starts without it and holds it at zero
        y = sign * (1.0 + np.abs(np.random.default_rng(71).standard_normal(80)))
        prob = LassoProblem(y, np.column_stack([np.ones(80), np.zeros((80, 2))]),
                            nonnegative=True, penalize_mask=np.array([False, True, True]))
        fit = self.fit(prob, monkeypatch)
        assert fit.coefficients[0] == pytest.approx(max(y.mean(), 0.0), rel=1e-12)
        self.check_objective_and_bic(prob, fit)

    @pytest.mark.parametrize("nonneg", [False, True])
    def test_all_zero_design(self, monkeypatch, nonneg):
        rng = np.random.default_rng(72)
        prob = LassoProblem(np.abs(rng.standard_normal(40)), np.zeros((40, 3)),
                            weights=rng.uniform(0.5, 2.0, 40), nonnegative=nonneg,
                            penalize_mask=np.array([False, True, True]))
        fit = self.fit(prob, monkeypatch, walks=0)  # no usable column: no walk
        assert np.all(fit.coef_path == 0.0) and fit.kkt_max == 0.0
        self.check_objective_and_bic(prob, fit)

    def test_constant_response_at_large_offset_has_zero_rss(self, monkeypatch):
        # y'Wy - c_A'w rounds far above 1e-20 y'Wy here; zero is judged at
        # the Gram's precision, m eps y'Wy
        rng = np.random.default_rng(73)
        m = 5000
        X = np.column_stack([np.ones(m), rng.standard_normal((m, 3))])
        prob = LassoProblem(np.full(m, 987.6), X,
                            penalize_mask=np.array([False, True, True, True]))
        fit = self.fit(prob, monkeypatch)
        yy = m * 987.6 ** 2
        assert fit.zero_rss and fit.bic_path[0] == -np.inf
        assert abs(fit.objective) <= m * np.finfo(float).eps * yy
        assert fit.coefficients[0] == pytest.approx(987.6, rel=1e-12)


class TestGramSetup:
    def test_duplicates_and_constants_collapse_to_first(self):
        rng = np.random.default_rng(50)
        m = 80
        x, z = rng.standard_normal(m), rng.standard_normal(m)
        ones = np.ones(m)  # first-pass volatility proxies are all ones
        X = np.column_stack([ones, x, ones, z, x, ones, np.zeros(m), x * (1 + 1e-9)])
        work = _Work(LassoProblem(x + z, X, weights=rng.uniform(0.5, 2.0, m)))
        # the near-copy at 1e-9 relative is no exact duplicate and stays
        assert work.cols.tolist() == [0, 1, 3, 7]
        fit = fit_path_bic(LassoProblem(x + z, X), LassoSettings(grid_count=20))
        assert (fit.coef_path[:, [2, 4, 5, 6]] == 0.0).all()

    @pytest.mark.parametrize("seed", [52, 53, 54])
    def test_duplicate_rule_matches_exact_compare(self, seed):
        # permutations and sign flips of one vector share its norm, so most
        # columns are duplicate candidates of each other
        rng = np.random.default_rng(seed)
        m = 60
        base = rng.standard_normal(m)
        pool = [base, -base, rng.permutation(base), rng.permutation(base), np.zeros(m)]
        X = np.column_stack([pool[k] for k in rng.integers(0, 5, 40)]
                            + [rng.standard_normal(m) for _ in range(5)])
        w = np.ones(m)
        work = _Work(LassoProblem(rng.standard_normal(m), X, weights=w))
        expect = [j for j in range(X.shape[1]) if X[:, j].any()
                  and not any(np.array_equal(X[:, i], X[:, j]) for i in range(j))]
        assert work.cols.tolist() == expect
        Xs = X[:, expect] / np.sqrt((X[:, expect] ** 2).sum(axis=0))
        np.testing.assert_allclose(work.G, Xs.T @ Xs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block", [7, lasso._PAIR_BLOCK])
    def test_equal_group_among_near_copies_matches_loop_screen(self, monkeypatch, block):
        # 30 equal columns and 30 near-copies of one vector, all of one norm
        # (the near-copies swap two entries 1e-7 apart), in shuffled order;
        # a block of 7 pairs splits candidates across blocks
        monkeypatch.setattr(lasso, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(56)
        m = 80
        v = rng.standard_normal(m)
        v[1::2] = v[0::2] + 1e-7
        swaps = []
        for k in rng.choice(m // 2, 30, replace=False):
            c = v.copy()
            c[[2 * k, 2 * k + 1]] = c[[2 * k + 1, 2 * k]]
            swaps.append(c)
        X = np.column_stack([v] * 30 + swaps + [rng.standard_normal(m) for _ in range(4)])
        X = X[:, rng.permutation(X.shape[1])]
        y = rng.standard_normal(m)
        work = _Work(LassoProblem(y, X, weights=np.ones(m)))

        # the screen as a loop over each candidate's norm neighbours
        Z = np.vstack([X.T, y])
        A = Z @ Z.T
        p = X.shape[1]
        diag = A.diagonal()[:p]
        usable = diag > 0.0
        order = np.argsort(diag)
        ends = np.searchsorted(diag[order], diag[order] * (1.0 + 4e-4), side="right")
        for a in np.flatnonzero(usable[order] & (ends > np.arange(p) + 1)):
            i, js = order[a], order[a + 1:ends[a]]
            near = diag[i] + diag[js] - 2.0 * A[i, js] <= 1e-8 * np.maximum(diag[i], diag[js])
            for lo, hi in zip(np.minimum(i, js[near]), np.maximum(i, js[near])):
                if usable[hi] and np.array_equal(X[:, lo], X[:, hi]):
                    usable[hi] = False
        assert work.cols.tolist() == np.flatnonzero(usable).tolist()
        first = min(j for j in range(p) if np.array_equal(X[:, j], v))
        assert work.cols.size == p - 29 and first in work.cols

    @pytest.mark.parametrize("p, copy", [(6, False), (6, True), (1100, False), (1100, True)])
    def test_gram_matches_direct_products(self, p, copy):
        # wider than one scaling block, with and without an excluded column
        rng = np.random.default_rng(55)
        m = 90
        X, y, w = rng.standard_normal((m, p)), rng.standard_normal(m), rng.uniform(0.5, 2.0, m)
        if copy:
            X[:, 3] = X[:, 1]
        work = _Work(LassoProblem(y, X, weights=w))
        cols = [j for j in range(p) if not (copy and j == 3)]
        assert work.cols.tolist() == cols
        Xs = X[:, cols] / np.sqrt(np.einsum("ij,ij->j", X * w[:, None], X))[cols]
        np.testing.assert_allclose(work.G, Xs.T @ (w[:, None] * Xs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(work.c, (w * y) @ Xs, rtol=1e-12)
        assert work.yy == pytest.approx(float(np.dot(w * y, y)), rel=1e-12)

    def test_grid_top_value_from_gram(self):
        rng = np.random.default_rng(51)
        m = 200
        X = rng.standard_normal((m, 7))
        X[:, 0] = 1.0
        y = 3.0 + X[:, 1:] @ rng.normal(0, 1, 6) + rng.standard_normal(m)
        w = rng.uniform(0.5, 2.0, m)
        mask = np.ones(7, dtype=bool)
        mask[0] = False
        prob = LassoProblem(y, X, weights=w, penalize_mask=mask)
        grid = fit_grid(prob, 5, 0.1)
        assert grid[0] == pytest.approx(reference.lambda_max(prob), rel=1e-12)


class TestNumpyFactors:
    """The Gram from panelled NumPy products, and the walk's inverse Cholesky
    factor V = U^-1: bordered as a column enters, downdated as one leaves."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [3, 7, 8, 9, 21])
    def test_gram_matches_materialized_products(self, p, weighted, monkeypatch):
        # panels of 8 rows of A and blocks of max(5, p + 1 - 8) rows of [X y]:
        # p below, at and above one panel, and over several panels and blocks
        monkeypatch.setattr(lasso, "_PANEL", 8)
        monkeypatch.setattr(lasso, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(lasso, "_BLOCK_ROWS", 5)
        rng = np.random.default_rng(60 + p)
        m = 61
        X, y = rng.standard_normal((m, p)), rng.standard_normal(m)
        X[:, 1], X[:, -1] = 0.0, X[:, 0]  # a zero column and an exact duplicate
        w = rng.uniform(0.5, 2.0, m) if weighted else np.ones(m)
        work = _Work(LassoProblem(y, X, weights=w if weighted else None))
        keep = [j for j in range(p) if j not in (1, p - 1)]
        assert work.cols.tolist() == keep
        Xs = X[:, keep] / np.sqrt(w @ X[:, keep] ** 2)
        G = Xs.T @ (w[:, None] * Xs)
        assert np.abs(work.G - G).max() <= 1e-12 * np.abs(G).max()
        # the diagonal panels leave values below A's diagonal; G takes its
        # lower triangle from the scaled upper one, exactly
        assert np.array_equal(work.G, work.G.T)
        c = (w * y) @ Xs
        assert np.abs(work.c - c).max() <= 1e-12 * np.abs(c).max()
        assert work.yy == pytest.approx(float(w @ y ** 2), rel=1e-12)

    @staticmethod
    def gram(rng, k):
        X = rng.standard_normal((3 * k, k)) + rng.standard_normal((3 * k, 1))
        X /= np.sqrt((X ** 2).sum(axis=0))
        return X.T @ X

    def test_factor_and_drop_keep_the_inverse_factor(self):
        rng = np.random.default_rng(61)
        k = 40
        G = self.gram(rng, k)
        cols = np.arange(k)
        V = lasso._factor(G, cols, 10)
        V = lasso._factor(G, cols, k, V=V, na=10)  # bordered on from 10 columns
        assert V.shape == (64, 64)  # grown twice from 16
        Va = V[:k, :k]
        np.testing.assert_allclose(np.linalg.cholesky(G).T @ Va, np.eye(k), rtol=0, atol=1e-12)
        cols, na = list(cols), k
        for at in (17, 0, 37, 34, 5):  # middle, first, last and third-last of 38, ...
            lasso._drop(V, na, at)
            del cols[at]
            na -= 1
            Va = V[:na, :na]
            assert np.array_equal(np.tril(Va, -1), np.zeros((na, na))) and (np.diag(Va) > 0).all()
            g = G[np.ix_(cols, cols)]
            assert np.abs(Va @ Va.T @ g - np.eye(na)).max() <= 1e-12
            # the factor of the reduced Gram is unique: V is its inverse
            np.testing.assert_allclose(np.linalg.cholesky(g).T @ Va, np.eye(na),
                                       rtol=0, atol=1e-12)

    def test_column_on_the_schur_floor_is_refused(self):
        # unit columns at squared sine s from one another: the Schur complement
        for s, refused in ((0.5e-10, True), (2e-10, False)):
            G = np.array([[1.0, np.sqrt(1.0 - s)], [np.sqrt(1.0 - s), 1.0]])
            V = lasso._factor(G, np.arange(2), 1)
            assert (lasso._factor(G, np.arange(2), 2, V=V, na=1) is None) == refused
            assert (lasso._factor(G, np.arange(2), 2) is None) == refused
            assert lasso._factor(G, np.arange(2), 2, floor=1e-6) is None

    def test_factor_refuses_indefinite_and_singular(self):
        for G in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones((3, 3))):
            assert lasso._factor(G, np.arange(G.shape[0]), G.shape[0]) is None
        V = lasso._factor(np.eye(3), np.arange(3), 0)
        assert V is not None and V.shape == (16, 16)  # an empty support


class TestStackedRows:
    """A design and response stacked as the rows of one C-ordered buffer:
    ``_Work`` accumulates their Gram from bounded row blocks."""

    @staticmethod
    def stacked(rng, m, p):
        buf = rng.standard_normal((p + 1, m))
        buf[3] = buf[1]  # an exact duplicate and a zero column
        buf[5] = 0.0
        return buf, buf[:-1].T, buf[-1]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mask", [None, "first"])
    def test_setup_matches_a_plain_copy(self, weighted, mask):
        rng = np.random.default_rng(57)
        m, p = 300, 12
        buf, X, y = self.stacked(rng, m, p)
        w = rng.uniform(0.5, 2.0, m) if weighted else np.ones(m)
        pen = None if mask is None else np.arange(p) > 0
        a = _Work(LassoProblem(y, X, weights=w, penalize_mask=pen))
        b = _Work(LassoProblem(y.copy(), X.copy(), weights=w.copy(), penalize_mask=pen))
        assert np.shares_memory(a.problem.design, buf)
        assert a.cols.tolist() == [j for j in range(p) if j not in (3, 5)]
        for name in ("scale", "cols", "G", "c", "pen_scale", "sign_fixed"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.yy == b.yy

    @pytest.mark.parametrize("weighted", [False, True])
    def test_memory_beyond_the_gram_is_one_block(self, weighted):
        rng = np.random.default_rng(58)
        m, p = 20_000, 40
        buf, X, y = self.stacked(rng, m, p)
        w = rng.uniform(0.5, 2.0, m) if weighted else None
        problem = LassoProblem(y, X, weights=w)
        rows = max(lasso._BLOCK_BYTES // (8 * (p + 1)), lasso._BLOCK_ROWS)
        assert 3 * rows < m  # the design spans more than three blocks
        gram_bytes = 2 * (p + 1) ** 2 * 8  # A = [X y]' W [X y], and G
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            work = _Work(problem)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one block, and far less than a (p + 1) x m sqrt(w)-scaled copy
        assert peak - gram_bytes < 8 * (p + 1) * rows + buf.nbytes / 8
        ww = np.ones(m) if w is None else w
        assert work.yy == pytest.approx(float(ww * y @ y), rel=1e-12)
        # the same rows handed in as a copy give the same Gram
        assert np.array_equal(_Work(LassoProblem(y.copy(), X.copy(), weights=w)).G, work.G)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("rows", ["1", "7", "m-1", "m", "2m"])
    def test_uneven_blocks_match_one_block(self, rows, weighted, monkeypatch):
        """Blocks of 1, 7 and m - 1 rows give the one-block Gram to 1e-13 of
        its largest entry, and the same path, supports and selected index."""
        rng = np.random.default_rng(59)
        m, p = 300, 12
        buf, X, y = self.stacked(rng, m, p)
        X[:, 0] = 1.0
        y += X[:, 1] * 2.0 - X[:, 4]
        w = rng.uniform(0.5, 2.0, m) if weighted else None
        problem = LassoProblem(y, X, weights=w, penalize_mask=np.arange(p) > 0)
        settings = LassoSettings(grid_count=30, grid_ratio=1e-3)
        monkeypatch.setattr(lasso, "_BLOCK_BYTES", 0)
        monkeypatch.setattr(lasso, "_BLOCK_ROWS", 2 * m)
        one, fit_one = _Work(problem), fit_path_bic(problem, settings)
        monkeypatch.setattr(lasso, "_BLOCK_ROWS", {"1": 1, "7": 7, "m-1": m - 1,
                                                   "m": m, "2m": 2 * m}[rows])
        work, fit = _Work(problem), fit_path_bic(problem, settings)
        assert work.cols.tolist() == one.cols.tolist() == [j for j in range(p) if j not in (3, 5)]
        top = np.abs(one.G).max()
        assert np.abs(work.G - one.G).max() <= 1e-13 * top
        assert np.array_equal(work.G, work.G.T)
        np.testing.assert_allclose(work.c, one.c, rtol=0, atol=1e-13 * np.abs(one.c).max())
        assert work.yy == pytest.approx(one.yy, rel=1e-13)
        np.testing.assert_allclose(work.scale, one.scale, rtol=1e-13)
        assert fit.selected_index == fit_one.selected_index
        assert np.array_equal(fit.coef_path != 0.0, fit_one.coef_path != 0.0)
        np.testing.assert_allclose(fit.coef_path, fit_one.coef_path, rtol=1e-9, atol=1e-12)


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("grid_count", 1), ("grid_ratio", 0.0), ("grid_ratio", 1.0), ("grid_ratio", np.nan),
        ("tol", 0.0), ("tol", -1.0), ("tol", np.inf), ("tol", np.nan), ("max_sweeps", -5),
    ])
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            LassoSettings(**{field: value})

    @pytest.mark.parametrize("lam, settings, message", [
        (1.0, {"tol": 0.0}, "^tol must"), (1.0, {"tol": -1.0}, "^tol must"),
        (1.0, {"max_sweeps": -5}, "^max_sweeps must"), (-1.0, {}, "^lam must"),
        (np.nan, {}, "^lam must"), (np.inf, {}, "^lam must"),
    ], ids=["tol-zero", "tol-negative", "max_sweeps-negative", "lam-negative", "lam-nan",
            "lam-inf"])
    def test_single_penalty_refuses_what_the_settings_refuse(self, lam, settings, message):
        rng = np.random.default_rng(5)
        prob = LassoProblem(rng.standard_normal(50), rng.standard_normal((50, 4)))
        with pytest.raises(ValueError, match=message):
            coordinate_descent(prob, lam, **settings)

    def test_settings_at_their_bounds_accepted(self):
        LassoSettings(grid_count=2, grid_ratio=1e-300, tol=1e-300, max_sweeps=0)

    @pytest.mark.parametrize("where", ["response", "design"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("plan", [False, True])
    def test_non_finite_input_rejected(self, where, value, plan):
        rng = np.random.default_rng(23)
        X, y = rng.standard_normal((30, 3)), rng.standard_normal(30)
        (y if where == "response" else X[:, 1])[7] = value
        prob = LassoProblem(y, RowPlan(X) if plan else X)
        for solve in (fit_path_bic, lambda prob: coordinate_descent(prob, 0.1)):
            with pytest.raises(ValueError, match="must be finite"):
                solve(prob)

    def test_bad_weights_rejected(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError):
            LassoProblem(np.ones(3), X, weights=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            LassoProblem(np.ones(3), X, weights=np.array([1.0, np.inf, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LassoProblem(np.ones(3), np.ones((4, 2)))
