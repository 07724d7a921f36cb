import numpy as np
import pytest
from scipy import optimize, signal, special

from parkcast import benchmarks
from parkcast.benchmarks import (
    BENCHMARKS,
    Arma11Fit,
    BenchmarkError,
    VarFit,
    _ARMA_GRID,
    _SCAN,
    _arma11_css,
    _arma11_lags,
    _arma11_profiled,
    _autocov,
    _recurse,
    _wppt_data,
    _yw_solve,
    _yw_system,
    arma11_forecast,
    censored_mean,
    fit_ar_yule_walker,
    fit_arma11_mle,
    fit_gwppt,
    fit_wppt,
    gwppt_forecast,
    log_ndtr,
    make_benchmark,
    ndtr,
    persistence_forecast,
    var_forecast,
    wppt_forecast,
)
from parkcast.panel import TurbinePanel


def panel_from(speed, power, labels=None):
    speed = np.asarray(speed, dtype=float)
    power = np.asarray(power, dtype=float)
    if speed.ndim == 1:
        speed, power = speed[:, None], power[:, None]
    n, d = speed.shape
    ts = 1288569600 + 600 * np.arange(n)
    labels = labels or tuple("ABCDEFGH"[:d])
    return TurbinePanel(ts, speed, power, labels,
                        np.zeros((n, d), bool), np.zeros((n, d), bool))


class TestPersistence:
    def test_carries_last_observation(self):
        p = panel_from(np.arange(10.0), np.arange(10.0) * 10)
        fc = persistence_forecast(p, origin=5, horizon=288)
        assert fc.shape == (288, 1)
        assert np.all(fc == 50.0)

    def test_constant_series_zero_error(self):
        p = panel_from(np.full(20, 3.0), np.full(20, 30.0))
        fc = persistence_forecast(p, 10, 5)
        assert np.all(fc == 30.0)


def yw_reference(gam, p):
    """Reference: order p's block-Toeplitz system built block by block and
    solved on its own; (p, m, m) lag matrices."""
    m = gam.shape[1]
    if p == 0:
        return np.zeros((0, m, m))
    big = np.empty((p * m, p * m))
    for r in range(p):
        for c in range(p):
            h = r - c
            big[r * m : (r + 1) * m, c * m : (c + 1) * m] = (
                gam[h] if h >= 0 else gam[-h].T)
    rhs = np.hstack([gam[k + 1] for k in range(p)])
    sol = np.linalg.solve(big.T, rhs.T).T
    return sol.reshape(m, p, m).swapaxes(0, 1)


def yw_sample(m, seed, n=3000):
    rng = np.random.default_rng(seed)
    x = np.zeros((n, m))
    for t in range(1, n):
        x[t] = 0.6 * x[t - 1] + 0.2 * x[t - 1, ::-1] + rng.standard_normal(m)
    return x


class TestYuleWalker:
    def test_ar2_recovery(self):
        rng = np.random.default_rng(1)
        n = 50000
        y = np.zeros(n + 200)
        for t in range(2, n + 200):
            y[t] = 0.5 * y[t - 1] + 0.3 * y[t - 2] + rng.standard_normal()
        fit = fit_ar_yule_walker(y[200:] + 7.0, max_order=8)
        assert fit.order >= 2
        assert fit.coefs[0, 0, 0] == pytest.approx(0.5, abs=0.02)
        assert fit.coefs[1, 0, 0] == pytest.approx(0.3, abs=0.02)
        assert fit.stationary

    def test_sigma_and_aic_at_chosen_order(self):
        # sigma is the residual covariance of the chosen order over the rows
        # after max_order, and aic at every order is the Gaussian AIC of
        # that order's residual covariance over the same rows
        x = yw_sample(2, 5)
        n, q = x.shape[0], 5
        fit = fit_ar_yule_walker(x, max_order=q)
        assert fit.order >= 1
        xc = x - fit.mean
        n_eff = n - q
        resid = xc[q:] - sum(xc[q - k : n - k] @ fit.coefs[k - 1].T
                             for k in range(1, fit.order + 1))
        np.testing.assert_allclose(fit.sigma, resid.T @ resid / n_eff, rtol=1e-12)
        gam = _autocov(xc, q)
        assert np.isfinite(fit.aic).all()
        for p in range(q + 1):
            coefs = yw_reference(gam, p)
            resid = xc[q:] - sum((xc[q - k : n - k] @ coefs[k - 1].T
                                  for k in range(1, p + 1)), np.zeros((n_eff, 2)))
            logdet = np.linalg.slogdet(resid.T @ resid / n_eff)[1]
            assert fit.aic[p] == pytest.approx(n_eff * logdet + 2.0 * p * 4, rel=1e-12)
        assert fit.order == int(np.argmin(fit.aic))

    @pytest.mark.parametrize("m, q", [(1, 20), (2, 12), (3, 6)])
    def test_every_order_solves_its_own_system(self, m, q):
        # each order's coefficients, read from the leading blocks of the
        # max-order system, are bit-identical to a solve of that order alone
        x = yw_sample(m, 20 + m)
        fit = fit_ar_yule_walker(x, max_order=q)
        gam = _autocov(x - fit.mean, q)
        big, rhs = _yw_system(gam)
        for p in range(1, q + 1):
            k = p * m
            got = _yw_solve(big[:k, :k], rhs[:, :k]).reshape(m, p, m).swapaxes(0, 1)
            assert np.array_equal(got, yw_reference(gam, p))
        assert fit.order >= 1
        assert np.array_equal(fit.coefs, yw_reference(gam, fit.order))

    def test_white_noise_selects_low_order(self):
        rng = np.random.default_rng(2)
        fit = fit_ar_yule_walker(rng.standard_normal(20000), max_order=6)
        if fit.order:
            assert np.abs(fit.coefs).max() < 0.03

    def test_identical_series_exercises_ridge(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000)
        # the ridge solutions predict both columns alike, and order 0's
        # covariance is singular up to rounding: no order is usable
        with pytest.warns(UserWarning, match="singular") as caught, \
                pytest.raises(BenchmarkError, match="collinear"):
            fit_ar_yule_walker(np.column_stack([x, x]), max_order=2)
        assert [str(w.message) for w in caught] == [
            "singular Yule-Walker system; ridge-regularized"] * 2

    def test_nearly_collinear_series_keep_their_orders(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000)
        fit = fit_ar_yule_walker(np.column_stack([x, x + 1e-3 * rng.standard_normal(2000)]),
                                 max_order=2)
        assert np.isfinite(fit.aic).all()

    def test_forecast_converges_to_mean(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(5000) + 11.0
        fit = fit_ar_yule_walker(y, max_order=4)
        fc = var_forecast(fit, y[-10:], 600)
        assert fc[-1, 0] == pytest.approx(fit.mean[0], abs=1e-6)

    def test_bivariate_shapes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4000, 2)).cumsum(axis=0) * 0.01 + rng.standard_normal((4000, 2))
        fit = fit_ar_yule_walker(x, max_order=3)
        fc = var_forecast(fit, x[-5:], 7)
        assert fc.shape == (7, 2)


def recursive_forecast(fit, history, horizon):
    """Reference: step the VAR recursion one lag at a time."""
    history = np.asarray(history, dtype=float).reshape(len(history), -1)
    buf = list(history - fit.mean)
    out = []
    for _ in range(horizon):
        nxt = np.zeros(fit.mean.size)
        for k in range(1, fit.order + 1):
            nxt += fit.coefs[k - 1] @ buf[-k]
        buf.append(nxt)
        out.append(nxt + fit.mean)
    return np.array(out)


def stable_var(m, order, seed, radius=0.9):
    """A VarFit with random lag matrices scaled to companion radius ``radius``."""
    rng = np.random.default_rng(seed)
    coefs = rng.standard_normal((order, m, m))
    comp = np.eye(order * m, k=-m)
    comp[:m] = np.concatenate(list(coefs), axis=1)
    rho = np.max(np.abs(np.linalg.eigvals(comp)))
    coefs *= (radius / rho) ** (np.arange(1, order + 1)[:, None, None])
    mean = rng.uniform(5.0, 50.0, m)
    return VarFit("var", order, coefs, mean, np.eye(m), np.zeros(order + 1))


class TestForecastMap:
    @staticmethod
    def fits():
        """(name, fit factory, history); a factory gives a fresh fit, so no
        forecast map is cached yet."""
        rng = np.random.default_rng(11)
        y = np.zeros(6000)
        for t in range(3, y.size):
            y[t] = 0.6 * y[t - 1] + 0.25 * y[t - 2] - 0.1 * y[t - 3] + rng.standard_normal()
        y += 30.0
        x2 = rng.standard_normal((40, 2)) + 3.0
        x4 = rng.standard_normal((40, 4)) * 4.0
        return [
            ("ar", lambda: fit_ar_yule_walker(y, max_order=8), y[-25:]),
            ("var2_near_unit_root", lambda: stable_var(2, 3, 1, radius=0.999), x2),
            ("var4", lambda: stable_var(4, 5, 2), x4),
            ("order0", lambda: VarFit("var", 0, np.zeros((0, 3, 3)), np.array([1.0, -2.0, 5.0]),
                                      np.eye(3), np.zeros(1)), x4[:, :3]),
        ]

    @staticmethod
    def check(got, ref):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    def test_matches_recursion_for_either_horizon_order(self):
        for name, make, hist in self.fits():
            for horizons in ((600, 7), (7, 600)):
                fit = make()
                assert name != "ar" or fit.order >= 2
                assert hist.shape[0] > fit.order  # history longer than p
                for h in horizons:
                    got = var_forecast(fit, hist, h)
                    assert got.shape == (h, fit.mean.size)
                    self.check(got, recursive_forecast(fit, hist, h))

    def test_order_zero_is_the_mean(self):
        fit = self.fits()[-1][1]()
        fc = var_forecast(fit, np.zeros((0, 3)), 5)
        assert np.array_equal(fc, np.tile(fit.mean, (5, 1)))

    def test_history_shorter_than_order(self):
        with pytest.raises(BenchmarkError, match="need 5 rows"):
            var_forecast(stable_var(4, 5, 2), np.zeros((4, 4)), 3)


class TestArma11:
    def test_recovery(self):
        rng = np.random.default_rng(6)
        n = 50000
        e = rng.standard_normal(n + 1)
        x = np.zeros(n + 1)
        for t in range(1, n + 1):
            x[t] = 0.7 * x[t - 1] + e[t] + 0.3 * e[t - 1]
        fit = fit_arma11_mle(x[1:] + 2.0)
        assert fit.ar == pytest.approx(0.7, abs=0.03)
        assert fit.ma == pytest.approx(0.3, abs=0.03)
        assert fit.mean == pytest.approx(2.0, abs=0.1)

    def test_pure_ar_data_gives_small_ma(self):
        rng = np.random.default_rng(7)
        n = 30000
        y = np.zeros(n)
        for t in range(1, n):
            y[t] = 0.6 * y[t - 1] + rng.standard_normal()
        fit = fit_arma11_mle(y)
        assert fit.ar == pytest.approx(0.6, abs=0.05)
        assert abs(fit.ma) < 0.05

    def test_constant_series_error(self):
        with pytest.raises(BenchmarkError, match="constant"):
            fit_arma11_mle(np.full(500, 2.0))

    def test_forecast_decays_to_mean(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(5000) + 4.0
        fit = fit_arma11_mle(y)
        fc = arma11_forecast(fit, y[-100:], 400)
        assert fc[-1] == pytest.approx(fit.mean, abs=0.05)

    @pytest.mark.parametrize("ar", [0.93, -0.6])
    def test_forecast_tail_matches_recursion(self, ar):
        fit = Arma11Fit("arma11", ar, 0.3, 12.0, 1.0)
        y = np.random.default_rng(9).standard_normal(300) + 14.0
        np.testing.assert_allclose(arma11_forecast(fit, y, 288),
                                   arma_recursion(fit, y, 288), rtol=1e-12)

    def test_one_row_history(self):
        # the only innovation is the zero initial one
        fit = Arma11Fit("arma11", 0.93, 0.3, 12.0, 1.0)
        got = arma11_forecast(fit, np.array([14.5]), 288)
        np.testing.assert_allclose(got, arma_recursion(fit, [14.5], 288), rtol=1e-12)
        assert got[0] == pytest.approx(12.0 + 0.93 * 2.5, rel=1e-15)

    @pytest.mark.parametrize("c", [0.0, 0.5, -0.5, 0.999, -0.999])
    @pytest.mark.parametrize("n", [1, _SCAN - 1, _SCAN, _SCAN + 1, 4000])
    def test_recursion_matches_lfilter(self, c, n):
        x = np.random.default_rng(n).standard_normal((3, n)) + 50.0
        want = signal.lfilter([1.0], [1.0, c], x)
        for got, ref in ((_recurse(x, c), want), (_recurse(x[1], c), want[1])):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("theta", [-0.999, -0.9, -0.3, 0.0, 0.12, 0.7, 0.999])
    @pytest.mark.parametrize("ar, ma", [(0.7, -0.4), (0.0, 0.0)])
    def test_profile_matches_the_recursion(self, ar, ma, theta):
        # the lag-sum profile against the innovations run one scan at a time:
        # the same sum of squares at its ar, and no lower one at ar +- 1e-4
        y = arma_series(ar, ma, n=600)
        css, phi = _arma11_css(_arma11_lags(y - y.mean()), theta)
        sse = [_arma11_profiled(y, min(max(p, -0.999), 0.999), theta)[1]
               for p in (phi, phi - 1e-4, phi + 1e-4)]
        assert css == pytest.approx(sse[0], rel=1e-10)
        assert sse[0] <= min(sse[1:])

    def test_lag_sums_match_direct_sums(self):
        # rows 0-5: u_p . shift(u_q, k) + u_q . shift(u_p, k); rows 6-8: u reversed
        y = arma_series(0.6, 0.2, n=150)
        x = y - y.mean()
        u = np.stack([x[1:], x[:-1], np.ones(x.size - 1)])
        lags = _arma11_lags(x)
        for row, (p, q) in enumerate(zip(*np.triu_indices(3))):
            want = [u[p] @ u[q]] + [u[p, :-k] @ u[q, k:] + u[q, :-k] @ u[p, k:]
                                    for k in range(1, u.shape[1])] + [0.0]
            np.testing.assert_allclose(lags[row], want, rtol=0, atol=1e-12 * abs(want[0]))
        np.testing.assert_array_equal(lags[6:, 1:], u[:, ::-1])
        assert not lags[6:, 0].any()

    @pytest.mark.parametrize("ar, ma", [(0.0, 0.0), (0.5, -0.49)])
    def test_near_white_noise_reaches_the_lbfgsb_objective(self, ar, ma):
        # white noise, and an ARMA(1,1) whose factors nearly cancel: the sum
        # of squares is flat along ar = -ma and has several minima there
        y = arma_series(ar, ma)
        n1 = y.size - 1
        fit = fit_arma11_mle(y)
        assert abs(fit.ar + fit.ma) < 0.1
        ref = lbfgsb_reference(y)
        assert n1 * np.log(fit.sigma2) <= ref.fun

    @pytest.mark.parametrize("ar, ma, n, seed", [
        (ar, ma, n, seed) for ar, ma in ((0.0, 0.0), (0.5, -0.45))
        for n in (200, 500) for seed in range(3)])
    def test_near_white_noise_global_minimum(self, ar, ma, n, seed):
        y = arma_series(ar, ma, n=n, seed=seed)
        fit = fit_arma11_mle(y)
        ref = lbfgsb_reference(y)
        assert (n - 1) * np.log(fit.sigma2) <= ref.fun + 1e-9 * abs(ref.fun)

    @pytest.mark.parametrize("ar, ma, n, seed", [
        (0.0, 0.0, 1000, 0), (0.0, 0.0, 1000, 28), (0.0, 0.0, 3000, 36),
        (0.0, 0.0, 3000, 38), (0.5, -0.45, 1000, 9), (0.9, -0.88, 1000, 9)])
    def test_narrow_valleys_near_the_bounds(self, ar, ma, n, seed):
        # the lowest sum of squares lies in a valley near |ma| = 1 that a
        # uniform grid, or a search of the lowest grid cell alone, misses;
        # L-BFGS-B from 49 starts finds it
        y = arma_series(ar, ma, n=n, seed=seed)
        fit = fit_arma11_mle(y)
        ref = lbfgsb_reference(y, MANY_STARTS)
        assert (n - 1) * np.log(fit.sigma2) <= ref.fun + 1e-9 * abs(ref.fun)

    @pytest.mark.parametrize("ar, ma", [(0.7, -0.4), (0.9, 0.3), (0.95, 0.12)])
    def test_fit_is_the_profile_minimum(self, ar, ma):
        # the vertex of the exact profile (the recursion's sum of squares at
        # the profiled ar) through ma +- 1e-4 lies within 1e-8 of the fit
        y = arma_series(ar, ma)
        fit = fit_arma11_mle(y)
        lags = _arma11_lags(y - y.mean())
        lo, mid, hi = (_arma11_profiled(y, _arma11_css(lags, t)[1], t)[1]
                       for t in (fit.ma - 1e-4, fit.ma, fit.ma + 1e-4))
        assert abs(0.5e-4 * (lo - hi) / (lo + hi - 2.0 * mid)) <= 1e-8

    def test_common_factor_series_below_the_local_minimum(self):
        # the local-search fit stopped near (0.60, -0.55), 2.43 above L-BFGS-B;
        # the lowest sum of squares lies on the ma bound
        y = arma_series(0.9, -0.88, n=1000, seed=15)
        with pytest.warns(UserWarning, match="stationarity boundary"):
            fit = fit_arma11_mle(y)
        assert fit.boundary and fit.ma == -0.999
        ref = lbfgsb_reference(y)
        assert 999 * np.log(fit.sigma2) <= ref.fun + 1e-9 * abs(ref.fun)
        assert 999 * fit.sigma2 < 928.45

    def test_fit_stops_early_away_from_the_common_factor(self):
        # one local minimum on the grid: one golden-section search of at most
        # 26 evaluations (its widest cell is 0.73), and the closing parabola's 2
        y = arma_series(0.9, 0.3)
        fit = fit_arma11_mle(y)
        assert fit.evaluations <= _ARMA_GRID.size + 28

    @pytest.mark.parametrize("y, ar", [(0.5 ** np.arange(200.0), 0.5),
                                       (100 * 0.9 ** np.arange(500.0) + 1, 0.9)],
                             ids=["decay", "offset-decay"])
    def test_exact_fit_stops_early(self, y, ar):
        # an exact AR(1): the sum of squares is at rounding level at every ma
        # of the grid, where the search stops
        fit = fit_arma11_mle(y)
        assert fit.evaluations == _ARMA_GRID.size and fit.ma == 0.0
        assert fit.ar == pytest.approx(ar, abs=1e-8)

    def test_random_walk_fit_at_the_bound(self):
        y = np.cumsum(np.random.default_rng(5).standard_normal(3000))
        with pytest.warns(UserWarning, match="stationarity boundary"):
            fit = fit_arma11_mle(y)
        assert fit.boundary
        assert fit.ar == pytest.approx(0.999, abs=1e-12)
        # both end at the same point on the bound, equal up to rounding
        ref = lbfgsb_reference(y)
        assert (y.size - 1) * np.log(fit.sigma2) <= ref.fun + 1e-9

    def test_forecast_reads_a_longer_history_after_a_shorter_one(self):
        # the decay powers kept on the fit grow with the history
        fit = Arma11Fit("arma11", 0.8, -0.6, 12.0, 1.0)
        y = np.random.default_rng(10).standard_normal(400) + 12.0
        for rows in (50, 400, 120):
            np.testing.assert_allclose(arma11_forecast(fit, y[-rows:], 24),
                                       arma_recursion(fit, y[-rows:], 24), rtol=1e-12)

    @pytest.mark.parametrize("ar, ma", [(0.7, -0.4), (0.9, 0.3)])
    def test_fit_matches_finite_difference_fit(self, ar, ma):
        y = arma_series(ar, ma)
        n = y.size

        def nll(params):  # the profiled likelihood alone, differenced by L-BFGS-B
            _, sse, _ = _arma11_profiled(y, *params)
            return (n - 1) * np.log(max(sse / (n - 1), 1e-300))

        ref = min((optimize.minimize(nll, x0, method="L-BFGS-B",
                                     bounds=[(-0.999, 0.999)] * 2)
                   for x0 in ((0.5, 0.0), (0.9, -0.3), (0.0, 0.5))),
                  key=lambda res: res.fun)
        fit = fit_arma11_mle(y)
        np.testing.assert_allclose([fit.ar, fit.ma, fit.mean],
                                   [*ref.x, _arma11_profiled(y, *ref.x)[0]],
                                   rtol=0, atol=1e-6)


# a 7 x 7 grid of (ar, ma) starts, evenly spaced in artanh over +-0.99
MANY_STARTS = [(a, b) for a in np.tanh(np.linspace(-1.0, 1.0, 7) * np.arctanh(0.99))
               for b in np.tanh(np.linspace(-1.0, 1.0, 7) * np.arctanh(0.99))]


def lbfgsb_reference(y, starts=((0.5, 0.0), (0.9, -0.3), (0.0, 0.5))):
    """The profiled likelihood minimized by L-BFGS-B from each start on its
    exact gradient, the (ar, ma) derivatives through scipy.signal.lfilter."""
    n1 = y.size - 1

    def nll(params):
        phi, theta = params
        mu, sse, e = _arma11_profiled(y, phi, theta)
        de = signal.lfilter([1.0], [1.0, theta],
                            np.stack([mu - y[:-1], np.concatenate(([0.0], -e[:-1]))]))
        return n1 * np.log(sse / n1), 2.0 * n1 / sse * (de @ e)

    return min((optimize.minimize(nll, x0, jac=True, method="L-BFGS-B",
                                  bounds=[(-0.999, 0.999)] * 2)
                for x0 in starts),
               key=lambda res: res.fun)


def arma_recursion(fit, y, horizon):
    """Reference: the innovations and the forecast one step at a time."""
    e = 0.0  # innovations, zero-initialized
    for t in range(1, len(y)):
        e = (y[t] - fit.mean) - fit.ar * (y[t - 1] - fit.mean) - fit.ma * e
    out = [fit.mean + fit.ar * (y[-1] - fit.mean) + fit.ma * e]
    for _ in range(horizon - 1):
        out.append(fit.mean + fit.ar * (out[-1] - fit.mean))
    return np.array(out)


def arma_series(ar, ma, n=3000, seed=12):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n + 1)
    x = np.zeros(n + 1)
    for t in range(1, n + 1):
        x[t] = ar * x[t - 1] + e[t] + ma * e[t - 1]
    return x[1:] + 5.0


def wppt_panel(n=4000, seed=9):
    rng = np.random.default_rng(seed)
    tod = np.arange(n) % 144
    speed = 5.0 + 2.0 * np.sin(2 * np.pi * tod / 144) + rng.normal(0, 0.5, n)
    power = 30.0 + 8.0 * speed + rng.normal(0, 3.0, n)
    return panel_from(speed, power)


class TestWppt:
    def test_exact_recovery_when_well_specified(self):
        # zero weight on the power lags so rewriting the target column does
        # not perturb its own regressors; the fit must then be exact
        n = 6000
        p = wppt_panel(n)
        k = 3
        coefs = np.array([2.0, 0.0, 0.0, 3.0, 0.25, 1.5, -0.8, 0.6, 0.1])
        from parkcast.benchmarks import _wppt_matrix
        rows = np.arange(1, n - k)
        X = _wppt_matrix(p, rows, 0, k)
        y = X @ coefs
        power = p.power.copy()
        power[rows + k, 0] = y
        p2 = panel_from(p.speed[:, 0], power[:, 0])
        fit = fit_wppt(p2, 0, k)
        assert np.abs(fit.coefs - coefs).max() < 1e-6

    def test_time_of_day_read_from_timestamps(self):
        # a panel that starts mid-morning: the slot comes from the clock,
        # not from the row number
        from parkcast.benchmarks import _fourier, _wppt_matrix
        from parkcast.panel import CalendarIndex
        p = wppt_panel(400)
        p = TurbinePanel(p.timestamps + 37 * 600, p.speed, p.power, p.labels,
                         p.speed_mask, p.power_mask)
        tod = CalendarIndex.from_timestamps(p.timestamps).time_of_day
        rows = np.arange(1, 300)
        for k in (1, 150):
            X = _wppt_matrix(p, rows, 0, k)
            np.testing.assert_array_equal(X[:, 5:], _fourier((tod[rows] + k) % 144))
        ks = np.arange(1, rows.size + 1)
        X = _wppt_matrix(p, rows, 0, ks)
        np.testing.assert_array_equal(X[:, 5:], _fourier((tod[rows] + ks) % 144))

    def test_fourier_terms_at_midnight(self):
        from parkcast.benchmarks import _fourier
        row = _fourier(np.array([0]))
        assert row.tolist() == [[1.0, 1.0, 0.0, 0.0]]

    def test_day_periodicity(self):
        from parkcast.benchmarks import _fourier
        assert np.allclose(_fourier(np.array([37])), _fourier(np.array([37 + 144])))

    def test_forecast_linear_in_coefficients(self):
        p = wppt_panel()
        fit = fit_wppt(p, 0, 2)
        base = wppt_forecast(fit, p, 3000)
        fit.coefs = fit.coefs * 2.0
        assert wppt_forecast(fit, p, 3000) == pytest.approx(2.0 * base)


def tobit_negloglik(params, X, y, lower, upper):
    """The censored negative log-likelihood (less its constant) in
    (beta, log sigma) and its gradient, on scipy.special.log_ndtr."""
    beta, log_sigma = params[:-1], params[-1]
    sigma = np.exp(log_sigma)
    xb = X @ beta
    mid = (y > lower) & (y < upper)
    z = (y[mid] - xb[mid]) / sigma
    nll = 0.5 * (z @ z) + mid.sum() * log_sigma
    grad = np.append(-(X[mid].T @ z) / sigma, mid.sum() - z @ z)
    for flag, point, sign in ((y <= lower, lower, 1.0), (y >= upper, upper, -1.0)):
        a = sign * (point - xb[flag]) / sigma
        log_cdf = special.log_ndtr(a)
        mills = np.exp(-0.5 * a * a - 0.5 * np.log(2 * np.pi) - log_cdf)
        nll -= log_cdf.sum()
        grad += np.append(sign * (X[flag].T @ mills) / sigma, mills @ a)
    return nll, grad


def lbfgsb_tobit(X, y, lower, upper):
    """The least ``tobit_negloglik`` L-BFGS-B reaches from fit_gwppt's start,
    the least-squares fit to the clipped targets."""
    clipped = np.clip(y, lower, upper)
    beta0, *_ = np.linalg.lstsq(X, clipped, rcond=None)
    s0 = max(float((clipped - X @ beta0).std()), 1e-3)
    res = optimize.minimize(tobit_negloglik, np.append(beta0, np.log(s0)),
                            args=(X, y, lower, upper), jac=True, method="L-BFGS-B",
                            bounds=[(None, None)] * beta0.size + [(np.log(1e-6 * s0), None)])
    return res.fun


class TestNormalCdf:
    """ndtr and log_ndtr against scipy.special wherever SciPy's value is a
    normal float, across every branch."""

    GRID = np.linspace(-38.0, 38.0, 760_001)

    @pytest.mark.parametrize("ours, theirs", [(ndtr, special.ndtr),
                                              (log_ndtr, special.log_ndtr)])
    def test_agrees_with_scipy(self, ours, theirs):
        want = theirs(self.GRID)
        normal = np.abs(want) >= np.finfo(float).tiny
        np.testing.assert_allclose(ours(self.GRID)[normal], want[normal], rtol=1e-13, atol=0)

    def test_log_ndtr_far_in_the_lower_tail(self):
        a = -np.logspace(0.0, 8.0, 80_001)
        np.testing.assert_allclose(log_ndtr(a), special.log_ndtr(a), rtol=1e-13, atol=0)


class TestGwppt:
    def test_censored_mean_against_monte_carlo(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            latent = rng.uniform(-300, 1800)
            sigma = rng.uniform(50, 500)
            lo, hi = 0.0, 1500.0
            draws = np.clip(rng.normal(latent, sigma, 10**6), lo, hi)
            se = draws.std() / 1000.0
            assert censored_mean(latent, sigma, lo, hi) == pytest.approx(
                draws.mean(), abs=4 * se)

    def test_saturated_upper_bound(self):
        assert censored_mean(2000.0, 1e-9, 0.0, 1500.0) == 1500.0

    def test_elementwise_matches_scalar_calls(self):
        latent = np.array([-400.0, 20.0, 700.0, 1490.0, 2600.0, 800.0])
        sigma = np.array([80.0, 5.0, 300.0, 40.0, 700.0, 0.0])
        got = censored_mean(latent, sigma, 0.0, 1500.0)
        assert got.shape == latent.shape
        for v, mu, s in zip(got, latent, sigma):
            assert v == pytest.approx(censored_mean(mu, s, 0.0, 1500.0), rel=1e-14)
        assert got[-1] == 800.0  # zero spread: the clipped latent
        assert censored_mean(-3.0, 0.0, 0.0, 1500.0) == 0.0

    def test_symmetric_zero(self):
        assert censored_mean(0.0, 100.0, -500.0, 500.0) == pytest.approx(0.0, abs=1e-9)

    def test_forecast_within_bounds(self):
        p = wppt_panel()
        fit = fit_gwppt(p, 0, 2, lower=0.0, upper=1500.0)
        val = gwppt_forecast(fit, p, 3500)
        assert 0.0 <= val <= 1500.0

    def test_recovers_uncensored_regression(self):
        # no censored observations: Tobit collapses to least squares, with
        # the maximum-likelihood sigma sqrt(RSS / m)
        p = wppt_panel()
        k = 2
        wfit = fit_wppt(p, 0, k)
        gfit = fit_gwppt(p, 0, k, lower=-10000.0, upper=10000.0)
        X, y = _wppt_data(p, 0, k, None)
        resid = y - X @ wfit.coefs
        assert gfit.converged
        np.testing.assert_allclose(gfit.coefs, wfit.coefs, rtol=1e-10, atol=0)
        assert gfit.sigma == pytest.approx(np.sqrt(resid @ resid / y.size), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 24, 144])
    @pytest.mark.parametrize("turbine", [0, 1])
    def test_reaches_the_censored_maximum(self, turbine, k):
        # both bounds bind, on about 40 % of the rows: the score vanishes,
        # and L-BFGS-B from the same start climbs no higher
        p, lower, upper = two_turbine_panel(), 60.0, 85.0
        fit = fit_gwppt(p, turbine, k, lower, upper, end_row=2500)
        X, y = _wppt_data(p, turbine, k, 2500)
        nll, score = tobit_negloglik(np.append(fit.coefs, np.log(fit.sigma)), X, y, lower, upper)
        assert fit.converged
        assert np.abs(score).max() <= 1e-6
        assert nll <= lbfgsb_tobit(X, y, lower, upper) + 1e-9 * abs(nll)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            fit_gwppt(wppt_panel(), 0, 1, lower=10.0, upper=5.0)

    def test_non_finite_target_refused(self):
        p = wppt_panel()
        p.power[-1, 0] = np.nan  # the last target of every horizon, in no regressor
        with pytest.raises(BenchmarkError, match="non-finite"):
            fit_gwppt(p, 0, 1, 60.0, 85.0)

    def test_iteration_cap_warns_and_flags(self, monkeypatch):
        monkeypatch.setattr(benchmarks, "_NEWTON_ITER", 1)
        with pytest.warns(UserWarning, match="did not converge"):
            fit = fit_gwppt(two_turbine_panel(), 0, 1, 60.0, 85.0, end_row=2500)
        assert not fit.converged


class TestRegistry:
    def test_ids(self):
        assert set(BENCHMARKS) == {"persistence", "ar", "bvar", "var",
                                   "arma11", "wppt", "gwppt"}

    def test_unknown_id(self):
        with pytest.raises(BenchmarkError, match="unknown"):
            make_benchmark("nope")

    @pytest.mark.parametrize("name", ["persistence", "ar", "bvar", "var", "arma11"])
    def test_adapter_surface(self, name):
        p = wppt_panel(3000)
        model = make_benchmark(name).fit(p, 2500)
        fc = model.forecast_power(p, 2600, np.array([1, 6, 24]))
        assert fc.shape == (3, 1)
        assert np.all(np.isfinite(fc))

    def test_wppt_adapters(self):
        p = wppt_panel(3000)
        for name in ("wppt", "gwppt"):
            model = make_benchmark(name).fit(p, 2500)
            fc = model.forecast_power(p, 2600, np.array([1, 4]))
            assert fc.shape == (2, 1)


def two_turbine_panel(n=3000):
    a, b = wppt_panel(n, seed=10), wppt_panel(n, seed=11)
    return panel_from(np.column_stack([a.speed[:, 0], b.speed[:, 0]]),
                      np.column_stack([a.power[:, 0], b.power[:, 0]]))


class TestAdapterValues:
    """Each adapter equals the direct fit-and-forecast calls, per turbine."""

    END, ORIGIN = 2500, 2600
    HORIZONS = np.array([1, 2, 6, 24])

    def direct(self, p, name):
        end, origin, steps = self.END, self.ORIGIN, self.HORIZONS - 1
        horizon = int(self.HORIZONS.max())
        if name == "persistence":
            return persistence_forecast(p, origin, horizon)[steps]
        if name == "var":
            fit = fit_ar_yule_walker(np.hstack([p.speed[:end], p.power[:end]]), 10)
            hist = np.hstack([p.speed[: origin + 1], p.power[: origin + 1]])
            return var_forecast(fit, hist, horizon)[steps, p.d :]
        cols = []
        for i in range(p.d):
            if name == "ar":
                fit = fit_ar_yule_walker(p.power[:end, i], 20)
                path = var_forecast(fit, p.power[: origin + 1, i], horizon)[:, 0]
            elif name == "bvar":
                both = np.column_stack([p.speed[:, i], p.power[:, i]])
                fit = fit_ar_yule_walker(both[:end], 20)
                path = var_forecast(fit, both[: origin + 1], horizon)[:, 1]
            else:  # arma11 reads every row up to the origin
                fit = fit_arma11_mle(p.power[:end, i])
                path = arma11_forecast(fit, p.power[: origin + 1, i], horizon)
            cols.append(path[steps])
        return np.column_stack(cols)

    @pytest.mark.parametrize("name", ["persistence", "ar", "bvar", "var", "arma11"])
    def test_linear_adapters_equal_direct_calls(self, name):
        p = two_turbine_panel()
        model = make_benchmark(name).fit(p, self.END)
        got = model.forecast_power(p, self.ORIGIN, self.HORIZONS)
        assert got.shape == (self.HORIZONS.size, 2)
        np.testing.assert_array_equal(got, self.direct(p, name))

    @staticmethod
    def with_stable_fits(name, d, order):
        """The adapter, holding stable VAR fits of ``order`` in place of its own."""
        model = make_benchmark(name)
        if name == "var":
            model.fit_ = stable_var(2 * d, order, 3)
        else:
            model.fits = [stable_var(1 if name == "ar" else 2, order, 4 + i)
                          for i in range(d)]
        return model

    @pytest.mark.parametrize("name, order, origin", [
        ("ar", 3, 5), ("ar", 3, 2), ("bvar", 1, 3), ("var", 1, 3), ("var", 1, 0)])
    def test_origin_before_max_order(self, name, order, origin):
        # origin < max_order - 1: the forecast reads every row up to the origin
        p = two_turbine_panel()
        model = self.with_stable_fits(name, p.d, order)
        steps, horizon = self.HORIZONS - 1, int(self.HORIZONS.max())
        r = slice(0, origin + 1)
        if name == "var":
            hist = np.hstack([p.speed[r], p.power[r]])
            want = var_forecast(model.fit_, hist, horizon)[steps, p.d :]
        else:
            hists = [p.power[r, i] if name == "ar"
                     else np.column_stack([p.speed[r, i], p.power[r, i]])
                     for i in range(p.d)]
            want = np.column_stack([var_forecast(f, h, horizon)[steps, -1]
                                    for f, h in zip(model.fits, hists)])
        got = model.forecast_power(p, origin, self.HORIZONS)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["ar", "bvar", "var"])
    def test_origin_with_fewer_rows_than_order(self, name):
        model = self.with_stable_fits(name, 2, 3)
        with pytest.raises(BenchmarkError, match="need 3 rows of history, got 2"):
            model.forecast_power(two_turbine_panel(), 1, self.HORIZONS)

    def test_arma11_at_origin_zero(self):
        p = two_turbine_panel()
        model = make_benchmark("arma11")
        model.fits = [Arma11Fit("arma11", 0.8, -0.3, 60.0, 1.0),
                      Arma11Fit("arma11", -0.4, 0.5, 70.0, 1.0)]
        want = np.column_stack([
            arma_recursion(f, p.power[:1, i], int(self.HORIZONS.max()))[self.HORIZONS - 1]
            for i, f in enumerate(model.fits)])
        got = model.forecast_power(p, 0, self.HORIZONS)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("name, kwargs", [
        ("wppt", {}),
        ("gwppt", {}),
        ("gwppt", {"lower": 60.0, "upper": 85.0}),  # both bounds bind
    ])
    def test_power_curve_adapters_equal_direct_calls(self, name, kwargs):
        p = two_turbine_panel()
        model = make_benchmark(name, **kwargs).fit(p, self.END)
        want = np.empty((self.HORIZONS.size, p.d))
        for origin in (self.ORIGIN, 2900):
            got = model.forecast_power(p, origin, self.HORIZONS)
            for h, k in enumerate(self.HORIZONS.tolist()):
                for i in range(p.d):
                    if name == "wppt":
                        want[h, i] = wppt_forecast(fit_wppt(p, i, k, self.END), p, origin)
                    else:
                        fit = fit_gwppt(p, i, k, end_row=self.END, **kwargs)
                        want[h, i] = gwppt_forecast(fit, p, origin)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
