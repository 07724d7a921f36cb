import tracemalloc

import numpy as np
import pytest
from conftest import NAN, NO_THR, tiny_config, two_turbine_truth

import parkcast.forecast as pf
from parkcast.basis import interaction_basis
from parkcast.design import (
    EQUATIONS,
    FAMILY_SOURCE,
    DesignContext,
    FamilySpec,
    IndexSets,
    build_design,
    compute_threshold_set,
    regressor_from_meta,
)
from parkcast.forecast import (
    ForecastError,
    Forecaster,
    bootstrap_forecast,
    point_forecast,
    simulate_synthetic,
)
from parkcast.lasso import LassoProblem
from parkcast.model import FittedJointModel, Term
from parkcast.panel import CalendarIndex, TurbinePanel
from parkcast.presets import example_generator


def const_model_terms(d=1, speed_ar=0.0, intercept=0.0, power_terms=()):
    terms = {}
    for i in range(d):
        sm = [Term("const", -1, 0, NAN, -1, False, intercept)]
        if speed_ar:
            sm.append(Term("speed_ar", i, 1, NO_THR, -1, False, speed_ar))
        terms[("speed_mean", i)] = sm
        terms[("power_mean", i)] = list(power_terms) or [
            Term("const", -1, 0, NAN, -1, False, 0.0)]
        terms[("speed_vol", i)] = [Term("const", -1, 0, NAN, -1, False, 1.0)]
        terms[("power_vol", i)] = [Term("const", -1, 0, NAN, -1, False, 1.0)]
    return terms


def model_from_terms(terms, panel, trim=5):
    """Wrap explicit coefficients in a forecastable model with benign state."""
    from parkcast.model import FittedJointModel

    n, d = panel.speed.shape
    pool = np.full((50, d), 0.0)
    return FittedJointModel(
        labels=panel.labels,
        trim=trim,
        k_max=1,
        vol_floor_fraction=1e-3,
        diurnal=tiny_config().diurnal,
        annual=tiny_config().annual,
        anchor_epoch=1262304000,
        terms=terms,
        timestamps=panel.timestamps.copy(),
        state={"E": np.zeros((n, d)), "Ep": np.zeros((n, d)),
               "Sv": np.ones((n, d)), "Pv": np.ones((n, d))},
        floors={"Sv": np.full(d, 1e-6), "Pv": np.full(d, 1e-6)},
        pools={"E": pool, "Ep": pool.copy()},
    )


def flat_panel(n=300, d=1, speed=6.0, power=60.0):
    ts = 1288569600 + 600 * np.arange(n)
    return TurbinePanel(ts, np.full((n, d), speed), np.full((n, d), power),
                        tuple("ABCD"[:d]),
                        np.zeros((n, d), bool), np.zeros((n, d), bool))


class TestPointForecast:
    def test_pure_ar1_one_step(self):
        panel = flat_panel()
        phi = 0.75
        model = model_from_terms(const_model_terms(speed_ar=phi), panel)
        fc = point_forecast(model, panel, origin=200, horizon=3)
        w0 = 6.0
        assert fc.speed_point[0, 0] == pytest.approx(phi * w0)
        assert fc.speed_point[1, 0] == pytest.approx(phi**2 * w0)
        assert fc.speed_point[2, 0] == pytest.approx(phi**3 * w0)

    def test_constant_intercept_everywhere(self):
        panel = flat_panel()
        model = model_from_terms(const_model_terms(intercept=3.25), panel)
        fc = point_forecast(model, panel, origin=100, horizon=48)
        assert np.allclose(fc.speed_point, 3.25)

    def test_threshold_power_curve_evaluated_at_forecast_speed(self):
        # power model: piecewise-linear curve of the current speed only
        panel = flat_panel(speed=7.0)
        curve = [
            Term("const", -1, 0, NAN, -1, False, 1.0),
            Term("speed_reg", 0, 0, NO_THR, -1, False, 2.0),
            Term("speed_reg", 0, 0, 5.0, -1, False, 4.0),
            Term("speed_reg", 0, 0, 9.0, -1, False, -1.5),
        ]
        terms = const_model_terms(speed_ar=0.9, power_terms=curve)
        model = model_from_terms(terms, panel)
        fc = point_forecast(model, panel, origin=250, horizon=4)

        def piecewise(w):
            return 1.0 + 2.0 * w + 4.0 * max(w, 5.0) - 1.5 * max(w, 9.0)

        for h in range(4):
            w = fc.speed_point[h, 0]
            assert fc.power_point[h, 0] == pytest.approx(piecewise(w))

    def test_no_lookahead(self, small_panel, small_model):
        origin = 4000
        fc_a = point_forecast(small_model, small_panel, origin, 24)
        mutated = TurbinePanel(
            small_panel.timestamps,
            small_panel.speed.copy(), small_panel.power.copy(),
            small_panel.labels,
            np.zeros_like(small_panel.speed, bool),
            np.zeros_like(small_panel.speed, bool),
        )
        mutated.speed[origin + 1 :] += 50.0
        mutated.power[origin + 1 :] += 500.0
        fc_b = point_forecast(small_model, mutated, origin, 24)
        assert np.array_equal(fc_a.speed_point, fc_b.speed_point)
        assert np.array_equal(fc_a.power_point, fc_b.power_point)

    def test_origin_without_history_rejected(self):
        panel = flat_panel()
        model = model_from_terms(const_model_terms(), panel, trim=5)
        with pytest.raises(ForecastError, match="history"):
            point_forecast(model, panel, 2, 4)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_non_positive_horizon_rejected(self, horizon):
        panel = flat_panel()
        fore = Forecaster(model_from_terms(const_model_terms(), panel), panel)
        with pytest.raises(ForecastError, match=f"horizon must be >= 1, got {horizon}"):
            fore.point(200, horizon)
        with pytest.raises(ForecastError, match=f"horizon must be >= 1, got {horizon}"):
            fore.bootstrap(200, horizon, 100)
        with pytest.raises(ForecastError, match=f"horizon must be >= 1, got {horizon}"):
            fore.point_batch([200, 210], horizon)

    def test_lag_beyond_history_rejected(self):
        # a lag longer than the model's history window must not read
        # another variable's rows
        panel = flat_panel()
        terms = const_model_terms()
        terms[("speed_mean", 0)].append(Term("speed_ar", 0, 7, NO_THR, -1, False, 0.5))
        model = model_from_terms(terms, panel, trim=5)
        with pytest.raises(ForecastError, match="history"):
            point_forecast(model, panel, 200, 4)


class TestBootstrapForecast:
    def test_degenerate_pool_gives_flat_fan(self):
        panel = flat_panel()
        model = model_from_terms(const_model_terms(intercept=2.0), panel)
        model.pools["E"][:] = 0.5  # every draw identical
        model.pools["Ep"][:] = 0.5
        with pytest.warns(UserWarning, match="n_paths"):
            fc = bootstrap_forecast(model, panel, 200, 6, n_paths=99, seed=1)
        for h in range(6):
            assert np.ptp(fc.speed_quantiles[h, 0]) == 0.0

    def test_seed_reproducibility_bit_exact(self, small_panel, small_model):
        a = bootstrap_forecast(small_model, small_panel, 5000, 12, 150, seed=9)
        b = bootstrap_forecast(small_model, small_panel, 5000, 12, 150, seed=9)
        assert np.array_equal(a.speed_quantiles, b.speed_quantiles)
        assert np.array_equal(a.power_quantiles, b.power_quantiles)
        assert np.array_equal(a.power_point, b.power_point)

    def test_different_seed_differs(self, small_panel, small_model):
        a = bootstrap_forecast(small_model, small_panel, 5000, 6, 150, seed=1)
        b = bootstrap_forecast(small_model, small_panel, 5000, 6, 150, seed=2)
        assert not np.array_equal(a.power_quantiles, b.power_quantiles)

    def test_quantiles_monotone(self, small_panel, small_model):
        fc = bootstrap_forecast(small_model, small_panel, 5000, 24, 200, seed=3)
        for q in (fc.speed_quantiles, fc.power_quantiles):
            assert np.all(np.diff(q, axis=2) >= 0.0)

    def test_median_close_to_point_on_symmetric_noise(self, small_panel, small_model):
        fc = bootstrap_forecast(small_model, small_panel, 5000, 6, 2000, seed=4)
        pt = point_forecast(small_model, small_panel, 5000, 6)
        med = fc.speed_quantiles[:, :, 49]
        sd = (fc.speed_quantiles[:, :, 83] - fc.speed_quantiles[:, :, 15]) / 2.0
        assert np.all(np.abs(med - pt.speed_point) < 4.0 * sd / np.sqrt(2000) * 10 + 0.05)

    def test_volatility_paths_nonnegative(self, small_panel, small_model):
        fc = bootstrap_forecast(small_model, small_panel, 5990, 8, 300, seed=5)
        assert np.all(np.isfinite(fc.power_quantiles))

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_non_positive_path_count_rejected(self, n_paths):
        panel = flat_panel()
        fore = Forecaster(model_from_terms(const_model_terms(), panel), panel)
        with pytest.raises(ForecastError, match=f"n_paths must be >= 1, got {n_paths}"):
            fore.bootstrap(200, 4, n_paths)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 64, True])
    def test_bad_seed_rejected(self, small_panel, small_model, seed):
        with pytest.raises(ForecastError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            bootstrap_forecast(small_model, small_panel, 5000, 4, 100, seed)

    def test_empty_pool_rejected(self):
        panel = flat_panel()
        model = model_from_terms(const_model_terms(), panel)
        model.pools["E"] = model.pools["E"][:0]
        with pytest.raises(ForecastError, match="pool"):
            bootstrap_forecast(model, panel, 200, 4, 200, seed=0)

    def test_mean_matches_point_for_linear_model_symmetric_pool(self):
        # linear recursions, constant volatility, exactly symmetric pool:
        # the mean over paths estimates the plug-in forecast
        panel = flat_panel()
        model = model_from_terms(const_model_terms(speed_ar=0.7, intercept=1.0),
                                 panel)
        model.pools["E"] = np.repeat([[0.6], [-0.6]], 25, axis=0)
        model.pools["Ep"] = np.zeros_like(model.pools["E"])
        n_paths = 4000
        bs = bootstrap_forecast(model, panel, 250, 8, n_paths, seed=2)
        pt = point_forecast(model, panel, 250, 8)
        # path SD grows with horizon; allow 3 standard errors of the mean
        sd = (bs.speed_quantiles[:, :, 83] - bs.speed_quantiles[:, :, 15]) / 2.0
        tol = 3.0 * sd / np.sqrt(n_paths)
        assert np.all(np.abs(bs.speed_point - pt.speed_point) <= tol + 1e-12)


class TestSimulate:
    def test_zero_coefficients_iid_noise_around_intercepts(self):
        terms = const_model_terms(intercept=4.0)
        panel = simulate_synthetic(tiny_config(), terms, n=20000, seed=1,
                                   labels=("A",))
        w = panel.speed[:, 0]
        assert w.mean() == pytest.approx(4.0, abs=0.05)
        # unit volatility, standard normal innovations
        assert w.std() == pytest.approx(1.0, abs=0.05)
        lag1 = np.corrcoef(w[1:], w[:-1])[0, 1]
        assert abs(lag1) < 0.03

    def test_ar1_autocorrelation(self):
        terms = const_model_terms(speed_ar=0.9)
        with pytest.warns(UserWarning, match="negative wind speed readings"):
            panel = simulate_synthetic(tiny_config(), terms, n=50000, seed=2,
                                       labels=("A",))
        w = panel.speed[:, 0]
        lag1 = np.corrcoef(w[1:], w[:-1])[0, 1]
        assert lag1 == pytest.approx(0.9, abs=0.02)

    def test_seeded_reproducibility(self):
        terms = two_turbine_truth()
        a = simulate_synthetic(tiny_config(), terms, n=500, seed=7)
        b = simulate_synthetic(tiny_config(), terms, n=500, seed=7)
        assert np.array_equal(a.speed, b.speed)
        assert np.array_equal(a.power, b.power)

    def test_instability_detected(self):
        terms = const_model_terms(speed_ar=1.2, intercept=5.0)
        with pytest.raises(ForecastError, match="unstable"):
            simulate_synthetic(tiny_config(), terms, n=4000, seed=3, labels=("A",))

    @pytest.mark.parametrize("fold_elems", [200, pf._FOLD_ELEMS])
    def test_instability_names_first_step(self, monkeypatch, fold_elems):
        # 200 elements folds 100 steps per block here, so the step lies three
        # blocks in; speed never reads the power shocks, whose draws depend on n
        monkeypatch.setattr(pf, "_FOLD_ELEMS", fold_elems)
        terms = const_model_terms(speed_ar=1.05, intercept=5.0)
        with pytest.raises(ForecastError, match="unstable recursion at step 330$"):
            simulate_synthetic(tiny_config(), terms, n=4000, seed=3, labels=("A",),
                               burn_in=0)
        # steps 0 .. 329 stay inside +-1e9
        panel = simulate_synthetic(tiny_config(), terms, n=330, seed=3, labels=("A",),
                                   burn_in=0)
        assert np.abs(panel.speed).max() <= 1e9

    @pytest.mark.parametrize("speed_ar, intercept, step", [
        (1e200, 5.0, 1),  # overflows to inf, then NaN, later in the same block
        (0.5, float("nan"), 0),  # never leaves +-1e9, but is not finite
    ])
    def test_non_finite_values_are_unstable(self, speed_ar, intercept, step):
        terms = const_model_terms(speed_ar=speed_ar, intercept=intercept)
        with pytest.raises(ForecastError, match=f"unstable recursion at step {step}$"):
            simulate_synthetic(tiny_config(), terms, n=400, seed=3, labels=("A",),
                               burn_in=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 64, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ForecastError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            simulate_synthetic(tiny_config(), two_turbine_truth(), n=10, seed=seed)

    @pytest.mark.parametrize("size", [{"n": 0}, {"n": -5}, {"burn_in": -1}, {"labels": ()}])
    def test_bad_size_rejected(self, size):
        kwargs = {"n": 10, "burn_in": 0, **size}
        with pytest.raises(ForecastError, match="need n >= 1, burn_in >= 0"):
            simulate_synthetic(tiny_config(), two_turbine_truth(), seed=1, **kwargs)


class TestForecasterAlignment:
    def test_misaligned_panel_rejected(self, small_panel, small_model):
        shifted = TurbinePanel(
            small_panel.timestamps + 600,
            small_panel.speed, small_panel.power, small_panel.labels,
            np.zeros_like(small_panel.speed, bool),
            np.zeros_like(small_panel.speed, bool),
        )
        with pytest.raises(ForecastError, match="align"):
            Forecaster(small_model, shifted)

    def test_filtering_extends_state(self, small_panel):
        # fit on a prefix, then forecast past the training end
        from parkcast.model import fit_joint_model

        cfg = tiny_config()
        prefix = TurbinePanel(
            small_panel.timestamps[:4500],
            small_panel.speed[:4500], small_panel.power[:4500],
            small_panel.labels,
            np.zeros((4500, 2), bool), np.zeros((4500, 2), bool),
        )
        model = fit_joint_model(prefix, cfg)
        fore = Forecaster(model, small_panel)
        fc = fore.point(5500, 12)
        assert np.all(np.isfinite(fc.power_point))
        # state covered through the requested origin
        assert fore.covered_through >= 5500


# ---------------------------------------------------------------------------
# the compiled engine against a plain per-term recursion


def _lin(x, c):
    return max(x, c) if np.isfinite(c) else x


def _keep(x, c):
    return x


def _pos(x, c):
    return max(x, 0.0)


def _neg(x, c):
    return max(-x, 0.0)


# (equation, family) -> (state variable, transform of the lagged value)
REFERENCE_SOURCE = {
    ("speed_mean", "speed_ar"): ("W", _lin),
    ("speed_mean", "speed_ma"): ("E", _keep),
    ("power_mean", "power_ar"): ("P", _lin),
    ("power_mean", "speed_reg"): ("W", _lin),
    ("power_mean", "power_ma"): ("Ep", _keep),
    ("power_mean", "speed_err"): ("E", _keep),
    ("speed_vol", "pos_shock"): ("E", _pos),
    ("speed_vol", "neg_shock"): ("E", _neg),
    ("speed_vol", "vol_lag"): ("Sv", _keep),
    ("power_vol", "pos_shock"): ("Ep", lambda x, c: np.cbrt(_pos(x, c))),
    ("power_vol", "neg_shock"): ("Ep", lambda x, c: np.cbrt(_neg(x, c))),
    ("power_vol", "vol_lag"): ("Pv", _keep),
    ("power_vol", "speed_pos_shock"): ("E", lambda x, c: np.cbrt(_pos(x, c))),
    ("power_vol", "speed_neg_shock"): ("E", lambda x, c: np.cbrt(_neg(x, c))),
    ("power_vol", "speed_vol_lag"): ("Sv", lambda x, c: np.cbrt(x)),
}


def every_family_terms():
    """Two turbines; every family, finite and -inf thresholds, speed at lag
    0 in power, and time-varying terms (basis index >= 0) in every equation."""
    terms = {}
    for i in range(2):
        o = 1 - i
        terms[("speed_mean", i)] = [
            Term("const", -1, 0, NAN, -1, False, 1.0),
            Term("const", -1, 0, NAN, 2, True, 0.3),
            Term("speed_ar", i, 1, NO_THR, -1, False, 0.4),
            Term("speed_ar", i, 1, NO_THR, 3, True, 0.02),
            Term("speed_ar", i, 1, 6.0, -1, False, 0.1),
            Term("speed_ar", o, 2, NO_THR, 5, True, 0.05),
            Term("speed_ma", i, 1, NAN, -1, False, 0.2),
            Term("speed_ma", o, 2, NAN, 7, True, -0.1),
        ]
        terms[("power_mean", i)] = [
            Term("const", -1, 0, NAN, -1, False, 5.0),
            Term("const", -1, 0, NAN, 1, True, 0.5),
            Term("power_ar", i, 1, NO_THR, -1, False, 0.5),
            Term("power_ar", i, 2, 50.0, -1, False, 0.1),
            Term("speed_reg", i, 0, NO_THR, -1, False, 2.0),
            Term("speed_reg", i, 0, 5.0, -1, False, 3.0),
            Term("speed_reg", o, 1, 9.0, 4, True, -1.0),
            Term("power_ma", i, 1, NAN, -1, False, 0.3),
            Term("speed_err", i, 0, NAN, -1, False, 1.5),
            Term("speed_err", o, 1, NAN, -1, False, 0.2),
        ]
        terms[("speed_vol", i)] = [
            Term("const", -1, 0, NAN, -1, False, 0.2),
            Term("const", -1, 0, NAN, 0, True, 0.05),
            Term("pos_shock", i, 1, NAN, -1, False, 0.2),
            Term("neg_shock", i, 1, NAN, -1, False, 0.25),
            Term("neg_shock", o, 2, NAN, 6, True, 0.03),
            Term("vol_lag", i, 1, NAN, -1, False, 0.3),
        ]
        terms[("power_vol", i)] = [
            Term("const", -1, 0, NAN, -1, False, 0.5),
            Term("pos_shock", i, 1, NAN, -1, False, 0.1),
            Term("neg_shock", i, 1, NAN, -1, False, 0.15),
            Term("vol_lag", i, 1, NAN, -1, False, 0.2),
            Term("speed_pos_shock", o, 1, NAN, -1, False, 0.05),
            Term("speed_neg_shock", i, 1, NAN, 9, True, 0.04),
            Term("speed_vol_lag", i, 1, NAN, -1, False, 0.1),
        ]
    return terms


def every_family_setup(n=700, covered=300, trim=5):
    """A noisy two-turbine panel and a model whose state covers its first
    ``covered`` rows, so forecasts past them filter the rest."""
    rng = np.random.default_rng(11)
    ts = 1288569600 + 600 * np.arange(n)
    panel = TurbinePanel(ts, 6.0 + rng.standard_normal((n, 2)),
                         60.0 + 10.0 * rng.standard_normal((n, 2)), ("A", "B"),
                         np.zeros((n, 2), bool), np.zeros((n, 2), bool))
    cfg = tiny_config()
    model = FittedJointModel(
        labels=panel.labels, trim=trim, k_max=1, vol_floor_fraction=1e-3,
        diurnal=cfg.diurnal, annual=cfg.annual, anchor_epoch=1262304000,
        terms=every_family_terms(), timestamps=ts[:covered].copy(),
        state={"E": rng.standard_normal((covered, 2)),
               "Ep": rng.standard_normal((covered, 2)),
               "Sv": rng.uniform(0.5, 1.5, (covered, 2)),
               "Pv": rng.uniform(0.5, 1.5, (covered, 2))},
        floors={"Sv": np.array([0.3, 0.4]), "Pv": np.array([0.6, 0.7])},
        pools={"E": rng.standard_normal((40, 2)), "Ep": rng.standard_normal((40, 2))},
    )
    return panel, model


def reference_value(model, eq, i, st, pos, basis):
    total = 0.0
    for t in model.terms[(eq, i)]:
        coef = t.value if t.basis_index < 0 else t.value * basis[t.basis_index]
        if t.family == "const":
            total += coef
        else:
            var, f = REFERENCE_SOURCE[(eq, t.family)]
            total += coef * f(st[var][pos - t.lag, t.j], t.threshold)
    return total


def reference_basis(model, timestamps):
    cal = CalendarIndex.from_timestamps(timestamps, model.anchor_epoch)
    return {kind: interaction_basis(cal.time_of_day, cal.time_of_year, model.diurnal,
                                    model.annual, kind).values
            for kind in ("cumulative", "plain")}


def reference_step(model, st, pos, basis, k, shocks=None):
    """One step of every recursion at ``pos``. ``shocks`` None: W and P hold
    observations and the shocks are backed out; else (z, u) standardized."""
    d = model.d
    vol_row, mean_row = basis["plain"][k], basis["cumulative"][k]
    for i in range(d):
        sv = reference_value(model, "speed_vol", i, st, pos, vol_row)
        pv = reference_value(model, "power_vol", i, st, pos, vol_row)
        st["Sv"][pos, i] = max(sv, model.floors["Sv"][i])
        st["Pv"][pos, i] = max(pv, model.floors["Pv"][i])
    for eq, y, e, scale in (("speed_mean", "W", "E", lambda i: st["Sv"][pos, i]),
                            ("power_mean", "P", "Ep", lambda i: st["Pv"][pos, i] ** 3)):
        fitted = [reference_value(model, eq, i, st, pos, mean_row) for i in range(d)]
        for i in range(d):
            if shocks is None:
                st[e][pos, i] = st[y][pos, i] - fitted[i]
            else:
                z = (shocks[0] if y == "W" else shocks[1])[i]
                st[e][pos, i] = scale(i) * z
                st[y][pos, i] = fitted[i] + st[e][pos, i]


def reference_filter(model, panel, start, through):
    k = model.timestamps.size
    st = {"W": panel.speed.copy(), "P": panel.power.copy()}
    for name, arr in model.state.items():
        st[name] = np.zeros_like(st["W"]) + model.floors.get(name, 0.0)
        st[name][start:start + k] = arr
    lo = start + k
    basis = reference_basis(model, panel.timestamps[lo:through + 1])
    for pos in range(lo, through + 1):
        reference_step(model, st, pos, basis, pos - lo)
    return st


def assert_close(actual, expected):
    scale = np.abs(expected).max()
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestEngineReference:
    @pytest.mark.parametrize("fold_elems", [200, pf._FOLD_ELEMS])
    def test_filter_and_point_match_per_term_loop(self, monkeypatch, fold_elems):
        # 200 elements folds a few steps per block, so both spans cross blocks
        monkeypatch.setattr(pf, "_FOLD_ELEMS", fold_elems)
        assert set(REFERENCE_SOURCE) == {(eq, family[0]) for eq, spec in EQUATIONS.items()
                                         for family in spec.families}
        panel, model = every_family_setup()
        origin, horizon = 650, 40
        fore = Forecaster(model, panel)
        fc = fore.point(origin, horizon)
        ref = reference_filter(model, panel, 0, origin)
        for name in ("E", "Ep", "Sv", "Pv"):
            assert_close(getattr(fore, name)[:origin + 1], ref[name][:origin + 1])
        # point: the recursion forward with zero shocks, volatilities unused
        st = {k: np.concatenate([v[:origin + 1], np.zeros((horizon, 2))])
              for k, v in ref.items()}
        ts = panel.timestamps[origin] + 600 * np.arange(1, horizon + 1)
        basis = reference_basis(model, ts)
        zero = np.zeros(2)
        for s in range(horizon):
            reference_step(model, st, origin + 1 + s, basis, s, (zero, zero))
        assert_close(fc.speed_point, st["W"][origin + 1:])
        assert_close(fc.power_point, st["P"][origin + 1:])

    def test_bootstrap_matches_per_path_loop(self):
        panel, model = every_family_setup()
        origin, horizon, n_paths, seed = 320, 12, 100, 4
        fore = Forecaster(model, panel)
        fc = fore.bootstrap(origin, horizon, n_paths, seed)
        ref = reference_filter(model, panel, 0, origin)
        ts = panel.timestamps[origin] + 600 * np.arange(1, horizon + 1)
        basis = reference_basis(model, ts)
        w = np.empty((n_paths, horizon, 2))
        p = np.empty((n_paths, horizon, 2))
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        stream = rng.integers(0, model.pools["E"].shape[0], (horizon, n_paths))
        for path in range(n_paths):
            draws = stream[:, path]
            st = {k: np.concatenate([v[:origin + 1], np.zeros((horizon, 2))])
                  for k, v in ref.items()}
            for s in range(horizon):
                pos = origin + 1 + s
                reference_step(model, st, pos, basis, s,
                               (model.pools["E"][draws[s]], model.pools["Ep"][draws[s]]))
            w[path], p[path] = st["W"][origin + 1:], st["P"][origin + 1:]
        idx = np.ceil(np.arange(1, 100) / 100.0 * n_paths).astype(int) - 1
        assert_close(fc.speed_point, w.mean(axis=0))
        assert_close(fc.power_point, p.mean(axis=0))
        assert_close(fc.speed_quantiles, np.sort(w, axis=0)[idx].transpose(1, 2, 0))
        assert_close(fc.power_quantiles, np.sort(p, axis=0)[idx].transpose(1, 2, 0))

    @pytest.mark.parametrize("fold_elems", [200, pf._FOLD_ELEMS])
    def test_batch_matches_point_per_origin(self, monkeypatch, fold_elems):
        monkeypatch.setattr(pf, "_FOLD_ELEMS", fold_elems)
        panel, model = every_family_setup()
        # different times of day, overlapping windows, one origin repeated,
        # and the first two filtered by the batch itself
        origins, horizon = [650, 320, 333, 401, 400, 320, 599], 60
        batch = Forecaster(model, panel).point_batch(origins, horizon)
        for origin, fc in zip(origins, batch):
            ref = Forecaster(model, panel).point(origin, horizon)
            assert fc.origin_index == origin
            assert fc.origin_timestamp == ref.origin_timestamp
            assert fc.horizon == horizon
            assert_close(fc.speed_point, ref.speed_point)
            assert_close(fc.power_point, ref.power_point)

    def test_one_origin_batch_is_point(self):
        panel, model = every_family_setup()
        fore = Forecaster(model, panel)
        (fc,) = fore.point_batch([410], 50)
        ref = fore.point(410, 50)
        assert np.array_equal(fc.speed_point, ref.speed_point)
        assert np.array_equal(fc.power_point, ref.power_point)

    @pytest.mark.parametrize("bad", [3, 700])
    def test_bad_origin_fails_alone_in_batch(self, bad):
        panel, model = every_family_setup()
        fore = Forecaster(model, panel)
        with pytest.raises(ForecastError) as expected:
            fore.point(bad, 30)
        batch = fore.point_batch([400, bad, 500], 30)
        assert isinstance(batch[1], ForecastError)
        assert str(batch[1]) == str(expected.value)
        for origin, fc in zip((400, 500), batch[::2]):
            assert_close(fc.power_point, fore.point(origin, 30).power_point)

    def test_unknown_family_rejected(self):
        panel, model = every_family_setup()
        model.terms[("speed_mean", 1)].append(Term("bogus", 0, 1, NAN, -1, False, 0.1))
        with pytest.raises(ForecastError, match="unknown family 'bogus' in speed_mean"):
            Forecaster(model, panel)

    def test_volatility_lag_zero_rejected(self):
        panel, model = every_family_setup()
        model.terms[("power_vol", 0)].append(Term("pos_shock", 0, 0, NAN, -1, False, 0.1))
        with pytest.raises(ForecastError,
                           match=r"power_vol\[0\]: volatility terms need lag >= 1"):
            Forecaster(model, panel)

    @pytest.mark.parametrize("row", [700, 900])
    def test_state_past_panel_end_rejected(self, row):
        panel, model = every_family_setup()
        fore = Forecaster(model, panel)
        covered = fore.covered_through
        with pytest.raises(ForecastError, match="beyond the panel"):
            fore.ensure_state(row)
        assert fore.covered_through == covered
        fore.ensure_state(panel.n - 1)
        assert fore.covered_through == panel.n - 1


# every_family_terms less these families -> the stages filtering applies to
# whole blocks (0 volatility, 1 speed mean, 2 power mean), in that order
SCHEDULES = {
    (): [],
    ("speed_ma",): [1],
    ("speed_ma", "power_ma"): [1, 2],
    ("speed_ma", "power_ma", "vol_lag", "speed_vol_lag"): [1, 2, 0],
}


def schedule_setup(drop):
    panel, model = every_family_setup()
    model.terms = {key: [t for t in terms if t.family not in drop]
                   for key, terms in model.terms.items()}
    return panel, model


class TestFilterSchedule:
    @pytest.mark.parametrize("fold_elems", [200, pf._FOLD_ELEMS])
    @pytest.mark.parametrize("drop, per_block", list(SCHEDULES.items()))
    def test_filter_matches_per_term_loop(self, monkeypatch, fold_elems, drop, per_block):
        monkeypatch.setattr(pf, "_FOLD_ELEMS", fold_elems)
        panel, model = schedule_setup(drop)
        fore = Forecaster(model, panel)
        assert [n for n, _, _ in fore.engine.per_block] == per_block
        fore.ensure_state(panel.n - 1)
        ref = reference_filter(model, panel, 0, panel.n - 1)
        for name in ("E", "Ep", "Sv", "Pv"):
            assert_close(getattr(fore, name), ref[name])

    @pytest.mark.parametrize("fold_elems", [200, pf._FOLD_ELEMS])
    @pytest.mark.parametrize("drop", list(SCHEDULES))
    def test_filter_in_pieces_equals_one_call(self, monkeypatch, fold_elems, drop):
        monkeypatch.setattr(pf, "_FOLD_ELEMS", fold_elems)
        panel, model = schedule_setup(drop)
        whole, pieces = Forecaster(model, panel), Forecaster(model, panel)
        whole.ensure_state(699)
        for row in (350, 351, 477, 699):
            pieces.ensure_state(row)
        assert np.array_equal(pieces.state, whole.state)


# ---------------------------------------------------------------------------
# forecasts from a ring of trim + 1 lag rows


def full_length_window(window):
    """``Forecaster._window`` with a state of trim + horizon rows in place of
    the ring: the layout every step wrote to its own row."""
    def full(self, origins, horizon, n_paths):
        ring, wp, ts_future = window(self, origins, horizon, n_paths)
        trim = ring.shape[1] - 1
        state = np.zeros((ring.shape[0], trim + horizon) + ring.shape[2:])
        state[:, :trim] = ring[:, :trim]
        return state, wp, ts_future
    return full


class TestRing:
    # the largest lag of every_family_terms is 2: trim 2 makes a ring of
    # three rows, one more than the lags read
    @pytest.mark.parametrize("trim", [2, 5])
    def test_ring_equals_full_length_state(self, monkeypatch, trim):
        panel, model = every_family_setup(trim=trim)
        assert max(t.lag for terms in model.terms.values() for t in terms) == 2

        def forecasts():
            fore = Forecaster(model, panel)
            return [fore.point(650, 40), fore.bootstrap(333, 30, 120, seed=9),
                    *fore.point_batch([320, 401, 650, 333], 50)]

        ring = forecasts()
        monkeypatch.setattr(Forecaster, "_window", full_length_window(Forecaster._window))
        full = forecasts()
        for a, b in zip(ring, full):
            for field in ("speed_point", "power_point", "speed_quantiles",
                          "power_quantiles"):
                assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_bootstrap_allocates_under_half_a_full_length_state(self):
        panel = flat_panel(n=300, d=2)
        model = model_from_terms(example_generator(2), panel, trim=3)
        fore = Forecaster(model, panel)
        fore.point(250, 5)
        horizon, n_paths = 288, 1000
        full_state = 6 * (model.trim + horizon) * 2 * n_paths * 8  # 27.9 MB
        tracemalloc.start()
        try:
            fore.bootstrap(250, horizon, n_paths, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_state / 2


# ---------------------------------------------------------------------------
# the fit's design columns against the regressors the engine applies


# terms of every equation not under test: centred shocks, varying volatilities
BACKGROUND = {
    "speed_mean": lambda i: [Term("const", -1, 0, NAN, -1, False, 6.0)],
    "power_mean": lambda i: [Term("const", -1, 0, NAN, -1, False, 60.0)],
    "speed_vol": lambda i: [Term("const", -1, 0, NAN, -1, False, 0.2),
                            Term("pos_shock", i, 1, NAN, -1, False, 0.1)],
    "power_vol": lambda i: [Term("const", -1, 0, NAN, -1, False, 0.3),
                            Term("neg_shock", i, 1, NAN, -1, False, 0.1)],
}

# what filtering writes for each equation: the shock backed out of an
# observation (mean equations) or the volatility proxy (floors at zero)
WRITES = {"speed_mean": ("E", "W"), "power_mean": ("Ep", "P"),
          "speed_vol": ("Sv", None), "power_vol": ("Pv", None)}


class TestFitForecastAgreement:
    @pytest.mark.parametrize("time_varying", [False, True])
    @pytest.mark.parametrize("equation, family", list(FAMILY_SOURCE))
    def test_design_column_is_engine_regressor(self, equation, family, time_varying):
        """Filter with a model whose (equation, turbine 0) holds one term of
        coefficient 1 and no intercept; the design built on the filtered state
        has, in that term's column, exactly the regressor the engine applied."""
        panel, model = every_family_setup()
        covered, trim, lag = model.timestamps.size, model.trim, 2
        var, transform = FAMILY_SOURCE[(equation, family)]
        threshold = {"W": 6.0, "P": 60.0}[var] if transform == "thr" else NAN
        term = Term(family, 1, lag, threshold, 3 if time_varying else -1,
                    time_varying, 1.0)
        model.terms = {(eq, i): BACKGROUND[eq](i) for eq in EQUATIONS for i in range(2)}
        model.terms[(equation, 0)] = [term]
        model.floors = dict.fromkeys(("Sv", "Pv"), np.zeros(2))
        fore = Forecaster(model, panel)
        fore.ensure_state(panel.n - 1)

        tv = (lag,) if time_varying else ()
        sets = IndexSets(**{field: FamilySpec((lag,), (lag,), tv, tv, (lag,))
                            for field in IndexSets.__dataclass_fields__})
        thresholds = compute_threshold_set(panel.speed, panel.power,
                                           {"speed": [6.0], "power": [60.0]})
        basis = reference_basis(model, panel.timestamps)
        ctx = DesignContext(fore.W, fore.P, fore.E, fore.Ep, fore.Sv, fore.Pv,
                            basis["cumulative"], basis["plain"], trim)
        dm, _ = build_design(ctx, equation, 0, sets, thresholds)
        key = (family, 1, lag, term.basis_index)
        c = [c for c, info in enumerate(dm.columns)
             if (info.family, info.j, info.lag, info.basis_index) == key][-1]
        np.testing.assert_equal(dm.columns[c].threshold, threshold)  # -inf comes first
        col = dm.values[:, c][covered - trim:]
        assert np.ptp(col) > 0.0
        written, observed = WRITES[equation]
        got = getattr(fore, written)[covered:, 0]
        if observed is None:
            assert np.array_equal(got, col)
        else:
            assert np.array_equal(got, getattr(fore, observed)[covered:, 0] - col)

    def test_design_rows_stack_columns_then_response(self):
        """Every equation's problem, written as one row block of [X y]', has
        the rebuilt columns as its rows and, last, the response."""
        panel, model = every_family_setup()
        fore = Forecaster(model, panel)
        fore.ensure_state(panel.n - 1)
        trim = model.trim
        sets = IndexSets(**{field: FamilySpec((1, 2), (2,), (2,), (2,), (1, 2))
                            for field in IndexSets.__dataclass_fields__})
        thresholds = compute_threshold_set(panel.speed, panel.power)
        basis = reference_basis(model, panel.timestamps)
        ctx = DesignContext(fore.W, fore.P, fore.E, fore.Ep, fore.Sv, fore.Pv,
                            basis["cumulative"], basis["plain"], trim)
        responses = {"speed_mean": fore.W, "power_mean": fore.P,
                     "speed_vol": np.abs(fore.E), "power_vol": np.cbrt(np.abs(fore.Ep))}
        for equation in EQUATIONS:
            for i in range(2):
                dm, y = build_design(ctx, equation, i, sets, thresholds)
                assert dm.values.shape == (panel.n - trim, dm.p)
                buf = np.empty((dm.p + 1, panel.n - trim))
                LassoProblem(y, dm.values).rows(0, panel.n - trim, buf)
                for r, info in enumerate(dm.columns):
                    assert np.array_equal(buf[r], regressor_from_meta(equation, info, ctx)), info
                assert np.array_equal(buf[-1], responses[equation][trim:, i])
                assert np.array_equal(y, buf[-1])


@pytest.mark.parametrize("seed, n_paths", [(0, 3), (9, 40), (123456789, 7)])
def test_path_draws_match_fresh_generator_per_path(seed, n_paths):
    horizon, pool = 50, 37
    draws = pf._pool_draws(seed, n_paths, horizon, pool)
    assert draws.dtype == np.int32  # half the bytes of the generator's int64
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    stream = rng.integers(0, pool, size=(horizon, n_paths))
    for path in range(n_paths):
        assert np.array_equal(draws[:, path], stream[:, path])


# 1.5e9 and 1.6e9 reject about 30 % and 25 % of raw draws, so the int32 and
# int64 samplers must redraw alike; 1 consumes no words, 2**31 - 1 is the
# largest int32 pool; with an odd 131 paths, successive steps start on
# alternate halves of a 64-bit word
@pytest.mark.parametrize("pool", [1, 1_500_000_000, 1_600_000_000, 2**31 - 1])
@pytest.mark.parametrize("horizon", [1, 7, 288])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_path_draws_match_per_path_integers_across_chunks(pool, horizon, seed):
    n_paths = 131
    draws = pf._pool_draws(seed, n_paths, horizon, pool)
    assert draws.shape == (horizon, n_paths) and draws.dtype == np.int32
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    stream = rng.integers(0, pool, size=(horizon, n_paths))
    assert stream.dtype == np.int64
    for path in range(n_paths):
        assert np.array_equal(draws[:, path], stream[:, path])


def test_path_draws_reject_pools_beyond_int32():
    with pytest.raises(ForecastError, match="pool size"):
        pf._pool_draws(0, 4, 10, 2**31)


def test_path_draws_scratch_stays_small():
    horizon, n_paths = 288, 1000
    pf._pool_draws(1, n_paths, horizon, 5990)
    tracemalloc.start()
    try:
        pf._pool_draws(1, n_paths, horizon, 5990)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # the int32 result alone is 1.15 MB
