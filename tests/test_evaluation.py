import re
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_config, tiny_sets, two_turbine_truth

import parkcast.evaluation as evaluation
from parkcast.benchmarks import ArModel
from parkcast.evaluation import (
    BacktestError,
    BacktestSpec,
    JointModelAdapter,
    dmae,
    error_density,
    mae,
    mae_standard_deviation,
    run_backtest,
    sample_origins,
    write_report,
)
from parkcast.forecast import ForecastError, simulate_synthetic


class TestMae:
    def test_perfect_forecasts(self):
        f = np.zeros((5, 3, 2))
        table, mean_k = mae(f, f)
        assert np.all(table == 0.0) and np.all(mean_k == 0.0)

    def test_constant_error(self):
        a = np.zeros((4, 2, 1))
        f = a + 2.5
        table, mean_k = mae(f, a)
        assert np.all(table == 2.5)

    def test_turbine_mean(self):
        a = np.zeros((10, 1, 2))
        f = a.copy()
        f[:, :, 0] += 2.0
        f[:, :, 1] += 4.0
        table, mean_k = mae(f, a)
        assert table[0, 0] == 2.0 and table[1, 0] == 4.0
        assert mean_k[0] == 3.0

    def test_nan_forecast_raises(self):
        f = np.zeros((2, 2, 1))
        f[1, 0, 0] = np.nan
        with pytest.raises(BacktestError, match="NaN"):
            mae(f, np.zeros((2, 2, 1)))


class TestDmae:
    def test_persistence_against_itself(self):
        base = np.array([1.0, 2.0, 3.0])
        assert np.all(dmae(base, base) == 0.0)

    def test_improvement_is_negative(self):
        assert dmae(np.array([3.0]), np.array([7.0]))[0] == -4.0

    def test_additivity(self):
        base = np.array([5.0, 6.0])
        a, b = np.array([4.0, 5.5]), np.array([4.5, 5.0])
        assert np.allclose(dmae(a, base) - dmae(b, base), a - b)


class TestMaeStandardDeviation:
    def test_identical_errors(self):
        assert np.all(mae_standard_deviation(np.full((6, 3), 2.0)) == 0.0)

    def test_two_point_hand_value(self):
        # sample SD of {0, 2} is sqrt(2); divided by sqrt(2) gives exactly 1
        out = mae_standard_deviation(np.array([[0.0], [2.0]]))
        assert out[0] == pytest.approx(1.0)

    def test_scaling(self):
        rng = np.random.default_rng(0)
        e = rng.uniform(0, 1, (30, 4))
        assert np.allclose(mae_standard_deviation(3.0 * e),
                           3.0 * mae_standard_deviation(e))


class TestErrorDensity:
    def test_integrates_to_one(self):
        rng = np.random.default_rng(1)
        grid, dens = error_density(rng.standard_normal(2000))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_point_mass_peaks_at_value(self):
        grid, dens = error_density(np.full(50, 1.5), bandwidth=0.1)
        assert grid[np.argmax(dens)] == pytest.approx(1.5, abs=0.05)

    def test_huge_bandwidth_flattens(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal(500)
        grid = np.linspace(-1, 1, 101)
        _, dens = error_density(e, grid=grid, bandwidth=1e4)
        assert np.ptp(dens) / dens.mean() < 1e-3

    def test_symmetric_errors_roughly_symmetric_density(self):
        rng = np.random.default_rng(3)
        e = rng.standard_normal(5000)
        e = np.concatenate([e, -e])  # exactly symmetric sample
        grid = np.linspace(-4, 4, 201)
        _, dens = error_density(e, grid=grid)
        assert np.abs(dens - dens[::-1]).max() < 1e-12

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            error_density(np.ones(10), bandwidth=0.0)


class TestSampleOrigins:
    def test_origins_leave_room(self):
        spec = BacktestSpec(n_origins=20, horizons=(1, 48), in_sample=100, seed=1)
        origins = sample_origins(500, spec)
        assert origins.min() >= 100
        assert origins.max() <= 500 - 49
        assert np.unique(origins).size == 20

    def test_seed_stability(self):
        spec = BacktestSpec(n_origins=10, horizons=(1, 12), in_sample=50, seed=9)
        assert np.array_equal(sample_origins(300, spec), sample_origins(300, spec))

    @pytest.mark.parametrize("in_sample", [0, -2500])
    def test_non_positive_in_sample(self, in_sample):
        # a negative window would index origins and fits from the panel's end
        with pytest.raises(ValueError, match=f"in_sample must be >= 1, got {in_sample}"):
            BacktestSpec(n_origins=10, horizons=(1, 12), in_sample=in_sample)

    @pytest.mark.parametrize("seed", [-1, True, 2 ** 64, 1.5])
    def test_seed_that_is_no_philox_key_rejected(self, seed):
        # as simulate_synthetic, bootstrap and the CLI refuse it: -1 used to fail
        # inside NumPy, and True to run as seed 1
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, 2**64), got {seed!r}")):
            BacktestSpec(n_origins=10, horizons=(1, 12), in_sample=50, seed=seed)

    def test_unknown_model_rejected(self):
        # "lasso" is valid though it is no registered benchmark
        with pytest.raises(ValueError, match="models: unknown model\\(s\\) 'arma'; valid: "
                           "ar, arma11, bvar, gwppt, lasso, persistence, var, wppt$"):
            BacktestSpec(models=("lasso", "arma"))

    def test_too_short_panel(self):
        spec = BacktestSpec(n_origins=10, horizons=(1, 288), in_sample=100)
        with pytest.raises(BacktestError, match="too short"):
            sample_origins(150, spec)


@pytest.fixture(scope="module")
def backtest_panel():
    return simulate_synthetic(tiny_config(), two_turbine_truth(), n=5000, seed=21)


class TestRunBacktest:
    def test_persistence_only_reproduces_mae(self, backtest_panel):
        spec = BacktestSpec(n_origins=15, horizons=tuple(range(1, 25)),
                            in_sample=4000, seed=2, models=("persistence",))
        report = run_backtest(backtest_panel, spec)
        origins = report.origins
        errs = np.empty((origins.size, 24, 2))
        for oi, o in enumerate(origins):
            errs[oi] = np.abs(backtest_panel.power[o + np.arange(1, 25)]
                              - backtest_panel.power[o])
        expect = errs.mean(axis=0).T.mean(axis=0)
        assert np.allclose(report.mae_mean["persistence"], expect)
        assert np.all(report.dmae_mean["persistence"] == 0.0)

    def test_deterministic_runs(self, backtest_panel):
        spec = BacktestSpec(n_origins=8, horizons=(1, 6, 12), in_sample=4200,
                            seed=5, models=("persistence", "ar"))
        r1 = run_backtest(backtest_panel, spec)
        r2 = run_backtest(backtest_panel, spec)
        for name in r1.mae_mean:
            assert np.array_equal(r1.mae_mean[name], r2.mae_mean[name])

    def test_failed_origins_recorded(self, backtest_panel, monkeypatch):
        spec = BacktestSpec(n_origins=8, horizons=(1, 6, 12), in_sample=4200,
                            seed=5, models=("persistence", "ar"))
        origins = sample_origins(backtest_panel.n, spec)
        bad = {int(origins[0]): "boom", int(origins[5]): "bang"}
        real = ArModel.forecast_power

        def flaky(self, panel, origins, horizons):
            return [RuntimeError(bad[o]) if o in bad else fc
                    for o, fc in zip(origins.tolist(), real(self, panel, origins, horizons))]

        monkeypatch.setattr(ArModel, "forecast_power", flaky)
        with pytest.warns(UserWarning, match="ar: 2 origin"):
            report = run_backtest(backtest_panel, spec)
        assert report.failures["ar"] == sorted(bad.items())

    def test_nan_forecast_recorded_as_failure(self, backtest_panel, monkeypatch):
        spec = BacktestSpec(n_origins=8, horizons=(1, 6, 12), in_sample=4200,
                            seed=5, models=("persistence", "ar"))
        clean = run_backtest(backtest_panel, spec)
        origins = sample_origins(backtest_panel.n, spec)
        real = ArModel.forecast_power

        def one_nan(self, panel, origins, horizons):
            out = real(self, panel, origins, horizons)
            out[2] = out[2].copy()
            out[2][1, 0] = np.nan
            return out

        monkeypatch.setattr(ArModel, "forecast_power", one_nan)
        with pytest.warns(UserWarning, match="ar: 1 origin"):
            report = run_backtest(backtest_panel, spec)
        assert report.failures["ar"] == [(int(origins[2]), "forecast is not finite")]
        assert report.failures["persistence"] == []
        assert not np.array_equal(report.mae_mean["ar"], clean.mae_mean["ar"])
        assert np.isfinite(report.mae_mean["ar"]).all()

    def test_lasso_mae_matches_per_origin_point(self, backtest_panel):
        spec = BacktestSpec(n_origins=12, horizons=(1, 2, 6, 24, 48), in_sample=4000,
                            seed=6, models=("persistence", "lasso"))
        report = run_backtest(backtest_panel, spec, lasso_config=tiny_config())
        fore = JointModelAdapter(tiny_config()).fit(backtest_panel, 4000).forecaster
        horizons = np.array(spec.horizons)
        abs_err = np.empty((report.origins.size, horizons.size, 2))
        for oi, origin in enumerate(report.origins):
            fc = fore.point(int(origin), 48)
            abs_err[oi] = np.abs(backtest_panel.power[origin + horizons]
                                 - fc.power_point[horizons - 1])
        expect = abs_err.mean(axis=0).T.mean(axis=0)
        np.testing.assert_allclose(report.mae_mean["lasso"], expect, rtol=1e-12, atol=0)

    def test_lasso_one_call_equals_one_origin_calls(self, backtest_panel):
        model = JointModelAdapter(tiny_config()).fit(backtest_panel, 4000)
        origins, horizons = np.array([4500, 4000, 4975, 4001, 4800]), np.array([1, 2, 6, 24])
        batch = model.forecast_power(backtest_panel, origins, horizons)
        assert len(batch) == origins.size
        for origin, got in zip(origins, batch):
            (want,) = model.forecast_power(backtest_panel, np.array([origin]), horizons)
            assert got.shape == (horizons.size, 2)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_lasso_origin_without_history_recorded(self, backtest_panel, monkeypatch):
        # origin 1 has 2 rows of history for the lasso's lag 3; persistence
        # needs none
        config = tiny_config(sets=tiny_sets(ar_own=(1, 3)))
        spec = BacktestSpec(n_origins=6, horizons=(1, 6, 12), in_sample=4200,
                            seed=5, models=("persistence", "lasso"))
        origins = np.concatenate([[1], sample_origins(backtest_panel.n, spec)])
        monkeypatch.setattr(evaluation, "sample_origins", lambda n, spec: origins)
        fore = JointModelAdapter(config).fit(backtest_panel, 4200).forecaster
        with pytest.raises(ForecastError, match="history") as expected:
            fore.point(1, 12)
        with pytest.warns(UserWarning, match="lasso: 1 origin"):
            report = run_backtest(backtest_panel, spec, lasso_config=config)
        assert report.failures["lasso"] == [(1, str(expected.value))]

    def test_workers_other_than_one_rejected(self, backtest_panel):
        spec = BacktestSpec(n_origins=4, horizons=(1,), in_sample=4200, seed=5)
        with pytest.raises(ValueError, match="workers must be 1, got 2"):
            run_backtest(backtest_panel, spec, workers=2)

    def test_report_files(self, backtest_panel, tmp_path):
        spec = BacktestSpec(n_origins=6, horizons=tuple(range(1, 25)),
                            in_sample=4200, seed=3,
                            models=("persistence",),
                            density_horizons=(1, 24),
                            summary_horizons=(1, 6, 24))
        report = run_backtest(backtest_panel, spec)
        files = write_report(report, tmp_path)
        names = {f.split("/")[-1] for f in files}
        assert {"mae.csv", "dmae.csv", "summary.csv", "density_1.csv",
                "density_24.csv", "run_info.csv"} <= names
        header = Path(files[0]).read_text().splitlines()[0].strip()
        assert header == "model,turbine,k,mae,sd"

    def test_timings_recorded(self, backtest_panel):
        spec = BacktestSpec(n_origins=5, horizons=(1, 4), in_sample=4200,
                            seed=4, models=("persistence",))
        report = run_backtest(backtest_panel, spec)
        assert report.timings["persistence"] > 0.0
        assert report.failures["persistence"] == []

    def test_model_order_does_not_change_tables(self, backtest_panel):
        kw = dict(n_origins=6, horizons=(1, 6), in_sample=4200, seed=8)
        r1 = run_backtest(backtest_panel, BacktestSpec(models=("persistence", "ar"), **kw))
        r2 = run_backtest(backtest_panel, BacktestSpec(models=("ar", "persistence"), **kw))
        for name in ("persistence", "ar"):
            assert np.array_equal(r1.mae_mean[name], r2.mae_mean[name])
            assert np.array_equal(r1.dmae_mean[name], r2.dmae_mean[name])

    def test_turbine_mean_recomputable_from_table(self, backtest_panel):
        spec = BacktestSpec(n_origins=6, horizons=(1, 6, 12), in_sample=4200,
                            seed=9, models=("persistence",))
        report = run_backtest(backtest_panel, spec)
        table = report.mae_turbine["persistence"]
        assert np.allclose(table.mean(axis=0), report.mae_mean["persistence"])
