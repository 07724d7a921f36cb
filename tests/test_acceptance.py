"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured numbers. Everything runs on synthetic data with
frozen seeds; tolerances are fixed here, not tuned at run time."""

import time
import warnings

import numpy as np
import pytest
from conftest import NAN, NO_THR, tiny_config

from parkcast.basis import BSplineSpec, periodic_basis_matrix
from parkcast.design import FamilySpec, IndexSets
from parkcast.evaluation import BacktestSpec, run_backtest
from parkcast.forecast import Forecaster, bootstrap_forecast, point_forecast, simulate_synthetic
from parkcast.lasso import (
    LassoProblem,
    LassoSettings,
    coordinate_descent,
    fit_path_bic,
    kkt_residuals,
)
from parkcast.model import ModelConfig, Term, fit_joint_model, load_model, save_model
from parkcast.panel import TurbinePanel, smoothed_periodogram
from parkcast.presets import demo_config, example_generator


def report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {message}")


def test_criterion_01_partition_of_unity():
    spec = BSplineSpec(3, 144.0, 12, strict_partition=True)
    rng = np.random.default_rng(1)
    t = rng.uniform(0.0, 3 * 144.0, 10_000)
    t0 = time.perf_counter()
    total = periodic_basis_matrix(t, spec).sum(axis=1)
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(total - 1.0)))
    assert dev <= 1e-9
    assert elapsed < 1.0
    report(1, f"max |sum - 1| = {dev:.2e} over 10^4 points in {elapsed*1e3:.0f} ms")


def test_criterion_02_lasso_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst_ls = 0.0
    # any objective increase inside a sweep raises; completing = 0 violations
    for _ in range(100):
        X = rng.standard_normal((50, 8))
        y = rng.standard_normal(50)
        w = rng.uniform(0.5, 2.0, 50)
        prob = LassoProblem(y, X, weights=w)
        b = coordinate_descent(prob, 0.0)
        b_star = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
        worst_ls = max(worst_ls, float(np.abs(b - b_star).max()))
    assert worst_ls < 1e-6

    worst_1d = 0.0
    for _ in range(30):
        x = rng.standard_normal(40)
        y = rng.uniform(-1, 1) * x + 0.3 * rng.standard_normal(40)
        w = rng.uniform(0.5, 2.0, 40)
        lam = rng.uniform(0.1, 5.0)
        prob = LassoProblem(y, x[:, None], weights=w)
        b = coordinate_descent(prob, lam)[0]
        bound = 2.0 * abs(np.dot(w * x, y) / np.dot(w * x, x)) + 1.0
        grid = np.linspace(-bound, bound, 400_001)
        resid = y[:, None] - x[:, None] * grid[None, :]
        obj = (w[:, None] * resid * resid).sum(axis=0) + lam * np.abs(grid)
        worst_1d = max(worst_1d, float(abs(grid[np.argmin(obj)] - b)))
    assert worst_1d < 1e-4
    report(2, f"lambda=0 max err {worst_ls:.2e} (100 problems); 1-D brute-force "
              f"max err {worst_1d:.2e}; objective monotone, 0 violations")


def test_criterion_03_nonnegative_lasso(small_model):
    # volatility equations of a fitted joint model
    worst_kkt = 0.0
    for (eq, i), fit in small_model.fits.items():
        if not eq.endswith("_vol"):
            continue
        assert fit.coefficients.min() >= 0.0
        assert not np.signbit(fit.coefficients).any()  # no -0 leakage
        worst_kkt = max(worst_kkt, fit.kkt_max)
    # plus standalone nonnegative problems with data favouring negatives
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = np.abs(rng.standard_normal((120, 6)))
        beta = np.array([0.5, 0.0, 0.3, 0.0, -0.4, 0.0])
        y = X @ beta + 0.1 * rng.standard_normal(120)
        prob = LassoProblem(y, X, nonnegative=True)
        fit = fit_path_bic(prob, LassoSettings(grid_count=40))
        assert fit.coefficients.min() >= 0.0
        assert not np.signbit(fit.coefficients).any()
        res = kkt_residuals(prob, fit.coefficients, fit.selected_lambda)
        worst_kkt = max(worst_kkt, float(res.max()))
    assert worst_kkt <= 1e-6
    report(3, f"all volatility coefficients >= 0 exactly; worst KKT residual "
              f"{worst_kkt:.2e} <= 1e-6")


# --- criterion 4: parameter recovery ---------------------------------------

RECOVERY_THRESHOLD = 4.0
MEAN_TRUTH = {
    0: [("speed_ar", 0, 1, NO_THR, 0.45), ("speed_ar", 0, 1, RECOVERY_THRESHOLD, 0.25),
        ("speed_ar", 1, 1, NO_THR, 0.10)],
    1: [("speed_ar", 1, 1, NO_THR, 0.50), ("speed_ar", 1, 1, RECOVERY_THRESHOLD, 0.20),
        ("speed_ar", 0, 1, NO_THR, 0.10)],
}
VOL_TRUTH = {
    0: [("pos_shock", 0, 1, 0.30), ("neg_shock", 0, 1, 0.40)],
    1: [("pos_shock", 1, 1, 0.35)],
}


def recovery_config() -> ModelConfig:
    empty = FamilySpec((), ())
    sets = IndexSets(
        speed_ar=FamilySpec((1, 2), (1,), (), (), (1,)),
        speed_ma=empty,
        speed_shock=FamilySpec((1, 2), (1,), (), ()),
        speed_vol_lag=empty,
        power_ar=FamilySpec((1,), (), (), ()),
        speed_reg=FamilySpec((0,), (), (), ()),
        power_ma=empty,
        speed_err=empty,
        power_shock=FamilySpec((1,), (), (), ()),
        power_vol_lag=empty,
        cross_shock=empty,
        cross_vol_lag=empty,
    )
    return ModelConfig(
        sets=sets,
        threshold_policy={"speed": [RECOVERY_THRESHOLD], "power": []},
        diurnal=BSplineSpec(3, 144.0, 4),
        annual=BSplineSpec(3, 4032.0, 4),
        k_max=2,
        min_rows=1000,
        lasso=LassoSettings(grid_count=60, grid_ratio=1e-3),
    )


def recovery_truth():
    # stationary fixed point at the threshold so both branches stay populated
    intercepts = {0: 4.0 * (1 - 0.45 - 0.10) - 0.25 * 4.0,
                  1: 4.0 * (1 - 0.50 - 0.10) - 0.20 * 4.0}
    terms = {}
    for i in (0, 1):
        terms[("speed_mean", i)] = (
            [Term("const", -1, 0, NAN, -1, False, intercepts[i])]
            + [Term(f, j, k, c, -1, False, v) for f, j, k, c, v in MEAN_TRUTH[i]])
        terms[("power_mean", i)] = [
            Term("const", -1, 0, NAN, -1, False, 2.0),
            Term("speed_reg", i, 0, NO_THR, -1, False, 5.0),
            Term("power_ar", i, 1, NO_THR, -1, False, 0.4),
        ]
        terms[("speed_vol", i)] = (
            [Term("const", -1, 0, NAN, -1, False, 0.3)]
            + [Term(f, j, k, NAN, -1, False, v) for f, j, k, v in VOL_TRUTH[i]])
        terms[("power_vol", i)] = [Term("const", -1, 0, NAN, -1, False, 1.0)]
    return terms


def fitted_coefficient(model, eq, i, fam, j, k, thr):
    for t in model.terms[(eq, i)]:
        same = (np.isnan(thr) and np.isnan(t.threshold)) or t.threshold == thr
        if (t.family, t.j, t.lag) == (fam, j, k) and same:
            return t.value
    return 0.0


def test_criterion_04_parameter_recovery():
    gamma = np.sqrt(2.0 / np.pi)  # |shock| regressions estimate E|Z| times truth
    cfg = recovery_config()
    signs, sq, fit_seconds = [], [], []
    for seed in range(10):
        panel = simulate_synthetic(cfg, recovery_truth(), n=20_000, seed=seed)
        t0 = time.perf_counter()
        model = fit_joint_model(panel, cfg)
        fit_seconds.append(time.perf_counter() - t0)
        for i in (0, 1):
            for fam, j, k, c, v in MEAN_TRUTH[i]:
                est = fitted_coefficient(model, "speed_mean", i, fam, j, k, c)
                signs.append(np.sign(est) == np.sign(v))
                sq.append((est - v) ** 2)
            for fam, j, k, v in VOL_TRUTH[i]:
                est = fitted_coefficient(model, "speed_vol", i, fam, j, k, NAN)
                signs.append(np.sign(est) == np.sign(v))
                sq.append((est - gamma * v) ** 2)
    agreement = float(np.mean(signs))
    rmse = float(np.sqrt(np.mean(sq)))
    assert agreement >= 0.90
    assert rmse <= 0.05
    assert max(fit_seconds) < 60.0
    report(4, f"sign agreement {agreement:.0%}, coefficient RMSE {rmse:.4f} "
              f"over 10 replications; slowest fit {max(fit_seconds):.1f} s")


def test_criterion_05_censored_forecast_formula():
    from parkcast.benchmarks import censored_mean

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        latent = rng.uniform(-500.0, 2000.0)
        sigma = rng.uniform(1.0, 600.0)
        lower = rng.uniform(-200.0, 100.0)
        upper = lower + rng.uniform(500.0, 2000.0)
        draws = np.clip(rng.normal(latent, sigma, 10**6), lower, upper)
        se = float(draws.std() / 1000.0)
        err = abs(censored_mean(latent, sigma, lower, upper) - float(draws.mean()))
        assert err <= 3.0 * se + 1e-9
        if se > 1e-6:  # fully saturated configs have ~zero MC spread
            worst = max(worst, err / se)
    report(5, f"20 random configurations within 3 MC standard errors "
              f"(worst {worst:.2f} SE at 10^6 draws)")


@pytest.mark.slow
def test_criterion_06_backtest_supremacy():
    wins = 0
    worst_margin = np.inf
    for seed in range(10):
        cfg = demo_config(60_000)
        panel = simulate_synthetic(cfg, example_generator(2), n=60_000,
                                   seed=100 + seed)
        spec = BacktestSpec(n_origins=30, horizons=tuple(range(1, 289)),
                            in_sample=45_000, seed=seed,
                            models=("persistence", "lasso"))
        rep = run_backtest(panel, spec, lasso_config=cfg)
        gap = rep.mae_mean["persistence"] - rep.mae_mean["lasso"]
        tail = gap[rep.horizons >= 36]
        wins += bool(np.all(tail >= 0.0))
        worst_margin = min(worst_margin, float(tail.min()))
    assert wins >= 9
    report(6, f"model at or below persistence MAE for every k >= 36 in "
              f"{wins}/10 seeded runs (worst tail margin {worst_margin:.2f} kW)")


@pytest.mark.slow
def test_criterion_07_bootstrap_calibration():
    cfg = demo_config(20_000)
    panel = simulate_synthetic(cfg, example_generator(2), n=20_000, seed=42)
    train = 12_000
    prefix = TurbinePanel(panel.timestamps[:train], panel.speed[:train],
                          panel.power[:train], panel.labels,
                          np.zeros((train, 2), bool), np.zeros((train, 2), bool))
    model = fit_joint_model(prefix, cfg)
    fore = Forecaster(model, panel)
    rng = np.random.default_rng(7)
    origins = np.sort(rng.choice(np.arange(train, panel.n - 145), size=500,
                                 replace=False))
    fore.ensure_state(int(origins.max()))
    hits = {(v, h): [] for v in ("speed", "power") for h in (6, 144)}
    violations = 0
    for oi, origin in enumerate(origins):
        fc = fore.bootstrap(int(origin), 144, n_paths=128, seed=1000 + oi)
        for q in (fc.speed_quantiles, fc.power_quantiles):
            violations += int(np.any(np.diff(q, axis=2) < 0.0))
        for h in (6, 144):
            for var, quant, actual in (("speed", fc.speed_quantiles, panel.speed),
                                       ("power", fc.power_quantiles, panel.power)):
                lo, hi = quant[h - 1, :, 9], quant[h - 1, :, 89]
                a = actual[origin + h]
                hits[(var, h)].extend(((a >= lo) & (a <= hi)).tolist())
    coverages = {k: float(np.mean(v)) for k, v in hits.items()}
    for key, cov in coverages.items():
        assert 0.75 <= cov <= 0.85, (key, cov)
    assert violations == 0
    redo = fore.bootstrap(int(origins[0]), 144, n_paths=128, seed=1000)
    first = fore.bootstrap(int(origins[0]), 144, n_paths=128, seed=1000)
    assert np.array_equal(redo.power_quantiles, first.power_quantiles)
    pretty = ", ".join(f"{v}@{h}={coverages[(v, h)]:.1%}"
                       for v in ("speed", "power") for h in (6, 144))
    report(7, f"80% interval coverage {pretty} over 500 origins; "
              f"0 monotonicity violations; seed-reproducible bit-exactly")


@pytest.mark.slow
def test_criterion_08_complexity_scaling():
    from dataclasses import replace

    cfg = replace(demo_config(0), lasso=LassoSettings(grid_count=100,
                                                      grid_ratio=1e-3))
    big = simulate_synthetic(cfg, example_generator(2), n=24_000, seed=5)

    def prefix(n):
        return TurbinePanel(big.timestamps[:n], big.speed[:n], big.power[:n],
                            big.labels, np.zeros((n, 2), bool),
                            np.zeros((n, 2), bool))

    fit_joint_model(prefix(4000), cfg)
    panels = {n: prefix(n) for n in (12_000, 24_000)}
    runs = {n: [] for n in panels}
    for _ in range(7):  # alternate the sizes, so a burst of load hits both
        for n, p in panels.items():
            t0 = time.perf_counter()
            fit_joint_model(p, cfg)
            runs[n].append(time.perf_counter() - t0)
    # the median of the per-pair ratios: the fit time can switch level within
    # a run, and a pair's two fits run back to back
    ratio = float(np.median(np.divide(runs[24_000], runs[12_000])))
    medians = {n: float(np.median(r)) for n, r in runs.items()}
    assert 1.5 <= ratio <= 3.0
    report(8, f"doubling n multiplies fit wall-time by {ratio:.2f} (median of 7 "
              f"pair ratios; {medians[12_000]:.2f} s -> {medians[24_000]:.2f} s)")


def test_criterion_09_periodogram_peak():
    n = 10_000  # 1/144 falls between Fourier bins; leakage peaks at the nearest
    x = np.sin(2 * np.pi * np.arange(n) / 144.0)
    freqs, dens = smoothed_periodogram(x, span=7)
    peak = freqs[int(np.argmax(dens))]
    nearest = np.argmin(np.abs(freqs - 1.0 / 144.0))
    assert peak == freqs[nearest]
    report(9, f"smoothed spectrum peaks at {peak:.6f} cycles/step, the Fourier "
              f"frequency nearest 1/144 = {1/144:.6f}")


def test_criterion_10_serialization_round_trip(small_panel, small_model, tmp_path):
    path = tmp_path / "model.txt"
    save_model(small_model, path)
    back = load_model(path)
    origin = small_panel.n - 1
    a_pt = point_forecast(small_model, small_panel, origin, 48)
    b_pt = point_forecast(back, small_panel, origin, 48)
    assert np.array_equal(a_pt.speed_point, b_pt.speed_point)
    assert np.array_equal(a_pt.power_point, b_pt.power_point)
    a_bs = bootstrap_forecast(small_model, small_panel, origin, 24, 250, seed=17)
    b_bs = bootstrap_forecast(back, small_panel, origin, 24, 250, seed=17)
    assert np.array_equal(a_bs.speed_quantiles, b_bs.speed_quantiles)
    assert np.array_equal(a_bs.power_quantiles, b_bs.power_quantiles)
    assert np.array_equal(a_bs.power_point, b_bs.power_point)
    report(10, "serialize -> deserialize -> forecast bit-identical for point "
               "and bootstrap paths")
