"""The benchmark's three workloads: inputs, set-up, one timed operation and
the checks on its output.

Every input comes from ``simulate_synthetic`` with ``example_generator(2)``
(two turbines), seeded from the workload seed. Each workload sets up several
independent units (panels or fitted models) and times one operation per
unit; averaging over units is what keeps a run's figures steady, because
the lasso's sweep count, and with it the fit time, changes a lot from one
simulated panel to the next.

All calls into parkcast go through the module attribute the program itself
uses (``pm.fit_joint_model``, ``pf.simulate_synthetic``, ...), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import parkcast.evaluation as pe
import parkcast.forecast as pf
import parkcast.model as pm
from parkcast.design import index_sets_from
from parkcast.lasso import LassoSettings
from parkcast.presets import demo_config, example_generator

from tracing import BENCHMARK_CLASSES

# A 1e-2 grid end stops the path before the near-flat valley where
# coordinate descent wanders: on the 1e-3 grid of demo_config the 12k-row
# demo fit took 4.2-17.2 s over six seeds on the reference box, a spread no
# run that fits the time budget can average down.
LASSO = LassoSettings(grid_count=30, grid_ratio=1e-2)
HORIZON = 288
BACKTEST_MODELS = tuple(BENCHMARK_CLASSES) + ("lasso",)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``SMOKE`` runs the same code in a few seconds."""

    wide_rows: int
    wide_panels: int
    wide_own_lags: int
    wide_cross_lags: int
    fan_rows: int
    fan_models: int
    fan_origins: int  # per model
    fan_paths: int
    fan_horizon: int
    bt_rows: int
    bt_in_sample: int
    bt_panels: int
    bt_origins: int
    bt_horizon: int


FULL = Sizes(wide_rows=12_000, wide_panels=7, wide_own_lags=20, wide_cross_lags=6,
             fan_rows=6000, fan_models=4, fan_origins=10, fan_paths=1000,
             fan_horizon=HORIZON,
             bt_rows=6000, bt_in_sample=4000, bt_panels=12, bt_origins=50,
             bt_horizon=HORIZON)
SMOKE = Sizes(wide_rows=1300, wide_panels=2, wide_own_lags=4, wide_cross_lags=2,
              fan_rows=1300, fan_models=2, fan_origins=2, fan_paths=100,
              fan_horizon=24,
              bt_rows=1700, bt_in_sample=1300, bt_panels=2, bt_origins=4,
              bt_horizon=24)


@dataclass
class Outcome:
    """What one timed operation produced, for the checks and the report."""

    times: dict[str, float] = field(default_factory=dict)  # sub-timings, s
    counts: tuple = ()  # exact work counts; must repeat exactly
    digest: str = ""  # hash of the output; must repeat bit for bit
    ops: int = 1  # operations attempted (fits, forecasts, model-origin pairs)
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    quality: float = 0.0  # bic_sum (fit_wide) or dmae_kw (backtest)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _vol_coefficients(model) -> np.ndarray:
    return np.array([t.value for (eq, _), terms in model.terms.items()
                     if eq.endswith("_vol") for t in terms])


def _unit_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


class FitWide:
    """One ``fit_joint_model`` per panel on a wide constant-coefficient lag
    structure: the lasso path solver dominates."""

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed
        self.config = replace(
            demo_config(sizes.wide_rows),
            sets=index_sets_from(own_short_max=sizes.wide_own_lags,
                                 own_long_band=None,
                                 cross_max=sizes.wide_cross_lags,
                                 time_varying=False),
            lasso=LASSO,
        )
        self.n_setups = sizes.wide_panels

    def setup(self, k: int):
        return [pf.simulate_synthetic(self.config, example_generator(2),
                                      self.sizes.wide_rows,
                                      seed=_unit_seed(self.seed, k))], {}

    def run(self, panel) -> Outcome:
        model = pm.fit_joint_model(panel, self.config)
        fits = model.fits
        vol = _vol_coefficients(model)
        bic = sum(float(f.bic_path[f.selected_index]) for f in fits.values())
        coefs = np.concatenate([f.coefficients for f in fits.values()])
        return Outcome(
            counts=tuple((int(f.sweeps.sum()), f.lambdas.size, f.coef_path.shape[1])
                         for f in fits.values()),
            digest=_digest(coefs),
            checks={"finite": bool(np.isfinite(coefs).all() and np.isfinite(bic)),
                    "vol_nonnegative": bool((vol >= 0.0).all())},
            quality=bic,
        )


@dataclass
class FanUnit:
    forecaster: object
    origin: int


class Fan:
    """Point and 1000-path bootstrap forecasts from a saved-and-loaded
    model, at origins inside its saved state tail."""

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.config = replace(demo_config(sizes.fan_rows), lasso=LASSO)
        self.n_setups = sizes.fan_models

    def setup(self, k: int):
        s = self.sizes
        panel = pf.simulate_synthetic(self.config, example_generator(2), s.fan_rows,
                                      seed=_unit_seed(self.seed, k))
        fitted = pm.fit_joint_model(panel, self.config)
        path = os.path.join(self.workdir, f"model_{k}.txt")
        pm.save_model(fitted, path)
        model = pm.load_model(path)
        os.remove(path)
        forecaster = pf.Forecaster(model, panel)
        # a loaded model holds only the state tail, so origins must leave
        # ``trim`` rows of it behind them
        first = forecaster.start + model.trim - 1
        rng = np.random.default_rng(_unit_seed(self.seed, k))
        origins = np.sort(rng.choice(np.arange(first, panel.n), size=s.fan_origins,
                                     replace=False))
        checks = {"vol_nonnegative": bool((_vol_coefficients(model) >= 0.0).all())}
        return [FanUnit(forecaster, int(o)) for o in origins], checks

    def run(self, unit: FanUnit) -> Outcome:
        s = self.sizes
        fc = unit.forecaster
        covered = fc.covered_through
        t0 = time.perf_counter()
        point = fc.point(unit.origin, s.fan_horizon)
        t1 = time.perf_counter()
        fan = fc.bootstrap(unit.origin, s.fan_horizon, n_paths=s.fan_paths,
                           seed=unit.origin)
        t2 = time.perf_counter()
        quantiles = (fan.speed_quantiles, fan.power_quantiles)
        outputs = (point.speed_point, point.power_point,
                   fan.speed_point, fan.power_point) + quantiles
        return Outcome(
            times={"point_s": t1 - t0, "fan_s": t2 - t1},
            counts=(fan.n_paths * fan.horizon, fc.covered_through - covered),
            digest=_digest(*outputs),
            ops=2,
            checks={"finite": all(bool(np.isfinite(a).all()) for a in outputs),
                    "quantiles_monotone": all(bool((np.diff(q, axis=2) >= 0.0).all())
                                              for q in quantiles)},
        )


class Backtest:
    """``run_backtest`` with the lasso and five reference models on a panel
    whose in-sample window is followed by rows the lasso must filter."""

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed
        self.config = replace(demo_config(sizes.bt_in_sample), lasso=LASSO)
        self.n_setups = sizes.bt_panels

    def setup(self, k: int):
        return [pf.simulate_synthetic(self.config, example_generator(2),
                                      self.sizes.bt_rows,
                                      seed=_unit_seed(self.seed, k))], {}

    def run(self, panel) -> Outcome:
        s = self.sizes
        spec = pe.BacktestSpec(n_origins=s.bt_origins,
                               horizons=tuple(range(1, s.bt_horizon + 1)),
                               in_sample=s.bt_in_sample, seed=self.seed,
                               models=BACKTEST_MODELS)
        report = pe.run_backtest(panel, spec, lasso_config=self.config, workers=1)
        failures = sum(len(v) for v in report.failures.values())
        maes = [report.mae_mean[m] for m in BACKTEST_MODELS]
        return Outcome(
            counts=tuple(len(report.failures[m]) for m in BACKTEST_MODELS),
            digest=_digest(*maes),
            ops=len(BACKTEST_MODELS) * s.bt_origins,
            failed=failures,
            checks={"finite": all(bool(np.isfinite(a).all()) for a in maes)},
            quality=float(np.mean(report.dmae_mean["lasso"])),
        )


def make(name: str, sizes: Sizes, seed: int, workdir: str):
    if name == "fit_wide":
        return FitWide(sizes, seed)
    if name == "fan":
        return Fan(sizes, seed, workdir)
    if name == "backtest":
        return Backtest(sizes, seed)
    raise ValueError(f"unknown workload {name!r}")
