"""Rolling-origin backtest harness and forecast-accuracy metrics.

Origins are sampled uniformly without replacement from the rows that leave a
full in-sample window before them and the full horizon after them; every
model is evaluated on the same origins. Mean absolute errors are reported
per turbine and horizon, as the turbine mean, and as the difference to the
persistence forecaster; signed-error densities are kept at a few display
horizons. Every model forecasts all origins in one call; the sparse joint
model runs each origin as one path of a single engine run.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import BENCHMARKS, make_benchmark
from .forecast import ForecastError, Forecaster, check_seed
from .model import ModelConfig, fit_joint_model
from .panel import TurbinePanel, write_csv

DENSITY_HORIZONS = (1, 24, 144, 288)
SUMMARY_HORIZONS = (1, 6, 24, 48, 72, 144, 288)


class BacktestError(Exception):
    pass


@dataclass(frozen=True)
class BacktestSpec:
    n_origins: int = 1000
    horizons: tuple[int, ...] = tuple(range(1, 289))
    in_sample: int = 52830
    seed: int = 0
    models: tuple[str, ...] = ("persistence",)
    density_horizons: tuple[int, ...] = DENSITY_HORIZONS
    summary_horizons: tuple[int, ...] = SUMMARY_HORIZONS

    def __post_init__(self) -> None:
        try:
            check_seed(self.seed)
        except ForecastError as exc:
            raise ValueError(str(exc)) from None
        if self.n_origins < 1:
            raise ValueError("n_origins must be >= 1")
        if self.in_sample < 1:
            raise ValueError(f"in_sample must be >= 1, got {self.in_sample}")
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError("horizons must be positive")
        unknown = [m for m in self.models if m != "lasso" and m not in BENCHMARKS]
        if unknown:
            raise ValueError(f"models: unknown model(s) {', '.join(map(repr, unknown))}; "
                             f"valid: {', '.join(sorted([*BENCHMARKS, 'lasso']))}")


def mae(forecasts: np.ndarray, actuals: np.ndarray):
    """Mean absolute error per (turbine, horizon) plus the turbine mean.

    Inputs are (n_origins, n_horizons, d); returns ((d, n_horizons), (n_horizons,)).
    """
    forecasts = np.asarray(forecasts, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if forecasts.shape != actuals.shape:
        raise ValueError("forecast/actual shapes disagree")
    if np.isnan(forecasts).any():
        bad = np.argwhere(np.isnan(forecasts))[0]
        raise BacktestError(f"NaN forecast at origin index {bad[0]}, "
                            f"horizon index {bad[1]}, turbine {bad[2]}")
    return _mae_tables(np.abs(actuals - forecasts))


def _mae_tables(abs_err: np.ndarray):
    per_turbine = abs_err.mean(axis=0).T  # (d, H)
    return per_turbine, per_turbine.mean(axis=0)


def dmae(mae_k: np.ndarray, mae_persistence_k: np.ndarray) -> np.ndarray:
    """Difference of a model's horizon-wise MAE to the persistence MAE."""
    return np.asarray(mae_k) - np.asarray(mae_persistence_k)


def mae_standard_deviation(abs_errors: np.ndarray) -> np.ndarray:
    """Standard error of the MAE estimate: sample standard deviation of the
    per-origin absolute errors divided by sqrt(N). Leading axis = origins."""
    abs_errors = np.asarray(abs_errors, dtype=float)
    n = abs_errors.shape[0]
    if n < 2:
        return np.zeros(abs_errors.shape[1:])
    return abs_errors.std(axis=0, ddof=1) / np.sqrt(n)


def error_density(errors, grid=None, bandwidth=None):
    """Gaussian-kernel density of forecast errors on a fixed grid; integrates
    to one up to grid truncation. Returns (grid, density)."""
    e = np.asarray(errors, dtype=float).ravel()
    if e.size == 0:
        raise ValueError("no errors to estimate a density from")
    if bandwidth is None:
        sd = e.std(ddof=1) if e.size > 1 else 1.0
        iqr = np.subtract(*np.percentile(e, [75, 25]))
        scale = min(sd, iqr / 1.34) if iqr > 0 else sd
        bandwidth = 0.9 * max(scale, 1e-12) * e.size ** (-0.2)
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if grid is None:
        lo, hi = e.min() - 4 * bandwidth, e.max() + 4 * bandwidth
        grid = np.linspace(lo, hi, 512)
    grid = np.asarray(grid, dtype=float)
    z = np.subtract.outer(grid, e)
    z /= bandwidth
    kernel = z * -0.5
    kernel *= z
    dens = np.exp(kernel, out=kernel).mean(axis=1) / (bandwidth * np.sqrt(2 * np.pi))
    return grid, dens


class JointModelAdapter:
    """Adapter that lets the sparse joint model run inside the backtest."""

    id = "lasso"

    def __init__(self, config: ModelConfig | None = None):
        self.config = config
        self.forecaster: Forecaster | None = None

    def fit(self, panel: TurbinePanel, end_row: int):
        sub = TurbinePanel(
            timestamps=panel.timestamps[:end_row],
            speed=panel.speed[:end_row],
            power=panel.power[:end_row],
            labels=panel.labels,
            speed_mask=panel.speed_mask[:end_row],
            power_mask=panel.power_mask[:end_row],
            power_range=panel.power_range,
        )
        model = fit_joint_model(sub, self.config)
        self.forecaster = Forecaster(model, panel)
        return self

    def forecast_power(self, panel, origins, horizons):
        # every origin is one path of a single engine run, after filtering the
        # state up to the last origin; an origin it rejects keeps its error
        steps = np.asarray(horizons) - 1
        return [fc if isinstance(fc, ForecastError) else fc.power_point[steps]
                for fc in self.forecaster.point_batch(origins, int(max(horizons)))]


@dataclass
class BacktestReport:
    spec: BacktestSpec
    labels: tuple[str, ...]
    origins: np.ndarray
    horizons: np.ndarray
    mae_turbine: dict = field(default_factory=dict)  # model -> (d, H)
    mae_mean: dict = field(default_factory=dict)  # model -> (H,)
    sd_turbine: dict = field(default_factory=dict)
    sd_mean: dict = field(default_factory=dict)
    dmae_mean: dict = field(default_factory=dict)
    densities: dict = field(default_factory=dict)  # model -> {k: (grid, dens)}
    timings: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)  # model -> [(origin, message)]


def sample_origins(panel_rows: int, spec: BacktestSpec) -> np.ndarray:
    max_h = int(max(spec.horizons))
    lo, hi = spec.in_sample, panel_rows - max_h - 1
    if hi < lo:
        raise BacktestError(
            f"panel too short: need at least {spec.in_sample + max_h + 1} rows"
        )
    candidates = np.arange(lo, hi + 1)
    if spec.n_origins > candidates.size:
        raise BacktestError(
            f"cannot draw {spec.n_origins} origins from {candidates.size} candidates"
        )
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.seed)))
    picked = rng.choice(candidates, size=spec.n_origins, replace=False)
    return np.sort(picked)


def _instantiate(name: str, lasso_config):
    if name == "lasso":
        return JointModelAdapter(lasso_config)
    return make_benchmark(name)


def run_backtest(panel: TurbinePanel, spec: BacktestSpec,
                 lasso_config: ModelConfig | None = None,
                 workers: int = 1) -> BacktestReport:
    """Fit every requested model once on the initial in-sample window, then
    forecast power at every sampled origin in one call per model; an origin
    that fails (raises, or forecasts NaN or inf) is recorded with its message
    and left out. Deterministic given
    the spec seed. ``workers`` must be 1; it stays for callers that pass it."""
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if panel.has_missing():
        raise BacktestError("panel has missing values; fill gaps first")
    origins = sample_origins(panel.n, spec)
    horizons = np.asarray(sorted(set(spec.horizons)), dtype=int)
    model_ids = list(spec.models)
    if "persistence" not in model_ids:
        model_ids.insert(0, "persistence")  # always needed for the DMAE baseline

    actuals = panel.power[origins[:, None] + horizons]  # (origins, H, d)

    report = BacktestReport(spec=spec, labels=panel.labels, origins=origins,
                            horizons=horizons)
    for name in model_ids:
        t0 = time.perf_counter()
        model = _instantiate(name, lasso_config)
        model.fit(panel, spec.in_sample)
        preds = np.full((origins.size, horizons.size, panel.d), np.nan)
        failures = []
        for oi, fc in enumerate(model.forecast_power(panel, origins, horizons)):
            if isinstance(fc, Exception) or not np.isfinite(fc).all():
                failures.append((int(origins[oi]), str(fc) if isinstance(fc, Exception)
                                 else "forecast is not finite"))
            else:
                preds[oi] = fc
        if failures:
            warnings.warn(f"{name}: {len(failures)} origin(s) failed and were excluded")
        ok = ~np.isnan(preds).any(axis=(1, 2))
        if not ok.any():
            raise BacktestError(f"model {name} failed at every origin")
        err = actuals[ok] - preds[ok]  # (N_ok, H, d)
        abs_err = np.abs(err)
        per_turbine, mean_k = _mae_tables(abs_err)
        report.mae_turbine[name] = per_turbine
        report.mae_mean[name] = mean_k
        report.sd_turbine[name] = mae_standard_deviation(abs_err).T
        report.sd_mean[name] = mae_standard_deviation(abs_err.mean(axis=2))
        dens = {}
        for k in spec.density_horizons:
            pos = np.searchsorted(horizons, k)
            if pos < horizons.size and horizons[pos] == k:
                dens[int(k)] = error_density(err[:, pos, :].ravel())
        report.densities[name] = dens
        report.failures[name] = failures
        report.timings[name] = time.perf_counter() - t0

    base = report.mae_mean["persistence"]
    for name in model_ids:
        report.dmae_mean[name] = dmae(report.mae_mean[name], base)
    return report


def write_report(report: BacktestReport, outdir) -> list[str]:
    """Emit mae.csv, dmae.csv, density_<k>.csv and a summary table; returns
    the written file names."""
    import os

    os.makedirs(outdir, exist_ok=True)
    written = []

    def write(name, header, rows):
        path = os.path.join(outdir, name)
        write_csv(path, header, rows)
        written.append(path)

    write("mae.csv", ["model", "turbine", "k", "mae", "sd"], (
        [name, report.labels[ti], report.horizons[hi], x, report.sd_turbine[name][ti, hi]]
        for name, table in report.mae_turbine.items()
        for (ti, hi), x in np.ndenumerate(table)))
    write("dmae.csv", ["model", "k", "mae", "sd", "dmae"], (
        [name, k, report.mae_mean[name][hi], report.sd_mean[name][hi], vals[hi]]
        for name, vals in report.dmae_mean.items()
        for hi, k in enumerate(report.horizons)))
    for k in report.spec.density_horizons:
        rows = [(name, d[k]) for name, d in report.densities.items() if k in d]
        if rows:
            write(f"density_{k}.csv", ["model", "error", "density"],
                  ([name, g, v] for name, (grid, dens) in rows
                   for g, v in zip(grid, dens)))
    cols = [k for k in report.spec.summary_horizons
            if k in set(report.horizons.tolist())]
    at = np.searchsorted(report.horizons, cols)
    write("summary.csv", ["model"] + cols, (
        [name] + [f"{report.mae_mean[name][hi]:.2f}({report.sd_mean[name][hi]:.2f})"
                  for hi in at]
        for name in report.mae_mean))
    write("run_info.csv", ["model", "seconds", "failures"], (
        [name, secs, len(report.failures[name])] for name, secs in report.timings.items()))
    return written
