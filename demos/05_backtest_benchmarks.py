"""Rolling-origin backtest against the reference forecasters.
==============================================================

Every model fits once on the initial window, then forecasts power at shared
random origins. MAE per horizon is reported as the mean over turbines, plus
the difference to the persistence forecaster (negative = better than
carrying the last observation forward).

Runs a deliberately small configuration: about 8 s on a 2-core x86 VM.
"""

import numpy as np

from parkcast.evaluation import BacktestSpec, run_backtest
from parkcast.forecast import simulate_synthetic
from parkcast.presets import demo_config, example_generator

cfg = demo_config(30_000)
panel = simulate_synthetic(cfg, example_generator(2), n=30_000, seed=8)

spec = BacktestSpec(
    n_origins=25,
    horizons=tuple(range(1, 145)),
    in_sample=22_000,
    seed=1,
    models=("persistence", "ar", "bvar", "arma11", "wppt", "gwppt", "lasso"),
    density_horizons=(1, 144),
    summary_horizons=(1, 6, 24, 72, 144),
)
report = run_backtest(panel, spec, lasso_config=cfg)

cols = (1, 6, 24, 72, 144)
print(f"\nMAE_k (kW), mean over {panel.d} turbines, {spec.n_origins} origins")
print(f"{'model':12s}" + "".join(f"{k:>9d}" for k in cols))
for name in report.mae_mean:
    vals = [report.mae_mean[name][int(np.searchsorted(report.horizons, k))]
            for k in cols]
    print(f"{name:12s}" + "".join(f"{v:9.2f}" for v in vals))

print("\nDMAE_k (difference to persistence; negative is better)")
print(f"{'model':12s}" + "".join(f"{k:>9d}" for k in cols))
for name in report.dmae_mean:
    vals = [report.dmae_mean[name][int(np.searchsorted(report.horizons, k))]
            for k in cols]
    print(f"{name:12s}" + "".join(f"{v:9.2f}" for v in vals))

print("\nseconds per model:",
      {k: round(v, 1) for k, v in report.timings.items()})
grid, dens = report.densities["lasso"][144]
err_at_peak = grid[int(np.argmax(dens))]
print(f"lasso day-ahead error density peaks near {err_at_peak:.1f} kW "
      "(symmetric errors keep the operator's over/under costs balanced)")
