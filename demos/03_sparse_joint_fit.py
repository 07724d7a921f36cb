"""Fitting the joint speed/power model and reading the sparse result.
======================================================================

Simulate a two-turbine panel from known coefficients, run the iteratively
re-weighted fit (two passes: means by weighted lasso, volatilities by
nonnegative lasso, fitted volatilities feeding back as weights), and compare
what the selector kept against the truth.

Note the volatility scale: the |shock| regressions estimate E|Z| times the
underlying coefficients (about 0.798 for Gaussian shocks), so recovered
volatility values are reported next to that target.
"""

import numpy as np

from parkcast.forecast import simulate_synthetic
from parkcast.model import fit_joint_model
from parkcast.presets import demo_config, example_generator

cfg = demo_config(30_000)
truth = example_generator(d=2)
panel = simulate_synthetic(cfg, truth, n=30_000, seed=11)
print(f"simulated panel: {panel.n} rows x {panel.d} turbines; "
      f"speed mean {panel.speed.mean():.2f} m/s, "
      f"power mean {panel.power.mean():.1f} kW")

model = fit_joint_model(panel, cfg)

candidates = {eq: model.fits[(eq, 0)].coef_path.shape[1]
              for eq in ("speed_mean", "power_mean", "speed_vol", "power_vol")}
kept = {eq: len(model.terms[(eq, 0)]) for eq in candidates}
print("\nsparsity for turbine A (kept / candidate columns):")
for eq in candidates:
    print(f"  {eq:11s} {kept[eq]:3d} / {candidates[eq]}")

gamma = np.sqrt(2 / np.pi)


def term_key(t):
    thr = "-" if np.isnan(t.threshold) else f"{t.threshold:.2f}"
    return (t.family, t.j, t.lag, thr)


def show(eq, label, scale=1.0):
    print(f"\n{label}")
    fitted = {term_key(t): t.value
              for t in model.terms[(eq, 0)] if t.family != "const"}
    truth_terms = {term_key(t): t.value * scale
                   for t in truth[(eq, 0)] if t.family != "const"}
    for key in sorted(set(fitted) | set(truth_terms)):
        fam, j, lag, thr = key
        print(f"  {fam:10s} j={j} lag={lag} thr={thr:6s} "
              f"true={truth_terms.get(key, 0.0):7.3f}  "
              f"fitted={fitted.get(key, 0.0):7.3f}")


show("speed_mean", "speed mean coefficients (turbine A; fitted thresholds "
                   "are data-driven deciles, so the generator's corner at "
                   "6.0 lands on the nearest decile):")
show("speed_vol", f"speed volatility (targets are E|Z| x truth = "
                  f"{gamma:.3f} x truth):", scale=gamma)

resid = model.pools["E"][:, 0]
print(f"\nstandardized speed residuals: mean |z| = {np.abs(resid).mean():.3f} "
      "(the proxy scale absorbs E|Z|, so this sits near 1)")
