"""No step imports SciPy: the pipeline, a backtest of the lasso and every
reference model, and the ARMA(1,1) and censored power-curve fits all run in
an interpreter where any SciPy import fails, and give the same results as
with SciPy's optimize, signal and special imported up front. The test
process has imported SciPy already, so each check runs in a fresh
interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parkcast

SRC = str(Path(parkcast.__file__).resolve().parents[1])

SCRIPT = r"""
import hashlib, json, os, sys, tempfile
if sys.argv[1] == "preload":
    import scipy.optimize, scipy.signal, scipy.special
else:
    sys.modules["scipy"] = None  # every SciPy import now raises ImportError
import numpy as np

loaded = {}

def step(name):
    # the public SciPy subpackages loaded so far
    loaded[name] = sorted(m for m, mod in list(sys.modules.items())
                          if m.startswith("scipy.") and m.count(".") == 1
                          and not m[6:].startswith("_") and hasattr(mod, "__path__"))

import parkcast
from parkcast.benchmarks import Arma11Model, GwpptModel
from parkcast.evaluation import BacktestSpec, run_backtest
from parkcast.forecast import Forecaster, simulate_synthetic
from parkcast.model import fit_joint_model, load_model, save_model
from parkcast.presets import demo_config, example_generator
step("import")

cfg = demo_config(4000)
panel = simulate_synthetic(cfg, example_generator(2), n=4000, seed=5)
with tempfile.TemporaryDirectory() as tmp:
    save_model(fit_joint_model(panel, cfg), os.path.join(tmp, "model.txt"))
    fore = Forecaster(load_model(os.path.join(tmp, "model.txt")), panel)
step("fit, save, load")
fore.point(panel.n - 1, 12)
fore.bootstrap(panel.n - 1, 12, n_paths=100, seed=1)
fore.point_batch([panel.n - 50, panel.n - 1], 12)
step("point, bootstrap, point_batch")
spec = BacktestSpec(n_origins=5, horizons=(1, 2, 6), in_sample=3000,
                    models=("persistence", "ar", "var", "bvar", "arma11", "wppt", "gwppt",
                            "lasso"))
run_backtest(panel, spec, lasso_config=cfg)
step("backtest")

digest = hashlib.sha256()
arma = Arma11Model().fit(panel, 3000)
arma_fc = arma.forecast_power(panel, np.array([3500, 0]), np.array([1, 6]))
digest.update(np.array(arma_fc).tobytes())
for f in arma.fits:
    digest.update(np.array([f.ar, f.ma, f.mean, f.sigma2]).tobytes())
step("arma11")
gw = GwpptModel().fit(panel, 3000)
gw_fc = gw.forecast_power(panel, np.array([3500, 3600]), np.array([1, 2]))
digest.update(np.array(gw_fc).tobytes())
for f in gw._cache.values():
    digest.update(np.append(f.coefs, f.sigma).tobytes())
step("gwppt")
print(json.dumps({"loaded": loaded, "digest": digest.hexdigest()}))
"""


def run_fresh(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT, mode], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def blocked():
    return run_fresh("blocked")


STEPS = ["import", "fit, save, load", "point, bootstrap, point_batch", "backtest", "arma11",
         "gwppt"]


@pytest.mark.parametrize("step", STEPS)
def test_pipeline_loads_none_of_them(blocked, step):
    assert blocked["loaded"][step] == []


def test_results_equal_those_with_scipy_imported_up_front(blocked):
    eager = run_fresh("preload")
    assert {"scipy.optimize", "scipy.signal", "scipy.special"} <= set(eager["loaded"]["import"])
    assert blocked["digest"] == eager["digest"]
