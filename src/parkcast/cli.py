"""Command-line surface: ingest, analyze, simulate, fit, forecast, backtest.

Every command takes a YAML config file as its positional argument; unknown
keys are rejected and the fully-resolved settings are written to
``<out-dir>/effective-config.yaml`` so any run can be reproduced from that
artifact alone. All randomness flows through explicit seeds.

Exit codes: 0 success, 2 config error, 3 missing file, 4 data/schema error
(a bad panel or model file), 5 model or runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import yaml

from .basis import ANNUAL_STEPS, BSplineSpec
from .design import (
    EQUATIONS,
    DesignContext,
    build_design,
    dump_columns_csv,
    index_sets_from,
)
from .evaluation import BacktestSpec, run_backtest, write_report
from .forecast import ForecastError, Forecaster, check_seed, simulate_synthetic
from .lasso import LassoSettings
from .model import (
    ModelConfig,
    ModelFormatError,
    calendar_bases,
    design_inputs,
    fit_joint_model,
    load_model,
    save_model,
)
from .panel import (
    PanelError,
    PanelSchema,
    TurbinePanel,
    fill_gaps_linear,
    load_panel,
    seasonal_mean_profile,
    smoothed_periodogram,
    write_csv,
    write_panel,
)
from .presets import example_generator

EXIT_CONFIG, EXIT_MISSING, EXIT_DATA, EXIT_RUNTIME = 2, 3, 4, 5
ANALYSES = ("periodogram", "profiles", "design", "basis")  # analyze.what


class ConfigError(Exception):
    pass


DEFAULT_CONFIG = {
    "schema": {"timestamp": "ts", "turbines": "auto"},
    "output_dir": "out",
    "seed": 0,
    "model": {
        "k_max": 2,
        "vol_floor_fraction": 1e-3,
        "min_rows": 5000,
        "threshold_policy": "deciles",
        "degree": 3,
        "diurnal_basis": 12,
        "annual_basis": 4,
        "annual_season": ANNUAL_STEPS,
        "own_short_max": 40,
        "own_long_band": [140, 150],
        "cross_max": 6,
        "time_varying": True,
        "lasso": {
            "grid_count": 100,
            "grid_ratio": 1e-4,
            "tol": 1e-7,
            "max_sweeps": 10000,
        },
    },
    "ingest": {"input": "", "fill_gaps": True},
    "simulate": {"n": 20000, "d": 2, "start": "2010-11-01T00:00:00"},
    "analyze": {
        "what": "periodogram",
        "turbine": "",
        "variable": "speed",
        "span": 101,
        "equation": "speed_mean",
        "basis_kind": "cumulative",
    },
    "forecast": {"origin": -1, "horizon": 288, "n_paths": 1000, "bootstrap": True},
    "backtest": {
        "n_origins": 1000,
        "max_horizon": 288,
        "in_sample": 52830,
        "models": ["persistence", "ar"],
    },
}


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    out = {}
    for key, dval in defaults.items():
        if key in user:
            uval = user[key]
            if isinstance(dval, dict):
                out[key] = _merge(dval, uval, f"{path}{key}.")
            else:
                out[key] = uval
        else:
            out[key] = dval
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): "
                          f"{', '.join(path + k for k in sorted(unknown))}")
    return out


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file {path!r} not found")
    with open(path) as fh:
        user = yaml.safe_load(fh) or {}
    return _merge(DEFAULT_CONFIG, user)


def write_effective_config(cfg: dict, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "effective-config.yaml"), "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def model_config_from(cfg: dict) -> ModelConfig:
    """The ``model`` section as a ModelConfig; a value it refuses is a
    ConfigError that names its key."""
    m = cfg["model"]

    def setting(*keys: str, parse=_integer):
        value = m
        for key in keys:
            value = value[key]
        return parse(value, ".".join(("model",) + keys))

    band = m["own_long_band"]
    if band not in (None, []) and not (isinstance(band, list) and len(band) == 2):
        raise ConfigError(f"model.own_long_band must be [first, last] or [], got {band!r}")
    long_band = tuple(_integer(b, "model.own_long_band") for b in band) if band else None
    sets = _built("model.", index_sets_from, setting("own_short_max"), long_band,
                  setting("cross_max"), _flag(cfg, "model", "time_varying"))
    return _built(
        "model.", ModelConfig, sets=sets, threshold_policy=m["threshold_policy"],
        diurnal=_built("model.degree or model.diurnal_basis: ", BSplineSpec, setting("degree"),
                       144.0, setting("diurnal_basis"), strict_partition=True),
        annual=_built("model.degree, model.annual_season or model.annual_basis: ",
                      BSplineSpec, setting("degree"), setting("annual_season", parse=_real),
                      setting("annual_basis")),
        k_max=setting("k_max"), vol_floor_fraction=setting("vol_floor_fraction", parse=_real),
        min_rows=setting("min_rows"),
        lasso=_built("model.lasso.", LassoSettings, grid_count=setting("lasso", "grid_count"),
                     grid_ratio=setting("lasso", "grid_ratio", parse=_real),
                     tol=setting("lasso", "tol", parse=_real),
                     max_sweeps=setting("lasso", "max_sweeps")))


def _built(prefix: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError raised as a ConfigError whose
    message starts with ``prefix``: the keys it read."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _integer(value, key: str) -> int:
    """A YAML integer; an integral float such as 1000.0 counts as one. A bool
    is refused, though Python counts it as an int, and so are fractions and
    strings, which ``int`` would truncate or parse."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A number, or a string that ``float`` reads (YAML 1.1 leaves 1e-4 a
    string). A bool is refused."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _positive(cfg: dict, section: str, key: str) -> int:
    value = _integer(cfg[section][key], f"{section}.{key}")
    if value < 1:
        raise ConfigError(f"{section}.{key} must be >= 1, got {value}")
    return value


def _flag(cfg: dict, section: str, key: str) -> bool:
    """A YAML boolean; a quoted "false" is truthy, so strings are refused."""
    value = cfg[section][key]
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be true or false, got {value!r}")
    return value


def _seed(cfg: dict) -> int:
    try:
        return check_seed(cfg["seed"])
    except ForecastError as exc:
        raise ConfigError(str(exc)) from None


def _read_panel(path: str | None, cfg: dict) -> TurbinePanel:
    if not path:
        raise ConfigError("a panel CSV is required; pass --panel PATH")
    if not os.path.exists(path):
        raise FileNotFoundError(f"panel file {path!r} not found")
    s = cfg["schema"]
    turbines = () if s["turbines"] in ("auto", None) else s["turbines"]
    return load_panel(path, PanelSchema(str(s["timestamp"]),
                                        tuple(str(t) for t in turbines)))


def _write_forecast_csv(result, path: str) -> None:
    header = ["origin_ts", "horizon", "turbine", "variable", "point"]
    write_csv(path, header + [f"p{q:02d}" for q in range(1, 100)], (
        [result.origin_timestamp, h + 1, result.labels[i], var, x]
        + ([""] * 99 if quant is None else list(quant[h, i]))
        for var, point, quant in (("speed", result.speed_point, result.speed_quantiles),
                                  ("power", result.power_point, result.power_quantiles))
        for (h, i), x in np.ndenumerate(point)))


# ---------------------------------------------------------------------------
# command handlers


def cmd_ingest(cfg: dict, args) -> int:
    src = args.input or cfg["ingest"]["input"]
    if not src:
        raise ConfigError("ingest.input (or --input) is required")
    fill_gaps = _flag(cfg, "ingest", "fill_gaps")
    panel = _read_panel(src, cfg)
    if fill_gaps:
        panel = fill_gaps_linear(panel)
    out = os.path.join(cfg["output_dir"], "panel.csv")
    write_panel(panel, out, str(cfg["schema"]["timestamp"]))
    print(f"wrote {out}: {panel.n} rows x {panel.d} turbines")
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    from .panel import parse_timestamp
    from .presets import demo_config

    n, d = _positive(cfg, "simulate", "n"), _positive(cfg, "simulate", "d")
    seed = _seed(cfg)
    start = parse_timestamp(str(cfg["simulate"]["start"]), 0)
    gen_cfg = demo_config(n)
    labels = tuple(chr(ord("A") + i) for i in range(d))
    panel = simulate_synthetic(gen_cfg, example_generator(d), n, seed,
                               labels=labels, start_epoch=start)
    out = os.path.join(cfg["output_dir"], "panel.csv")
    write_panel(panel, out, str(cfg["schema"]["timestamp"]))
    print(f"wrote {out}: {panel.n} rows x {panel.d} turbines (seed {cfg['seed']})")
    return 0


def _choice(cfg: dict, key: str, choices: tuple[str, ...]) -> str:
    """``analyze.<key>``, which must be one of ``choices``."""
    value = cfg["analyze"][key]
    if value not in choices:
        raise ConfigError(f"analyze.{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _analyze_turbine(cfg, panel) -> tuple[str, int]:
    label = cfg["analyze"]["turbine"] or panel.labels[0]
    if label not in panel.labels:
        raise ConfigError(f"analyze.turbine {label!r} is not in the panel; "
                          f"its turbines are {', '.join(panel.labels)}")
    return label, panel.labels.index(label)


def _analyze_design(cfg, config, panel, outdir) -> str:
    equation = _choice(cfg, "equation", tuple(EQUATIONS))
    label, i = _analyze_turbine(cfg, panel)
    _, bases, thresholds = design_inputs(panel, config)
    ones = np.ones((panel.n, panel.d))
    ctx = DesignContext(panel.speed, panel.power, ones, ones, ones, ones,
                        bases["cumulative"].values, bases["plain"].values,
                        config.sets.max_lag())
    dm, _ = build_design(ctx, equation, i, config.sets, thresholds)
    out = os.path.join(outdir, f"design_{equation}_{label}.csv")
    dump_columns_csv(equation, i, dm.columns, out)
    return out


def cmd_analyze(cfg: dict, args) -> int:
    what = args.what or _choice(cfg, "what", ANALYSES)
    # a bad model setting is a config error, whatever the panel
    config = model_config_from(cfg) if what in ("design", "basis") else None
    panel = fill_gaps_linear(_read_panel(args.panel, cfg))
    outdir = cfg["output_dir"]
    if what == "periodogram":
        label, i = _analyze_turbine(cfg, panel)
        var = _choice(cfg, "variable", ("speed", "power"))
        series = panel.speed[:, i] if var == "speed" else panel.power[:, i]
        span = _integer(cfg["analyze"]["span"], "analyze.span")
        freqs, dens = smoothed_periodogram(series, span)
        out = os.path.join(outdir, f"periodogram_{label}_{var}.csv")
        write_csv(out, ["frequency", "density"], zip(freqs, dens))
    elif what == "profiles":
        prof = seasonal_mean_profile(panel)
        out = os.path.join(outdir, "profiles.csv")
        write_csv(out, ["season", "tod", "turbine", "variable", "mean"],
                  ([s, tau, panel.labels[i], ("speed", "power")[v], x]
                   for (s, tau, i, v), x in np.ndenumerate(prof)))
    elif what == "design":
        out = _analyze_design(cfg, config, panel, outdir)
    else:  # "basis"
        kind = _choice(cfg, "basis_kind", ("cumulative", "plain"))
        _, bases = calendar_bases(panel, config, (kind,))
        bs = bases[kind]
        out = os.path.join(outdir, f"basis_{kind}.csv")
        write_csv(out, ["ts"] + [f"b{a}_{b}" for a, b in bs.pairs],
                  ([t] + list(row) for t, row in zip(panel.timestamps, bs.values)))
    print(f"wrote {out}")
    return 0


def cmd_fit(cfg: dict, args) -> int:
    config = model_config_from(cfg)
    panel = fill_gaps_linear(_read_panel(args.panel, cfg))
    model = fit_joint_model(panel, config)
    out = os.path.join(cfg["output_dir"], "model.txt")
    save_model(model, out)
    nz = sum(len(v) for v in model.terms.values())
    print(f"wrote {out}: {nz} nonzero coefficients across "
          f"{len(model.terms)} equations")
    return 0


def cmd_forecast(cfg: dict, args) -> int:
    horizon = _positive(cfg, "forecast", "horizon")
    n_paths = _positive(cfg, "forecast", "n_paths")
    bootstrap = _flag(cfg, "forecast", "bootstrap")
    if not args.model or not os.path.exists(args.model):
        raise FileNotFoundError(f"model file {args.model!r} not found")
    model = load_model(args.model)
    panel = fill_gaps_linear(_read_panel(args.panel, cfg))
    fcfg = cfg["forecast"]
    origin, n = _integer(fcfg["origin"], "forecast.origin"), panel.n
    if not -n <= origin < n:
        raise ConfigError(f"forecast.origin must lie in [{-n}, {n}) for this panel, "
                          f"got {origin}")
    origin %= n  # a negative origin counts back from the panel's end
    fore = Forecaster(model, panel)
    if bootstrap:
        result = fore.bootstrap(origin, horizon, n_paths, _seed(cfg))
    else:
        result = fore.point(origin, horizon)
    out = os.path.join(cfg["output_dir"], "forecast.csv")
    _write_forecast_csv(result, out)
    print(f"wrote {out}")
    return 0


def cmd_backtest(cfg: dict, args) -> int:
    n_origins = _positive(cfg, "backtest", "n_origins")
    max_horizon = _positive(cfg, "backtest", "max_horizon")
    in_sample = _positive(cfg, "backtest", "in_sample")
    models = cfg["backtest"]["models"]
    if not isinstance(models, list):
        raise ConfigError(f"backtest.models must be a list of model names, got {models!r}")
    spec = _built("backtest.", BacktestSpec, n_origins=n_origins,
                  horizons=tuple(range(1, max_horizon + 1)), in_sample=in_sample,
                  seed=_seed(cfg), models=tuple(str(m) for m in models))
    config = model_config_from(cfg)
    panel = fill_gaps_linear(_read_panel(args.panel, cfg))
    report = run_backtest(panel, spec, lasso_config=config)
    files = write_report(report, cfg["output_dir"])
    print("wrote " + ", ".join(files))
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkcast",
        description="Joint wind speed/power forecasting toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="YAML config file")
        p.add_argument("--out-dir", default=None, help="override output_dir")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--panel", default=None, help="panel CSV path")
        if name == "ingest":
            p.add_argument("--input", default=None, help="raw input CSV")
        if name == "analyze":
            p.add_argument("--what", default=None, choices=ANALYSES)
        if name == "forecast":
            p.add_argument("--model", required=True, help="serialized model file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out_dir is not None:
            cfg["output_dir"] = args.out_dir
        if args.seed is not None:
            cfg["seed"] = int(args.seed)
        write_effective_config(cfg, cfg["output_dir"])
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: missing-file: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (PanelError, ModelFormatError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - single exit point
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
