import os
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest
import yaml

from parkcast.cli import DEFAULT_CONFIG, _read_panel, load_config, main, model_config_from
from parkcast.design import EQUATIONS, DesignContext, build_design, dump_columns_csv
from parkcast.model import ModelConfig, design_inputs

CONFIG = """
simulate:
  n: 2500
  d: 1
model:
  own_short_max: 2
  own_long_band: []
  cross_max: 1
  time_varying: false
  diurnal_basis: 6
  annual_basis: 4
  annual_season: 4032.0
  min_rows: 300
  lasso: {grid_count: 30, grid_ratio: 1.0e-3}
backtest:
  n_origins: 6
  max_horizon: 24
  in_sample: 2000
  models: [persistence]
forecast:
  horizon: 12
  n_paths: 150
analyze:
  span: 51
"""


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(CONFIG)
    return tmp_path


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A directory with a simulated 2,500-row panel and the model fitted on it."""
    d = tmp_path_factory.mktemp("fitted")
    (d / "cfg.yaml").write_text(CONFIG)
    assert run("simulate", str(d / "cfg.yaml"), "--out-dir", str(d), "--seed", "4") == 0
    assert run("fit", str(d / "cfg.yaml"), "--panel", str(d / "panel.csv"),
               "--out-dir", str(d)) == 0
    return d


def forecast_at(workdir, fitted, origin):
    cfg = yaml.safe_load(CONFIG)
    cfg["forecast"]["origin"] = origin
    (workdir / "origin.yaml").write_text(yaml.safe_dump(cfg))
    return run("forecast", "origin.yaml", "--panel", str(fitted / "panel.csv"),
               "--model", str(fitted / "model.txt"), "--out-dir", "out")


def test_integral_float_size_is_an_integer():
    cfg = deepcopy(DEFAULT_CONFIG)
    want = model_config_from(cfg)
    cfg["model"]["min_rows"] = 5000.0
    cfg["model"]["own_long_band"] = [140.0, 150]
    got = model_config_from(cfg)
    assert got == want and type(got.min_rows) is int


def test_default_model_config_matches_library_defaults():
    # the CLI schema restates ModelConfig's, LassoSettings' and
    # index_sets_from's defaults; the two declarations must not drift apart
    assert model_config_from(deepcopy(DEFAULT_CONFIG)) == ModelConfig()


class TestPipeline:
    def test_simulate_fit_forecast_backtest(self, workdir):
        assert run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "4") == 0
        assert os.path.exists("out/panel.csv")
        assert os.path.exists("out/effective-config.yaml")
        assert run("fit", "cfg.yaml", "--panel", "out/panel.csv",
                   "--out-dir", "out") == 0
        assert os.path.exists("out/model.txt")
        assert run("forecast", "cfg.yaml", "--panel", "out/panel.csv",
                   "--model", "out/model.txt", "--out-dir", "out",
                   "--seed", "4") == 0
        head = Path("out/forecast.csv").read_text().splitlines()[0].strip()
        assert head.startswith("origin_ts,horizon,turbine,variable,point,p01")
        assert head.endswith("p99")
        assert run("backtest", "cfg.yaml", "--panel", "out/panel.csv",
                   "--out-dir", "out") == 0
        # persistence-only backtest: dmae identically zero
        rows = [ln.split(",") for ln in Path("out/dmae.csv").read_text().splitlines()[1:]]
        assert all(float(r[-1]) == 0.0 for r in rows if r[0] == "persistence")

    def test_determinism_byte_identical(self, workdir):
        run("simulate", "cfg.yaml", "--out-dir", "a", "--seed", "11")
        run("simulate", "cfg.yaml", "--out-dir", "b", "--seed", "11")
        assert Path("a/panel.csv").read_text() == Path("b/panel.csv").read_text()
        run("fit", "cfg.yaml", "--panel", "a/panel.csv", "--out-dir", "a")
        run("fit", "cfg.yaml", "--panel", "b/panel.csv", "--out-dir", "b")
        run("forecast", "cfg.yaml", "--panel", "a/panel.csv",
            "--model", "a/model.txt", "--out-dir", "a", "--seed", "2")
        run("forecast", "cfg.yaml", "--panel", "b/panel.csv",
            "--model", "b/model.txt", "--out-dir", "b", "--seed", "2")
        assert Path("a/forecast.csv").read_text() == Path("b/forecast.csv").read_text()

    def test_analyze_outputs(self, workdir):
        run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "1")
        for what in ("periodogram", "design", "basis"):
            assert run("analyze", "cfg.yaml", "--panel", "out/panel.csv",
                       "--out-dir", "out", "--what", what) == 0
        assert os.path.exists("out/periodogram_A_speed.csv")
        assert os.path.exists("out/design_speed_mean_A.csv")
        head = Path("out/design_speed_mean_A.csv").read_text().splitlines()[0].strip()
        assert head == "equation,family,i,j,lag,threshold,basis,tv"

    @pytest.mark.parametrize("equation", list(EQUATIONS))
    def test_analyze_design_every_equation(self, workdir, equation):
        run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "1")
        # CONFIG ends inside its analyze block
        (workdir / "eq.yaml").write_text(CONFIG + f"  equation: {equation}\n")
        assert run("analyze", "eq.yaml", "--panel", "out/panel.csv",
                   "--out-dir", "out", "--what", "design") == 0
        text = Path(f"out/design_{equation}_A.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "equation,family,i,j,lag,threshold,basis,tv"
        assert {ln.split(",")[0] for ln in lines[1:]} == {equation}
        # every family, also those a fit's first pass leaves out: the columns
        # of a design on all-ones shocks and proxies, byte for byte
        families = {ln.split(",")[1] for ln in lines[1:]}
        assert families == {"const"} | {f[0] for f in EQUATIONS[equation].families}
        assert len(lines) - 1 == {"speed_mean": 45, "power_mean": 68, "speed_vol": 29,
                                  "power_vol": 34}[equation]
        cfg = load_config("eq.yaml")
        config, panel = model_config_from(cfg), _read_panel("out/panel.csv", cfg)
        _, bases, thresholds = design_inputs(panel, config)
        ones = np.ones((panel.n, panel.d))
        ctx = DesignContext(panel.speed, panel.power, ones, ones, ones, ones,
                            bases["cumulative"].values, bases["plain"].values,
                            config.sets.max_lag())
        dump_columns_csv(equation, 0, build_design(ctx, equation, 0, config.sets,
                                                   thresholds)[0].columns, "direct.csv")
        assert Path("direct.csv").read_text() == text

    def test_analyze_unknown_equation(self, workdir, capsys):
        run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "1")
        (workdir / "eq.yaml").write_text(CONFIG + "  equation: wind_mean\n")
        assert run("analyze", "eq.yaml", "--panel", "out/panel.csv",
                   "--out-dir", "out", "--what", "design") == 2
        err = capsys.readouterr().err
        assert ("error: config: analyze.equation must be one of "
                + ", ".join(EQUATIONS)) in err

    @pytest.mark.parametrize("what", ["design", "periodogram"])
    def test_analyze_unknown_turbine(self, workdir, capsys, what):
        run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "1")
        (workdir / "tb.yaml").write_text(CONFIG + "  turbine: ZZ\n")
        assert run("analyze", "tb.yaml", "--panel", "out/panel.csv",
                   "--out-dir", "out", "--what", what) == 2
        err = capsys.readouterr().err
        assert ("error: config: analyze.turbine 'ZZ' is not in the panel; "
                "its turbines are A") in err

    def test_analyze_fills_gaps(self, workdir):
        # as fit, forecast and backtest do: every output equals that of the
        # gap-filled panel, with no NaN from the 5 missing speed cells; one
        # year of rows, which the seasonal profiles need
        t = np.arange(52_560)
        speed = 6.0 + 2.0 * np.sin(2 * np.pi * t / 144) + np.sin(2 * np.pi * t / 52_560)
        rows = [f"{1288569600 + 600 * k},{s:.4f},{20 * s:.3f}" for k, s in zip(t, speed)]
        for row in (40, 41, 700, 701, 30_000):
            rows[row] = rows[row].split(",")[0] + ",," + rows[row].split(",")[2]
        (workdir / "gaps.csv").write_text("ts,A_speed,A_power\n" + "\n".join(rows) + "\n")
        assert run("ingest", "cfg.yaml", "--input", "gaps.csv", "--out-dir", "filled") == 0
        for what in ("periodogram", "profiles", "design"):
            for panel, out in (("gaps.csv", "a"), ("filled/panel.csv", "b")):
                assert run("analyze", "cfg.yaml", "--panel", panel, "--out-dir", out,
                           "--what", what) == 0
        for name in ("periodogram_A_speed.csv", "profiles.csv", "design_speed_mean_A.csv"):
            assert Path("a", name).read_text() == Path("b", name).read_text()
        assert "nan" not in Path("a/periodogram_A_speed.csv").read_text()
        assert "nan" not in Path("a/profiles.csv").read_text()

    @pytest.mark.parametrize("what, key, value, choices", [
        ("periodogram", "variable", "wind", "speed, power"),
        ("basis", "basis_kind", "spline", "cumulative, plain"),
    ])
    def test_analyze_unknown_choice(self, workdir, capsys, what, key, value, choices):
        run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "1")
        (workdir / "choice.yaml").write_text(CONFIG + f"  {key}: {value}\n")
        assert run("analyze", "choice.yaml", "--panel", "out/panel.csv",
                   "--out-dir", "an", "--what", what) == 2
        err = capsys.readouterr().err
        assert f"error: config: analyze.{key} must be one of {choices}, got {value!r}" in err
        assert os.listdir("an") == ["effective-config.yaml"]

    def test_fit_infers_turbines_from_a_quoted_header(self, workdir, fitted):
        lines = (fitted / "panel.csv").read_text().splitlines()
        lines[0] = ",".join(f'"{name}"' for name in lines[0].split(","))
        (workdir / "quoted.csv").write_text("\n".join(lines) + "\n")
        assert run("fit", "cfg.yaml", "--panel", "quoted.csv", "--out-dir", "out") == 0
        assert Path("out/model.txt").read_bytes() == (fitted / "model.txt").read_bytes()

    def test_ingest_round_trip(self, workdir):
        run("simulate", "cfg.yaml", "--out-dir", "out", "--seed", "3")
        raw = Path("out/panel.csv").read_text().splitlines()
        raw[10] = raw[10].rsplit(",", 1)[0] + ","  # punch a hole
        (workdir / "raw.csv").write_text("\n".join(raw) + "\n")
        assert run("ingest", "cfg.yaml", "--input", "raw.csv",
                   "--out-dir", "ing") == 0
        filled = Path("ing/panel.csv").read_text().splitlines()
        assert "," + "," not in filled[10]  # gap filled

    def test_outputs_name_the_configured_timestamp_column(self, workdir):
        """``simulate`` and ``ingest`` write ``schema.timestamp``, so their
        outputs read back under the same config."""
        (workdir / "time.yaml").write_text(CONFIG + "schema: {timestamp: time}\n")
        assert run("simulate", "time.yaml", "--out-dir", "sim", "--seed", "3") == 0
        assert Path("sim/panel.csv").read_text().startswith("time,A_speed,A_power\n")
        assert run("fit", "time.yaml", "--panel", "sim/panel.csv", "--out-dir", "sim") == 0
        assert run("ingest", "time.yaml", "--input", "sim/panel.csv", "--out-dir", "a") == 0
        assert run("ingest", "time.yaml", "--input", "a/panel.csv", "--out-dir", "b") == 0
        assert Path("b/panel.csv").read_bytes() == Path("sim/panel.csv").read_bytes()


class TestExitCodes:
    def test_missing_config(self, workdir):
        assert run("fit", "nope.yaml", "--panel", "x.csv") == 3

    def test_unknown_key(self, workdir):
        (workdir / "bad.yaml").write_text("unknown_key: 1\n")
        assert run("simulate", "bad.yaml") == 2

    def test_missing_panel_file(self, workdir):
        assert run("fit", "cfg.yaml", "--panel", "missing.csv") == 3

    def test_panel_flag_required(self, workdir):
        assert run("fit", "cfg.yaml") == 2

    def test_bad_data(self, workdir):
        (workdir / "bad.csv").write_text(
            "ts,A_speed,A_power\n0,1,10\n0,2,20\n")
        assert run("fit", "cfg.yaml", "--panel", "bad.csv") == 4

    def test_runtime_error_on_short_panel(self, workdir):
        (workdir / "tiny.csv").write_text(
            "ts,A_speed,A_power\n" + "\n".join(
                f"{600*i},1.0,10.0" for i in range(20)) + "\n")
        assert run("fit", "cfg.yaml", "--panel", "tiny.csv") == 5

    @pytest.mark.parametrize("command, section, key", [
        ("forecast", "forecast", "horizon"),
        ("forecast", "forecast", "n_paths"),
        ("backtest", "backtest", "max_horizon"),
        ("backtest", "backtest", "n_origins"),
        ("backtest", "backtest", "in_sample"),
    ])
    def test_non_positive_size_is_config_error(self, workdir, capsys, command,
                                               section, key):
        cfg = yaml.safe_load(CONFIG)
        cfg[section][key] = 0
        (workdir / "zero.yaml").write_text(yaml.safe_dump(cfg))
        (workdir / "tiny.csv").write_text(
            "ts,A_speed,A_power\n" + "\n".join(
                f"{600*i},1.0,10.0" for i in range(20)) + "\n")
        extra = ["--model", "model.txt"] if command == "forecast" else []
        assert run(command, "zero.yaml", "--panel", "tiny.csv", *extra) == 2
        err = capsys.readouterr().err
        assert f"error: config: {section}.{key} must be >= 1, got 0" in err

    @pytest.mark.parametrize("command", ["simulate", "backtest"])
    def test_negative_seed_is_config_error(self, workdir, capsys, command):
        (workdir / "tiny.csv").write_text(
            "ts,A_speed,A_power\n" + "\n".join(
                f"{600*i},1.0,10.0" for i in range(20)) + "\n")
        assert run(command, "cfg.yaml", "--panel", "tiny.csv", "--seed", "-1") == 2
        err = capsys.readouterr().err
        assert "error: config: seed must be an integer in [0, 2**64), got -1" in err

    @pytest.mark.parametrize("key", ["n", "d"])
    def test_non_positive_simulate_size_is_config_error(self, workdir, capsys, key):
        cfg = yaml.safe_load(CONFIG)
        cfg["simulate"][key] = 0
        (workdir / "zero.yaml").write_text(yaml.safe_dump(cfg))
        assert run("simulate", "zero.yaml", "--out-dir", "out") == 2
        err = capsys.readouterr().err
        assert f"error: config: simulate.{key} must be >= 1, got 0" in err
        assert not (workdir / "out" / "panel.csv").exists()

    @pytest.mark.parametrize("models, message", [
        (["lasso", "arma"], "backtest.models: unknown model(s) 'arma'; valid: ar, arma11, "
                            "bvar, gwppt, lasso, persistence, var, wppt"),
        ("ar", "backtest.models must be a list of model names, got 'ar'"),
    ], ids=["unknown-name", "not-a-list"])
    def test_unknown_backtest_model_is_config_error(self, workdir, capsys, fitted,
                                                    monkeypatch, models, message):
        # rejected before any model is fitted, and no report is written
        monkeypatch.setattr("parkcast.evaluation.fit_joint_model",
                            lambda *a, **k: pytest.fail("a model was fitted"))
        cfg = yaml.safe_load(CONFIG)
        cfg["backtest"]["models"] = models
        (workdir / "models.yaml").write_text(yaml.safe_dump(cfg))
        assert run("backtest", "models.yaml", "--panel", str(fitted / "panel.csv"),
                   "--out-dir", "out") == 2
        assert f"error: config: {message}\n" in capsys.readouterr().err
        assert os.listdir(workdir / "out") == ["effective-config.yaml"]

    @pytest.mark.parametrize("command, section, key", [
        ("fit", "model", "time_varying"),
        ("ingest", "ingest", "fill_gaps"),
        ("forecast", "forecast", "bootstrap"),
    ])
    def test_non_boolean_flag_is_config_error(self, workdir, capsys, fitted,
                                              command, section, key):
        # a quoted "false" is a non-empty string, which Python reads as true
        cfg = yaml.safe_load(CONFIG)
        cfg.setdefault(section, {})[key] = "false"
        (workdir / "flag.yaml").write_text(yaml.safe_dump(cfg))
        panel = str(fitted / "panel.csv")
        extra = {"fit": ["--panel", panel], "ingest": ["--input", panel],
                 "forecast": ["--panel", panel, "--model", str(fitted / "model.txt")]}
        assert run(command, "flag.yaml", "--out-dir", "out", *extra[command]) == 2
        err = capsys.readouterr().err
        assert f"error: config: {section}.{key} must be true or false, got 'false'" in err

    def test_boolean_seed_is_config_error(self, workdir, capsys):
        cfg = yaml.safe_load(CONFIG)
        cfg["seed"] = True
        (workdir / "seed.yaml").write_text(yaml.safe_dump(cfg))
        assert run("simulate", "seed.yaml", "--out-dir", "out") == 2
        err = capsys.readouterr().err
        assert "error: config: seed must be an integer in [0, 2**64), got True" in err

    @pytest.mark.parametrize("command, keys, value", [
        ("forecast", ("forecast", "horizon"), True),  # would run a horizon of 1
        ("forecast", ("forecast", "n_paths"), 150.7),  # would run 150 paths
        ("fit", ("model", "k_max"), True),
        ("fit", ("model", "lasso", "grid_count"), 20.5),
        ("backtest", ("backtest", "n_origins"), True),
        ("simulate", ("simulate", "n"), "2500"),
    ])
    def test_non_integer_size_is_config_error(self, workdir, capsys, fitted,
                                              command, keys, value):
        cfg = yaml.safe_load(CONFIG)
        section = cfg
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        (workdir / "size.yaml").write_text(yaml.safe_dump(cfg))
        panel = str(fitted / "panel.csv")
        extra = {"fit": ["--panel", panel], "backtest": ["--panel", panel], "simulate": [],
                 "forecast": ["--panel", panel, "--model", str(fitted / "model.txt")]}
        assert run(command, "size.yaml", "--out-dir", "out", *extra[command]) == 2
        err = capsys.readouterr().err
        assert f"error: config: {'.'.join(keys)} must be an integer, got {value!r}" in err
        assert os.listdir(workdir / "out") == ["effective-config.yaml"]

    def test_workers_key_and_flag_refused(self, workdir, capsys, fitted):
        # backtests run serially: a config, or an older effective-config.yaml,
        # that sets workers is refused, and so is the flag
        cfg = yaml.safe_load(CONFIG)
        cfg["workers"] = 1
        (workdir / "workers.yaml").write_text(yaml.safe_dump(cfg))
        panel = str(fitted / "panel.csv")
        assert run("backtest", "workers.yaml", "--panel", panel, "--out-dir", "out") == 2
        assert "error: config: unknown config key(s): workers\n" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run("backtest", "cfg.yaml", "--panel", panel, "--out-dir", "out", "--workers", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err
        assert not os.path.exists(workdir / "out")

    @pytest.mark.parametrize("origin", [2500, 99999, -2501, -99999])
    def test_origin_outside_panel_is_config_error(self, workdir, capsys, fitted, origin):
        assert forecast_at(workdir, fitted, origin) == 2
        err = capsys.readouterr().err
        assert (f"error: config: forecast.origin must lie in [-2500, 2500) for this "
                f"panel, got {origin}") in err

    @pytest.mark.parametrize("origin, code", [(2499, 0), (-1, 0), (0, 5), (-2500, 5)])
    def test_origin_inside_panel(self, workdir, capsys, fitted, origin, code):
        # the saved model covers only the panel's last rows: an early origin
        # lacks history, which is a property of the model, not of the config
        assert forecast_at(workdir, fitted, origin) == code
        if code:
            err = capsys.readouterr().err
            assert "error: runtime: ForecastError: origin 0 leaves less than" in err

    def test_malformed_model_file(self, workdir, capsys):
        (workdir / "bad_model.txt").write_text("parkcast-model 1\n")
        assert run("forecast", "cfg.yaml", "--model", "bad_model.txt") == 4
        err = capsys.readouterr().err
        assert ("error: data: bad_model.txt, line 1: "
                "unexpected end of model file") in err
