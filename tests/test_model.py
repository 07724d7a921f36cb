import re
import tracemalloc
from dataclasses import replace

import lasso_reference as reference
import numpy as np
import pytest
from conftest import NAN, NO_THR, tiny_config, tiny_sets, two_turbine_truth

from parkcast import lasso
from parkcast import model as model_module
from parkcast.basis import BSplineSpec, interaction_basis
from parkcast.design import (
    EQUATIONS,
    DesignContext,
    build_speed_mean_design,
    compute_threshold_set,
    index_sets_from,
)
from parkcast.forecast import point_forecast, simulate_synthetic
from parkcast.lasso import LassoProblem, LassoSettings, fit_path_bic
from parkcast.model import (
    ModelConfig,
    ModelFitError,
    compute_residuals,
    fit_joint_model,
    load_model,
    save_model,
    volatility_proxy,
)
from parkcast.panel import CalendarIndex, TurbinePanel


class TestSmallOps:
    def test_compute_residuals(self):
        X = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(compute_residuals(X, np.zeros(3), y), y)
        assert np.array_equal(compute_residuals(X, y, y), np.zeros(3))
        with pytest.raises(ValueError):
            compute_residuals(np.ones((2, 1)), np.ones(1), np.ones(3))

    def test_volatility_proxy_example(self):
        vals, floor = volatility_proxy(np.array([1.0, 2.0, 0.0]), 0.01)
        assert floor == pytest.approx(0.015)
        assert vals.tolist() == [1.0, 2.0, pytest.approx(0.015)]

    def test_volatility_proxy_constant_unchanged(self):
        vals, _ = volatility_proxy(np.full(5, 3.0), 0.1)
        assert np.allclose(vals, 3.0)

    def test_floor_never_raises_positive_values(self):
        x = np.array([0.5, 1.0, 4.0])
        vals, floor = volatility_proxy(x, 0.001)
        assert np.all(vals >= x)  # floored values never drop
        assert np.array_equal(vals[x > floor], x[x > floor])

    def test_all_nonpositive_degenerate(self):
        with pytest.raises(ModelFitError, match="volatility"):
            volatility_proxy(np.zeros(4), 0.01)


class TestFitJointModel:
    def test_recovers_generator_support(self, small_panel, small_model):
        got = {(eq, i): {(t.family, t.j, t.lag) for t in terms}
               for (eq, i), terms in small_model.terms.items()}
        for i in range(2):
            assert ("speed_ar", i, 1) in got[("speed_mean", i)]
            assert ("speed_reg", i, 0) in got[("power_mean", i)]
            assert ("pos_shock", i, 1) in got[("speed_vol", i)]

    def test_volatility_coefficients_nonnegative_exactly(self, small_model):
        for (eq, i), fit in small_model.fits.items():
            if eq.endswith("_vol"):
                assert fit.coefficients.min() >= 0.0
                assert not np.signbit(fit.coefficients).any()

    def test_proxies_floored_positive(self, small_model):
        assert small_model.state["Sv"].min() > 0.0
        assert small_model.state["Pv"].min() > 0.0

    def test_residuals_cover_effective_sample(self, small_panel, small_model):
        trim = small_model.trim
        resid = small_model.state["E"][trim:, 0]
        assert resid.shape == small_panel.speed[trim:, 0].shape
        assert np.all(np.isfinite(resid))
        assert np.all(small_model.state["E"][:trim] == 0.0)  # backfilled

    def test_missing_panel_rejected(self, small_panel):
        bad = TurbinePanel(
            small_panel.timestamps, small_panel.speed.copy(), small_panel.power.copy(),
            small_panel.labels,
            np.zeros_like(small_panel.speed, dtype=bool),
            np.zeros_like(small_panel.speed, dtype=bool),
        )
        bad.speed_mask[5, 0] = True
        with pytest.raises(ModelFitError, match="missing"):
            fit_joint_model(bad, tiny_config())

    def test_too_short_panel_rejected(self, small_panel):
        cfg = tiny_config(min_rows=100000)
        with pytest.raises(ModelFitError, match="too short"):
            fit_joint_model(small_panel, cfg)

    def test_kmax1_equals_plain_lasso_fit(self, small_panel):
        # with identity weights the first pass is an ordinary lasso on the
        # same design; rebuild that problem directly and compare
        cfg = tiny_config(k_max=1)
        model = fit_joint_model(small_panel, cfg)
        cal = CalendarIndex.from_timestamps(small_panel.timestamps)
        mean_b = interaction_basis(cal.time_of_day, cal.time_of_year,
                                   cfg.diurnal, cfg.annual, "cumulative")
        vol_b = interaction_basis(cal.time_of_day, cal.time_of_year,
                                  cfg.diurnal, cfg.annual, "plain")
        trim = cfg.sets.max_lag()
        n, d = small_panel.speed.shape
        ones = np.ones((n, d))
        ctx = DesignContext(small_panel.speed, small_panel.power, ones, ones,
                            ones, ones, mean_b.values, vol_b.values, trim)
        thr = compute_threshold_set(small_panel.speed, small_panel.power, "none")
        dm, y = build_speed_mean_design(ctx, 0, cfg.sets, thr)
        mask = np.ones(dm.p, dtype=bool)
        for c, info in enumerate(dm.columns):
            if info.family == "const" and info.basis_index == mean_b.constant_column:
                mask[c] = False
        direct = fit_path_bic(LassoProblem(y, dm.values, penalize_mask=mask),
                              cfg.lasso)
        assert np.array_equal(direct.coefficients,
                              model.fits[("speed_mean", 0)].coefficients)

    def test_constant_panel_intercept_only(self):
        n = 400
        ts = 1288569600 + 600 * np.arange(n)
        speed = np.full((n, 1), 5.0)
        power = np.full((n, 1), 50.0)
        panel = TurbinePanel(ts, speed, power, ("A",),
                             np.zeros((n, 1), bool), np.zeros((n, 1), bool))
        with pytest.warns(UserWarning) as record:
            model = fit_joint_model(panel, tiny_config(k_max=1))
        messages = {str(w.message) for w in record}
        for eq in ("speed_mean", "power_mean"):
            assert f"{eq}[0]: zero residual sum of squares (degenerate fit)" in messages
            assert model.fits[(eq, 0)].zero_rss
        assert "speed_vol[0]: degenerate volatility, using unit proxy" in messages
        # only unpenalized/basis intercept columns survive
        cols = model.terms[("speed_mean", 0)]
        assert all(t.family == "const" for t in cols)

    def test_degenerate_grid_fallback_reports_objective(self):
        # the only penalized column is zero, so there is no penalty grid:
        # the path is the one point lambda = 0, the unpenalized intercept's fit
        rng = np.random.default_rng(3)
        y = 2.0 + rng.standard_normal(50)
        X = np.column_stack([np.ones(50), np.zeros(50)])
        prob = LassoProblem(y, X, weights=rng.uniform(0.5, 2.0, 50),
                            penalize_mask=np.array([False, True]))
        fit = fit_path_bic(prob, LassoSettings())
        assert fit.lambdas.tolist() == [0.0] and fit.sweeps[0] >= 1
        assert fit.coefficients[0] == pytest.approx(np.average(y, weights=prob.weights))
        assert fit.objective == reference.objective_value(prob, fit.coefficients, 0.0)
        assert fit.objective > 0.0

    def test_one_path_per_equation_and_no_other_solver(self, monkeypatch):
        # a constant panel has degenerate grids; those too are fitted on the path
        n, calls = 400, []

        def path(problem, settings):
            calls.append(problem.nonnegative)
            return fit_path_bic(problem, settings)

        def refuse(*args, **kwargs):
            pytest.fail("a lasso solver other than fit_path_bic ran")

        monkeypatch.setattr(model_module, "fit_path_bic", path)
        for name in ("coordinate_descent", "weighted_bic"):
            monkeypatch.setattr(lasso, name, refuse)
            monkeypatch.setattr(model_module, name, refuse, raising=False)
        ts = 1288569600 + 600 * np.arange(n)
        panel = TurbinePanel(ts, np.full((n, 2), 5.0), np.full((n, 2), 50.0), ("A", "B"),
                             np.zeros((n, 2), bool), np.zeros((n, 2), bool))
        with pytest.warns(UserWarning):
            model = fit_joint_model(panel, tiny_config(k_max=2))
        # per pass: two mean equations, then two volatility equations, per turbine
        assert calls == 2 * ([False] * 4 + [True] * 4)
        assert all(np.isfinite(fit.kkt_max) for fit in model.fits.values())

    def test_standardized_pools_consistent(self, small_model):
        trim = small_model.trim
        z = small_model.state["E"][trim:] / small_model.state["Sv"][trim:]
        assert np.array_equal(z, small_model.pools["E"])
        u = small_model.state["Ep"][trim:] / small_model.state["Pv"][trim:] ** 3
        assert np.array_equal(u, small_model.pools["Ep"])

    @pytest.mark.parametrize("k_max", [1, 2])
    def test_first_pass_builds_no_ma_or_garch_columns(self, small_panel, monkeypatch, k_max):
        # the first pass has no shocks or proxies yet, so it builds no columns
        # from them (no all-ones placeholders); every later pass builds them all
        later = {"speed_mean": {"speed_ma"}, "power_mean": {"power_ma", "speed_err"},
                 "speed_vol": {"vol_lag"}, "power_vol": {"vol_lag", "speed_vol_lag"}}
        built = []  # (equation, families) per design, in build order

        def recording(eq, build):
            def wrapped(ctx, i, *rest):
                dm, y = build(ctx, i, *rest)
                built.append((eq, {c.family for c in dm.columns}))
                return dm, y
            return wrapped

        for eq in EQUATIONS:
            name = f"build_{eq}_design"
            monkeypatch.setattr(model_module, name, recording(eq, getattr(model_module, name)))
        sets = index_sets_from(own_short_max=2, own_long_band=None, cross_max=1,
                               time_varying=False)
        fit_joint_model(small_panel, tiny_config(k_max=k_max, sets=sets))
        per_pass = len(EQUATIONS) * small_panel.d
        assert len(built) == k_max * per_pass
        for n, (eq, families) in enumerate(built):
            every = {"const"} | {f[0] for f in EQUATIONS[eq].families}
            assert families == (every - later[eq] if n < per_pass else every), (n, eq)

    def test_fit_peak_memory_below_half_the_widest_design(self, monkeypatch):
        """No design is materialized: the tracemalloc peak of a whole fit
        stays below half of its widest (p + 1) x m design, which spans many
        row blocks."""
        cfg = tiny_config(sets=index_sets_from(own_short_max=40, own_long_band=None,
                                               cross_max=40, time_varying=False))
        panel = simulate_synthetic(tiny_config(), two_turbine_truth(), n=20_000, seed=3)
        shapes = []

        def recording(build):
            def wrapped(*args):
                dm, y = build(*args)
                shapes.append(dm.values.shape)
                return dm, y
            return wrapped

        for eq in EQUATIONS:
            name = f"build_{eq}_design"
            monkeypatch.setattr(model_module, name, recording(getattr(model_module, name)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit_joint_model(panel, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        m, p = max(shapes, key=lambda shape: shape[1])
        assert peak < 0.5 * (p + 1) * m * 8
        assert 4 * max(lasso._BLOCK_BYTES // (8 * (p + 1)), lasso._BLOCK_ROWS) <= m

    def test_standardized_residuals_stable_across_iterations(self, small_panel):
        # diagnostic: mean |standardized residual| is O(1) and moves little
        # between the first and second pass on well-specified data
        m1 = fit_joint_model(small_panel, tiny_config(k_max=1))
        m2 = fit_joint_model(small_panel, tiny_config(k_max=2))
        a1 = np.abs(m1.pools["E"]).mean()
        a2 = np.abs(m2.pools["E"]).mean()
        assert 0.5 <= a1 <= 2.0 and 0.5 <= a2 <= 2.0
        assert abs(a2 - a1) / a1 < 0.25


class TestVarEquivalence:
    def test_first_pass_is_lasso_var(self):
        # thresholds at {-inf} and constant coefficients: the speed design is
        # a plain VAR design; compare against one assembled by hand
        cfg = tiny_config(sets=tiny_sets(ar_own=(1, 2), ar_cross=(1,)), k_max=1)
        panel = simulate_synthetic(cfg, two_turbine_truth(), n=3000, seed=11)
        model = fit_joint_model(panel, cfg)

        cal = CalendarIndex.from_timestamps(panel.timestamps)
        mean_b = interaction_basis(cal.time_of_day, cal.time_of_year,
                                   cfg.diurnal, cfg.annual, "cumulative")
        trim = cfg.sets.max_lag()
        W = panel.speed
        cols = [mean_b.values[trim:, l] for l in range(mean_b.columns)]
        metas_order = []
        for j in (0, 1):
            lags = (1, 2) if j == 0 else (1,)
            for k in lags:
                cols.append(W[trim - k : W.shape[0] - k, j])
        X = np.column_stack(cols)
        mask = np.ones(X.shape[1], dtype=bool)
        mask[mean_b.constant_column] = False
        direct = fit_path_bic(LassoProblem(W[trim:, 0], X, penalize_mask=mask),
                              cfg.lasso)
        assert np.allclose(direct.coefficients,
                           model.fits[("speed_mean", 0)].coefficients)


def terms_equal(a, b):
    if len(a) != len(b):
        return False
    for ta, tb in zip(a, b):
        same_thr = (ta.threshold == tb.threshold
                    or (np.isnan(ta.threshold) and np.isnan(tb.threshold)))
        if not (same_thr and ta.family == tb.family and ta.j == tb.j
                and ta.lag == tb.lag and ta.basis_index == tb.basis_index
                and ta.time_varying == tb.time_varying and ta.value == tb.value):
            return False
    return True


def with_deciles(model, panel):
    """``model`` carrying the panel's speed and power deciles, so that the
    deciles sections hold values (the small model is fitted without them)."""
    return replace(model, thresholds=compute_threshold_set(panel.speed, panel.power))


class TestSerialization:
    def test_round_trip_fields(self, small_panel, small_model, tmp_path):
        small_model = with_deciles(small_model, small_panel)
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        back = load_model(path)
        assert back.labels == small_model.labels
        assert back.trim == small_model.trim
        assert back.anchor_epoch == small_model.anchor_epoch
        assert back.diurnal == small_model.diurnal
        assert back.annual == small_model.annual
        for key, terms in small_model.terms.items():
            assert terms_equal(back.terms[key], terms)
        tail = back.timestamps.size
        assert np.array_equal(back.timestamps, small_model.timestamps[-tail:])
        assert back.state.keys() == small_model.state.keys() == {"E", "Ep", "Sv", "Pv"}
        for var, values in small_model.state.items():
            assert np.array_equal(back.state[var], values[-tail:]), var
        assert back.floors.keys() == small_model.floors.keys() == {"Sv", "Pv"}
        assert back.pools.keys() == small_model.pools.keys() == {"E", "Ep"}
        for name in ("floors", "pools"):
            for var, values in getattr(small_model, name).items():
                assert np.array_equal(getattr(back, name)[var], values), (name, var)
        deciles = small_model.thresholds.deciles
        assert back.thresholds.deciles.keys() == deciles.keys() == {"W", "P"}
        for var, rows in deciles.items():
            assert len(back.thresholds.deciles[var]) == len(rows) == small_model.d
            for got, want in zip(back.thresholds.deciles[var], rows):
                assert got.size and np.array_equal(got, want), var

    @pytest.mark.parametrize("deciles", [False, True])
    def test_resave_is_byte_identical(self, small_panel, small_model, tmp_path, deciles):
        model = with_deciles(small_model, small_panel) if deciles else small_model
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        save_model(model, first)
        save_model(load_model(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_forecast_bit_exact(self, small_panel, small_model, tmp_path):
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        back = load_model(path)
        origin = small_panel.n - 1
        a = point_forecast(small_model, small_panel, origin, 24)
        b = point_forecast(back, small_panel, origin, 24)
        assert np.array_equal(a.speed_point, b.speed_point)
        assert np.array_equal(a.power_point, b.power_point)

    @pytest.mark.parametrize("kind", ["no-version", "non-integer-version",
                                      "bad-hex-float", "short-terms-line",
                                      "short-tail", "narrow-pool", "bad-turbine",
                                      "bad-family", "bad-lag", "bad-basis",
                                      "bad-tv-flag", "lag-zero", "infinite-threshold"])
    def test_malformed_file_raises_format_error(self, small_model, tmp_path, kind):
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        lines = path.read_text().splitlines()
        term = 1 + next(k for k, ln in enumerate(lines)
                        if ln.startswith("[terms") and not ln.endswith("] 0"))
        tail = next(k for k, ln in enumerate(lines) if ln.startswith("[tail.speed_resid]"))
        rows, d = (int(v) for v in lines[tail].split()[1:])
        pool = next(k for k, ln in enumerate(lines) if ln.startswith("[pool.power]"))
        m = int(lines[pool].split()[1])
        trim = int(lines[2].split()[1])
        n_basis = int(lines[6].split()[3]) * int(lines[7].split()[3])
        # a speed_mean term: family j lag threshold basis tv value
        ar = next(k for k, ln in enumerate(lines) if ln.startswith("speed_ar "))
        fields = lines[ar].split()
        tv = int(fields[5])

        def edited(message, **cells):
            out = list(fields)
            for name, value in cells.items():
                out[("family", "j", "lag", "threshold", "basis", "tv").index(name)] = str(value)
            return ar, 1, [" ".join(out)], "speed_mean " + message

        # (first line, lines replaced, new lines, text after the line number)
        k, span, new, section = {
            "no-version": (0, 1, ["parkcast-model"], ""),
            "non-integer-version": (0, 1, ["parkcast-model one"], ""),
            "bad-hex-float": (4, 1, ["vol_floor_fraction 0x1.zzp-10"], ""),
            "short-terms-line": (term, 1, [lines[term].rsplit(" ", 1)[0]], ""),
            # one row dropped, and the header says so
            "short-tail": (tail, 2, [f"[tail.speed_resid] {rows - 1} {d}"],
                           "section tail.speed_resid"),
            # one turbine's column only, and the header says so
            "narrow-pool": (pool, 1 + m, [f"[pool.power] {m} 1"]
                            + [ln.split()[0] for ln in lines[pool + 1:pool + 1 + m]],
                            "section pool.power"),
            # terms the forecast engine would gather out of range
            "bad-turbine": edited(f"speed_ar term, time-varying {tv}: "
                                  f"source turbine {d} is not in", j=d),
            "bad-family": edited("has no family 'power_ar'", family="power_ar"),
            "bad-lag": edited(f"speed_ar term, time-varying {tv}: "
                              f"lag {trim + 1} is not in", lag=trim + 1),
            "bad-basis": edited("speed_ar term, time-varying 1: "
                                f"basis index {n_basis} is not in", basis=n_basis, tv=1),
            "bad-tv-flag": edited(f"speed_ar term, time-varying {1 - tv}: basis index",
                                  tv=1 - tv),
            # terms the engine would refuse: only then-written values are read at lag 0
            "lag-zero": edited(f"speed_ar term, time-varying {tv}: "
                               rf"lag 0 is not in \[1, {trim}\]", lag=0),
            "infinite-threshold": edited(f"speed_ar term, time-varying {tv}: threshold inf "
                                         "is not NaN, -inf or finite", threshold="inf"),
        }[kind]
        lines[k:k + span] = new
        path.write_text("\n".join(lines) + "\n")
        from parkcast.model import ModelFormatError
        message = "not a parkcast-model v1 file" if k == 0 else f"line {k + 1}: {section}"
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("kind", ["truncated", "wrong-tag", "bad-section",
                                      "missing-end"])
    def test_format_error_names_file_and_line(self, small_model, tmp_path, kind):
        path = tmp_path / "model.txt"
        save_model(small_model, path)
        lines = path.read_text().splitlines()
        sec = next(k for k, ln in enumerate(lines) if ln.startswith("[deciles.speed]"))
        k, lines, message = {
            "truncated": (0, lines[:1], "unexpected end of model file"),
            "wrong-tag": (0, ["something-else 9"] + lines[1:], "not a parkcast-model"),
            "bad-section": (sec, lines[:sec] + ["[deciles.spd] 0 0"] + lines[sec + 1:],
                            "expected section 'deciles.speed'"),
            "missing-end": (len(lines) - 1, lines[:-1] + ["fin"], "missing end marker"),
        }[kind]
        path.write_text("\n".join(lines) + "\n")
        from parkcast.model import ModelFormatError
        with pytest.raises(ModelFormatError,
                           match=re.escape(f"{path}, line {k + 1}: {message}")):
            load_model(path)

    def test_version_check(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("something-else 9\n")
        from parkcast.model import ModelFormatError
        with pytest.raises(ModelFormatError):
            load_model(bad)


class TestConfigValidation:
    def test_bad_kmax(self):
        with pytest.raises(ValueError):
            ModelConfig(k_max=0)

    def test_bad_floor_fraction(self):
        with pytest.raises(ValueError):
            ModelConfig(vol_floor_fraction=1.5)
