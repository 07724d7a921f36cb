import numpy as np
import pytest

from parkcast.basis import ANNUAL_STEPS, BSplineSpec, interaction_basis
from parkcast.design import (
    EQUATIONS,
    DesignContext,
    FamilySpec,
    IndexSets,
    build_power_mean_design,
    build_power_vol_design,
    build_speed_mean_design,
    build_speed_vol_design,
    compute_threshold_set,
    compute_thresholds,
    default_index_sets,
    regressor_from_meta,
    threshold_regressor,
)
from parkcast.lasso import LassoProblem

DIURNAL = BSplineSpec(3, 144.0, 12, strict_partition=True)
ANNUAL = BSplineSpec(3, ANNUAL_STEPS, 4)


def minimal_sets(**over):
    empty = FamilySpec((), ())
    base = dict(
        speed_ar=FamilySpec((1,), ()),
        speed_ma=empty,
        speed_shock=FamilySpec((1,), ()),
        speed_vol_lag=empty,
        power_ar=FamilySpec((1,), ()),
        speed_reg=FamilySpec((0,), ()),
        power_ma=empty,
        speed_err=empty,
        power_shock=FamilySpec((1,), ()),
        power_vol_lag=empty,
        cross_shock=FamilySpec((1,), ()),
        cross_vol_lag=FamilySpec((1,), ()),
    )
    base.update(over)
    return IndexSets(**base)


def context(n=400, d=1, trim=2, seed=0):
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.0, 15.0, (n, d))
    P = rng.uniform(-10.0, 1500.0, (n, d))
    resid_s = rng.standard_normal((n, d))
    resid_p = rng.standard_normal((n, d))
    tod = np.arange(n) % 144
    toy = np.arange(n, dtype=float)
    mean_b = interaction_basis(tod, toy, DIURNAL, ANNUAL, "cumulative").values
    vol_b = interaction_basis(tod, toy, DIURNAL, ANNUAL, "plain").values
    return DesignContext(W, P, resid_s, resid_p,
                         np.abs(resid_s) + 0.1, np.cbrt(np.abs(resid_p)) + 0.1,
                         mean_b, vol_b, trim)


class TestComputeThresholds:
    def test_type7_deciles_of_1_to_100(self):
        dec = compute_thresholds(np.arange(1.0, 101.0))
        assert np.allclose(dec, [10.9, 20.8, 30.7, 40.6, 50.5,
                                 60.4, 70.3, 80.2, 90.1])

    def test_constant_series_collapses(self):
        with pytest.warns(UserWarning, match="constant"):
            dec = compute_thresholds(np.full(50, 5.0))
        assert dec.tolist() == [5.0]

    def test_range_containment(self):
        x = np.linspace(0.0, 16.0, 17)
        dec = compute_thresholds(x)
        assert dec.min() >= 0.0 and dec.max() <= 16.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            compute_thresholds(np.arange(5.0))


class TestThresholdRegressor:
    def test_values(self):
        assert threshold_regressor(5.0, 3.0) == 5.0
        assert threshold_regressor(2.0, 3.0) == 3.0
        assert threshold_regressor(2.0, -np.inf) == 2.0


class TestSpeedMeanDesign:
    def test_ar1_layout(self):
        ctx = context()
        sets = minimal_sets()
        thr = compute_threshold_set(ctx.W, ctx.P, "none")
        dm, y = build_speed_mean_design(ctx, 0, sets, thr)
        # 48 basis intercept columns plus the single lag-1 regressor
        assert dm.p == 49
        assert np.array_equal(dm.values[:, 48], ctx.W[1:-1, 0])
        assert np.array_equal(y, ctx.W[2:, 0])

    def test_time_varying_lag_expands_to_48(self):
        ctx = context()
        sets = minimal_sets(speed_ar=FamilySpec((1,), (), tv_own=(1,)))
        thr = compute_threshold_set(ctx.W, ctx.P, "none")
        dm, _ = build_speed_mean_design(ctx, 0, sets, thr)
        assert dm.p == 48 + 48

    def test_threshold_set_gives_ten_columns(self):
        ctx = context()
        sets = minimal_sets(speed_ar=FamilySpec((1,), (), threshold_lags=(1,)))
        thr = compute_threshold_set(ctx.W, ctx.P, "deciles")
        dm, _ = build_speed_mean_design(ctx, 0, sets, thr)
        ar_cols = [c for c in dm.columns if c.family == "speed_ar"]
        assert len(ar_cols) == 10
        assert ar_cols[0].threshold == -np.inf
        assert all(np.isfinite(c.threshold) for c in ar_cols[1:])

    def test_no_power_columns_in_speed_design(self):
        ctx = context(d=2)
        sets = default_index_sets()
        small = minimal_sets(
            speed_ar=FamilySpec((1, 2), (1,)),
            speed_ma=FamilySpec((1,), (1,)),
        )
        thr = compute_threshold_set(ctx.W, ctx.P, "deciles")
        dm, _ = build_speed_mean_design(context(d=2, trim=2), 0, small, thr)
        assert {c.family for c in dm.columns} <= {"const", "speed_ar", "speed_ma"}

    def test_insufficient_history(self):
        ctx = context(n=100, trim=2)
        sets = minimal_sets(speed_ar=FamilySpec((5,), ()))
        thr = compute_threshold_set(ctx.W, ctx.P, "none")
        with pytest.raises(ValueError, match="lag 5"):
            build_speed_mean_design(ctx, 0, sets, thr)


class TestPowerMeanDesign:
    def test_contemporaneous_speed_present(self):
        ctx = context()
        sets = minimal_sets()
        thr = compute_threshold_set(ctx.W, ctx.P, "none")
        dm, y = build_power_mean_design(ctx, 0, sets, thr)
        reg = [c for c in dm.columns if c.family == "speed_reg"]
        assert reg and reg[0].lag == 0
        col = dm.values[:, [i for i, c in enumerate(dm.columns)
                            if c.family == "speed_reg"][0]]
        assert np.array_equal(col, ctx.W[2:, 0])  # lag 0 = same rows as response

    def test_power_curve_shape_like_illustration(self):
        # intercept + max(W_t, c) for c in 0..16 reproduces the илpiecewise design
        ctx = context()
        sets = minimal_sets(
            speed_ar=FamilySpec((), ()),
            power_ar=FamilySpec((), ()),
            speed_reg=FamilySpec((0,), (), threshold_lags=(0,)),
            power_shock=FamilySpec((), ()),
            speed_shock=FamilySpec((), ()),
            cross_shock=FamilySpec((), ()),
            cross_vol_lag=FamilySpec((), ()),
        )
        thr = compute_threshold_set(
            ctx.W, ctx.P, {"speed": list(range(17)), "power": []})
        dm, _ = build_power_mean_design(ctx, 0, sets, thr)
        reg = [c for c in dm.columns if c.family == "speed_reg"]
        assert len(reg) == 18  # -inf baseline plus thresholds 0..16
        assert [c.threshold for c in reg[1:]] == list(range(17))


class TestVolDesigns:
    def test_sign_split_values(self):
        ctx = context()
        ctx.E[:, 0] = -2.0
        sets = minimal_sets()
        dm, y = build_speed_vol_design(ctx, 0, sets)
        pos = dm.values[:, [i for i, c in enumerate(dm.columns)
                            if c.family == "pos_shock"][0]]
        neg = dm.values[:, [i for i, c in enumerate(dm.columns)
                            if c.family == "neg_shock"][0]]
        assert np.all(pos == 0.0) and np.all(neg == 2.0)
        assert np.all(y == 2.0)

    def test_zero_residual_gives_zero_split(self):
        ctx = context()
        ctx.E[:] = 0.0
        dm, _ = build_speed_vol_design(ctx, 0, minimal_sets())
        fams = {c.family for c in dm.columns}
        for fam in ("pos_shock", "neg_shock"):
            cols = [i for i, c in enumerate(dm.columns) if c.family == fam]
            assert np.all(dm.values[:, cols] == 0.0)

    def test_cube_root_scale_in_power_vol(self):
        ctx = context()
        ctx.Ep[:, 0] = -8.0
        dm, y = build_power_vol_design(ctx, 0, minimal_sets())
        neg = dm.values[:, [i for i, c in enumerate(dm.columns)
                            if c.family == "neg_shock"][0]]
        pos = dm.values[:, [i for i, c in enumerate(dm.columns)
                            if c.family == "pos_shock"][0]]
        assert np.allclose(neg, 2.0) and np.all(pos == 0.0)
        assert np.allclose(y, 2.0)

    def test_all_ones_proxies_give_constant_columns(self):
        ctx = context()
        ctx.Sv[:] = 1.0
        sets = minimal_sets(speed_vol_lag=FamilySpec((1,), ()))
        dm, _ = build_speed_vol_design(ctx, 0, sets)
        cols = [i for i, c in enumerate(dm.columns) if c.family == "vol_lag"]
        assert np.all(dm.values[:, cols] == 1.0)

    def test_speed_coupling_in_power_vol(self):
        ctx = context()
        dm, _ = build_power_vol_design(ctx, 0, minimal_sets())
        fams = {c.family for c in dm.columns}
        assert "speed_pos_shock" in fams and "speed_vol_lag" in fams
        svl = [i for i, c in enumerate(dm.columns) if c.family == "speed_vol_lag"][0]
        assert np.allclose(dm.values[:, svl], np.cbrt(ctx.Sv[1:-1, 0]))


class TestMetadataRoundTrip:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("shape", ["minimal", "paper"])
    @pytest.mark.parametrize("builder,needs_thr", [
        (build_speed_mean_design, True),
        (build_power_mean_design, True),
        (build_speed_vol_design, False),
        (build_power_vol_design, False),
    ])
    def test_columns_rebuild_exactly(self, builder, needs_thr, shape, weighted):
        """Every column, taken whole and in the lasso's row blocks of 37
        (blocks that start mid-panel, and a last partial one), is its rebuilt
        regressor bit for bit; a weighted block's rows are those times sqrt(w),
        and its last row is the response's."""
        if shape == "paper":  # time-varying thresholded lags, the previous-day band
            ctx, sets = context(n=420, d=2, trim=150, seed=5), default_index_sets()
        else:
            ctx = context(n=300, d=2, trim=3, seed=5)
            sets = minimal_sets(
                speed_ar=FamilySpec((1, 3), (1,), tv_own=(1,), threshold_lags=(1,)),
                power_ar=FamilySpec((1,), (1,), threshold_lags=(1,)),
                speed_reg=FamilySpec((0, 1), (0,), tv_own=(0,), threshold_lags=(0,)),
                speed_ma=FamilySpec((1,), ()),
                power_ma=FamilySpec((1,), ()),
                speed_err=FamilySpec((0,), ()),
                speed_vol_lag=FamilySpec((1,), ()),
                power_vol_lag=FamilySpec((1,), ()),
            )
        thr = compute_threshold_set(ctx.W, ctx.P, "deciles")
        args = (ctx, 1, sets, thr) if needs_thr else (ctx, 1, sets)
        dm, y = builder(*args)
        equation = builder.__name__.removeprefix("build_").removesuffix("_design")
        m = ctx.n - ctx.trim
        assert dm.values.shape == (m, dm.p) and m % 37 != 0
        whole = dm.values[:, np.arange(dm.p)]
        for idx in range(dm.p):
            rebuilt = regressor_from_meta(equation, dm.columns[idx], ctx)
            assert np.array_equal(rebuilt, dm.values[:, idx]), dm.columns[idx]
            assert np.array_equal(rebuilt, whole[:, idx]), dm.columns[idx]
        response = {"W": ctx.W, "P": ctx.P, "E": np.abs(ctx.E), "Ep": np.cbrt(np.abs(ctx.Ep))}
        assert np.array_equal(y, response[EQUATIONS[equation].response[0]][ctx.trim:, 1])
        w = np.random.default_rng(6).uniform(0.5, 2.0, m) if weighted else None
        problem = LassoProblem(y, dm.values, weights=w)
        stacked = np.vstack([whole.T, y]) * (1.0 if w is None else np.sqrt(w))
        for lo in range(0, m, 37):
            hi = min(lo + 37, m)
            block = np.empty((dm.p + 1, hi - lo))
            problem.rows(lo, hi, block)
            assert np.array_equal(block, stacked[:, lo:hi]), (lo, hi)

    def test_column_count_formula(self):
        ctx = context(n=300, d=2, trim=3)
        sets = minimal_sets(
            speed_ar=FamilySpec((1, 2), (1,), tv_own=(1, 2), tv_cross=(1,),
                                threshold_lags=(1, 2)),
            speed_ma=FamilySpec((1,), (1,)),
        )
        thr = compute_threshold_set(ctx.W, ctx.P, "deciles")
        dm, _ = build_speed_mean_design(ctx, 0, sets, thr)
        nb = 48
        own = (10 * nb) + (10 * nb)  # lags 1,2: thresholded and time varying
        cross = 10 * nb  # lag 1 cross thresholded + tv
        ma = 1 + 1  # own and cross, constant coefficients
        assert dm.p == nb + own + cross + ma


class TestNoLookahead:
    def test_rows_use_past_data_only(self):
        ctx_a = context(n=200, d=1, trim=2, seed=9)
        ctx_b = context(n=200, d=1, trim=2, seed=9)
        cut = 150
        ctx_b.W[cut:] += 100.0  # perturb the future
        sets = minimal_sets(speed_ar=FamilySpec((1, 2), ()))
        thr = compute_threshold_set(ctx_a.W, ctx_a.P, "none")
        dm_a, _ = build_speed_mean_design(ctx_a, 0, sets, thr)
        dm_b, _ = build_speed_mean_design(ctx_b, 0, sets, thr)
        # design row t uses data strictly before t (speed mean has no lag 0)
        upto = cut - ctx_a.trim
        cols = np.arange(dm_a.p)
        assert np.array_equal(dm_a.values[:, cols][:upto], dm_b.values[:, cols][:upto])


class TestDefaultIndexSets:
    def test_paper_shaped_lags(self):
        sets = default_index_sets()
        assert sets.speed_ar.own == tuple(range(1, 41)) + tuple(range(140, 151))
        assert sets.speed_ar.cross == tuple(range(1, 7))
        assert sets.speed_reg.own[0] == 0
        assert sets.speed_err.own == tuple(range(0, 7))
        assert sets.max_lag() == 150
        assert sets.speed_ar.threshold_lags == (1, 2)
        assert sets.speed_reg.tv_own == (0, 1, 2)
