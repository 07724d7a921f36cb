import warnings

import numpy as np
import pytest

from parkcast.panel import (
    CalendarIndex,
    PanelParseError,
    PanelSchema,
    PanelError,
    PanelSchemaError,
    TurbinePanel,
    UnrecoverableSeriesError,
    fill_gaps_linear,
    load_panel,
    seasonal_mean_profile,
    smoothed_periodogram,
    write_csv,
    write_panel,
)

SCHEMA = PanelSchema("ts", ("A",))


def write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def make_panel(speed, power=None, start=1288569600, labels=("A",)):
    speed = np.atleast_2d(np.asarray(speed, dtype=float).T).T
    if speed.ndim == 1:
        speed = speed[:, None]
    if power is None:
        power = speed * 10.0
    power = np.asarray(power, dtype=float)
    if power.ndim == 1:
        power = power[:, None]
    n, d = speed.shape
    ts = start + 600 * np.arange(n)
    return TurbinePanel(ts, speed, power, labels[:d], np.isnan(speed), np.isnan(power))


class TestLoadPanel:
    def test_three_row_identity(self, tmp_path):
        p = load_panel(write(tmp_path,
            "ts,A_speed,A_power\n0,5.0,100\n600,6.0,110\n1200,7.0,120\n"), SCHEMA)
        assert (p.n, p.d) == (3, 1)
        assert p.speed[:, 0].tolist() == [5.0, 6.0, 7.0]
        assert not p.missing_mask.any()

    def test_missing_cell_masked_not_filled(self, tmp_path):
        p = load_panel(write(tmp_path,
            "ts,A_speed,A_power\n0,5.0,100\n600,6.0,\n1200,7.0,120\n"), SCHEMA)
        assert p.power_mask[1, 0] and not p.speed_mask[1, 0]
        assert p.missing_mask[1, 0]

    def test_out_of_order_resorted_with_warning(self, tmp_path):
        path = write(tmp_path, "ts,A_speed,A_power\n600,1,10\n0,2,20\n1200,3,30\n")
        with pytest.warns(UserWarning, match="re-sorted"):
            p = load_panel(path, SCHEMA)
        assert p.speed[:, 0].tolist() == [2.0, 1.0, 3.0]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = write(tmp_path, "ts,A_speed,A_power\n0,1,10\n0,2,20\n600,3,30\n")
        with pytest.raises(PanelSchemaError, match="duplicate"):
            load_panel(path, SCHEMA)

    def test_non_constant_step_rejected(self, tmp_path):
        path = write(tmp_path, "ts,A_speed,A_power\n0,1,10\n600,2,20\n1300,3,30\n")
        with pytest.raises(PanelSchemaError, match="600"):
            load_panel(path, SCHEMA)

    def test_malformed_cell_names_line(self, tmp_path):
        path = write(tmp_path, "ts,A_speed,A_power\n0,1,10\n600,zap,20\n")
        with pytest.raises(PanelParseError, match="line 3"):
            load_panel(path, SCHEMA)

    def test_iso_timestamps(self, tmp_path):
        p = load_panel(write(tmp_path,
            "ts,A_speed,A_power\n2010-11-01T00:00:00,1,1\n2010-11-01T00:10:00,2,2\n"),
            SCHEMA)
        assert p.timestamps[1] - p.timestamps[0] == 600

    def test_missing_column_rejected(self, tmp_path):
        path = write(tmp_path, "ts,A_speed\n0,1\n")
        with pytest.raises(PanelSchemaError, match="A_power"):
            load_panel(path, SCHEMA)
        with pytest.raises(PanelSchemaError, match="no turbine speed/power column pairs"):
            load_panel(path, PanelSchema("ts", ()))

    def test_out_of_range_power_warns(self, tmp_path):
        path = write(tmp_path, "ts,A_speed,A_power\n0,1,9000\n600,2,20\n")
        with pytest.warns(UserWarning, match="outside"):
            p = load_panel(path, SCHEMA)
        assert p.power[0, 0] == 9000.0  # warned, never clamped


    @pytest.mark.parametrize("header", ["as-written", "quoted", "unpaired-column"])
    def test_write_panel_round_trip(self, tmp_path, header):
        rng = np.random.default_rng(1)
        speed, power = rng.uniform(0, 20, (50, 2)), rng.uniform(0, 1500, (50, 2))
        speed[3:6, 0] = np.nan
        power[[10, 40], 1] = np.nan
        panel = make_panel(speed, power, labels=("B", "A"))
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        lines = path.read_text().splitlines()
        cells = [c for ln in lines[1:] for c in ln.split(",")]
        assert cells.count("") == panel.speed_mask.sum() + panel.power_mask.sum() == 5
        if header == "quoted":
            lines[0] = ",".join(f'"{name}"' for name in lines[0].split(","))
        elif header == "unpaired-column":  # a speed column alone is no turbine
            lines = [ln + (",1.0" if k else ",C_speed") for k, ln in enumerate(lines)]
        path.write_text("\n".join(lines) + "\n")
        back = load_panel(path, PanelSchema("ts", ()))
        assert back.labels == ("B", "A")
        assert np.array_equal(back.timestamps, panel.timestamps)
        for name in ("speed", "power"):
            assert getattr(back, name).tobytes() == getattr(panel, name).tobytes()
            assert np.array_equal(getattr(back, f"{name}_mask"), getattr(panel, f"{name}_mask"))


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ["a", "b", "c", "d", "e", 6],
              [[np.nan, -np.inf, np.float64(1 / 3), np.int64(7), "", 0.1]])
    assert path.read_text() == "a,b,c,d,e,6\nnan,-inf,0.3333333333333333,7,,0.1\n"


class TestFillGaps:
    def test_interior_linear(self):
        p = make_panel([2.0, np.nan, 4.0])
        f = fill_gaps_linear(p)
        assert f.speed[:, 0].tolist() == [2.0, 3.0, 4.0]
        assert not f.has_missing()

    def test_long_run_linear(self):
        n = 1000
        vals = np.arange(n, dtype=float)
        speed = vals.copy()
        speed[200:786] = np.nan  # 586-long interior run
        # power is ten times speed: the observed and then the filled readings
        # pass the 1542 kW bound
        with pytest.warns(UserWarning, match=r"^259 power readings outside"):
            panel = make_panel(speed)
        with pytest.warns(UserWarning, match=r"^845 power readings outside"):
            f = fill_gaps_linear(panel)
        assert np.allclose(f.speed[:, 0], vals)

    def test_edges_extend_nearest(self):
        f = fill_gaps_linear(make_panel([np.nan, 5.0, np.nan]))
        assert f.speed[:, 0].tolist() == [5.0, 5.0, 5.0]

    def test_identity_when_complete(self):
        p = make_panel([1.0, 2.0, 3.0])
        assert fill_gaps_linear(p) is p

    def test_idempotent_and_bit_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 20, 500)
        speed = vals.copy()
        speed[rng.choice(500, 60, replace=False)] = np.nan
        p = make_panel(speed)
        f1 = fill_gaps_linear(p)
        f2 = fill_gaps_linear(f1)
        assert np.array_equal(f1.speed, f2.speed)
        obs = ~p.speed_mask
        assert np.array_equal(f1.speed[obs], np.asarray(p.speed)[obs])

    def test_whole_column_missing_unrecoverable(self):
        with pytest.raises(UnrecoverableSeriesError, match="speed"):
            fill_gaps_linear(make_panel([np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]))


def periodogram_loops(x, span):
    """Reference: the one-sided ordinates and their moving average, bin by bin."""
    n = x.size
    spec = np.abs(np.fft.rfft(x - x.mean())) ** 2 / n**2
    nk = n // 2
    raw = np.empty(nk)
    for k in range(1, nk + 1):
        raw[k - 1] = spec[k] if (n % 2 == 0 and k == nk) else 2.0 * spec[k]
    freqs = np.arange(1, nk + 1) / n
    if span == 1:
        return freqs, raw
    half = span // 2
    csum = np.concatenate(([0.0], np.cumsum(raw)))
    out = np.empty(nk)
    for k in range(nk):
        lo, hi = max(0, k - half), min(nk, k + half + 1)
        out[k] = (csum[hi] - csum[lo]) / (hi - lo)
    return freqs, out


class TestSmoothedPeriodogram:
    def test_sinusoid_peaks_at_its_bin(self):
        n = 14400
        x = np.sin(2 * np.pi * np.arange(n) / 144.0)
        freqs, dens = smoothed_periodogram(x, span=1)
        assert freqs[np.argmax(dens)] == pytest.approx(1.0 / 144.0)

    def test_total_power_equals_variance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048)
        _, dens = smoothed_periodogram(x, span=1)
        assert dens.sum() == pytest.approx(x.var(), rel=1e-10)

    def test_white_noise_roughly_flat(self):
        # bound frozen from 300 Monte Carlo replications (max observed 4.51)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096)
        _, dens = smoothed_periodogram(x, span=31)
        assert dens.max() / dens.min() < 6.0

    def test_constant_series_all_zero(self):
        _, dens = smoothed_periodogram(np.full(512, 3.25), span=1)
        assert np.all(dens == 0.0)

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1024)
        _, d1 = smoothed_periodogram(x, span=5)
        _, d2 = smoothed_periodogram(x + 123.4, span=5)
        assert np.allclose(d1, d2, atol=1e-12)

    @pytest.mark.parametrize("n, span", [(n, span) for n in (20, 21, 1000, 1001, 10000)
                                         for span in (1, 3, 7, 51) if n >= 2 * span])
    def test_matches_loop_reference(self, n, span):
        x = np.random.default_rng(n + span).standard_normal(n)
        freqs, dens = smoothed_periodogram(x, span)
        ref_freqs, ref_dens = periodogram_loops(x, span)
        assert np.array_equal(freqs, ref_freqs) and np.array_equal(dens, ref_dens)

    def test_parameter_errors(self):
        x = np.arange(64.0)
        with pytest.raises(ValueError):
            smoothed_periodogram(x, span=0)
        with pytest.raises(ValueError):
            smoothed_periodogram(x, span=4)
        with pytest.raises(ValueError):
            smoothed_periodogram(x[:6], span=5)


def year_panel(speed_fn, n_days=366):
    n = n_days * 144
    ts = 1262304000 + 600 * np.arange(n)  # 2010-01-01
    tod = (ts % 86400) // 600
    dt64 = ts.astype("datetime64[s]")
    month = dt64.astype("datetime64[M]").astype(int) % 12 + 1
    speed = speed_fn(tod, month).astype(float)[:, None]
    return TurbinePanel(ts, speed, 10 * speed, ("A",),
                        np.zeros((n, 1), bool), np.zeros((n, 1), bool))


class TestSeasonalProfile:
    def test_constant_series(self):
        p = year_panel(lambda tod, m: np.full(tod.size, 4.5))
        prof = seasonal_mean_profile(p)
        assert prof.shape == (4, 144, 1, 2)
        assert np.allclose(prof[:, :, 0, 0], 4.5)

    def test_time_of_day_ramp(self):
        p = year_panel(lambda tod, m: tod.astype(float))
        prof = seasonal_mean_profile(p)
        for s in range(4):
            assert np.allclose(prof[s, :, 0, 0], np.arange(144.0))

    def test_season_dependent_phase_recovered(self):
        shift = {12: 0, 1: 0, 2: 0, 3: 12, 4: 12, 5: 12,
                 6: 24, 7: 24, 8: 24, 9: 36, 10: 36, 11: 36}

        def gen(tod, month):
            ph = np.vectorize(shift.get)(month)
            return np.cos(2 * np.pi * (tod - ph) / 144.0)

        with pytest.warns(UserWarning, match="negative wind speed readings"):
            panel = year_panel(gen)
        prof = seasonal_mean_profile(panel)
        for s, expected in enumerate((0, 12, 24, 36)):
            peak = int(np.argmax(prof[s, :, 0, 0]))
            assert abs(peak - expected) <= 1

    def test_short_panel_rejected(self):
        p = year_panel(lambda tod, m: tod.astype(float), n_days=100)
        with pytest.raises(PanelError, match="year"):
            seasonal_mean_profile(p)

    def test_partition_must_cover_months(self):
        p = year_panel(lambda tod, m: tod.astype(float))
        with pytest.raises(ValueError, match="month"):
            seasonal_mean_profile(p, ((1, 2), (3, 4), (5, 6), (7, 8)))


class TestCalendarIndex:
    def test_time_of_day_wraps(self):
        ts = 1288569600 + 600 * np.arange(300)
        cal = CalendarIndex.from_timestamps(ts)
        assert np.array_equal(cal.time_of_day,
                              (cal.time_of_day[0] + np.arange(300)) % 144)

    def test_time_of_year_wraps_at_annual_length(self):
        from parkcast.basis import ANNUAL_STEPS
        ts = np.int64(1262304000) + 600 * np.arange(2)
        cal = CalendarIndex.from_timestamps(ts)
        assert 0.0 <= cal.time_of_year[0] < ANNUAL_STEPS

    def test_anchor_is_reusable(self):
        ts = 1288569600 + 600 * np.arange(10)
        a = CalendarIndex.from_timestamps(ts)
        b = CalendarIndex.from_timestamps(ts + 600 * 50, a.anchor_epoch)
        assert b.anchor_epoch == a.anchor_epoch
        assert b.time_of_year[0] == a.time_of_year[0] + 50.0
