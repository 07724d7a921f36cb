"""Turbine panel CSV reading and writing, validation, gap repair and
characterization, and the one CSV writer every output file goes through.

A panel is the aligned 10-minute multivariate record of wind speed (m/s) and
wind power (kW) for d turbines. Timestamps are kept as epoch seconds on the
data's own clock (ISO timestamps without a zone are read at face value);
nothing is resampled and nothing is clamped, only warned about.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .basis import ANNUAL_STEPS

STEP_SECONDS = 600
STEPS_PER_DAY = 144
DEFAULT_POWER_RANGE = (-19.0, 1542.0)


class PanelError(Exception):
    """Base class for panel ingestion/validation failures."""


class PanelParseError(PanelError):
    """Malformed cell or timestamp; carries the offending file line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PanelSchemaError(PanelError):
    """Structural problem: missing columns, duplicate or non-600 s timestamps."""


class UnrecoverableSeriesError(PanelError):
    """A whole (turbine, variable) column is missing; nothing to interpolate."""


@dataclass(frozen=True)
class PanelSchema:
    """Column mapping for the input CSV: one timestamp column plus
    ``<label>_speed`` / ``<label>_power`` pairs per turbine. No turbines
    means every label that has both columns in the file's header."""

    timestamp: str
    turbines: tuple[str, ...]

    def speed_column(self, label: str) -> str:
        return f"{label}_speed"

    def power_column(self, label: str) -> str:
        return f"{label}_power"

    def columns(self) -> list[str]:
        """The timestamp column, then each turbine's speed and power columns."""
        return [self.timestamp] + [name for label in self.turbines for name in
                                   (self.speed_column(label), self.power_column(label))]


@dataclass
class TurbinePanel:
    """Aligned speed/power series for d turbines on a strict 600 s grid.

    ``speed_mask``/``power_mask`` mark missing cells per variable;
    ``missing_mask`` is their union (one flag per series pair).
    """

    timestamps: np.ndarray  # int64 epoch seconds, strictly increasing, 600 s step
    speed: np.ndarray  # (n, d) float64, NaN where masked
    power: np.ndarray  # (n, d)
    labels: tuple[str, ...]
    speed_mask: np.ndarray  # (n, d) bool, True = missing
    power_mask: np.ndarray
    power_range: tuple[float, float] = DEFAULT_POWER_RANGE

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.speed = np.asarray(self.speed, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        self.labels = tuple(self.labels)
        self.speed_mask = np.asarray(self.speed_mask, dtype=bool)
        self.power_mask = np.asarray(self.power_mask, dtype=bool)
        n, d = self.speed.shape
        if self.power.shape != (n, d) or self.timestamps.shape != (n,):
            raise PanelSchemaError("speed/power/timestamps shapes disagree")
        if len(self.labels) != d:
            raise PanelSchemaError("label count does not match series count")
        repeated = sorted({label for label in self.labels if self.labels.count(label) > 1})
        if repeated:  # the panel CSV would name two turbines' columns alike
            raise PanelSchemaError(f"repeated turbine label(s) {', '.join(map(repr, repeated))}")
        steps = np.diff(self.timestamps)
        if np.any(steps <= 0):
            raise PanelSchemaError("timestamps must be strictly increasing")
        if np.any(steps != STEP_SECONDS):
            raise PanelSchemaError(
                f"sampling step must be exactly {STEP_SECONDS} s; "
                f"found steps {sorted(set(steps.tolist()))[:5]}"
            )
        self._warn_ranges()

    def _warn_ranges(self) -> None:
        spd = self.speed[~self.speed_mask]
        if spd.size and np.any(spd < 0):
            warnings.warn(f"{int(np.sum(spd < 0))} negative wind speed readings")
        pw = self.power[~self.power_mask]
        lo, hi = self.power_range
        bad = int(np.sum((pw < lo) | (pw > hi)))
        if bad:
            warnings.warn(f"{bad} power readings outside [{lo}, {hi}] kW")

    @property
    def n(self) -> int:
        return self.speed.shape[0]

    @property
    def d(self) -> int:
        return self.speed.shape[1]

    @property
    def missing_mask(self) -> np.ndarray:
        return self.speed_mask | self.power_mask

    def has_missing(self) -> bool:
        return bool(self.speed_mask.any() or self.power_mask.any())


@dataclass(frozen=True)
class CalendarIndex:
    """Per-row diurnal and annual positions.

    ``time_of_day`` is the 10-minute slot 0..143 read off the data's clock;
    ``time_of_year`` is the real-valued step count since Jan 1 00:00 of the
    anchor year, wrapped at 52594.56 steps (365.24 days), so multi-year
    panels drift smoothly instead of resetting each calendar year.
    """

    time_of_day: np.ndarray
    time_of_year: np.ndarray
    anchor_epoch: int

    @classmethod
    def from_timestamps(cls, timestamps: np.ndarray, anchor_epoch: int | None = None):
        ts = np.asarray(timestamps, dtype=np.int64)
        if anchor_epoch is None:
            first = datetime.fromtimestamp(int(ts[0]), tz=timezone.utc)
            anchor = datetime(first.year, 1, 1, tzinfo=timezone.utc)
            anchor_epoch = int(anchor.timestamp())
        tod = (ts % 86400) // STEP_SECONDS
        toy = np.mod((ts - anchor_epoch) / STEP_SECONDS, ANNUAL_STEPS)
        return cls(tod.astype(np.int64), toy.astype(float), int(anchor_epoch))


def parse_timestamp(text: str, line: int) -> int:
    """ISO-8601 (zone-less values taken as UTC) or integer epoch seconds."""
    text = text.strip()
    if not text:
        raise PanelParseError("empty timestamp", line)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise PanelParseError(f"unparseable timestamp {text!r}", line) from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def load_panel(path, schema: PanelSchema) -> TurbinePanel:
    """Read the CSV at ``path`` into a panel.

    Rows arriving out of order are re-sorted with a warning; duplicate
    timestamps and non-600 s sampling are rejected, and so are infinite cells.
    Empty and "nan" cells become masked entries, never silently filled.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelSchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if not schema.turbines:
            # every label with both columns, in the order of its speed column
            suffix = schema.speed_column("")
            labels = [h[: -len(suffix)] for h in header if h.endswith(suffix)]
            schema = PanelSchema(schema.timestamp, tuple(
                label for label in labels if schema.power_column(label) in header))
            if not schema.turbines:
                raise PanelSchemaError(f"{path}: no turbine speed/power column pairs")
        col_index = {name: i for i, name in enumerate(header)}
        needed = schema.columns()
        missing = [c for c in needed if c not in col_index]
        if missing:
            raise PanelSchemaError(f"{path}: missing columns {missing}")
        repeated = sorted({c for c in needed if header.count(c) > 1})
        if repeated:
            raise PanelSchemaError(f"{path}: header repeats column(s) {repeated}")
        idx = [col_index[c] for c in needed]

        ts_list: list[int] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(header):
                raise PanelParseError(
                    f"expected {len(header)} cells, got {len(row)}", line_no
                )
            ts_list.append(parse_timestamp(row[idx[0]], line_no))
            vals = []
            for k in idx[1:]:
                cell = row[k].strip()
                if not cell:
                    vals.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise PanelParseError(
                        f"non-numeric cell {cell!r} in column {header[k]!r}", line_no
                    ) from None
                if math.isinf(value):  # "nan" text stays a missing cell
                    raise PanelParseError(f"infinite cell {cell!r} in column {header[k]!r}",
                                          line_no)
                vals.append(value)
            rows.append(vals)

    if not rows:
        raise PanelSchemaError(f"{path}: no data rows")
    ts = np.asarray(ts_list, dtype=np.int64)
    data = np.asarray(rows, dtype=float)
    if np.any(np.diff(ts) < 0):
        warnings.warn("timestamps out of order; rows re-sorted")
        order = np.argsort(ts, kind="stable")
        ts, data = ts[order], data[order]
    if np.any(np.diff(ts) == 0):
        dup = int(ts[np.flatnonzero(np.diff(ts) == 0)[0]])
        raise PanelSchemaError(f"duplicate timestamp {dup}")

    d = len(schema.turbines)
    speed = data[:, [2 * i for i in range(d)]]
    power = data[:, [2 * i + 1 for i in range(d)]]
    return TurbinePanel(
        timestamps=ts,
        speed=speed,
        power=power,
        labels=schema.turbines,
        speed_mask=np.isnan(speed),
        power_mask=np.isnan(power),
    )


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as one comma-joined line.
    A float cell (NumPy's too) is written as its ``repr``, so it reads back
    exactly; any other cell with ``str``, so ``""`` is an empty cell."""
    with open(path, "w") as fh:
        for row in itertools.chain([header], rows):
            fh.write(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                              for c in row) + "\n")


def write_panel(panel: TurbinePanel, path, timestamp: str = "ts") -> None:
    """Write ``panel`` as the panel CSV :func:`load_panel` reads: ISO
    timestamps in the ``timestamp`` column, then each turbine's speed and
    power columns, with empty cells where masked."""
    values = np.dstack([panel.speed, panel.power]).reshape(panel.n, -1)
    masks = np.dstack([panel.speed_mask, panel.power_mask]).reshape(panel.n, -1)
    write_csv(path, PanelSchema(timestamp, panel.labels).columns(), (
        [datetime.fromtimestamp(int(t), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")]
        + ["" if m else v for v, m in zip(row, mask)]
        for t, row, mask in zip(panel.timestamps, values, masks)))


def _fill_column(values: np.ndarray, mask: np.ndarray, what: str) -> np.ndarray:
    if not mask.any():
        return values
    obs = np.flatnonzero(~mask)
    if obs.size == 0:
        raise UnrecoverableSeriesError(f"series {what} has no observed values")
    filled = values.copy()
    gaps = np.flatnonzero(mask)
    # np.interp extends by the nearest observed value beyond the ends
    filled[gaps] = np.interp(gaps, obs, values[obs])
    return filled


def fill_gaps_linear(panel: TurbinePanel) -> TurbinePanel:
    """Replace every masked run by the straight line between its bracketing
    observed values (nearest-value extension at the panel edges), per column
    independently. Observed cells are untouched bit-for-bit; idempotent."""
    if not panel.has_missing():
        return panel
    speed = panel.speed.copy()
    power = panel.power.copy()
    for i, label in enumerate(panel.labels):
        speed[:, i] = _fill_column(speed[:, i], panel.speed_mask[:, i], f"{label} speed")
        power[:, i] = _fill_column(power[:, i], panel.power_mask[:, i], f"{label} power")
    n, d = speed.shape
    return TurbinePanel(
        timestamps=panel.timestamps,
        speed=speed,
        power=power,
        labels=panel.labels,
        speed_mask=np.zeros((n, d), dtype=bool),
        power_mask=np.zeros((n, d), dtype=bool),
        power_range=panel.power_range,
    )


def smoothed_periodogram(series, span: int = 1):
    """Periodogram at Fourier frequencies k/n (cycles per time step), smoothed
    by a centered moving average of odd width ``span``.

    The series is mean-centered first, so the ordinates sum to the series
    variance (up to smoothing-edge effects). Returns (frequencies, density).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    if span % 2 == 0:
        raise ValueError(f"span must be odd, got {span}")
    n = x.size
    if n < 2 * span:
        raise ValueError(f"need n >= 2*span = {2 * span}, got {n}")
    x = x - x.mean()
    spec = np.abs(np.fft.rfft(x)) ** 2 / n**2
    nk = n // 2
    raw = 2.0 * spec[1 : nk + 1]
    if n % 2 == 0:
        raw[-1] = spec[nk]  # the Nyquist ordinate has no mirror image
    freqs = np.arange(1, nk + 1) / n
    if span == 1:
        return freqs, raw
    csum = np.concatenate(([0.0], np.cumsum(raw)))
    k = np.arange(nk)
    lo, hi = np.maximum(k - span // 2, 0), np.minimum(k + span // 2 + 1, nk)
    return freqs, (csum[hi] - csum[lo]) / (hi - lo)


DEFAULT_SEASONS = ((12, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11))


def seasonal_mean_profile(panel: TurbinePanel, season_partition=DEFAULT_SEASONS):
    """Per-season 144-point daily mean curves for every turbine and variable.

    ``season_partition`` lists the months belonging to each season (default
    DJF/MAM/JJA/SON). Returns an array of shape
    (n_seasons, 144, d, 2) with the last axis ordered (speed, power).
    """
    span = int(panel.timestamps[-1] - panel.timestamps[0]) + STEP_SECONDS
    if span < 365 * 86400:
        raise PanelError("panel must span at least one year for seasonal profiles")
    claimed = sorted(m for months in season_partition for m in months)
    if claimed != list(range(1, 13)):
        raise ValueError("season partition must cover each month exactly once")
    dt64 = panel.timestamps.astype("datetime64[s]")
    months = dt64.astype("datetime64[M]").astype(int) % 12 + 1
    cal = CalendarIndex.from_timestamps(panel.timestamps)
    n_seasons = len(season_partition)
    out = np.empty((n_seasons, STEPS_PER_DAY, panel.d, 2))
    for s, month_group in enumerate(season_partition):
        in_season = np.isin(months, month_group)
        if not in_season.any():
            raise PanelError(f"season bucket {s} (months {month_group}) is empty")
        for tau in range(STEPS_PER_DAY):
            rows = in_season & (cal.time_of_day == tau)
            if not rows.any():
                raise PanelError(
                    f"season bucket {s} has no rows at time-of-day {tau}"
                )
            out[s, tau, :, 0] = panel.speed[rows].mean(axis=0)
            out[s, tau, :, 1] = panel.power[rows].mean(axis=0)
    return out
