"""Regression designs for the four equations of the joint model.

Each target turbine i gets four designs:

* speed mean: thresholded own/cross speed lags plus moving-average terms,
* power mean: thresholded power and speed lags (speed also at lag 0),
  power moving-average terms and lagged/contemporaneous speed shocks,
* speed volatility: response |speed shock|, regressors split into positive
  and negative shock parts plus lagged volatility proxies,
* power volatility: response |power shock|^(1/3) with every regressor on the
  cube-root scale, including the speed-side coupling terms.

Coefficients flagged time varying are expanded against the seasonal
interaction basis (cumulative set for the mean equations, plain set with a
constant column for the volatility equations); everything else gets a single
constant column. Every column carries metadata sufficient to rebuild its
values from the raw inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SHORT = tuple(range(1, 7))
SHORT0 = tuple(range(0, 7))
LONG = tuple(range(1, 41)) + tuple(range(140, 151))
LONG0 = (0,) + LONG

_NO_THRESHOLD = np.nan


@dataclass(frozen=True)
class FamilySpec:
    """Lag sets for one coefficient family: own-turbine and cross-turbine
    lags, which of them are time varying, and which carry decile thresholds."""

    own: tuple[int, ...]
    cross: tuple[int, ...]
    tv_own: tuple[int, ...] = ()
    tv_cross: tuple[int, ...] = ()
    threshold_lags: tuple[int, ...] = ()

    def lags(self, own: bool) -> tuple[int, ...]:
        return self.own if own else self.cross

    def tv_lags(self, own: bool) -> tuple[int, ...]:
        return self.tv_own if own else self.tv_cross

    def max_lag(self) -> int:
        return max(self.own + self.cross, default=0)


@dataclass(frozen=True)
class IndexSets:
    """Lag structure of the full model, one FamilySpec per coefficient family."""

    speed_ar: FamilySpec
    speed_ma: FamilySpec
    speed_shock: FamilySpec  # +/- split shares one lag set
    speed_vol_lag: FamilySpec
    power_ar: FamilySpec
    speed_reg: FamilySpec  # speed terms in the power mean, lag 0 allowed
    power_ma: FamilySpec
    speed_err: FamilySpec  # speed shocks in the power mean, lag 0 allowed
    power_shock: FamilySpec
    power_vol_lag: FamilySpec
    cross_shock: FamilySpec  # speed shocks in the power volatility
    cross_vol_lag: FamilySpec  # speed volatility in the power volatility

    def max_lag(self) -> int:
        return max(
            getattr(self, name).max_lag() for name in self.__dataclass_fields__
        )


def index_sets_from(own_short_max: int = 40,
                    own_long_band: tuple[int, int] | None = (140, 150),
                    cross_max: int = 6,
                    time_varying: bool = True) -> IndexSets:
    """Production-shaped lag structure: hour-deep cross terms, an own history
    of 1..own_short_max plus the previous-day band, thresholds and time
    variation on the first lags only. ``time_varying=False`` keeps every
    non-intercept coefficient constant (a much smaller design)."""
    long = tuple(range(1, own_short_max + 1))
    if own_long_band is not None:
        long += tuple(range(own_long_band[0], own_long_band[1] + 1))
    short = tuple(range(1, cross_max + 1))
    long0, short0 = (0,) + long, (0,) + short
    tv12 = (1, 2) if time_varying else ()
    tv012 = (0, 1, 2) if time_varying else ()
    return IndexSets(
        speed_ar=FamilySpec(long, short, tv12, tv12, (1, 2)),
        speed_ma=FamilySpec(short, short, tv12, ()),
        speed_shock=FamilySpec(long, short, tv12, tv12),
        speed_vol_lag=FamilySpec(short, short, tv12, tv12),
        power_ar=FamilySpec(long, short, tv12, tv12, (1, 2)),
        speed_reg=FamilySpec(long0, short0, tv012, tv012, (0, 1)),
        power_ma=FamilySpec(short, short, tv12, tv12),
        speed_err=FamilySpec(short0, short0, tv012, tv012),
        power_shock=FamilySpec(long, short, tv12, tv12),
        power_vol_lag=FamilySpec(short, short, tv12, tv12),
        cross_shock=FamilySpec(long, short, tv12, tv12),
        cross_vol_lag=FamilySpec(short, short, tv12, tv12),
    )


def default_index_sets() -> IndexSets:
    """The full production lag structure (40 own lags, previous-day band
    140..150, hour-deep cross terms)."""
    return index_sets_from()


def compute_thresholds(series) -> np.ndarray:
    """The nine deciles (10%..90%, linear-interpolation quantiles) of a series;
    a constant series collapses to a single threshold with a warning."""
    x = np.asarray(series, dtype=float)
    if x.size < 10:
        raise ValueError(f"need at least 10 observations, got {x.size}")
    dec = np.quantile(x, np.arange(1, 10) / 10.0)
    if dec[0] == dec[-1]:
        warnings.warn("constant series: thresholds collapsed to a single value")
        return dec[:1]
    return dec


def threshold_regressor(x, c: float):
    """max(x, c); c = -inf leaves the regressor linear."""
    if c == -np.inf:
        return np.asarray(x, dtype=float)
    return np.maximum(x, c)


@dataclass
class ThresholdSet:
    """Threshold values per family and source turbine.

    ``get`` always returns -inf first; decile values are appended only at
    the family's configured threshold lags.
    """

    speed_deciles: list[np.ndarray]  # per source turbine j
    power_deciles: list[np.ndarray]
    threshold_lags: dict[str, tuple[int, ...]]

    _SOURCES = {"speed_ar": "speed", "speed_reg": "speed", "power_ar": "power"}

    def get(self, family: str, j: int, k: int) -> list[float]:
        source = self._SOURCES.get(family)
        if source is None or k not in self.threshold_lags.get(family, ()):
            return [-np.inf]
        dec = self.speed_deciles[j] if source == "speed" else self.power_deciles[j]
        return [-np.inf] + [float(c) for c in dec]


def compute_threshold_set(W, P, sets: IndexSets, policy="deciles") -> ThresholdSet:
    """Build the thresholds used by the designs.

    ``policy`` is "deciles" (in-sample deciles per source series), "none"
    (pure linear terms everywhere), or a mapping with explicit "speed" /
    "power" threshold value lists applied to every turbine.
    """
    d = W.shape[1]
    lags = {
        "speed_ar": sets.speed_ar.threshold_lags,
        "speed_reg": sets.speed_reg.threshold_lags,
        "power_ar": sets.power_ar.threshold_lags,
    }
    if policy == "none":
        empty = [np.empty(0) for _ in range(d)]
        return ThresholdSet(empty, [np.empty(0) for _ in range(d)], lags)
    if policy == "deciles":
        return ThresholdSet(
            [compute_thresholds(W[:, j]) for j in range(d)],
            [compute_thresholds(P[:, j]) for j in range(d)],
            lags,
        )
    if isinstance(policy, dict):
        spd = np.asarray(policy.get("speed", ()), dtype=float)
        pwr = np.asarray(policy.get("power", ()), dtype=float)
        return ThresholdSet([spd] * d, [pwr] * d, lags)
    raise ValueError(f"unknown threshold policy {policy!r}")


@dataclass(frozen=True)
class ColumnInfo:
    """Ties one design column back to a single coefficient instance."""

    equation: str
    family: str
    i: int
    j: int  # source turbine; -1 for the intercept
    lag: int
    threshold: float  # -inf = linear term, NaN = family without thresholds
    basis_index: int  # column of the interaction basis; -1 = constant coefficient
    time_varying: bool


@dataclass
class DesignMatrix:
    values: np.ndarray  # (n_effective, p)
    columns: list[ColumnInfo]
    row_offset: int

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass
class DesignContext:
    """Shared inputs for the four builders: raw series, current residual and
    volatility proxies (all-ones at the first pass), and the two evaluated
    interaction bases aligned with the panel rows."""

    W: np.ndarray
    P: np.ndarray
    speed_resid: np.ndarray
    power_resid: np.ndarray
    speed_vol: np.ndarray
    power_vol: np.ndarray  # cube-root-scale proxy
    basis_mean: np.ndarray  # cumulative interaction values (n, Nb)
    basis_vol: np.ndarray  # plain interaction values with constant column
    trim: int

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


def _lagged(arr: np.ndarray, j: int, k: int, trim: int) -> np.ndarray:
    n = arr.shape[0]
    return arr[trim - k : n - k, j]


class _Builder:
    def __init__(self, ctx: DesignContext, equation: str, i: int, basis: np.ndarray):
        if ctx.trim >= ctx.n:
            raise ValueError(
                f"panel too short: need more than {ctx.trim} rows for the "
                f"configured maximum lag"
            )
        self.ctx = ctx
        self.equation = equation
        self.i = i
        self.basis = basis[ctx.trim :]
        self.cols: list[np.ndarray] = []
        self.metas: list[ColumnInfo] = []

    def intercept(self) -> None:
        for l in range(self.basis.shape[1]):
            self.cols.append(self.basis[:, l])
            self.metas.append(
                ColumnInfo(self.equation, "const", self.i, -1, 0, _NO_THRESHOLD, l, True)
            )

    def add(self, family: str, source: np.ndarray, spec: FamilySpec,
            thresholds: ThresholdSet | None = None) -> None:
        ctx = self.ctx
        for j in range(ctx.d):
            own = j == self.i
            for k in spec.lags(own):
                if k > ctx.trim:
                    raise ValueError(
                        f"lag {k} exceeds the shared trim {ctx.trim}; need at "
                        f"least {k} leading rows"
                    )
                base = _lagged(source, j, k, ctx.trim)
                if thresholds is not None:
                    cs = thresholds.get(family, j, k)
                else:
                    cs = [_NO_THRESHOLD]
                tv = k in spec.tv_lags(own)
                for c in cs:
                    reg = base if np.isnan(c) else threshold_regressor(base, c)
                    if tv:
                        for l in range(self.basis.shape[1]):
                            self.cols.append(reg * self.basis[:, l])
                            self.metas.append(ColumnInfo(
                                self.equation, family, self.i, j, k, c, l, True))
                    else:
                        self.cols.append(reg)
                        self.metas.append(ColumnInfo(
                            self.equation, family, self.i, j, k, c, -1, False))

    def finish(self) -> DesignMatrix:
        # stacked as rows: an F-ordered design, as the lasso's syrk reads it
        values = np.array(self.cols).T if self.cols else np.empty((self.ctx.n - self.ctx.trim, 0))
        return DesignMatrix(values, self.metas, self.ctx.trim)


def build_speed_mean_design(ctx: DesignContext, i: int, sets: IndexSets,
                            thresholds: ThresholdSet):
    """Design and response for the speed mean equation of turbine i."""
    b = _Builder(ctx, "speed_mean", i, ctx.basis_mean)
    b.intercept()
    b.add("speed_ar", ctx.W, sets.speed_ar, thresholds)
    b.add("speed_ma", ctx.speed_resid, sets.speed_ma)
    return b.finish(), ctx.W[ctx.trim :, i]


def build_power_mean_design(ctx: DesignContext, i: int, sets: IndexSets,
                            thresholds: ThresholdSet):
    """Design and response for the power mean equation of turbine i; speed
    enters at lag 0 as well (power reacts to the current wind)."""
    b = _Builder(ctx, "power_mean", i, ctx.basis_mean)
    b.intercept()
    b.add("power_ar", ctx.P, sets.power_ar, thresholds)
    b.add("speed_reg", ctx.W, sets.speed_reg, thresholds)
    b.add("power_ma", ctx.power_resid, sets.power_ma)
    b.add("speed_err", ctx.speed_resid, sets.speed_err)
    return b.finish(), ctx.P[ctx.trim :, i]


def build_speed_vol_design(ctx: DesignContext, i: int, sets: IndexSets):
    """Design and response |shock| for the speed volatility equation."""
    b = _Builder(ctx, "speed_vol", i, ctx.basis_vol)
    b.intercept()
    b.add("pos_shock", np.maximum(ctx.speed_resid, 0.0), sets.speed_shock)
    b.add("neg_shock", np.maximum(-ctx.speed_resid, 0.0), sets.speed_shock)
    b.add("vol_lag", ctx.speed_vol, sets.speed_vol_lag)
    return b.finish(), np.abs(ctx.speed_resid[ctx.trim :, i])


def build_power_vol_design(ctx: DesignContext, i: int, sets: IndexSets):
    """Design and response |shock|^(1/3) for the power volatility equation;
    all regressors enter through cube roots, including the speed coupling."""
    b = _Builder(ctx, "power_vol", i, ctx.basis_vol)
    b.intercept()
    b.add("pos_shock", np.cbrt(np.maximum(ctx.power_resid, 0.0)), sets.power_shock)
    b.add("neg_shock", np.cbrt(np.maximum(-ctx.power_resid, 0.0)), sets.power_shock)
    b.add("vol_lag", ctx.power_vol, sets.power_vol_lag)
    b.add("speed_pos_shock", np.cbrt(np.maximum(ctx.speed_resid, 0.0)), sets.cross_shock)
    b.add("speed_neg_shock", np.cbrt(np.maximum(-ctx.speed_resid, 0.0)), sets.cross_shock)
    b.add("speed_vol_lag", np.cbrt(ctx.speed_vol), sets.cross_vol_lag)
    return b.finish(), np.cbrt(np.abs(ctx.power_resid[ctx.trim :, i]))


_SOURCES = {
    "speed_ar": lambda ctx: ctx.W,
    "speed_ma": lambda ctx: ctx.speed_resid,
    "power_ar": lambda ctx: ctx.P,
    "speed_reg": lambda ctx: ctx.W,
    "power_ma": lambda ctx: ctx.power_resid,
    "speed_err": lambda ctx: ctx.speed_resid,
}

_VOL_SOURCES = {
    ("speed_vol", "pos_shock"): lambda ctx: np.maximum(ctx.speed_resid, 0.0),
    ("speed_vol", "neg_shock"): lambda ctx: np.maximum(-ctx.speed_resid, 0.0),
    ("speed_vol", "vol_lag"): lambda ctx: ctx.speed_vol,
    ("power_vol", "pos_shock"): lambda ctx: np.cbrt(np.maximum(ctx.power_resid, 0.0)),
    ("power_vol", "neg_shock"): lambda ctx: np.cbrt(np.maximum(-ctx.power_resid, 0.0)),
    ("power_vol", "vol_lag"): lambda ctx: ctx.power_vol,
    ("power_vol", "speed_pos_shock"): lambda ctx: np.cbrt(np.maximum(ctx.speed_resid, 0.0)),
    ("power_vol", "speed_neg_shock"): lambda ctx: np.cbrt(np.maximum(-ctx.speed_resid, 0.0)),
    ("power_vol", "speed_vol_lag"): lambda ctx: np.cbrt(ctx.speed_vol),
}


def regressor_from_meta(info: ColumnInfo, ctx: DesignContext) -> np.ndarray:
    """Rebuild a design column from its metadata; used to verify that column
    metadata round-trips exactly."""
    basis = ctx.basis_mean if info.equation in ("speed_mean", "power_mean") else ctx.basis_vol
    basis = basis[ctx.trim :]
    if info.family == "const":
        return basis[:, info.basis_index].copy()
    if (info.equation, info.family) in _VOL_SOURCES:
        source = _VOL_SOURCES[(info.equation, info.family)](ctx)
    else:
        source = _SOURCES[info.family](ctx)
    reg = _lagged(source, info.j, info.lag, ctx.trim)
    if not np.isnan(info.threshold):
        reg = threshold_regressor(reg, info.threshold)
    if info.time_varying:
        return reg * basis[:, info.basis_index]
    return reg.copy()


def dump_columns_csv(columns: list[ColumnInfo], path) -> None:
    """Write column metadata as CSV (family, i, j, lag, threshold, basis, tv)."""
    with open(path, "w") as fh:
        fh.write("equation,family,i,j,lag,threshold,basis,tv\n")
        for c in columns:
            fh.write(
                f"{c.equation},{c.family},{c.i},{c.j},{c.lag},"
                f"{c.threshold!r},{c.basis_index},{int(c.time_varying)}\n"
            )
