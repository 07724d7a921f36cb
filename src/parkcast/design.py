"""Regression designs for the four equations of the joint model.

Each target turbine i gets four designs:

* speed mean: thresholded own/cross speed lags plus moving-average terms,
* power mean: thresholded power and speed lags (speed also at lag 0),
  power moving-average terms and lagged/contemporaneous speed shocks,
* speed volatility: response |speed shock|, regressors split into positive
  and negative shock parts plus lagged volatility proxies,
* power volatility: response |power shock|^(1/3) with every regressor on the
  cube-root scale, including the speed-side coupling terms.

``EQUATIONS`` is the one place a coefficient family is declared: its state
variable, its transform and its lag set. The generic builder, the column
rebuild, the thresholds, the fit loop and the forecast engine all read it.
``check_term``, beside it, is the one rule for which terms are valid.

Coefficients flagged time varying are expanded against the seasonal
interaction basis (cumulative set for the mean equations, plain set with a
constant column for the volatility equations); everything else gets a single
constant column. Every column is a ``Term``, the one record of a coefficient
instance that the fit, the saved model and the forecast engine also keep; it
carries enough to rebuild its values from the raw inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .panel import write_csv

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
    if own_long_band is not None and not 1 <= own_long_band[0] <= own_long_band[1]:
        raise ValueError(f"own_long_band must be (first, last) with 1 <= first <= last, "
                         f"got {own_long_band}")
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


@dataclass(frozen=True)
class Equation:
    """One equation of the joint model: the interaction basis kind of its
    time-varying coefficients, its response as (state variable, transform),
    and its coefficient families in column order, each as (family, state
    variable, transform, IndexSets field)."""

    basis: str
    response: tuple[str, str]
    families: tuple[tuple[str, str, str, str], ...]


# The state variables, in the order of the forecast engine's state array:
# W speed, P power, E and Ep the mean equations' shocks, Sv and Pv the
# volatility proxies (Pv on the cube-root scale).
VARS = ("W", "P", "E", "Ep", "Sv", "Pv")

# A "thr" family gets one column per decile threshold.
EQUATIONS = {
    "speed_mean": Equation("cumulative", ("W", "id"), (
        ("speed_ar", "W", "thr", "speed_ar"),
        ("speed_ma", "E", "id", "speed_ma"),
    )),
    "power_mean": Equation("cumulative", ("P", "id"), (
        ("power_ar", "P", "thr", "power_ar"),
        ("speed_reg", "W", "thr", "speed_reg"),
        ("power_ma", "Ep", "id", "power_ma"),
        ("speed_err", "E", "id", "speed_err"),
    )),
    "speed_vol": Equation("plain", ("E", "abs"), (
        ("pos_shock", "E", "pos", "speed_shock"),
        ("neg_shock", "E", "neg", "speed_shock"),
        ("vol_lag", "Sv", "id", "speed_vol_lag"),
    )),
    "power_vol": Equation("plain", ("Ep", "cbrt_abs"), (
        ("pos_shock", "Ep", "cbrt_pos", "power_shock"),
        ("neg_shock", "Ep", "cbrt_neg", "power_shock"),
        ("vol_lag", "Pv", "id", "power_vol_lag"),
        ("speed_pos_shock", "E", "cbrt_pos", "cross_shock"),
        ("speed_neg_shock", "E", "cbrt_neg", "cross_shock"),
        ("speed_vol_lag", "Sv", "cbrt", "cross_vol_lag"),
    )),
}

# (equation, family) -> (state variable, transform)
FAMILY_SOURCE = {(eq, family): (var, transform)
                 for eq, spec in EQUATIONS.items()
                 for family, var, transform, _ in spec.families}

# the families that read the step's own value, written by an earlier stage
LAG_ZERO = frozenset({("power_mean", "speed_reg"), ("power_mean", "speed_err")})


def check_term(eq: str, term: Term, d: int, trim: int, n_basis: int) -> Term:
    """``term`` if the forecast engine can evaluate it in ``eq``, else ValueError. The
    intercept is turbine -1, lag 0; any other term has a family of ``eq``, a turbine in
    [0, d) and a lag in [1, trim] ([0, trim] in ``LAG_ZERO``). A threshold (NaN, -inf or
    finite) only on a "thr" family; a basis index in [0, n_basis) iff time-varying."""
    const = term.family == "const"
    if not const and (eq, term.family) not in FAMILY_SOURCE:
        raise ValueError(f"{eq} has no family {term.family!r}")
    what = f"{eq} {term.family} term, time-varying {int(term.time_varying)}"
    first_lag = int((eq, term.family) not in LAG_ZERO)
    for name, value, (lo, hi) in (
            ("source turbine", term.j, (-1, -1) if const else (0, d - 1)),
            ("lag", term.lag, (0, 0) if const else (first_lag, trim)),
            ("basis index", term.basis_index, (0, n_basis - 1) if term.time_varying else (-1, -1))):
        if not lo <= value <= hi:
            raise ValueError(f"{what}: {name} {value} is not in [{lo}, {hi}]")
    thr = not const and FAMILY_SOURCE[(eq, term.family)][1] == "thr"
    if not (np.isnan(term.threshold) or thr and term.threshold < np.inf):
        raise ValueError(f"{what}: threshold {term.threshold} is not "
                         + ("NaN, -inf or finite" if thr else "NaN: the family has none"))
    return term


# transform -> its action on a state array; "thr" thresholds per column
_APPLY = {
    "id": lambda x: x,
    "thr": lambda x: x,
    "pos": lambda x: np.maximum(x, 0.0),
    "neg": lambda x: np.maximum(-x, 0.0),
    "cbrt_pos": lambda x: np.cbrt(np.maximum(x, 0.0)),
    "cbrt_neg": lambda x: np.cbrt(np.maximum(-x, 0.0)),
    "cbrt": np.cbrt,
    "abs": np.abs,
    "cbrt_abs": lambda x: np.cbrt(np.abs(x)),
}


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


@dataclass
class ThresholdSet:
    """Decile thresholds per source turbine for the "thr" families of
    ``EQUATIONS``, keyed by the family's variable: "W" or "P"."""

    deciles: dict[str, list[np.ndarray]]  # variable -> per source turbine j

    def get(self, var: str, j: int) -> list[float]:
        """-inf (the linear term), then the deciles of ``var`` at turbine j."""
        return [-np.inf] + [float(c) for c in self.deciles[var][j]]


def compute_threshold_set(W, P, policy="deciles") -> ThresholdSet:
    """Build the thresholds used by the designs.

    ``policy`` is "deciles" (in-sample deciles per source series), "none"
    (pure linear terms everywhere), or a mapping with explicit "speed" /
    "power" threshold value lists applied to every turbine.
    """
    d = W.shape[1]
    if policy == "none":
        return ThresholdSet({v: [np.empty(0) for _ in range(d)] for v in ("W", "P")})
    if policy == "deciles":
        return ThresholdSet({v: [compute_thresholds(x[:, j]) for j in range(d)]
                             for v, x in (("W", W), ("P", P))})
    if isinstance(policy, dict):
        return ThresholdSet({v: [np.asarray(policy.get(key, ()), dtype=float)] * d
                             for v, key in (("W", "speed"), ("P", "power"))})
    raise ValueError(f"unknown threshold policy {policy!r}")


@dataclass(frozen=True)
class Term:
    """One coefficient instance: a design column, and with its ``value`` a
    fitted coefficient. Carries enough to rebuild its regressor."""

    family: str
    j: int  # source turbine; -1 for the intercept
    lag: int
    threshold: float  # -inf = linear term, NaN = family without thresholds
    basis_index: int  # column of the interaction basis; -1 = constant coefficient
    time_varying: bool
    value: float = 0.0


@dataclass
class DesignContext:
    """Shared inputs for the four builders: the state variables of ``VARS``
    and the two evaluated interaction bases by kind, aligned with the panel
    rows. A state variable not estimated yet is None, and the builders leave
    out the families that read it (the first pass has no shocks or proxies)."""

    W: np.ndarray
    P: np.ndarray
    E: np.ndarray | None
    Ep: np.ndarray | None
    Sv: np.ndarray | None
    Pv: np.ndarray | None  # cube-root-scale proxy
    cumulative: np.ndarray  # cumulative interaction values (n, Nb)
    plain: np.ndarray  # plain interaction values with constant column
    trim: int

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


@dataclass
class DesignPlan:
    """An equation's (m, p) design, never materialized: ``rows`` writes any
    block of rows, one NumPy call per run, and ``plan[:, k]`` builds whole
    columns; both give the columns ``regressor_from_meta`` rebuilds, bit for bit."""

    equation: str
    ctx: DesignContext
    terms: list[Term]
    runs: list[tuple]  # (first row, lag windows (lags, m), thresholds (c, 1) or None, tv)
    shape: tuple[int, int]  # (m, p)

    def rows(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write rows lo..hi transposed into the C-ordered ``out`` (p, hi - lo)."""
        head = getattr(self.ctx, EQUATIONS[self.equation].basis)[self.ctx.trim:][lo:hi].T
        basis = out[:head.shape[0]]  # the intercept rows, which time-varying runs multiply
        basis[...] = head
        for r, x, cs, tv in self.runs:  # rows max(x, c), times each basis row if tv
            if cs is None:  # consecutive plain lags: one strided copy
                out[r:r + len(x)] = x[:, lo:hi]
            elif tv:
                np.multiply(np.maximum(x[0, lo:hi], cs)[:, None], basis,
                            out=out[r:r + cs.size * len(basis)].reshape(cs.size, -1, hi - lo))
            else:
                np.maximum(x[0, lo:hi], cs, out=out[r:r + cs.size])

    def __getitem__(self, key) -> np.ndarray:
        """Whole columns, ``plan[:, k]`` or ``plan[:, indices]``, as an array gives them."""
        rows, cols = key
        if rows != slice(None):
            raise IndexError("a design plan gives whole columns only")
        out = np.empty((np.size(cols), self.shape[0]))
        for q, k in enumerate(np.atleast_1d(cols)):
            out[q] = regressor_from_meta(self.equation, self.terms[k], self.ctx)
        return out[0] if np.ndim(cols) == 0 else out.T


@dataclass
class DesignMatrix:
    """Columns and their terms; ``values`` is the plan that writes them."""

    values: DesignPlan  # (n_effective, p)
    columns: list[Term]

    @property
    def p(self) -> int:
        return len(self.columns)


def build_design(ctx: DesignContext, equation: str, i: int, sets: IndexSets,
                 thresholds: ThresholdSet | None = None):
    """Design and response of ``equation`` for turbine i: the intercept
    columns, then every family of ``EQUATIONS[equation]`` whose state
    variable ``ctx`` holds (is not None), in order, each over
    source turbines, lags, thresholds ("thr" families: -inf, then the deciles
    at the family's threshold lags; NaN without ``thresholds``) and basis
    columns (time-varying lags). The design is a ``DesignPlan``: the terms and
    a short list of runs, each written by one NumPy call per row block; no
    design value is written here."""
    if ctx.trim >= ctx.n:
        raise ValueError(
            f"panel too short: need more than {ctx.trim} rows for the "
            f"configured maximum lag"
        )
    spec = EQUATIONS[equation]
    nb = getattr(ctx, spec.basis).shape[1]
    metas = [Term("const", -1, 0, _NO_THRESHOLD, l, True) for l in range(nb)]
    runs = []
    for family, var, transform, field in spec.families:
        if getattr(ctx, var) is None:
            continue
        source, tail = np.asfortranarray(_APPLY[transform](getattr(ctx, var))), None
        win = as_strided(source, (ctx.trim + 1, ctx.d, ctx.n - ctx.trim),  # win[u, j]: lag trim - u
                         source.strides + source.strides[:1], writeable=False)
        lags, first_lag = getattr(sets, field), int((equation, family) not in LAG_ZERO)
        for j in range(ctx.d):
            own = j == i
            for k in lags.lags(own):
                if not first_lag <= k <= ctx.trim:
                    raise ValueError(f"{equation} {family}: lag {k} is not in "
                                     f"[{first_lag}, {ctx.trim}], the shared trim")
                cs = [_NO_THRESHOLD]
                if transform == "thr" and thresholds is not None:
                    cs = thresholds.get(var, j) if k in lags.threshold_lags else [-np.inf]
                tv = k in lags.tv_lags(own)
                plain = len(cs) == 1 and not tv  # consecutive plain lags share a run
                if plain and tail == (j, k):
                    runs[-1][4] += 1
                else:  # max(x, -inf) is x, so a linear term copies exactly
                    runs.append([len(metas), win, j, k, 1, None if plain else
                                 np.fmax(cs, -np.inf)[:, None], tv])
                tail = (j, k + 1) if plain else None
                metas.extend(Term(family, j, k, c, l, tv)
                             for c in cs for l in (range(nb) if tv else (-1,)))
    runs = [(r, win[ctx.trim - k - count + 1:ctx.trim - k + 1, j][::-1], cs, tv)
            for r, win, j, k, count, cs, tv in runs]  # lags k..k + count - 1 of column j
    var, transform = spec.response
    plan = DesignPlan(equation, ctx, metas, runs, (ctx.n - ctx.trim, len(metas)))
    return DesignMatrix(plan, metas), _APPLY[transform](getattr(ctx, var))[ctx.trim :, i].copy()


# one builder per equation, by name: the fit loop looks them up at call time
def build_speed_mean_design(ctx: DesignContext, i: int, sets: IndexSets,
                            thresholds: ThresholdSet):
    return build_design(ctx, "speed_mean", i, sets, thresholds)


def build_power_mean_design(ctx: DesignContext, i: int, sets: IndexSets,
                            thresholds: ThresholdSet):
    return build_design(ctx, "power_mean", i, sets, thresholds)


def build_speed_vol_design(ctx: DesignContext, i: int, sets: IndexSets):
    return build_design(ctx, "speed_vol", i, sets)


def build_power_vol_design(ctx: DesignContext, i: int, sets: IndexSets):
    return build_design(ctx, "power_vol", i, sets)


def regressor_from_meta(equation: str, term: Term, ctx: DesignContext) -> np.ndarray:
    """Rebuild a column of ``equation``'s design from its term; used to
    verify that the terms round-trip exactly."""
    basis = getattr(ctx, EQUATIONS[equation].basis)[ctx.trim :]
    if term.family == "const":
        return basis[:, term.basis_index].copy()
    var, transform = FAMILY_SOURCE[(equation, term.family)]
    reg = _APPLY[transform](getattr(ctx, var)[ctx.trim - term.lag : ctx.n - term.lag, term.j])
    reg = np.maximum(reg, np.fmax(term.threshold, -np.inf))  # NaN as -inf; max(x, -inf) is x
    return reg * basis[:, term.basis_index] if term.time_varying else reg


def dump_columns_csv(equation: str, i: int, columns: list[Term], path) -> None:
    """Write the columns of turbine i's ``equation`` design as CSV, one row each."""
    write_csv(path, ["equation", "family", "i", "j", "lag", "threshold", "basis", "tv"],
              ([equation, c.family, i, c.j, c.lag, c.threshold, c.basis_index,
                int(c.time_varying)] for c in columns))
