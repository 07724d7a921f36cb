"""Iteratively re-weighted estimation of the joint speed/power model.

One fit runs the boxed scheme: start with identity weights and no
residuals or volatility proxies, so the first pass builds no moving-average,
speed-shock or volatility-lag columns and estimates threshold AR /
power-ARCH models; fit the two mean equations per turbine by weighted lasso;
fit the two volatility equations by nonnegative lasso on the fresh
residuals; floor the fitted volatilities, turn them into inverse-variance
weights and build the residual- and proxy-dependent columns; repeat up to
``k_max`` times (two passes are enough in practice).

Scale caveat: the moment factors E|Z| and E|Z|^(1/3) multiply every
volatility coefficient in the regression representation, so fitted
volatility proxies carry an unknown positive scale. Weights and the
bootstrap both use the proxies consistently, so that scale cancels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import ANNUAL_STEPS, BSplineSpec, interaction_basis
from .design import (
    EQUATIONS,
    FAMILY_SOURCE,
    DesignContext,
    IndexSets,
    Term,
    ThresholdSet,
    build_power_mean_design,
    build_power_vol_design,
    build_speed_mean_design,
    build_speed_vol_design,
    compute_threshold_set,
    default_index_sets,
)
from .lasso import LassoFit, LassoProblem, LassoSettings, fit_path_bic
# unused here; perfbench's tracer wraps these two by name on this module
from .lasso import coordinate_descent, weighted_bic  # noqa: F401
from .panel import CalendarIndex, TurbinePanel


class ModelFitError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Everything that determines a fit apart from the data."""

    sets: IndexSets = field(default_factory=default_index_sets)
    threshold_policy: object = "deciles"  # "deciles" | "none" | {"speed": [...], "power": [...]}
    diurnal: BSplineSpec = BSplineSpec(3, 144.0, 12, strict_partition=True)
    annual: BSplineSpec = BSplineSpec(3, ANNUAL_STEPS, 4)
    k_max: int = 2
    vol_floor_fraction: float = 1e-3
    min_rows: int = 5000
    lasso: LassoSettings = field(default_factory=LassoSettings)

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 < self.vol_floor_fraction < 1.0:
            raise ValueError("vol_floor_fraction must lie in (0, 1)")


@dataclass
class FittedJointModel:
    """Sparse coefficients for all four equations plus the state needed to
    forecast, keyed by ``VARS``: residuals E, Ep and their standardized pools,
    floored volatility proxies Sv, Pv (power on the cube-root scale) and their floors."""

    labels: tuple[str, ...]
    trim: int
    k_max: int
    vol_floor_fraction: float
    diurnal: BSplineSpec
    annual: BSplineSpec
    anchor_epoch: int
    terms: dict[tuple[str, int], list[Term]]
    timestamps: np.ndarray  # rows covered by ``state``
    state: dict[str, np.ndarray]  # E, Ep, Sv, Pv: (rows, d)
    floors: dict[str, np.ndarray]  # Sv, Pv: one value per turbine
    pools: dict[str, np.ndarray]  # E, Ep: standardized residual rows (m, d)
    thresholds: ThresholdSet | None = None
    fits: dict[tuple[str, int], LassoFit] | None = None

    @property
    def d(self) -> int:
        return len(self.labels)


def _fitted_values(design_values, coefficients: np.ndarray) -> np.ndarray:
    """design @ coefficients from the support's columns alone, all a plan builds."""
    support = np.flatnonzero(coefficients)
    return design_values[:, support] @ coefficients[support]


def compute_residuals(design_values, coefficients: np.ndarray,
                      response: np.ndarray) -> np.ndarray:
    """response - design @ coefficients (an array or a ``DesignPlan``), elementwise."""
    if design_values.shape[0] != response.shape[0]:
        raise ValueError("design and response lengths disagree")
    return response - _fitted_values(design_values, coefficients)


def volatility_proxy(fitted_abs_values: np.ndarray, floor_fraction: float):
    """Floor fitted volatility values at ``floor_fraction`` times the median
    positive fitted value; returns (floored values, floor)."""
    fitted = np.asarray(fitted_abs_values, dtype=float)
    positive = fitted[fitted > 0]
    if positive.size == 0:
        raise ModelFitError("degenerate volatility: no positive fitted values")
    floor = floor_fraction * float(np.median(positive))
    return np.maximum(fitted, floor), floor


def _proxy_or_unit(equation: str, i: int, fitted: np.ndarray, config: ModelConfig):
    """Floor the fitted volatilities; a fully degenerate equation (all fitted
    values zero, e.g. on a constant panel) degrades to unit volatility."""
    try:
        return volatility_proxy(fitted, config.vol_floor_fraction)
    except ModelFitError:
        warnings.warn(f"{equation}[{i}]: degenerate volatility, using unit proxy")
        return np.ones_like(fitted), 1.0


def calendar_bases(panel: TurbinePanel, config: ModelConfig,
                   kinds=("cumulative", "plain")):
    """The calendar of ``panel`` and its interaction bases keyed by kind, all
    from one evaluation of the diurnal and annual factors."""
    cal = CalendarIndex.from_timestamps(panel.timestamps)
    return cal, interaction_basis(cal.time_of_day, cal.time_of_year,
                                  config.diurnal, config.annual, tuple(kinds))


def design_inputs(panel: TurbinePanel, config: ModelConfig):
    """What every design of ``panel`` reads besides the state variables: the
    calendar, the two interaction bases keyed by kind, and the thresholds."""
    cal, bases = calendar_bases(panel, config)
    return cal, bases, compute_threshold_set(panel.speed, panel.power,
                                             config.threshold_policy)


# the state variable each equation fills, by its response variable: a mean
# equation its residuals, a volatility equation its floored fitted proxies
_FILLS = {"W": "E", "P": "Ep", "E": "Sv", "Ep": "Pv"}


def fit_joint_model(panel: TurbinePanel, config: ModelConfig | None = None) -> FittedJointModel:
    """Run the full iteratively re-weighted estimation on a gap-free panel."""
    config = config or ModelConfig()
    if panel.has_missing():
        raise ModelFitError("panel has missing values; fill gaps before fitting")
    W, P = panel.speed, panel.power
    n, d = W.shape
    sets = config.sets
    trim = sets.max_lag()
    if n <= trim + config.min_rows:
        raise ModelFitError(
            f"panel too short: need more than {trim + config.min_rows} rows "
            f"(max lag {trim} + min sample {config.min_rows}), got {n}"
        )

    cal, bases, thresholds = design_inputs(panel, config)
    basis_values = {kind: b.values for kind, b in bases.items()}

    m = n - trim
    state = dict.fromkeys(_FILLS.values())  # nothing estimated yet: no MA or GARCH families
    floors = {"Sv": np.ones(d), "Pv": np.ones(d)}
    weights = {"W": np.ones((m, d)), "P": np.ones((m, d))}  # by response variable

    fits: dict[tuple[str, int], LassoFit] = {}
    terms: dict[tuple[str, int], list[Term]] = {}

    for npass in range(config.k_max):
        fresh: dict[str, np.ndarray] = {}
        for eq, spec in EQUATIONS.items():
            y_var = spec.response[0]
            filled = _FILLS[y_var]
            mean = y_var in ("W", "P")  # an observed response
            # mean designs see the last pass's state; volatility designs see
            # this pass's residuals and the last pass's proxies
            seen = state if mean else {**state, "E": fresh["E"], "Ep": fresh["Ep"]}
            ctx = DesignContext(W, P, **seen, **basis_values, trim=trim)
            # looked up by name at call time, so a wrapped builder is the one called
            build = globals()[f"build_{eq}_design"]
            # the one unpenalized column: the basis's constant
            const = ("const", bases[spec.basis].constant_column)
            out = np.zeros((n, d)) if mean else np.empty((n, d))
            for i in range(d):
                dm, y = build(ctx, i, sets, thresholds) if mean else build(ctx, i, sets)
                prob = LassoProblem(y, dm.values, weights[y_var][:, i] if mean else None,
                                    nonnegative=not mean,
                                    penalize_mask=np.array([(c.family, c.basis_index) != const
                                                            for c in dm.columns]))
                fit = fits[(eq, i)] = fit_path_bic(prob, config.lasso)
                if fit.zero_rss:
                    warnings.warn(f"{eq}[{i}]: zero residual sum of squares (degenerate fit)")
                terms[(eq, i)] = [replace(c, value=float(v))
                                  for c, v in zip(dm.columns, fit.coefficients) if v != 0.0]
                if mean:
                    out[trim:, i] = compute_residuals(dm.values, fit.coefficients, y)
                else:
                    if np.any(fit.coefficients < 0.0):
                        raise AssertionError("nonnegative fit returned a negative coefficient")
                    fv = _fitted_values(dm.values, fit.coefficients)
                    proxy, floors[filled][i] = _proxy_or_unit(eq, i, fv, config)
                    out[trim:, i] = proxy
                    out[:trim, i] = np.median(proxy)
                del dm, y, prob  # free this plan's source copies before the next is built
            fresh[filled] = out

        state = fresh
        # inverse-variance weights: the speed scale is Sv, the power scale Pv ** 3
        for y_var, vol, power in (("W", "Sv", -2.0), ("P", "Pv", -6.0)):
            for i in range(d):
                w = state[vol][trim:, i] ** power
                weights[y_var][:, i] = w / w.mean()
        if not all(np.all(np.isfinite(w)) for w in weights.values()):
            raise AssertionError("non-finite heteroscedasticity weights (floor bug)")

    return FittedJointModel(
        labels=panel.labels,
        trim=trim,
        k_max=config.k_max,
        vol_floor_fraction=config.vol_floor_fraction,
        diurnal=config.diurnal,
        annual=config.annual,
        anchor_epoch=cal.anchor_epoch,
        terms=terms,
        timestamps=panel.timestamps.copy(),
        state=state,
        floors=floors,
        pools={"E": state["E"][trim:] / state["Sv"][trim:],
               "Ep": state["Ep"][trim:] / state["Pv"][trim:] ** 3},
        thresholds=thresholds,
        fits=fits,
    )


# ---------------------------------------------------------------------------
# serialization: versioned text format, hex floats for exact round trips


_FORMAT_TAG = "parkcast-model"
_FORMAT_VERSION = 1
# the fewest state rows saved; a loaded model cannot forecast from before them
_TAIL_ROWS = 150

# the file's section names for the model's mappings, in file order within
# each; the mappings are keyed as ``VARS`` and ``ThresholdSet.deciles`` are
_SECTIONS = {
    "floors": {"Sv": "speed_floors", "Pv": "power_floors"},
    "deciles": {"W": "deciles.speed", "P": "deciles.power"},
    "state": {"E": "tail.speed_resid", "Ep": "tail.power_resid",
              "Sv": "tail.speed_vol", "Pv": "tail.power_vol"},
    "pools": {"E": "pool.speed", "Ep": "pool.power"},
}


def _hex(x: float) -> str:
    return float(x).hex()


def _write_matrix(fh, name: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(arr)
    fh.write(f"[{name}] {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        fh.write(" ".join(_hex(v) for v in row) + "\n")


def save_model(model: FittedJointModel, path) -> None:
    """Serialize to a self-describing flat text file.

    Stores the config scalars, basis specs, thresholds, sparse coefficient
    triplets with metadata, the training-sample tail needed to start the
    recursions, and the full standardized residual pools so bootstrap
    forecasts also round-trip bit-exactly.
    """
    tail = min(model.timestamps.shape[0], max(_TAIL_ROWS, model.trim))
    with open(path, "w") as fh:
        fh.write(f"{_FORMAT_TAG} {_FORMAT_VERSION}\n")
        fh.write(f"labels {','.join(model.labels)}\n")
        fh.write(f"trim {model.trim}\n")
        fh.write(f"k_max {model.k_max}\n")
        fh.write(f"vol_floor_fraction {_hex(model.vol_floor_fraction)}\n")
        fh.write(f"anchor_epoch {model.anchor_epoch}\n")
        for name, spec in (("diurnal", model.diurnal), ("annual", model.annual)):
            fh.write(f"{name} {spec.degree} {_hex(spec.season_length)} "
                     f"{spec.n_basis} {int(spec.strict_partition)}\n")
        for var, key in _SECTIONS["floors"].items():
            fh.write(key + " " + " ".join(_hex(v) for v in model.floors[var]) + "\n")
        thr = model.thresholds
        for var, name in _SECTIONS["deciles"].items():
            rows = thr.deciles[var] if thr else [np.empty(0)] * model.d
            padded = np.full((len(rows), max(v.size for v in rows)), np.nan)
            for k, v in enumerate(rows):
                padded[k, : v.size] = v
            _write_matrix(fh, name, padded)
        for eq in EQUATIONS:
            for i in range(model.d):
                terms = model.terms.get((eq, i), [])
                fh.write(f"[terms {eq} {i}] {len(terms)}\n")
                for t in terms:
                    fh.write(f"{t.family} {t.j} {t.lag} {_hex(t.threshold)} "
                             f"{t.basis_index} {int(t.time_varying)} {_hex(t.value)}\n")
        ts = model.timestamps[-tail:]
        fh.write(f"[tail.timestamps] {ts.size}\n")
        fh.write(" ".join(str(int(v)) for v in ts) + "\n")
        for var, name in _SECTIONS["state"].items():
            _write_matrix(fh, name, model.state[var][-tail:])
        for var, name in _SECTIONS["pools"].items():
            _write_matrix(fh, name, model.pools[var])
        fh.write("end\n")


class ModelFormatError(Exception):
    pass


class _Reader:
    def __init__(self, fh):
        self.lines = enumerate((ln.rstrip("\n") for ln in fh), start=1)
        self.lineno = 0

    def next(self) -> str:
        try:
            self.lineno, line = next(self.lines)
        except StopIteration:
            raise ModelFormatError("unexpected end of model file") from None
        return line

    def keyed(self, key: str, count: int | None = None) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != key:
            raise ModelFormatError(f"expected {key!r}, found {line!r}")
        if count is not None and len(parts) - 1 != count:
            raise ModelFormatError(f"{key}: {len(parts) - 1} values, expected {count}")
        return parts[1:]

    def section(self, name: str) -> list[str]:
        line = self.next()
        if not line.startswith(f"[{name}]"):
            raise ModelFormatError(f"expected section {name!r}, found {line!r}")
        return line[len(name) + 2 :].split()

    def matrix(self, name: str, shape=(None, None)) -> np.ndarray:
        """Section ``name``, whose header must match ``shape`` where not None."""
        rows, cols = (int(v) for v in self.section(name))
        if any(want not in (None, got) for want, got in zip(shape, (rows, cols))):
            expected = " x ".join("*" if v is None else str(v) for v in shape)
            raise ModelFormatError(f"section {name} is {rows} x {cols}, expected {expected}")
        out = np.empty((rows, cols))
        for r in range(rows):
            vals = self.next().split()
            if len(vals) != cols:
                raise ModelFormatError(f"section {name}: row {r} has {len(vals)} values")
            out[r] = [float.fromhex(v) for v in vals]
        return out


def load_model(path) -> FittedJointModel:
    """Read a file written by :func:`save_model`; the result forecasts
    identically to the model that was saved. A malformed file raises
    :class:`ModelFormatError` naming the file and the line."""
    with open(path) as fh:
        r = _Reader(fh)
        try:
            return _read_model(r)
        except (ModelFormatError, ValueError, IndexError) as exc:
            raise ModelFormatError(f"{path}, line {r.lineno}: {exc}") from exc


def _checked(eq: str, t: Term, d: int, trim: int, n_basis: int) -> Term:
    """``t`` if the forecast engine can evaluate it in ``eq``: its gathers
    clip out-of-range indices instead of raising."""
    const = t.family == "const"
    if not const and (eq, t.family) not in FAMILY_SOURCE:
        raise ModelFormatError(f"{eq} has no family {t.family!r}")
    for what, value, (lo, hi) in (
            ("source turbine", t.j, (-1, -1) if const else (0, d - 1)),
            ("lag", t.lag, (0, trim)),
            ("basis index", t.basis_index, (0, n_basis - 1) if t.time_varying else (-1, -1))):
        if not lo <= value <= hi:
            raise ModelFormatError(f"{eq} {t.family} term, time-varying {int(t.time_varying)}: "
                                   f"{what} {value} is not in [{lo}, {hi}]")
    return t


def _read_model(r: _Reader) -> FittedJointModel:
    head = r.next().split()
    if head != [_FORMAT_TAG, str(_FORMAT_VERSION)]:
        raise ModelFormatError(f"not a {_FORMAT_TAG} v{_FORMAT_VERSION} file")
    labels = tuple(r.keyed("labels")[0].split(","))
    d = len(labels)
    trim = int(r.keyed("trim")[0])
    k_max = int(r.keyed("k_max")[0])
    floor_frac = float.fromhex(r.keyed("vol_floor_fraction")[0])
    anchor = int(r.keyed("anchor_epoch")[0])
    specs = {}
    for name in ("diurnal", "annual"):
        deg, s, nb, strict = r.keyed(name)
        specs[name] = BSplineSpec(int(deg), float.fromhex(s), int(nb),
                                  strict_partition=bool(int(strict)))
    floors = {var: np.array([float.fromhex(v) for v in r.keyed(key, d)])
              for var, key in _SECTIONS["floors"].items()}
    deciles = {var: [row[~np.isnan(row)] for row in r.matrix(name, (d, None))]
               for var, name in _SECTIONS["deciles"].items()}
    n_basis = specs["diurnal"].n_basis * specs["annual"].n_basis
    terms: dict[tuple[str, int], list[Term]] = {}
    for eq in EQUATIONS:
        for i in range(d):
            (count,) = r.section(f"terms {eq} {i}")
            lst = []
            for _ in range(int(count)):
                fam, j, lag, thr, bidx, tv, val = r.next().split()
                t = Term(fam, int(j), int(lag), float.fromhex(thr), int(bidx),
                         bool(int(tv)), float.fromhex(val))
                lst.append(_checked(eq, t, d, trim, n_basis))
            terms[(eq, i)] = lst
    (n_ts,) = r.section("tail.timestamps")
    ts = np.array([int(v) for v in r.next().split()], dtype=np.int64)
    if ts.size != int(n_ts):
        raise ModelFormatError("tail timestamp count mismatch")
    state = {var: r.matrix(name, (ts.size, d)) for var, name in _SECTIONS["state"].items()}
    pools = {"E": r.matrix(_SECTIONS["pools"]["E"], (None, d))}
    pools["Ep"] = r.matrix(_SECTIONS["pools"]["Ep"], (pools["E"].shape[0], d))
    if r.next() != "end":
        raise ModelFormatError("missing end marker")

    return FittedJointModel(
        labels=labels,
        trim=trim,
        k_max=k_max,
        vol_floor_fraction=floor_frac,
        diurnal=specs["diurnal"],
        annual=specs["annual"],
        anchor_epoch=anchor,
        terms=terms,
        timestamps=ts,
        state=state,
        floors=floors,
        pools=pools,
        thresholds=ThresholdSet(deciles),
        fits=None,
    )
