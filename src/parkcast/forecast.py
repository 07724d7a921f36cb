"""Multi-step forecasting and simulation on the fitted recursions.

Point forecasts plug the recursions forward with future shocks at zero;
probabilistic forecasts resample whole cross-sectional rows of standardized
in-sample residuals (preserving the dependence across turbines and between
speed and power), re-scale them by the recursion's current volatility and
collect empirical percentiles. A fan's pool rows come from one call to a
Philox generator keyed by (seed, 1); synthetic simulation keys its shocks
by (seed, 0), so the two never share a stream.

One compiled engine steps the recursions for point forecasts, bootstrap
paths, filtering of observed data beyond the training sample (to obtain
residual state at backtest origins) and synthetic simulation from known
coefficients. Its state is one array (variable, time, turbine, path), so
every read is a contiguous vector over paths. Time positions are addressed
modulo the state's length: filtering and simulation keep a state as long as
the panel, while point forecasts, backtest batches and bootstrap fans step a
ring of the last trim + 1 rows, which holds every lag a step reads, and
copy each step's W and P out into (horizon, turbine, path) arrays. A step
runs three stages: both volatilities of every turbine, then the speed means,
then the power means (power loads on the current speed). Each stage gathers
its distinct regressors (variable, turbine, lag, transform) with one fancy
index into a table of flat state rows built once per block of steps,
transforms them on contiguous row ranges and takes one product with an
(outputs x regressors) coefficient matrix. Forward runs step every stage;
filtering, which observes W and P, first applies speed mean, power mean and
volatility in turn, while the stage has no MA or GARCH lag, to a whole block
of steps in one stacked product, and steps the rest. When every path steps
through the same timestamps, time-varying coefficients and intercepts are
folded into those matrices from the basis rows, one bounded block of steps
at a time. The path axis may also hold different origins (a backtest runs
all of its origins in one call): the basis is then evaluated once on the
distinct timestamps, each path folds its own calendar rows, and the
time-varying part of a stage is one gather of folded rows times the
matching regressor rows, added to the constant product.

The variable and transform each coefficient family reads come from
``design.EQUATIONS``, the one place a family is declared, so the engine
applies the regressors the fit's designs were built from.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import interaction_basis
from .design import EQUATIONS, FAMILY_SOURCE, VARS
from .model import FittedJointModel
from .panel import STEP_SECONDS, CalendarIndex, TurbinePanel

PERCENTILES = np.arange(1, 100)


class ForecastError(Exception):
    pass


@dataclass
class ForecastResult:
    """Per-horizon point forecasts and, for bootstrap runs, percentile fans.

    ``speed_quantiles``/``power_quantiles`` have shape (horizon, d, 99) and
    are non-decreasing along the percentile axis.
    """

    origin_index: int
    origin_timestamp: int
    horizon: int
    labels: tuple[str, ...]
    speed_point: np.ndarray
    power_point: np.ndarray
    speed_quantiles: np.ndarray | None = None
    power_quantiles: np.ndarray | None = None
    n_paths: int = 0
    seed: int | None = None


# the first axis of the engine's state array
_W, _P, _E, _EP, _SV, _PV = range(len(VARS))

# the transforms of EQUATIONS -> (class, lower bound); "thr" takes the
# term's threshold, and no threshold makes it "id". A stage sorts its
# regressors by class, so negation (classes 2-3), the lower bound (1-4) and
# the cube root (3-5) each act on one contiguous range of rows:
# cbrt(max(-x, 0)) for "cbrt_neg".
_TRANSFORMS = {"id": (0, -np.inf), "thr": (1, None), "pos": (1, 0.0), "neg": (2, 0.0),
               "cbrt_neg": (3, 0.0), "cbrt_pos": (4, 0.0), "cbrt": (5, -np.inf)}

# upper bound on the elements of one stage's folded (steps x outputs x
# regressors) coefficient block
_FOLD_ELEMS = 1 << 16


def _rows(cls: np.ndarray, lo: int, hi: int) -> slice | None:
    a, b = np.searchsorted(cls, [lo, hi + 1])
    return slice(a, b) if b > a else None


class _Stage:
    """One compiled stage: for every output (equation, turbine),
    ``coef @ [transform(state[var, pos - lag, j]); 1]``, the intercept being
    the last column of ``coef``.

    ``now`` holds the variables written by earlier stages of the same step;
    only those may be read at lag 0.
    """

    def __init__(self, model, equations: tuple[str, ...], now: tuple[int, ...]):
        self.kind = EQUATIONS[equations[0]].basis  # shared by the equations
        entries = []  # (output, regressor key or None for the intercept, basis, value)
        for o, (eq, i) in enumerate((eq, i) for eq in equations for i in range(model.d)):
            for t in model.terms.get((eq, i), []):
                if t.family == "const":
                    entries.append((o, None, t.basis_index, t.value))
                    continue
                source = FAMILY_SOURCE.get((eq, t.family))
                if source is None:
                    raise ForecastError(f"unknown family {t.family!r} in {eq}")
                var = VARS.index(source[0])
                if t.lag < 1 and var not in now:
                    what = "volatility" if eq.endswith("_vol") else t.family
                    raise ForecastError(f"{eq}[{i}]: {what} terms need lag >= 1")
                cls, lower = _TRANSFORMS[source[1]]
                if lower is None:
                    finite = np.isfinite(t.threshold)
                    cls, lower = (1, float(t.threshold)) if finite else (0, -np.inf)
                entries.append((o, (cls, lower, var, t.j, t.lag), t.basis_index, t.value))
        keys = sorted({key for _, key, _, _ in entries if key is not None})
        col = {key: c for c, key in enumerate(keys + [None])}
        cls = np.array([k[0] for k in keys], dtype=int)
        self.lower = np.array([k[1] for k in keys], dtype=float)[:, None]
        self.var, self.j, self.lag = (np.array([k[n] for k in keys], dtype=np.intp)
                                      for n in (2, 3, 4))
        self.neg, self.low, self.cbrt = _rows(cls, 2, 3), _rows(cls, 1, 4), _rows(cls, 3, 5)
        self.coef = np.zeros((len(equations) * model.d, len(col)))
        tv: dict[int, dict[int, float]] = {}  # flat coefficient index -> basis -> value
        for o, key, b, value in entries:
            at = o * len(col) + col[key]
            if b < 0:
                self.coef.flat[at] += value
            else:
                row = tv.setdefault(at, {})
                row[b] = row.get(b, 0.0) + value
        self.tv_at = np.array(sorted(tv), dtype=np.intp)
        self.tv = np.zeros((model.diurnal.n_basis * model.annual.n_basis, len(tv)))
        for k, at in enumerate(self.tv_at):
            for b, value in tv[at].items():
                self.tv[b, k] = value
        # per-path folds: entry k multiplies row tv_reg[k] of x and adds to
        # the output whose row of tv_out is 1 in column k
        out, self.tv_reg = np.divmod(self.tv_at, len(col))
        self.tv_out = np.zeros((self.coef.shape[0], len(tv)))
        self.tv_out[out, np.arange(len(tv))] = 1.0

    def fold(self, basis: dict[str, np.ndarray], start: int, steps: int) -> np.ndarray:
        """Coefficients (steps, outputs, regressors + 1) at basis rows
        ``start`` .. ``start + steps - 1``."""
        if not self.tv_at.size:
            return np.broadcast_to(self.coef, (steps,) + self.coef.shape)
        coef = np.repeat(self.coef[None], steps, axis=0)
        coef.reshape(steps, -1)[:, self.tv_at] += basis[self.kind][start:start + steps] @ self.tv
        return coef

    def fold_rows(self, basis: dict[str, np.ndarray]) -> np.ndarray | None:
        """Time-varying coefficient values (entries, basis rows), or None
        when the stage has none."""
        return (basis[self.kind] @ self.tv).T.copy() if self.tv_at.size else None

    def bind(self, flat: np.ndarray, steps: tuple = ()):
        """This stage on the flat state ``flat`` (rows, paths):
        ``apply(rows, coef, out, tv)`` sets ``out = coef @ x`` after gathering
        ``flat[rows]`` into the leading rows of ``x`` (regressors + 1, paths;
        its last row is 1) and transforming them, and returns it. ``tv``
        (entries, paths), each path's time-varying coefficient values, adds
        their products; it is overwritten. The views of ``x`` are built here,
        once per run, or once per block: ``steps`` = (n,) gives x, rows, coef
        and out a leading axis of n steps, for one stacked product."""
        x = np.ones(steps + (self.coef.shape[1], flat.shape[1]))
        head = x[..., :-1, :]
        neg = x[..., self.neg, :] if self.neg else None
        low, lower = (x[..., self.low, :], self.lower[self.low]) if self.low else (None, None)
        cbrt = x[..., self.cbrt, :] if self.cbrt else None

        def apply(rows, coef, out=None, tv=None):
            flat.take(rows, axis=0, out=head, mode="clip")
            if neg is not None:
                np.negative(neg, out=neg)
            if low is not None:
                np.maximum(low, lower, out=low)
            if cbrt is not None:
                np.cbrt(cbrt, out=cbrt)
            out = np.matmul(coef, x, out=out)
            if tv is not None:
                tv *= x.take(self.tv_reg, axis=0)
                out += self.tv_out @ tv
            return out

        return apply


class _Engine:
    """The model's recursions, compiled into three stages per step."""

    def __init__(self, model: FittedJointModel):
        self.model = model
        self.floors = np.stack([model.floors[v] for v in VARS[_SV:]])[:, :, None]
        self.stages = (_Stage(model, ("speed_vol", "power_vol"), ()),
                       _Stage(model, ("speed_mean",), (_SV, _PV)),
                       _Stage(model, ("power_mean",), (_W, _E, _SV, _PV)))
        # the stages filtering applies per block (see run): (stage, observed,
        # written), while each reads only the variables VARS lists before it writes
        self.per_block = []
        for n, y, e in ((1, _W, _E), (2, _P, _EP), (0, None, _SV)):
            if self.stages[n].var.max(initial=_W) >= e:
                break
            self.per_block.append((n, y, e))

    def basis_rows(self, timestamps: np.ndarray, kinds) -> dict[str, np.ndarray]:
        """Interaction basis rows of each kind ("cumulative" for the means,
        "plain" for the volatilities) at the timestamps, from one evaluation
        of the diurnal and annual factors."""
        if not kinds:
            return {}
        cal = CalendarIndex.from_timestamps(timestamps, self.model.anchor_epoch)
        bases = interaction_basis(cal.time_of_day, cal.time_of_year, self.model.diurnal,
                                  self.model.annual, tuple(kinds))
        return {kind: b.values for kind, b in bases.items()}

    def run(self, state: np.ndarray, first: int, timestamps: np.ndarray,
            shocks=None, observed: bool = False, out: np.ndarray | None = None) -> None:
        """Step positions ``first, first + 1, ...`` (one per timestamp) of
        ``state`` (variables x time x turbines x paths, C-contiguous).

        Positions are addressed modulo the state's time length, so the state
        may be a ring: with ``max_lag + 1`` rows it holds every lag a step
        reads. A state as long as the run keeps every step's values.
        ``out`` (2, steps, turbines, paths), if given, receives each step's
        W and P as it is taken.

        ``timestamps`` is one row shared by every path, or (paths, steps):
        one row per path, each path folding its own calendar rows (rows that
        all agree are run as one shared row).
        ``observed``: W and P already hold observations and the step backs
        out the shocks E and Ep (filtering); each block first applies the
        ``per_block`` stages (none with per-path timestamps) to all of its
        steps. Otherwise ``shocks(s, sv, pv)`` gives step ``s``'s speed and
        power shocks from its volatilities, or ``shocks`` is None: zero
        shocks, and the volatilities, which nothing then reads, are not stepped.
        """
        _, T, d, paths = state.shape
        flat = state.reshape(-1, paths)
        at = state.transpose(1, 0, 2, 3)  # at[pos % T]: (variables, d, paths)
        step_vol = observed or shocks is not None
        stages = self.stages[not step_vol:]
        if first < max(st.lag.max(initial=0) for st in stages):
            raise ForecastError(f"lags reach before the {first} rows of history")
        kinds = {st.kind for st in stages if st.tv_at.size}
        if timestamps.ndim == 2 and (timestamps == timestamps[0]).all():
            timestamps = timestamps[0]
        per_path = timestamps.ndim == 2
        n_steps = timestamps.shape[-1]
        if per_path:
            distinct, inverse = np.unique(timestamps, return_inverse=True)
            inverse = inverse.reshape(timestamps.shape).T.copy()  # (steps, paths)
            basis = self.basis_rows(distinct, kinds)
            folded = [st.fold_rows(basis) for st in stages]
            block = n_steps
        else:
            basis = self.basis_rows(timestamps, kinds)
            block = max(1, _FOLD_ELEMS // max(st.coef.size for st in stages))
        # how many of speed mean, power mean and volatility go per block, in turn
        done = len(self.per_block) if observed and not per_path else 0
        apply = [st.bind(flat) for st in stages]
        vol = np.empty((2, d, paths))
        vol_rows = vol.reshape(2 * d, paths)
        fitted = np.empty((d, paths))
        tvs = [None] * len(stages)
        zs = zp = 0.0
        for b0 in range(0, n_steps, block):
            steps = min(block, n_steps - b0)
            # flat state rows each step gathers: (steps, regressors) per stage
            pos = first + b0 + np.arange(steps)[:, None]
            rows = [(st.var * T + (pos - st.lag) % T) * d + st.j for st in stages]
            if per_path:
                coefs = [np.broadcast_to(st.coef, (steps,) + st.coef.shape) for st in stages]
            else:
                coefs = [st.fold(basis, b0, steps) for st in stages]
            for n, y, e in self.per_block[:done]:  # one gather and product, one write
                fit = stages[n].bind(flat, (steps,))(rows[n], coefs[n]).reshape(steps, -1, d, paths)
                t = pos[:, 0] % T
                if y is None:
                    state[_SV:, t] = np.maximum(fit, self.floors).swapaxes(0, 1)
                else:
                    state[e, t] = state[y, t] - fit[:, 0]
            if done == 3 and out is None:
                continue
            for k in range(steps):
                s = b0 + k
                now = at[(first + s) % T]
                if per_path:
                    tvs = [None if f is None else f.take(inverse[s], axis=1)
                           for f in folded]
                if step_vol and done < 3:
                    apply[0](rows[0][k], coefs[0][k], vol_rows, tvs[0])
                    np.maximum(vol, self.floors, out=now[_SV:])
                if shocks is not None:
                    zs, zp = shocks(s, now[_SV], now[_PV])
                for n, y, e, z in ((-2, _W, _E, zs), (-1, _P, _EP, zp))[done:]:
                    if observed:
                        apply[n](rows[n][k], coefs[n][k], fitted, tvs[n])
                        np.subtract(now[y], fitted, out=now[e])
                    else:
                        value = now[y]
                        apply[n](rows[n][k], coefs[n][k], value, tvs[n])
                        now[e] = z
                        if shocks is not None:
                            value += z
                if out is not None:
                    out[:, s] = now[_W:_P + 1]


def check_seed(seed) -> int:
    """``seed`` as an int, if it is a Philox key: an integer in [0, 2**64).
    A bool is refused, though Python counts it as an int."""
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= seed < 1 << 64):
        raise ForecastError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _pool_draws(seed: int, n_paths: int, horizon: int, pool_m: int) -> np.ndarray:
    """Pool rows (horizon, n_paths) from one Philox stream keyed by (seed, 1),
    stored as int32. NumPy draws a range below 2**32 from 32-bit words for
    any dtype, so they equal that stream's default int64 ``integers``."""
    if not 1 <= pool_m < 1 << 31:
        raise ForecastError(f"pool size must be in [1, 2**31) for int32 draws, got {pool_m}")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    return rng.integers(0, pool_m, (horizon, n_paths), dtype=np.int32)


def _locate(model: FittedJointModel, panel: TurbinePanel) -> int:
    """Panel row index of the first model-covered row; model timestamps must
    be a contiguous run of panel timestamps."""
    start = int(np.searchsorted(panel.timestamps, model.timestamps[0]))
    k = model.timestamps.shape[0]
    if (start + k > panel.n
            or not np.array_equal(panel.timestamps[start:start + k],
                                  model.timestamps)):
        raise ForecastError("model state timestamps do not align with the panel")
    return start


class Forecaster:
    """Binds a fitted model to a panel; filters residual state forward as
    needed and serves point / bootstrap forecasts from any origin row."""

    def __init__(self, model: FittedJointModel, panel: TurbinePanel):
        if panel.has_missing():
            raise ForecastError("panel has missing values")
        self.model = model
        self.panel = panel
        self.engine = _Engine(model)
        self.start = _locate(model, panel)
        n, d = panel.n, panel.d
        # the engine state with one path; W .. Pv are (n, d) views of it
        self.state = np.zeros((len(VARS), n, d, 1))
        self.W, self.P, self.E, self.Ep, self.Sv, self.Pv = self.state[..., 0]
        self.W[:], self.P[:] = panel.speed, panel.power
        k = model.timestamps.shape[0]
        for var, floor in model.floors.items():
            getattr(self, var)[:] = floor
        for var, tail in model.state.items():
            getattr(self, var)[self.start:self.start + k] = tail
        self.covered_through = self.start + k - 1

    # -- filtering --------------------------------------------------------

    def ensure_state(self, row: int) -> None:
        if row >= self.panel.n:
            raise ForecastError(f"row {row} beyond the panel ({self.panel.n} rows)")
        if row <= self.covered_through:
            return
        lo = self.covered_through + 1
        self.engine.run(self.state, lo, self.panel.timestamps[lo:row + 1], observed=True)
        self.covered_through = row

    def _check_origin(self, origin: int) -> None:
        trim = self.model.trim
        if origin - trim + 1 < self.start:
            raise ForecastError(
                f"origin {origin} leaves less than {trim} rows of covered history"
            )
        if origin >= self.panel.n:
            raise ForecastError("origin beyond the panel")

    def _window(self, origins, horizon: int, n_paths: int):
        """A ring state (variables, trim + 1, d, n_paths) holding, for every
        path, the ``trim`` rows up to its origin in its first rows, the
        (2, horizon, d, n_paths) W and P arrays the run fills, and the future
        timestamps (origins, horizon). ``origins`` is one origin for all
        paths or one origin per path."""
        if horizon < 1:
            raise ForecastError(f"horizon must be >= 1, got {horizon}")
        if n_paths < 1:
            raise ForecastError(f"n_paths must be >= 1, got {n_paths}")
        origins = np.atleast_1d(origins)
        for origin in origins:
            self._check_origin(int(origin))
        self.ensure_state(int(origins.max()))
        trim = self.model.trim
        state = np.zeros((len(VARS), trim + 1, self.panel.d, n_paths))
        rows = origins + np.arange(1 - trim, 1)[:, None]  # (trim, origins)
        state[:, :trim] = self.state[..., 0][:, rows].transpose(0, 1, 3, 2)
        ts_future = (self.panel.timestamps[origins][:, None]
                     + STEP_SECONDS * np.arange(1, horizon + 1))
        return state, np.empty((2, horizon, self.panel.d, n_paths)), ts_future

    # -- forecasts --------------------------------------------------------

    def _point_result(self, wp: np.ndarray, origin: int, path: int) -> ForecastResult:
        return ForecastResult(
            origin_index=origin,
            origin_timestamp=int(self.panel.timestamps[origin]),
            horizon=wp.shape[1],
            labels=self.panel.labels,
            speed_point=wp[0, :, :, path].copy(),
            power_point=wp[1, :, :, path].copy(),
        )

    def point(self, origin: int, horizon: int) -> ForecastResult:
        """Plug-in recursion with future shocks at zero."""
        state, wp, ts_future = self._window(origin, horizon, 1)
        self.engine.run(state, self.model.trim, ts_future, out=wp)
        return self._point_result(wp, origin, 0)

    def point_batch(self, origins, horizon: int) -> list[ForecastResult | ForecastError]:
        """``point`` at every origin, run as the paths of one engine call. An
        origin that ``point`` would reject gets that ``ForecastError`` in
        place of its result and does not stop the others."""
        origins = [int(o) for o in origins]
        results: list[ForecastResult | ForecastError | None] = [None] * len(origins)
        for k, origin in enumerate(origins):
            try:
                self._check_origin(origin)
            except ForecastError as exc:
                results[k] = exc
        good = [k for k, r in enumerate(results) if r is None]
        if good:
            state, wp, ts = self._window([origins[k] for k in good], horizon, len(good))
            self.engine.run(state, self.model.trim, ts, out=wp)
            for path, k in enumerate(good):
                results[k] = self._point_result(wp, origins[k], path)
        return results

    def bootstrap(self, origin: int, horizon: int, n_paths: int = 1000,
                  seed: int = 0) -> ForecastResult:
        """Joint sample paths from resampled standardized residual rows."""
        model = self.model
        check_seed(seed)
        state, wp, ts_future = self._window(origin, horizon, n_paths)
        pool_m = model.pools["E"].shape[0]
        if pool_m == 0:
            raise ForecastError("empty standardized residual pool")
        if n_paths < 100:
            warnings.warn(f"n_paths={n_paths} < 100: quantiles will be noisy")
        draws = _pool_draws(seed, n_paths, horizon, pool_m)
        # (d, pool) copies: one step's jointly drawn rows are a (d, paths) take
        z_pool, u_pool = (model.pools[v].T.copy() for v in ("E", "Ep"))

        def shocks(s, sv, pv):
            return (sv * z_pool.take(draws[s], axis=1),
                    pv ** 3 * u_pool.take(draws[s], axis=1))

        self.engine.run(state, model.trim, ts_future, shocks, out=wp)
        w_paths, p_paths = wp  # (horizon, d, n_paths)
        means = w_paths.mean(axis=2), p_paths.mean(axis=2)
        w_paths.sort(axis=2)  # in place: the paths are not needed any more
        p_paths.sort(axis=2)
        idx = np.ceil(PERCENTILES / 100.0 * n_paths).astype(int) - 1
        return ForecastResult(
            origin_index=origin,
            origin_timestamp=int(self.panel.timestamps[origin]),
            horizon=horizon,
            labels=self.panel.labels,
            speed_point=means[0],
            power_point=means[1],
            speed_quantiles=w_paths[:, :, idx],
            power_quantiles=p_paths[:, :, idx],
            n_paths=n_paths,
            seed=seed,
        )


def point_forecast(model: FittedJointModel, panel: TurbinePanel, origin: int,
                   horizon: int = 288) -> ForecastResult:
    return Forecaster(model, panel).point(origin, horizon)


def bootstrap_forecast(model: FittedJointModel, panel: TurbinePanel, origin: int,
                       horizon: int = 288, n_paths: int = 1000,
                       seed: int = 0) -> ForecastResult:
    return Forecaster(model, panel).bootstrap(origin, horizon, n_paths, seed)


# ---------------------------------------------------------------------------
# synthetic generation from known coefficients


class _SyntheticModel:
    """Minimal stand-in carrying what _Engine needs for a true-model run."""

    def __init__(self, labels, diurnal, annual, anchor_epoch, terms):
        self.labels = tuple(labels)
        self.diurnal = diurnal
        self.annual = annual
        self.anchor_epoch = anchor_epoch
        self.terms = terms
        self.d = len(self.labels)
        self.floors = {v: np.zeros(self.d) for v in VARS[_SV:]}


def simulate_synthetic(config, true_coefficients: dict, n: int, seed: int,
                       labels=("T1", "T2"), start_epoch: int = 1288569600,
                       burn_in: int = 1000) -> TurbinePanel:
    """Simulate the joint recursions forward from flat initial conditions
    with Gaussian standardized innovations, discarding ``burn_in`` steps.

    ``true_coefficients`` maps (equation, turbine) to Term lists; the
    volatility terms drive the true conditional scales directly. ``config``
    supplies the basis specs used for any time-varying coefficients. A run
    whose speed or power leaves +-1e9 or is not finite raises, naming the
    first such step.
    """
    if n < 1 or burn_in < 0 or not labels:
        raise ForecastError(f"need n >= 1, burn_in >= 0 and a turbine label, got n={n}, "
                            f"burn_in={burn_in}, labels={tuple(labels)}")
    seed = check_seed(seed)
    d = len(labels)
    anchor = CalendarIndex.from_timestamps([start_epoch]).anchor_epoch
    model = _SyntheticModel(labels, config.diurnal, config.annual, anchor,
                            true_coefficients)
    engine = _Engine(model)
    total = burn_in + n
    lead = 160  # flat pre-history so max-lag reads stay in bounds
    ts = start_epoch + STEP_SECONDS * (np.arange(total + lead) - burn_in - lead)
    T = total + lead
    state = np.zeros((len(VARS), T, d, 1))
    state[_SV:] = 1.0
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = rng.standard_normal((T, d))[lead:, :, None]
    u = rng.standard_normal((T, d))[lead:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        engine.run(state, lead, ts[lead:], lambda s, sv, pv: (sv * z[s], pv ** 3 * u[s]))
    bad = ~(np.abs(state[_W:_P + 1, lead:]) <= 1e9).all(axis=(0, 2, 3))
    if bad.any():
        raise ForecastError(f"unstable recursion at step {int(bad.argmax())}")
    keep = slice(T - n, T)
    return TurbinePanel(
        timestamps=ts[keep],
        speed=state[_W, keep, :, 0].copy(),
        power=state[_P, keep, :, 0].copy(),
        labels=labels,
        speed_mask=np.zeros((n, d), dtype=bool),
        power_mask=np.zeros((n, d), dtype=bool),
    )
