"""Reference forecasters: persistence, Yule-Walker AR/BVAR/VAR, ARMA(1,1)
by conditional Gaussian likelihood, and the dynamic-regression power curve
models (plain least squares and its two-sided censored generalization).

A Yule-Walker fit builds one block-Toeplitz system and one lag matrix at the
largest order, and every smaller order reads its own from their leading
blocks. An iterated AR/BVAR/VAR forecast is linear in the last ``order``
centred rows: each ``VarFit`` keeps that map, and a forecast is one product
per origin. The ARMA(1,1) fit runs L-BFGS-B on the exact gradient of the
profiled likelihood.

SciPy's ``optimize``, ``signal`` and ``special`` are imported inside the
ARMA(1,1) and censored power-curve functions that call them, so a process
that never fits or forecasts with those two models does not load them.

The power-curve models regress power at t+k, one fit per (turbine, k), on 9
regressors: an intercept, power at t and t-1, wind speed at t+k and its
square, and four diurnal Fourier terms of the time of day at t+k. The speed
at t+k is the observed speed at t carried forward (persistence). A forecast
builds one (horizons, 9) matrix per turbine and takes all horizons in one
product.

Every benchmark registers under a string id and exposes the same adapter
surface as the joint model for the backtest harness: ``fit(panel, end_row)``
then ``forecast_power(panel, origin, horizons) -> (len(horizons), d)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .panel import STEP_SECONDS, TurbinePanel


class BenchmarkError(Exception):
    pass


# ---------------------------------------------------------------------------
# Yule-Walker vector autoregressions


@dataclass
class VarFit:
    kind: str
    order: int
    coefs: np.ndarray  # (order, m, m)
    mean: np.ndarray  # (m,)
    sigma: np.ndarray  # innovation covariance
    aic: np.ndarray  # per candidate order 0..max_order
    stationary: bool = True
    # (horizon, m, order * m) forecast map for the longest horizon asked so far
    fmap: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def _autocov(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocovariance matrices of the centered series, lags 0..max_lag."""
    n, m = x.shape
    out = np.empty((max_lag + 1, m, m))
    for h in range(max_lag + 1):
        out[h] = x[h:].T @ x[: n - h] / n
    return out


def _yw_system(gam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The max-order Yule-Walker system: the block-Toeplitz matrix with block
    (r, c) = gam[r - c] (gam[c - r].T above the diagonal) and the (m, q * m)
    right-hand side [gam[1], ..., gam[q]]. Order p's are their leading p * m
    rows and columns."""
    q, m = gam.shape[0] - 1, gam.shape[1]
    blocks = np.concatenate([gam[q - 1 : 0 : -1].swapaxes(1, 2), gam[:q]])  # 1-q..q-1
    lag = np.subtract.outer(np.arange(q), np.arange(q)) + q - 1
    big = blocks[lag].swapaxes(1, 2).reshape(q * m, q * m)
    return big, gam[1:].swapaxes(0, 1).reshape(m, q * m)


def _yw_solve(big: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked (m, p * m) coefficients [A_1, ..., A_p] of one order's system."""
    try:
        sol = np.linalg.solve(big.T, rhs.T).T
    except np.linalg.LinAlgError:
        warnings.warn("singular Yule-Walker system; ridge-regularized")
        ridge = 1e-10 * np.trace(big) / big.shape[0] + 1e-300
        sol = np.linalg.solve(big.T + ridge * np.eye(big.shape[0]), rhs.T).T
    return sol


def _companion(coefs: np.ndarray) -> np.ndarray:
    """Companion matrix of the (p, m, m) lag coefficients, p >= 1: the state
    [x_t, ..., x_{t-p+1}] maps to [x_{t+1}, ..., x_{t-p+2}]."""
    p, m, _ = coefs.shape
    comp = np.eye(p * m, k=-m)
    comp[:m] = np.concatenate(list(coefs), axis=1)
    return comp


def _companion_radius(coefs: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_companion(coefs)))))


def fit_ar_yule_walker(series: np.ndarray, max_order: int = 20) -> VarFit:
    """Yule-Walker VAR fit at the AIC-minimizing order (univariate series are
    a one-column special case). The series is demeaned internally; the mean
    is re-added at forecast time. Every order 0..max_order solves the leading
    blocks of one block-Toeplitz system, and its residuals over the rows after
    max_order, whose covariance gives its AIC, are one product of its stacked
    coefficients with the leading rows of one lag matrix."""
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, m = x.shape
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if n <= 2 * max_order + m:
        raise BenchmarkError("series too short for the requested order")
    mean = x.mean(axis=0)
    xc = x - mean
    big, rhs = _yw_system(_autocov(xc, max_order))
    xt = np.ascontiguousarray(xc.T)  # lags column t: x_{t-1}, ..., x_{t-max_order}
    lags = np.vstack([xt[:, max_order - k : n - k] for k in range(1, max_order + 1)])
    n_eff = n - max_order
    sols, sigmas = [], np.empty((max_order + 1, m, m))
    for p in range(max_order + 1):
        k = p * m
        sols.append(_yw_solve(big[:k, :k], rhs[:, :k]))
        resid = xt[:, max_order:] - sols[p] @ lags[:k]
        sigmas[p] = resid @ resid.T / n_eff
    # An order whose residual covariance is numerically singular gets an AIC
    # of +inf: its smallest eigenvalue is at most n_eff * eps times its largest,
    # the rounding of the n_eff-term sums it is made of. Exactly collinear
    # series (a series and its copy) are singular at every order.
    sign, logdet = np.linalg.slogdet(sigmas)
    eig = np.linalg.eigvalsh(sigmas)
    usable = (sign > 0) & (eig[:, 0] > n_eff * np.finfo(float).eps * eig[:, -1])
    if not usable.any():
        raise BenchmarkError("residual covariance numerically singular at every order: "
                             "the series are collinear")
    aic = np.where(usable, n_eff * logdet + 2.0 * np.arange(max_order + 1) * m * m, np.inf)
    best = int(np.argmin(aic))
    coefs = sols[best].reshape(m, best, m).swapaxes(0, 1)  # (order, m, m)
    radius = _companion_radius(coefs) if best else 0.0
    stationary = radius < 1.0
    if not stationary:
        warnings.warn(f"Yule-Walker fit with companion radius {radius:.4f}")
    return VarFit(
        kind="var" if m > 1 else "ar",
        order=best,
        coefs=coefs,
        mean=mean,
        sigma=sigmas[best],
        aic=aic,
        stationary=stationary,
    )


def _forecast_map(fit: VarFit, horizon: int) -> np.ndarray:
    """R (horizon, m, p * m) with x_{t+s+1} = R[s] @ [x_t, ..., x_{t-p+1}], all
    centred: R[s] is the top m rows of the companion matrix to the power s + 1.
    Built for the longest horizon asked so far and kept on the fit."""
    fmap = fit.fmap
    if fmap is None or fmap.shape[0] < horizon:
        p, m = fit.order, fit.mean.size
        fmap = np.zeros((horizon, m, p * m))
        if p:
            comp = _companion(fit.coefs)
            row = np.eye(m, p * m)
            for s in range(horizon):
                row = fmap[s] = row @ comp
        fit.fmap = fmap
    return fmap[:horizon]


def var_forecast(fit: VarFit, history: np.ndarray, horizon: int) -> np.ndarray:
    """Iterated forecasts; ``history`` holds the most recent rows (last row =
    forecast origin). Returns (horizon, m): the fit's forecast map applied to
    the last ``order`` centred rows, plus the mean."""
    history = np.asarray(history, dtype=float)  # (n, m), or (n,) when m = 1
    if history.shape[0] < fit.order:
        raise BenchmarkError(f"need {fit.order} rows of history, got {history.shape[0]}")
    state = (history[::-1][: fit.order] - fit.mean).ravel()
    return _forecast_map(fit, horizon) @ state + fit.mean


# ---------------------------------------------------------------------------
# ARMA(1,1) by conditional Gaussian likelihood


@dataclass
class Arma11Fit:
    kind: str
    ar: float
    ma: float
    mean: float
    sigma2: float
    boundary: bool = False


def _arma11_profiled(y: np.ndarray, phi: float, theta: float):
    """Exact profile of the mean for fixed (phi, theta) with zero-initialized
    innovations; returns (mu, sse, e), e the innovations at t = 1..n-1."""
    from scipy import signal

    a, b = signal.lfilter([1.0], [1.0, theta],
                          np.stack([y[1:] - phi * y[:-1], np.full(y.size - 1, 1.0 - phi)]))
    denom = float(np.dot(b, b))
    mu = float(np.dot(a, b) / denom) if denom > 0 else float(y.mean())
    e = a - mu * b
    return mu, float(np.dot(e, e)), e


def _arma11_nll(params, y: np.ndarray):
    """Profiled negative log-likelihood (up to constants) of (phi, theta) and
    its exact gradient. The mean is profiled out, so only the direct
    derivatives of the innovations count: de/dphi and de/dtheta are
    mu - y_{t-1} and -e_{t-1} through the same 1 / (1 + theta B) filter."""
    from scipy import signal

    phi, theta = params
    mu, sse, e = _arma11_profiled(y, phi, theta)
    n1 = y.size - 1
    if sse <= 1e-300 * n1:
        return n1 * np.log(1e-300), np.zeros(2)
    de = signal.lfilter([1.0], [1.0, theta],
                        np.stack([mu - y[:-1], np.concatenate(([0.0], -e[:-1]))]))
    return n1 * np.log(sse / n1), 2.0 * n1 / sse * (de @ e)


def fit_arma11_mle(series) -> Arma11Fit:
    """Maximize the conditional Gaussian likelihood over (ar, ma) in
    (-1, 1)^2; mean and innovation variance are profiled out exactly.
    L-BFGS-B runs from three starts on the exact gradient (``_arma11_nll``);
    the best end point wins."""
    from scipy import optimize

    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 100:
        raise BenchmarkError(f"need at least 100 observations, got {n}")
    if np.std(y) == 0.0:
        raise BenchmarkError("constant series")
    best = None
    for x0 in ((0.5, 0.0), (0.9, -0.3), (0.0, 0.5)):
        res = optimize.minimize(_arma11_nll, x0, args=(y,), jac=True,
                                method="L-BFGS-B", bounds=[(-0.999, 0.999)] * 2)
        if best is None or res.fun < best.fun:
            best = res
    phi, theta = best.x
    mu, sse, _ = _arma11_profiled(y, phi, theta)
    boundary = bool(max(abs(phi), abs(theta)) > 0.995)
    if boundary:
        warnings.warn("ARMA(1,1) estimate at the stationarity boundary")
    return Arma11Fit("arma11", float(phi), float(theta), mu,
                     sse / (n - 1), boundary)


def arma11_forecast(fit: Arma11Fit, history: np.ndarray, horizon: int) -> np.ndarray:
    from scipy import signal

    y = np.asarray(history, dtype=float)
    # innovations under the fitted parameters, from a zero one at the first row
    u = (y[1:] - fit.mean) - fit.ar * (y[:-1] - fit.mean)
    e = signal.lfilter([1.0], [1.0, fit.ma], np.r_[0.0, u])
    one = fit.mean + fit.ar * (y[-1] - fit.mean) + fit.ma * e[-1]
    return fit.mean + fit.ar ** np.arange(horizon) * (one - fit.mean)


# ---------------------------------------------------------------------------
# dynamic power-curve regressions


def persistence_forecast(panel: TurbinePanel, origin: int, horizon: int) -> np.ndarray:
    """Carry the origin's power forward to every horizon: (horizon, d)."""
    return np.tile(panel.power[origin], (horizon, 1))


def _fourier(day_index) -> np.ndarray:
    """The four diurnal Fourier regressors of the power-curve models; the
    time-of-day argument is in 10-minute units (period 144)."""
    ang = 2.0 * np.pi * np.asarray(day_index, dtype=float) / 144.0
    return np.column_stack([np.cos(ang), np.cos(2 * ang), np.sin(ang), np.sin(2 * ang)])


def _wppt_matrix(panel: TurbinePanel, rows: np.ndarray, turbine: int, k) -> np.ndarray:
    """The 9 regressors at origins ``rows`` for horizon k (a scalar, or one
    horizon per row): intercept, power at t and t-1, speed at t+k (the
    observed speed at t carried forward) and its square, and the diurnal
    Fourier terms of the 10-minute slot at t+k."""
    P = panel.power[:, turbine]
    w = panel.speed[rows, turbine]
    day = ((panel.timestamps[rows] % 86400) // STEP_SECONDS + k) % 144
    return np.column_stack([np.ones(rows.size), P[rows], P[rows - 1], w, w * w,
                            _fourier(day)])


def _wppt_data(panel: TurbinePanel, turbine: int, k: int, end_row: int | None):
    """Regressors and horizon-k targets at every usable origin before end_row."""
    end = panel.n if end_row is None else end_row
    rows = np.arange(1, end - k)
    if rows.size < 20:
        raise BenchmarkError("too few rows to fit")
    return _wppt_matrix(panel, rows, turbine, k), panel.power[rows + k, turbine]


@dataclass
class WpptFit:
    kind: str
    turbine: int
    horizon: int
    coefs: np.ndarray  # 9 values


def fit_wppt(panel: TurbinePanel, turbine: int, k: int,
             end_row: int | None = None) -> WpptFit:
    """Per-horizon direct least squares on the 9-regressor power-curve model."""
    X, y = _wppt_data(panel, turbine, k, end_row)
    coefs, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise BenchmarkError(f"rank-deficient regressor matrix (rank {rank})")
    return WpptFit("wppt", turbine, k, coefs)


def wppt_forecast(fit: WpptFit, panel: TurbinePanel, origin: int) -> float:
    x = _wppt_matrix(panel, np.array([origin]), fit.turbine, fit.horizon)
    return float((x @ fit.coefs)[0])


@dataclass
class GwpptFit:
    kind: str
    turbine: int
    horizon: int
    coefs: np.ndarray
    sigma: float
    lower: float
    upper: float
    converged: bool = True


def _tobit_negloglik(params, X, y, lower, upper, is_left, is_right, is_mid):
    from scipy.special import log_ndtr

    beta, log_sigma = params[:-1], params[-1]
    sigma = np.exp(log_sigma)
    xb = X @ beta
    nll = 0.0
    grad_b = np.zeros(beta.size)
    grad_s = 0.0
    if is_mid.any():
        z = (y[is_mid] - xb[is_mid]) / sigma
        nll += float(0.5 * np.dot(z, z)) + is_mid.sum() * log_sigma
        grad_b += -(X[is_mid].T @ z) / sigma
        grad_s += float(is_mid.sum() - np.dot(z, z))
    for flag, point, sign in ((is_left, lower, 1.0), (is_right, upper, -1.0)):
        if not flag.any():
            continue
        a = sign * (point - xb[flag]) / sigma
        nll -= float(np.sum(log_ndtr(a)))
        mills = np.exp(-0.5 * a * a - 0.5 * np.log(2 * np.pi) - log_ndtr(a))
        grad_b += sign * (X[flag].T @ mills) / sigma
        grad_s += float(np.dot(mills, a))
    return nll, np.append(grad_b, grad_s)


def fit_gwppt(panel: TurbinePanel, turbine: int, k: int, lower: float = 0.0,
              upper: float = 1500.0, end_row: int | None = None) -> GwpptFit:
    """Two-sided censored (Tobit) maximum likelihood on the power-curve
    regressor set: observations at or outside the power range are treated as
    censored at the range bounds."""
    from scipy import optimize

    if not lower < upper:
        raise ValueError("need lower < upper")
    X, y = _wppt_data(panel, turbine, k, end_row)
    is_left = y <= lower
    is_right = y >= upper
    is_mid = ~(is_left | is_right)
    beta0, *_ = np.linalg.lstsq(X, np.clip(y, lower, upper), rcond=None)
    resid = np.clip(y, lower, upper) - X @ beta0
    s0 = max(float(resid.std()), 1e-3)
    x0 = np.append(beta0, np.log(s0))
    res = optimize.minimize(
        _tobit_negloglik, x0, args=(X, y, lower, upper, is_left, is_right, is_mid),
        jac=True, method="L-BFGS-B",
        bounds=[(None, None)] * beta0.size + [(np.log(1e-6 * s0), None)],
    )
    if not res.success:
        warnings.warn(f"censored likelihood did not converge: {res.message}")
    return GwpptFit("gwppt", turbine, k, res.x[:-1], float(np.exp(res.x[-1])),
                    lower, upper, bool(res.success))


def censored_mean(latent, sigma, lower: float, upper: float):
    """Mean of the censored-normal variable clip(X, lower, upper) with
    X ~ N(latent, sigma^2); this is the forecast rule (the lower-bound mass
    term is included so the identity is exact for lower != 0). Elementwise
    over ``latent`` and ``sigma``; where sigma <= 0 it is the clipped latent.
    Scalar arguments give a float."""
    from scipy.special import ndtr

    latent, sigma = np.broadcast_arrays(np.asarray(latent, dtype=float),
                                        np.asarray(sigma, dtype=float))
    spread = sigma > 0.0
    s = np.where(spread, sigma, 1.0)
    f1 = (lower - latent) / s
    f2 = (upper - latent) / s
    pdf = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
    mean = ((ndtr(f2) - ndtr(f1)) * latent + (pdf(f1) - pdf(f2)) * s
            + upper * (1.0 - ndtr(f2)) + lower * ndtr(f1))
    out = np.where(spread, mean, np.clip(latent, lower, upper))
    return float(out) if out.ndim == 0 else out


def gwppt_forecast(fit: GwpptFit, panel: TurbinePanel, origin: int) -> float:
    return censored_mean(wppt_forecast(fit, panel, origin), fit.sigma,
                         fit.lower, fit.upper)


# ---------------------------------------------------------------------------
# backtest adapters


def _window(origin: int, max_order: int) -> slice:
    """The rows a VAR forecast at ``origin`` reads: the last max(order, 1),
    or all rows up to the origin when there are fewer."""
    return slice(max(origin - max(max_order, 1) + 1, 0), origin + 1)


def _power_paths(fits, histories, horizons, col) -> np.ndarray:
    """Forecast each history with its fit and read the power column(s) ``col``
    at ``horizons``: (len(horizons), d)."""
    steps = np.asarray(horizons) - 1
    return np.column_stack([var_forecast(f, h, int(steps.max()) + 1)[steps, col]
                            for f, h in zip(fits, histories)])


class PersistenceModel:
    id = "persistence"

    def fit(self, panel, end_row):
        return self

    def forecast_power(self, panel, origin, horizons):
        return persistence_forecast(panel, origin, len(horizons))


class ArModel:
    id = "ar"

    def __init__(self, max_order: int = 20):
        self.max_order = max_order
        self.fits: list[VarFit] = []

    def fit(self, panel, end_row):
        self.fits = [
            fit_ar_yule_walker(panel.power[:end_row, i], self.max_order)
            for i in range(panel.d)
        ]
        return self

    def forecast_power(self, panel, origin, horizons):
        sl = _window(origin, self.max_order)
        hists = [panel.power[sl, i : i + 1] for i in range(panel.d)]
        return _power_paths(self.fits, hists, horizons, 0)


class BvarModel:
    id = "bvar"

    def __init__(self, max_order: int = 20):
        self.max_order = max_order
        self.fits: list[VarFit] = []

    def fit(self, panel, end_row):
        self.fits = [
            fit_ar_yule_walker(
                np.column_stack([panel.speed[:end_row, i], panel.power[:end_row, i]]),
                self.max_order,
            )
            for i in range(panel.d)
        ]
        return self

    def forecast_power(self, panel, origin, horizons):
        sl = _window(origin, self.max_order)
        hists = [np.column_stack([panel.speed[sl, i], panel.power[sl, i]])
                 for i in range(panel.d)]
        return _power_paths(self.fits, hists, horizons, 1)


class VarModel:
    id = "var"

    def __init__(self, max_order: int = 10):
        self.max_order = max_order
        self.fit_: VarFit | None = None

    def fit(self, panel, end_row):
        joint = np.hstack([panel.speed[:end_row], panel.power[:end_row]])
        self.fit_ = fit_ar_yule_walker(joint, self.max_order)
        return self

    def forecast_power(self, panel, origin, horizons):
        sl = _window(origin, self.max_order)
        hist = np.hstack([panel.speed[sl], panel.power[sl]])
        return _power_paths([self.fit_], [hist], horizons, slice(panel.d, None))


class Arma11Model:
    id = "arma11"

    def __init__(self):
        self.fits: list[Arma11Fit] = []

    def fit(self, panel, end_row):
        self.fits = [fit_arma11_mle(panel.power[:end_row, i]) for i in range(panel.d)]
        return self

    def forecast_power(self, panel, origin, horizons):
        steps = np.asarray(horizons) - 1
        back = min(origin + 1, 2000)  # innovation recursion forgets quickly
        return np.column_stack([
            arma11_forecast(f, panel.power[origin - back + 1 : origin + 1, i],
                            int(steps.max()) + 1)[steps]
            for i, f in enumerate(self.fits)])


class WpptModel:
    """Least-squares power curve per (turbine, horizon), each fitted on the
    in-sample rows the first time a forecast asks for it."""

    id = "wppt"

    def __init__(self):
        self.end_row = None
        self._cache: dict[tuple[int, int], WpptFit] = {}

    def fit(self, panel, end_row):
        self.end_row = end_row
        self._cache.clear()
        return self

    def _fit_one(self, panel, turbine, k):
        return fit_wppt(panel, turbine, k, self.end_row)

    def _predict(self, latent, fits):
        return latent

    def forecast_power(self, panel, origin, horizons):
        ks = np.asarray(horizons, dtype=int)
        out = np.empty((ks.size, panel.d))
        for i in range(panel.d):
            for k in ks.tolist():
                if (i, k) not in self._cache:
                    self._cache[i, k] = self._fit_one(panel, i, k)
            fits = [self._cache[i, k] for k in ks.tolist()]
            X = _wppt_matrix(panel, np.full(ks.size, origin), i, ks)
            latent = np.einsum("hj,hj->h", X, np.array([f.coefs for f in fits]))
            out[:, i] = self._predict(latent, fits)
        return out


class GwpptModel(WpptModel):
    """The censored power curve: a Tobit fit per (turbine, horizon), and the
    censored-normal mean as the forecast."""

    id = "gwppt"

    def __init__(self, lower: float = 0.0, upper: float = 1500.0):
        super().__init__()
        self.lower, self.upper = lower, upper

    def _fit_one(self, panel, turbine, k):
        return fit_gwppt(panel, turbine, k, self.lower, self.upper, self.end_row)

    def _predict(self, latent, fits):
        return censored_mean(latent, np.array([f.sigma for f in fits]),
                             self.lower, self.upper)


BENCHMARKS = {
    "persistence": PersistenceModel,
    "ar": ArModel,
    "bvar": BvarModel,
    "var": VarModel,
    "arma11": Arma11Model,
    "wppt": WpptModel,
    "gwppt": GwpptModel,
}


def make_benchmark(name: str, **kwargs):
    try:
        cls = BENCHMARKS[name]
    except KeyError:
        raise BenchmarkError(f"unknown benchmark {name!r}; "
                             f"known: {sorted(BENCHMARKS)}") from None
    return cls(**kwargs)
