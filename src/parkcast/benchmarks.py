"""Reference forecasters: persistence, Yule-Walker AR/BVAR/VAR, ARMA(1,1)
by conditional Gaussian likelihood, and the dynamic-regression power curve
models (plain least squares and its two-sided censored generalization).

A Yule-Walker fit builds one block-Toeplitz system and one lag matrix at the
largest order, and every smaller order reads its own from their leading
blocks. An iterated AR/BVAR/VAR forecast is linear in the last ``order``
centred rows: a forecast builds that map once and applies it to the rows
gathered at every origin in one product.

The ARMA(1,1) model needs NumPy alone. For a fixed MA coefficient theta
the innovations are linear in the AR coefficient and the intercept, so the
conditional sum of squares is profiled over both in closed form (variable
projection), from lag sums of the series that one FFT pair gives; the fit
searches theta alone, on a grid, then by golden sections and a closing
parabola. The exact innovations and the mean come from the filter
1 / (1 + theta B) as a blocked scan (``_recurse``), which a forecast runs
once, up to the last origin. The censored power curve is fitted by Newton's
method in (beta/sigma, 1/sigma), where its log-likelihood is concave, on a
normal CDF from ``math.erf``/``math.erfc``.

The power-curve models regress power at t+k, one fit per (turbine, k), on 9
regressors: an intercept, power at t and t-1, wind speed at t+k and its
square, and four diurnal Fourier terms of the time of day at t+k. The speed
at t+k is the observed speed at t carried forward (persistence). The
adapter builds each turbine's horizon-free regressors once, and every
horizon's fit reads their leading rows and the Fourier terms of the 144
slots of the day. A forecast builds one (origins x horizons, 9) matrix per
turbine and takes every (origin, horizon) pair in one contraction.

Every benchmark registers under a string id and exposes the same adapter
surface as the joint model for the backtest harness: ``fit(panel, end_row)``
then ``forecast_power(panel, origins, horizons)``, a list with each origin's
(len(horizons), d) power forecasts or the ``BenchmarkError`` it raised.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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
    centred: R[s] is the top m rows of the companion matrix C to the power
    s + 1. By doubling: R[s + j] = R[s] @ C^j for the filled rows s < j."""
    p, m = fit.order, fit.mean.size
    fmap = np.zeros((horizon, m, p * m))
    if p:
        power = _companion(fit.coefs)
        fmap[0], j = power[:m], 1
        while j < horizon:
            n = min(j, horizon - j)
            fmap[j : j + n] = (fmap[:n].reshape(n * m, p * m) @ power).reshape(n, m, p * m)
            power, j = power @ power, 2 * j
    return fmap


def var_forecast(fit: VarFit, series: np.ndarray, origins, horizon: int) -> np.ndarray:
    """Iterated forecasts from each origin row of ``series`` (n, m):
    (len(origins), horizon, m), the fit's forecast map applied to the
    ``order`` centred rows up to each origin, plus the mean. An origin with
    fewer than ``order`` rows up to it raises ``BenchmarkError``."""
    x, origins = np.asarray(series, dtype=float), np.asarray(origins, dtype=int)
    if (short := origins[origins + 1 < fit.order]).size:  # a negative row would wrap
        raise BenchmarkError(f"need {fit.order} rows of history, got {short[0] + 1}")
    m, k = fit.mean.size, fit.order * fit.mean.size
    state = x[origins[:, None] - np.arange(fit.order)] - fit.mean  # (origins, order, m)
    fmap = _forecast_map(fit, horizon).reshape(horizon * m, k)
    out = state.reshape(origins.size, k) @ fmap.T + np.tile(fit.mean, horizon)
    return out.reshape(origins.size, horizon, m)


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
    evaluations: int = 0  # profile sums of squares computed by the search


# block length of the blocked scan in ``_recurse``
_SCAN = 16
_SCAN_LAG = np.subtract.outer(np.arange(_SCAN), np.arange(_SCAN))


def _recurse(x, c: float) -> np.ndarray:
    """The first-order recursion y_t = x_t - c y_{t-1} from y_{-1} = 0 (the
    filter 1 / (1 + cB)) along the last axis of a 1-D or stacked 2-D array.

    A blocked scan: one product with the lower-triangular matrix of
    (-c)^(i-j) runs every block of ``_SCAN`` values from a zero start; the
    same recursion over the block ends, with coefficient -(-c)^_SCAN, gives
    each block's true end, and the previous block's end decays into the next
    block as (-c)^(i+1)."""
    x = np.asarray(x, dtype=float)
    n, lead = x.shape[-1], x.shape[:-1]
    pw = np.power(-c, np.arange(_SCAN + 1.0))
    tri = np.where(_SCAN_LAG >= 0, pw[np.abs(_SCAN_LAG)], 0.0)
    if n <= _SCAN:
        return x @ tri[:n, :n].T
    nb = -(-n // _SCAN)
    y = np.zeros(lead + (nb * _SCAN,))
    y[..., :n] = x
    y = (y.reshape(-1, _SCAN) @ tri.T).reshape(lead + (nb, _SCAN))
    ends = _recurse(y[..., -1], -pw[_SCAN])
    y[..., 1:, :] += ends[..., :-1, None] * pw[1:]
    return y.reshape(lead + (nb * _SCAN,))[..., :n]


def _arma11_profiled(y: np.ndarray, phi: float, theta: float):
    """Exact profile of the mean for fixed (phi, theta) with zero-initialized
    innovations; returns (mu, sse, e), e the innovations at t = 1..n-1."""
    a, b = _recurse(np.stack([y[1:] - phi * y[:-1], np.full(y.size - 1, 1.0 - phi)]), theta)
    denom = float(np.dot(b, b))
    mu = float(np.dot(a, b) / denom) if denom > 0 else float(y.mean())
    e = a - mu * b
    return mu, float(np.dot(e, e)), e


_ARMA_BOUND = 0.999
# the first pass of the MA search, evenly spaced in artanh(ma): the profile's
# valleys narrow towards the bounds, and so do the cells
_ARMA_GRID = np.tanh(np.linspace(-1.0, 1.0, 21) * np.arctanh(_ARMA_BOUND))
_ARMA_TOL = 1e-5  # the golden-section bracket width and the closing parabola's half-width


def _arma11_lags(x: np.ndarray) -> np.ndarray:
    """The statistics of ``_arma11_css`` for the series x (mean removed): with
    u = (x[1:], x[:-1], 1), rows 0-5 hold s(k) = sum_t u_p,t u_q,t+k +
    u_q,t u_p,t+k for the pairs p <= q at lags k = 0..n-1 (one term at k = 0,
    0 at k = n-1), from one FFT correlation; rows 6-8 hold 0, then u
    reversed in time."""
    n1 = x.size - 1
    u = np.stack([x[1:], x[:-1], np.ones(n1)])
    m = 1 << (2 * n1).bit_length()  # >= 2 n - 1: no lag wraps around
    f = np.fft.rfft(u, m)
    g = f.conj()
    r = np.fft.irfft(np.stack([g[0] * f[0], g[0] * f[1], g[0] * f[2],
                               g[1] * f[1], g[1] * f[2], g[2] * f[2]]), m)
    out = np.zeros((9, n1 + 1))
    out[:6, :n1] = r[:, :n1]  # r[., k] = sum_t u_p,t u_q,t+k, at k mod m
    out[:6, 1:n1] += r[:, : m - n1 : -1]
    out[6:, 1:] = u[:, ::-1]
    return out


def _arma11_css(lags: np.ndarray, theta: float):
    """The conditional sum of squares at MA coefficient ``theta``, profiled
    over the AR coefficient and the intercept; returns (css, ar).

    The innovations e = F(u_0 - phi u_1 - c u_2), F = 1 / (1 + theta B) from
    a zero start, are linear in (phi, c): e'e = w' Q w, w = (1, -phi, -c).
    With a = -theta and N = n - 1, (F'F)_ij = (a^|i-j| - a^(2N-i-j)) /
    (1 - a^2), so Q = (sum_k a^k s(k) - v v') / (1 - a^2), v_p = sum_t
    u_p,t a^(N-t): one product of ``_arma11_lags`` with the powers of a down
    to eps^2. (phi, c) solves the 2 x 2 least squares; a clipped phi has c
    re-solved."""
    a = -theta
    k = min(lags.shape[1], 2 + int(72.1 / -np.log(max(abs(a), 1e-32))))
    pw = np.full(k, a)
    pw[0] = 1.0
    s00, s01, s02, s11, s12, s22, v0, v1, v2 = (lags[:, :k] @ np.cumprod(pw, out=pw)).tolist()
    q01, q02, q12 = s01 - v0 * v1, s02 - v0 * v2, s12 - v1 * v2
    q11, q22 = s11 - v1 * v1, s22 - v2 * v2
    det = q11 * q22 - q12 * q12
    phi = min(max((q01 * q22 - q02 * q12) / det if det > 0 else 0.0, -_ARMA_BOUND),
              _ARMA_BOUND)
    c = (q02 - phi * q12) / q22
    css = s00 - v0 * v0 - 2 * (phi * q01 + c * q02 - phi * c * q12) + phi * phi * q11 + c * c * q22
    return css / (1.0 - a * a), phi


def _golden(f, a: float, b: float):
    """Golden-section search for a minimum of f on [a, b], down to a bracket
    of width _ARMA_TOL; returns (f(x), x)."""
    g = 0.5 * (5.0 ** 0.5 - 1.0)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _ARMA_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return min((fc, c), (fd, d))


def fit_arma11_mle(series) -> Arma11Fit:
    """Maximize the conditional Gaussian likelihood over (ar, ma) in
    [-0.999, 0.999]^2; mean and innovation variance are profiled out exactly.
    That is the least conditional sum of squares in (ar, ma, mean). For a
    fixed ma, ``_arma11_css`` profiles out ar and the intercept (variable
    projection), so the search is over ma alone: the profile on
    ``_ARMA_GRID``, a golden-section search in the cells around each of its
    local minima, the lowest point found (a bound can be it), and the vertex
    of the parabola through its neighbours at +-_ARMA_TOL, which places the
    minimum below the profile's rounding."""
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 100:
        raise BenchmarkError(f"need at least 100 observations, got {n}")
    if np.std(y) == 0.0:
        raise BenchmarkError("constant series")
    x = y - y.mean()
    lags = _arma11_lags(x)
    calls = []

    def css(t):
        calls.append(t)
        return _arma11_css(lags, t)[0]

    grid = np.array([css(t) for t in _ARMA_GRID])
    theta = 0.0  # taken when the sum of squares is at rounding level: then every ma fits
    if grid.min() > n * np.finfo(float).eps * float(x @ x):
        edge = np.r_[np.inf, grid, np.inf]
        tries = list(zip(grid, _ARMA_GRID))
        for i in np.flatnonzero((grid <= edge[:-2]) & (grid <= edge[2:])):
            tries.append(_golden(css, _ARMA_GRID[max(i - 1, 0)],
                                 _ARMA_GRID[min(i + 1, grid.size - 1)]))
        best, theta = min(tries)
        if abs(theta) + _ARMA_TOL <= _ARMA_BOUND:
            lo, hi = css(theta - _ARMA_TOL), css(theta + _ARMA_TOL)
            if abs(lo - hi) < 2.0 * (lo + hi - 2.0 * best):  # the vertex is inside
                theta += 0.5 * _ARMA_TOL * (lo - hi) / (lo + hi - 2.0 * best)
    theta = float(theta)
    phi = _arma11_css(lags, theta)[1]
    mu, sse, _ = _arma11_profiled(y, phi, theta)
    boundary = max(abs(phi), abs(theta)) > 0.995
    if boundary:
        warnings.warn("ARMA(1,1) estimate at the stationarity boundary")
    return Arma11Fit("arma11", phi, theta, mu, sse / (n - 1), boundary, len(calls))


def arma11_forecast(fit: Arma11Fit, series, origins, horizon: int) -> np.ndarray:
    """Forecasts from each origin row of ``series``: (len(origins), horizon).
    The innovations, zero at the first row, are filtered once up to the last
    origin."""
    y, origins = np.asarray(series, dtype=float), np.asarray(origins, dtype=int)
    last = int(origins.max(initial=0))
    u = (y[1 : last + 1] - fit.mean) - fit.ar * (y[:last] - fit.mean)
    e = np.concatenate([[0.0], _recurse(u, fit.ma)])[origins]
    one = fit.mean + fit.ar * (y[origins] - fit.mean) + fit.ma * e
    return fit.mean + np.multiply.outer(one - fit.mean, fit.ar ** np.arange(horizon))


# ---------------------------------------------------------------------------
# dynamic power-curve regressions


def persistence_forecast(panel: TurbinePanel, origins, horizon: int) -> np.ndarray:
    """Each origin's power carried to every horizon: (len(origins), horizon, d)."""
    return np.repeat(panel.power[np.asarray(origins, dtype=int), None], horizon, axis=1)


def _fourier(day_index) -> np.ndarray:
    """The four diurnal Fourier regressors of the power-curve models; the
    time-of-day argument is in 10-minute units (period 144)."""
    ang = 2.0 * np.pi * np.asarray(day_index, dtype=float) / 144.0
    return np.column_stack([np.cos(ang), np.cos(2 * ang), np.sin(ang), np.sin(2 * ang)])


# the Fourier regressors at each 10-minute slot of the day
_FOURIER = _fourier(np.arange(144))


def _wppt_regressors(panel: TurbinePanel, rows: np.ndarray, turbine: int):
    """The horizon-free part of the regressors at origins ``rows``: the first
    five columns (intercept, power at t and t-1, the speed at t, carried
    forward to t+k, and its square) and the 10-minute slot of the day at t.
    An origin without a row before it raises ``BenchmarkError``."""
    if rows.size and rows.min() < 1:  # P[rows - 1] would wrap to the last row
        raise BenchmarkError(f"need 2 rows of history, got {rows.min() + 1}")
    P = panel.power[:, turbine]
    w = panel.speed[rows, turbine]
    cols = np.column_stack([np.ones(rows.size), P[rows], P[rows - 1], w, w * w])
    return cols, (panel.timestamps[rows] % 86400) // STEP_SECONDS


def _wppt_matrix(panel: TurbinePanel, rows: np.ndarray, turbine: int, k) -> np.ndarray:
    """The 9 regressors at origins ``rows`` for horizon k (a scalar, or one
    horizon per row): the horizon-free columns and the diurnal Fourier terms
    of the 10-minute slot at t+k."""
    cols, slot = _wppt_regressors(panel, rows, turbine)
    return np.column_stack([cols, _FOURIER[(slot + k) % 144]])


def _wppt_data(panel: TurbinePanel, turbine: int, k: int, end_row: int | None, base=None):
    """Regressors and horizon-k targets at every usable origin before end_row.
    ``base``, the turbine's ``_wppt_regressors`` at origins 1, 2, ... (at
    least end_row - k - 1 of them), saves building them for each horizon."""
    end = panel.n if end_row is None else end_row
    m = end - k - 1
    if m < 20:
        raise BenchmarkError("too few rows to fit")
    cols, slot = _wppt_regressors(panel, np.arange(1, end - k), turbine) if base is None else base
    X = np.column_stack([cols[:m], _FOURIER[(slot[:m] + k) % 144]])
    return X, panel.power[1 + k : end, turbine]


@dataclass
class WpptFit:
    kind: str
    turbine: int
    horizon: int
    coefs: np.ndarray  # 9 values


def fit_wppt(panel: TurbinePanel, turbine: int, k: int,
             end_row: int | None = None, base=None) -> WpptFit:
    """Per-horizon direct least squares on the 9-regressor power-curve model
    (``base`` as in ``_wppt_data``)."""
    X, y = _wppt_data(panel, turbine, k, end_row, base)
    coefs, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise BenchmarkError(f"rank-deficient regressor matrix (rank {rank})")
    return WpptFit("wppt", turbine, k, coefs)


def wppt_forecast(fit: WpptFit, panel: TurbinePanel, origins) -> np.ndarray:
    """The fit's horizon forecast from each origin: (len(origins),)."""
    return _wppt_matrix(panel, np.asarray(origins), fit.turbine, fit.horizon) @ fit.coefs


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


_erf, _erfc = np.frompyfunc(math.erf, 1, 1), np.frompyfunc(math.erfc, 1, 1)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# (-1)^i (2i - 1)!!, i = 11..0: the Mills ratio's asymptotic series in 1/a^2,
# whose terms fall below 1e-17 by the tenth at a <= -20
_MILLS = np.cumprod([1.0] + [1.0 - 2.0 * i for i in range(1, 12)])[::-1]
# Newton's cap, and the decrement per row under which a last full step ends it
_NEWTON_ITER, _NEWTON_TOL = 50, 1e-10


def ndtr(a) -> np.ndarray:
    """The standard normal CDF, by cephes' branches: erf near zero, and erfc
    of |x| in the tails, where 1 + erf(x) would cancel."""
    x = np.asarray(a, dtype=float) * math.sqrt(0.5)
    out, near = np.empty_like(x), np.abs(x) < math.sqrt(0.5)
    out[near] = 0.5 + 0.5 * _erf(x[near]).astype(float)
    tail = 0.5 * _erfc(np.abs(x[~near])).astype(float)
    out[~near] = np.where(x[~near] > 0.0, 1.0 - tail, tail)
    return out


def log_ndtr(a) -> np.ndarray:
    """log Phi(a), by cephes' branches: log1p(-Phi(-a)) above zero, log Phi(a)
    down to -20, and the Mills ratio's asymptotic series below."""
    a = np.asarray(a, dtype=float)
    out, up, low = np.empty_like(a), a > 0.0, a <= -20.0
    mid, t = ~(up | low), a[low]
    out[up], out[mid] = np.log1p(-ndtr(-a[up])), np.log(ndtr(a[mid]))
    out[low] = np.log(np.polyval(_MILLS, 1.0 / (t * t)) / -t) - 0.5 * t * t - _LOG_SQRT_2PI
    return out


def fit_gwppt(panel: TurbinePanel, turbine: int, k: int, lower: float = 0.0,
              upper: float = 1500.0, end_row: int | None = None, base=None) -> GwpptFit:
    """Two-sided censored (Tobit) maximum likelihood on the power-curve
    regressor set: observations at or outside the power range are treated as
    censored at the range bounds (``base`` as in ``_wppt_data``). Newton climbs
    from the clipped least-squares fit in Olsen's theta = (beta/sigma, 1/sigma),
    where the log-likelihood is concave, backtracking on it."""
    if not lower < upper:
        raise ValueError("need lower < upper")
    X, y = _wppt_data(panel, turbine, k, end_row, base)
    if not np.isfinite(y).all():  # a NaN likelihood would stall the line search
        raise BenchmarkError("non-finite power among the targets")
    clipped = np.clip(y, lower, upper)
    beta0, *_ = np.linalg.lstsq(X, clipped, rcond=None)
    resid, inside = clipped - X @ beta0, (y > lower) & (y < upper)
    if inside.all():  # no censoring: least squares is the maximum, with sigma^2 = RSS / m
        sigma = math.sqrt(resid @ resid / y.size)
        return GwpptFit("gwppt", turbine, k, beta0, sigma, lower, upper)
    theta = np.append(beta0, 1.0) / max(float(resid.std()), 1e-3)
    # rows [x, -y] inside the range and +-[x, -bound] at a bound, so that
    # Zc @ theta is the argument of a censored observation's normal CDF
    Z = np.column_stack([X, -clipped]) * np.where(y <= lower, -1.0, 1.0)[:, None]
    Zm, Zc, n = Z[inside], Z[~inside], int(inside.sum())

    def tobit(theta):  # the log-likelihood less its constant, gradient, negated Hessian
        a, r = Zc @ theta, Zm @ theta
        log_cdf = log_ndtr(a)
        mills = np.exp(-0.5 * a * a - _LOG_SQRT_2PI - log_cdf)  # phi(a) / Phi(a)
        grad = Zc.T @ mills - Zm.T @ r
        neg_hess = Zm.T @ Zm + (Zc.T * (mills * (a + mills))) @ Zc
        grad[-1] += n / theta[-1]
        neg_hess[-1, -1] += n / theta[-1] ** 2
        return n * math.log(theta[-1]) - 0.5 * (r @ r) + log_cdf.sum(), grad, neg_hess

    ll, grad, neg_hess = tobit(theta)
    for _ in range(_NEWTON_ITER):
        step = np.linalg.solve(neg_hess, grad)
        if (decrement := grad @ step) <= _NEWTON_TOL * y.size:
            theta = theta + step
            break
        t = 1.0  # halved until 1/sigma stays positive and l gains a quarter of t * decrement
        while not (theta[-1] + t * step[-1] > 0.0
                   and (new := tobit(theta + t * step))[0] >= ll + 0.25 * t * decrement):
            t *= 0.5
        theta, (ll, grad, neg_hess) = theta + t * step, new
    else:
        warnings.warn("censored likelihood did not converge")
    return GwpptFit("gwppt", turbine, k, theta[:-1] / theta[-1], float(1.0 / theta[-1]),
                    lower, upper, bool(decrement <= _NEWTON_TOL * y.size))


def censored_mean(latent, sigma, lower: float, upper: float):
    """Mean of the censored-normal variable clip(X, lower, upper) with
    X ~ N(latent, sigma^2); this is the forecast rule (the lower-bound mass
    term is included so the identity is exact for lower != 0). Elementwise
    over ``latent`` and ``sigma``; where sigma <= 0 it is the clipped latent.
    Scalar arguments give a float."""
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


def gwppt_forecast(fit: GwpptFit, panel: TurbinePanel, origins) -> np.ndarray:
    """The censored-normal mean of the fit's latent forecast from each origin."""
    return censored_mean(wppt_forecast(fit, panel, origins), fit.sigma,
                         fit.lower, fit.upper)


# ---------------------------------------------------------------------------
# backtest adapters


def _power_paths(fits, series, origins, horizons, cols) -> list:
    """Forecast each series with its fit from every origin and read the power
    columns ``cols`` at ``horizons``: per origin a (len(horizons), d) array,
    or, where the origin has fewer rows than some fit's order, the
    ``BenchmarkError`` of the first such fit."""
    origins, steps = np.asarray(origins, dtype=int), np.asarray(horizons) - 1
    horizon, ok = int(steps.max()) + 1, origins + 1 >= max(f.order for f in fits)
    paths = iter(np.concatenate([
        var_forecast(f, x, origins[ok], horizon).take(steps, axis=1)[..., cols]
        for f, x in zip(fits, series)], axis=2))
    return [next(paths) if good else BenchmarkError(
        f"need {next(f.order for f in fits if f.order > o + 1)} rows of history, got {o + 1}")
        for o, good in zip(origins.tolist(), ok.tolist())]


class PersistenceModel:
    id = "persistence"

    def fit(self, panel, end_row):
        return self

    def forecast_power(self, panel, origins, horizons):
        return list(persistence_forecast(panel, origins, len(horizons)))


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

    def forecast_power(self, panel, origins, horizons):
        series = [panel.power[:, i : i + 1] for i in range(panel.d)]
        return _power_paths(self.fits, series, origins, horizons, slice(0, 1))


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

    def forecast_power(self, panel, origins, horizons):
        series = [np.column_stack([panel.speed[:, i], panel.power[:, i]])
                  for i in range(panel.d)]
        return _power_paths(self.fits, series, origins, horizons, slice(1, 2))


class VarModel:
    id = "var"

    def __init__(self, max_order: int = 10):
        self.max_order = max_order
        self.fit_: VarFit | None = None

    def fit(self, panel, end_row):
        joint = np.hstack([panel.speed[:end_row], panel.power[:end_row]])
        self.fit_ = fit_ar_yule_walker(joint, self.max_order)
        return self

    def forecast_power(self, panel, origins, horizons):
        joint = np.hstack([panel.speed, panel.power])
        return _power_paths([self.fit_], [joint], origins, horizons, slice(panel.d, None))


class Arma11Model:
    id = "arma11"

    def __init__(self):
        self.fits: list[Arma11Fit] = []

    def fit(self, panel, end_row):
        self.fits = [fit_arma11_mle(panel.power[:end_row, i]) for i in range(panel.d)]
        return self

    def forecast_power(self, panel, origins, horizons):
        steps = np.asarray(horizons) - 1
        return list(np.stack([
            arma11_forecast(f, panel.power[:, i], origins, int(steps.max()) + 1)[:, steps]
            for i, f in enumerate(self.fits)], axis=2))


class WpptModel:
    """Least-squares power curve per (turbine, horizon), each fitted on the
    in-sample rows the first time a forecast asks for it. Each turbine's
    horizon-free regressors are built once, at every in-sample origin, and
    every horizon's fit reads its leading rows."""

    id = "wppt"

    def __init__(self):
        self.end_row = None
        self._cache: dict[tuple[int, int], WpptFit] = {}
        self._bases: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def fit(self, panel, end_row):
        self.end_row = end_row
        self._cache.clear()
        self._bases.clear()
        return self

    def _base(self, panel, turbine):
        if turbine not in self._bases:
            end = panel.n if self.end_row is None else self.end_row
            self._bases[turbine] = _wppt_regressors(panel, np.arange(1, end - 1), turbine)
        return self._bases[turbine]

    def _fit_one(self, panel, turbine, k):
        return fit_wppt(panel, turbine, k, self.end_row, self._base(panel, turbine))

    def _predict(self, latent, fits):
        return latent

    def forecast_power(self, panel, origins, horizons):
        origins, ks = np.asarray(origins, dtype=int), np.asarray(horizons, dtype=int)
        ok = origins >= 1  # the regressors read the power at t - 1
        rows, hs = np.repeat(origins[ok], ks.size), np.tile(ks, int(ok.sum()))
        out = np.empty((int(ok.sum()), ks.size, panel.d))
        for i in range(panel.d):
            for k in ks.tolist():
                if (i, k) not in self._cache:
                    self._cache[i, k] = self._fit_one(panel, i, k)
            fits = [self._cache[i, k] for k in ks.tolist()]
            X = _wppt_matrix(panel, rows, i, hs).reshape(out.shape[0], ks.size, -1)
            latent = np.einsum("ohj,hj->oh", X, np.array([f.coefs for f in fits]))
            out[:, :, i] = self._predict(latent, fits)
        paths = iter(out)
        return [next(paths) if good else BenchmarkError(f"need 2 rows of history, got {o + 1}")
                for o, good in zip(origins.tolist(), ok.tolist())]


class GwpptModel(WpptModel):
    """The censored power curve: a Tobit fit per (turbine, horizon), and the
    censored-normal mean as the forecast."""

    id = "gwppt"

    def __init__(self, lower: float = 0.0, upper: float = 1500.0):
        super().__init__()
        self.lower, self.upper = lower, upper

    def _fit_one(self, panel, turbine, k):
        return fit_gwppt(panel, turbine, k, self.lower, self.upper, self.end_row,
                         self._base(panel, turbine))

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
