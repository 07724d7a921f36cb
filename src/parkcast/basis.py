"""Periodic B-spline bases for seasonally varying coefficients.

Builds three kinds of regressor bases on a 10-minute grid:

* plain periodic B-splines wrapping at a season length (diurnal or annual),
* their running sums ("cumulative" columns, modelling parameter changes
  rather than absolute levels; the last column is constant),
* diurnal x annual interaction sets used to let coefficients drift over
  both the day and the year.

Mean equations use the cumulative interaction set; volatility equations use
the plain interaction set with its first column replaced by the constant 1.

A uniform B-spline has local support: each argument touches one of its
degree + 1 polynomial pieces (de Boor, *A Practical Guide to Splines*). So
each column is evaluated at its own reduced argument by Horner's rule on that
piece, from a table of the pieces' coefficients (integers over degree!);
``bspline_eval`` keeps the de Boor recurrence for arbitrary knots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

DIURNAL_STEPS = 144.0  # one day at 10-minute resolution
ANNUAL_STEPS = 52594.56  # 365.24 days at 10-minute resolution


@dataclass(frozen=True)
class BSplineSpec:
    """Uniform periodic B-spline basis: odd degree, season length S, N shifts.

    Knot spacing is ``S / n_basis`` and may be non-integer (the annual
    season is 52594.56 steps). ``strict_partition`` additionally requires
    a knot spacing of at least ``degree + 1`` steps, which is enforced for
    the diurnal basis.
    """

    degree: int = 3
    season_length: float = DIURNAL_STEPS
    n_basis: int = 12
    strict_partition: bool = False

    def __post_init__(self) -> None:
        if self.degree < 0 or self.degree % 2 == 0:
            raise ValueError(f"degree must be odd and nonnegative, got {self.degree}")
        if self.n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if not 0.0 < self.season_length < np.inf:  # NaN too
            raise ValueError("season_length must be positive and finite")
        if self.n_basis < self.degree + 1:
            # support of one shifted spline would exceed one period and the
            # two-shift wrap below would drop mass
            raise ValueError(
                f"n_basis={self.n_basis} too small for degree {self.degree}; "
                f"need n_basis >= degree + 1"
            )
        if self.strict_partition and self.knot_spacing < self.degree + 1:
            raise ValueError(
                f"knot spacing {self.knot_spacing} < degree + 1 = {self.degree + 1}"
            )

    @property
    def knot_spacing(self) -> float:
        return self.season_length / self.n_basis


@dataclass
class BasisSet:
    """Evaluated basis columns plus per-column bookkeeping.

    ``values`` is (n, N). For interaction sets ``pairs[c]`` is the
    (annual index, diurnal index) of column c, both 1-based;
    ``constant_column`` is the index of the exactly-constant column.
    """

    kind: str  # "plain" or "cumulative"
    values: np.ndarray
    pairs: list[tuple[int, int]] | None = None
    constant_column: int = -1
    columns: int = field(init=False)

    def __post_init__(self) -> None:
        self.columns = self.values.shape[1]


def bspline_eval(t, knots, degree: int):
    """Evaluate the B-spline defined by ``knots`` (degree + 2 ascending reals)
    via the de Boor recurrence. Vectorized over ``t``; zero outside the
    half-open support ``[knots[0], knots[-1])``.
    """
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size != degree + 2:
        raise ValueError(f"need {degree + 2} knots for degree {degree}")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly ascending")
    t = np.asarray(t, dtype=float)
    # bottom-up: b[i] is the degree-k spline on knots[i : i + k + 2]
    b = [np.where((t >= lo) & (t < hi), 1.0, 0.0) for lo, hi in zip(knots, knots[1:])]
    for k in range(1, degree + 1):
        b = [(t - knots[i]) / (knots[i + k] - knots[i]) * b[i]
             + (knots[i + k + 1] - t) / (knots[i + k + 1] - knots[i + 1]) * b[i + 1]
             for i in range(degree + 1 - k)]
    return b[0]


def _pieces(degree: int) -> np.ndarray:
    """Horner coefficients of the uniform B-spline's degree + 1 polynomial
    pieces in the local coordinate r in [0, 1), with a zero piece either side:
    row m holds the coefficient of r^(degree - m) of pieces -1 .. degree + 1.
    Piece k of the cardinal spline is sum_{i <= k} (-1)^i C(degree + 1, i)
    (r + k - i)^degree / degree!, summed exactly in integers."""
    d = degree
    return np.array([[0] * (d + 1)] + [
        [sum((-1) ** i * comb(d + 1, i) * comb(d, m) * (k - i) ** (d - m) for i in range(k + 1))
         for m in range(d, -1, -1)] for k in range(d + 1)] + [[0] * (d + 1)]).T / factorial(d)


def _periodic(u: np.ndarray, spec: BSplineSpec) -> np.ndarray:
    """The base spline wrapped at the season length S, at reduced arguments u
    in [0, S): its local piece at u or at u - S, whichever is nearer 0 (the
    support is at most one season wide, so the other contributes nothing).
    Elementwise, so any layout of ``u`` gives the same bits."""
    d, s = spec.degree, spec.season_length
    x = np.where(u < 0.5 * s, u, u - s) / spec.knot_spacing + 0.5 * (d + 1)  # from the support's start
    k = np.floor(x)
    r, piece, coef = x - k, np.clip(k, -1, d + 1).astype(np.intp) + 1, _pieces(d)
    out = coef[0].take(piece)
    for m in range(1, d + 1):
        out *= r
        out += coef[m].take(piece)
    return out


def periodic_basis(t, spec: BSplineSpec, j: int):
    """j-th periodic basis function (1-based), wrapping at the season length:
    the base spline shifted by (j - 1) knot spacings, evaluated at each
    argument reduced to u = mod(t - (j - 1) h, S)."""
    if not 1 <= j <= spec.n_basis:
        raise IndexError(f"basis index {j} outside 1..{spec.n_basis}")
    u = np.mod(np.asarray(t, dtype=float) - (j - 1) * spec.knot_spacing, spec.season_length)
    return _periodic(u, spec)


def periodic_basis_matrix(t, spec: BSplineSpec) -> np.ndarray:
    """All ``n_basis`` periodic basis functions at ``t``, in one pass: (n, N)."""
    shifts = np.arange(spec.n_basis) * spec.knot_spacing
    return _periodic(np.mod(np.asarray(t, dtype=float).reshape(-1, 1) - shifts,
                            spec.season_length), spec)


def cumulative_basis(t, spec: BSplineSpec) -> BasisSet:
    """Running sums of the periodic basis columns; the last column is constant."""
    return BasisSet(kind="cumulative", values=np.cumsum(periodic_basis_matrix(t, spec), axis=1),
                    constant_column=spec.n_basis - 1)


def interaction_basis(time_of_day, time_of_year, diurnal: BSplineSpec, annual: BSplineSpec,
                      kind):
    """Diurnal x annual product basis with one column per (annual, diurnal) pair.

    ``kind="cumulative"``: products of cumulative factors, last column constant.
    ``kind="plain"``: products of plain factors with the (1, 1) column replaced
    by the constant 1 so the constant impact is a column of its own.
    A tuple of kinds builds each from one evaluation of the two factors and
    returns the sets keyed by kind.
    """
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    if set(kinds) - {"plain", "cumulative"}:
        raise ValueError(f"kind must be 'plain' or 'cumulative', got {kind!r}")
    tod = np.asarray(time_of_day, dtype=float)
    toy = np.asarray(time_of_year, dtype=float)
    if tod.shape != toy.shape:
        raise ValueError("time_of_day and time_of_year must have equal length")
    # one evaluation per distinct clock slot (144 at 10-minute steps), gathered
    slots, slot_of = np.unique(tod, return_inverse=True)
    plain = periodic_basis_matrix(slots, diurnal), periodic_basis_matrix(toy, annual)
    pairs = [(l1, l2) for l1 in range(1, annual.n_basis + 1)
             for l2 in range(1, diurnal.n_basis + 1)]
    sets = {}
    for k in kinds:
        dmat, amat = (np.cumsum(f, axis=1) for f in plain) if k == "cumulative" else plain
        # F-ordered: each column is contiguous, as the design rows copy it
        values = (amat.T[:, None] * dmat.T[:, slot_of]).reshape(-1, tod.size).T
        if k == "plain":
            values[:, 0] = 1.0
        sets[k] = BasisSet(kind=k, values=values, pairs=pairs,
                           constant_column=0 if k == "plain" else len(pairs) - 1)
    return sets[kind] if isinstance(kind, str) else sets
