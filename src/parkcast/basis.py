"""Periodic B-spline bases for seasonally varying coefficients.

Builds three kinds of regressor bases on a 10-minute grid:

* plain periodic B-splines wrapping at a season length (diurnal or annual),
* their running sums ("cumulative" columns, modelling parameter changes
  rather than absolute levels; the last column is constant),
* diurnal x annual interaction sets used to let coefficients drift over
  both the day and the year.

Mean equations use the cumulative interaction set; volatility equations use
the plain interaction set with its first column replaced by the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.season_length <= 0:
            raise ValueError("season_length must be positive")
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

    def knots(self) -> np.ndarray:
        """Equidistant knots centred at 0: degree + 2 values spaced by h."""
        h = self.knot_spacing
        half = (self.degree + 1) / 2.0
        return h * (np.arange(self.degree + 2) - half)


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
    return _deboor(t, knots, degree)


def _deboor(t: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    # bottom-up: b[i] is the degree-k spline on knots[i : i + k + 2]
    b = [np.where((t >= lo) & (t < hi), 1.0, 0.0) for lo, hi in zip(knots, knots[1:])]
    for k in range(1, degree + 1):
        b = [(t - knots[i]) / (knots[i + k] - knots[i]) * b[i]
             + (knots[i + k + 1] - t) / (knots[i + k + 1] - knots[i + 1]) * b[i + 1]
             for i in range(degree + 1 - k)]
    return b[0]


def periodic_basis(t, spec: BSplineSpec, j: int):
    """j-th periodic basis function (1-based), wrapping at the season length.

    The j-th function is the base spline shifted by (j - 1) knot spacings and
    summed over all season shifts; only the two shifts whose support can
    intersect [0, S) contribute.
    """
    if not 1 <= j <= spec.n_basis:
        raise IndexError(f"basis index {j} outside 1..{spec.n_basis}")
    knots = spec.knots()
    s = spec.season_length
    u = np.mod(np.asarray(t, dtype=float) - (j - 1) * spec.knot_spacing, s)
    return _deboor(u, knots, spec.degree) + _deboor(u - s, knots, spec.degree)


def periodic_basis_matrix(t, spec: BSplineSpec) -> np.ndarray:
    """All ``n_basis`` periodic basis functions at ``t``, in one pass: (n, N)."""
    knots = spec.knots()
    s = spec.season_length
    shifts = np.arange(spec.n_basis) * spec.knot_spacing
    u = np.mod(np.asarray(t, dtype=float).reshape(-1, 1) - shifts, s)
    return _deboor(u, knots, spec.degree) + _deboor(u - s, knots, spec.degree)


def cumulative_basis(t, spec: BSplineSpec) -> BasisSet:
    """Running sums of the periodic basis columns; the last column is constant."""
    plain = periodic_basis_matrix(t, spec)
    return BasisSet(
        kind="cumulative",
        values=np.cumsum(plain, axis=1),
        constant_column=spec.n_basis - 1,
    )


def interaction_basis(
    time_of_day,
    time_of_year,
    diurnal: BSplineSpec,
    annual: BSplineSpec,
    kind: str,
) -> BasisSet:
    """Diurnal x annual product basis with one column per (annual, diurnal) pair.

    ``kind="cumulative"``: products of cumulative factors, last column constant.
    ``kind="plain"``: products of plain factors with the (1, 1) column replaced
    by the constant 1 so the constant impact is a column of its own.
    """
    if kind not in ("plain", "cumulative"):
        raise ValueError(f"kind must be 'plain' or 'cumulative', got {kind!r}")
    tod = np.asarray(time_of_day, dtype=float)
    toy = np.asarray(time_of_year, dtype=float)
    if tod.shape != toy.shape:
        raise ValueError("time_of_day and time_of_year must have equal length")
    # one evaluation per distinct clock slot (144 at 10-minute steps), gathered
    slots, slot_of = np.unique(tod, return_inverse=True)
    dmat = periodic_basis_matrix(slots, diurnal)[slot_of]
    amat = periodic_basis_matrix(toy, annual)
    if kind == "cumulative":
        dmat = np.cumsum(dmat, axis=1)
        amat = np.cumsum(amat, axis=1)
    values = (amat[:, :, None] * dmat[:, None, :]).reshape(tod.size, -1)
    pairs = [(l1, l2) for l1 in range(1, annual.n_basis + 1)
             for l2 in range(1, diurnal.n_basis + 1)]
    if kind == "cumulative":
        const_col = len(pairs) - 1
    else:
        values[:, 0] = 1.0
        const_col = 0
    return BasisSet(kind=kind, values=values, pairs=pairs, constant_column=const_col)
