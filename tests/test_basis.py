import numpy as np
import pytest

from parkcast.basis import (
    ANNUAL_STEPS,
    BSplineSpec,
    bspline_eval,
    cumulative_basis,
    interaction_basis,
    periodic_basis,
    periodic_basis_matrix,
)

DIURNAL = BSplineSpec(3, 144.0, 12, strict_partition=True)
ANNUAL = BSplineSpec(3, ANNUAL_STEPS, 4)


class TestBsplineEval:
    def test_degree_zero_box(self):
        assert bspline_eval(0.5, [0.0, 1.0], 0) == 1.0
        assert bspline_eval(1.5, [0.0, 1.0], 0) == 0.0

    def test_degree_one_triangle_peak(self):
        assert bspline_eval(1.0, [0.0, 1.0, 2.0], 1) == 1.0
        assert bspline_eval(0.5, [0.0, 1.0, 2.0], 1) == 0.5

    def test_outside_support_is_zero(self):
        for deg, knots in ((1, [0, 1, 2]), (3, [-2, -1, 0, 1, 2])):
            assert bspline_eval(knots[0] - 1.0, knots, deg) == 0.0

    def test_nonnegative_everywhere(self):
        t = np.linspace(-3, 3, 1001)
        vals = bspline_eval(t, [-2, -1, 0, 1, 2], 3)
        assert np.all(vals >= 0.0)

    def test_bad_knots_rejected(self):
        with pytest.raises(ValueError):
            bspline_eval(0.5, [0.0, 0.0], 0)
        with pytest.raises(ValueError):
            bspline_eval(0.5, [0.0, 1.0, 2.0], 3)


class TestPeriodicBasis:
    def test_periodicity(self):
        t = np.linspace(0.0, 144.0, 777)
        for j in (1, 5, 12):
            a = periodic_basis(t, DIURNAL, j)
            b = periodic_basis(t + 144.0, DIURNAL, j)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_shift_identity(self):
        t = np.linspace(0.0, 432.0, 1001)
        lhs = periodic_basis(t, DIURNAL, 2)
        rhs = periodic_basis(t - DIURNAL.knot_spacing, DIURNAL, 1)
        assert np.max(np.abs(lhs - rhs)) == 0.0

    def test_partition_of_unity_diurnal(self):
        t = np.linspace(0.0, 144.0, 10_000, endpoint=False)
        total = periodic_basis_matrix(t, DIURNAL).sum(axis=1)
        assert np.max(np.abs(total - 1.0)) <= 1e-9

    def test_partition_of_unity_annual_real_spacing(self):
        t = np.linspace(0.0, 2 * ANNUAL_STEPS, 4001)
        total = periodic_basis_matrix(t, ANNUAL).sum(axis=1)
        assert np.max(np.abs(total - 1.0)) <= 1e-9

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            periodic_basis(0.0, DIURNAL, 13)

    @pytest.mark.parametrize("spec", [DIURNAL, ANNUAL], ids=["diurnal", "annual"])
    def test_matrix_equals_stacked_columns(self, spec):
        t = np.concatenate([np.linspace(-spec.season_length, 3 * spec.season_length, 997),
                            np.arange(144.0)])
        stacked = np.column_stack([periodic_basis(t, spec, j)
                                   for j in range(1, spec.n_basis + 1)])
        assert np.array_equal(periodic_basis_matrix(t, spec), stacked)

    def test_plain_values_bounded_by_constant(self):
        t = np.linspace(0.0, 144.0, 2000)
        vals = periodic_basis_matrix(t, DIURNAL)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0 + 1e-12

    def test_full_column_rank_over_one_season(self):
        t = np.arange(144.0)
        vals = periodic_basis_matrix(t, DIURNAL)
        assert np.linalg.svd(vals, compute_uv=False)[-1] > 0.0


class TestLocalPieces:
    """Each column is the base spline's local polynomial piece at its own
    reduced argument; it must match the de Boor recurrence on the knots
    shifted by (j - 1) h, summed over the two season shifts."""

    @pytest.mark.parametrize("degree", [1, 3, 5])
    @pytest.mark.parametrize("season,n_basis", [(144.0, 12), (ANNUAL_STEPS, 6), (30.0, 6)],
                             ids=["integer", "annual", "short"])
    def test_matches_de_boor_on_shifted_knots(self, degree, season, n_basis):
        spec = BSplineSpec(degree, season, n_basis)
        h = spec.knot_spacing
        t = np.concatenate([
            np.linspace(-2.5 * season, 3.5 * season, 4001),  # t < 0 and several seasons
            h * np.arange(-2 * n_basis, 3 * n_basis),  # exactly on the knots
            [1e6 * season + 0.37 * h, 123456789.0 * h],  # t far beyond S
        ])
        values = periodic_basis_matrix(t, spec)
        knots = h * (np.arange(degree + 2) - (degree + 1) / 2)  # the base spline's, centred at 0
        for j in range(1, n_basis + 1):
            u = np.mod(t - (j - 1) * h, season)
            ref = bspline_eval(u, knots, degree) + bspline_eval(u - season, knots, degree)
            assert np.max(np.abs(values[:, j - 1] - ref)) <= 1e-14, j

    def test_both_kinds_from_one_evaluation(self):
        rng = np.random.default_rng(5)
        tod = rng.integers(0, 144, 900)
        toy = rng.uniform(-ANNUAL_STEPS, 3 * ANNUAL_STEPS, tod.size)
        both = interaction_basis(tod, toy, DIURNAL, ANNUAL, ("cumulative", "plain"))
        assert set(both) == {"cumulative", "plain"}
        d, a = periodic_basis_matrix(tod, DIURNAL), periodic_basis_matrix(toy, ANNUAL)
        for kind, (dk, ak) in (("plain", (d, a)),
                               ("cumulative", (np.cumsum(d, axis=1), np.cumsum(a, axis=1)))):
            products = (ak[:, :, None] * dk[:, None, :]).reshape(tod.size, -1)
            if kind == "plain":
                products[:, 0] = 1.0
            assert np.array_equal(both[kind].values, products)
        for kind, bs in both.items():
            single = interaction_basis(tod, toy, DIURNAL, ANNUAL, kind)
            assert bs.kind == kind and np.array_equal(bs.values, single.values)
            assert (bs.pairs, bs.constant_column) == (single.pairs, single.constant_column)
        with pytest.raises(ValueError):
            interaction_basis(tod, toy, DIURNAL, ANNUAL, ("plain", "fourier"))


class TestCumulativeBasis:
    def test_first_column_matches_plain(self):
        t = np.linspace(0.0, 144.0, 500)
        cum = cumulative_basis(t, DIURNAL).values
        plain = periodic_basis_matrix(t, DIURNAL)
        assert np.array_equal(cum[:, 0], plain[:, 0])

    def test_last_column_constant(self):
        t = np.linspace(0.0, 144.0, 500)
        cum = cumulative_basis(t, DIURNAL)
        last = cum.values[:, cum.constant_column]
        assert np.max(np.abs(last - 1.0)) <= 1e-9

    def test_differences_recover_plain(self):
        t = np.linspace(0.0, 288.0, 700)
        cum = cumulative_basis(t, DIURNAL).values
        plain = periodic_basis_matrix(t, DIURNAL)
        diffs = np.diff(cum, axis=1)
        assert np.max(np.abs(diffs - plain[:, 1:])) < 1e-12


class TestInteractionBasis:
    def setup_method(self):
        n = 600
        self.tod = np.arange(n) % 144
        self.toy = np.arange(n, dtype=float)

    def test_cumulative_set_has_48_columns(self):
        bs = interaction_basis(self.tod, self.toy, DIURNAL, ANNUAL, "cumulative")
        assert bs.columns == 48
        assert len(bs.pairs) == 48

    def test_plain_first_column_is_one(self):
        bs = interaction_basis(self.tod, self.toy, DIURNAL, ANNUAL, "plain")
        assert np.all(bs.values[:, 0] == 1.0)
        assert bs.constant_column == 0

    def test_last_cumulative_column_constant(self):
        bs = interaction_basis(self.tod, self.toy, DIURNAL, ANNUAL, "cumulative")
        col = bs.values[:, bs.constant_column]
        assert np.max(np.abs(col - col[0])) <= 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            interaction_basis(self.tod, self.toy, DIURNAL, ANNUAL, "fourier")

    @pytest.mark.parametrize("kind", ["cumulative", "plain"])
    def test_repeated_slots_equal_rowwise_evaluation(self, kind):
        # the diurnal factor is evaluated once per distinct slot and gathered
        rng = np.random.default_rng(3)
        tod = rng.permutation(np.repeat(rng.choice(144, 40, replace=False), 4))
        toy = rng.uniform(0.0, ANNUAL_STEPS, tod.size)
        whole = interaction_basis(tod, toy, DIURNAL, ANNUAL, kind).values
        rows = [interaction_basis(tod[r:r + 1], toy[r:r + 1], DIURNAL, ANNUAL, kind).values[0]
                for r in range(tod.size)]
        assert np.array_equal(whole, np.array(rows))


class TestSpecValidation:
    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            BSplineSpec(2, 144.0, 12)

    def test_too_few_basis_functions_rejected(self):
        with pytest.raises(ValueError):
            BSplineSpec(3, 144.0, 3)

    def test_strict_partition_spacing(self):
        with pytest.raises(ValueError):
            BSplineSpec(3, 12.0, 4, strict_partition=True)  # spacing 3 < 4
        BSplineSpec(3, 144.0, 12, strict_partition=True)  # spacing 12 ok
