"""Overall and cell-specific tests: reference values, identities, the
stacked statistic kernel, permutation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnct import (
    CSR_Q_PER_POINT,
    CSR_R_PER_POINT,
    ContingencyTable,
    CovarianceModel,
    DegenerateTestError,
    InvalidArgumentError,
    InvalidInputError,
    LabeledPointSet,
    build_nnct,
    cell_specific_test,
    compute_nn,
    covariance_model,
    dixon_overall,
    expected_counts,
    permutation_pvalue,
    run_battery,
    run_battery_from_table,
    version_I,
    version_II,
    version_III,
)
from nnct import geometry, segregation
from nnct.contingency import cell_covariance, tabulate_pairs
from nnct.montecarlo import _STREAM_PERM
from nnct.numerics import generalized_inverse
from nnct.segregation import (
    CELL_FLAVORS,
    OVERALL_FLAVORS,
    _range_form,
    _statistic_only,
)

from conftest import (
    ARTI_Q,
    ARTI_Q_ADJ,
    ARTI_R,
    ARTI_R_ADJ,
    SWAMP_Q,
    SWAMP_R,
    pair_points,
    random_point_set,
)


def model_for(table, q, r):
    n1, n2 = table.row_sums
    return covariance_model(n1, n2, table.total, q, r)


class TestReferenceStatistics:
    def test_swamp_observed(self, swamp_table):
        m = model_for(swamp_table, SWAMP_Q, SWAMP_R)
        assert dixon_overall(swamp_table, m).statistic == pytest.approx(52.72, abs=0.01)
        assert version_I(swamp_table, m).statistic == pytest.approx(52.08, abs=0.01)
        assert version_II(swamp_table, m).statistic == pytest.approx(52.14, abs=0.01)
        assert version_III(swamp_table, m).statistic == pytest.approx(52.66, abs=0.01)

    def test_artificial_observed(self, artificial_table):
        m = model_for(artificial_table, ARTI_Q, ARTI_R)
        res = dixon_overall(artificial_table, m)
        assert res.statistic == pytest.approx(3.36, abs=0.01)
        assert res.p_value == pytest.approx(0.1868, abs=1e-3)
        assert version_III(artificial_table, m).p_value == pytest.approx(0.0693, abs=1e-3)

    def test_artificial_adjusted(self, artificial_table):
        m = model_for(artificial_table, ARTI_Q_ADJ, ARTI_R_ADJ)
        assert dixon_overall(artificial_table, m).statistic == pytest.approx(3.32, abs=0.01)
        assert version_I(artificial_table, m).statistic == pytest.approx(2.97, abs=0.01)

    def test_degrees_of_freedom(self, artificial_table):
        m = model_for(artificial_table, ARTI_Q, ARTI_R)
        assert dixon_overall(artificial_table, m).df == 2
        assert version_I(artificial_table, m).df == 1
        assert version_II(artificial_table, m).df == 2
        assert version_III(artificial_table, m).df == 1


class TestCellSpecific:
    def test_zero_deviation_gives_unit_p(self):
        # margins chosen so every expectation is an integer:
        # E = [[6, 4], [4, 2]] for (n1, n2) = (10, 6)
        table = ContingencyTable.from_counts([[6, 4], [4, 2]])
        m = model_for(table, 10, 6)
        assert np.allclose(m.expected, [[6, 4], [4, 2]])
        for i in (1, 2):
            for j in (1, 2):
                res = cell_specific_test(table, m, i, j)
                assert res.statistic == 0.0
                assert res.p_value == 1.0

    def test_swamp_directions(self, swamp_table):
        m = model_for(swamp_table, SWAMP_Q, SWAMP_R)
        assert cell_specific_test(swamp_table, m, 1, 1).statistic > 0
        assert cell_specific_test(swamp_table, m, 1, 2).statistic < 0

    def test_sidedness(self, swamp_table):
        m = model_for(swamp_table, SWAMP_Q, SWAMP_R)
        two = cell_specific_test(swamp_table, m, 1, 1, "two-sided")
        gt = cell_specific_test(swamp_table, m, 1, 1, "greater")
        lt = cell_specific_test(swamp_table, m, 1, 1, "less")
        assert two.p_value == pytest.approx(2 * gt.p_value, rel=1e-12)
        assert gt.p_value + lt.p_value == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InvalidInputError):
            cell_specific_test(swamp_table, m, 1, 1, "sideways")

    def test_zero_variance_degenerate(self):
        table = ContingencyTable.from_counts([[0, 1], [1, 8]])
        m = model_for(table, 4, 2)  # n1 = 1 forces Var[N11] = 0
        with pytest.raises(DegenerateTestError):
            cell_specific_test(table, m, 1, 1)

    def test_bad_cell_index(self, swamp_table):
        m = model_for(swamp_table, SWAMP_Q, SWAMP_R)
        with pytest.raises(InvalidInputError):
            cell_specific_test(swamp_table, m, 0, 1)


class TestDixonOverall:
    def test_matches_closed_form_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_point_set(rng, int(rng.integers(10, 150)))
            nns = compute_nn(p)
            table = build_nnct(p, nns)
            m = model_for(table, nns.Q, nns.R)
            stat = dixon_overall(table, m).statistic
            s = m.sigma_full[np.ix_([0, 3], [0, 3])]
            z_aa = (table.counts[0, 0] - m.expected[0, 0]) / np.sqrt(s[0, 0])
            z_bb = (table.counts[1, 1] - m.expected[1, 1]) / np.sqrt(s[1, 1])
            rho = s[0, 1] / np.sqrt(s[0, 0] * s[1, 1])
            closed = (z_aa**2 + z_bb**2 - 2 * rho * z_aa * z_bb) / (1 - rho**2)
            assert stat == pytest.approx(closed, rel=1e-9)

    def test_degenerate_variance(self):
        table = ContingencyTable.from_counts([[0, 1], [1, 8]])
        m = model_for(table, 4, 2)
        with pytest.raises(DegenerateTestError):
            dixon_overall(table, m)

    @pytest.mark.parametrize("cov", [1.0, -1.0])
    def test_singular_diagonal_block_with_positive_variances(self, cov):
        # (N11, N22) perfectly (anti-)correlated: the 2x2 block is singular,
        # which must surface as a degenerate test, not as a LinAlgError
        sigma = np.eye(4)
        sigma[0, 3] = sigma[3, 0] = cov
        m = CovarianceModel(expected=expected_counts(10, 10, 20), sigma_full=sigma)
        table = ContingencyTable.from_counts([[6, 4], [3, 7]])
        with pytest.raises(DegenerateTestError):
            dixon_overall(table, m)


    @pytest.mark.parametrize("n1, n2", [(10, 10), (20, 30), (30, 30), (50, 100), (100, 100)])
    def test_all_mutual_pairs_are_degenerate_at_every_size(self, n1, n2):
        # Q = 0 and R = n: N11 - N22 = n1 - n2 on every labeling, so the
        # block is exactly singular, however its determinant rounds
        pts = LabeledPointSet(pair_points((n1 + n2) // 2), np.repeat([1, 2], [n1, n2]))
        nns = compute_nn(pts)
        assert (nns.Q, nns.R) == (0, n1 + n2)
        table = build_nnct(pts, nns)
        model = model_for(table, nns.Q, nns.R)
        assert np.isnan(_statistic_only("dixon_overall", table.counts[None], model.sigma_full)).all()
        with pytest.raises(DegenerateTestError):
            dixon_overall(table, model)

    @pytest.mark.parametrize("gap, full", [(2.0**-24, True), (2.0**-27, False)])
    def test_block_near_the_cutoff(self, gap, full):
        # B = [[1, c], [c, 1]] with c = 1 - gap: det B = 2 gap - gap^2 is
        # exact, against the cutoff 1e-8 * lam^2 ~ 4e-8
        sigma = np.eye(4)
        sigma[0, 3] = sigma[3, 0] = 1.0 - gap
        counts = np.array([[7, 3], [8, 2]])
        stat = _statistic_only("dixon_overall", counts[None], sigma)[0]
        if not full:
            assert np.isnan(stat)
            return
        e = expected_counts(10, 10, 20)
        y1, y2 = 7 - Fraction(e[0, 0]), 2 - Fraction(e[1, 1])
        c = Fraction(sigma[0, 3])
        exact = (y1 * y1 - 2 * c * y1 * y2 + y2 * y2) / (1 - c * c)
        assert stat == pytest.approx(float(exact), rel=1e-12)

    def test_stack_across_the_cutoff_equals_single_tables_bitwise(self):
        # Q = 0, R = 20 makes the block singular; Q = 1e-9 leaves it below the
        # cutoff (det / lam^2 ~ 2.5e-11) and Q = 1e-6 just above it (~2.5e-8)
        q = np.array([12.6, 0.0, 1e-9, 1e-6, 14.0, 0.0])
        r = np.array([12.4, 20.0, 20.0, 20.0, 10.0, 20.0])
        sigma = cell_covariance(10, 10, 20, q, r)
        counts = np.array([[[6, 4], [3, 7]], [[10, 0], [0, 10]], [[7, 3], [3, 7]],
                           [[8, 2], [4, 6]], [[5, 5], [4, 6]], [[4, 6], [6, 4]]])
        stacked = _statistic_only("dixon_overall", counts, sigma)
        single = [_statistic_only("dixon_overall", counts[k][None], sigma[k])[0]
                  for k in range(len(q))]
        assert np.isnan(stacked).tolist() == [False, True, True, False, False, True]
        assert stacked.tobytes() == np.array(single).tobytes()


class TestVersionTests:
    def test_zero_column_sum_degenerate(self):
        table = ContingencyTable.from_counts([[3, 0], [1, 0]])
        m = model_for(table, 2, 2)
        with pytest.raises(DegenerateTestError):
            version_I(table, m)

    @pytest.mark.parametrize("qr", [(16, 12), (20 * CSR_Q_PER_POINT, 20 * CSR_R_PER_POINT)],
                             ids=["observed", "asymptotic"])
    def test_form_that_rounds_below_zero_is_zero(self, qr):
        # version III's deviation (2, 2, -2, -2)/19 lies in the null space of
        # sigma; unclamped, its form rounded to about -5e-19 and -1.2e-19
        results = run_battery_from_table(ContingencyTable.from_counts([[2, 3], [7, 8]]), *qr)
        assert results[3].statistic == 0.0
        assert results[3].p_value == 1.0
        assert all(r.statistic > 0.0 for r in results[:3])

    def test_statistics_nonnegative(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            p = random_point_set(rng, int(rng.integers(10, 120)))
            try:
                results = run_battery(p)[:4]
            except DegenerateTestError:
                continue  # zero column sum on an extreme margin draw
            for res in results:
                assert res.statistic >= 0.0
                assert 0.0 <= res.p_value <= 1.0


class TestBattery:
    def test_flavors_and_order(self, artificial_points):
        results = run_battery(artificial_points)
        assert tuple(r.flavor for r in results[:4]) == OVERALL_FLAVORS
        assert [r.flavor for r in results[4:]] == [
            "cell_Z_11", "cell_Z_12", "cell_Z_21", "cell_Z_22",
        ]

    def test_adjusted_equals_observed_at_observed_values(self, artificial_points):
        obs = run_battery(artificial_points)
        adj = run_battery(artificial_points, qr=(ARTI_Q, ARTI_R))
        for a, b in zip(obs, adj):
            assert a.statistic == b.statistic
            assert a.p_value == b.p_value

    def test_relabel_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            p = random_point_set(rng, int(rng.integers(10, 120)))
            swapped = LabeledPointSet(p.points, 3 - p.labels)
            try:
                originals = run_battery(p)[:4]
            except DegenerateTestError:
                with pytest.raises(DegenerateTestError):
                    run_battery(swapped)
                continue
            for a, b in zip(originals, run_battery(swapped)[:4]):
                assert a.statistic == pytest.approx(b.statistic, rel=1e-9, abs=1e-12)

    def test_rigid_motion_and_scale_invariance(self):
        rng = np.random.default_rng(43)
        p = random_point_set(rng, 80)
        theta = 0.73
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = LabeledPointSet(2.5 * (p.points @ rot.T) + np.array([17.0, -4.0]), p.labels)
        for a, b in zip(run_battery(p), run_battery(moved)):
            assert a.statistic == b.statistic

    def test_a_bad_alternative_is_refused_before_any_test(self):
        # Dixon and the Z test of cell (1, 1) are undefined on this table
        table = ContingencyTable.from_counts([[0, 1], [1, 8]])
        model = covariance_model(1, 9, 10, 8.0, 6.0)
        with pytest.raises(DegenerateTestError):
            run_battery_from_table(table, 8.0, 6.0)
        with pytest.raises(DegenerateTestError):
            cell_specific_test(table, model, 1, 1)
        with pytest.raises(InvalidArgumentError, match="unknown alternative 'bogus'"):
            run_battery_from_table(table, 8.0, 6.0, alternative="bogus")
        with pytest.raises(InvalidArgumentError, match="unknown alternative 'bogus'"):
            cell_specific_test(table, model, 1, 1, "bogus")

    def test_from_table_matches_points_path(self, artificial_points, artificial_table):
        nns = compute_nn(artificial_points)
        via_pts = run_battery(artificial_points)
        via_tbl = run_battery_from_table(artificial_table, nns.Q, nns.R)
        for a, b in zip(via_pts, via_tbl):
            assert a.statistic == b.statistic


class TestKernel:
    @staticmethod
    def stack(b=30):
        """Tables of relabelings of one point set, with per-table sigmas."""
        rng = np.random.default_rng(61)
        pts = random_point_set(rng, 40, n1=17)
        nns = compute_nn(pts)
        labels = np.stack([rng.permutation(pts.labels) for _ in range(b)])
        q, r = rng.uniform(10.0, 40.0, size=(2, b))
        return tabulate_pairs(labels, nns.nn_index), cell_covariance(17, 23, 40, q, r)

    @pytest.mark.parametrize("flavor", OVERALL_FLAVORS + CELL_FLAVORS)
    def test_shuffled_stack_equals_single_tables_bitwise(self, flavor):
        counts, sigmas = self.stack()
        order = np.random.default_rng(67).permutation(len(counts))
        for shared in (False, True):
            sigma = sigmas[0] if shared else sigmas[order]
            stacked = _statistic_only(flavor, counts[order], sigma)
            single = [
                _statistic_only(flavor, counts[k][None], sigmas[0 if shared else k])[0]
                for k in order
            ]
            assert np.isfinite(stacked).all()
            assert stacked.tobytes() == np.array(single).tobytes()

    def test_int32_tables_score_as_int64_ones_at_large_n(self):
        # stored permutation tables are int32; version III's (n11 - n12) * (n - 1)
        # passes 2^31 here
        counts = np.array([[[60000, 40000], [45000, 55000]]])
        sigma = cell_covariance(100000, 100000, 200000, 126600.0, 124200.0)
        for flavor in OVERALL_FLAVORS + CELL_FLAVORS:
            wide = _statistic_only(flavor, counts, sigma)
            narrow = _statistic_only(flavor, counts.astype(np.int32), sigma)
            assert np.isfinite(wide).all()
            assert narrow.tobytes() == wide.tobytes()

    def test_degenerate_table_is_nan_in_its_own_row_only(self):
        counts = np.array([[[6, 4], [3, 7]], [[10, 0], [10, 0]], [[5, 5], [4, 6]]])
        # Q = 0, R = 20 (ten mutual pairs) makes N11 and N22 perfectly
        # correlated; the middle table also has a zero column sum
        sigma = cell_covariance(10, 10, 20, [12.0, 0.0, 14.0], [12.0, 20.0, 12.0])
        for flavor, sig in (("dixon_overall", sigma), ("version_I", sigma[0])):
            stats = _statistic_only(flavor, counts, sig)
            assert np.isnan(stats[1])
            kept = _statistic_only(flavor, counts[[0, 2]],
                                   sig[[0, 2]] if sig.ndim == 3 else sig)
            assert np.isfinite(kept).all()
            assert stats[[0, 2]].tobytes() == kept.tobytes()

    def test_validation(self):
        counts, sigmas = self.stack(2)
        with pytest.raises(InvalidInputError):
            _statistic_only("no_such_test", counts, sigmas)
        mixed = np.array([[[6, 4], [3, 7]], [[5, 6], [4, 5]]])  # row sums differ
        with pytest.raises(InvalidInputError):
            _statistic_only("dixon_overall", mixed, sigmas[0])

    @pytest.mark.parametrize("test", [dixon_overall, version_I, version_II, version_III,
                                      lambda t, m: cell_specific_test(t, m, 1, 1)],
                             ids=["dixon", "I", "II", "III", "cell_11"])
    def test_a_model_of_other_margins_is_refused(self, test):
        table = ContingencyTable(np.array([[35, 25], [20, 20]]))  # rows (60, 40)
        assert np.isfinite(test(table, covariance_model(60, 40, 100, 63, 62)).statistic)
        for model in (covariance_model(50, 50, 100, 63, 62),
                      covariance_model(60, 41, 101, 63, 62)):
            with pytest.raises(InvalidInputError, match="row sums"):
                test(table, model)

    @pytest.mark.parametrize("test", [dixon_overall, version_I, version_II, version_III,
                                      lambda t, m: cell_specific_test(t, m, 1, 1)],
                             ids=["dixon", "I", "II", "III", "cell_11"])
    def test_a_model_that_is_not_one_4x4_matrix_is_refused(self, test):
        # a stack of covariances would score its first matrix without error
        table = ContingencyTable(np.array([[35, 25], [20, 20]]))
        model = covariance_model(60, 40, 100, 63, 62)
        for sigma in (np.stack([model.sigma_full] * 2), model.sigma_full[:3, :3],
                      model.sigma_full.ravel()):
            with pytest.raises(InvalidInputError, match="one 4x4 matrix"):
                test(table, CovarianceModel(expected=model.expected, sigma_full=sigma))


def spectral_form(flavor, counts, sigma):
    """vec' m^+ vec of versions I-III through the spectral pseudo-inverse of
    the whole 4x4 matrix m: the definition the closed form replaces."""
    (n1, n2), (c1, c2) = counts.sum(axis=1), counts.sum(axis=0)
    n = n1 + n2
    cells = counts.ravel().astype(float)
    if flavor == "version_III":
        weights = np.array([n1 - 1, n1, n2, n2 - 1]) / (n - 1)
        vec, m = cells - weights * np.array([c1, c2, c1, c2]), sigma
    else:
        other = [c1, c2, c1, c2] if flavor == "version_I" else [n1, n2, n1, n2]
        prod = np.array([n1, n1, n2, n2]) * np.array(other, dtype=float)
        vec = (cells - prod / n) / np.sqrt(prod / n)
        m = n * sigma / np.sqrt(np.outer(prod, prod))
    return max(float(vec @ generalized_inverse(m) @ vec), 0.0)


class TestClosedForm:
    """Versions I-III evaluate vec' m^+ vec in closed form on the 2-D range
    that the fixed row sums leave to the 4x4 covariance."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(8, 200), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_matches_the_spectral_pseudo_inverse(self, n, share, seed):
        rng = np.random.default_rng(seed)
        n1 = min(max(int(share * n), 1), n - 1)
        pts = LabeledPointSet(rng.random((n, 2)), np.repeat([1, 2], [n1, n - n1]))
        nns = compute_nn(pts)
        counts = build_nnct(pts, nns).counts
        for q, r in ((nns.Q, nns.R), (n * CSR_Q_PER_POINT, n * CSR_R_PER_POINT)):
            sigma = cell_covariance(n1, n - n1, n, q, r)
            for flavor in ("version_I", "version_II", "version_III"):
                stat = _statistic_only(flavor, counts[None], sigma)[0]
                if flavor == "version_I" and (counts.sum(axis=0) == 0).any():
                    assert np.isnan(stat)
                    continue
                # the absolute floor covers the oracle's own rounding of vec
                # (~1e-16 per entry) on statistics near 0
                assert stat == pytest.approx(spectral_form(flavor, counts, sigma),
                                             rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("qr", [(10, 8), (16 * CSR_Q_PER_POINT, 16 * CSR_R_PER_POINT)],
                             ids=["observed", "asymptotic"])
    def test_residuals_in_the_null_space_give_exact_zero(self, qr):
        # [[1, 3], [3, 9]] has N_ij = n_i C_j / n = n_i n_j / n in every cell
        results = run_battery_from_table(ContingencyTable.from_counts([[1, 3], [3, 9]]), *qr)
        assert results[1].statistic == 0.0 and results[2].statistic == 0.0
        assert results[1].p_value == 1.0 and results[2].p_value == 1.0

    @staticmethod
    def on_range(g11, g12, g22):
        """A 4x4 covariance whose range is spanned by (1, -1, 0, 0) and
        (0, 0, 1, -1), with the 2x2 form G on that basis."""
        w = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        return w.T @ np.array([[g11, g12], [g12, g22]]) @ w

    @pytest.mark.parametrize("g", [(4.0, 2.0, 1.0), (2.0, 0.0, 0.0), (1.0, 0.0, 4e-9)],
                             ids=["singular", "one-zero-axis", "below-cutoff"])
    def test_rank_one_range_keeps_the_top_eigenvector(self, g):
        sigma = self.on_range(*g)
        counts = np.array([[6, 4], [3, 7]])
        stat = _statistic_only("version_III", counts[None], sigma)[0]
        assert stat > 0.0
        assert stat == pytest.approx(spectral_form("version_III", counts, sigma), rel=1e-12)

    @pytest.mark.parametrize("eps", [4e-9, 2e-8])
    def test_cutoff_is_that_of_the_generalized_inverse(self, eps):
        for m in (np.diag([1.0, eps]), np.array([[0.5 + eps, 0.5], [0.5, 0.5 + eps]])):
            y = np.array([0.3, -1.7])
            got, full = _range_form(*(np.array([x]) for x in (m[0, 0], m[0, 1], m[1, 1], *y)))
            assert got[0] == pytest.approx(y @ generalized_inverse(m) @ y, rel=1e-6)
            assert full[0] == (eps > 1e-8)

    @pytest.mark.parametrize("g", [(0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (-1.0, 0.0, -2.0)],
                             ids=["zero", "zero-top", "negative"])
    def test_no_positive_eigenvalue_gives_zero(self, g):
        stat = _statistic_only("version_III", np.array([[[6, 4], [3, 7]]]), self.on_range(*g))
        assert stat.tobytes() == np.zeros(1).tobytes()

    def test_nan_propagates(self):
        ones = np.ones(3)
        for args, full_rank in (((np.nan, 0.0, 1.0, 1.0, 1.0), False),
                                ((1.0, np.nan, 1.0, 1.0, 1.0), False),
                                ((1.0, 0.0, 1.0, np.nan, 0.0), True)):
            value, full = _range_form(*(a * ones for a in args))
            assert np.isnan(value).all()
            assert (full == full_rank).all()
        sigma = np.full((4, 4), np.nan)
        for flavor in ("version_I", "version_II", "version_III"):
            assert np.isnan(_statistic_only(flavor, np.array([[[6, 4], [3, 7]]]), sigma)).all()


def perm_stream(seed, labels, n_perm):
    """The permuted labelings ``permutation_pvalue`` scores: permutations
    64b .. 64b + 63 are successive ``permutation`` calls on block b's
    generator."""
    for start in range(0, n_perm, 64):
        rng = np.random.default_rng([seed, _STREAM_PERM, start // 64])
        for _ in range(start, min(start + 64, n_perm)):
            yield rng.permutation(labels)


@pytest.mark.parametrize("n", [2, 3, 64, 1000, 5000])
@pytest.mark.parametrize("seed", [1, 17, 2**32 + 5, 2**40 + 3])
def test_permuted_draws_the_same_permutations_at_every_item_size(n, seed):
    """``permutation_pvalue`` shuffles float64 indicators where the stream
    is defined on labels: numpy's ``permuted`` must give the permutations of
    successive ``permutation`` calls for bool, int64 and float64 items, in
    one 64-row block or in sub-blocks from the same generator, returned or
    written into ``out``."""
    key = [seed, _STREAM_PERM, 3]
    rng = np.random.default_rng(key)
    order = np.array([rng.permutation(n) for _ in range(64)])
    class1 = np.arange(n) % 3 == 0
    for dtype in (bool, np.int64, np.float64):
        items = class1.astype(dtype) if dtype is bool else np.arange(n, dtype=dtype)
        expected = class1[order] if dtype is bool else order.astype(dtype)
        for split in ([64], [1, 7, 20, 36]):
            for into in (None, np.empty((64, n), dtype=dtype)):
                rng = np.random.default_rng(key)
                got = []
                for lo, rows in zip(np.cumsum([0] + split), split):
                    out = None if into is None else into[lo:lo + rows]
                    drawn = rng.permuted(np.broadcast_to(items, (rows, n)), axis=1, out=out)
                    assert out is None or drawn is out
                    got.append(drawn)
                got = np.concatenate(got)
                assert got.dtype == dtype
                assert np.array_equal(got, expected), (dtype, split, into is None)


def hub_and_circle():
    """A hub at the origin plus 5 points on the unit circle: every circle
    point's NN is the hub, so many labelings have a zero column sum."""
    ang = 2 * np.pi * np.arange(5) / 5
    points = np.vstack([[0.0, 0.0], np.c_[np.cos(ang), np.sin(ang)]])
    return LabeledPointSet(points, np.array([1, 1, 2, 2, 1, 2]))


def cold_pvalue(*args):
    """A permutation p-value from a fresh draw, not from the stored run."""
    segregation._permutation_run.cache_clear()
    return permutation_pvalue(*args)


class TestPermutation:
    @pytest.fixture
    def draws(self, monkeypatch) -> list:
        """The permutation runs drawn during the test: the arguments of each
        call for the runs' streams."""
        from nnct import montecarlo

        made, streams = [], montecarlo._streams

        def spy(*args):
            made.append(args)
            return streams(*args)

        monkeypatch.setattr(montecarlo, "_streams", spy)
        return made

    def test_bounds_and_reproducibility(self):
        rng = np.random.default_rng(47)
        p = random_point_set(rng, 30, n1=15)
        pv = permutation_pvalue(p, "dixon_overall", n_perm=99, seed=5)
        assert 1 / 100 <= pv <= 1.0
        assert pv == permutation_pvalue(p, "dixon_overall", n_perm=99, seed=5)

    def test_strong_segregation_rejects(self):
        # two tight, far-apart one-class clumps
        rng = np.random.default_rng(53)
        a = rng.random((50, 2)) * 0.2
        b = rng.random((50, 2)) * 0.2 + 5.0
        p = LabeledPointSet(np.vstack([a, b]), np.repeat([1, 2], [50, 50]))
        for flavor in OVERALL_FLAVORS:
            assert permutation_pvalue(p, flavor, n_perm=999, seed=3) < 0.01

    def test_validation(self, draws):
        rng = np.random.default_rng(59)
        p = random_point_set(rng, 20, n1=10)
        with pytest.raises(InvalidInputError):
            permutation_pvalue(p, "dixon_overall", n_perm=50, seed=1)
        single = LabeledPointSet(p.points, np.ones(20, dtype=int))
        with pytest.raises(InvalidInputError):
            permutation_pvalue(single, "dixon_overall", n_perm=999, seed=1)
        with pytest.raises(InvalidInputError):
            permutation_pvalue(p, "no_such_test", n_perm=99, seed=1)
        with pytest.raises(InvalidArgumentError):
            permutation_pvalue(p, "dixon_overall", n_perm=999, seed=-1)
        # each is refused before the run is searched or drawn
        assert draws == []
        assert segregation._permutation_run.cache_info().misses == 0

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
    def test_seed_that_is_not_an_integer(self, seed):
        p = random_point_set(np.random.default_rng(59), 20, n1=10)
        with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
            permutation_pvalue(p, "dixon_overall", n_perm=99, seed=seed)

    @pytest.mark.parametrize("n_perm", [999.0, 99.5, "999"])
    def test_count_that_is_not_an_integer(self, n_perm):
        p = random_point_set(np.random.default_rng(59), 20, n1=10)
        with pytest.raises(InvalidArgumentError, match="n_perm must be an integer"):
            permutation_pvalue(p, "dixon_overall", n_perm=n_perm, seed=1)

    def test_numpy_integers_pass(self):
        p = random_point_set(np.random.default_rng(59), 20, n1=10)
        expected = permutation_pvalue(p, "dixon_overall", 199, 3)
        assert permutation_pvalue(p, "dixon_overall", np.int64(199), np.int64(3)) == expected

    @pytest.mark.parametrize("seed", [1, 14])
    def test_ties_with_the_observed_statistic_count(self, seed):
        # with balanced classes, diagonals (a, b) and (b, a) give equal Dixon
        # statistics that can round ulps apart; compare with exact arithmetic
        pts = LabeledPointSet(np.random.default_rng(seed).random((30, 2)),
                              np.repeat([1, 2], 15))
        nns = compute_nn(pts)
        sigma = covariance_model(15, 15, 30, nns.Q, nns.R).sigma_full
        v11, v22, c = (Fraction(x) for x in (sigma[0, 0], sigma[3, 3], sigma[0, 3]))
        e = Fraction(15 * 14, 29)

        def exact(table):
            y1, y2 = int(table[0, 0]) - e, int(table[1, 1]) - e
            return (v22 * y1 * y1 - 2 * c * y1 * y2 + v11 * y2 * y2) / (v11 * v22 - c * c)

        observed = exact(build_nnct(pts, nns).counts)
        at_least = sum(
            exact(tabulate_pairs(labels, nns.nn_index)) >= observed
            for labels in perm_stream(3, pts.labels, 999)
        )
        pv = permutation_pvalue(pts, "dixon_overall", n_perm=999, seed=3)
        assert pv == (1 + at_least) / 1000

    def test_undefined_permuted_statistics_do_not_count(self):
        pts = hub_and_circle()
        nns = compute_nn(pts)
        model = covariance_model(3, 3, 6, nns.Q, nns.R)
        observed = version_I(build_nnct(pts, nns), model).statistic
        at_least = undefined = 0
        for labels in perm_stream(1, pts.labels, 999):
            try:
                stat = version_I(build_nnct(LabeledPointSet(pts.points, labels), nns),
                                 model).statistic
            except DegenerateTestError:
                undefined += 1
                continue
            at_least += stat >= observed * (1 - 1e-9)
        assert undefined > 0
        assert permutation_pvalue(pts, "version_I", 999, 1) == (1 + at_least) / 1000

    def test_undefined_observed_statistic_raises(self):
        pts = hub_and_circle()
        # only the hub and its NN in class 1: every NN is in class 1
        labels = np.full(6, 2)
        labels[[0, compute_nn(pts).nn_index[0]]] = 1
        with pytest.raises(DegenerateTestError):
            permutation_pvalue(LabeledPointSet(pts.points, labels), "version_I", 99, 1)

    # with n = 40: one row per sub-block, 7-row sub-blocks and the whole
    # block at once, for the labels drawn and tabulated at once, each on the
    # serial and the shared path; one table, 7 tables and all of them for the
    # tables scored at once
    @pytest.mark.parametrize("entries", [40, 7 * 40, 1 << 30])
    @pytest.mark.parametrize("flavor", ["dixon_overall", "version_I", "cell_Z_12"])
    def test_pvalue_does_not_depend_on_the_block_entries(self, monkeypatch, entries, flavor):
        pts = random_point_set(np.random.default_rng(61), 40, n1=16)
        expected = cold_pvalue(pts, flavor, 999, 9)
        monkeypatch.setattr(segregation, "_PERM_BLOCK_ENTRIES", entries)
        for serial_labels in (0, 1 << 62):
            monkeypatch.setattr(segregation, "_PERM_SERIAL_LABELS", serial_labels)
            assert cold_pvalue(pts, flavor, 999, 9) == expected, serial_labels
        for tables in (1, 7, 1 << 30):
            monkeypatch.setattr(segregation, "_PERM_SCORE_TABLES", tables)
            assert permutation_pvalue(pts, flavor, 999, 9) == expected, tables

    # the p-values of the two benchmark-sized CSR sets at seed 17 and 999
    # permutations, as k of k / 1000, in the order OVERALL_FLAVORS + CELL_FLAVORS;
    # a change to the permutation draw or the tabulation shows up here
    @pytest.mark.parametrize("n, n1, golden", [
        (100, 50, [450, 706, 488, 601, 884, 884, 314, 314]),
        (1000, 400, [648, 688, 657, 662, 1000, 1000, 405, 405]),
    ])
    def test_golden_pvalues(self, n, n1, golden):
        pts = LabeledPointSet(np.random.default_rng(17).random((n, 2)),
                              np.repeat([1, 2], [n1, n - n1]))
        flavors = OVERALL_FLAVORS + CELL_FLAVORS
        # every flavor after the first scores the stored run
        warm = [permutation_pvalue(pts, flavor, 999, 17) for flavor in flavors]
        cold = [cold_pvalue(pts, flavor, 999, 17) for flavor in flavors]
        assert warm == cold == [k / 1000 for k in golden]

    # runs of more than 2^18 labels are shared: at n = 129 from 2033
    # permutations, 1000 from 263 and 5000 from 53, where each block is
    # drawn in parts of 3 rows.  130 ends in a 2-permutation block
    @pytest.mark.parametrize("n, counts", [(129, (99, 130, 999, 1000, 2500)),
                                           (1000, (99, 130, 999, 1000)),
                                           (5000, (99, 130, 999, 1000))])
    def test_pvalues_do_not_depend_on_the_thread_count(self, monkeypatch, helper_threads,
                                                       n, counts):
        pts = random_point_set(np.random.default_rng(n), n, n1=n // 3)
        runs = [(f, m) for f in OVERALL_FLAVORS + CELL_FLAVORS for m in counts]
        found = {}
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(geometry, "_search_cpus", lambda: cpus)
            found[cpus] = [cold_pvalue(pts, f, m, 23) for f, m in runs]
        assert found[2] == found[3] == found[4] == found[1]
        assert helper_threads  # some runs were shared

    @pytest.fixture
    def four_cpus(self, monkeypatch, helper_threads):
        """The helper threads started, on 4 CPUs."""
        monkeypatch.setattr(geometry, "_search_cpus", lambda: 4)
        return helper_threads

    def test_helpers_start_once_per_call_only_on_shared_runs(self, four_cpus):
        def run(n, n_perm):
            p = random_point_set(np.random.default_rng(3), n, n // 3)
            assert 0 < permutation_pvalue(p, "dixon_overall", n_perm, 1) <= 1
            started = len(four_cpus)
            four_cpus.clear()
            return started

        # runs of up to 2^18 labels stay serial: 2048 permutations of 128
        # points, 2032 of 129
        assert run(128, 2048) == 0
        assert run(128, 2049) == 3
        assert run(129, 2032) == 0
        assert run(129, 2033) == 3
        # 130 permutations are 3 blocks: a helper for each but the caller's
        assert run(2100, 130) == 2
        assert run(2100, 124) == 0

    def test_a_process_pool_child_draws_serially(self, monkeypatch, four_cpus):
        from concurrent.futures import ProcessPoolExecutor

        p = random_point_set(np.random.default_rng(4), 700, 300)
        threaded = cold_pvalue(p, "version_I", 999, 2)
        assert len(four_cpus) == 3
        monkeypatch.undo()  # the forked child must count its own CPUs
        segregation._permutation_run.cache_clear()  # and draw its own run
        with ProcessPoolExecutor(1) as pool:
            cpus = pool.submit(geometry._search_cpus).result()
            child = pool.submit(permutation_pvalue, p, "version_I", 999, 2).result()
        assert cpus == 1 and child == threaded

    def test_a_shared_run_holds_one_batch_per_thread(self, monkeypatch, four_cpus):
        # a thread draws and tabulates 2^14 // n labelings at a time: at
        # n = 1000, 16 of them, a 128 kB draw, 16 kB of labels and as many
        # gathered NN labels; at n = 20000 one, a 160 kB draw and 20 kB of
        # each.  So each helper adds under 1 MiB to the peak (a 64-row block
        # of labels alone takes 1.28 MB at n = 20000)
        import tracemalloc

        # 3 helpers draw, and at n = 20000 3 more share the search's first round
        for n, helpers in ((1000, 3), (20000, 6)):
            pts = random_point_set(np.random.default_rng(83), n, n1=2 * n // 5)
            geometry._nn_indices(pts.points)  # scipy's first search allocates for good
            peaks = {}
            for cpus in (1, 4):
                monkeypatch.setattr(geometry, "_search_cpus", lambda: cpus)
                four_cpus.clear()
                tracemalloc.start()
                try:
                    cold_pvalue(pts, "version_I", 999, 3)
                    peaks[cpus] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert len(four_cpus) == helpers, n
            assert peaks[4] <= peaks[1] + 3 * 2**20, n

    def test_the_stored_run_is_whole_tables_and_read_only(self):
        pts = random_point_set(np.random.default_rng(89), 40, n1=16)
        run = segregation._permutation_run(pts.points.tobytes(), (pts.labels == 1).tobytes(),
                                           130, 5)
        sigma, observed, tables = run
        nns = compute_nn(pts)
        assert np.array_equal(observed, build_nnct(pts, nns).counts)
        assert tables.shape == (130, 2, 2) and tables.dtype == np.int32
        assert np.array_equal(tables, [tabulate_pairs(labels, nns.nn_index)
                                       for labels in perm_stream(5, pts.labels, 130)])
        # every later flavor on this key scores these same arrays
        for a in run:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("n", [60, 300])
    def test_the_flavors_of_one_run_draw_once(self, draws, n):
        pts = random_point_set(np.random.default_rng(67), n, n1=n // 3)
        flavors = OVERALL_FLAVORS + CELL_FLAVORS
        warm = [permutation_pvalue(pts, flavor, 999, 5) for flavor in flavors]
        assert len(draws) == 1
        assert warm == [cold_pvalue(pts, flavor, 999, 5) for flavor in flavors]
        assert len(draws) == 1 + len(flavors)

    def test_the_run_misses_when_its_key_changes(self, draws):
        pts = random_point_set(np.random.default_rng(71), 60, n1=20)
        pvalue = permutation_pvalue(pts, "version_II", 999, 5)
        moved = pts.points.copy()
        moved[0] += 1e-9
        swapped = pts.labels.copy()
        swapped[[0, -1]] = swapped[[-1, 0]]
        calls = [(LabeledPointSet(moved, pts.labels), 999, 5),
                 (LabeledPointSet(pts.points, swapped), 999, 5),
                 (pts, 1000, 5), (pts, 999, 6)]
        for args in calls:
            before = len(draws)
            got = permutation_pvalue(args[0], "version_II", *args[1:])
            assert len(draws) == before + 1
            assert got == cold_pvalue(args[0], "version_II", *args[1:])
        # the same set, changed in place: a miss each time
        assert permutation_pvalue(pts, "version_II", 999, 5) == pvalue
        before = len(draws)
        pts.points[0] += 1e-9
        got = permutation_pvalue(pts, "version_II", 999, 5)
        assert len(draws) == before + 1
        assert got == cold_pvalue(LabeledPointSet(moved, pts.labels), "version_II", 999, 5)
        pts.labels[[0, -1]] = pts.labels[[-1, 0]]
        got = permutation_pvalue(pts, "version_II", 999, 5)
        assert len(draws) == before + 3
        assert got == cold_pvalue(LabeledPointSet(moved, swapped), "version_II", 999, 5)

    def test_a_run_on_another_set_replaces_the_last(self, draws):
        a = random_point_set(np.random.default_rng(73), 50, n1=20)
        b = random_point_set(np.random.default_rng(79), 50, n1=20)
        first = permutation_pvalue(a, "cell_Z_21", 999, 5)
        permutation_pvalue(b, "cell_Z_21", 999, 5)
        assert segregation._permutation_run.cache_info().currsize == 1
        assert permutation_pvalue(a, "cell_Z_21", 999, 5) == first
        assert len(draws) == 3

    @pytest.mark.slow
    def test_artificial_fixture_agrees_with_asymptotic(self, artificial_points):
        # n = 100 is squarely in the asymptotic regime, so the permutation
        # p-value should sit close to the chi-square one
        pv = permutation_pvalue(artificial_points, "dixon_overall", n_perm=9999, seed=11)
        assert pv == pytest.approx(0.1868, abs=0.02)
