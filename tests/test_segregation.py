"""Overall and cell-specific tests: reference values, identities, permutation."""

import numpy as np
import pytest

from nnct import (
    ContingencyTable,
    CovarianceModel,
    DegenerateTestError,
    InvalidInputError,
    LabeledPointSet,
    QRMode,
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
from nnct.segregation import OVERALL_FLAVORS

from conftest import (
    ARTI_Q,
    ARTI_Q_ADJ,
    ARTI_R,
    ARTI_R_ADJ,
    SWAMP_Q,
    SWAMP_R,
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
            s = m.dixon_sigma()
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
        m = CovarianceModel(n1=10, n2=10, n=20, q_used=12.0, r_used=12.0,
                            expected=expected_counts(10, 10, 20), sigma_full=sigma)
        table = ContingencyTable.from_counts([[6, 4], [3, 7]])
        with pytest.raises(DegenerateTestError):
            dixon_overall(table, m)


class TestVersionTests:
    def test_zero_column_sum_degenerate(self):
        table = ContingencyTable.from_counts([[3, 0], [1, 0]])
        m = model_for(table, 2, 2)
        with pytest.raises(DegenerateTestError):
            version_I(table, m)

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
        assert all(r.qr_mode == "observed" for r in results)
        assert all(r.q_used == 70 and r.r_used == 60 for r in results)

    def test_adjusted_equals_observed_at_observed_values(self, artificial_points):
        obs = run_battery(artificial_points)
        adj = run_battery(artificial_points, QRMode.adjusted(ARTI_Q, ARTI_R))
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

    def test_from_table_matches_points_path(self, artificial_points, artificial_table):
        nns = compute_nn(artificial_points)
        via_pts = run_battery(artificial_points)
        via_tbl = run_battery_from_table(artificial_table, nns.Q, nns.R)
        for a, b in zip(via_pts, via_tbl):
            assert a.statistic == b.statistic

    def test_qr_mode_validation(self):
        with pytest.raises(InvalidInputError):
            QRMode.adjusted(-1.0, 2.0)
        with pytest.raises(InvalidInputError):
            QRMode(kind="adjusted")
        with pytest.raises(InvalidInputError):
            QRMode(kind="wild")


class TestPermutation:
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

    def test_validation(self):
        rng = np.random.default_rng(59)
        p = random_point_set(rng, 20, n1=10)
        with pytest.raises(InvalidInputError):
            permutation_pvalue(p, "dixon_overall", n_perm=50, seed=1)
        single = LabeledPointSet(p.points, np.ones(20, dtype=int))
        with pytest.raises(InvalidInputError):
            permutation_pvalue(single, "dixon_overall", n_perm=999, seed=1)
        with pytest.raises(InvalidInputError):
            permutation_pvalue(p, "no_such_test", n_perm=99, seed=1)

    @pytest.mark.slow
    def test_artificial_fixture_agrees_with_asymptotic(self, artificial_points):
        # n = 100 is squarely in the asymptotic regime, so the permutation
        # p-value should sit close to the chi-square one
        pv = permutation_pvalue(artificial_points, "dixon_overall", n_perm=9999, seed=11)
        assert pv == pytest.approx(0.1868, abs=0.02)
