"""NNCT construction, expectations, label-set probabilities, covariance model."""

import numpy as np
import pytest

from nnct import (
    ContingencyTable,
    InvalidArgumentError,
    InvalidInputError,
    LabeledPointSet,
    build_nnct,
    compute_nn,
    covariance_model,
    expected_counts,
)
from nnct.contingency import _multiset_prob, cell_covariance, tabulate_pairs

from conftest import random_point_set


def _falling(n, k):
    out = 1.0
    for i in range(k):
        out *= n - i
    return out


class TestContingencyTable:
    def test_swamp_margins(self, swamp_table):
        assert swamp_table.row_sums == (211, 183)
        assert swamp_table.col_sums == (209, 185)
        assert swamp_table.total == 394

    def test_three_point_example(self):
        p = LabeledPointSet(np.array([(0, 0), (1, 0), (3, 0)], float), [1, 1, 2])
        table = build_nnct(p, compute_nn(p))
        assert table.counts.tolist() == [[2, 0], [1, 0]]

    def test_single_class_tabulation(self):
        # the raw tabulation puts everything in the (1,1) cell ...
        p = LabeledPointSet(np.array([(0, 0), (1, 0), (3, 0)], float), [1, 1, 1])
        nns = compute_nn(p)
        assert tabulate_pairs(p.labels, nns.nn_index).tolist() == [[3, 0], [0, 0]]
        # ... but building an analysis table from one class is refused
        with pytest.raises(InvalidInputError):
            build_nnct(p, nns)

    # labels as classes 1/2, as booleans and as float indicators
    @pytest.mark.parametrize("dtype", [np.int64, bool, np.float64])
    def test_stack_of_labelings_counts_every_pair(self, dtype):
        rng = np.random.default_rng(13)
        n = 50
        nn = rng.integers(0, 10, n)  # any digraph: hubs, self-arcs, unreached points
        classes = rng.integers(1, 3, (4, 6, n))
        stack = np.where(classes == 1, 1, 2 if dtype is np.int64 else 0).astype(dtype)
        tables = tabulate_pairs(stack, nn)
        assert tables.dtype == np.int64 and tables.shape == (4, 6, 2, 2)
        for idx in np.ndindex(4, 6):
            expected = np.zeros((2, 2), dtype=np.int64)
            for base, target in enumerate(nn):
                expected[classes[idx][base] - 1, classes[idx][target] - 1] += 1
            assert tables[idx].tolist() == expected.tolist()
            assert tabulate_pairs(stack[idx], nn).tolist() == expected.tolist()

    def test_row_sums_match_class_sizes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_point_set(rng, int(rng.integers(5, 80)))
            table = build_nnct(p, compute_nn(p))
            assert table.row_sums == p.class_sizes
            assert table.total == p.n

    def test_invalid_counts(self):
        with pytest.raises(InvalidInputError):
            ContingencyTable.from_counts([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(InvalidInputError):
            ContingencyTable.from_counts([[1, -2], [3, 4]])
        # refused, never truncated or left to numpy's ValueError/OverflowError
        for bad in (1.5, np.nan, np.inf, 2**63, 2.0**63, 2**64):
            with pytest.raises(InvalidInputError, match="cell counts must be integers"):
                ContingencyTable([[bad, 2], [3, 4]])
        for bad in ([[1, 2], [3]], [[1, 2], ["3", 4]], [[1, 2], [3, 4 + 0j]]):
            with pytest.raises(InvalidInputError, match="cell counts must be"):
                ContingencyTable.from_counts(bad)

    def test_integral_floats_are_counts(self):
        table = ContingencyTable([[1.0, 2.0], [3.0, 4.0]])
        assert table.counts.dtype == np.int64
        assert table.counts.tolist() == [[1, 2], [3, 4]]
        big = ContingencyTable([[2**63 - 1, 0], [0, 0]])
        assert int(big.counts[0, 0]) == 2**63 - 1


class TestExpectedCounts:
    def test_swamp_margins_value(self):
        e = expected_counts(211, 183, 394)
        assert e[0, 0] == pytest.approx(211 * 210 / 393, rel=1e-12)
        assert e[0, 0] == pytest.approx(112.748, abs=5e-4)
        assert e[0, 1] == pytest.approx(211 * 183 / 393, rel=1e-12)

    def test_row_sums_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            n1 = int(rng.integers(0, n + 1))
            e = expected_counts(n1, n - n1, n)
            assert e[0].sum() == n1
            assert e[1].sum() == n - n1

    def test_singleton_class(self):
        assert expected_counts(1, 9, 10)[0, 0] == 0.0

    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            expected_counts(1, 0, 1)
        with pytest.raises(InvalidInputError):
            expected_counts(2, 2, 5)


@pytest.mark.parametrize("call", [expected_counts, covariance_model, cell_covariance],
                         ids=["expected_counts", "covariance_model", "cell_covariance"])
class TestClassSizes:
    @staticmethod
    def run(call, n1, n2, n):
        return call(n1, n2, n) if call is expected_counts else call(n1, n2, n, 30.0, 28.0)

    @pytest.mark.parametrize("sizes", [(5.5, 4.5, 10), (5, 5, 10.5), (np.nan, 5, 10),
                                       (5, 5, np.inf), ("5", 5, 10), (5, 5, 10 + 0j)])
    def test_sizes_that_are_not_integers_are_refused(self, call, sizes):
        with pytest.raises(InvalidArgumentError, match="class sizes must be integers"):
            self.run(call, *sizes)

    def test_integral_floats_give_the_bytes_of_ints(self, call):
        def raw(*sizes):
            out = self.run(call, *sizes)
            if call is covariance_model:
                return out.expected.tobytes() + out.sigma_full.tobytes()
            return out.tobytes()

        for floats in ((20.0, 30.0, 50.0), (np.float64(20), np.int64(30), 50.0)):
            assert raw(*floats) == raw(20, 30, 50)


class TestPairProbabilities:
    """``_multiset_prob(n1, n2, n, c1, c2)``: the probability that c1 + c2
    distinct points carry c1 class-1 and c2 class-2 labels."""

    def test_tiny_margin_value(self):
        assert _multiset_prob(2, 2, 4, 2, 0) == pytest.approx(2 * 1 / (4 * 3), rel=1e-15)

    def test_pairs_partition(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            n1 = int(rng.integers(0, n + 1))
            p = lambda c1, c2: _multiset_prob(n1, n - n1, n, c1, c2)
            # ordered pairs 11, 12, 21, 22
            total = p(2, 0) + p(1, 1) + p(1, 1) + p(0, 2)
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_forced_zeros(self):
        assert _multiset_prob(3, 7, 10, 4, 0) == 0.0
        assert _multiset_prob(1, 9, 10, 2, 0) == 0.0
        assert _multiset_prob(1, 9, 10, 2, 1) == 0.0
        # not enough points for a triplet or quartet at all
        assert _multiset_prob(1, 1, 2, 3, 0) == 0.0
        assert _multiset_prob(1, 1, 2, 0, 3) == 0.0
        assert _multiset_prob(1, 1, 2, 2, 2) == 0.0

    def test_closed_forms(self):
        n1, n2, n = 5, 9, 14
        assert _multiset_prob(n1, n2, n, 2, 1) == pytest.approx(
            n1 * (n1 - 1) * n2 / _falling(n, 3), rel=1e-12
        )
        assert _multiset_prob(n1, n2, n, 2, 2) == pytest.approx(
            n1 * (n1 - 1) * n2 * (n2 - 1) / _falling(n, 4), rel=1e-12
        )


class TestCovarianceModel:
    def test_variance_closed_forms(self):
        # independent evaluation of the published variance expressions
        for (n1, n2, q, r) in [(50, 50, 70, 60), (211, 183, 270, 236), (7, 12, 10, 8)]:
            n = n1 + n2
            m = covariance_model(n1, n2, n, q, r)
            p11 = _falling(n1, 2) / _falling(n, 2)
            p111 = _falling(n1, 3) / _falling(n, 3)
            p1111 = _falling(n1, 4) / _falling(n, 4)
            var11 = (
                (n + r) * p11
                + (2 * n - 2 * r + q) * p111
                + (n * n - 3 * n - q + r) * p1111
                - (n * p11) ** 2
            )
            assert m.sigma_full[0, 0] == pytest.approx(var11, rel=1e-10)
            p12 = n1 * n2 / _falling(n, 2)
            p112 = _falling(n1, 2) * n2 / _falling(n, 3)
            p1122 = _falling(n1, 2) * _falling(n2, 2) / _falling(n, 4)
            var12 = (
                n * p12 + q * p112 + (n * n - 3 * n - q + r) * p1122 - (n * p12) ** 2
            )
            assert m.sigma_full[1, 1] == pytest.approx(var12, rel=1e-10)
            p22 = _falling(n2, 2) / _falling(n, 2)
            cov_11_22 = (n * n - 3 * n - q + r) * p1122 - n * n * p11 * p22
            assert m.sigma_full[0, 3] == pytest.approx(cov_11_22, rel=1e-10)

    def test_symmetry_and_diagonal(self):
        m = covariance_model(50, 50, 100, 70, 60)
        assert np.array_equal(m.sigma_full, m.sigma_full.T)
        assert np.all(np.diag(m.sigma_full) >= 0)

    def test_psd_on_feasible_subspace(self):
        # deviations satisfy the fixed row sums, i.e. live in the span of
        # (1,-1,0,0) and (0,0,1,-1); the form must be PSD there
        rng = np.random.default_rng(17)
        basis = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        for _ in range(25):
            n = int(rng.integers(5, 200))
            n1 = int(rng.integers(2, n - 1))
            q = float(rng.uniform(0, 0.7 * n))
            r = float(rng.uniform(2, 0.7 * n))
            m = covariance_model(n1, n - n1, n, q, r)
            for _ in range(10):
                v = rng.normal(size=2) @ basis
                assert v @ m.sigma_full @ v >= -1e-9 * n * n

    def test_adjustment_changes_only_sigma(self):
        a = covariance_model(50, 50, 100, 70, 60)
        b = covariance_model(50, 50, 100, 63.37, 62.17)
        assert np.array_equal(a.expected, b.expected)
        assert not np.array_equal(a.sigma_full, b.sigma_full)

    def test_real_valued_q_r(self):
        # the real-valued Q and R reach the covariance as they are, not rounded
        m = covariance_model(211, 183, 394, 249.68, 244.95)
        assert np.array_equal(m.sigma_full, cell_covariance(211, 183, 394, 249.68, 244.95))
        assert not np.array_equal(m.sigma_full, cell_covariance(211, 183, 394, 250, 245))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            covariance_model(3, 2, 6, 1, 1)
        with pytest.raises(InvalidInputError):
            covariance_model(2, 1, 3, 1, 1)
        with pytest.raises(InvalidInputError):
            covariance_model(50, 50, 100, -1, 2)
        with pytest.raises(InvalidInputError):
            covariance_model(50, 50, 100, np.nan, 2)

    def test_rl_permutation_oracle_quick(self):
        # fast regression tier of the label-permutation oracle; the strict
        # 200k-permutation version lives in the acceptance suite
        rng = np.random.default_rng(23)
        n, n1 = 24, 11
        coords = rng.random((n, 2))
        p = LabeledPointSet(coords, np.repeat([1, 2], [n1, n - n1]))
        nns = compute_nn(p)
        m = covariance_model(n1, n - n1, n, nns.Q, nns.R)

        reps = 60_000
        base = np.repeat([1, 2], [n1, n - n1]).astype(np.int8)
        perms = np.argsort(rng.random((reps, n)), axis=1)
        labs = base[perms]
        lab_nn = np.take_along_axis(labs, np.broadcast_to(nns.nn_index, (reps, n)), axis=1)
        is1, nn1 = labs == 1, lab_nn == 1
        cells = np.stack(
            [
                (is1 & nn1).sum(axis=1),
                (is1 & ~nn1).sum(axis=1),
                (~is1 & nn1).sum(axis=1),
                (~is1 & ~nn1).sum(axis=1),
            ],
            axis=1,
        ).astype(float)
        centered = cells - cells.mean(axis=0)
        for a in range(4):
            for b in range(a, 4):
                prod = centered[:, a] * centered[:, b]
                se = np.sqrt(prod.var(ddof=1) / reps)
                emp = prod.mean() * reps / (reps - 1)
                assert abs(emp - m.sigma_full[a, b]) <= 4 * se + 1e-12
