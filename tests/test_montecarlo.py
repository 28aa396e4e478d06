"""Pattern generators, Q/R estimation, size/power engine, reports."""

import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnct import (
    InvalidArgumentError,
    InvalidInputError,
    LabeledPointSet,
    PatternSpec,
    SimulationConfig,
    adjusted_qr,
    build_nnct,
    compute_nn,
    covariance_model,
    dixon_overall,
    empirical_power,
    empirical_size,
    estimate_qr,
    generate,
    size_band,
)
from nnct import montecarlo
from nnct.errors import DegenerateTestError
from nnct.geometry import _BRUTE_FORCE_MAX
from nnct.montecarlo import (
    _ALT_CODES,
    _STREAM_PERM,
    _STREAM_POWER,
    _STREAM_QR,
    _STREAM_SIZE,
    _digraphs,
    _qr_chunk,
    _rejection_chunk,
    _seed_words,
    _word_seed_class,
)
from nnct.segregation import OVERALL_FLAVORS, version_I, version_II, version_III

from conftest import mutual_pairs


class TestGenerate:
    def test_csr_shape_and_support(self):
        pts = generate(PatternSpec("csr", 30, 20), np.random.default_rng(1))
        assert pts.class_sizes == (30, 20)
        assert np.all((pts.points >= 0) & (pts.points < 1))

    def test_segregation_supports(self):
        s = 1 / 6
        pts = generate(PatternSpec("segregation", 500, 500, s), np.random.default_rng(2))
        x1 = pts.points[pts.labels == 1]
        x2 = pts.points[pts.labels == 2]
        assert np.all(x1 < 1 - s)
        assert np.all(x2 > s) and np.all(x2 < 1)

    def test_segregation_class1_mean(self):
        # class-1 coordinates are U(0, 5/6): mean 5/12, var (5/6)^2 / 12
        n1 = 10000
        pts = generate(PatternSpec("segregation", n1, 1, 1 / 6), np.random.default_rng(3))
        xs = pts.points[pts.labels == 1][:, 0]
        se = np.sqrt((5 / 6) ** 2 / 12 / n1)
        assert abs(xs.mean() - 5 / 12) <= 3 * se

    def test_segregation_zero_is_unit_square(self):
        pts = generate(PatternSpec("segregation", 40, 40, 0.0), np.random.default_rng(4))
        assert np.all((pts.points >= 0) & (pts.points < 1))

    def test_association_radius_bound(self):
        r = 1e-6
        pts = generate(PatternSpec("association", 50, 80, r), np.random.default_rng(5))
        x1 = pts.points[pts.labels == 1]
        x2 = pts.points[pts.labels == 2]
        d = np.sqrt(((x2[:, None, :] - x1[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        assert np.all(d <= r)

    def test_association_not_clipped(self):
        # with a quarter-unit radius some offsets must leave the unit square
        pts = generate(PatternSpec("association", 50, 400, 0.25), np.random.default_rng(6))
        x2 = pts.points[pts.labels == 2]
        assert np.any((x2 < 0) | (x2 > 1))

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            PatternSpec("csr", 0, 5)
        with pytest.raises(InvalidInputError):
            PatternSpec("segregation", 5, 5, 1.0)
        with pytest.raises(InvalidInputError):
            PatternSpec("association", 5, 5, 0.0)
        with pytest.raises(InvalidInputError):
            PatternSpec(kind="lattice", n1=5, n2=5)
        with pytest.raises(InvalidArgumentError, match="class sizes must be an integer"):
            PatternSpec("csr", 5.5, 5)
        with pytest.raises(TypeError):
            PatternSpec("csr")  # no default sizes
        spec = PatternSpec("csr", np.int64(3), 4)
        assert type(spec.n1) is int and spec.n1 == 3


class TestEstimateQR:
    def test_two_points(self):
        est = estimate_qr(2, 50, seed=1)
        assert est.q_over_n == 0.0
        assert est.r_over_n == 1.0
        assert est.se_q == est.se_r == 0.0

    def test_reproducible_and_worker_invariant(self):
        # the stored replications are emptied, so that every call draws
        a = estimate_qr(40, 600, seed=9, workers=1)
        montecarlo._qr_draws.cache_clear()
        b = estimate_qr(40, 600, seed=9, workers=1)
        montecarlo._qr_draws.cache_clear()
        c = estimate_qr(40, 600, seed=9, workers=2)
        assert a == b == c

    def test_a_pool_starts_one_process_per_chunk_at_most(self, monkeypatch):
        import concurrent.futures

        asked = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, **kwargs)

        expected = estimate_qr(20, 1000, 1)
        montecarlo._qr_draws.cache_clear()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        assert estimate_qr(20, 1000, 1, workers=8) == expected
        assert asked == [2]  # two chunks of 500

    def test_seed_matters(self):
        a = estimate_qr(40, 200, seed=1)
        b = estimate_qr(40, 200, seed=2)
        assert a.q_over_n != b.q_over_n

    def test_ratios_converge_with_n(self):
        # Q/n approaches its large-n limit from above (measured at 30k reps:
        # .6375 at n=10, .6339 at n=100, limit .63279)
        small = estimate_qr(10, 3000, seed=8)
        large = estimate_qr(100, 3000, seed=8)
        assert abs(large.q_over_n - 0.63279) < abs(small.q_over_n - 0.63279)
        assert abs(large.q_over_n - 0.63279) < 0.01
        assert abs(large.r_over_n - 0.62112) < 0.01

    def test_asymptotic_r_against_its_closed_form(self):
        # the share of points in reflexive NN pairs of a planar Poisson process
        # (Cox 1981, Pickard 1982)
        closed_form = 6 * np.pi / (8 * np.pi + 3 * np.sqrt(3))
        assert 3.8e-4 < closed_form - montecarlo.CSR_R_PER_POINT < 3.9e-4

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            estimate_qr(1, 10, seed=1)
        with pytest.raises(InvalidInputError):
            estimate_qr(10, 0, seed=1)
        with pytest.raises(InvalidInputError):
            adjusted_qr(10, "oracle", 10, seed=1)

    def test_negative_seed(self):
        with pytest.raises(InvalidInputError, match="seed must be a nonnegative"):
            estimate_qr(10, 5, seed=-1)
        with pytest.raises(InvalidInputError, match="seed must be a nonnegative"):
            adjusted_qr(10, "estimate", 5, seed=-1)

    # a float or string seed used to run as another seed, or fail in numpy
    @pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
    def test_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed must be a nonnegative integer"):
            estimate_qr(20, 50, seed)

    @pytest.mark.parametrize("kw", [dict(n=20.0), dict(n_mc=50.5), dict(workers=1.0)],
                             ids=["n", "n_mc", "workers"])
    def test_count_that_is_not_an_integer(self, kw):
        args = dict(n=20, n_mc=50, seed=1, workers=1)
        args.update(kw)
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            estimate_qr(**args)

    def test_numpy_integers_pass(self):
        expected = estimate_qr(20, 50, 3)
        assert estimate_qr(np.int64(20), np.int64(50), np.int64(3)) == expected
        assert estimate_qr(20, 50, np.uint32(3), workers=np.int32(1)) == expected

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one(self, workers):
        with pytest.raises(InvalidInputError, match="workers"):
            estimate_qr(10, 20, 1, workers=workers)
        with pytest.raises(InvalidInputError, match="workers"):
            adjusted_qr(10, "estimate", 20, 1, workers=workers)

    # the "asymptotic" source used to scale any n, or fail in the multiply
    @pytest.mark.parametrize("source", ["estimate", "asymptotic"])
    @pytest.mark.parametrize("n", [2.5, -3, "7", 1])
    def test_bad_n_raises_for_every_source(self, source, n):
        with pytest.raises(InvalidArgumentError, match="n must be"):
            adjusted_qr(n, source, 10, 1)

    def test_one_estimate_per_total_n(self, monkeypatch):
        calls = []

        def counted(n, n_mc, seed, workers=1):
            calls.append(n)
            return estimate_qr(n, n_mc, seed, workers)

        monkeypatch.setattr(montecarlo, "estimate_qr", counted)
        config = SimulationConfig(n_mc=20, seed=3, qr_estimate_nmc=50)
        report = empirical_power([("segregation", 1 / 6), ("segregation", 1 / 3)],
                                 [(20, 30), (30, 20)], config)
        assert calls == [50]
        est = estimate_qr(50, 50, 3)
        assert {r.q_hat for r in report.rows if r.qr_mode == "adjusted"} == {
            est.q_over_n * 50}


class TestStoredReplications:
    """``estimate_qr`` keeps the replications it has drawn per (n, seed) and
    draws only those a later call adds."""

    SIZES = (300, 400, 250, 1200)

    @staticmethod
    def fresh(n, n_mc, seed):
        montecarlo._qr_draws.cache_clear()
        return estimate_qr(n, n_mc, seed)

    @staticmethod
    def count_draws(monkeypatch) -> list:
        """The (n, seed, lo, hi) of every ``_qr_chunk`` call from now on."""
        drawn = []

        def counted(n, seed, lo, hi):
            drawn.append((n, seed, lo, hi))
            return _qr_chunk(n, seed, lo, hi)

        monkeypatch.setattr(montecarlo, "_qr_chunk", counted)
        return drawn

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_request_equals_a_fresh_estimate(self, workers):
        expected = [self.fresh(40, n_mc, 5) for n_mc in self.SIZES]
        montecarlo._qr_draws.cache_clear()
        assert [estimate_qr(40, n_mc, 5, workers) for n_mc in self.SIZES] == expected

    def test_each_replication_is_drawn_once(self, monkeypatch):
        drawn = self.count_draws(monkeypatch)
        for n_mc in self.SIZES:
            estimate_qr(40, n_mc, 5)
        # chunks of 500 from the first replication missing
        assert drawn == [(40, 5, 0, 300), (40, 5, 300, 400), (40, 5, 400, 900),
                         (40, 5, 900, 1200)]

    def test_another_n_or_seed_misses(self, monkeypatch):
        drawn = self.count_draws(monkeypatch)
        estimate_qr(40, 300, 5)
        estimate_qr(41, 300, 5)
        estimate_qr(40, 300, 6)
        estimate_qr(40, 300, 5)
        assert drawn == [(40, 5, 0, 300), (41, 5, 0, 300), (40, 6, 0, 300)]
        assert montecarlo._qr_draws.cache_info().currsize == 3

    def test_the_least_recent_key_is_evicted_at_the_bound(self, monkeypatch):
        drawn = self.count_draws(monkeypatch)
        bound = montecarlo._QR_KEYS
        for seed in range(bound):
            estimate_qr(10, 5, seed)
        estimate_qr(10, 5, 0)  # stored: no draw, and now the most recent key
        assert len(drawn) == bound
        estimate_qr(10, 5, bound)  # evicts seed 1
        assert montecarlo._qr_draws.cache_info().currsize == bound
        estimate_qr(10, 5, 0)
        assert len(drawn) == bound + 1
        estimate_qr(10, 5, 1)
        assert drawn[-1] == (10, 1, 0, 5)

    def test_a_call_over_the_byte_budget_keeps_the_stored_prefix(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_QR_KEY_BYTES", 16 * 300)
        drawn = self.count_draws(monkeypatch)
        sizes = (250, 400, 200, 300)
        got = [estimate_qr(40, n_mc, 5) for n_mc in sizes]
        # 400 replications exceed the budget: they are all drawn and the
        # stored 250 stay as they are, to serve the 200; the 300 fit and
        # are stored
        assert drawn == [(40, 5, 0, 250), (40, 5, 0, 400), (40, 5, 250, 300)]
        assert montecarlo._qr_draws(40, 5)[0][0].size == 300
        assert got == [self.fresh(40, n_mc, 5) for n_mc in sizes]

    def test_a_call_over_the_byte_budget_evicts_no_kept_key(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_QR_KEY_BYTES", 16 * 100)
        drawn = self.count_draws(monkeypatch)
        bound = montecarlo._QR_KEYS
        for seed in range(bound):
            estimate_qr(10, 50, seed)
        del drawn[:]
        estimate_qr(10, 200, 99)  # over the budget, on a key not kept
        estimate_qr(10, 50, 0)  # the least recent kept key
        assert drawn == [(10, 99, 0, 200)]
        assert montecarlo._qr_draws.cache_info().currsize == bound

    def test_bad_arguments_raise_on_a_stored_key(self):
        estimate_qr(20, 50, 1)
        with pytest.raises(InvalidArgumentError, match="n_mc"):
            estimate_qr(20, 0, 1)
        with pytest.raises(InvalidArgumentError, match="workers"):
            estimate_qr(20, 50, 1, workers=0)
        assert estimate_qr(20, 50, 1) == self.fresh(20, 50, 1)

    def test_threads_racing_on_one_key(self, monkeypatch):
        import sys
        import threading

        expected = {n_mc: self.fresh(40, n_mc, 5) for n_mc in self.SIZES}
        montecarlo._qr_draws.cache_clear()
        # the short request reads the empty store, then draws only after the
        # long one has stored 1200 replications, and stores its 400 over them
        short_drawing, long_done = threading.Event(), threading.Event()

        def held(n, seed, lo, hi):
            if threading.current_thread().name == "short":
                short_drawing.set()
                long_done.wait(60)
            return _qr_chunk(n, seed, lo, hi)

        monkeypatch.setattr(montecarlo, "_qr_chunk", held)
        got = {}

        def run(n_mc):
            got[n_mc] = estimate_qr(40, n_mc, 5)
            long_done.set()

        short = threading.Thread(target=run, args=(400,), name="short")
        short.start()
        assert short_drawing.wait(60)
        run(1200)
        short.join(60)
        assert not short.is_alive()
        assert got == {400: expected[400], 1200: expected[1200]}
        assert montecarlo._qr_draws(40, 5)[0][0].size == 400
        assert estimate_qr(40, 1200, 5) == expected[1200]
        # many threads on the cleared store, switching as often as they can
        montecarlo._qr_draws.cache_clear()
        requests = self.SIZES * 3
        results = [None] * len(requests)

        def request(k):
            results[k] = estimate_qr(40, requests[k], 5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=request, args=(k,))
                       for k in range(len(requests))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected[n_mc] for n_mc in requests]


class TestSizeBand:
    def test_reference_thresholds(self):
        lo, hi = size_band(0.05, 10000)
        assert lo == pytest.approx(0.0464, abs=5e-5)
        assert hi == pytest.approx(0.0536, abs=5e-5)

    def test_quarter_scale(self):
        lo, hi = size_band(0.05, 2500)
        assert lo == pytest.approx(0.0428, abs=5e-5)
        assert hi == pytest.approx(0.0572, abs=5e-5)

    def test_limit(self):
        lo, hi = size_band(0.05, 10**12)
        assert lo == pytest.approx(0.05, abs=1e-5)
        assert hi == pytest.approx(0.05, abs=1e-5)

    def test_alpha_zero(self):
        assert size_band(0.0, 100) == (0.0, 0.0)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            size_band(1.5, 100)
        with pytest.raises(InvalidInputError):
            size_band(0.05, 0)
        with pytest.raises(InvalidArgumentError, match="n_mc must be an integer"):
            size_band(0.05, 2.5)


@pytest.mark.parametrize("call", [
    lambda: SimulationConfig(n_mc=10, seed=1, alpha="0.05"),
    lambda: SimulationConfig(n_mc=10, seed=1, alpha=None),
    lambda: size_band("0.05", 10),
    lambda: size_band(0.05 + 0j, 10),
    lambda: empirical_power([("segregation", "1/6")], [(10, 10)], _tiny_config()),
    lambda: empirical_power([("segregation", None)], [(10, 10)], _tiny_config()),
    lambda: empirical_power([("association", "0.25")], [(10, 10)], _tiny_config()),
    lambda: PatternSpec("segregation", 10, 10, "0.5"),
    lambda: PatternSpec("association", 10, 10, [0.5]),
], ids=["config-alpha-text", "config-alpha-none", "band-alpha-text", "band-alpha-complex",
        "power-fraction-text", "power-none", "power-text", "spec-text", "spec-list"])
def test_parameters_that_are_not_real_numbers(call):
    with pytest.raises(InvalidArgumentError, match="must be a real number"):
        call()


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SimulationConfig(n_mc=0, seed=1)
        with pytest.raises(InvalidInputError):
            SimulationConfig(n_mc=10, seed=-1)
        with pytest.raises(InvalidInputError):
            SimulationConfig(n_mc=10, seed=1, alpha=1.0)
        with pytest.raises(InvalidInputError):
            SimulationConfig(n_mc=10, seed=1, parallelism=0)
        with pytest.raises(InvalidInputError):
            SimulationConfig(n_mc=10, seed=1, adjusted_source="oracle")

    @pytest.mark.parametrize("kw", [dict(n_mc=10.0), dict(seed=1.5), dict(parallelism=1.0),
                                    dict(qr_estimate_nmc="10")],
                             ids=["n_mc", "seed", "parallelism", "qr_estimate_nmc"])
    def test_values_that_are_not_integers(self, kw):
        with pytest.raises(InvalidArgumentError):
            SimulationConfig(**{"n_mc": 10, "seed": 1, **kw})

    @pytest.mark.parametrize("alpha", [np.float32(0.05), Fraction(1, 20), np.int64(0),
                                       np.float64(0.05)],
                             ids=["float32", "Fraction", "int64", "float64"])
    def test_any_real_alpha_reaches_the_report(self, alpha):
        config = SimulationConfig(n_mc=5, seed=1, alpha=alpha, adjusted_source="asymptotic")
        assert type(config.alpha) is float and config.alpha == float(alpha)
        report = empirical_size([(10, 10)], config)
        assert json.loads(report.to_json())["alpha"] == float(alpha)
        report.write_csv(io.StringIO())

    def test_python_numbers_are_kept_as_given(self):
        assert type(SimulationConfig(n_mc=5, seed=1, alpha=0).alpha) is int

    def test_numpy_integers_are_stored_as_python_ints(self):
        config = SimulationConfig(n_mc=np.int64(20), seed=np.int64(1), parallelism=np.int32(1),
                                  qr_estimate_nmc=np.int64(20))
        assert [type(getattr(config, name)) for name in
                ("n_mc", "seed", "parallelism", "qr_estimate_nmc")] == [int] * 4
        report = json.loads(empirical_size([(10, 10)], config).to_json())
        assert (report["n_mc"], report["seed"]) == (20, 1)

    @pytest.mark.parametrize("source", ["estimate", "asymptotic"])
    def test_qr_estimate_nmc_below_one(self, source):
        with pytest.raises(InvalidInputError, match="qr_estimate_nmc must be >= 1"):
            SimulationConfig(n_mc=10, seed=1, adjusted_source=source, qr_estimate_nmc=0)


def _tiny_config(**kw):
    defaults = dict(n_mc=200, seed=3, adjusted_source="asymptotic")
    defaults.update(kw)
    return SimulationConfig(**defaults)


class TestEmpiricalSize:
    def test_report_shape_and_flags(self):
        report = empirical_size([(10, 10)], _tiny_config())
        assert report.kind == "size"
        assert len(report.rows) == 8  # 4 flavors x 2 modes
        flavors = {r.flavor for r in report.rows}
        assert flavors == set(OVERALL_FLAVORS)
        for row in report.rows:
            assert 0.0 <= row.rejection_rate <= 1.0
            expected_flag = (
                "conservative" if row.rejection_rate < report.band[0]
                else "liberal" if row.rejection_rate > report.band[1]
                else "ok"
            )
            assert row.flag == expected_flag
            if row.qr_mode == "adjusted":
                assert row.q_hat == pytest.approx(0.6327860 * 20)
            else:
                assert row.q_hat is None
        assert report.rows[0].combo_index == 1  # (10,10) is combo 1 of 12

    def test_bit_reproducible_across_workers(self):
        a = empirical_size([(10, 10)], _tiny_config(n_mc=600))
        b = empirical_size([(10, 10)], _tiny_config(n_mc=600, parallelism=2))
        assert a.to_json() == b.to_json()

    def test_alpha_zero_never_rejects(self):
        report = empirical_size([(10, 10)], _tiny_config(alpha=0.0))
        assert all(r.rejection_rate == 0.0 for r in report.rows)

    def test_argument_errors_are_invalid_input_errors(self):
        assert issubclass(InvalidArgumentError, InvalidInputError)

    def test_combos_may_be_an_iterator(self):
        config = SimulationConfig(n_mc=20, seed=1, qr_estimate_nmc=20)
        combos = [(10, 10), (10, 30)]
        assert (empirical_size(iter(combos), config).to_json()
                == empirical_size(combos, config).to_json())
        alternatives = [("segregation", 0.1), ("association", 0.2)]
        power = empirical_power(alternatives, iter(combos), config)
        assert len(power.rows) == 32  # 2 alternatives x 2 combos x 4 flavors x 2 modes
        assert power.to_json() == empirical_power(alternatives, combos, config).to_json()

    def test_numpy_integer_combos_reach_the_report_as_python_ints(self):
        config = SimulationConfig(n_mc=20, seed=1, qr_estimate_nmc=20)
        report = empirical_size([(np.int64(10), np.int64(10))], config)
        assert {(type(r.n1), type(r.n2)) for r in report.rows} == {(int, int)}
        assert report.to_json() == empirical_size([(10, 10)], config).to_json()

    @pytest.mark.parametrize("combos, match", [
        ([(1, 2)], r"combo \(1, 2\) has n = 3"),
        ([(10, 10), (0, 5)], "class sizes must be >= 1"),
        ([(5.5, 5)], "class sizes must be an integer"),
        ([], "need at least one combo"),
    ], ids=["n-3", "class-0", "class-5.5", "none"])
    def test_bad_combo_raises_before_any_replication(self, monkeypatch, combos, match):
        def never(*args):
            raise AssertionError("the study started before checking its arguments")

        monkeypatch.setattr(montecarlo, "adjusted_qr", never)
        monkeypatch.setattr(montecarlo, "_rejection_chunk", never)
        for source in ("estimate", "asymptotic"):
            with pytest.raises(InvalidArgumentError, match=match):
                empirical_size(combos, _tiny_config(adjusted_source=source))


class TestRejectionChunk:
    def test_counts_match_single_table_tests(self):
        # reference: every replication through covariance_model and the
        # single-table tests, observed then adjusted Q and R
        n1, n2, seed, alpha, q_hat, r_hat = 12, 18, 5, 0.2, 19.0, 18.6
        tests = (dixon_overall, version_I, version_II, version_III)
        expected = np.zeros((4, 2), dtype=np.int64)
        for rep in range(150):
            rng = np.random.default_rng([seed, _STREAM_SIZE, n1, n2, rep])
            pts = generate(PatternSpec("csr", n1, n2), rng)
            nns = compute_nn(pts)
            table = build_nnct(pts, nns)
            for m, (q, r) in enumerate(((nns.Q, nns.R), (q_hat, r_hat))):
                model = covariance_model(n1, n2, n1 + n2, q, r)
                for t, test in enumerate(tests):
                    expected[t, m] += test(table, model).p_value <= alpha
        got = _rejection_chunk("csr", 0.0, n1, n2, seed, alpha, q_hat, r_hat, 0, 150)
        assert expected.sum() > 0
        assert np.array_equal(got[0], expected)
        assert not got[1].any()  # no undefined statistic


def reference_qr_chunk(n, seed, lo, hi):
    """One replication at a time: its own stream, one search, Q/n and R/n."""
    qs, rs = [], []
    for rep in range(lo, hi):
        rng = np.random.default_rng([seed, _STREAM_QR, n, rep])
        nns = compute_nn(LabeledPointSet(rng.random((n, 2)), np.ones(n)))
        qs.append(nns.Q / n)
        rs.append(nns.R / n)
    return np.array(qs), np.array(rs)


def reference_rejection_chunk(kind, param, n1, n2, seed, alpha, q_hat, r_hat, lo, hi):
    """One replication at a time through ``generate``, ``compute_nn`` and the
    single-table tests; a ``DegenerateTestError`` counts as undefined."""
    spec = PatternSpec(kind, n1, n2, param)
    if kind == "csr":
        entropy = (seed, _STREAM_SIZE, n1, n2)
    else:
        entropy = (seed, _STREAM_POWER, _ALT_CODES[kind], int(round(param * 1e9)), n1, n2)
    tests = (dixon_overall, version_I, version_II, version_III)
    out = np.zeros((2, 4, 2), dtype=np.int64)
    for rep in range(lo, hi):
        pts = generate(spec, np.random.default_rng([*entropy, rep]))
        nns = compute_nn(pts)
        table = build_nnct(pts, nns)
        for m, (q, r) in enumerate(((nns.Q, nns.R), (q_hat, r_hat))):
            model = covariance_model(n1, n2, n1 + n2, q, r)
            for t, test in enumerate(tests):
                try:
                    out[0, t, m] += test(table, model).p_value <= alpha
                except DegenerateTestError:
                    out[1, t, m] += 1
    return out


class TestStackedReplications:
    """The chunks search stacks of replications; each replication must still
    give what its own stream gives alone, on both sides of the cutover."""

    @pytest.mark.parametrize("n", [2, 10, 50, _BRUTE_FORCE_MAX, _BRUTE_FORCE_MAX + 1, 300])
    def test_qr_chunk_matches_per_replication_loop(self, n):
        got = _qr_chunk(n, 4, 37, 137)
        expected = reference_qr_chunk(n, 4, 37, 137)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])

    @pytest.mark.parametrize("kind, param, n1, n2", [
        ("csr", 0.0, 12, 18),
        ("csr", 0.0, 90, 110),
        ("segregation", 1 / 3, 30, 40),
        ("segregation", 1 / 6, 100, 100),
        ("association", 0.25, 50, 50),
        ("association", 0.1, 5, 5),
    ])
    def test_rejection_chunk_matches_per_replication_loop(self, kind, param, n1, n2):
        args = (kind, param, n1, n2, 6, 0.3, 0.64 * (n1 + n2), 0.62 * (n1 + n2), 41, 121)
        got = _rejection_chunk(*args)
        assert got[0].sum() > 0
        assert np.array_equal(got, reference_rejection_chunk(*args))

    def test_qr_chunk_memory_is_one_sub_block(self):
        # 2.6 MiB; drawing and searching the whole chunk at once peaks near 47 MiB
        _qr_chunk(_BRUTE_FORCE_MAX + 1, 1, 0, 2)  # imports the kd-tree outside the trace
        tracemalloc.start()
        try:
            _qr_chunk(20000, 1, 0, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


_SEED = st.integers(0, 2**96)
_KEY_INT = st.integers(0, 2**33)


class TestStreamSeeds:
    """A chunk computes its replications' seed words at once; every stream
    must stay that of ``default_rng([*key, rep])``."""

    @settings(max_examples=200, deadline=None)
    @given(key=st.one_of(
        st.tuples(_SEED, st.just(_STREAM_QR), _KEY_INT),
        st.tuples(_SEED, st.just(_STREAM_SIZE), _KEY_INT, _KEY_INT),
        st.tuples(_SEED, st.just(_STREAM_POWER), st.sampled_from(sorted(_ALT_CODES.values())),
                  _KEY_INT, _KEY_INT, _KEY_INT),
        st.tuples(_SEED, st.just(_STREAM_PERM)),
    ))
    # 3 entropy words with the rep: numpy pads the pool of 4 with zeros
    @example(key=(1, _STREAM_PERM))
    def test_seed_words_are_numpys_seed_sequence(self, key):
        # reps 0 and 1, and reps on both sides of 2**32 (one and two words)
        for lo, hi in ((0, 2), (2**32 - 2, 2**32 + 2)):
            got = _seed_words(key, lo, hi)
            expected = [np.random.SeedSequence([*key, rep]).generate_state(4, np.uint64)
                        for rep in range(lo, hi)]
            assert got.dtype == np.uint64
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("key, n, lo, hi", [
        ((7, _STREAM_QR, 30), 30, 0, 5),
        ((2**64 + 5, _STREAM_SIZE, 10, 20), 30, 495, 500),
        ((3, _STREAM_QR, 300), 300, 10, 19),  # two sub-blocks, kd-tree search
    ])
    def test_digraphs_draw_each_replication_from_its_stream(self, key, n, lo, hi):
        drawn = []

        def draw(rng):
            drawn.append(rng.random((n, 2)))
            return drawn[-1]

        nn = np.concatenate([block for _, block, _, _ in _digraphs(key, draw, n, lo, hi)])
        expected = [np.random.default_rng([*key, rep]).random((n, 2)) for rep in range(lo, hi)]
        assert np.array_equal(drawn, expected)
        assert np.array_equal(nn, [compute_nn(LabeledPointSet(c, np.ones(n))).nn_index
                                   for c in expected])

    def test_seed_adapter_answers_only_pcg64s_request(self):
        words = _seed_words((1, _STREAM_QR, 10), 0, 1)[0]
        seed = _word_seed_class()(words)
        assert seed.generate_state(4, np.uint64) is words
        for n_words, dtype in [(4, np.uint32), (8, np.uint32), (8, np.uint64), (2, np.uint64)]:
            with pytest.raises(RuntimeError, match="precomputed stream seeds"):
                seed.generate_state(n_words, dtype)


class TestDegenerateReplications:
    def test_counted_as_non_rejections_and_kept_in_the_denominator(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_draw_points", mutual_pairs)
        report = empirical_size([(10, 10)], _tiny_config(n_mc=7))
        for row in report.rows:
            undefined = row.flavor == "dixon_overall" and row.qr_mode == "observed"
            assert row.n_degenerate == (7 if undefined else 0)
            # the table [[10, 0], [0, 10]] is rejected wherever it is defined
            assert row.rejection_rate == (0.0 if undefined else 1.0)
        rows = json.loads(report.to_json())["rows"]
        assert [r["n_degenerate"] for r in rows] == [r.n_degenerate for r in report.rows]

    def test_non_finite_draw_is_invalid_input(self, monkeypatch):
        # study draws skip LabeledPointSet; each stacked sub-block is checked
        def one_nan(spec, rng):
            coords = mutual_pairs(spec, rng)
            coords[7, 1] = np.nan
            return coords

        monkeypatch.setattr(montecarlo, "_draw_points", one_nan)
        with pytest.raises(InvalidInputError, match="coordinates must be finite"):
            _rejection_chunk("csr", 0.0, 10, 10, 1, 0.05, 12.6, 12.4, 0, 3)


class TestEmpiricalPower:
    def test_report_rows_and_detection(self):
        report = empirical_power(
            [("segregation", 1 / 3)], [(30, 30)], _tiny_config()
        )
        assert report.kind == "power"
        assert len(report.rows) == 8
        for row in report.rows:
            assert row.alternative == "segregation"
            assert row.param == pytest.approx(1 / 3)
        # strong segregation: every test should reject most of the time
        assert all(r.rejection_rate > 0.5 for r in report.rows)

    def test_extreme_segregation_near_certain_rejection(self):
        # s = .45 leaves the class supports nearly disjoint at (50,50)
        report = empirical_power(
            [("segregation", 0.45)], [(50, 50)], _tiny_config(n_mc=200)
        )
        assert all(r.rejection_rate > 0.99 for r in report.rows)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            empirical_power([("csr", 0.1)], [(10, 10)], _tiny_config())
        with pytest.raises(InvalidInputError):
            empirical_power([], [(10, 10)], _tiny_config())


class TestReportSerialization:
    def test_csv_json_and_plot(self):
        report = empirical_size([(10, 10), (12, 9)], _tiny_config(n_mc=50))
        buf = io.StringIO()
        report.write_csv(buf)
        assert "np.float" not in buf.getvalue()  # plain float reprs only
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("combo_index,n1,n2,alternative,")
        assert len(lines) == 1 + 16
        # (12,9) is not one of the 12 standard combos
        assert any(line.startswith(",12,9,") for line in lines[1:])
        data = json.loads(report.to_json())
        assert data["kind"] == "size"
        assert len(data["rows"]) == 16
        plot = io.StringIO()
        report.write_plot_csv(plot)
        plot_lines = plot.getvalue().strip().splitlines()
        assert plot_lines[0] == "combo_index,n1,n2,series,alternative,param,estimate"
        assert len(plot_lines) == 1 + 16


@pytest.mark.slow
class TestSmallSampleSize:
    def test_version_I_liberal_at_10_10(self):
        # at (10,10) version I is known to over-reject (reference size .0593)
        config = SimulationConfig(n_mc=10000, seed=2, adjusted_source="asymptotic")
        report = empirical_size([(10, 10)], config)
        row = next(
            r for r in report.rows
            if r.flavor == "version_I" and r.qr_mode == "observed"
        )
        assert row.rejection_rate == pytest.approx(0.0593, abs=0.008)
        assert row.flag == "liberal"


@pytest.mark.slow
class TestNullQuantile:
    def test_dixon_csr_quantile_near_chi2(self):
        # at (100,100) the .95 quantile of the Dixon statistic under CSR
        # should sit close to the chi-square(2) quantile 5.991
        n1 = n2 = 100
        n = n1 + n2
        reps = 10000
        stats = np.empty(reps)
        spec = PatternSpec("csr", n1, n2)
        for i in range(reps):
            rng = np.random.default_rng([77, i])
            pts = generate(spec, rng)
            nns = compute_nn(pts)
            table = build_nnct(pts, nns)
            m = covariance_model(n1, n2, n, nns.Q, nns.R)
            stats[i] = dixon_overall(table, m).statistic
        q95 = np.quantile(stats, 0.95)
        assert abs(q95 - 5.991) <= 0.4
