"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to see the lines for passing tests too).

The heavy Monte Carlo tiers are marked slow; `pytest -m "not slow"` gives a
quick pass over the closed-form criteria plus the smoke tiers.
"""

import numpy as np
import pytest

from nnct import (
    ContingencyTable,
    DegenerateTestError,
    LabeledPointSet,
    SimulationConfig,
    build_nnct,
    compute_nn,
    covariance_model,
    dixon_overall,
    empirical_power,
    empirical_size,
    estimate_qr,
    run_battery,
    run_battery_from_table,
    size_band,
)
from nnct.segregation import OVERALL_FLAVORS

from conftest import (
    ARTI_COUNTS, ARTI_Q, ARTI_Q_ADJ, ARTI_R, ARTI_R_ADJ,
    SWAMP_COUNTS, SWAMP_Q, SWAMP_Q_ADJ, SWAMP_R, SWAMP_R_ADJ,
)

SEED = 1


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def overall_stats(table, q, r):
    res = run_battery_from_table(table, q, r)[:4]
    return [t.statistic for t in res], [t.p_value for t in res]


def test_criterion_1_swamp_observed():
    table = ContingencyTable.from_counts(SWAMP_COUNTS)
    stats, pvals = overall_stats(table, SWAMP_Q, SWAMP_R)
    target = (52.72, 52.08, 52.14, 52.66)
    ok = all(abs(s - t) <= 0.01 for s, t in zip(stats, target))
    ok = ok and all(p < 1e-4 for p in pvals)
    check("1", ok, f"swamp observed stats {[round(s, 4) for s in stats]} vs {target}")


def test_criterion_2_swamp_adjusted():
    table = ContingencyTable.from_counts(SWAMP_COUNTS)
    stats, _ = overall_stats(table, SWAMP_Q_ADJ, SWAMP_R_ADJ)
    target = (51.98, 51.35, 51.41, 51.92)
    ok = all(abs(s - t) <= 0.01 for s, t in zip(stats, target))
    check("2", ok, f"swamp adjusted stats {[round(s, 4) for s in stats]} vs {target}")


def test_criterion_3_artificial_both_modes():
    table = ContingencyTable.from_counts(ARTI_COUNTS)
    stats, pvals = overall_stats(table, ARTI_Q, ARTI_R)
    s_target = (3.36, 3.02, 3.07, 3.30)
    p_target = (0.1868, 0.0825, 0.2152, 0.0693)
    ok = all(abs(s - t) <= 0.01 for s, t in zip(stats, s_target))
    ok = ok and all(abs(p - t) <= 0.0010 for p, t in zip(pvals, p_target))
    stats_a, pvals_a = overall_stats(table, ARTI_Q_ADJ, ARTI_R_ADJ)
    s_target_a = (3.32, 2.97, 3.04, 3.25)
    p_target_a = (0.1906, 0.0846, 0.2192, 0.0713)
    ok = ok and all(abs(s - t) <= 0.01 for s, t in zip(stats_a, s_target_a))
    ok = ok and all(abs(p - t) <= 0.0010 for p, t in zip(pvals_a, p_target_a))
    check("3", ok,
          f"artificial stats {[round(s, 4) for s in stats]} / "
          f"adjusted {[round(s, 4) for s in stats_a]}")


@pytest.mark.slow
def test_criterion_4_qr_estimates():
    est_1000 = estimate_qr(1000, 10000, seed=SEED)
    est_100 = estimate_qr(100, 10000, seed=SEED)
    ok = (
        abs(est_1000.q_over_n - 0.6328) <= 0.005
        and abs(est_1000.r_over_n - 0.6211) <= 0.005
        and abs(est_100.q_over_n - 0.6337) <= 0.005
        and abs(est_100.r_over_n - 0.6217) <= 0.005
    )
    check("4", ok,
          f"n=1000: ({est_1000.q_over_n:.4f}, {est_1000.r_over_n:.4f}); "
          f"n=100: ({est_100.q_over_n:.4f}, {est_100.r_over_n:.4f})")


@pytest.mark.slow
def test_criterion_5_covariance_oracle():
    rng = np.random.default_rng(SEED)
    n, n1 = 20, 10
    pts = LabeledPointSet(rng.random((n, 2)), np.repeat([1, 2], [n1, n - n1]))
    nns = compute_nn(pts)
    model = covariance_model(n1, n - n1, n, nns.Q, nns.R)

    reps = 200_000
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
    worst = 0.0
    ok = True
    for a in range(4):
        for b in range(a, 4):
            prod = centered[:, a] * centered[:, b]
            emp = prod.sum() / (reps - 1)
            se = np.sqrt(prod.var(ddof=1) / reps)
            pull = abs(emp - model.sigma_full[a, b]) / max(se, 1e-300)
            worst = max(worst, pull)
            ok = ok and pull <= 3.0
    check("5", ok, f"Q={nns.Q}, R={nns.R}; worst |emp-closed| = {worst:.2f} MC SEs")


# Reference empirical sizes and conservative/liberal annotations for the
# standard protocol (four tests x observed/adjusted), frozen per combo.
REFERENCE_SIZES = {
    (30, 30): {
        "observed": ((0.0464, 0.0544, 0.0476, 0.0427), ("ok", "liberal", "ok", "conservative")),
        "adjusted": ((0.0492, 0.0552, 0.0478, 0.0409), ("ok", "liberal", "ok", "conservative")),
    },
    (50, 50): {
        "observed": ((0.0508, 0.0494, 0.0497, 0.0499), ("ok",) * 4),
        "adjusted": ((0.0528, 0.0494, 0.0524, 0.0488), ("ok",) * 4),
    },
    (100, 100): {
        "observed": ((0.0504, 0.0524, 0.0519, 0.0489), ("ok",) * 4),
        "adjusted": ((0.0513, 0.0524, 0.0523, 0.0463), ("ok", "ok", "ok", "conservative")),
    },
}


def _rates_by_mode(report, n1, n2, param=None):
    out = {}
    for mode in ("observed", "adjusted"):
        rows = {
            r.flavor: r
            for r in report.rows
            if r.n1 == n1 and r.n2 == n2 and r.qr_mode == mode and r.param == param
        }
        out[mode] = [rows[f] for f in OVERALL_FLAVORS]
    return out


def test_criterion_6_smoke_band_at_50_50():
    config = SimulationConfig(n_mc=1000, seed=SEED, qr_estimate_nmc=4000)
    report = empirical_size([(50, 50)], config)
    lo, hi = size_band(0.05, 1000)
    rates = [float(r.rejection_rate) for r in report.rows]
    ok = all(lo <= x <= hi for x in rates)
    check("6 (smoke)", ok, f"(50,50) n_mc=1000 rates {rates} in ({lo:.4f}, {hi:.4f})")


@pytest.mark.slow
def test_criterion_6_full_size_reproduction():
    combos = [(30, 30), (50, 50), (100, 100)]
    config = SimulationConfig(n_mc=10000, seed=SEED)
    report = empirical_size(combos, config)
    deviations = []
    flag_hits = 0
    ok_rates = True
    for combo in combos:
        per_mode = _rates_by_mode(report, *combo)
        for mode in ("observed", "adjusted"):
            ref_rates, ref_flags = REFERENCE_SIZES[combo][mode]
            for row, ref_rate, ref_flag in zip(per_mode[mode], ref_rates, ref_flags):
                dev = abs(row.rejection_rate - ref_rate)
                deviations.append(dev)
                ok_rates = ok_rates and dev <= 0.008
                flag_hits += row.flag == ref_flag
    ok = ok_rates and flag_hits >= 20
    check("6 (full)", ok,
          f"max |dev| = {max(deviations):.4f} (<= .008), flags {flag_hits}/24 (>= 20)")


@pytest.mark.slow
def test_criterion_7_power_monotonicity():
    config = SimulationConfig(n_mc=1000, seed=SEED, qr_estimate_nmc=4000)
    seg = empirical_power(
        [("segregation", s) for s in (1 / 6, 1 / 4, 1 / 3)], [(50, 50)], config
    )
    assoc = empirical_power(
        [("association", r) for r in (1 / 4, 1 / 7, 1 / 10)], [(50, 50)], config
    )
    ok = True
    detail = []
    for report, params in ((seg, (1 / 6, 1 / 4, 1 / 3)), (assoc, (1 / 4, 1 / 7, 1 / 10))):
        for mode in ("observed", "adjusted"):
            for t, flavor in enumerate(OVERALL_FLAVORS):
                series = [
                    _rates_by_mode(report, 50, 50, param=p)[mode][t] for p in params
                ]
                for weak, strong in zip(series, series[1:]):
                    slack = 2.0 * np.hypot(weak.mc_se, strong.mc_se)
                    if strong.rejection_rate < weak.rejection_rate - slack:
                        ok = False
                        detail.append(
                            f"{report.rows[0].alternative}/{flavor}/{mode}: "
                            f"{strong.rejection_rate:.3f} < {weak.rejection_rate:.3f}"
                        )
    grow = empirical_power([("segregation", 1 / 4)], [(10, 10), (100, 100)], config)
    small = _rates_by_mode(grow, 10, 10, param=1 / 4)["observed"][1]
    large = _rates_by_mode(grow, 100, 100, param=1 / 4)["observed"][1]
    if large.rejection_rate < small.rejection_rate:
        ok = False
        detail.append(f"(100,100) {large.rejection_rate} < (10,10) {small.rejection_rate}")
    check("7", ok, "; ".join(detail) if detail else
          f"orderings hold; sample-size growth {small.rejection_rate:.3f} -> "
          f"{large.rejection_rate:.3f}")


def test_criterion_8_structural_identities():
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(10, 201))
        n1 = int(rng.integers(2, n - 1))
        pts = LabeledPointSet(rng.random((n, 2)), np.repeat([1, 2], [n1, n - n1]))
        nns = compute_nn(pts)
        k = np.arange(2, 7)
        assert nns.Q % 2 == 0
        q_counts = np.bincount(nns.indegree, minlength=7)[2:]
        assert nns.Q == 2 * int(np.sum(k * (k - 1) // 2 * q_counts))
        assert nns.R >= 2 and nns.R % 2 == 0
        assert np.all(nns.indegree <= 6)
        table = build_nnct(pts, nns)
        assert table.row_sums == (n1, n - n1)
        model = covariance_model(n1, n - n1, n, nns.Q, nns.R)
        assert model.expected[0].sum() == n1
        assert model.expected[1].sum() == n - n1
        # matrix form vs closed form for the Dixon statistic
        stat = dixon_overall(table, model).statistic
        s = model.sigma_full[np.ix_([0, 3], [0, 3])]
        z_aa = (table.counts[0, 0] - model.expected[0, 0]) / np.sqrt(s[0, 0])
        z_bb = (table.counts[1, 1] - model.expected[1, 1]) / np.sqrt(s[1, 1])
        rho = s[0, 1] / np.sqrt(s[0, 0] * s[1, 1])
        closed = (z_aa**2 + z_bb**2 - 2 * rho * z_aa * z_bb) / (1 - rho**2)
        if closed != 0.0:
            worst_rel = max(worst_rel, abs(stat - closed) / abs(closed))
        assert abs(stat - closed) <= 1e-9 * max(1.0, abs(closed))
        # relabel symmetry (a zero column sum degenerates both orientations)
        swapped = LabeledPointSet(pts.points, 3 - pts.labels)
        try:
            originals = run_battery(pts, nns=nns)[:4]
        except DegenerateTestError:
            with pytest.raises(DegenerateTestError):
                run_battery(swapped)
        else:
            for a, b in zip(originals, run_battery(swapped)[:4]):
                assert a.statistic == pytest.approx(b.statistic, rel=1e-9, abs=1e-12)
    check("8", True, f"1000 CSR instances; worst Dixon closed-form rel dev {worst_rel:.2e}")
