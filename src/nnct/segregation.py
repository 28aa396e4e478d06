"""Segregation and association tests on the 2x2 NNCT.

Four overall tests plus four cell-specific Z tests:

* ``dixon_overall`` -- quadratic form of the diagonal deviations
  (N11 - E[N11], N22 - E[N22]) against their 2x2 covariance; chi-square
  with 2 df.
* ``version_I`` -- Pearson-style residuals (N_ij - n_i C_j / n) scaled by
  sqrt(n_i C_j / n), paired with the correspondingly scaled cell-count
  covariance and its generalized inverse; 1 df.  Conditional on the
  observed column sums.
* ``version_II`` -- residuals against n_i n_j / n, scaled by
  sqrt(n_i n_j / n); 2 df.  Asymptotically equivalent to ``dixon_overall``.
* ``version_III`` -- cell deviations from column-sum based expectations
  (weights (n_i - 1)/(n - 1) on the diagonal, n_i/(n - 1) off it), paired
  with the generalized inverse of the cell-count covariance; 1 df.
* ``cell_specific_test`` -- Z_ij = (N_ij - E[N_ij]) / sd, standard normal.

The fixed row sums confine each covariance of versions I-III to a known 2-D
range, so their generalized-inverse forms are 2x2 forms on it, as Dixon's
is on its block; all four share ``_range_form`` and its one rank rule.

Every variance and covariance depends on the digraph statistics Q and R.
The observed values condition the tests on the realized digraph;
substituting estimated CSR expectations (the QR-adjusted tests) removes that
conditioning.  Callers pass the Q and R they want.

One kernel, ``_statistic_only``, computes every statistic, for a stack of
tables at once; the test functions are single-table wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry
from .contingency import (
    ContingencyTable,
    CovarianceModel,
    build_nnct,
    cell_covariance,
    covariance_model,
    expected_counts,
    tabulate_pairs,
)
from .errors import (DegenerateTestError, InvalidArgumentError, InvalidInputError,
                     check_count, check_seed)
from .geometry import LabeledPointSet, compute_nn
from .numerics import DEFAULT_REL_CUTOFF, chi2_sf, normal_sf

FLAVOR_DIXON = "dixon_overall"
FLAVOR_I = "version_I"
FLAVOR_II = "version_II"
FLAVOR_III = "version_III"
OVERALL_FLAVORS = (FLAVOR_DIXON, FLAVOR_I, FLAVOR_II, FLAVOR_III)
CELL_FLAVORS = ("cell_Z_11", "cell_Z_12", "cell_Z_21", "cell_Z_22")
# chi-square degrees of freedom of each overall test
OVERALL_DF = {FLAVOR_DIXON: 2, FLAVOR_I: 1, FLAVOR_II: 2, FLAVOR_III: 1}


@dataclass(frozen=True)
class TestResult:
    flavor: str
    statistic: float
    df: int | None
    p_value: float


def _range_form(m11, m12, m22, y1, y2):
    """y' M^+ y for each symmetric 2x2 M = [[m11, m12], [m12, m22]] and
    2-vector y, elementwise over equal-shape arrays, and whether M is full
    rank by the rule of ``generalized_inverse``: lam > 0 and det M >
    DEFAULT_REL_CUTOFF * lam^2, lam the larger eigenvalue.  Otherwise the
    smaller eigenvalue is dropped, leaving (v.y)^2 / lam on its unit
    eigenvector v, and a matrix with lam <= 0 gives 0.  The form is PSD, so a
    value that rounds below zero is clamped to 0; NaN stays NaN (not full).
    """
    half_gap = 0.5 * (m11 - m22)
    root = np.sqrt(half_gap * half_gap + m12 * m12)
    lam = 0.5 * (m11 + m22) + root
    det = m11 * m22 - m12 * m12
    zero = lam <= 0.0
    full = ~zero & (det > DEFAULT_REL_CUTOFF * lam * lam)  # False on NaN
    # the top eigenvector (lam - m22, m12) or (m12, lam - m11), whichever is
    # longer; both lam - m22 = root + half_gap and lam - m11 = root - half_gap
    # are >= 0, so the longer one has no cancellation
    first = half_gap >= 0.0
    v1 = np.where(first, root + half_gap, m12)
    v2 = np.where(first, m12, root - half_gap)
    proj = v1 * y1 + v2 * y2
    rank1 = proj * proj / np.where(full | zero, 1.0, (v1 * v1 + v2 * v2) * lam)
    form = (m22 * y1 * y1 - 2.0 * m12 * y1 * y2 + m11 * y2 * y2) / np.where(full, det, 1.0)
    return np.where(zero, 0.0, np.maximum(np.where(full, form, rank1), 0.0)), full


def _statistic_only(flavor, counts, sigma):
    """Statistic of test ``flavor`` for each table of a ``(B, 2, 2)`` stack
    that shares its row sums, against the 4x4 cell-count covariance
    ``sigma`` (one matrix for all tables, or a ``(B, 4, 4)`` stack).

    Returns a float array of length B; NaN marks a table whose test is
    undefined (a zero variance, a Dixon block that is not full rank, a
    zero row or column sum where the test divides by it, or a non-finite
    quadratic form).  Each value depends only on its own table and
    covariance.  Cell flavors give the signed Z.
    """
    # int64 cells: (n11 - n12) * (n - 1) below overflows int32 at large n
    counts = np.asarray(counts, dtype=np.int64)
    rows = counts.sum(axis=2)
    if (rows != rows[0]).any():
        raise InvalidInputError("the tables of a stack must share their row sums")
    n1, n2 = int(rows[0, 0]), int(rows[0, 1])
    n = n1 + n2
    b = counts.shape[0]
    n11, n12, n21, n22 = counts.reshape(b, 4).T
    c1, c2 = n11 + n21, n12 + n22
    bad = np.zeros(b, dtype=bool)  # undefined although the value may be finite

    if flavor == FLAVOR_DIXON:
        expected = expected_counts(n1, n2, n)
        stat, full = _range_form(sigma[..., 0, 0], sigma[..., 0, 3], sigma[..., 3, 3],
                                 n11 - expected[0, 0], n22 - expected[1, 1])
        bad = ~full
    elif flavor in (FLAVOR_I, FLAVOR_II, FLAVOR_III):
        # vec' m^+ vec on the range of m, the covariance of vec: sigma for
        # III, and for I and II sigma scaled by diag(sqrt(n / (n_i o_j))),
        # with o = (C1, C2) for I, (n1, n2) for II and (1, 1) for III.  The
        # fixed row sums put the range on w1 = (o2, -o1, 0, 0) and
        # w2 = (0, 0, o2, -o1) before the scaling.  Up to factors that
        # cancel, the form is y' G^+ y / scale with
        # G_ij = w_i' sigma w_j / sqrt(r_i r_j), y_i = p_i / sqrt(r_i) and
        # r = (n1, n2) for I and II, (1, 1) for III; the projections'
        # numerators p are integers, so a vec in the null space scores 0.
        if flavor == FLAVOR_III:
            # T_ij = N_ij - w_ij C_j against sigma itself
            o1 = o2 = r1 = r2 = 1
            p1 = (n11 - n12) * (n - 1) - (n1 - 1) * c1 + n1 * c2
            p2 = (n21 - n22) * (n - 1) - n2 * c1 + (n2 - 1) * c2
            scale = (n - 1) ** 2
        else:
            o1, o2 = (c1, c2) if flavor == FLAVOR_I else (n1, n2)
            bad = np.full(b, n1 == 0 or n2 == 0)
            if flavor == FLAVOR_I:
                bad |= (c1 == 0) | (c2 == 0)
            r1, r2 = max(n1, 1), max(n2, 1)
            p1 = o2 * n11 - o1 * n12
            p2 = o2 * n21 - o1 * n22
            scale = 1
        oo, o11, o22 = o1 * o2, o1 * o1, o2 * o2
        s = sigma
        g11 = o22 * s[..., 0, 0] - 2 * oo * s[..., 0, 1] + o11 * s[..., 1, 1]
        g12 = o22 * s[..., 0, 2] - oo * (s[..., 0, 3] + s[..., 1, 2]) + o11 * s[..., 1, 3]
        g22 = o22 * s[..., 2, 2] - 2 * oo * s[..., 2, 3] + o11 * s[..., 3, 3]
        stat = _range_form(g11 / r1, g12 / np.sqrt(r1 * r2), g22 / r2,
                           p1 / np.sqrt(r1), p2 / np.sqrt(r2))[0] / scale
    elif flavor in CELL_FLAVORS:
        pos = CELL_FLAVORS.index(flavor)
        expected = expected_counts(n1, n2, n).ravel()[pos]
        var = sigma[..., pos, pos]
        bad = ~(var > 0.0)
        stat = ((n11, n12, n21, n22)[pos] - expected) / np.sqrt(np.where(bad, 1.0, var))
    else:
        raise InvalidArgumentError(f"unknown test flavor {flavor!r}")
    return np.where(bad | ~np.isfinite(stat), np.nan, stat)


def _check_alternative(alternative):
    if alternative not in ("two-sided", "greater", "less"):
        raise InvalidArgumentError(f"unknown alternative {alternative!r}")


def _single(flavor, nnct, cov_model):
    sigma = np.asarray(cov_model.sigma_full)
    if sigma.shape != (4, 4):
        raise InvalidInputError("the model's covariance must be one 4x4 matrix")
    if tuple(cov_model.expected.sum(axis=1)) != nnct.row_sums:  # expected rows sum exactly
        raise InvalidInputError("the model's class sizes differ from the table's row sums")
    stat = float(_statistic_only(flavor, nnct.counts[None], sigma)[0])
    if np.isnan(stat):
        raise DegenerateTestError(
            f"{flavor} is undefined for this table: a zero variance or margin, "
            "or a singular covariance"
        )
    return stat


def cell_specific_test(
    nnct: ContingencyTable,
    cov_model: CovarianceModel,
    i: int,
    j: int,
    alternative: str = "two-sided",
) -> TestResult:
    """Z test of a single cell against its random-labeling expectation.

    ``alternative`` is "two-sided" (default), "greater", or "less".
    """
    if i not in (1, 2) or j not in (1, 2):
        raise InvalidArgumentError(f"cell indices must be 1 or 2, got ({i}, {j})")
    _check_alternative(alternative)
    flavor = CELL_FLAVORS[2 * (i - 1) + (j - 1)]
    z = _single(flavor, nnct, cov_model)
    if alternative == "two-sided":
        p = 2.0 * normal_sf(abs(z))
    else:
        p = normal_sf(z if alternative == "greater" else -z)
    return TestResult(flavor, z, None, min(p, 1.0))


def _overall(flavor, nnct, cov_model):
    stat = _single(flavor, nnct, cov_model)
    df = OVERALL_DF[flavor]
    return TestResult(flavor, stat, df, chi2_sf(stat, df))


def dixon_overall(nnct: ContingencyTable, cov_model: CovarianceModel) -> TestResult:
    """Overall segregation test from the two diagonal cells; 2 df."""
    return _overall(FLAVOR_DIXON, nnct, cov_model)


def version_I(nnct: ContingencyTable, cov_model: CovarianceModel) -> TestResult:
    """Overall test on residuals against n_i C_j / n; 1 df."""
    return _overall(FLAVOR_I, nnct, cov_model)


def version_II(nnct: ContingencyTable, cov_model: CovarianceModel) -> TestResult:
    """Overall test on residuals against n_i n_j / n; 2 df."""
    return _overall(FLAVOR_II, nnct, cov_model)


def version_III(nnct: ContingencyTable, cov_model: CovarianceModel) -> TestResult:
    """Overall test using both row and column sums; 1 df.

    The deviation vector subtracts column-sum based expectations,
    T_ij = N_ij - w_ij C_j with w_ii = (n_i - 1)/(n - 1) and
    w_ij = n_i/(n - 1), which is exactly mean-zero under random labeling.
    It is paired with the generalized inverse of the cell-count covariance,
    evaluated in closed form on that covariance's 2-D range.
    """
    return _overall(FLAVOR_III, nnct, cov_model)


def run_battery_from_table(
    nnct: ContingencyTable,
    q: float,
    r: float,
    alternative: str = "two-sided",
) -> list[TestResult]:
    """All four overall tests plus the four cell Z tests from a table and
    the Q and R its variances use (no coordinates needed): the table's own
    digraph statistics, or substituted CSR expectations."""
    _check_alternative(alternative)
    n1, n2 = nnct.row_sums
    model = covariance_model(n1, n2, nnct.total, q, r)
    results = [
        dixon_overall(nnct, model),
        version_I(nnct, model),
        version_II(nnct, model),
        version_III(nnct, model),
    ]
    for i in (1, 2):
        for j in (1, 2):
            results.append(cell_specific_test(nnct, model, i, j, alternative))
    return results


def run_battery(
    pts: LabeledPointSet,
    qr: tuple[float, float] | None = None,
) -> list[TestResult]:
    """Full test battery for a labeled point set, with two-sided cell tests.

    With ``qr=None`` the variances use the point set's own Q and R; a
    ``(q, r)`` pair, such as ``adjusted_qr(...)``, keeps the same table and
    expectations but substitutes those values into the variances.
    """
    nns = compute_nn(pts)
    nnct = build_nnct(pts, nns)
    q, r = qr if qr is not None else (nns.Q, nns.R)
    return run_battery_from_table(nnct, q, r)


# permutations per random stream: permutations 64b .. 64b + 63 draw from
# one generator keyed by (seed, montecarlo._STREAM_PERM, b)
_PERM_BLOCK = 64
# labels drawn and tabulated at once: each thread's (rows x points) float64
# draw, boolean labels and gathered NN labels take at most 160 kB up to
# n = 2^14 and are one row above it (2^15 raised the benchmark's peak RSS
# by more than its spread, and 2^18 took 2.25 MB per thread); no p-value
# depends on it
_PERM_BLOCK_ENTRIES = 1 << 14
# a run of at most this many labels (n_perm * n) stays serial: sharing costs
# ~0.1-0.2 ms per call (thread start, GIL handoffs; 2 vCPUs), which shorter
# runs did not win back; no p-value depends on it
_PERM_SERIAL_LABELS = 1 << 18
# stored tables scored at once, at most ~260 bytes of temporaries each
# (version_I): on 99999 tables (n = 1000, 2-vCPU Xeon, numpy 2.4) version_I
# took 15.6, 10.9, 13.6 and 14.8 ms with 2^10, 2^12, 2^14 and 2^16 (peaks
# 0.3, 1.1, 4.2 and 16.3 MiB); no p-value depends on it
_PERM_SCORE_TABLES = 1 << 12
# a permuted statistic within this relative distance below the observed one
# counts as a tie: equal statistics of different tables can round ulps apart
_TIE_RTOL = 1e-9


@lru_cache(maxsize=1)
def _permutation_run(coords: bytes, flags: bytes, n_perm: int, seed: int):
    """The part of a permutation p-value that no flavor changes, for the
    set whose float64 ``(n, 2)`` coordinates and bool class-1 flags have the
    bytes ``coords`` and ``flags``: its 4x4 cell-count covariance at its
    own Q and R, its observed table, and the ``n_perm`` permuted tables, as
    an ``(n_perm, 2, 2)`` int32 array.  Each array is read-only.  Keyed by
    content, so a set whose points or labels change in place misses; the
    last run stays held.

    Each 64-permutation block is one job of ``geometry._shared``: it draws
    its labelings from its own generator and tabulates them into its own
    rows of the tables, one sub-block of ``_PERM_BLOCK_ENTRIES // n`` rows
    at a time, with buffers of its own, so that the tables do not depend on
    which thread ran which block.
    """
    from .montecarlo import _STREAM_PERM, _streams  # montecarlo imports this module

    flags = np.frombuffer(flags, dtype=bool)
    n = flags.size
    n1 = int(np.count_nonzero(flags))
    # the in-degrees are dropped at once: the draw below is the peak
    nn = geometry._nn_indices(np.frombuffer(coords).reshape(n, 2))
    q, r = geometry.digraph_q_r(nn)[1:]
    sigma = cell_covariance(n1, n - n1, n, q, r)
    observed = tabulate_pairs(flags, nn)
    class1 = flags.astype(float)
    rows = max(1, _PERM_BLOCK_ENTRIES // n)
    blocks = -(-n_perm // _PERM_BLOCK)
    cpus = 1 if n_perm * n <= _PERM_SERIAL_LABELS else min(geometry._search_cpus(), blocks)
    tables = np.empty((n_perm, 2, 2), dtype=np.int32)

    def block(job):
        """Draw the permutations of the block starting at ``lo`` from its
        generator and tabulate them into their rows of ``tables``, ``rows``
        at a time."""
        lo, rng = job
        stop = min(lo + _PERM_BLOCK, n_perm)
        drawn = np.empty((min(rows, stop - lo), n))
        labels = np.empty(drawn.shape, dtype=bool)
        for start in range(lo, stop, rows):
            out = drawn[:min(rows, stop - start)]
            rng.permuted(np.broadcast_to(class1, out.shape), axis=1, out=out)
            part = np.equal(out, 1, out=labels[:len(out)])
            tables[start:start + len(part)] = tabulate_pairs(part, nn)

    streams = _streams((seed, _STREAM_PERM), 0, blocks)
    geometry._shared(block, zip(range(0, n_perm, _PERM_BLOCK), streams), cpus)
    for a in (sigma, observed, tables):
        a.flags.writeable = False  # shared by every later call with this key
    return sigma, observed, tables


def permutation_pvalue(
    pts: LabeledPointSet,
    flavor: str,
    n_perm: int,
    seed: int,
) -> float:
    """Random-labeling permutation p-value for one test flavor.

    Labels are permuted uniformly over the fixed point set; the NN digraph,
    margins, Q and R are all invariant, so only the table (and for tests
    that use them, the column sums) changes per permutation.  A permutation
    test is a random-labeling test, so its variances use the set's own Q
    and R.  Cell flavors are two-sided: extremeness is |Z|.  Returns
    (1 + #{permuted statistic >= observed}) / (1 + n_perm), where a
    statistic within a relative 1e-9 below the observed one counts as a tie
    and a permuted labeling whose statistic is undefined does not count.
    An undefined observed statistic raises ``DegenerateTestError``.

    Reproducible: permutations 64b .. 64b + 63 are the successive
    ``permutation`` draws of ``default_rng([seed, 4, b])``.  They are taken
    with ``Generator.permuted(axis=1)`` on float64 class-1 indicators, in
    sub-blocks of ``max(1, _PERM_BLOCK_ENTRIES // n)`` rows from the same
    generator, each tabulated as booleans once drawn.  numpy shuffles 8-byte
    items on its fastest path and draws the same permutations at every item
    size, so neither the item type nor the sub-blocks change a p-value.

    A run of more than ``_PERM_SERIAL_LABELS`` labels (``n_perm * n``) is
    shared: the calling thread and ``_search_cpus() - 1`` helper threads
    (numpy's shuffle releases the GIL) each draw and tabulate whole blocks
    into the blocks' own rows of the stored tables.  So no p-value depends
    on the thread count, and each thread holds one sub-block at a time.

    The permuted tables do not depend on the flavor, so the last run is
    kept: another flavor on the same coordinates, labels, ``n_perm`` and
    ``seed`` only scores the stored tables, ``_PERM_SCORE_TABLES`` at a
    time.  Until a call with another of those keys replaces it, the run
    holds a copy of the coordinates and class-1 flags (17 bytes per point)
    and each permuted table as four int32 cells (16 bytes per permutation).
    """
    if flavor not in OVERALL_FLAVORS + CELL_FLAVORS:
        raise InvalidArgumentError(f"unknown test flavor {flavor!r}")
    n_perm = check_count(n_perm, "n_perm", 99)
    seed = check_seed(seed)
    n1, n2 = pts.class_sizes
    if n1 == 0 or n2 == 0:
        raise InvalidInputError(f"both classes need members, got class sizes ({n1}, {n2})")
    flags = (pts.labels == 1).tobytes()
    sigma, table, tables = _permutation_run(pts.points.tobytes(), flags, n_perm, seed)

    def extremeness(counts):
        stats = _statistic_only(flavor, counts, sigma)
        return np.abs(stats) if flavor in CELL_FLAVORS else stats

    observed = extremeness(table[None])[0]
    if np.isnan(observed):
        raise DegenerateTestError(f"{flavor} is undefined for the observed labeling")
    threshold = observed - _TIE_RTOL * abs(observed)
    at_least = 0
    for lo in range(0, n_perm, _PERM_SCORE_TABLES):
        stats = extremeness(tables[lo:lo + _PERM_SCORE_TABLES])
        at_least += int(np.count_nonzero(stats >= threshold))  # NaN compares False
    return (1 + at_least) / (1 + n_perm)
