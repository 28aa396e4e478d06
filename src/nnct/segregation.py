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

Every variance and covariance depends on the digraph statistics Q and R.
In "observed" mode the computed values condition the tests on the realized
digraph; in "adjusted" mode estimated CSR expectations are substituted,
which removes that conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contingency import (
    ContingencyTable,
    CovarianceModel,
    build_nnct,
    covariance_model,
    tabulate_pairs,
)
from .errors import DegenerateTestError, InvalidInputError
from .geometry import LabeledPointSet, NNStructure, compute_nn
from .numerics import DEFAULT_REL_CUTOFF, chi2_sf, generalized_inverse, normal_sf

FLAVOR_DIXON = "dixon_overall"
FLAVOR_I = "version_I"
FLAVOR_II = "version_II"
FLAVOR_III = "version_III"
OVERALL_FLAVORS = (FLAVOR_DIXON, FLAVOR_I, FLAVOR_II, FLAVOR_III)
CELL_FLAVORS = ("cell_Z_11", "cell_Z_12", "cell_Z_21", "cell_Z_22")


def cell_flavor(i: int, j: int) -> str:
    return f"cell_Z_{i}{j}"


@dataclass(frozen=True)
class QRMode:
    """Which Q and R the variance formulas use: the observed digraph values
    or externally supplied expectations."""

    kind: str
    q_hat: float | None = None
    r_hat: float | None = None

    def __post_init__(self):
        if self.kind not in ("observed", "adjusted"):
            raise InvalidInputError(f"unknown QR mode {self.kind!r}")
        if self.kind == "adjusted":
            if self.q_hat is None or self.r_hat is None:
                raise InvalidInputError("adjusted mode needs q_hat and r_hat")
            if not (self.q_hat > 0 and self.r_hat > 0):
                raise InvalidInputError("adjusted Q and R must be positive")

    @classmethod
    def observed(cls) -> "QRMode":
        return cls(kind="observed")

    @classmethod
    def adjusted(cls, q_hat: float, r_hat: float) -> "QRMode":
        return cls(kind="adjusted", q_hat=float(q_hat), r_hat=float(r_hat))


@dataclass(frozen=True)
class TestResult:
    flavor: str
    statistic: float
    df: int | None
    p_value: float
    qr_mode: str
    q_used: float
    r_used: float


def _result(flavor, statistic, df, p_value, model, qr_kind):
    return TestResult(
        flavor=flavor,
        statistic=float(statistic),
        df=df,
        p_value=float(p_value),
        qr_mode=qr_kind,
        q_used=model.q_used,
        r_used=model.r_used,
    )


def cell_specific_test(
    nnct: ContingencyTable,
    cov_model: CovarianceModel,
    i: int,
    j: int,
    alternative: str = "two-sided",
    qr_kind: str = "observed",
) -> TestResult:
    """Z test of a single cell against its random-labeling expectation.

    ``alternative`` is "two-sided" (default), "greater", or "less".
    """
    if i not in (1, 2) or j not in (1, 2):
        raise InvalidInputError(f"cell indices must be 1 or 2, got ({i}, {j})")
    pos = 2 * (i - 1) + (j - 1)
    var = cov_model.sigma_full[pos, pos]
    if var <= 0.0:
        raise DegenerateTestError(f"cell ({i}, {j}) has zero variance")
    z = (nnct.counts[i - 1, j - 1] - cov_model.expected[i - 1, j - 1]) / np.sqrt(var)
    if alternative == "two-sided":
        p = 2.0 * normal_sf(abs(z))
    elif alternative == "greater":
        p = normal_sf(z)
    elif alternative == "less":
        p = normal_sf(-z)
    else:
        raise InvalidInputError(f"unknown alternative {alternative!r}")
    return _result(cell_flavor(i, j), z, None, min(p, 1.0), cov_model, qr_kind)


def dixon_overall(
    nnct: ContingencyTable,
    cov_model: CovarianceModel,
    qr_kind: str = "observed",
) -> TestResult:
    """Overall segregation test from the two diagonal cells; 2 df."""
    y = np.array(
        [
            nnct.counts[0, 0] - cov_model.expected[0, 0],
            nnct.counts[1, 1] - cov_model.expected[1, 1],
        ]
    )
    sigma = cov_model.dixon_sigma()
    v11, v22, c = sigma[0, 0], sigma[1, 1], sigma[0, 1]
    # positive definite: both variances and the determinant positive (the
    # determinant is positive exactly when the correlation is below 1)
    if not (v11 > 0.0 and v22 > 0.0 and v11 * v22 - c * c > 0.0):
        raise DegenerateTestError(
            "singular 2x2 covariance: a zero variance or perfectly correlated diagonal cells"
        )
    stat = float(y @ np.linalg.solve(sigma, y))
    return _result(FLAVOR_DIXON, stat, 2, chi2_sf(stat, 2), cov_model, qr_kind)


def _cell_margin_vectors(nnct: ContingencyTable):
    n1, n2 = nnct.row_sums
    c1, c2 = nnct.col_sums
    rows = np.array([n1, n1, n2, n2], dtype=float)
    row_of_nn = np.array([n1, n2, n1, n2], dtype=float)
    cols = np.array([c1, c2, c1, c2], dtype=float)
    return rows, row_of_nn, cols


def _scaled_quadratic_form(vec, sigma, scale_vec, n, rel_cutoff):
    """vec' (n * sigma / (scale scale'))^- vec for entrywise-scaled sigma."""
    scaled = n * sigma / np.outer(scale_vec, scale_vec)
    stat = float(vec @ generalized_inverse(scaled, rel_cutoff) @ vec)
    if not np.isfinite(stat):
        raise DegenerateTestError("quadratic form is not finite")
    return stat


def version_I(
    nnct: ContingencyTable,
    cov_model: CovarianceModel,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
    qr_kind: str = "observed",
) -> TestResult:
    """Overall test on residuals against n_i C_j / n; 1 df."""
    rows, _, cols = _cell_margin_vectors(nnct)
    if np.any(cols == 0) or np.any(rows == 0):
        raise DegenerateTestError("zero row or column sum")
    n = nnct.total
    denom = np.sqrt(rows * cols / n)
    vec = (nnct.as_vector() - rows * cols / n) / denom
    stat = _scaled_quadratic_form(
        vec, cov_model.sigma_full, np.sqrt(rows * cols), n, rel_cutoff
    )
    return _result(FLAVOR_I, stat, 1, chi2_sf(stat, 1), cov_model, qr_kind)


def version_II(
    nnct: ContingencyTable,
    cov_model: CovarianceModel,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
    qr_kind: str = "observed",
) -> TestResult:
    """Overall test on residuals against n_i n_j / n; 2 df."""
    rows, row_of_nn, _ = _cell_margin_vectors(nnct)
    if np.any(rows == 0):
        raise DegenerateTestError("zero row sum")
    n = nnct.total
    denom = np.sqrt(rows * row_of_nn / n)
    vec = (nnct.as_vector() - rows * row_of_nn / n) / denom
    stat = _scaled_quadratic_form(
        vec, cov_model.sigma_full, np.sqrt(rows * row_of_nn), n, rel_cutoff
    )
    return _result(FLAVOR_II, stat, 2, chi2_sf(stat, 2), cov_model, qr_kind)


def version_III(
    nnct: ContingencyTable,
    cov_model: CovarianceModel,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
    qr_kind: str = "observed",
) -> TestResult:
    """Overall test using both row and column sums; 1 df.

    The deviation vector subtracts column-sum based expectations,
    T_ij = N_ij - w_ij C_j with w_ii = (n_i - 1)/(n - 1) and
    w_ij = n_i/(n - 1), which is exactly mean-zero under random labeling.
    It is paired with the generalized inverse of the cell-count covariance.
    """
    rows, _, cols = _cell_margin_vectors(nnct)
    n = nnct.total
    n1, n2 = nnct.row_sums
    weights = np.array([n1 - 1, n1, n2, n2 - 1], dtype=float) / (n - 1)
    vec = nnct.as_vector() - weights * cols
    stat = float(vec @ generalized_inverse(cov_model.sigma_full, rel_cutoff) @ vec)
    if not np.isfinite(stat):
        raise DegenerateTestError("quadratic form is not finite")
    return _result(FLAVOR_III, stat, 1, chi2_sf(stat, 1), cov_model, qr_kind)


def _model_for(nnct, q_obs, r_obs, qr_mode):
    n1, n2 = nnct.row_sums
    if qr_mode.kind == "observed":
        return covariance_model(n1, n2, nnct.total, q_obs, r_obs)
    return covariance_model(n1, n2, nnct.total, qr_mode.q_hat, qr_mode.r_hat)


def run_battery_from_table(
    nnct: ContingencyTable,
    q: float,
    r: float,
    qr_mode: QRMode | None = None,
    alternative: str = "two-sided",
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
) -> list[TestResult]:
    """All four overall tests plus the four cell Z tests from a table and
    its digraph statistics (no coordinates needed)."""
    qr_mode = qr_mode or QRMode.observed()
    model = _model_for(nnct, q, r, qr_mode)
    kind = qr_mode.kind
    results = [
        dixon_overall(nnct, model, qr_kind=kind),
        version_I(nnct, model, rel_cutoff, qr_kind=kind),
        version_II(nnct, model, rel_cutoff, qr_kind=kind),
        version_III(nnct, model, rel_cutoff, qr_kind=kind),
    ]
    for i in (1, 2):
        for j in (1, 2):
            results.append(
                cell_specific_test(nnct, model, i, j, alternative, qr_kind=kind)
            )
    return results


def run_battery(
    pts: LabeledPointSet,
    qr_mode: QRMode | None = None,
    alternative: str = "two-sided",
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
    nns: NNStructure | None = None,
) -> list[TestResult]:
    """Full test battery for a labeled point set.

    Observed mode uses the point set's own Q and R; adjusted mode keeps the
    same table and expectations but substitutes the supplied values into the
    variances.
    """
    if nns is None:
        nns = compute_nn(pts)
    nnct = build_nnct(pts, nns)
    return run_battery_from_table(nnct, nns.Q, nns.R, qr_mode, alternative, rel_cutoff)


_PERM_STREAM_TAG = 4


def _statistic_only(flavor, nnct, model, rel_cutoff):
    if flavor == FLAVOR_DIXON:
        return dixon_overall(nnct, model).statistic
    if flavor == FLAVOR_I:
        return version_I(nnct, model, rel_cutoff).statistic
    if flavor == FLAVOR_II:
        return version_II(nnct, model, rel_cutoff).statistic
    if flavor == FLAVOR_III:
        return version_III(nnct, model, rel_cutoff).statistic
    if flavor in CELL_FLAVORS:
        i, j = int(flavor[-2]), int(flavor[-1])
        # two-sided analogue: extremeness measured by |Z|
        return abs(cell_specific_test(nnct, model, i, j).statistic)
    raise InvalidInputError(f"unknown test flavor {flavor!r}")


def permutation_pvalue(
    pts: LabeledPointSet,
    flavor: str,
    n_perm: int,
    seed: int,
    qr_mode: QRMode | None = None,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
) -> float:
    """Random-labeling permutation p-value for one test flavor.

    Labels are permuted uniformly over the fixed point set; the NN digraph,
    margins, Q and R are all invariant, so only the table (and for tests
    that use them, the column sums) changes per permutation.  Returns
    (1 + #{permuted statistic >= observed}) / (1 + n_perm).  Reproducible:
    permutation i draws from a substream keyed by (seed, i).
    """
    if n_perm < 99:
        raise InvalidInputError(f"need at least 99 permutations, got {n_perm}")
    n1, n2 = pts.class_sizes
    if n1 == 0 or n2 == 0:
        raise InvalidInputError("both classes need members")
    nns = compute_nn(pts)
    nnct = build_nnct(pts, nns)
    qr_mode = qr_mode or QRMode.observed()
    model = _model_for(nnct, nns.Q, nns.R, qr_mode)
    observed = _statistic_only(flavor, nnct, model, rel_cutoff)

    at_least = 0
    for idx in range(n_perm):
        rng = np.random.default_rng([seed, _PERM_STREAM_TAG, idx])
        permuted = rng.permutation(pts.labels)
        table = ContingencyTable(tabulate_pairs(permuted, nns.nn_index))
        if _statistic_only(flavor, table, model, rel_cutoff) >= observed:
            at_least += 1
    return (1 + at_least) / (1 + n_perm)
