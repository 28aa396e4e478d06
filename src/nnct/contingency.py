"""2x2 nearest-neighbor contingency table and its moment model.

Cross-tabulating the n (base, NN) pairs by base class (rows) and NN class
(columns) gives the table

                 NN 1    NN 2   sum
    base 1       N11     N12    n1
    base 2       N21     N22    n2
    sum          C1      C2     n

Row sums are the fixed class sizes; column sums and cell counts are random.
Under random labeling the cell counts are join counts over the arcs of the
NN digraph, which yields closed-form expectations and a full 4x4 covariance
matrix in terms of the margins and the digraph statistics Q and R.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, InvalidInputError, check_integral
from .geometry import LabeledPointSet, NNStructure

# Row-wise cell order used for every 4-vector and 4x4 matrix in the package.
CELL_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 NNCT of (base class, NN class) pair counts."""

    counts: np.ndarray

    def __post_init__(self):
        c = check_integral(self.counts, "cell counts")
        if c.shape != (2, 2):
            raise InvalidInputError(f"counts must be 2x2, got shape {c.shape}")
        if np.any(c < 0):
            raise InvalidInputError("cell counts must be nonnegative")
        object.__setattr__(self, "counts", c)

    @classmethod
    def from_counts(cls, counts) -> "ContingencyTable":
        return cls(counts=counts)

    @property
    def row_sums(self) -> tuple[int, int]:
        s = self.counts.sum(axis=1)
        return int(s[0]), int(s[1])

    @property
    def col_sums(self) -> tuple[int, int]:
        s = self.counts.sum(axis=0)
        return int(s[0]), int(s[1])

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def tabulate_pairs(labels: np.ndarray, nn_index: np.ndarray) -> np.ndarray:
    """Raw 2x2 table of (base label, NN label) pair counts.

    ``labels`` may also be a ``(..., n)`` stack of labelings of the same
    digraph (class 1 marked by 1 or True), and ``nn_index`` a ``(..., n)``
    stack of digraphs sharing one labeling; either gives a ``(..., 2, 2)``
    stack of tables.
    """
    base1 = np.asarray(labels) == 1
    nn1 = base1[..., nn_index]
    n1 = base1.sum(axis=-1)
    n11 = (base1 & nn1).sum(axis=-1)
    n21 = nn1.sum(axis=-1) - n11
    table = np.empty(n11.shape + (2, 2), dtype=np.int64)
    table[..., 0, 0] = n11
    table[..., 0, 1] = n1 - n11
    table[..., 1, 0] = n21
    table[..., 1, 1] = base1.shape[-1] - n1 - n21
    return table


def build_nnct(pts: LabeledPointSet, nns: NNStructure) -> ContingencyTable:
    """Cross-tabulate the (base, NN) pairs of a two-class point set.

    Raises
    ------
    InvalidInputError
        If either class has no members (the table would be degenerate).
    """
    n1, n2 = pts.class_sizes
    if n1 == 0 or n2 == 0:
        raise InvalidInputError(
            f"both classes need members, got class sizes ({n1}, {n2})"
        )
    return ContingencyTable(tabulate_pairs(pts.labels, nns.nn_index))


def expected_counts(n1: int, n2: int, n: int) -> np.ndarray:
    """Expected cell counts under random labeling.

    E[N_ii] = n_i (n_i - 1) / (n - 1) and E[N_ij] = n_i n_j / (n - 1); the
    expectations depend on class sizes only.  The off-diagonal entry is
    evaluated as the row remainder n_i - E[N_ii] (algebraically identical)
    so each row sums to n_i exactly, ulps included.
    """
    n1, n2, n = _check_margins(n1, n2, n, minimum=2)
    e11 = n1 * (n1 - 1) / (n - 1)
    e22 = n2 * (n2 - 1) / (n - 1)
    return np.array([[e11, n1 - e11], [n2 - e22, e22]])


def _falling(n: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= n - i
    return out


def _multiset_prob(n1: int, n2: int, n: int, c1: int, c2: int) -> float:
    """P(c1 + c2 distinct points have c1 class-1 and c2 class-2 labels).

    Exactly zero when a class has fewer than the required members, or the
    set fewer than c1 + c2 points.
    """
    den = _falling(n, c1 + c2)
    if den <= 0.0:
        return 0.0
    return _falling(n1, c1) * _falling(n2, c2) / den


@dataclass(frozen=True)
class CovarianceModel:
    """Moment model of the four cell counts for given margins and (Q, R).

    ``sigma_full`` is the symmetric 4x4 covariance matrix of the cell
    counts in CELL_ORDER; ``expected`` the 2x2 expectation matrix.  Q and R
    enter only the (co)variances, never the expectations, and may be
    real-valued (the adjusted tests substitute estimated expectations).
    """

    expected: np.ndarray
    sigma_full: np.ndarray


def _check_margins(n1: int, n2: int, n: int, minimum: int) -> tuple[int, int, int]:
    """The margins as ints: integers, or floats with integral values, that
    add up; anything else is refused, never used as a fractional size."""
    try:
        sizes = [int(v) for v in (n1, n2, n)]
        integral = sizes == [n1, n2, n]
    except (TypeError, ValueError, OverflowError):  # text, complex, NaN, inf
        integral = False
    if not integral:
        raise InvalidArgumentError(
            f"class sizes must be integers, got n1={n1!r}, n2={n2!r}, n={n!r}")
    n1, n2, n = sizes
    if n1 < 0 or n2 < 0 or n1 + n2 != n:
        raise InvalidInputError(f"inconsistent margins: n1={n1}, n2={n2}, n={n}")
    if n < minimum:
        raise InvalidInputError(f"need at least {minimum} points, got n={n}")
    return n1, n2, n


def _cov_entry_coeffs(i, j, k, l, n1, n2, n) -> tuple[float, float, float]:
    """Coefficients (c0, cq, cr) of Cov[N_ij, N_kl] = c0 + cq*Q + cr*R.

    The second moment decomposes over ordered pairs of digraph arcs, which
    fall into six disjoint configurations: the same arc (n of them),
    reversed arcs (R), arcs sharing their head (Q), head-to-tail chains in
    either orientation (n - R each), and fully disjoint pairs
    (n^2 - 3n - Q + R).  Each configuration contributes the probability
    that its distinct points carry the required labels, so every entry is
    affine in Q and R for fixed margins.
    """
    p = lambda *classes: _multiset_prob(
        n1, n2, n, sum(1 for c in classes if c == 1), sum(1 for c in classes if c == 2)
    )
    c0 = cq = cr = 0.0
    if (i, j) == (k, l):
        c0 += n * p(i, j)
    if (i, j) == (l, k):
        cr += p(i, j)
    if j == l:
        cq += p(i, k, j)
    if j == k:
        p3 = p(i, j, l)
        c0 += n * p3
        cr -= p3
    if i == l:
        p3 = p(i, j, k)
        c0 += n * p3
        cr -= p3
    p4 = p(i, j, k, l)
    c0 += (n * n - 3.0 * n) * p4
    cq -= p4
    cr += p4
    c0 -= n * n * p(i, j) * p(k, l)
    return c0, cq, cr


@lru_cache(maxsize=64)
def _sigma_basis(n1: int, n2: int, n: int):
    """sigma(Q, R) = S0 + Q*Sq + R*Sr, so repeated evaluation at new
    (Q, R) values is three scaled adds of fixed 4x4 matrices."""
    s0 = np.empty((4, 4))
    sq = np.empty((4, 4))
    sr = np.empty((4, 4))
    for a, (i, j) in enumerate(CELL_ORDER):
        for b, (k, l) in enumerate(CELL_ORDER):
            if b < a:
                s0[a, b], sq[a, b], sr[a, b] = s0[b, a], sq[b, a], sr[b, a]
            else:
                s0[a, b], sq[a, b], sr[a, b] = _cov_entry_coeffs(i, j, k, l, n1, n2, n)
    for m in (s0, sq, sr):
        m.setflags(write=False)
    return s0, sq, sr


def cell_covariance(n1: int, n2: int, n: int, q, r) -> np.ndarray:
    """The 4x4 cell-count covariance S0 + Q*Sq + R*Sr for given margins, or
    a ``(B, 4, 4)`` stack of them when ``q`` and ``r`` are length-B arrays.

    Q and R are the shared-NN and reflexive statistics: observed integer
    values give the conditional model, substituted expectations the
    adjusted one.
    """
    n1, n2, n = _check_margins(n1, n2, n, minimum=4)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (np.all((q >= 0) & (q < np.inf)) and np.all((r >= 0) & (r < np.inf))):
        raise InvalidInputError(f"Q and R must be finite and >= 0, got ({q}, {r})")
    s0, sq, sr = _sigma_basis(n1, n2, n)
    return s0 + q[..., None, None] * sq + r[..., None, None] * sr


def covariance_model(n1: int, n2: int, n: int, q: float, r: float) -> CovarianceModel:
    """Expectations and the full 4x4 cell-count covariance for given margins.

    Parameters
    ----------
    n1, n2, n : int
        Class sizes and total, n = n1 + n2 >= 4.
    q, r : float
        Shared-NN and reflexive statistics (see ``cell_covariance``).
    """
    # the covariance first: its check of the margins (n >= 4) is the stricter
    return CovarianceModel(
        sigma_full=cell_covariance(n1, n2, n, q, r),
        expected=expected_counts(n1, n2, n),
    )
