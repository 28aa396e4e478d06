"""Small numerical kernels: symmetric generalized inverse and the tail
probabilities used by the tests.

The quadratic-form tests work on 2x2 and 4x4 symmetric covariance matrices
that are rank-deficient by construction, so the inverse used throughout is a
spectral pseudo-inverse with a configurable relative eigenvalue cutoff.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

# Eigenvalues below DEFAULT_REL_CUTOFF times the largest eigenvalue are
# treated as zero when inverting.
DEFAULT_REL_CUTOFF = 1e-8

_SYMMETRY_ATOL = 1e-12


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """``m`` as a float array of square matrices, each checked for symmetry
    against its own largest entry."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidInputError(f"expected square matrices, got shape {m.shape}")
    if m.size:
        scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), keepdims=True))
        if not (np.abs(m - np.swapaxes(m, -1, -2)) <= _SYMMETRY_ATOL * scale).all():
            raise InvalidInputError("matrix is not symmetric")
    return m


def generalized_inverse(m: np.ndarray, rel_cutoff: float = DEFAULT_REL_CUTOFF) -> np.ndarray:
    """Spectral pseudo-inverse of a symmetric matrix, or of each matrix in a
    ``(..., k, k)`` stack.

    Eigenvalues above ``rel_cutoff`` times the largest eigenvalue of their
    matrix are inverted; the rest (including any negative roundoff
    eigenvalues) are zeroed, and a matrix whose largest eigenvalue is not
    positive maps to zero.  On the retained eigenspace the result satisfies
    the Moore-Penrose identities ``m g m = m`` and ``g m g = g``.
    """
    m = _check_symmetric(m)
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    w, v = np.linalg.eigh(m)
    wmax = w[..., -1:]
    keep = (w > rel_cutoff * wmax) & (wmax > 0.0)
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    return (v * inv_w[..., None, :]) @ np.swapaxes(v, -1, -2)


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution at 1 or 2 df,
    the only degrees of freedom the tests use: erfc(sqrt(x/2)) at 1 df and
    exp(-x/2) at 2 df."""
    if not math.isfinite(x) or x < 0.0:
        raise InvalidInputError(f"chi-square statistic must be >= 0, got {x!r}")
    if df == 1:
        return math.erfc(math.sqrt(0.5 * x))
    if df == 2:
        return math.exp(-0.5 * x)
    raise InvalidInputError(f"degrees of freedom must be 1 or 2, got {df!r}")


def normal_sf(z: float) -> float:
    """Standard normal upper-tail probability 1 - Phi(z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
