"""Generalized inverse and tail probability kernels."""

import math

import numpy as np
import pytest

from nnct import InvalidInputError, chi2_sf, normal_sf
from nnct.numerics import generalized_inverse


class TestGeneralizedInverse:
    def test_identity(self):
        assert np.allclose(generalized_inverse(np.eye(4)), np.eye(4))

    def test_rank_deficient_diagonal(self):
        g = generalized_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(g, np.diag([0.5, 0.0]))

    def test_moore_penrose_identities_random_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            b = rng.normal(size=(4, rng.integers(1, 5)))
            m = b @ b.T
            g = generalized_inverse(m)
            scale = np.abs(m).max()
            assert np.allclose(m @ g @ m, m, atol=1e-8 * scale)
            assert np.allclose(g @ m @ g, g, atol=1e-8 * max(1.0, np.abs(g).max()))

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=(4, 4))
        m = b @ b.T + 4 * np.eye(4)
        w, v = np.linalg.eigh(m)
        rebuilt = (v * w) @ v.T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * np.linalg.norm(m)
        assert np.allclose(generalized_inverse(m), np.linalg.inv(m), rtol=1e-9)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            generalized_inverse(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            generalized_inverse(np.ones((2, 3)))

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(7)
        b = rng.normal(size=(6, 4, 3))
        m = b @ np.swapaxes(b, -1, -2)
        m[0] *= 1e6
        m[2] = 0.0  # a largest eigenvalue <= 0 maps to zero
        g = generalized_inverse(m)
        assert g.shape == m.shape
        for k in range(6):
            assert np.array_equal(g[k], generalized_inverse(m[k]))
        assert not g[2].any()
        # the symmetry check scales with each matrix, not with the stack
        bad = m.copy()
        bad[4, 0, 1] += 1e-9 * max(1.0, np.abs(m[4]).max())
        with pytest.raises(InvalidInputError):
            generalized_inverse(bad)

    def test_zero_matrix(self):
        assert np.array_equal(generalized_inverse(np.zeros((3, 3))), np.zeros((3, 3)))


class TestChi2Sf:
    def test_reference_values(self):
        assert chi2_sf(3.36, 2) == pytest.approx(0.1868, abs=5e-4)
        assert chi2_sf(3.30, 1) == pytest.approx(0.0693, abs=5e-4)

    def test_at_zero(self):
        for df in (1, 2):
            assert chi2_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for x in (0.0, 0.5, 3.36, 52.72):
            assert chi2_sf(x, 2) == math.exp(-0.5 * x)

    def test_monotone_in_x(self):
        for df in (1, 2):
            xs = np.linspace(0.0, 20.0, 81)
            vals = [chi2_sf(x, df) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_df(self):
        for x in (0.5, 3.0, 10.0):
            vals = [chi2_sf(x, df) for df in (1, 2)]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            chi2_sf(-0.1, 2)
        with pytest.raises(InvalidInputError):
            chi2_sf(1.0, 0)
        with pytest.raises(InvalidInputError):
            chi2_sf(1.0, 3)
        with pytest.raises(InvalidInputError):
            chi2_sf(float("nan"), 2)

    def test_df1_is_two_sided_normal_tail(self):
        for z in np.linspace(-8.0, 8.0, 161):
            two_sided = 2.0 * normal_sf(abs(z))
            assert abs(chi2_sf(z * z, 1) - two_sided) <= 1e-13 * two_sided


class TestNormalSf:
    def test_at_zero(self):
        assert normal_sf(0.0) == 0.5

    def test_quantile(self):
        assert normal_sf(1.6449) == pytest.approx(0.05, abs=2e-4)

    def test_symmetry(self):
        for z in (-3.0, -0.7, 0.3, 2.5):
            assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0, abs=1e-12)

    def test_against_erfc_form(self):
        for z in np.linspace(-6, 6, 25):
            assert normal_sf(z) == pytest.approx(
                0.5 * math.erfc(z / math.sqrt(2.0)), rel=1e-10, abs=1e-15
            )
