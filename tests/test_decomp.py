import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_complex
from trihybrid.decomp import decompose_precoder, rescale_per_antenna


class TestDecompose:
    def test_rank_one_constant_modulus_exact(self, rng):
        n = 8
        row = random_complex(rng, 3)
        f_d = np.outer(np.ones(n) / np.sqrt(n), row.conj())
        result = decompose_precoder(f_d, 1, power=10.0)
        assert result.residual < 1e-12
        assert np.abs(f_d - result.f_rf @ (result.f_bb / result.scale)).max() < 1e-12

    def test_full_chain_count_near_exact(self, rng):
        n = 12
        f_d = random_complex(rng, n, 3)
        result = decompose_precoder(f_d, n, power=1e6)
        assert result.residual < 1e-10

    def test_rank_deficient_target_stable_under_last_bit_noise(self, rng):
        # Two parallel column pairs plus 1e-11 noise: the analog start has
        # nearly parallel columns, and a 1e-16 change of the target must not
        # send the alternation down a different path.
        base = random_complex(rng, 16, 2)
        f_d = 0.1 * np.hstack([base, 0.5 * np.exp(0.7j) * base])
        f_d += 1e-11 * random_complex(rng, 16, 4)
        assert np.linalg.matrix_rank(f_d, tol=1e-9) == 2
        perturbed = f_d + 1e-16 * random_complex(rng, 16, 4)
        a = decompose_precoder(f_d, 7, power=1.0)
        b = decompose_precoder(perturbed, 7, power=1.0)
        product_a, product_b = a.f_rf @ a.f_bb, b.f_rf @ b.f_bb
        assert np.linalg.norm(product_a - product_b) <= 1e-12 * np.linalg.norm(product_a)

    def test_residual_history_monotone(self, rng):
        f_d = random_complex(rng, 16, 4)
        result = decompose_precoder(f_d, 6, power=1e6, iterations=40)
        hist = result.history
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_constant_modulus_exact(self, rng):
        f_d = random_complex(rng, 10, 3)
        result = decompose_precoder(f_d, 5, power=1.0)
        moduli = np.abs(result.f_rf) ** 2 * 10
        assert np.abs(moduli - 1.0).max() < 1e-12

    def test_per_antenna_power_feasible(self, rng):
        f_d = 3.0 * random_complex(rng, 10, 3)
        power = 0.5
        result = decompose_precoder(f_d, 5, power=power)
        composite = result.f_rf @ result.f_bb
        per_antenna = np.sum(np.abs(composite) ** 2, axis=1)
        assert np.max(per_antenna) <= power * (1 + 1e-12)

    def test_deterministic_given_seed(self, rng):
        f_d = random_complex(rng, 9, 2)
        a = decompose_precoder(f_d, 6, power=1.0, seed=3)
        b = decompose_precoder(f_d, 6, power=1.0, seed=3)
        assert np.array_equal(a.f_rf, b.f_rf)
        assert np.array_equal(a.f_bb, b.f_bb)

    def test_chain_count_validation(self, rng):
        f_d = random_complex(rng, 4, 2)
        with pytest.raises(ValueError):
            decompose_precoder(f_d, 5, power=1.0)
        with pytest.raises(ValueError):
            decompose_precoder(f_d, 0, power=1.0)


class TestRescale:
    def test_already_feasible_unchanged(self, rng):
        f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 3))) / np.sqrt(6)
        f_bb = 0.01 * random_complex(rng, 3, 2)
        scaled, scale = rescale_per_antenna(f_rf, f_bb, 1.0)
        assert scale == 1.0
        assert np.array_equal(scaled, f_bb)

    def test_single_hot_antenna_halves(self):
        # One antenna at four times its budget forces a global 1/2.
        f_rf = np.eye(2, dtype=complex)
        f_bb = np.diag([2.0, 1e-6]).astype(complex)
        scaled, scale = rescale_per_antenna(f_rf, f_bb, 1.0)
        assert scale == pytest.approx(0.5)
        assert_allclose(scaled, 0.5 * f_bb)

    def test_max_violation_zero_after(self, rng):
        f_rf = np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 4))) / np.sqrt(8)
        f_bb = 5.0 * random_complex(rng, 4, 3)
        power = rng.uniform(0.5, 2.0, 8)
        scaled, scale = rescale_per_antenna(f_rf, f_bb, power)
        per_antenna = np.sum(np.abs(f_rf @ scaled) ** 2, axis=1)
        assert np.max(per_antenna - power) <= 1e-12
        assert scale <= 1.0
