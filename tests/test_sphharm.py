import math
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import legendre_rodrigues, real_sh_oracle, synthesize_gain, trapezoid_sphere_integral
from trihybrid.sphharm import (
    FOUR_PI,
    assoc_legendre,
    pattern_energy,
    real_sph_harm,
    sh_basis,
    sphere_grid,
    truncation_length,
)


def harmonic_indices(degree: int):
    """(position, degree u, order q) of every harmonic up to `degree`; the
    position along the basis axis is t - 1 = u^2 + u + q."""
    return [(u * u + u + q, u, q) for u in range(degree + 1) for q in range(-u, u + 1)]


def project_gain(gain, degree: int, grid) -> np.ndarray:
    """Harmonic coefficients of `gain` by quadrature on `grid`: the surface
    integral of gain times each basis function."""
    tg, pg = grid.mesh()
    samples = np.asarray(gain(tg, pg), dtype=float)
    return np.einsum("ij,ij,ijt->t", grid.weights(), samples, grid.basis(degree))


class TestIndexing:
    def test_flat_index_examples(self):
        # Flat index t = u^2 + u + q + 1 sits at position t - 1 of the basis.
        theta, phi = 1.1, 0.7
        values = sh_basis(theta, phi, 2)
        for t, u, q in [(1, 0, 0), (2, 1, -1), (3, 1, 0), (4, 1, 1), (5, 2, -2), (8, 2, 1)]:
            assert values[t - 1] == pytest.approx(real_sph_harm(u, q, theta, phi), abs=1e-14)

    def test_truncation_length(self):
        assert truncation_length(0) == 1
        assert truncation_length(2) == 9
        assert truncation_length(6) == 49

    @given(st.integers(min_value=1, max_value=10_000))
    def test_roundtrip(self, t):
        u = isqrt(t - 1)
        q = t - 1 - u * u - u
        assert abs(q) <= u
        # Degree u's block of the flat order starts right after degree u - 1's.
        assert (0 if u == 0 else truncation_length(u - 1)) < t <= truncation_length(u)
        assert harmonic_indices(u)[t - 1] == (t - 1, u, q)


class TestAssocLegendre:
    def test_constant(self):
        assert assoc_legendre(0, 0, 0.3) == 1.0

    def test_linear_at_one(self):
        assert assoc_legendre(1, 0, 1.0) == 1.0

    def test_against_rodrigues(self):
        # Recurrence vs direct Rodrigues-formula evaluation.
        for u, q, x in [(3, 2, 0.5), (5, 3, -0.7), (8, 8, 0.2), (6, 0, 0.9)]:
            assert_allclose(
                assoc_legendre(u, q, x), legendre_rodrigues(u, q, x), rtol=1e-12
            )

    def test_frozen_value(self):
        # P_3^2(x) = 15 x (1 - x^2) without the alternating sign.
        assert_allclose(assoc_legendre(3, 2, 0.5), 5.625, rtol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assoc_legendre(2, 3, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(2, -1, 0.5)
        with pytest.raises(ValueError):
            assoc_legendre(2, 1, 1.5)

    def test_vectorized(self):
        x = np.linspace(-1, 1, 7)
        values = assoc_legendre(4, 2, x)
        assert values.shape == x.shape
        for xi, vi in zip(x, values):
            assert_allclose(vi, legendre_rodrigues(4, 2, float(xi)), atol=1e-12)


class TestRealSphHarm:
    def test_constant_harmonic(self):
        expected = 1.0 / (2.0 * math.sqrt(math.pi))
        assert_allclose(real_sph_harm(0, 0, 0.7, 1.3), expected, rtol=1e-15)
        assert_allclose(real_sph_harm(0, 0, 2.1, -0.4), expected, rtol=1e-15)

    def test_polar_value(self):
        assert_allclose(
            real_sph_harm(1, 0, 0.0, 0.3), math.sqrt(3.0 / FOUR_PI), rtol=1e-15
        )

    def test_against_oracle(self):
        for u, q, theta, phi in [
            (2, 1, math.pi / 3, math.pi / 4),
            (3, -2, 1.0, 2.0),
            (5, 4, 2.5, -1.2),
            (4, 0, 0.4, 0.0),
        ]:
            assert_allclose(
                real_sph_harm(u, q, theta, phi),
                real_sh_oracle(u, q, theta, phi),
                rtol=1e-12,
            )

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            real_sph_harm(1, 2, 0.0, 0.0)


class TestBasis:
    def test_degree_zero(self):
        assert_allclose(sh_basis(0.3, 0.9, 0), [1.0 / (2.0 * math.sqrt(math.pi))])

    def test_pole_kills_nonzero_orders(self):
        values = sh_basis(0.0, 0.0, 1)
        expected = [1.0 / (2.0 * math.sqrt(math.pi)), 0.0, math.sqrt(3.0 / FOUR_PI), 0.0]
        assert_allclose(values, expected, atol=1e-15)

    def test_entries_match_oracle(self):
        theta, phi = math.pi / 2, math.pi / 2
        values = sh_basis(theta, phi, 2)
        assert values.shape == (9,)
        for i, u, q in harmonic_indices(2):
            assert_allclose(values[i], real_sh_oracle(u, q, theta, phi), atol=1e-12)

    def test_broadcasting(self):
        theta = np.linspace(0.1, 3.0, 4).reshape(2, 2)
        values = sh_basis(theta, 0.5, 3)
        assert values.shape == (2, 2, 16)


class TestSynthesize:
    def test_isotropic(self, rng):
        c = np.zeros(9)
        c[0] = 2.0 * math.sqrt(math.pi)
        theta = rng.uniform(0, np.pi, 5)
        phi = rng.uniform(0, 2 * np.pi, 5)
        assert_allclose(synthesize_gain(c, theta, phi), np.ones(5), rtol=1e-14)
        assert_allclose(c @ c, FOUR_PI, rtol=1e-15)

    def test_zero(self):
        assert synthesize_gain(np.zeros(4), 0.3, 0.4) == 0.0

    def test_termwise_sum(self, rng):
        c = rng.standard_normal(16)
        theta, phi = 1.1, 2.2
        direct = sum(c[i] * real_sph_harm(u, q, theta, phi) for i, u, q in harmonic_indices(3))
        assert_allclose(synthesize_gain(c, theta, phi), direct, rtol=1e-12)


class TestGrid:
    def test_area(self, grid):
        assert abs(grid.weights().sum() - FOUR_PI) < 1e-10

    def test_custom_sizes(self):
        g = sphere_grid(20, 40)
        assert abs(g.weights().sum() - FOUR_PI) < 1e-10
        assert g.weights().shape == (20, 40)

    def test_orthonormality_default_grid(self, grid):
        basis = grid.basis(6)
        gram = np.einsum("ij,ijt,iju->tu", grid.weights(), basis, basis)
        assert np.abs(gram - np.eye(49)).max() < 1e-8


class TestEnergy:
    def test_isotropic(self, grid):
        assert_allclose(pattern_energy(lambda t, p: np.ones_like(t), grid), FOUR_PI, rtol=1e-12)

    def test_parseval(self, grid, rng):
        c = rng.standard_normal(25)
        energy = pattern_energy(lambda t, p: synthesize_gain(c, t, p), grid)
        assert abs(energy - c @ c) < 1e-7

    def test_normalized_coefficients(self, grid, rng):
        c = rng.standard_normal(16)
        c *= np.sqrt(FOUR_PI / (c @ c))
        energy = pattern_energy(lambda t, p: synthesize_gain(c, t, p), grid)
        assert abs(energy - FOUR_PI) < 1e-8

    def test_against_trapezoid(self, grid):
        def gain(t, p):
            return 1.0 + 0.25 * np.sin(t) * np.cos(p)

        expected = trapezoid_sphere_integral(lambda t, p: gain(t, p) ** 2)
        assert_allclose(pattern_energy(gain, grid), expected, rtol=1e-5)


class TestDecompose:
    def test_constant_gain(self, grid):
        coeffs = project_gain(lambda t, p: np.ones_like(t), 2, grid)
        expected = np.zeros(9)
        expected[0] = 2.0 * math.sqrt(math.pi)
        assert np.abs(coeffs - expected).max() < 1e-8

    def test_picks_out_harmonic(self, grid):
        coeffs = project_gain(lambda t, p: real_sph_harm(2, 1, t, p), 2, grid)
        expected = np.zeros(9)
        expected[7] = 1.0  # flat index 8 of (u, q) = (2, 1)
        assert np.abs(coeffs - expected).max() < 1e-8

    def test_roundtrip_identity(self, grid, rng):
        c = rng.standard_normal(25)
        out = project_gain(lambda t, p: synthesize_gain(c, t, p), 4, grid)
        assert np.abs(out - c).max() < 1e-8

    def test_gaussian_beam_error_decreases_with_degree(self, grid):
        from trihybrid.patterns import gaussian_beam, normalize_pattern

        beam = normalize_pattern(gaussian_beam(2.0, 0.5, np.deg2rad(85.0), 1e-3), grid)
        tg, pg = grid.mesh()
        target = beam.gain(tg, pg)
        errors = []
        for degree in (2, 4, 8):
            coeffs = project_gain(beam.gain, degree, grid)
            recon = grid.basis(degree) @ coeffs
            errors.append(np.linalg.norm(recon - target) / np.linalg.norm(target))
        assert errors[0] > errors[1] > errors[2]


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.1), st.floats(min_value=-3.1, max_value=3.1))
def test_basis_vector_matches_scalar_calls(theta, phi):
    values = sh_basis(theta, phi, 3)
    for u in range(4):  # flat indices 1, 4, 9, 16
        assert values[u * u + 2 * u] == pytest.approx(
            real_sph_harm(u, u, theta, phi), abs=1e-14
        )
