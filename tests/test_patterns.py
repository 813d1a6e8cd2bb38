import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import isotropic_pattern, trapezoid_sphere_integral
from trihybrid.exceptions import ConfigurationError
from trihybrid.patterns import (
    BEAM_PHI_RANGE,
    BEAM_THETA_RANGE,
    CandidateSet,
    gaussian_beam,
    gaussian_beam_grid,
    great_circle_angle,
    most_square_factors,
    normalize_pattern,
)
from trihybrid.sphharm import FOUR_PI, pattern_energy


class TestGaussianBeam:
    def test_peak(self):
        beam = gaussian_beam(1.0, 0.5, np.deg2rad(60.0))
        assert_allclose(beam.gain(1.0, 0.5), 1.0, rtol=1e-15)

    def test_half_power_at_half_beamwidth(self):
        bw = np.deg2rad(60.0)
        beam = gaussian_beam(np.pi / 2, 0.0, bw)
        g = beam.gain(np.pi / 2, bw / 2)  # offset by bw/2 along the equator
        assert_allclose(g**2, 0.5, rtol=1e-12)

    def test_floor_keeps_positive(self, grid):
        beam = gaussian_beam(0.4, 0.0, np.deg2rad(20.0), floor=1e-3)
        tg, pg = grid.mesh()
        assert np.min(beam.gain(tg, pg)) >= 1e-3

    def test_energy_matches_trapezoid_oracle(self, grid):
        beam = gaussian_beam(np.pi / 2, 0.0, np.deg2rad(85.0))
        expected = trapezoid_sphere_integral(lambda t, p: beam.gain(t, p) ** 2)
        assert_allclose(pattern_energy(beam.gain, grid), expected, rtol=1e-4)

    def test_beamwidth_domain(self):
        with pytest.raises(ValueError):
            gaussian_beam(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_beam(0.0, 0.0, np.pi)


class TestNormalize:
    def test_constant_pattern_scaled_to_unity(self, grid):
        doubled = isotropic_pattern().scaled(2.0)
        normalized = normalize_pattern(doubled, grid)
        assert_allclose(normalized.gain(0.3, 0.4), 1.0, rtol=1e-12)

    def test_idempotent(self, grid):
        beam = normalize_pattern(gaussian_beam(1.2, -0.3, np.deg2rad(70.0), 1e-3), grid)
        again = normalize_pattern(beam, grid)
        tg, pg = grid.mesh()
        assert np.abs(again.gain(tg, pg) - beam.gain(tg, pg)).max() < 1e-12

    def test_scale_equivariant(self, grid, rng):
        beam = gaussian_beam(0.8, 1.1, np.deg2rad(50.0), 1e-3)
        a = normalize_pattern(beam.scaled(3.7), grid)
        b = normalize_pattern(beam, grid)
        theta = rng.uniform(0, np.pi, 20)
        phi = rng.uniform(-np.pi, np.pi, 20)
        assert np.abs(a.gain(theta, phi) - b.gain(theta, phi)).max() < 1e-12

    def test_energy_after(self, grid):
        beam = normalize_pattern(gaussian_beam(2.2, 0.1, np.deg2rad(85.0), 1e-3), grid)
        assert abs(pattern_energy(beam.gain, grid) - FOUR_PI) < 1e-6

    def test_zero_energy_rejected(self, grid):
        with pytest.raises(ValueError):
            normalize_pattern(gaussian_beam(1.0, 0.5, np.deg2rad(60.0)).scaled(0.0), grid)


class TestFactors:
    def test_square(self):
        assert most_square_factors(64) == (8, 8)

    def test_rect(self):
        assert most_square_factors(12) == (3, 4)

    def test_prime_degenerates_to_row(self):
        assert most_square_factors(7) == (1, 7)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            most_square_factors(0)


class TestBeamGrid:
    def test_default_64(self, grid):
        cands = gaussian_beam_grid(64)
        assert cands.size == 64
        centers_theta = sorted({p.theta0 for p in cands.patterns})
        centers_phi = sorted({p.phi0 for p in cands.patterns})
        assert len(centers_theta) == 8 and len(centers_phi) == 8
        for p in cands.patterns[:4]:
            assert p.beamwidth == pytest.approx(np.deg2rad(85.0))
            assert abs(pattern_energy(p.gain, grid) - FOUR_PI) < 1e-6

    def test_single_beam(self):
        cands = gaussian_beam_grid(1)
        assert cands.size == 1

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigurationError):
            gaussian_beam_grid(0)

    def test_2x2_midpoints(self):
        cands = gaussian_beam_grid(4)
        (t_lo, t_hi), (p_lo, p_hi) = BEAM_THETA_RANGE, BEAM_PHI_RANGE
        thetas = (t_lo + 0.25 * (t_hi - t_lo), t_lo + 0.75 * (t_hi - t_lo))
        phis = (p_lo + 0.25 * (p_hi - p_lo), p_lo + 0.75 * (p_hi - p_lo))
        centers = {(p.theta0, p.phi0) for p in cands.patterns}
        assert centers == {(t, p) for t in thetas for p in phis}

    def test_baseline_first_swaps_broadside_closest(self):
        cands = gaussian_beam_grid(16)
        distances = [
            great_circle_angle(p.theta0, p.phi0, np.pi / 2, 0.0)
            for p in cands.patterns
        ]
        assert distances[0] == min(distances)

    def test_positive_everywhere(self, grid):
        cands = gaussian_beam_grid(4)
        tg, pg = grid.mesh()
        for p in cands.patterns:
            assert np.min(p.gain(tg, pg)) > 0.0


class TestCandidateSet:
    def test_gain_vector_single_isotropic(self):
        cands = CandidateSet((isotropic_pattern(),))
        assert_allclose(cands.gain_vector(0.3, 0.7), [1.0])

    def test_antipodal_points_differ(self):
        cands = gaussian_beam_grid(4)
        a = cands.gain_vector(0.6, 0.2)
        b = cands.gain_vector(np.pi - 0.6, 0.2 + np.pi)
        assert not np.allclose(a, b)

    def test_center_entry_is_max(self):
        cands = gaussian_beam_grid(4)
        p = cands.patterns[2]
        vec = cands.gain_vector(p.theta0, p.phi0)
        assert int(np.argmax(vec)) == 2

    def test_entries_reproducible(self, rng):
        cands = gaussian_beam_grid(6)
        theta, phi = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        vec = cands.gain_vector(theta, phi)
        for s, p in enumerate(cands.patterns):
            assert vec[s] == pytest.approx(p.gain(theta, phi))

