import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    _centered_response,
    channel_entry_loops,
    far_field_channel,
    far_field_from_scenario,
    harmonic_pattern,
    isotropic_pattern,
)
from trihybrid.channel import (
    ScenarioConfig,
    assemble_channel,
    compose,
    generate_scenario,
    selection_effective_channel,
    synthesis_effective_channel,
    to_spherical,
    upa_layout,
)
from trihybrid.exceptions import GenerationError
from trihybrid.patterns import gaussian_beam_grid


class TestLayout:
    def test_upa_grid(self):
        layout = upa_layout(2, 3, 0.5)
        assert layout.size == 6
        # Element n = i_h * n_v + i_v; spacing along y (horizontal), z (vertical).
        diffs = layout.positions[1] - layout.positions[0]
        assert_allclose(diffs, [0.0, 0.0, 0.5])
        assert_allclose(layout.positions[3] - layout.positions[0], [0.0, 0.5, 0.0])
        assert_allclose(layout.centroid, [0.0, 0.0, 0.0], atol=1e-15)

    def test_to_spherical(self):
        theta, phi = to_spherical(np.array([0.0, 0.0, 2.0]))
        assert theta == pytest.approx(0.0)
        theta, phi = to_spherical(np.array([1.0, 1.0, 0.0]))
        assert theta == pytest.approx(np.pi / 2)
        assert phi == pytest.approx(np.pi / 4)


class TestScenario:
    def test_determinism(self):
        config = ScenarioConfig(n_users=3, paths_per_user=5)
        a = generate_scenario(config, seed=42)
        b = generate_scenario(config, seed=42)
        for ga, gb in zip(a.geometries, b.geometries):
            assert np.array_equal(ga.distances, gb.distances)
            assert np.array_equal(ga.phases, gb.phases)
            assert np.array_equal(ga.aod_azimuth, gb.aod_azimuth)

    def test_broadside_user_shares_departure_angles(self):
        config = ScenarioConfig(
            n_users=1,
            bs_shape=(2, 2),
            ue_shape=(1, 1),
            paths_per_user=1,
            user_positions=np.array([[50.0, 0.0, 0.0]]),
        )
        scenario = generate_scenario(config, seed=0)
        geom = scenario.geometries[0]
        assert np.ptp(geom.aod_inclination) < 1e-3
        assert np.ptp(geom.aod_azimuth) < 1e-3

    def test_distances_match_position_recomputation(self):
        config = ScenarioConfig(n_users=3, paths_per_user=5)
        scenario = generate_scenario(config, seed=9)
        for k, geom in enumerate(scenario.geometries):
            bs = scenario.bs_layout.positions
            ue = scenario.ue_layouts[k].positions
            for ell in range(geom.n_paths):
                for m in range(geom.n_rx):
                    for n in range(geom.n_tx):
                        if ell == 0:
                            expected = np.linalg.norm(bs[n] - ue[m])
                        else:
                            s = scenario.scatterers[k][ell - 1]
                            expected = np.linalg.norm(bs[n] - s) + np.linalg.norm(
                                s - ue[m]
                            )
                        assert geom.distances[ell, m, n] == pytest.approx(expected)

    def test_degenerate_geometry_rejected(self):
        # Drop the single-element user exactly onto one transmit element.
        probe = generate_scenario(
            ScenarioConfig(n_users=1, ue_shape=(1, 1), paths_per_user=1), seed=0
        )
        on_element = probe.bs_layout.positions[5]
        config = ScenarioConfig(
            n_users=1,
            ue_shape=(1, 1),
            paths_per_user=1,
            user_positions=on_element[None, :],
        )
        with pytest.raises(GenerationError):
            generate_scenario(config, seed=0)


class TestAssemble:
    def test_free_space_magnitudes(self):
        config = ScenarioConfig(
            n_users=1,
            bs_shape=(2, 2),
            ue_shape=(2, 1),
            paths_per_user=1,
            user_positions=np.array([[40.0, 5.0, -3.0]]),
        )
        scenario = generate_scenario(config, seed=1)
        geom = scenario.geometries[0]
        h = assemble_channel(geom, isotropic_pattern())
        lam = scenario.wavelength
        expected = lam / (4.0 * np.pi * geom.distances[0])
        assert_allclose(np.abs(h), expected, rtol=1e-12)

    def test_single_pair_phase(self):
        config = ScenarioConfig(
            n_users=1,
            bs_shape=(1, 1),
            ue_shape=(1, 1),
            paths_per_user=1,
            user_positions=np.array([[30.0, 0.0, -2.0]]),
        )
        scenario = generate_scenario(config, seed=5)
        geom = scenario.geometries[0]
        geom.phases[:] = 0.0
        h = assemble_channel(geom, isotropic_pattern())
        lam = scenario.wavelength
        d = geom.distances[0, 0, 0]
        expected = (lam / (4 * np.pi * d)) * np.exp(
            -2j * np.pi / lam * (d - geom.ref_distances[0])
        )
        assert_allclose(h[0, 0], expected, rtol=1e-12)

    def test_matches_entry_loops(self):
        config = ScenarioConfig(
            n_users=1, bs_shape=(2, 2), ue_shape=(2, 1), paths_per_user=3
        )
        scenario = generate_scenario(config, seed=7)
        geom = scenario.geometries[0]
        cands = gaussian_beam_grid(4)
        tx = [cands.patterns[i % 4] for i in range(geom.n_tx)]
        assert_allclose(
            assemble_channel(geom, tx), channel_entry_loops(geom, tx), rtol=1e-12
        )


class TestUpaResponse:
    """The far-field oracle's planar-array response, on `upa_layout` arrays."""

    def test_broadside(self):
        v = _centered_response(upa_layout(2, 2, 0.005), np.pi / 2, 0.0, 0.01)
        assert_allclose(v, np.full(4, 0.5), atol=1e-15)

    def test_phase_arithmetic(self):
        # Quarter-wavelength spatial frequency along the horizontal axis.
        theta = np.pi / 2
        phi = np.arcsin(0.5)  # gives w_h = 0.25 at half-wavelength spacing
        v = _centered_response(upa_layout(2, 1, 0.005), theta, phi, 0.01)
        # Referenced to the centroid, the two elements sit a quarter cycle
        # either side of zero phase.
        assert_allclose(v, np.exp(0.25j * np.pi * np.array([1, -1])) / np.sqrt(2.0), atol=1e-12)
        assert_allclose(v[1] / v[0], -1j, atol=1e-12)

    def test_unit_norm(self, rng):
        layout = upa_layout(4, 4, 0.005)
        for _ in range(5):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(-np.pi, np.pi)
            v = _centered_response(layout, theta, phi, 0.01)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestFarField:
    def test_single_path_rank_one(self):
        bs = upa_layout(2, 2, 0.005)
        ue = upa_layout(2, 1, 0.005, center=(50.0, 0.0, 0.0))
        h = far_field_channel(bs, ue, 0.01, [0.5 + 0.1j], [[1.2, 0.3]], [[1.8, -2.5]])
        singulars = np.linalg.svd(h, compute_uv=False)
        assert singulars[1] < 1e-12
        assert singulars[0] == pytest.approx(
            np.sqrt(8) * abs(0.5 + 0.1j), rel=1e-12
        )

    def test_two_orthogonal_paths_rank_two(self):
        bs = upa_layout(4, 1, 0.005)
        ue = upa_layout(2, 1, 0.005, center=(50.0, 0.0, 0.0))
        # Broadside and an offset direction give independent responses.
        h = far_field_channel(
            bs,
            ue,
            0.01,
            [1.0, 1.0],
            [[np.pi / 2, 0.0], [np.pi / 2, np.arcsin(0.5)]],
            [[np.pi / 2, np.pi], [np.pi / 2, np.pi - 0.4]],
        )
        singulars = np.linalg.svd(h, compute_uv=False)
        assert singulars[1] > 1e-3 * singulars[0]

    def test_far_field_limit_of_geometry(self):
        # At 1e4 wavelengths the exact per-pair assembly converges to the
        # shared-angle rank-one form.
        lam = 0.01
        config = ScenarioConfig(
            carrier_hz=299792458.0 / lam,
            n_users=1,
            bs_shape=(2, 2),
            ue_shape=(2, 1),
            paths_per_user=1,
            user_positions=np.array([[1e4 * lam, 7.0 * lam, -5.0 * lam]]),
        )
        scenario = generate_scenario(config, seed=3)
        exact = assemble_channel(scenario.geometries[0], isotropic_pattern())
        limit = far_field_from_scenario(scenario, 0)
        assert np.linalg.norm(exact - limit) / np.linalg.norm(exact) < 1e-3

    def test_far_field_limit_with_scatterers(self):
        lam = 0.01
        config = ScenarioConfig(
            carrier_hz=299792458.0 / lam,
            n_users=1,
            bs_shape=(2, 1),
            ue_shape=(1, 1),
            paths_per_user=3,
            user_positions=np.array([[150.0, 10.0, -8.0]]),
            scatterer_box=(80.0, 120.0, 40.0, 80.0, -60.0, -30.0),
        )
        scenario = generate_scenario(config, seed=11)
        exact = assemble_channel(scenario.geometries[0], isotropic_pattern())
        limit = far_field_from_scenario(scenario, 0)
        assert np.linalg.norm(exact - limit) / np.linalg.norm(exact) < 1e-3


@pytest.fixture(scope="module")
def lifted_setup():
    config = ScenarioConfig(n_users=1, bs_shape=(2, 2), ue_shape=(2, 1), paths_per_user=3)
    scenario = generate_scenario(config, seed=21)
    cands = gaussian_beam_grid(4)
    return scenario, cands


class TestSelectionLift:
    def test_single_candidate_reduces_to_plain(self, lifted_setup):
        scenario, cands = lifted_setup
        single = gaussian_beam_grid(1)
        geom = scenario.geometries[0]
        eff = selection_effective_channel(geom, single)
        assert eff.matrix.shape == (2, geom.n_tx)
        plain = assemble_channel(geom, single.patterns[0])
        assert_allclose(eff.matrix, plain, rtol=1e-12)

    def test_defining_identity(self, lifted_setup, rng):
        scenario, cands = lifted_setup
        geom = scenario.geometries[0]
        eff = selection_effective_channel(geom, cands)
        sel = rng.integers(0, cands.size, geom.n_tx)
        composed = compose(eff, np.eye(cands.size)[sel])
        direct = assemble_channel(geom, [cands.patterns[s] for s in sel])
        assert np.linalg.norm(composed - direct) / np.linalg.norm(direct) < 1e-12

    def test_block_scales_linearly_in_gain(self, lifted_setup):
        scenario, cands = lifted_setup
        geom = scenario.geometries[0]
        eff = selection_effective_channel(geom, cands)
        doubled = type(cands)(tuple(p.scaled(2.0) for p in cands.patterns))
        eff2 = selection_effective_channel(geom, doubled)
        assert_allclose(eff2.matrix, 2.0 * eff.matrix, rtol=1e-12)


class TestSynthesisLift:
    def test_isotropic_coefficient_reduces_to_plain(self, lifted_setup):
        scenario, _ = lifted_setup
        geom = scenario.geometries[0]
        eff = synthesis_effective_channel(geom, 0)
        coeffs = np.full((geom.n_tx, 1), 2.0 * np.sqrt(np.pi))
        composed = compose(eff, coeffs)
        plain = assemble_channel(geom, isotropic_pattern())
        assert np.linalg.norm(composed - plain) / np.linalg.norm(plain) < 1e-12

    def test_defining_identity(self, lifted_setup, rng):
        scenario, _ = lifted_setup
        geom = scenario.geometries[0]
        eff = synthesis_effective_channel(geom, 2)
        coeffs = rng.standard_normal((geom.n_tx, 9))
        composed = compose(eff, coeffs)
        tx = [harmonic_pattern(c) for c in coeffs]
        direct = assemble_channel(geom, tx)
        assert np.linalg.norm(composed - direct) / np.linalg.norm(direct) < 1e-10

    def test_linearity_in_coefficients(self, lifted_setup, rng):
        scenario, _ = lifted_setup
        geom = scenario.geometries[0]
        eff = synthesis_effective_channel(geom, 1)
        coeffs = rng.standard_normal((geom.n_tx, 4))
        assert_allclose(
            compose(eff, 2.0 * coeffs), 2.0 * compose(eff, coeffs), rtol=1e-14
        )

    def test_stack_composes_each_matrix_with_its_own_bits(self, lifted_setup, rng):
        # A stack of pattern matrices gives each one's channel bit for bit,
        # and a matrix of the wrong shape is refused stacked or not.
        scenario, _ = lifted_setup
        eff = synthesis_effective_channel(scenario.geometries[0], 2)
        stack = rng.standard_normal((5, eff.n_antennas, 9))
        composed = compose(eff, stack)
        assert composed.shape == (5, eff.n_rx, eff.n_antennas)
        for matrix, channel in zip(stack, composed):
            assert np.array_equal(channel, compose(eff, matrix))
        for bad in (stack[:, :, :4], stack[0, 0]):
            with pytest.raises(ValueError, match="antenna matrix must have shape"):
                compose(eff, bad)
