import numpy as np
import pytest

from conftest import desk_scenario, desk_solver
from helpers import isotropic_pattern, random_complex
from trihybrid.baselines import bd_zero_forcing, fixed_pattern_wmmse, interference_leakage
from trihybrid.channel import assemble_channel
from trihybrid.exceptions import ConfigurationError
from trihybrid.patterns import gaussian_beam_grid


class TestZeroForcing:
    def test_single_user_reduces_to_svd_directions(self, rng):
        h = random_complex(rng, 2, 8)
        f = bd_zero_forcing([h], (2,), [1.0])[0]
        _, _, vh = np.linalg.svd(h)
        top = vh.conj().T[:, :2]
        # Same column space as the leading right singular vectors.
        projector = top @ top.conj().T
        assert np.linalg.norm(f - projector @ f) < 1e-10 * np.linalg.norm(f)

    def test_orthogonal_row_spaces_keep_matched_directions(self, rng):
        n = 8
        basis = np.linalg.qr(random_complex(rng, n, n))[0]
        h1 = random_complex(rng, 2, 2) @ basis[:, :2].conj().T
        h2 = random_complex(rng, 2, 2) @ basis[:, 2:4].conj().T
        f = bd_zero_forcing([h1, h2], (2, 2), [1.0])[0]
        joint = bd_zero_forcing([h1], (2,), [1.0])[0]
        # User 1's block spans the same subspace as its solo SVD precoder.
        block = f[:, :2]
        solo = joint[:, :2] if joint.shape[1] >= 2 else joint
        proj = solo @ np.linalg.pinv(solo)
        assert np.linalg.norm(block - proj @ block) < 1e-8 * np.linalg.norm(block)

    def test_leakage_small(self, rng):
        channels = [random_complex(rng, 2, 16) for _ in range(3)]
        f = bd_zero_forcing(channels, (2, 2, 2), [1.0])[0]
        assert max(interference_leakage(channels, [f], (2, 2, 2))) < 1e-9

    def test_per_antenna_power_feasible(self, rng):
        channels = [random_complex(rng, 2, 12) for _ in range(2)]
        power = rng.uniform(0.5, 1.5, 12)
        f = bd_zero_forcing(channels, (2, 2), [power])[0]
        per_antenna = np.sum(np.abs(f) ** 2, axis=1)
        assert np.max(per_antenna - power) <= 1e-12

    def test_several_budgets_equal_one_call_each(self, rng):
        # The directions are computed once and scaled per budget, with the
        # bits each budget gets alone: scalars and a per-antenna budget.
        channels = [random_complex(rng, 2, 12) for _ in range(3)]
        powers = [0.01, 1.0, rng.uniform(0.5, 1.5, 12), 10.0]
        together = bd_zero_forcing(channels, (2, 2, 2), powers)
        assert len(together) == len(powers)
        for power, f in zip(powers, together):
            alone = bd_zero_forcing(channels, (2, 2, 2), [power])
            assert len(alone) == 1
            assert f.tobytes() == alone[0].tobytes()
        assert bd_zero_forcing(channels, (2, 2, 2), []) == []

    def test_dimension_guard(self, rng):
        channels = [random_complex(rng, 3, 4) for _ in range(2)]
        with pytest.raises(ConfigurationError):
            bd_zero_forcing(channels, (3, 3), [1.0])

    def test_fewer_user_antennas_than_streams_rejected(self, rng):
        # Each 2 x 16 user has a 14-dimensional null space of the other user
        # but only 2 directions to carry its 3 streams.
        channels = [random_complex(rng, 2, 16) for _ in range(2)]
        with pytest.raises(ConfigurationError, match="2 directions for 3 streams"):
            bd_zero_forcing(channels, (3, 3), [1.0])

    def test_too_few_null_space_directions_rejected(self, rng):
        # Two 3 x 4 users: each sees a one-dimensional null space of the
        # other, so two streams cannot be zero-forced; rounding left in the
        # projected channel must not count as a direction.
        for _ in range(50):
            channels = [random_complex(rng, 3, 4) for _ in range(2)]
            with pytest.raises(ConfigurationError, match="1 directions for 2 streams"):
                bd_zero_forcing(channels, (2, 2), [1.0])

    @pytest.mark.parametrize("weak", [1.0, 1e-6])
    def test_leakage_at_rounding_level_for_a_user_near_the_others_rows(self, rng, weak):
        # User 0 is mostly inside user 1's row space, with a null-space
        # part whose two directions differ in strength by `weak`: the
        # projection cancels almost all of the channel, yet both streams
        # must stay orthogonal to user 1 to rounding.
        n = 8
        h1 = random_complex(rng, 2, n)
        null = np.linalg.svd(h1)[2][2:].conj().T  # (n, n - 2)
        part = np.diag([1.0, weak]) @ null[:, :2].conj().T
        h0 = 1e3 * random_complex(rng, 2, 2) @ h1 + part
        f = bd_zero_forcing([h0, h1], (2, 2), [1.0])[0]
        assert max(interference_leakage([h0, h1], [f], (2, 2))) < 1e-14

    def test_on_scenario_channels(self):
        scenario = desk_scenario(2, n_users=3, bs_shape=(4, 4), paths_per_user=4)
        channels = [assemble_channel(g, isotropic_pattern()) for g in scenario.geometries]
        f = bd_zero_forcing(channels, (2, 2, 2), [1.0])[0]
        assert max(interference_leakage(channels, [f], (2, 2, 2))) < 1e-9


class TestFixedPatternWmmse:
    def test_rate_grows_with_power(self):
        scenario = desk_scenario(4)
        pattern = gaussian_beam_grid(8).baseline
        rates = []
        for power in (0.01, 0.1, 1.0, 10.0):
            config = desk_solver(power=power, max_outer_iterations=15)
            _, trace = fixed_pattern_wmmse(scenario, pattern, (2, 2), config)
            rates.append(trace.sum_rate[-1])
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_monotone_trace_single_user(self):
        scenario = desk_scenario(8, n_users=1, paths_per_user=4)
        config = desk_solver(rf_chains=4, max_outer_iterations=20, objective_tol=0.0)
        _, trace = fixed_pattern_wmmse(scenario, isotropic_pattern(), (2,), config)
        objective = np.array(trace.objective)
        assert np.all(np.diff(objective) <= 1e-9 * np.maximum(1, np.abs(objective[:-1])))
