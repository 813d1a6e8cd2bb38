import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import desk_scenario, desk_solver
from helpers import ball_samples, block_objective, random_complex, random_psd
from trihybrid.channel import (
    compose,
    selection_effective_channel,
    selection_matrix,
    synthesis_effective_channel,
)
from trihybrid.patterns import gaussian_beam_grid, isotropic_pattern
from trihybrid.sphharm import FOUR_PI
from trihybrid.wmmse import (
    PerAntennaTerms,
    _TINY_QUAD,
    _row_solution,
    _SweepWorkspace,
    mmse_receivers,
    mse_matrix,
    mse_weights,
    run_selection,
    run_synthesis,
    select_pattern_and_row,
    solve_antenna_row,
    split_precoder,
    synthesize_pattern_and_row,
    weighted_sum_rate,
    wmmse_objective,
)


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

class TestSumRate:
    def test_zero_precoder(self, rng):
        h = [random_complex(rng, 2, 4)]
        total, rates = weighted_sum_rate(h, [np.zeros((4, 2))], 1e-3, [1.0])
        assert total == 0.0 and rates[0] == 0.0

    def test_scalar_snr_one(self):
        # |hf|^2 / sigma^2 = 1 gives exactly one bit.
        h = [np.array([[2.0 + 0j]])]
        f = [np.array([[0.5 + 0j]])]
        total, _ = weighted_sum_rate(h, f, 1.0, [1.0])
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_matches_eigenvalue_evaluation(self, rng):
        K, M, N, Dk = 3, 2, 8, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        sigma = 0.1
        beta = np.array([0.5, 0.3, 0.2])
        total, rates = weighted_sum_rate(channels, precoders, sigma, beta)
        for k in range(K):
            interference = sigma * np.eye(M, dtype=complex)
            for i in range(K):
                if i != k:
                    s = channels[k] @ precoders[i]
                    interference += s @ s.conj().T
            s = channels[k] @ precoders[k]
            # Alternative route: generalized eigenvalues of the signal and
            # interference covariances.
            eigs = np.linalg.eigvals(
                np.linalg.solve(interference, interference + s @ s.conj().T)
            )
            expected = float(np.sum(np.log2(np.abs(eigs))))
            assert rates[k] == pytest.approx(expected, rel=1e-9)
        assert total == pytest.approx(float(beta @ rates), rel=1e-12)


# ---------------------------------------------------------------------------
# Auxiliaries
# ---------------------------------------------------------------------------

class TestReceivers:
    def test_zero_precoder(self, rng):
        h = [random_complex(rng, 2, 4)]
        u = mmse_receivers(h, [np.zeros((4, 2))], 1e-2)
        assert_allclose(u[0], 0.0)

    def test_scalar_wiener(self):
        h = [np.array([[3.0 + 0j]])]
        f = [np.array([[0.4 + 0j]])]
        sigma = 0.7
        u = mmse_receivers(h, f, sigma)[0]
        hf = 1.2
        assert u[0, 0] == pytest.approx(hf / (hf**2 + sigma), rel=1e-12)

    def test_stationarity_by_finite_differences(self, rng):
        K, M, N, Dk = 2, 3, 6, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        sigma = 0.3
        receivers = mmse_receivers(channels, precoders, sigma)

        def trace_mse(u, k):
            return float(np.trace(mse_matrix(channels[k], precoders, k, u, sigma)).real)

        k = 0
        base = trace_mse(receivers[k], k)
        eps = 1e-6
        for _ in range(4):
            direction = random_complex(rng, M, Dk)
            direction /= np.linalg.norm(direction)
            up = trace_mse(receivers[k] + eps * direction, k)
            down = trace_mse(receivers[k] - eps * direction, k)
            derivative = (up - down) / (2 * eps)
            assert abs(derivative) < 1e-6
            assert up >= base - 1e-12 and down >= base - 1e-12


class TestMseMatrix:
    def test_zero_receiver_gives_identity(self, rng):
        h = random_complex(rng, 2, 4)
        precoders = [random_complex(rng, 4, 2)]
        e = mse_matrix(h, precoders, 0, np.zeros((2, 2)), 0.5)
        assert_allclose(e, np.eye(2), atol=1e-12)

    def test_perfect_scalar_equalization(self):
        h = np.array([[2.0 + 0j]])
        f = [np.array([[0.5 + 0j]])]
        sigma = 1e-12
        u = mmse_receivers([h], f, sigma)[0]
        e = mse_matrix(h, f, 0, u, sigma)
        assert abs(e[0, 0]) < 1e-9

    def test_matches_expanded_expectation(self, rng):
        # E[(s - U^H y)(s - U^H y)^H] expanded over unit-power streams and
        # noise, term by term.
        K, M, N, Dk = 2, 3, 5, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        sigma = 0.4
        u = random_complex(rng, M, Dk)
        k = 0
        h = channels[k]
        eye = np.eye(Dk, dtype=complex)
        expected = (
            eye
            - u.conj().T @ h @ precoders[k]
            - (u.conj().T @ h @ precoders[k]).conj().T
            + sum(
                u.conj().T @ h @ p @ p.conj().T @ h.conj().T @ u for p in precoders
            )
            + sigma * u.conj().T @ u
        )
        assert_allclose(mse_matrix(h, precoders, k, u, sigma), expected, rtol=1e-10)


class TestWeights:
    def test_zero_precoder_gives_identity(self, rng):
        h = [random_complex(rng, 2, 4)]
        f = [np.zeros((4, 2))]
        receivers = mmse_receivers(h, f, 0.1)
        w = mse_weights(h, f, receivers)[0]
        assert_allclose(w, np.eye(2), atol=1e-12)

    def test_scalar_closed_form(self):
        h = [np.array([[2.0 + 0j]])]
        f = [np.array([[0.5 + 0j]])]
        sigma = 0.3
        receivers = mmse_receivers(h, f, sigma)
        w = mse_weights(h, f, receivers)[0]
        hf = 1.0
        assert w[0, 0].real == pytest.approx((hf**2 + sigma) / sigma, rel=1e-12)

    def test_hermitian_with_unit_floor_eigenvalues(self, rng):
        K, M, N, Dk = 2, 3, 6, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        receivers = mmse_receivers(channels, precoders, 0.2)
        for w in mse_weights(channels, precoders, receivers):
            assert_allclose(w, w.conj().T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(w)) >= 1.0 - 1e-9


class TestObjective:
    def test_identity_case(self):
        w = [np.eye(2, dtype=complex), np.eye(3, dtype=complex)]
        e = [np.eye(2, dtype=complex), np.eye(3, dtype=complex)]
        assert wmmse_objective(w, e, [0.25, 0.75]) == pytest.approx(0.25 * 2 + 0.75 * 3)

    def test_scales_linearly_in_weights(self, rng):
        w = [random_psd(rng, 2) + np.eye(2)]
        e = [random_psd(rng, 2)]
        a = wmmse_objective(w, e, [1.0])
        b = wmmse_objective(w, e, [2.0])
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_requires_positive_definite(self):
        with pytest.raises(ValueError):
            wmmse_objective([np.diag([1.0, -1.0]).astype(complex)], [np.eye(2, dtype=complex)], [1.0])

    def test_decreases_as_rate_increases_along_power_sweep(self, rng):
        h = [random_complex(rng, 2, 4)]
        base = random_complex(rng, 4, 2)
        sigma = 0.5
        objectives, rates = [], []
        for scale in np.linspace(0.2, 2.0, 8):
            f = [scale * base]
            receivers = mmse_receivers(h, f, sigma)
            weights = mse_weights(h, f, receivers)
            mses = [mse_matrix(h[0], f, 0, receivers[0], sigma)]
            objectives.append(wmmse_objective(weights, mses, [1.0]))
            rates.append(weighted_sum_rate(h, f, sigma, [1.0])[0])
        assert np.all(np.diff(rates) > 0)
        assert np.all(np.diff(objectives) < 0)


# ---------------------------------------------------------------------------
# Per-antenna terms and the closed-form row
# ---------------------------------------------------------------------------

def _random_block_state(rng, n=3, width=2, users=(1, 2), m=2):
    """Random consistent solver state on tiny dimensions."""
    from trihybrid.channel import EffectiveChannel

    effs = [
        EffectiveChannel(matrix=random_complex(rng, m, n * width), mode="sel", block_width=width)
        for _ in users
    ]
    selection = rng.integers(0, width, n)
    antenna_matrix = selection_matrix(selection, width)
    d_total = sum(users)
    f_d = random_complex(rng, n, d_total)
    receivers = [random_complex(rng, m, dk) for dk in users]
    weights = [random_psd(rng, dk) + np.eye(dk) for dk in users]
    beta = rng.uniform(0.5, 1.5, len(users))
    return effs, antenna_matrix, f_d, receivers, weights, beta, users


def _full_objective(effs, antenna_matrix, f_d, receivers, weights, beta, users, sigma=0.3):
    channels = [compose(e, antenna_matrix) for e in effs]
    precoders = split_precoder(f_d, users)
    mses = [
        mse_matrix(channels[k], precoders, k, receivers[k], sigma)
        for k in range(len(users))
    ]
    return wmmse_objective(weights, mses, beta)


class TestPerAntennaTerms:
    def test_zero_receivers_zero_terms(self, rng):
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(rng)
        receivers = [np.zeros_like(u) for u in receivers]
        terms = _SweepWorkspace(effs, antenna_matrix, f_d, receivers, weights, beta).terms(1)
        assert_allclose(terms.quad_term, 0.0, atol=1e-15)
        assert_allclose(terms.cross_term, 0.0, atol=1e-15)
        assert_allclose(terms.align_term, 0.0, atol=1e-15)

    def test_single_antenna_has_no_cross_coupling(self, rng):
        effs, _, f_d, receivers, weights, beta, users = _random_block_state(rng, n=1)
        antenna_matrix = selection_matrix(np.zeros(1, dtype=int), 2)
        terms = _SweepWorkspace(effs, antenna_matrix, f_d[:1], receivers, weights, beta).terms(0)
        assert_allclose(terms.cross_term, 0.0, atol=1e-12)

    def test_quad_term_hermitian_psd(self, rng):
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(rng)
        terms = _SweepWorkspace(effs, antenna_matrix, f_d, receivers, weights, beta).terms(0)
        assert_allclose(terms.quad_term, terms.quad_term.conj().T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(terms.quad_term)) >= -1e-12

    def test_block_objective_differs_from_full_by_constant(self, rng):
        # The reduced quadratic form and the full weighted-MSE objective must
        # differ by a value independent of this antenna's variables.
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(rng)
        n = 1
        terms = _SweepWorkspace(effs, antenna_matrix, f_d, receivers, weights, beta).terms(n)
        width = antenna_matrix.shape[1]
        gaps = []
        for _ in range(10):
            row = random_complex(rng, f_d.shape[1])
            vector = np.zeros(width)
            vector[rng.integers(0, width)] = 1.0
            f_mod = f_d.copy()
            f_mod[n] = row.conj()
            am_mod = antenna_matrix.copy()
            am_mod[n] = vector
            full = _full_objective(effs, am_mod, f_mod, receivers, weights, beta, users)
            reduced = block_objective(terms, row, vector)
            gaps.append(full - reduced)
        assert np.ptp(gaps) < 1e-8 * max(1.0, abs(gaps[0]))

    @pytest.mark.parametrize("one_hot", [True, False], ids=["selection", "coefficients"])
    def test_running_terms_match_fresh_workspace(self, rng, one_hot):
        # After antenna updates, the rank-two corrected received signal must
        # give the terms a workspace built from scratch on the new state gives.
        width = 4
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(
            rng, n=5, width=width
        )
        if not one_hot:
            antenna_matrix = rng.standard_normal(antenna_matrix.shape)
        running = _SweepWorkspace(effs, antenna_matrix, f_d, receivers, weights, beta)
        for n in (3, 0, 4, 3, 1):
            if one_hot:
                vector = np.eye(width)[rng.integers(0, width)]
            else:
                vector = rng.standard_normal(width)
            running.apply(n, vector, random_complex(rng, f_d.shape[1]))
        fresh = _SweepWorkspace(
            effs, antenna_matrix.copy(), f_d.copy(), receivers, weights, beta
        )
        for n in range(5):
            got, want = running.terms(n), fresh.terms(n)
            for name in ("quad_term", "cross_term", "align_term"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (n, name)


class TestClosedFormRow:
    def test_zero_direction_gives_zero(self, rng):
        width = 3
        terms = PerAntennaTerms(
            quad_term=np.eye(width, dtype=complex),
            cross_term=np.zeros((4, width), dtype=complex),
            align_term=np.zeros((4, width), dtype=complex),
        )
        v = np.zeros(width)
        v[0] = 1.0
        assert_allclose(solve_antenna_row(terms, v, 5.0), 0.0)

    def test_interior_optimum(self):
        # Unit quadratic, unit direction, large budget: step length one.
        quad = np.eye(1, dtype=complex)
        d = np.zeros((3, 1), dtype=complex)
        d[0, 0] = 1.0
        terms = PerAntennaTerms(quad_term=quad, cross_term=d, align_term=np.zeros_like(d))
        row = solve_antenna_row(terms, np.ones(1), 100.0)
        assert_allclose(row, -d[:, 0], atol=1e-14)

    def test_power_limited_branch(self):
        quad = 0.1 * np.eye(1, dtype=complex)
        d = np.zeros((2, 1), dtype=complex)
        d[1, 0] = 1.0
        terms = PerAntennaTerms(quad_term=quad, cross_term=d, align_term=np.zeros_like(d))
        row = solve_antenna_row(terms, np.ones(1), 4.0)
        # Step is min(1/0.1, sqrt(4)/1) = 2.
        assert_allclose(row, -2.0 * d[:, 0], atol=1e-14)

    def test_beats_dense_ball_sampling(self, rng):
        d_streams, width, budget = 3, 2, 2.0
        quad = random_psd(rng, width)
        cross = random_complex(rng, d_streams, width)
        align = random_complex(rng, d_streams, width)
        terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
        v = np.zeros(width)
        v[1] = 1.0
        row = solve_antenna_row(terms, v, budget)
        assert np.real(row @ row.conj()) <= budget * (1 + 1e-12)
        value = block_objective(terms, row, v)
        samples = ball_samples(rng, 200_000, d_streams, np.sqrt(budget))
        a = float(np.real(v @ quad @ v))
        dvec = (cross - align) @ v
        sampled = a * np.sum(np.abs(samples) ** 2, axis=1) + 2.0 * np.real(
            samples.conj() @ dvec
        )
        assert value <= float(np.min(sampled)) + 1e-6


class TestSelectPattern:
    def test_forced_single_candidate(self, rng):
        quad = random_psd(rng, 1)
        cross = random_complex(rng, 3, 1)
        align = random_complex(rng, 3, 1)
        terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
        index, row, value = select_pattern_and_row(terms, 1.0)
        assert index == 0
        assert_allclose(row, solve_antenna_row(terms, np.ones(1), 1.0))

    def test_matches_joint_brute_force(self, rng):
        d_streams, width, budget = 3, 4, 1.5
        quad = random_psd(rng, width)
        cross = random_complex(rng, d_streams, width)
        align = random_complex(rng, d_streams, width)
        terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
        index, row, value = select_pattern_and_row(terms, budget)
        best_sampled = np.inf
        for s in range(width):
            v = np.zeros(width)
            v[s] = 1.0
            a = float(np.real(v @ quad @ v))
            dvec = (cross - align) @ v
            samples = ball_samples(rng, 100_000, d_streams, np.sqrt(budget))
            sampled = a * np.sum(np.abs(samples) ** 2, axis=1) + 2.0 * np.real(
                samples.conj() @ dvec
            )
            best_sampled = min(best_sampled, float(np.min(sampled)))
        assert value <= best_sampled + 1e-6

    def test_tie_breaks_to_lowest_index(self, rng):
        quad = random_psd(rng, 2)
        quad[1, 1] = quad[0, 0]
        cross = random_complex(rng, 3, 1)
        cross = np.hstack([cross, cross])  # identical candidates
        align = np.zeros_like(cross)
        quad[0, 1] = quad[1, 0] = quad[0, 0]
        terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
        index, _, _ = select_pattern_and_row(terms, 1.0)
        assert index == 0

    def test_zero_direction_and_zero_quad_candidates(self, rng):
        # In one call, candidate 1 has no direction, candidate 2 no quadratic
        # coefficient, and candidate 3 one below _TINY_QUAD with a boundary
        # step beyond its inverse.  Every candidate must get the closed form
        # of _row_solution, and nothing may warn.
        d_streams, width, budget = 3, 5, 0.7
        quad = random_psd(rng, width)
        quad[2:4, :] = quad[:, 2:4] = 0.0
        quad[3, 3] = 0.5 * _TINY_QUAD
        align = random_complex(rng, d_streams, width)
        direction = random_complex(rng, d_streams, width)
        direction[:, 1] = 0.0
        direction[:, 2] *= 10.0  # the boundary step of candidate 2 wins
        direction[:, 3] *= 1e-14
        cross = align + direction
        terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
        expected = [
            _row_solution(float(quad[s, s].real), cross[:, s] - align[:, s], budget)
            for s in range(width)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index, row, value = select_pattern_and_row(terms, budget)
            singles = [
                select_pattern_and_row(
                    PerAntennaTerms(
                        quad_term=quad[s : s + 1, s : s + 1],
                        cross_term=cross[:, s : s + 1],
                        align_term=align[:, s : s + 1],
                    ),
                    budget,
                )
                for s in range(width)
            ]
        values = [v for _, v in expected]
        assert values[1] == 0.0
        assert np.linalg.norm(expected[2][0]) ** 2 == pytest.approx(budget, rel=1e-14)
        assert index == 2 == int(np.argmin(values))
        assert_allclose(row, expected[2][0], rtol=1e-13, atol=0.0)
        assert value == pytest.approx(values[2], rel=1e-13, abs=0.0)
        for s, (single_index, single_row, single_value) in enumerate(singles):
            assert single_index == 0
            assert_allclose(single_row, expected[s][0], rtol=1e-13, atol=0.0)
            assert single_value == pytest.approx(expected[s][1], rel=1e-13, abs=0.0)


class TestSynthesizeUpdate:
    def test_rho_one_keeps_coefficients(self, rng):
        width = 9
        quad = random_psd(rng, width)
        cross = random_complex(rng, 4, width)
        align = random_complex(rng, 4, width)
        terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
        coeffs = np.zeros(width)
        coeffs[0] = 2.0 * np.sqrt(np.pi)
        out, row = synthesize_pattern_and_row(terms, coeffs, 1.0, 1.0)
        assert_allclose(out, coeffs)
        assert np.any(row != 0)

    def test_block_objective_never_increases(self, rng):
        width = 4
        for trial in range(10):
            quad = random_psd(rng, width)
            cross = random_complex(rng, 3, width)
            align = random_complex(rng, 3, width)
            terms = PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=align)
            start = np.zeros(width - 1)
            start[0] = 1.0
            rho = 0.7
            coeffs = np.concatenate(
                [[2 * np.sqrt(rho * np.pi)], 2 * np.sqrt((1 - rho) * np.pi) * start]
            )
            row0 = random_complex(rng, 3)
            before = block_objective(terms, row0, coeffs)
            out, row = synthesize_pattern_and_row(
                terms, coeffs, float(np.real(row0 @ row0.conj())), rho
            )
            after = block_objective(terms, row, out)
            assert after <= before + 1e-9
            assert abs(out @ out - FOUR_PI) < 1e-9
            assert out[0] == pytest.approx(2 * np.sqrt(rho * np.pi))

    def test_zero_terms_keep_start(self):
        width = 4
        terms = PerAntennaTerms(
            quad_term=np.zeros((width, width), dtype=complex),
            cross_term=np.zeros((2, width), dtype=complex),
            align_term=np.zeros((2, width), dtype=complex),
        )
        rho = 0.8
        coeffs = np.concatenate(
            [[2 * np.sqrt(rho * np.pi)], 2 * np.sqrt((1 - rho) * np.pi) * np.array([1.0, 0, 0])]
        )
        out, row = synthesize_pattern_and_row(terms, coeffs, 1.0, rho)
        assert_allclose(out, coeffs)
        assert_allclose(row, 0.0)


# ---------------------------------------------------------------------------
# Full algorithms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup():
    scenario = desk_scenario(5)
    candidates = gaussian_beam_grid(8, baseline_first=True)
    streams = (2, 2)
    return scenario, candidates, streams


class TestRunSelection:
    def test_monotone_blockwise(self, small_setup):
        scenario, candidates, streams = small_setup
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=4, objective_tol=0.0)
        values = []
        run_selection(effs, streams, config, block_monitor=lambda _, v: values.append(v))
        values = np.array(values)
        drops = np.diff(values)
        assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))

    def test_power_feasible_every_iteration(self, small_setup):
        scenario, candidates, streams = small_setup
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=10)
        state, trace = run_selection(effs, streams, config)
        assert max(trace.max_power_violation) <= 1e-12
        assert max(trace.antenna_deviation) == 0.0

    def test_rate_link(self, small_setup):
        scenario, candidates, streams = small_setup
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=10)
        state, trace = run_selection(effs, streams, config)
        channels = [compose(e, selection_matrix(state.selection, candidates.size)) for e in effs]
        rate, _ = weighted_sum_rate(
            channels, split_precoder(state.f_d, streams), state.noise, state.beta
        )
        assert rate == pytest.approx(trace.sum_rate[-1], abs=1e-9)

    def test_single_candidate_matches_fixed_baseline(self, small_setup):
        from trihybrid.baselines import fixed_pattern_wmmse
        from trihybrid.patterns import CandidateSet

        scenario, candidates, streams = small_setup
        pattern = candidates.baseline
        config = desk_solver(max_outer_iterations=8, objective_tol=0.0)
        effs = [
            selection_effective_channel(g, CandidateSet((pattern,)))
            for g in scenario.geometries
        ]
        state_a, trace_a = run_selection(effs, streams, config)
        state_b, trace_b = fixed_pattern_wmmse(scenario, pattern, streams, config)
        assert trace_a.objective == trace_b.objective
        assert trace_a.sum_rate == trace_b.sum_rate
        assert np.array_equal(state_a.f_d, state_b.f_d)


class TestRunSynthesis:
    def test_monotone_blockwise(self, small_setup):
        scenario, _, streams = small_setup
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        values = []
        run_synthesis(effs, streams, config, block_monitor=lambda _, v: values.append(v))
        values = np.array(values)
        drops = np.diff(values)
        assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))

    def test_coefficient_norms_pinned(self, small_setup):
        scenario, _, streams = small_setup
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=6)
        state, trace = run_synthesis(effs, streams, config)
        norms = np.sum(state.coefficients**2, axis=1)
        assert np.abs(norms - FOUR_PI).max() < 1e-9
        assert_allclose(state.coefficients[:, 0], 2 * np.sqrt(config.rho * np.pi))
        assert max(trace.max_power_violation) <= 1e-12

    def test_rho_one_matches_fixed_isotropic(self, small_setup):
        from trihybrid.baselines import fixed_pattern_wmmse

        scenario, _, streams = small_setup
        config = desk_solver(max_outer_iterations=8, objective_tol=0.0, rho=1.0)
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        state, trace = run_synthesis(effs, streams, config)
        state_f, trace_f = fixed_pattern_wmmse(
            scenario, isotropic_pattern(), streams, config
        )
        a, b = np.array(trace.objective), np.array(trace_f.objective)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_degree_zero_matches_rho_one(self, small_setup):
        scenario, _, streams = small_setup
        effs0 = [synthesis_effective_channel(g, 0) for g in scenario.geometries]
        effs2 = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=8, objective_tol=0.0)
        _, trace0 = run_synthesis(effs0, streams, config)
        _, trace1 = run_synthesis(effs2, streams, dataclasses.replace(config, rho=1.0))
        a, b = np.array(trace0.objective), np.array(trace1.objective)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_warm_start_dominates_fixed(self, small_setup):
        from trihybrid.baselines import fixed_pattern_wmmse

        scenario, candidates, streams = small_setup
        config = desk_solver(max_outer_iterations=15)
        state_f, trace_f = fixed_pattern_wmmse(
            scenario, candidates.baseline, streams, config
        )
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        state_m, trace_m = run_selection(
            effs, streams, config, init_f_d=state_f.f_d
        )
        assert trace_m.sum_rate[-1] >= trace_f.sum_rate[-1] - 1e-6
