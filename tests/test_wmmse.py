import collections
import dataclasses
import itertools
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import desk_scenario, desk_solver
from helpers import (
    alignment_term,
    antenna_terms,
    ball_samples,
    block_objective,
    block_objectives,
    embed_receivers,
    embed_weights,
    hermitian_sweep_terms,
    isotropic_pattern,
    mmse_receivers_loop,
    mse_matrix_loop,
    mse_weights_loop,
    pattern_deviations,
    random_complex,
    random_psd,
    receiver_block,
    rotated_sphere_solve,
    row_solution,
    select_pattern_and_row_loop,
    select_pattern_and_row_vectorized,
    split_precoder,
    stream_block,
    synthesize_pattern_and_row_single,
    weighted_sum_rate_loop,
    wmmse_objective_loop,
)
from trihybrid.baselines import bd_zero_forcing, fixed_pattern_wmmse
from trihybrid.channel import (
    EffectiveChannel,
    compose,
    selection_effective_channel,
    synthesis_effective_channel,
)
from trihybrid.patterns import CandidateSet, gaussian_beam_grid
from trihybrid.sphere_opt import (
    isotropic_coefficients,
    lift_coefficients,
    reduced_coefficient_problem,
    reduction_factors,
    sphere_terms,
)
from trihybrid.sphharm import FOUR_PI
from trihybrid import wmmse
from trihybrid.wmmse import (
    _TINY_QUAD,
    Iterate,
    Run,
    SolverConfig,
    Trace,
    _Batch,
    _SweepWorkspace,
    candidate_quads,
    decompose_states,
    iterate_selection,
    iterate_synthesis,
    mmse_receivers,
    mse_matrix,
    mse_weights,
    received_covariances,
    run_selection,
    run_synthesis,
    select_pattern_and_row,
    stream_masks,
    synthesize_pattern_and_row,
    weighted_sum_rate,
    wmmse_objective,
)


def _pass(channels, precoders, noise):
    """Covariance pass of per-user channels and per-user precoders."""
    counts = [p.shape[1] for p in precoders]
    return received_covariances(channels, np.hstack(precoders), stream_masks(counts), noise)


# ---------------------------------------------------------------------------
# Rates
# ---------------------------------------------------------------------------

class TestSumRate:
    def test_zero_precoder(self, rng):
        h = [random_complex(rng, 2, 4)]
        total, rates = weighted_sum_rate(_pass(h, [np.zeros((4, 2))], 1e-3), [1.0])
        assert total == 0.0 and rates[0] == 0.0

    def test_scalar_snr_one(self):
        # |hf|^2 / sigma^2 = 1 gives exactly one bit.
        h = [np.array([[2.0 + 0j]])]
        f = [np.array([[0.5 + 0j]])]
        total, _ = weighted_sum_rate(_pass(h, f, 1.0), [1.0])
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_matches_eigenvalue_evaluation(self, rng):
        K, M, N, Dk = 3, 2, 8, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        sigma = 0.1
        beta = np.array([0.5, 0.3, 0.2])
        total, rates = weighted_sum_rate(_pass(channels, precoders, sigma), beta)
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

    def test_equal_weights_by_default(self, rng):
        channels = [random_complex(rng, 2, 4) for _ in range(2)]
        cov = _pass(channels, [random_complex(rng, 4, 1) for _ in range(2)], 0.2)
        total, rates = weighted_sum_rate(cov)
        assert total == pytest.approx(0.5 * (rates[0] + rates[1]), rel=1e-15)


# ---------------------------------------------------------------------------
# The covariance pass against the per-user loops
# ---------------------------------------------------------------------------

class TestCovariancePass:
    STREAMS = (1, 2, 1)

    def _state(self, rng):
        M, N = 2, 6
        channels = [random_complex(rng, M, N) for _ in self.STREAMS]
        f_d = random_complex(rng, N, sum(self.STREAMS))
        noise = np.array([0.1, 0.3, 0.05])
        cov = received_covariances(channels, f_d, stream_masks(self.STREAMS), noise)
        return channels, split_precoder(f_d, self.STREAMS), noise, cov

    def test_receivers_and_weights_match_loops(self, rng):
        channels, precoders, noise, cov = self._state(rng)
        receivers = mmse_receivers(cov)
        weights = mse_weights(cov, receivers)
        want_u = mmse_receivers_loop(channels, precoders, noise)
        want_w = mse_weights_loop(channels, precoders, want_u)
        for k in range(len(self.STREAMS)):
            got_u = receiver_block(receivers, k, self.STREAMS)
            got_w = stream_block(weights, k, self.STREAMS)
            assert np.linalg.norm(got_u - want_u[k]) <= 1e-12 * np.linalg.norm(want_u[k])
            assert np.linalg.norm(got_w - want_w[k]) <= 1e-12 * np.linalg.norm(want_w[k])
        # Outside each user's streams: zero filters and identity weights.
        assert_allclose(embed_receivers(want_u, self.STREAMS), receivers, rtol=1e-12, atol=0.0)
        outside = ~stream_masks(self.STREAMS).astype(bool)
        for k, rows in enumerate(outside):
            assert np.array_equal(weights[k][np.ix_(rows, rows)], np.eye(rows.sum()))

    def test_objective_and_rate_match_loops(self, rng):
        channels, precoders, noise, cov = self._state(rng)
        beta = np.array([0.2, 0.5, 0.3])
        # Arbitrary filters and weights as well as the optimal ones.
        receivers = [random_complex(rng, 2, d) for d in self.STREAMS]
        weights = [random_psd(rng, d) + np.eye(d) for d in self.STREAMS]
        for _ in range(2):
            mses = [
                mse_matrix_loop(channels[k], precoders, k, receivers[k], noise[k])
                for k in range(len(self.STREAMS))
            ]
            want = wmmse_objective_loop(weights, mses, beta)
            got = wmmse_objective(
                embed_weights(weights, self.STREAMS),
                mse_matrix(cov, embed_receivers(receivers, self.STREAMS)),
                cov.masks,
                beta,
            )
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            receivers = mmse_receivers_loop(channels, precoders, noise)
            weights = mse_weights_loop(channels, precoders, receivers)
        want_total, want_rates = weighted_sum_rate_loop(channels, precoders, noise, beta)
        total, rates = weighted_sum_rate(cov, beta)
        assert_allclose(rates, want_rates, rtol=1e-12, atol=0.0)
        assert total == pytest.approx(want_total, rel=1e-12, abs=0.0)

    def test_unequal_receive_counts_rejected(self, rng):
        channels = [random_complex(rng, 2, 4), random_complex(rng, 3, 4)]
        with pytest.raises(ValueError, match="same number of receive antennas"):
            received_covariances(channels, random_complex(rng, 4, 2), stream_masks((1, 1)), 0.1)
        effs = [
            EffectiveChannel(matrix=random_complex(rng, m, 4 * 2), mode="sel", block_width=2)
            for m in (2, 3)
        ]
        with pytest.raises(ValueError, match="same number of receive antennas"):
            run_selection(effs, (1, 1), desk_solver(max_outer_iterations=1, rf_chains=2))

    @pytest.mark.parametrize("power", [-1.0, 0.0, np.nan, np.inf, [1.0, 1.0, -1.0, 1.0]])
    def test_power_budgets_must_be_positive_and_finite(self, rng, power):
        # The step takes the square root of each budget; a negative or NaN
        # one must be rejected before any sweep, whichever solver runs.
        for mode, solve in (("sel", run_selection), ("cof", run_synthesis)):
            effs = [
                EffectiveChannel(matrix=random_complex(rng, 2, 4 * 2), mode=mode, block_width=2)
                for _ in range(2)
            ]
            config = desk_solver(max_outer_iterations=1, rf_chains=2, power=power)
            with pytest.raises(ValueError, match="positive and finite"):
                solve(effs, (1, 1), config)


# ---------------------------------------------------------------------------
# Auxiliaries
# ---------------------------------------------------------------------------

class TestReceivers:
    def test_zero_precoder(self, rng):
        h = [random_complex(rng, 2, 4)]
        u = mmse_receivers(_pass(h, [np.zeros((4, 2))], 1e-2))
        assert_allclose(u[0], 0.0)

    def test_scalar_wiener(self):
        h = [np.array([[3.0 + 0j]])]
        f = [np.array([[0.4 + 0j]])]
        sigma = 0.7
        u = mmse_receivers(_pass(h, f, sigma))[0]
        hf = 1.2
        assert u[0, 0] == pytest.approx(hf / (hf**2 + sigma), rel=1e-12)

    def test_stationarity_by_finite_differences(self, rng):
        K, M, N, Dk = 2, 3, 6, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        sigma = 0.3
        cov = _pass(channels, precoders, sigma)
        receivers = mmse_receivers(cov)

        def trace_mse(u, k):
            return float(np.trace(stream_block(mse_matrix(cov, u), k, (Dk,) * K)).real)

        k = 0
        base = trace_mse(receivers, k)
        eps = 1e-6
        for _ in range(4):
            direction = np.zeros_like(receivers)
            direction[k, :, :Dk] = random_complex(rng, M, Dk)
            direction /= np.linalg.norm(direction)
            up = trace_mse(receivers + eps * direction, k)
            down = trace_mse(receivers - eps * direction, k)
            derivative = (up - down) / (2 * eps)
            assert abs(derivative) < 1e-6
            assert up >= base - 1e-12 and down >= base - 1e-12


class TestMseMatrix:
    def test_zero_receiver_gives_identity(self, rng):
        h = [random_complex(rng, 2, 4)]
        cov = _pass(h, [random_complex(rng, 4, 2)], 0.5)
        e = mse_matrix(cov, np.zeros((1, 2, 2)))
        assert_allclose(e[0], np.eye(2), atol=1e-12)

    def test_perfect_scalar_equalization(self):
        h = [np.array([[2.0 + 0j]])]
        f = [np.array([[0.5 + 0j]])]
        cov = _pass(h, f, 1e-12)
        e = mse_matrix(cov, mmse_receivers(cov))
        assert abs(e[0, 0, 0]) < 1e-9

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
        receivers = embed_receivers([u, np.zeros((M, Dk))], (Dk, Dk))
        e = mse_matrix(_pass(channels, precoders, sigma), receivers)
        assert_allclose(stream_block(e, k, (Dk, Dk)), expected, rtol=1e-10)


class TestWeights:
    def test_zero_precoder_gives_identity(self, rng):
        h = [random_complex(rng, 2, 4)]
        cov = _pass(h, [np.zeros((4, 2))], 0.1)
        w = mse_weights(cov, mmse_receivers(cov))[0]
        assert_allclose(w, np.eye(2), atol=1e-12)

    def test_scalar_closed_form(self):
        h = [np.array([[2.0 + 0j]])]
        f = [np.array([[0.5 + 0j]])]
        sigma = 0.3
        cov = _pass(h, f, sigma)
        w = mse_weights(cov, mmse_receivers(cov))[0]
        hf = 1.0
        assert w[0, 0].real == pytest.approx((hf**2 + sigma) / sigma, rel=1e-12)

    def test_hermitian_with_unit_floor_eigenvalues(self, rng):
        K, M, N, Dk = 2, 3, 6, 2
        channels = [random_complex(rng, M, N) for _ in range(K)]
        precoders = [random_complex(rng, N, Dk) for _ in range(K)]
        cov = _pass(channels, precoders, 0.2)
        for w in mse_weights(cov, mmse_receivers(cov)):
            assert_allclose(w, w.conj().T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(w)) >= 1.0 - 1e-9

    def test_singular_update_names_the_user(self):
        # Both users see their own stream with unit gain; user 1's filter
        # cancels it exactly, so its weight update I - U^H H F is zero.
        channels = [np.array([[1.0 + 0j, 0.0]]), np.array([[0.0, 2.0 + 0j]])]
        f_d = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
        cov = received_covariances(channels, f_d, stream_masks((1, 1)), 0.1)
        receivers = np.array([[[0.5, 0.0]], [[0.0, 1.0]]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError, match="for user 1"):
            mse_weights(cov, receivers)


class TestObjective:
    def test_identity_case(self):
        streams = (2, 3)
        w = np.tile(np.eye(5, dtype=complex), (2, 1, 1))
        e = np.tile(np.eye(5, dtype=complex), (2, 1, 1))
        value = wmmse_objective(w, e, stream_masks(streams), [0.25, 0.75])
        assert value == pytest.approx(0.25 * 2 + 0.75 * 3)

    def test_scales_linearly_in_weights(self, rng):
        w = (random_psd(rng, 2) + np.eye(2))[None]
        e = random_psd(rng, 2)[None]
        a = wmmse_objective(w, e, stream_masks((2,)), [1.0])
        b = wmmse_objective(w, e, stream_masks((2,)), [2.0])
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_requires_positive_definite(self):
        w = np.diag([1.0, -1.0]).astype(complex)[None]
        with pytest.raises(ValueError):
            wmmse_objective(w, np.eye(2, dtype=complex)[None], stream_masks((2,)), [1.0])

    def test_decreases_as_rate_increases_along_power_sweep(self, rng):
        h = [random_complex(rng, 2, 4)]
        base = random_complex(rng, 4, 2)
        sigma = 0.5
        objectives, rates = [], []
        for scale in np.linspace(0.2, 2.0, 8):
            cov = _pass(h, [scale * base], sigma)
            receivers = mmse_receivers(cov)
            weights = mse_weights(cov, receivers)
            mse = mse_matrix(cov, receivers)
            objectives.append(wmmse_objective(weights, mse, cov.masks, [1.0]))
            rates.append(weighted_sum_rate(cov, [1.0])[0])
        assert np.all(np.diff(rates) > 0)
        assert np.all(np.diff(objectives) < 0)


# ---------------------------------------------------------------------------
# Per-antenna terms and the closed-form row
# ---------------------------------------------------------------------------

def _random_block_state(rng, n=3, width=2, users=(1, 2), m=2):
    """Random consistent solver state on tiny dimensions."""
    effs = [
        EffectiveChannel(matrix=random_complex(rng, m, n * width), mode="sel", block_width=width)
        for _ in users
    ]
    selection = rng.integers(0, width, n)
    antenna_matrix = np.eye(width)[selection]
    d_total = sum(users)
    f_d = random_complex(rng, n, d_total)
    receivers = embed_receivers([random_complex(rng, m, dk) for dk in users], users)
    weights = embed_weights([random_psd(rng, dk) + np.eye(dk) for dk in users], users)
    beta = rng.uniform(0.5, 1.5, len(users))
    return effs, antenna_matrix, f_d, receivers, weights, beta, users


def _workspace(effs, antenna_matrix, f_d, receivers, weights, beta, users, factors=None):
    """The sweep workspace of a batch of one run, whose pairs and rows are
    its antennas in order, at the given state: a selection batch, or a
    synthesis batch with the given reduction factors."""
    batch = _Batch.of([Run(effs, SolverConfig(noise=0.3))], users, antenna_matrix[:1], factors)
    batch = dataclasses.replace(
        batch, f_d=f_d, antenna_matrix=antenna_matrix, weights=weights[None],
        cov=batch.covariances(batch.channels(antenna_matrix), f_d),
    )
    return _SweepWorkspace(batch, receivers[None], beta)


def _full_objective(effs, antenna_matrix, f_d, receivers, weights, beta, users, sigma=0.3):
    channels = [compose(e, antenna_matrix) for e in effs]
    cov = received_covariances(channels, f_d, stream_masks(users), sigma)
    return wmmse_objective(weights, mse_matrix(cov, receivers), cov.masks, beta)


class TestPerAntennaTerms:
    def test_zero_receivers_zero_terms(self, rng):
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(rng)
        receivers = np.zeros_like(receivers)
        workspace = _workspace(effs, antenna_matrix, f_d, receivers, weights, beta, users)
        assert_allclose(workspace.quad[1], 0.0, atol=1e-15)
        assert_allclose(workspace.linear(1)[0], 0.0, atol=1e-15)

    def test_single_antenna_has_no_cross_coupling(self, rng):
        # With no other antenna, the linear term is the alignment term alone.
        effs, _, f_d, receivers, weights, beta, users = _random_block_state(rng, n=1)
        antenna_matrix = np.eye(2)[[0]]
        workspace = _workspace(effs, antenna_matrix, f_d[:1], receivers, weights, beta, users)
        align = alignment_term(effs, receivers, weights, beta, 0)
        assert_allclose(workspace.linear(0)[0], -align, atol=1e-12)

    def test_quad_term_hermitian_psd(self, rng):
        quad = _workspace(*_random_block_state(rng)).quad[0]
        assert_allclose(quad, quad.conj().T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(quad)) >= -1e-12

    def test_block_objective_differs_from_full_by_constant(self, rng):
        # The reduced quadratic form and the full weighted-MSE objective must
        # differ by a value independent of this antenna's variables.
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(rng)
        n = 1
        workspace = _workspace(effs, antenna_matrix, f_d, receivers, weights, beta, users)
        quad, linear = workspace.quad[n], workspace.linear(n)[0]
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
            reduced = block_objective(quad, linear, row, vector)
            gaps.append(full - reduced)
        assert np.ptp(gaps) < 1e-8 * max(1.0, abs(gaps[0]))

    @pytest.mark.parametrize("one_hot", [True, False], ids=["selection", "coefficients"])
    def test_running_terms_match_fresh_workspace(self, rng, one_hot):
        # After antenna updates, the running received signal must give the
        # terms that a workspace built from scratch on the new state gives.
        # Antenna 3 commits twice, so a selection commit must also find the
        # candidate it replaces after an earlier commit.
        width = 4
        effs, antenna_matrix, f_d, receivers, weights, beta, users = _random_block_state(
            rng, n=5, width=width
        )
        factors = None if one_hot else reduction_factors(0.7)[None]
        if not one_hot:
            antenna_matrix = rng.standard_normal(antenna_matrix.shape)
        running = _workspace(effs, antenna_matrix, f_d, receivers, weights, beta, users, factors)
        for n in (3, 0, 4, 3, 1):
            row = random_complex(rng, f_d.shape[1])
            if one_hot:
                running.select(n, [int(rng.integers(0, width))], row[None])
            else:
                running.apply(n, rng.standard_normal((1, width)), row[None])
        fresh = _workspace(
            effs, running.patterns(), running.precoders(), receivers, weights, beta, users,
            factors,
        )
        for n in range(5):
            align = alignment_term(effs, receivers, weights, beta, n)
            got, want = antenna_terms(running, n, align), antenna_terms(fresh, n, align)
            for name, a, b in zip(("quad", "linear"), got, want):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), (n, name)

    @pytest.mark.parametrize("mode", ["selection", "synthesis"])
    def test_sweep_steps_match_oracle(self, monkeypatch, mode):
        # One real sweep through the solver's own step functions: at every
        # antenna step the linear term built from the sweep's offsets, and
        # the row the step picks, match the terms formed afresh from the
        # running state.
        scenario = desk_scenario(5, n_users=3)
        if mode == "selection":
            candidates = gaussian_beam_grid(4)
            effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
            solve, step_name = run_selection, "select_pattern_and_row"
        else:
            effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
            solve, step_name = run_synthesis, "synthesize_pattern_and_row"
        workspaces = []

        class Recorded(wmmse._SweepWorkspace):
            def __init__(self, batch, receivers, beta):
                super().__init__(batch, receivers, beta)
                self.inputs = (receivers, batch.weights, beta)
                workspaces.append(self)

        step = getattr(wmmse, step_name)
        checked = []

        def checked_step(linear, *args):
            workspace, n = workspaces[-1], len(checked)
            receivers, weights, beta = workspace.inputs
            align = alignment_term(effs, receivers[0], weights[0], beta, n)
            quad, want = antenna_terms(workspace, n, align)
            out = step(linear, *args)
            # One call for the batch of one run.
            linear, budget = linear[0], (args[2] if mode == "selection" else args[4])[0]
            assert np.linalg.norm(linear - want) <= 1e-12 * np.linalg.norm(want), n
            if mode == "selection":
                rows = [row_solution(float(quad[s, s].real), want[:, s], budget) for s in range(4)]
                index = int(np.argmin([value for _, value in rows]))
                assert out[0] == [index], n
                want_row, row = rows[index][0], out[1][0]
            else:
                vector = workspace.antenna_matrix[n]
                a = float(np.real(vector @ quad @ vector))
                want_row, _ = row_solution(a, want @ vector, budget)
                row = out[1][0]
            assert np.linalg.norm(row - want_row) <= 1e-12 * np.linalg.norm(want_row), n
            checked.append(n)
            return out

        monkeypatch.setattr(wmmse, "_SweepWorkspace", Recorded)
        monkeypatch.setattr(wmmse, step_name, checked_step)
        solve(effs, (1, 2, 1), desk_solver(max_outer_iterations=1))
        assert checked == list(range(effs[0].n_antennas))


class TestClosedFormRow:
    """The closed-form row that both steps must give bit for bit."""

    def test_zero_direction_gives_zero(self):
        row, value = row_solution(1.0, np.zeros(4, dtype=complex), 5.0)
        assert_allclose(row, 0.0)
        assert value == 0.0

    def test_interior_optimum(self):
        # Unit quadratic, unit direction, large budget: step length one.
        d = np.zeros(3, dtype=complex)
        d[0] = 1.0
        row, _ = row_solution(1.0, d, 100.0)
        assert_allclose(row, -d, atol=1e-14)

    def test_power_limited_branch(self):
        d = np.zeros(2, dtype=complex)
        d[1] = 1.0
        row, _ = row_solution(0.1, d, 4.0)
        # Step is min(1/0.1, sqrt(4)/1) = 2.
        assert_allclose(row, -2.0 * d, atol=1e-14)

    def test_beats_dense_ball_sampling(self, rng):
        d_streams, width, budget = 3, 2, 2.0
        quad = random_psd(rng, width)
        cross = random_complex(rng, d_streams, width)
        align = random_complex(rng, d_streams, width)
        v = np.zeros(width)
        v[1] = 1.0
        a = float(np.real(v @ quad @ v))
        dvec = (cross - align) @ v
        row, _ = row_solution(a, dvec, budget)
        assert np.real(row @ row.conj()) <= budget * (1 + 1e-12)
        value = block_objective(quad, cross - align, row, v)
        samples = ball_samples(rng, 200_000, d_streams, np.sqrt(budget))
        sampled = a * np.sum(np.abs(samples) ** 2, axis=1) + 2.0 * np.real(
            samples.conj() @ dvec
        )
        assert value <= float(np.min(sampled)) + 1e-6


def _select(quad, linear, budget):
    """The selection step on a batch of one: (index, row, value), the value
    the block objective of the row and candidate it picks."""
    quads, inv_quads = candidate_quads(quad)
    indices, rows = select_pattern_and_row(linear[None], [quads], [inv_quads], [budget])
    index, row = indices[0], rows[0]
    return index, row, block_objective(quad, linear, row, np.eye(len(quad))[index])


class TestSelectPattern:
    def test_forced_single_candidate(self, rng):
        quad = random_psd(rng, 1)
        cross = random_complex(rng, 3, 1)
        align = random_complex(rng, 3, 1)
        index, row, value = _select(quad, cross - align, 1.0)
        assert index == 0
        assert_allclose(row, row_solution(float(quad[0, 0].real), (cross - align)[:, 0], 1.0)[0])

    def test_matches_joint_brute_force(self, rng):
        d_streams, width, budget = 3, 4, 1.5
        quad = random_psd(rng, width)
        cross = random_complex(rng, d_streams, width)
        align = random_complex(rng, d_streams, width)
        index, row, value = _select(quad, cross - align, budget)
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
        index, _, _ = _select(quad, cross - align, 1.0)
        assert index == 0

    def test_zero_direction_and_zero_quad_candidates(self, rng):
        # In one call, candidate 1 has no direction, candidate 2 no quadratic
        # coefficient, and candidate 3 one below _TINY_QUAD with a boundary
        # step beyond its inverse.  Every candidate must get the closed form
        # of row_solution, and nothing may warn.
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
        expected = [
            row_solution(float(quad[s, s].real), cross[:, s] - align[:, s], budget)
            for s in range(width)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index, row, value = _select(quad, cross - align, budget)
            singles = [
                _select(quad[s : s + 1, s : s + 1], (cross - align)[:, s : s + 1], budget)
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


# Entries and quad diagonals that reach every branch of the step: zero and
# tiny directions, quads at, below and just above _TINY_QUAD (an infinite
# inverse), and huge directions with a tiny boundary step.  A tiny direction
# over a vanishing quad overflows the boundary to inf and scores NaN, as do
# NaN entries.
_STEP_ENTRIES = st.sampled_from([0.0, 1e-160, -3e-9, 0.5, -1.25, 1e150, np.nan]) | st.floats(
    -10.0, 10.0
)
_STEP_QUADS = st.sampled_from(
    [0.0, -1e-15, 0.5 * _TINY_QUAD, _TINY_QUAD, 2.0 * _TINY_QUAD, 1e-3, 0.25, 1.0, 7.5, 1e6]
) | st.floats(0.0, 10.0)


@st.composite
def _selection_steps(draw):
    """One antenna's selection step in a batch of 1-21 runs: (B, D, W)
    linear terms, every run's quad diagonal and guarded inverse, (B, W)
    each, and budgets, (B,).  The batch draws a few distinct candidates
    (columns and quads), some of them zero columns, and each run's
    candidates are copies of these, so exact ties occur within and across
    runs.  A single candidate (W = 1) is drawn about half the time."""
    d_streams = draw(st.integers(1, 4))
    width = draw(st.just(1) | st.integers(1, 8))
    n_runs = draw(st.sampled_from([1, 21]) | st.integers(1, 21))
    distinct = draw(st.integers(1, 8))
    size = 2 * d_streams * distinct
    parts = np.array(draw(st.lists(_STEP_ENTRIES, min_size=size, max_size=size)))
    parts = parts.reshape(2, d_streams, distinct)
    columns = parts[0] + 1j * parts[1]
    zero = np.array(draw(st.lists(st.booleans(), min_size=distinct, max_size=distinct)))
    columns[:, zero] = 0.0
    pool = np.array(draw(st.lists(_STEP_QUADS, min_size=distinct, max_size=distinct)))
    ids = np.array(
        draw(
            st.lists(
                st.lists(st.integers(0, distinct - 1), min_size=width, max_size=width),
                min_size=n_runs, max_size=n_runs,
            )
        )
    )
    quads, inv_quads = candidate_quads(np.apply_along_axis(np.diag, 1, pool[ids]))
    budgets = draw(
        st.lists(
            st.sampled_from([1e-3, 0.7, 1.0, 4.0]) | st.floats(1e-6, 1e3),
            min_size=n_runs, max_size=n_runs,
        )
    )
    return columns[:, ids].transpose(1, 0, 2), quads, inv_quads, np.array(budgets)


@settings(max_examples=400, deadline=None)
@given(_selection_steps())
# A huge direction with a tiny imaginary part: the row's imaginary part
# underflows, to -0.0 with a Python float step.
@example((np.array([[[1e150 + 1.32014017e-280j]]]), np.array([[0.0]]), np.array([[np.inf]]),
          np.array([1e-3])))
# Two runs: exact ties in the first, and in the second a NaN direction
# after a finite candidate and before a smaller one; the first smallest
# value and the first NaN are taken.
@example((np.array([[[1.0, 1.0, 0.5]], [[0.5, np.nan, 3.0]]], dtype=complex),
          np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]), np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
          np.array([1.0, 1.0])))
def test_select_matches_vectorized_step_bit_for_bit(step):
    # The library scores every candidate of every run in one array pass.
    # Scoring the candidates one by one on Python floats and the
    # whole-array form run by run must give the same index (ties and NaN
    # values go to the lowest index, as with argmin) and the same bits in
    # the row, in every run of the batch.
    with np.errstate(all="ignore"):
        rows = np.full(step[0].shape[:2], np.nan, dtype=complex)
        got = select_pattern_and_row(*step, rows)
        for reference in (select_pattern_and_row_loop, select_pattern_and_row_vectorized):
            want = reference(*step)
            assert got[0] == want[0], reference.__name__
            assert got[1].tobytes() == want[1].tobytes(), reference.__name__
    assert got[1] is rows
    assert all(type(index) is int for index in got[0])


def _synthesize(quad, linear, terms, coefficients, budget, rho):
    """synthesize_pattern_and_row on a batch of one, with the row
    coefficient and the pinned coupling read off a dense quad term and the
    sphere terms from `terms(quad_terms, coefficients)`: (coefficients,
    row)."""
    vectors, rows = synthesize_pattern_and_row(
        linear[None],
        [float(np.real(coefficients @ quad @ coefficients))],
        quad[None, 1:, 0].real,
        lambda: terms(quad[None], coefficients[None]),
        coefficients[None],
        [budget],
        reduction_factors(rho)[None],
        np.array([np.nan]),
    )
    return vectors[0], rows[0]


class TestSynthesizeUpdate:
    def test_rho_one_keeps_coefficients(self, rng):
        width = 9
        quad = random_psd(rng, width)
        cross = random_complex(rng, 4, width)
        align = random_complex(rng, 4, width)
        coeffs = np.zeros(width)
        coeffs[0] = 2.0 * np.sqrt(np.pi)
        out, row = _synthesize(quad, cross - align, _never_called, coeffs, 1.0, 1.0)
        assert_allclose(out, coeffs)
        assert np.any(row != 0)

    def test_block_objective_never_increases(self, rng):
        width = 4
        for trial in range(10):
            quad = random_psd(rng, width)
            cross = random_complex(rng, 3, width)
            align = random_complex(rng, 3, width)
            linear = cross - align
            start = np.zeros(width - 1)
            start[0] = 1.0
            rho = 0.7
            coeffs = np.concatenate(
                [[2 * np.sqrt(rho * np.pi)], 2 * np.sqrt((1 - rho) * np.pi) * start]
            )
            row0 = random_complex(rng, 3)
            before = block_objective(quad, linear, row0, coeffs)
            out, row = _synthesize(
                quad, linear, sphere_terms, coeffs, float(np.real(row0 @ row0.conj())), rho
            )
            after = block_objective(quad, linear, row, out)
            assert after <= before + 1e-9
            assert abs(out @ out - FOUR_PI) < 1e-9
            assert out[0] == pytest.approx(2 * np.sqrt(rho * np.pi))

    def test_zero_terms_keep_start(self):
        width = 4
        quad = np.zeros((width, width), dtype=complex)
        rho = 0.8
        coeffs = np.concatenate(
            [[2 * np.sqrt(rho * np.pi)], 2 * np.sqrt((1 - rho) * np.pi) * np.array([1.0, 0, 0])]
        )
        out, row = _synthesize(
            quad, np.zeros((2, width), dtype=complex), _never_called, coeffs, 1.0, rho
        )
        assert_allclose(out, coeffs)
        assert_allclose(row, 0.0)

    def test_per_sweep_spectrum_matches_dense_solve(self, rng):
        # The step built from the eigenpairs of Re Q[1:, 1:], as one sweep
        # decomposes them, equals the sphere solve on eigh of the dense
        # reduced quadratic c Re Q[1:, 1:].
        width = 9
        for _ in range(20):
            quad = random_psd(rng, width)
            linear = random_complex(rng, 4, width) - random_complex(rng, 4, width)
            rho = float(rng.uniform(0.05, 0.95))
            tail = rng.standard_normal(width - 1)
            start = tail / np.linalg.norm(tail)
            coeffs = lift_coefficients(start, reduction_factors(rho))
            budget = float(rng.uniform(0.1, 4.0))
            out, row = _synthesize(quad, linear, sphere_terms, coeffs, budget, rho)
            want_row, _ = row_solution(
                float(np.real(coeffs @ quad @ coeffs)), linear @ coeffs, budget
            )
            assert np.array_equal(row, want_row)
            factors = reduction_factors(rho)
            (scale,), (reduced,) = reduced_coefficient_problem(
                factors[None], quad[None, 1:, 0].real, linear[None], row[None]
            )
            dense = rotated_sphere_solve(
                *np.linalg.eigh(scale * np.real(quad[1:, 1:])), reduced, start
            )
            assert_allclose(out, lift_coefficients(dense.point, factors), rtol=0.0, atol=1e-12)


_SYNTHESIS_KINDS = (
    "random", "zero_direction", "underflow", "zero_scale", "tiny_quad", "hard", "at_minimum",
    "zero_tail", "lopsided",
)


@st.composite
def _synthesis_steps(draw):
    """One antenna's synthesis step in a batch of 1-4 runs sharing D and
    W: per run a kind from _SYNTHESIS_KINDS, a rho of 0.7, 1.0 or between,
    and a budget.  A zero direction has a zero linear term, and an
    underflow one so small that its squared norm is 0; a zero scale has a
    direction so small and a row coefficient so large that the row's power
    underflows to 0 while the row does not; a tiny quad has a row
    coefficient at or below _TINY_QUAD and a boundary step beyond its
    inverse; a hard-case problem has a diagonal Re Q[1:, 1:] and no bottom
    component in the reduced linear term; at a minimum, the reduced
    linear term is zero and the start is a bottom eigenvector, so the
    solve may keep its start; a zero tail starts from e_0; a lopsided
    linear term has huge real parts and tiny imaginary ones, so that the
    row's imaginary parts underflow.  The coefficients and the pinned
    coupling are strided views, as the sweep passes them."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d_streams = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 2, 4, 9]))
    n_runs = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(_SYNTHESIS_KINDS), min_size=n_runs, max_size=n_runs))
    rhos = draw(
        st.lists(
            st.sampled_from([0.7, 1.0]) | st.floats(0.05, 0.95), min_size=n_runs, max_size=n_runs
        )
    )
    quads = np.stack([random_psd(rng, width) for _ in range(n_runs)])
    linear = random_complex(rng, n_runs, d_streams, width)
    antenna_matrix = rng.standard_normal((n_runs, 3, width))
    for b, kind in enumerate(kinds):
        if kind == "zero_direction":
            linear[b] = 0.0
        elif kind == "underflow":
            linear[b] *= 1e-170
        elif kind == "zero_scale":
            linear[b] *= 1e-150
            quads[b] *= 1e16
        elif kind == "tiny_quad":
            linear[b] *= 1e-13
        elif kind == "hard" and width > 1:
            quads[b, 1:, 1:] = np.diag(np.sort(rng.uniform(1.0, 5.0, width - 1)))
            quads[b, 1:, 0] = quads[b, 0, 1:] = 0.0
            linear[b, :, 1] = 0.0
            linear[b] *= 1e-3
        elif kind == "at_minimum" and width > 1:
            quads[b, 1:, 0] = quads[b, 0, 1:] = 0.0
            linear[b, :, 1:] = 0.0
            antenna_matrix[b, 1, 1:] = 3.0 * np.linalg.eigh(quads[b, 1:, 1:].real)[1][:, 0]
        elif kind == "zero_tail":
            antenna_matrix[b, 1, 1:] = 0.0
        elif kind == "lopsided":
            linear[b] = 1e100 * linear[b].real + 1e-300j * linear[b].imag
    coefficients = antenna_matrix[:, 1]
    row_quads = np.einsum("bv,bvw,bw->b", coefficients, quads, coefficients).real
    for b, kind in enumerate(kinds):
        if kind == "tiny_quad":
            row_quads[b] = draw(st.sampled_from([0.0, -1e-15, 0.5 * _TINY_QUAD, _TINY_QUAD]))
    budgets = draw(
        st.lists(st.sampled_from([0.7, 1.0]) | st.floats(1e-3, 1e3), min_size=n_runs,
                 max_size=n_runs)
    )
    return linear, row_quads, quads, coefficients, budgets, rhos


@settings(max_examples=300, deadline=None)
@given(_synthesis_steps())
def test_synthesize_matches_single_run_oracle_bit_for_bit(step):
    # The batched step gives every run the rows and coefficient vectors of
    # the per-run step byte for byte, whatever the other runs of its batch
    # are, when no run has a root from an earlier solve, and warns about
    # nothing (warnings are errors in this suite).
    linear, row_quads, quads, coefficients, budgets, rhos = step
    pinned = quads[..., 1:, 0].real
    eigenvalues, eigenvectors, *_ = terms = sphere_terms(quads, coefficients)
    calls = []

    def step_terms():
        calls.append(1)
        return terms

    vectors, rows = synthesize_pattern_and_row(
        linear, row_quads.tolist(), pinned, step_terms, coefficients, budgets,
        np.stack([reduction_factors(rho) for rho in rhos]), np.full(len(rhos), np.nan),
    )
    assert len(calls) <= 1
    for b, rho in enumerate(rhos):
        want_vector, want_row = synthesize_pattern_and_row_single(
            linear[b], float(row_quads[b]), pinned[b],
            lambda b=b: (eigenvalues[b], eigenvectors[b]), coefficients[b], budgets[b], rho,
        )
        assert rows[b].tobytes() == want_row.tobytes(), b
        assert vectors[b].tobytes() == want_vector.tobytes(), b


def _never_called(*_):
    raise AssertionError("the sphere terms are read only when coefficients are solved for")


# ---------------------------------------------------------------------------
# Full algorithms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup():
    scenario = desk_scenario(5)
    candidates = gaussian_beam_grid(8)
    streams = (2, 2)
    return scenario, candidates, streams


class TestRunSelection:
    def test_monotone_blockwise(self, small_setup):
        scenario, candidates, streams = small_setup
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=4, objective_tol=0.0)
        with block_objectives(effs, config.noise) as values:
            _, trace = run_selection(effs, streams, config)
        # The receivers, the weights, then each antenna, every iteration.
        assert len(values) == trace.n_iterations * (2 + effs[0].n_antennas)
        values = np.array(values)
        drops = np.diff(values)
        assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))

    def test_power_feasible_every_iteration(self, small_setup):
        scenario, candidates, streams = small_setup
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=10)
        with pattern_deviations() as deviations:
            state, trace = run_selection(effs, streams, config)
        assert max(trace.max_power_violation) <= 1e-12
        # Every antenna's row is one-hot after its step in every iteration.
        assert len(deviations["sel"]) == trace.n_iterations * effs[0].n_antennas
        assert max(deviations["sel"]) == 0.0

    def test_rate_link(self, small_setup):
        scenario, candidates, streams = small_setup
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=10)
        state, trace = run_selection(effs, streams, config)
        channels = [compose(e, state.antenna_matrix) for e in effs]
        cov = received_covariances(channels, state.f_d, stream_masks(streams), config.noise)
        rate, _ = weighted_sum_rate(cov)
        assert rate == pytest.approx(trace.sum_rate[-1], abs=1e-9)

    def test_single_candidate_matches_fixed_baseline(self, small_setup):
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

    def test_one_batched_call_per_outer_iteration(self, monkeypatch):
        # Receivers, weights, objective and rate of all users come from one
        # solve, inv, cholesky and slogdet per outer iteration; the rate of
        # an extrapolated trial shares the plain iterate's slogdet.  Only the
        # second iteration forms a trial: the first has Nesterov's t at 1,
        # and the last is at the run's cap.  The final analog/digital split
        # adds one inv per least-squares fit: one before its alternations
        # and one in each.
        scenario = desk_scenario(5, n_users=3)
        candidates = gaussian_beam_grid(4)
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        calls, split_calls, splits = {}, {}, []
        splitting = []  # not empty while the split runs
        for name in ("solve", "inv", "cholesky", "slogdet"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts = split_calls if splitting else calls
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        decompose = wmmse.decompose_precoders

        def split(*args, **kwargs):
            splitting.append(True)
            splits.append(decompose(*args, **kwargs))
            splitting.pop()
            return splits[-1]

        monkeypatch.setattr(wmmse, "decompose_precoders", split)
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        _, trace = run_selection(effs, (1, 2, 1), config)
        assert trace.n_iterations == 3
        assert calls == {"solve": 3, "inv": 3, "cholesky": 3, "slogdet": 3}
        assert len(splits) == 1 and len(splits[0]) == 1
        alternations = len(splits[0][0].history) - 1
        assert alternations >= 1
        assert split_calls == {"inv": alternations + 1}


class TestSelectionStepIdentity:
    @pytest.mark.parametrize("fixed", [False, True], ids=["grid", "fixed_pattern"])
    def test_solver_matches_vectorized_step_bit_for_bit(self, small_setup, monkeypatch, fixed):
        # Five outer iterations with the whole-array step in place of the
        # library's give the same bits in every output, on the 8-candidate
        # grid and on the single candidate of the fixed-pattern baseline.
        scenario, candidates, streams = small_setup
        if fixed:
            candidates = CandidateSet((candidates.baseline,))
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=5, objective_tol=0.0)
        state, trace = run_selection(effs, streams, config)
        monkeypatch.setattr(wmmse, "select_pattern_and_row", select_pattern_and_row_vectorized)
        want_state, want_trace = run_selection(effs, streams, config)
        assert trace.n_iterations == 5
        if not fixed:  # the sweep does move antennas off candidate 0
            assert np.any(state.antenna_matrix[:, 1:])
        for name in ("f_d", "antenna_matrix", "f_rf", "f_bb"):
            assert getattr(state, name).tobytes() == getattr(want_state, name).tobytes(), name
        assert trace.objective == want_trace.objective


class TestTracedStepNames:
    def test_step_functions_called_once_per_antenna_step(self, small_setup, monkeypatch):
        # perfbench's tracer times the antenna step and the sphere solve by
        # wrapping these module-level names, so the sweep must call them:
        # one selection or synthesis call per antenna step for the whole
        # batch, and one sphere solve per run of a synthesis step that
        # solves on the sphere (rho < 1 and a nonzero row).
        scenario, candidates, streams = small_setup
        calls = {"select": 0, "synthesize": 0, "solving": 0, "sphere": 0}
        select = wmmse.select_pattern_and_row
        synthesize = wmmse.synthesize_pattern_and_row
        sphere = wmmse.minimize_on_sphere

        def counted_select(*args):
            calls["select"] += 1
            return select(*args)

        def counted_synthesize(*args):
            calls["synthesize"] += 1
            coefficients, rows = synthesize(*args)
            calls["solving"] += int(np.count_nonzero(np.any(rows, axis=1)))
            return coefficients, rows

        def counted_sphere(*args):
            calls["sphere"] += 1
            return sphere(*args)

        monkeypatch.setattr(wmmse, "select_pattern_and_row", counted_select)
        monkeypatch.setattr(wmmse, "synthesize_pattern_and_row", counted_synthesize)
        monkeypatch.setattr(wmmse, "minimize_on_sphere", counted_sphere)
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        assert config.rho < 1.0
        sel = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        syn = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        state_sel, trace_sel = run_selection(sel, streams, config)
        _, trace_syn = run_synthesis(syn, streams, config)
        n_antennas = sel[0].n_antennas
        assert trace_sel.n_iterations == trace_syn.n_iterations == 3
        assert calls["select"] == 3 * n_antennas
        assert calls["synthesize"] == 3 * n_antennas
        assert calls["sphere"] == calls["solving"] > 0
        # A batch of two runs still makes one selection or synthesis call
        # per step, and one sphere solve per run that solves.
        solved = iterate_selection(
            [Run(sel, config), Run(sel, config, init_f_d=state_sel.f_d)], streams
        )
        assert [iterate.trace.n_iterations for iterate in solved] == [3, 3]
        assert calls["select"] == 2 * 3 * n_antennas
        sphere_calls = calls["sphere"]
        solved = iterate_synthesis(
            [Run(syn, config), Run(syn, config, init_f_d=state_sel.f_d)], streams
        )
        assert [iterate.trace.n_iterations for iterate in solved] == [3, 3]
        assert calls["synthesize"] == 2 * 3 * n_antennas
        assert calls["sphere"] == calls["solving"] > 2 * sphere_calls


class TestRunSynthesis:
    def test_one_eigendecomposition_per_sweep(self, small_setup, monkeypatch):
        scenario, candidates, streams = small_setup
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        run_selection(effs, streams, config)
        assert calls == []  # selection sweeps never decompose
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        run_synthesis(effs, streams, dataclasses.replace(config, rho=1.0))
        assert calls == []  # nor do synthesis sweeps that keep the patterns
        _, trace = run_synthesis(effs, streams, config)
        assert trace.n_iterations == 3
        assert calls == [(effs[0].n_antennas, 8, 8)] * 3  # (pairs, W - 1, W - 1)

    def test_only_selection_sweeps_build_candidate_quads(self, small_setup, monkeypatch):
        scenario, candidates, streams = small_setup
        calls = []
        build = wmmse.candidate_quads

        def counted(quad_terms):
            calls.append(quad_terms.shape)
            return build(quad_terms)

        monkeypatch.setattr(wmmse, "candidate_quads", counted)
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        run_synthesis(effs, streams, config)
        assert calls == []
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        run_selection(effs, streams, config)
        assert calls == [(effs[0].n_antennas, 8, 8)] * 3  # (pairs, W, W)

    def test_selection_sweeps_never_build_synthesis_terms(self, small_setup, monkeypatch):
        # A spy in place of the workspace's lazy synthesis inputs.
        scenario, candidates, streams = small_setup
        built = []
        for name in ("row_quads", "pinned"):
            build = getattr(wmmse._SweepWorkspace, name).func

            def spy(workspace, name=name, build=build):
                built.append(name)
                return build(workspace)

            monkeypatch.setattr(wmmse._SweepWorkspace, name, property(spy))
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        run_selection(effs, streams, config)
        assert built == []
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        run_synthesis(effs, streams, config)
        assert set(built) == {"row_quads", "pinned"}

    def test_monotone_blockwise(self, small_setup):
        scenario, _, streams = small_setup
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=3, objective_tol=0.0)
        with block_objectives(effs, config.noise) as values:
            _, trace = run_synthesis(effs, streams, config)
        assert len(values) == trace.n_iterations * (2 + effs[0].n_antennas)
        values = np.array(values)
        drops = np.diff(values)
        assert np.all(drops <= 1e-9 * np.maximum(1.0, np.abs(values[:-1])))

    def test_coefficient_norms_pinned(self, small_setup):
        scenario, _, streams = small_setup
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=6)
        state, trace = run_synthesis(effs, streams, config)
        norms = np.sum(state.antenna_matrix**2, axis=1)
        assert np.abs(norms - FOUR_PI).max() < 1e-9
        assert_allclose(state.antenna_matrix[:, 0], 2 * np.sqrt(config.rho * np.pi))
        assert max(trace.max_power_violation) <= 1e-12

    def test_rho_one_matches_fixed_isotropic(self, small_setup):
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


class TestExtrapolationGate:
    """One user with one receive antenna and one stream sees both antennas
    of a fixed pattern through h = (1, 1), so the rate grows with |f_1 +
    f_2|.  The plain rows are (0.5, 0.5) inside unit budgets, and Nesterov's
    t is 2, so the trial moves m = 1 / t' = 0.39 times the step from the
    last plain rows further on."""

    T_NEXT = (1.0 + np.sqrt(17.0)) / 2.0

    def _batch(self, previous):
        eff = EffectiveChannel(np.ones((1, 2), dtype=complex), "sel", 1)
        batch = _Batch.of([Run([eff], SolverConfig(power=1.0, noise=0.5))], (1,), np.ones((1, 1)))
        batch.f_d[...] = 0.5
        batch.plain[...] = np.reshape(previous, (2, 1))
        batch.momentum = np.array([2.0])
        return batch

    @staticmethod
    def _iteration(batch, capped=False, going_on=True):
        """The loop's post-sweep work on the batch: the trial, one pass and
        one rate call for the plain iterate and the trial, and the gate.
        Returns the steps, the trial rows and both halves' rates."""
        steps, trial = batch.trial([capped])
        cov = batch.covariances(batch.composed, batch.f_d, trial)
        rates, _ = weighted_sum_rate(cov)
        batch.gate(cov, rates, steps, trial, [going_on])
        return steps, trial, rates

    @staticmethod
    def _assert_pass_of(batch, f_d):
        want = batch.covariances(batch.channels(batch.antenna_matrix), f_d)
        for name in ("received", "own", "interference", "total"):
            assert np.array_equal(getattr(batch.cov, name), getattr(want, name)), name

    @pytest.mark.parametrize("previous", [(0.5, 1.0), (0.5, 0.0)], ids=["lower", "higher"])
    def test_a_run_keeps_only_a_trial_of_higher_rate(self, previous):
        batch = self._batch(previous)
        plain_rate = weighted_sum_rate(batch.covariances(batch.composed, batch.f_d))[0][0]
        steps, trial, rates = self._iteration(batch)
        assert steps == [1.0 / self.T_NEXT]
        assert_allclose(trial[:, 0], 0.5 + (0.5 - np.array(previous)) / self.T_NEXT, rtol=1e-15)
        # The plain half of the one rate call is the plain iterate's rate.
        assert len(rates) == 2 and rates[0] == plain_rate
        assert np.array_equal(batch.plain, np.full((2, 1), 0.5))
        if previous == (0.5, 1.0):
            # The trial (0.5, 0.30) lowers the rate: the run keeps its plain
            # rows and their covariance pass, and t restarts.
            assert rates[1] < rates[0]
            assert np.array_equal(batch.f_d, np.full((2, 1), 0.5))
            assert batch.momentum.tolist() == [1.0] and batch.extrapolated.tolist() == [False]
        else:
            # The trial (0.5, 0.70) raises it: the run goes on from the
            # trial, its pass is the next receiver input, and t advances.
            assert rates[1] > rates[0]
            assert np.array_equal(batch.f_d, trial)
            assert batch.momentum.tolist() == [self.T_NEXT]
            assert batch.extrapolated.tolist() == [True]
        self._assert_pass_of(batch, batch.f_d)

    def test_trial_rows_are_scaled_into_their_power_balls(self):
        # The step from (-0.5, -0.5) to (0.9, 0.9) takes each trial row to
        # 0.9 + 0.39 x 1.4 > 1: it is scaled back onto its budget, and wins.
        batch = self._batch((-0.5, -0.5))
        batch.f_d[...] = 0.9
        _, trial, _ = self._iteration(batch)
        assert_allclose(trial, np.ones((2, 1)), rtol=1e-15)
        assert batch.extrapolated.tolist() == [True]
        assert np.array_equal(batch.f_d, trial)

    def test_no_trial_at_t_one_or_for_a_run_that_leaves(self):
        # No trial at t = 1 or for a run at its own cap.  A run that stops
        # by its test in this iteration gets a trial, which would win, but
        # keeps its plain iterate and the plain pass.
        for t, capped, going_on in ((1.0, False, True), (2.0, True, False), (2.0, False, False)):
            batch = self._batch((0.5, 0.0))
            batch.momentum = np.array([t])
            steps, trial, rates = self._iteration(batch, capped, going_on)
            if t == 1.0 or capped:
                assert steps == [0.0] and trial is None
                assert len(rates) == 1  # the plain pass alone
            else:
                assert steps[0] > 0.0 and rates[1] > rates[0]
            assert batch.extrapolated.tolist() == [False]
            assert np.array_equal(batch.f_d, np.full((2, 1), 0.5))
            assert np.array_equal(batch.f_d, batch.plain)
            self._assert_pass_of(batch, batch.f_d)


class TestBatchedSolves:
    """A run solved in a lockstep batch gets exactly the bits of its solve
    alone, whatever else is in the batch, antenna counts included."""

    STREAMS = (2, 2)

    @pytest.fixture(scope="class")
    def drops(self):
        return [desk_scenario(seed) for seed in (1, 2, 3, 4)]

    @pytest.fixture(scope="class")
    def mixed_drops(self):
        # 16, 9, 12 and 12 antennas: the batch reorders its runs, the last
        # two share an antenna count and a decomposition, and the runs that
        # have antenna n fall from four to three to one as n grows.  The
        # first run leaves early, and with it the batch's last four antennas.
        shapes = [(4, 4), (3, 3), (3, 4), (3, 4)]
        return [desk_scenario(seed, bs_shape=shape) for seed, shape in zip((1, 2, 3, 4), shapes)]

    def _runs(self, drops, lift, **overrides):
        """One run per drop with its own budgets, seed and stop rule: a
        loose tolerance that stops within a few iterations, per-antenna
        budgets and five analog chains instead of seven, a warm start from
        the fixed-pattern solve, and a run that goes to its cap."""
        baseline = gaussian_beam_grid(8).baseline
        runs = []
        for i, scenario in enumerate(drops):
            n_antennas = scenario.geometries[0].n_tx
            config = desk_solver(
                power=[1e-2, np.linspace(0.5, 2.0, n_antennas), 1.0, 10.0][i],
                seed=i,
                max_outer_iterations=12,
                objective_tol=[1e-2, 1e-6, 1e-6, 0.0][i],
                rf_chains=5 if i == 1 else 7,
                **overrides,
            )
            init_f_d = None
            if i == 2:
                init_f_d = fixed_pattern_wmmse(scenario, baseline, self.STREAMS, config)[0].f_d
            runs.append(Run([lift(g) for g in scenario.geometries], config, init_f_d))
        return runs

    def _check(self, iterate, single, runs, monkeypatch):
        # The runs that leave in different iterations are decomposed in one
        # call per chain count and antenna count after the batch ends, each
        # run charged an equal share of its call's seconds.  Under a clock
        # that ticks once per reading, a call lasts one second, and so does
        # each phase of an iteration: its receiver and objective seconds
        # are split evenly among the runs active in it, its sweep second in
        # proportion to their antenna counts.
        calls = []
        decompose = wmmse.decompose_precoders

        def counted(f_d, n_rf, *args):
            calls.append((n_rf, f_d.shape[1], len(f_d)))
            return decompose(f_d, n_rf, *args)

        ticks = itertools.count()
        with monkeypatch.context() as patch:
            patch.setattr(wmmse, "decompose_precoders", counted)
            clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
            patch.setattr(wmmse, "time", clock)
            iterates = iterate(runs, self.STREAMS)
            sizes = [run.effs[0].n_antennas for run in runs]
            groups = {}  # (chains, antennas) -> runs
            for b, run in enumerate(runs):
                groups.setdefault((run.config.rf_chains, sizes[b]), []).append(b)
            batched = [None] * len(runs)
            for group in groups.values():
                states = decompose_states([iterates[b] for b in group])
                for b, state in zip(group, states):
                    batched[b] = state
        assert sorted(calls) == sorted((*key, len(group)) for key, group in groups.items())
        counts = [trace.n_iterations for _, trace in batched]
        for group in groups.values():
            for b in group:
                trace = batched[b][1]
                assert trace.decomp_s == 1.0 / len(group)
                receivers = sweep = 0.0
                iter_seconds = []
                for i in range(counts[b]):
                    active = [c for c in range(len(runs)) if counts[c] > i]
                    share = 1.0 / sum(sizes[c] for c in active) * sizes[b]
                    receivers += 1.0 / len(active)
                    sweep += share
                    iter_seconds.append(2.0 / len(active) + share)
                assert trace.receivers_s == trace.objective_s == receivers, b
                assert trace.sweep_s == sweep, b
                assert trace.iter_seconds == iter_seconds, b
        assert sum(trace.sweep_s for _, trace in batched) == pytest.approx(max(counts))
        for run, (state, trace) in zip(runs, batched):
            want_state, want_trace = single(
                run.effs, self.STREAMS, run.config, init_f_d=run.init_f_d
            )
            for name in ("f_d", "f_rf", "f_bb", "antenna_matrix", "power"):
                assert np.array_equal(getattr(state, name), getattr(want_state, name)), name
            assert state.decomp_residual == want_state.decomp_residual
            for name in ("objective", "sum_rate", "max_power_violation", "extrapolated"):
                assert getattr(trace, name) == getattr(want_trace, name), name
            assert trace.n_iterations == want_trace.n_iterations
            assert trace.converged == want_trace.converged
        # The runs leave the batch in different iterations.
        assert counts[0] < max(counts) and counts[-1] == 12
        return batched

    def _selection_runs(self, drops, width):
        candidates = gaussian_beam_grid(8)
        if width == 1:
            candidates = CandidateSet((candidates.baseline,))
        return self._runs(drops, lambda g: selection_effective_channel(g, candidates))

    def _synthesis_runs(self, drops, rho):
        runs = self._runs(drops, lambda g: synthesis_effective_channel(g, 2), rho=rho or 0.7)
        if rho is None:  # every other run pins its whole pattern
            runs = [
                dataclasses.replace(run, config=dataclasses.replace(run.config, rho=1.0))
                if i % 2 else run
                for i, run in enumerate(runs)
            ]
        return runs

    @pytest.mark.parametrize("width", [8, 1])
    def test_selection(self, drops, width, monkeypatch):
        runs = self._selection_runs(drops, width)
        self._check(iterate_selection, run_selection, runs, monkeypatch)

    @pytest.mark.parametrize("rho", [0.7, 1.0, None], ids=["0.7", "1.0", "mixed"])
    def test_synthesis(self, drops, rho, monkeypatch):
        self._check(iterate_synthesis, run_synthesis, self._synthesis_runs(drops, rho), monkeypatch)

    @pytest.mark.parametrize("width", [8, 1])
    def test_selection_of_mixed_antenna_counts(self, mixed_drops, width, monkeypatch):
        runs = self._selection_runs(mixed_drops, width)
        batched = self._check(iterate_selection, run_selection, runs, monkeypatch)
        assert [len(state.f_d) for state, _ in batched] == [16, 9, 12, 12]

    @pytest.mark.parametrize("rho", [0.7, 1.0, None], ids=["0.7", "1.0", "mixed"])
    def test_synthesis_of_mixed_antenna_counts(self, mixed_drops, rho, monkeypatch):
        runs = self._synthesis_runs(mixed_drops, rho)
        self._check(iterate_synthesis, run_synthesis, runs, monkeypatch)

    @pytest.mark.parametrize("mode", ["selection", "synthesis"])
    def test_runs_with_own_iteration_caps(self, mixed_drops, mode, monkeypatch):
        # Every run stops at its own cap, so the batch loses a run, and with
        # the first one its last four antennas, in three different
        # iterations.
        if mode == "selection":
            runs, iterate, single = self._selection_runs(mixed_drops, 8), iterate_selection, run_selection
        else:
            runs, iterate, single = self._synthesis_runs(mixed_drops, 0.7), iterate_synthesis, run_synthesis
        runs = [
            dataclasses.replace(run, config=dataclasses.replace(
                run.config, max_outer_iterations=cap, objective_tol=0.0
            ))
            for run, cap in zip(runs, (3, 7, 5, 12))
        ]
        batched = self._check(iterate, single, runs, monkeypatch)
        assert [trace.n_iterations for _, trace in batched] == [3, 7, 5, 12]

    @pytest.mark.parametrize("mode", ["selection", "synthesis"])
    def test_runs_reject_trials_in_different_iterations(self, mixed_drops, mode, monkeypatch):
        # The gate of every run of an extrapolating batch is its own: the
        # runs' trials lose in different iterations, each losing run's t
        # restarts alone, and every run still gets the bits of its solve
        # alone, its record of kept trials included.
        if mode == "selection":
            runs, iterate, single = self._selection_runs(mixed_drops, 8), iterate_selection, run_selection
        else:
            runs, iterate, single = self._synthesis_runs(mixed_drops, 0.7), iterate_synthesis, run_synthesis
        iterations = collections.Counter()  # run -> its iterations so far
        rejected = collections.defaultdict(list)  # run -> the iterations whose trial lost
        gate = wmmse._Batch.gate

        def spy(batch, cov, rates, steps, trial, going_on):
            tried = [on and step > 0.0 for on, step in zip(going_on, steps)]
            gate(batch, cov, rates, steps, trial, going_on)
            kept, momentum = batch.extrapolated.tolist(), batch.momentum.tolist()
            for r, step, formed, won, t in zip(batch.ids.tolist(), steps, tried, kept, momentum):
                iterations[r] += 1
                if iterations[r] == runs[r].config.max_outer_iterations:
                    assert step == 0.0  # no trial at the run's own cap
                if formed and not won:
                    rejected[r].append(iterations[r])
                    assert t == 1.0

        def spied(runs, streams):
            with monkeypatch.context() as patch:
                patch.setattr(wmmse._Batch, "gate", spy)
                return iterate(runs, streams)

        batched = self._check(spied, single, runs, monkeypatch)
        assert len({tuple(rejected[r]) for r in range(len(runs))}) > 1, dict(rejected)
        assert any(any(trace.extrapolated) for _, trace in batched)

    def test_sphere_hints_follow_their_runs(self, mixed_drops, monkeypatch):
        # Every sphere solve of a (run, antenna) pair gets the root that
        # the pair's solve found in the sweep before as its hint, and its
        # first solve gets NaN, while the batch loses a run, and with the
        # first one its last four antennas, in three different iterations.
        runs = [
            dataclasses.replace(run, config=dataclasses.replace(
                run.config, max_outer_iterations=cap, objective_tol=0.0
            ))
            for run, cap in zip(self._synthesis_runs(mixed_drops, 0.7), (2, 4, 3, 5))
        ]
        sweeps = [0] * len(runs)  # each run's sweeps so far
        places = []  # the run at each place of the sweeping batch
        found = []  # (hint, root) of each solve in the current step
        solves = {}  # (run, antenna) -> [(sweep, hint, root)]
        sphere, step = wmmse.minimize_on_sphere, wmmse._synthesize_step

        class Counted(wmmse._SweepWorkspace):
            def __init__(self, batch, receivers, beta):
                super().__init__(batch, receivers, beta)
                places[:] = batch.ids.tolist()
                for r in places:
                    sweeps[r] += 1

        def spied_sphere(*args):
            result = sphere(*args)
            found.append((args[4] if len(args) > 4 else None, result.root))
            return result

        def spied_step(workspace, n):
            found.clear()
            step(workspace, n)
            # The runs that solve on the sphere are those with a nonzero row.
            rows = workspace.rows_conj[workspace.slices[n]]
            solving = np.flatnonzero(np.any(rows, axis=1)).tolist()
            assert len(solving) == len(found)
            for b, (hint, root) in zip(solving, found):
                r = places[b]
                solves.setdefault((r, n), []).append((sweeps[r], hint, root))

        monkeypatch.setattr(wmmse, "_SweepWorkspace", Counted)
        monkeypatch.setattr(wmmse, "minimize_on_sphere", spied_sphere)
        monkeypatch.setattr(wmmse, "_synthesize_step", spied_step)
        iterate_synthesis(runs, self.STREAMS)
        assert sweeps == [2, 4, 3, 5]
        sizes = [run.effs[0].n_antennas for run in runs]
        assert solves.keys() == {(r, n) for r, size in enumerate(sizes) for n in range(size)}
        for pair, entries in solves.items():
            assert [sweep for sweep, _, _ in entries] == list(range(1, sweeps[pair[0]] + 1)), pair
            first = entries[0][1]
            assert type(first) is float and np.isnan(first), pair
            for (_, _, root), (_, hint, _) in zip(entries, entries[1:]):
                assert type(hint) is float and hint == root, pair

    def test_sweeps_of_one_layout_share_their_buffers(self, mixed_drops, monkeypatch):
        # Consecutive sweeps of one batch write the same per-pair arrays;
        # the first sweep after a run leaves gets new ones.
        sweeps = []

        class Recorded(wmmse._SweepWorkspace):
            def __init__(self, batch, receivers, beta):
                super().__init__(batch, receivers, beta)
                sweeps.append((batch, self.quad, self.proj, self.offset))

        runs = [
            dataclasses.replace(run, config=dataclasses.replace(
                run.config, max_outer_iterations=cap, objective_tol=0.0
            ))
            for run, cap in zip(self._selection_runs(mixed_drops, 8), (2, 4, 4, 6))
        ]
        monkeypatch.setattr(wmmse, "_SweepWorkspace", Recorded)
        iterate_selection(runs, self.STREAMS)
        assert len(sweeps) == 6
        layouts = []
        for (batch, *arrays), (next_batch, *next_arrays) in zip(sweeps, sweeps[1:]):
            same = batch is next_batch
            layouts.append(same)
            for array, next_array in zip(arrays, next_arrays):
                assert np.shares_memory(array, next_array) == same
        assert layouts == [True, False, True, False, True]

    def _batch(self, runs):
        """The batch of a synthesis solve of the runs after its first
        covariance pass and weight update."""
        width = runs[0].effs[0].block_width
        starts = np.stack([isotropic_coefficients(width, run.config.rho) for run in runs])
        factors = np.stack([reduction_factors(run.config.rho) for run in runs])
        batch = _Batch.of(runs, self.STREAMS, starts, factors)
        batch.cov = batch.covariances(batch.channels(batch.antenna_matrix), batch.f_d)
        batch.weights = mse_weights(batch.cov, mmse_receivers(batch.cov))
        return batch

    @staticmethod
    def _arrays(batch):
        """Every lifted stack and tagged array of a batch but its ids, by
        name, the covariance pass's arrays one by one."""
        arrays = {f"lifted[{g}]": stack for g, stack in enumerate(batch.lifted)}
        for part in dataclasses.fields(batch):
            value = getattr(batch, part.name)
            if part.name == "cov":
                for name in ("received", "own", "interference", "total"):
                    arrays[f"cov.{name}"] = getattr(value, name)
            elif "axis" in part.metadata and part.name != "ids":
                arrays[part.name] = value
        return arrays

    # Places in the batch's order of 16, 12, 12 and 9 antennas: every run;
    # the two that empty the 16- and the 9-antenna groups; two that empty
    # the 12-antenna group; one of that group's two runs; a single run.
    @pytest.mark.parametrize("kept", [[0, 1, 2, 3], [1, 2], [0, 3], [0, 2, 3], [3]])
    def test_batch_take_equals_batch_of_kept_runs(self, mixed_drops, kept):
        runs = self._synthesis_runs(mixed_drops, None)
        full = self._batch(runs)
        assert full.layout.n_antennas == [16, 12, 12, 9]
        taken = full.take(kept)
        fresh = self._batch([runs[r] for r in full.ids[kept]])
        assert taken.ids.tolist() == full.ids[kept].tolist()
        assert fresh.ids.tolist() == list(range(len(kept)))
        assert taken.layout.n_antennas == fresh.layout.n_antennas
        got, want = self._arrays(taken), self._arrays(fresh)
        assert got.keys() == want.keys()
        for name, array in want.items():
            assert got[name].shape == array.shape, name
            assert got[name].tobytes() == array.tobytes(), name

    def test_leave_gives_rows_of_one_run_batch(self, mixed_drops):
        runs = self._synthesis_runs(mixed_drops, None)
        full = self._batch(runs)
        for b, r in enumerate(full.ids.tolist()):
            alone = self._batch([runs[r]])
            run, *rows = full.leave(b)
            assert run == r
            wants = (alone.f_d, alone.antenna_matrix, alone.power)
            for got, want, of_batch in zip(rows, wants, (full.f_d, full.antenna_matrix, full.power)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), b
                assert not np.shares_memory(got, of_batch), b

    def test_every_batch_field_is_tagged_or_shared(self):
        # take() cuts each field by its axis tag: a field with neither a
        # tag nor a place on the shared list would reach a smaller batch
        # uncut.
        for part in dataclasses.fields(_Batch):
            axis = part.metadata.get("axis")
            assert (axis is None) == (part.name in _Batch.SHARED), part.name
            assert axis in (None, "run", "row", "pair"), part.name

    def test_runs_of_unequal_shapes_rejected(self, drops, mixed_drops):
        # Runs of unequal pattern widths or receive counts cannot share a
        # batch; runs of unequal antenna counts can.
        candidates = gaussian_beam_grid(8)
        fewer = CandidateSet(candidates.patterns[:4])
        wide = self._selection_runs(drops[:2], 8)
        narrow = self._runs(drops[:2], lambda g: selection_effective_channel(g, fewer))
        more_rx = self._runs(
            [desk_scenario(2, ue_shape=(3, 1))], lambda g: selection_effective_channel(g, candidates)
        )
        for runs in ([wide[0], narrow[1]], [wide[0], more_rx[0]]):
            with pytest.raises(ValueError, match="same array shapes"):
                iterate_selection(runs, self.STREAMS)
        mixed = self._selection_runs(mixed_drops[:2], 8)
        assert [len(it.f_d) for it in iterate_selection(mixed, self.STREAMS)] == [16, 9]

    @pytest.mark.parametrize(
        "shapes", [[(16, 7), (16, 5)], [(16, 7), (9, 7)]], ids=["chains", "antennas"]
    )
    def test_decompose_states_rejects_runs_of_two_groups(self, shapes):
        # One call decomposes the runs of one chain count and antenna
        # count; grouping is the caller's.
        iterates = [
            Iterate(np.ones((n, 4), complex), np.ones((n, 1)), np.ones(n),
                    desk_solver(rf_chains=chains), Trace())
            for n, chains in shapes
        ]
        with pytest.raises(ValueError, match="one chain count and antenna count"):
            decompose_states(iterates)

    def test_zero_forcing_runs_of_a_drop_share_one_split(self, monkeypatch, rng):
        # The zero-forcing iterates of a drop hold its directions: the call
        # stacks them once, and each run gets the analog stage and residual
        # of that one split and the bits it gets decomposed alone, whatever
        # the others' budgets.  Under a clock that ticks once per reading
        # the call lasts one second; each of its three targets (two drops'
        # directions and a WMMSE precoder) gets a third, split evenly among
        # the runs that read it.
        baseline = CandidateSet((gaussian_beam_grid(8).baseline,))
        config = desk_solver()
        iterates = []
        budgets = ([0.01, 1.0, np.linspace(0.5, 2.0, 16)], [10.0])
        for seed, powers in zip((1, 2), budgets):
            channels = [
                compose(selection_effective_channel(g, baseline), np.ones((16, 1)))
                for g in desk_scenario(seed).geometries
            ]
            zf = bd_zero_forcing(channels, self.STREAMS, powers)
            for f_d, factor, power in zip(zf, zf.factors, powers):
                power = np.array(np.broadcast_to(power, (16,)))
                iterates.append(Iterate(
                    f_d, np.ones((16, 1)), power, config, Trace(), zf.directions, factor
                ))
        iterates.append(Iterate(random_complex(rng, 16, 4), np.ones((16, 1)), np.ones(16),
                                config, Trace()))
        alone = [
            decompose_states([dataclasses.replace(it, trace=Trace())])[0][0] for it in iterates
        ]
        stacks = []
        decompose = wmmse.decompose_precoders

        def counted(f_d, n_rf, *args):
            stacks.append(len(f_d))
            return decompose(f_d, n_rf, *args)

        ticks = itertools.count()
        with monkeypatch.context() as patch:
            patch.setattr(wmmse, "decompose_precoders", counted)
            clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
            patch.setattr(wmmse, "time", clock)
            states = decompose_states(iterates)
        assert stacks == [3]
        for (state, trace), want in zip(states, alone):
            for name in ("f_rf", "f_bb"):
                assert getattr(state, name).tobytes() == getattr(want, name).tobytes(), name
            assert state.decomp_residual == want.decomp_residual
            per_antenna = np.sum(np.abs(state.f_rf @ state.f_bb) ** 2, axis=1)
            assert np.max(per_antenna - state.power) <= 1e-12
        first = states[0][0]
        for state, _ in states[1:3]:
            assert state.f_rf.tobytes() == first.f_rf.tobytes()
            assert state.decomp_residual == first.decomp_residual
        assert [trace.decomp_s for _, trace in states] == [1 / 3 / 3] * 3 + [1 / 3] * 2
        assert sum(trace.decomp_s for _, trace in states) == pytest.approx(1.0)


class TestOuterIterationWork:
    """What an outer iteration no longer does keeps every bit: the second
    covariance pass of the trials, the composition of patterns that did not
    move, and the full Hermitian quad terms of a selection sweep.  The runs
    are :class:`TestBatchedSolves`'s of 16, 9, 12 and 12 antennas, each
    with its own cap, so that the batch takes three smaller layouts."""

    STREAMS = TestBatchedSolves.STREAMS

    @pytest.fixture(scope="class")
    def mixed_drops(self):
        shapes = [(4, 4), (3, 3), (3, 4), (3, 4)]
        return [desk_scenario(seed, bs_shape=shape) for seed, shape in zip((1, 2, 3, 4), shapes)]

    @staticmethod
    def _capped(runs, caps=(3, 7, 5, 12)):
        return [
            dataclasses.replace(run, config=dataclasses.replace(
                run.config, max_outer_iterations=cap, objective_tol=0.0
            ))
            for run, cap in zip(runs, caps)
        ]

    def _solve(self, drops, mode):
        """The runs of a mode, and their loop: a selection on 8 candidates
        or 1, or a synthesis in which every other run pins its pattern."""
        batched = TestBatchedSolves()
        if mode == "synthesis":
            return self._capped(batched._synthesis_runs(drops, None)), iterate_synthesis
        width = 8 if mode == "selection" else 1
        return self._capped(batched._selection_runs(drops, width)), iterate_selection

    def test_stacked_pass_equals_two_passes(self, mixed_drops, rng):
        batch = TestBatchedSolves()._batch(TestBatchedSolves()._synthesis_runs(mixed_drops, None))
        assert batch.layout.n_antennas == [16, 12, 12, 9]
        trial = batch.f_d + 0.1 * random_complex(rng, *batch.f_d.shape)
        both = batch.covariances(batch.composed, batch.f_d, trial)
        halves = [batch.covariances(batch.composed, f_d) for f_d in (batch.f_d, trial)]
        for name in ("received", "own", "interference", "total"):
            want = np.concatenate([getattr(half, name) for half in halves])
            got = getattr(both, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("mode", ["selection", "fixed", "synthesis"])
    def test_channels_are_composed_when_a_pattern_moves(self, mixed_drops, mode, monkeypatch):
        # Every covariance pass of the loop reads channels composed with the
        # batch's current pattern matrix, and the batch composes them once
        # per layout and again only after a sweep that moved a pattern.
        runs, iterate = self._solve(mixed_drops, mode)
        passes = []  # (batch, its pattern matrix) at each covariance pass
        composed = []  # (batch, the pattern matrix composed)
        channels, covariances = _Batch.channels, _Batch.covariances

        def spied_channels(batch, antenna_matrix):
            composed.append((batch, antenna_matrix.tobytes()))
            return channels(batch, antenna_matrix)

        def spied_covariances(batch, stacks, *args):
            passes.append((batch, batch.antenna_matrix.tobytes()))
            assert composed[-1] == passes[-1]  # the channels of this state
            return covariances(batch, stacks, *args)

        monkeypatch.setattr(_Batch, "channels", spied_channels)
        monkeypatch.setattr(_Batch, "covariances", spied_covariances)
        iterate(runs, self.STREAMS)
        assert len(passes) == 1 + 12  # the first pass, then one per iteration
        states = [state for state, previous in zip(passes, [None] + passes) if state != previous]
        assert composed == states
        layouts = len({id(batch) for batch, _ in passes})
        assert layouts == 4
        if mode == "fixed":  # one candidate never moves
            assert len(composed) == layouts
        else:
            # Some sweeps move a pattern and others do not: a selection
            # keeps every candidate in some, and the last synthesis layout
            # holds one run whose pattern is pinned.
            assert layouts < len(composed) < len(passes)

    @pytest.mark.parametrize("mode", ["selection", "fixed", "synthesis"])
    def test_recomposing_every_iteration_keeps_the_bits(self, mixed_drops, mode, monkeypatch):
        runs, iterate = self._solve(mixed_drops, mode)
        kept = iterate(runs, self.STREAMS)
        every = property(lambda batch: batch.channels(batch.antenna_matrix))
        monkeypatch.setattr(_Batch, "composed", every)
        fresh = iterate(runs, self.STREAMS)
        for got, want in zip(kept, fresh):
            for name in ("f_d", "antenna_matrix", "power"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            for name in ("objective", "sum_rate", "max_power_violation", "extrapolated"):
                assert getattr(got.trace, name) == getattr(want.trace, name), name

    @pytest.mark.parametrize("mode", ["selection", "fixed"])
    def test_selection_sweeps_match_the_hermitian_oracle(self, mixed_drops, mode, monkeypatch):
        # On every sweep, the step quads from the raw product and the
        # offsets with the own-signal row taken from it equal those built
        # from the full Hermitian quad terms, which no sweep forms.
        runs, iterate = self._solve(mixed_drops, mode)
        checked, workspaces = [], []

        class Checked(wmmse._SweepWorkspace):
            def __init__(self, batch, receivers, beta):
                want_quads, want_inverses, want_offset = hermitian_sweep_terms(
                    batch, receivers, beta
                )
                super().__init__(batch, receivers, beta)
                quads, inverses = self.step_quads
                assert quads.tobytes() == want_quads.tobytes()
                assert (inverses is None) == (want_inverses is None)
                if inverses is not None:
                    assert inverses.tobytes() == want_inverses.tobytes()
                assert self.offset.tobytes() == want_offset.tobytes()
                checked.append(len(batch.ids))
                workspaces.append(self)

        monkeypatch.setattr(wmmse, "_SweepWorkspace", Checked)
        iterate(runs, self.STREAMS)
        assert checked == [4] * 3 + [3] * 2 + [2] * 2 + [1] * 5
        assert not any("quad" in vars(workspace) for workspace in workspaces)
