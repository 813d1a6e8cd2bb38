import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import decompose_precoder_loop, random_complex, svd_least_squares_2d
from trihybrid.decomp import (
    _LSTSQ_RCOND,
    _least_squares,
    _refine_phases,
    _svd_least_squares,
    decompose_precoder,
    decompose_precoders,
    rescale_per_antenna,
)


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


class TestBatchedDecomposition:
    N, D, CHAINS = 8, 2, 7

    def _stack(self):
        """Targets of every kind of stop: the iteration cap, a residual
        that drops below 1e-15 after some alternations, a stall, an exactly
        factorable target that stops before the first alternation, and a
        zero precoder."""
        rng = np.random.default_rng(1)
        kinds = {}  # kind -> (target, seed)
        for seed in range(60):
            f_d = random_complex(rng, self.N, self.D)
            history = decompose_precoder_loop(f_d, self.CHAINS, 1.0, seed=seed)[4]
            if len(history) == 31:
                kind = "cap"
            elif history[-1] < 1e-15 and history[-2] - history[-1] > 1e-15:
                kind = "below"
            else:
                kind = "stall"
            kinds.setdefault(kind, (f_d, seed))
        assert set(kinds) == {"cap", "below", "stall"}
        phases = rng.uniform(0.0, 2.0 * np.pi, (self.N, self.D))
        factorable = np.exp(1j * phases) / np.sqrt(self.N) * np.array([0.5, 2.0])
        zero = np.zeros((self.N, self.D), dtype=complex)
        (cap, cap_seed), (stall, stall_seed), (below, below_seed) = (
            kinds["cap"], kinds["stall"], kinds["below"]
        )
        f_d = np.stack([cap, factorable, stall, zero, below, 3.0 * cap])
        power = [1.0, 0.5, 1.0, np.linspace(0.2, 2.0, self.N), 1.0, 0.1]
        seeds = [cap_seed, 3, stall_seed, 7, below_seed, 61]
        return f_d, power, seeds

    def test_each_run_equals_its_two_dimensional_decomposition_bit_for_bit(self):
        f_d, power, seeds = self._stack()
        batched = decompose_precoders(f_d, self.CHAINS, power, seeds)
        lengths = []
        for target, budget, seed, result in zip(f_d, power, seeds, batched):
            f_rf, f_bb, residual, scale, history = decompose_precoder_loop(
                target, self.CHAINS, budget, seed=seed
            )
            alone = decompose_precoder(target, self.CHAINS, budget, seed=seed)
            for got in (result, alone):
                assert got.f_rf.tobytes() == f_rf.tobytes()
                assert got.f_bb.tobytes() == f_bb.tobytes()
                assert got.residual == residual and got.scale == scale
                assert got.history == history
            lengths.append(len(history))
        # The cap, the factorable and zero targets before any alternation,
        # and the stall and the drop below 1e-15 in between.
        assert lengths[0] == lengths[5] == 31 and lengths[1] == lengths[3] == 1
        assert 1 < lengths[2] < 31 and 1 < lengths[4] < 31
        assert batched[3].residual == 0.0 and batched[4].residual < 1e-15

    @pytest.mark.parametrize("picks", [(2, 4), (4, 2), (5, 3), (1, 0), (3, 5, 0, 2, 4, 1)])
    def test_a_runs_bits_do_not_depend_on_its_batch(self, picks):
        # Stacks of 2 and 6 runs with mixed exits, in other orders than the
        # full stack: every run keeps the bits it gets in the full stack
        # and alone.
        f_d, power, seeds = self._stack()
        full = decompose_precoders(f_d, self.CHAINS, power, seeds)
        picked = decompose_precoders(
            f_d[list(picks)], self.CHAINS, [power[b] for b in picks], [seeds[b] for b in picks]
        )
        for b, got in zip(picks, picked):
            alone = decompose_precoder(f_d[b], self.CHAINS, power[b], seed=seeds[b])
            for reference in (full[b], alone):
                assert got.f_rf.tobytes() == reference.f_rf.tobytes()
                assert got.f_bb.tobytes() == reference.f_bb.tobytes()
                assert got.residual == reference.residual and got.scale == reference.scale
                assert got.history == reference.history
        assert len({len(got.history) for got in picked}) > 1  # mixed exits

    def test_zero_match_keeps_its_phase(self, rng):
        # A chain with no digital gain matches nothing: its analog column
        # keeps its phases, bit for bit, and the other columns still move,
        # with 6 antennas and with 100.
        for n in (6, 100):
            f_d = random_complex(rng, 2, n, 2)
            f_rf = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, n, 3))) / np.sqrt(n)
            f_bb = random_complex(rng, 2, 3, 2)
            f_bb[1, 1] = 0.0
            # The pass is handed the mismatch f_d - f_rf f_bb and keeps it
            # up to date in place.
            mismatch = f_d - f_rf @ f_bb
            refined = _refine_phases(mismatch, f_rf.copy(), f_bb)
            assert refined[1, :, 1].tobytes() == f_rf[1, :, 1].tobytes()
            assert not np.any(refined[1, :, 0] == f_rf[1, :, 0])
            assert not np.any(refined[0, :, 1] == f_rf[0, :, 1])
            np.testing.assert_allclose(mismatch, f_d - refined @ f_bb, rtol=0.0, atol=1e-13)
            for b in range(2):
                before = np.linalg.norm(f_d[b] - f_rf[b] @ f_bb[b])
                assert np.linalg.norm(f_d[b] - refined[b] @ f_bb[b]) <= before

    def test_chain_count_validation(self, rng):
        f_d = random_complex(rng, 2, 4, 2)
        with pytest.raises(ValueError):
            decompose_precoders(f_d, 5, [1.0, 1.0], [0, 1])


def _lstsq_per_run(f_rf, f_d):
    return np.stack(
        [np.linalg.lstsq(a, b, rcond=_LSTSQ_RCOND)[0] for a, b in zip(f_rf, f_d)]
    )


class TestLeastSquares:
    """The batched fit against `np.linalg.lstsq` with the same cutoff, run
    by run.  Two backward-stable solvers of a problem with condition number
    kappa agree to about kappa * eps relative: 1e-12 of the largest entry
    for the well-conditioned stacks (kappa below 1e3), 1e-6 for kappa of 1e8
    and more, still far below the O(1) gap between keeping and dropping a
    singular value."""

    @pytest.mark.parametrize("shape", [(5, 16, 7), (3, 100, 7), (4, 8, 8), (2, 36, 1)])
    def test_random_phase_stacks(self, rng, shape):
        n_runs, n_antennas, n_rf = shape
        f_rf = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape)) / np.sqrt(n_antennas)
        f_d = random_complex(rng, n_runs, n_antennas, 4)
        got, expected = _least_squares(f_rf, f_d), _lstsq_per_run(f_rf, f_d)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_repeated_column_gives_the_minimum_norm_solution(self, rng):
        # An exactly repeated analog column is a zero singular value, dropped
        # by both: the two copies then share their gain equally.
        f_rf = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (3, 16, 7))) / 4.0
        f_rf[:, :, 3] = f_rf[:, :, 0]
        f_d = random_complex(rng, 3, 16, 4)
        got, expected = _least_squares(f_rf, f_d), _lstsq_per_run(f_rf, f_d)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(got[:, 3] - got[:, 0]).max() <= 1e-12 * np.abs(got).max()

    @pytest.mark.parametrize("ratio", [10.0 * _LSTSQ_RCOND, 0.1 * _LSTSQ_RCOND])
    def test_singular_value_near_the_cutoff(self, rng, ratio):
        # Smallest singular value 10x above the cutoff (kept by both) or
        # 10x below it (dropped by both), the others at least 0.2 of the
        # largest; keeping it puts entries of about 1 / ratio in the fit.
        u = np.linalg.qr(random_complex(rng, 3, 16, 7))[0]
        v = np.linalg.qr(random_complex(rng, 3, 7, 7))[0]
        singulars = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, ratio])
        f_rf = u @ (singulars[:, None] * v.conj().swapaxes(1, 2))
        f_d = random_complex(rng, 3, 16, 4)
        got, expected = _least_squares(f_rf, f_d), _lstsq_per_run(f_rf, f_d)
        assert np.abs(got - expected).max() <= 1e-6 * np.abs(expected).max()
        kept = ratio > _LSTSQ_RCOND
        assert (np.abs(got).max() > 1e3 * np.abs(f_d).max()) == kept


class TestQrRoute:
    """The QR fit against the SVD fit it stands in for, and the runs that
    must keep the SVD fit."""

    @pytest.mark.parametrize("shape", [(66, 16, 7), (9, 100, 7)])
    def test_agrees_with_the_svd_fit_on_workload_shapes(self, rng, shape):
        n_runs, n_antennas, n_rf = shape
        f_rf = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape)) / np.sqrt(n_antennas)
        f_d = random_complex(rng, n_runs, n_antennas, 4)
        got, expected = _least_squares(f_rf, f_d), _svd_least_squares(f_rf, f_d)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_runs_near_the_cutoff_take_the_svd_fit(self, rng, monkeypatch):
        # An exactly repeated analog column, a smallest singular value 10x
        # above the cutoff and one 10x below it, among random runs: the
        # three go through the SVD, every run gets the bits it gets alone,
        # and each matches `np.linalg.lstsq` as in TestLeastSquares.
        f_rf = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (7, 16, 7))) / 4.0
        f_rf[1, :, 3] = f_rf[1, :, 0]
        u = np.linalg.qr(random_complex(rng, 2, 16, 7))[0]
        v = np.linalg.qr(random_complex(rng, 2, 7, 7))[0]
        for b, ratio in ((3, 10.0 * _LSTSQ_RCOND), (5, 0.1 * _LSTSQ_RCOND)):
            singulars = np.array([1.0, 0.8, 0.6, 0.4, 0.3, 0.2, ratio])
            f_rf[b] = u[b // 4] @ (singulars[:, None] * v[b // 4].conj().T)
        f_d = random_complex(rng, 7, 16, 4)
        special = [1, 3, 5]
        svd_inputs = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            svd_inputs.append(a.copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        got = _least_squares(f_rf, f_d)
        assert len(svd_inputs) == 1
        assert svd_inputs[0].tobytes() == f_rf[special].tobytes()
        expected = _lstsq_per_run(f_rf, f_d)
        for b in range(7):
            assert got[b].tobytes() == _least_squares(f_rf[b, None], f_d[b, None])[0].tobytes()
            tolerance = 1e-6 if b in (3, 5) else 1e-12
            assert np.abs(got[b] - expected[b]).max() <= tolerance * np.abs(expected[b]).max()
        for b in special:
            assert got[b].tobytes() == svd_least_squares_2d(f_rf[b], f_d[b]).tobytes()


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
