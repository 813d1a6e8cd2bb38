"""Weighted-MMSE precoding with per-antenna power and pattern reconfiguration.

Weighted sum-rate maximization is handled through its weighted-MSE
reformulation: with auxiliary receive filters U_k and weight matrices W_k,
the objective sum_k beta_k (tr(W_k E_k) - ln det W_k) is minimized by block
coordinate descent.  The receiver and weight blocks have closed forms,
fed with the objective and the rate by one covariance pass per outer
iteration that is batched over users; the transmit side is swept one
antenna at a time, jointly updating that antenna's precoder row f and its
pattern variable (a candidate selection or a harmonic coefficient vector).

Two solvers are provided: :func:`run_selection` for a finite candidate set
per antenna and :func:`run_synthesis` for freely synthesized patterns with a
pinned constant component.  Both record a per-iteration trace and decompose
the optimized digital precoder into analog and digital stages at the end.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import EffectiveChannel, compose
from .decomp import decompose_precoder, feasibility_scale
from .sphere_opt import (
    isotropic_coefficients,
    lift_coefficients,
    minimize_on_sphere,
    reduced_coefficient_problem,
    reduced_spectrum,
)
from .sphharm import FOUR_PI

_TINY_QUAD = 1e-12  # below this the quadratic term is treated as zero


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Knobs shared by both solvers.

    Powers are linear per-antenna budgets (scalar or length N); noise powers
    are linear per-user values (scalar or length K).  Users are weighted
    equally.  `rho` pins the constant-component share of synthesized
    patterns.
    """

    power: float | np.ndarray = 1.0
    noise: float | np.ndarray = 1e-9
    rf_chains: int = 1
    max_outer_iterations: int = 50
    objective_tol: float = 1e-6
    rho: float = 0.7
    seed: int = 0


@dataclass
class Trace:
    """Per-outer-iteration solver record."""

    objective: list[float] = field(default_factory=list)
    sum_rate: list[float] = field(default_factory=list)
    max_power_violation: list[float] = field(default_factory=list)
    antenna_deviation: list[float] = field(default_factory=list)
    iter_seconds: list[float] = field(default_factory=list)
    converged: bool = False
    # Seconds per phase, summed over iterations.
    receivers_s: float = 0.0  # receivers and weights
    sweep_s: float = 0.0  # the per-antenna sweep
    objective_s: float = 0.0  # objective and rate
    decomp_s: float = 0.0  # the final analog/digital decomposition

    @property
    def n_iterations(self) -> int:
        return len(self.objective)

    def rows(self):
        """Rows of the trace CSV: iter, objective, sum_rate_bps_hz,
        max_power_violation."""
        for i in range(self.n_iterations):
            yield (
                i + 1,
                self.objective[i],
                self.sum_rate[i],
                self.max_power_violation[i],
            )


@dataclass
class PrecoderState:
    """Solver output: digital precoder, its analog/digital factorization,
    the antenna-domain precoder and the per-antenna power budgets it was
    solved for.

    `antenna_matrix` (N x W) holds one row per antenna: a one-hot candidate
    selection, or the harmonic coefficients of a synthesized pattern.
    """

    f_d: np.ndarray
    f_rf: np.ndarray
    f_bb: np.ndarray
    antenna_matrix: np.ndarray
    power: np.ndarray
    decomp_residual: float

    @classmethod
    def decomposed(cls, f_d, antenna_matrix, power, config: SolverConfig) -> "PrecoderState":
        """State of the digital precoder `f_d`, factored into analog and
        digital stages with `config.rf_chains` chains."""
        decomp = decompose_precoder(f_d, config.rf_chains, power, seed=config.seed)
        return cls(f_d, decomp.f_rf, decomp.f_bb, antenna_matrix, power, decomp.residual)

    @property
    def n_antennas(self) -> int:
        return self.f_d.shape[0]


# ---------------------------------------------------------------------------
# The covariance pass: rates, auxiliaries and the scalar objective
# ---------------------------------------------------------------------------
#
# Every user's quantities are batched over a leading user axis.  The users'
# streams are the columns of the stacked N x D precoder, so user k's receive
# filter is M x D with zero columns outside its own streams, and its weight
# and MSE matrices are D x D and equal the identity outside its diagonal
# block.  Users with unequal stream counts thus share one batched call.

def _herm(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _stack_users(matrices) -> np.ndarray:
    """(K, M, ...) stack of per-user matrices with equal receive counts."""
    if isinstance(matrices, np.ndarray):
        return matrices
    shapes = sorted({np.shape(m) for m in matrices})
    if len(shapes) > 1:
        raise ValueError(
            f"every user needs the same number of receive antennas, got shapes {shapes}"
        )
    return np.asarray(matrices)


def stream_masks(stream_counts) -> np.ndarray:
    """(K, D) 0/1 masks of each user's columns in the stacked precoder."""
    counts = tuple(stream_counts)
    return np.repeat(np.eye(len(counts)), counts, axis=1)


@dataclass(frozen=True)
class Covariances:
    """Every user's received signal and covariances for one precoder."""

    received: np.ndarray  # (K, M, D) H_k F: all streams at user k
    own: np.ndarray  # (K, M, D) H_k F with the other users' columns zeroed
    interference: np.ndarray  # (K, M, M) noise plus the other users' signals
    total: np.ndarray  # (K, M, M) interference plus the own signal
    masks: np.ndarray  # (K, D) from :func:`stream_masks`


def received_covariances(channels, f_d: np.ndarray, masks: np.ndarray, noise) -> Covariances:
    """One stacked product S = H F and the users' covariances.

    `channels` is (K, M, N), or K channels with equal M; `noise` is one
    power or one per user.
    """
    channels = _stack_users(channels)
    n_users, n_rx, n_antennas = channels.shape
    received = (channels.reshape(n_users * n_rx, n_antennas) @ f_d).reshape(
        n_users, n_rx, -1
    )
    own = received * masks[:, None, :]
    leak = received - own
    interference = np.reshape(noise, (-1, 1, 1)) * np.eye(n_rx) + leak @ _herm(leak)
    total = interference + own @ _herm(own)
    return Covariances(received, own, interference, total, masks)


def weighted_sum_rate(cov: Covariances, weights=None) -> tuple[float, np.ndarray]:
    """Weighted sum of per-user log-det rates in bps/Hz.

    Residual interference from the other users plus noise is the effective
    noise covariance.  Users are weighted equally unless `weights` is given.
    """
    n_users = cov.total.shape[0]
    weights = np.ones(n_users) / n_users if weights is None else np.asarray(weights, dtype=float)
    _, log_dets = np.linalg.slogdet(np.concatenate([cov.total, cov.interference]))
    rates = (log_dets[:n_users] - log_dets[n_users:]) / np.log(2.0)
    return float(weights @ rates), rates


def mmse_receivers(cov: Covariances) -> np.ndarray:
    """Linear MMSE receive filters, (K, M, D)."""
    return np.linalg.solve(cov.total, cov.own)


def mse_weights(cov: Covariances, receivers: np.ndarray) -> np.ndarray:
    """Optimal weight matrices (I - U^H H F)^{-1}, symmetrized: (K, D, D)."""
    gram = np.eye(cov.masks.shape[1]) - _herm(receivers) @ cov.own
    try:
        w = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        user = int(np.argmin(np.linalg.matrix_rank(gram)))
        raise np.linalg.LinAlgError(
            f"weight update singular for user {user}; the receive filter is "
            "inconsistent with the current precoders"
        ) from exc
    return 0.5 * (w + _herm(w))


def mse_matrix(cov: Covariances, receivers: np.ndarray) -> np.ndarray:
    """Error covariances of the users' streams under the given receive
    filters, (K, D, D): (I - U^H H_k F_k)(I - U^H H_k F_k)^H + U^H C_k U,
    with C_k user k's interference covariance."""
    receivers_h = _herm(receivers)
    mismatch = np.eye(cov.masks.shape[1]) - receivers_h @ cov.own
    return mismatch @ _herm(mismatch) + receivers_h @ cov.interference @ receivers


def wmmse_objective(weights: np.ndarray, mse: np.ndarray, masks: np.ndarray, beta) -> float:
    """sum_k beta_k (tr(W_k E_k) - ln det W_k), the trace over user k's own
    streams (`masks` from :func:`stream_masks`); requires positive definite
    W."""
    try:
        chol = np.linalg.cholesky(weights)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weight matrix must be positive definite") from exc
    log_dets = 2.0 * np.log(chol.diagonal(axis1=1, axis2=2).real).sum(axis=1)
    own_block = masks[:, :, None] * masks[:, None, :]
    traces = np.einsum("kij,kji->k", own_block * weights, mse).real
    return float(np.asarray(beta, dtype=float) @ (traces - log_dets))


# ---------------------------------------------------------------------------
# Per-antenna block terms
# ---------------------------------------------------------------------------
#
# The block objective of antenna n for precoder row f and pattern vector v is
# ||f||^2 v^T Q_n v + 2 Re(f^H L_n v), with Q_n the (W, W) Hermitian PSD quad
# term and L_n the (D, W) linear term.

def _per_antenna(matrix: np.ndarray, n_antennas: int) -> np.ndarray:
    """(rows, N W) -> (N, rows, W)."""
    blocks = matrix.reshape(matrix.shape[0], n_antennas, -1)
    return np.ascontiguousarray(blocks.transpose(1, 0, 2))


class _Users:
    """What one solve keeps of its users: their lifted channels stacked into
    one (K M) x N W channel, its conjugated per-antenna blocks, the stream
    masks and the noise powers."""

    def __init__(self, effs, stream_counts, noise):
        self.lifted = _stack_users([eff.matrix for eff in effs])  # (K, M, N W)
        n_users, n_rx, n_cols = self.lifted.shape
        self.stacked = EffectiveChannel(
            matrix=self.lifted.reshape(n_users * n_rx, n_cols),
            mode=effs[0].mode,
            block_width=effs[0].block_width,
        )
        self.blocks_conj = _per_antenna(self.stacked.matrix.conj(), effs[0].n_antennas)
        self.masks = stream_masks(stream_counts)
        self.noise = noise

    def covariances(self, antenna_matrix: np.ndarray, f_d: np.ndarray) -> Covariances:
        """The covariance pass of the composed channel and `f_d`."""
        channel = compose(self.stacked, antenna_matrix).reshape(*self.lifted.shape[:2], -1)
        return received_covariances(channel, f_d, self.masks, self.noise)


class _SweepWorkspace:
    """What one antenna sweep shares, built once per sweep and batched over
    antennas.

    The users' weighted receive projections beta_k U_k W_k U_k^H applied to
    the stacked lifted channel give `proj`; antenna n's quad term Q_n and the
    alignment part of its linear term depend only on these.  The linear
    term is R^T P_n - O_n: R is the received signal of the composed channel
    times the digital precoder, kept conjugated, and the offset
    O_n = conj(f_n) (a_n^T Q_n) + align_n takes antenna n's own signal out
    of the coupling.  In a Gauss-Seidel sweep f_n and a_n do not change
    before antenna n's own step, so every offset is built here, once; each
    antenna reads its linear term once, before it commits.  R starts from
    the covariance pass's copy and is corrected at every commit (rank two,
    or one column per one-hot vector for a selection), so it stays exact
    under any order of commits.  The correction reads the old row from a
    running conjugate copy of the rows, `rows_conj`, which every commit
    updates along with `f_d`; a selection also keeps each antenna's
    current candidate as a Python list.

    The step closed forms read what else the sweep cannot change: the real
    diagonals of the quad terms and their guarded inverses
    (:func:`candidate_quads`) for selection, and Re(a_n^T Q_n a_n) and
    Re Q_n[1:, 0] for synthesis.  `step_quads` builds the former as nested
    Python lists and `tail_spectrum` decomposes every antenna in one
    batched call, each on first use, so only selection sweeps pay for the
    lists and only sweeps that solve on the sphere for the decomposition.
    """

    def __init__(self, users, antenna_matrix, f_d, received, receivers, weights, beta):
        n_users, n_rx, n_cols = users.lifted.shape
        n_antennas = antenna_matrix.shape[0]
        self.antenna_matrix = antenna_matrix
        self.f_d = f_d
        self.blocks_conj = users.blocks_conj
        beta = np.asarray(beta, dtype=float)
        receivers_h = _herm(receivers)
        proj = beta[:, None, None] * (receivers @ weights @ receivers_h)  # beta U W U^H
        # W U^H of every user side by side, (D, K M): user k's rows are zero
        # outside its own streams.
        align = (weights @ receivers_h).transpose(1, 0, 2).reshape(-1, n_users * n_rx)
        stream_beta = beta @ users.masks
        self.proj = _per_antenna((proj @ users.lifted).reshape(n_users * n_rx, n_cols), n_antennas)
        self.align = _per_antenna(
            stream_beta[:, None] * (align @ users.stacked.matrix), n_antennas
        )
        quad = self.blocks_conj.transpose(0, 2, 1) @ self.proj
        self.quad = 0.5 * (quad + quad.conj().transpose(0, 2, 1))
        self.received_conj = received.reshape(n_users * n_rx, -1).conj()
        self.rows_conj = f_d.conj()
        pattern_quad = (antenna_matrix[:, None, :] @ self.quad)[:, 0]  # a_n^T Q_n
        self.offset = self.rows_conj[:, :, None] * pattern_quad[:, None, :] + self.align
        self.row_quads = np.einsum("nw,nw->n", pattern_quad.real, antenna_matrix)
        self.pinned = self.quad[:, 1:, 0].real

    @functools.cached_property
    def _tail_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        return reduced_spectrum(self.quad)

    @functools.cached_property
    def step_quads(self) -> tuple[list[list[float]], list[list[float]]]:
        """Every antenna's :func:`candidate_quads` as nested Python lists."""
        quads, inv_quads = candidate_quads(self.quad)
        return quads.tolist(), inv_quads.tolist()

    @functools.cached_property
    def _selection(self) -> list[int]:
        return self.antenna_matrix.argmax(axis=1).tolist()

    def tail_spectrum(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Antenna n's :func:`reduced_spectrum`, from the sweep's batched
        decomposition."""
        eigenvalues, eigenvectors = self._tail_spectra
        return eigenvalues[n], eigenvectors[n]

    def linear(self, n: int) -> np.ndarray:
        """Antenna n's (D, W) linear term: one cross-term product and the
        offset."""
        return self.received_conj.T @ self.proj[n] - self.offset[n]

    def apply(self, n: int, vector: np.ndarray, row: np.ndarray) -> None:
        """Commit antenna n's new pattern vector and precoder row."""
        self.received_conj += self.blocks_conj[n] @ (
            vector[:, None] * row - self.antenna_matrix[n][:, None] * self.rows_conj[n]
        )
        self.antenna_matrix[n] = vector
        self._commit_row(n, row)

    def select(self, n: int, index: int, row: np.ndarray) -> None:
        """Commit candidate `index` and precoder row of a one-hot antenna n:
        the received signal moves by one column of the antenna's block per
        vector."""
        old = self._selection[n]
        blocks = self.blocks_conj[n]
        old_row = self.rows_conj[n]
        if index == old:
            self.received_conj += blocks[:, index, None] * (row - old_row)
        else:
            self.received_conj += blocks[:, index, None] * row - blocks[:, old, None] * old_row
            self.antenna_matrix[n, old] = 0.0
            self.antenna_matrix[n, index] = 1.0
            self._selection[n] = index
        self._commit_row(n, row)

    def _commit_row(self, n: int, row: np.ndarray) -> None:
        self.rows_conj[n] = row
        self.f_d[n] = row.conj()


# ---------------------------------------------------------------------------
# Closed-form row update and pattern updates
# ---------------------------------------------------------------------------

def _row_solution(quad_scalar: float, dvec: np.ndarray, budget: float):
    """Minimizer of a ||f||^2 + 2 Re(f^H d) over the power ball.

    The optimum is anti-parallel to d with step min(1/a, sqrt(P)/||d||);
    when the quadratic coefficient vanishes the step sits on the power
    boundary.  Returns the row and its objective value.
    """
    norm_sq = float(np.vdot(dvec, dvec).real)
    if norm_sq == 0.0:
        return np.zeros_like(dvec), 0.0
    boundary = math.sqrt(budget / norm_sq)
    step = boundary if quad_scalar <= _TINY_QUAD else min(1.0 / quad_scalar, boundary)
    value = norm_sq * (quad_scalar * step**2 - 2.0 * step)
    return -step * dvec, value


def candidate_quads(quad_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real diagonal of one (W, W) quad term or of a stack, and its guarded
    inverse.

    Entry s is candidate s's row-step coefficient a = Re Q[s, s]; the
    inverse is 1/a, or inf where a is at most `_TINY_QUAD`, so that the
    step min(inverse, boundary) is the closed form of :func:`_row_solution`.
    """
    quads = quad_terms.diagonal(axis1=-2, axis2=-1).real
    inv_quads = np.where(quads > _TINY_QUAD, 1.0 / np.maximum(quads, _TINY_QUAD), np.inf)
    return quads, inv_quads


def select_pattern_and_row(
    linear: np.ndarray, quads: np.ndarray, inv_quads: np.ndarray, budget: float
):
    """Enumerate candidate patterns and pick the jointly optimal pair.

    `linear` is the antenna's (D, W) linear term, and `quads` and
    `inv_quads` the diagonal of its quad term and the guarded inverse from
    :func:`candidate_quads` (lists or arrays); `budget` is non-negative.
    Returns (candidate index, row, objective value).  Each candidate gets
    the closed-form row of :func:`_row_solution`: a zero direction gives a
    zero row and value 0, a vanishing quadratic coefficient the boundary
    step.  Ties go to the lowest index.

    The W candidates are scored one by one on Python floats, which costs
    less than numpy's dispatch on arrays this small.  Every boundary, step
    and value takes the same IEEE operations in the same order as the
    whole-array form, so the result is the same to the bit.  A value is NaN
    only for non-finite input or when a direction so small that its
    boundary step overflows meets a quad at most `_TINY_QUAD`; as with
    numpy's `argmin`, the first NaN is then taken.
    """
    norms_sq = np.abs(linear)
    np.square(norms_sq, out=norms_sq)
    best, best_value, best_step = 0, math.nan, 0.0
    for s, (norm_sq, quad, inv_quad) in enumerate(
        zip(np.add.reduce(norms_sq, axis=0).tolist(), quads, inv_quads)
    ):
        # A zero direction divides by 1 instead: its value is 0 whatever the step.
        boundary = math.sqrt(budget / (norm_sq if norm_sq > 0.0 else 1.0))
        step = min(inv_quad, boundary)
        value = norm_sq * (quad * (step * step) - 2.0 * step)
        if value != value:  # NaN: numpy's argmin takes the first one
            best, best_value, best_step = s, value, step
            break
        if s == 0 or value < best_value:
            best, best_value, best_step = s, value, step
    return best, -best_step * linear[:, best], float(best_value)


def synthesize_pattern_and_row(
    linear: np.ndarray,
    row_quad: float,
    pinned: np.ndarray,
    tail_spectrum,
    coefficients: np.ndarray,
    budget: float,
    rho: float,
):
    """One row update followed by one pattern-coefficient update.

    `linear` is the antenna's (D, W) linear term, `row_quad` the row step's
    coefficient Re(c^T Q c) at the current coefficients c, and `pinned`
    Re Q[1:, 0] of its quad term Q.  The row update is closed form for the
    current coefficients; the coefficient update keeps the pinned constant
    component and solves the reduced problem on the unit sphere exactly,
    never ending above the current coefficients, so the block objective
    cannot increase.  `tail_spectrum()` returns the
    :func:`reduced_spectrum` of Q; it is called only when the coefficients
    are solved for.  Returns (coefficients, row).
    """
    row, _ = _row_solution(row_quad, linear @ coefficients, budget)
    width = coefficients.size
    if rho >= 1.0 or width == 1:
        return coefficients, row
    scale, reduced_linear = reduced_coefficient_problem(pinned, linear, row, rho)
    if scale == 0.0:  # a zero row: every coefficient vector scores the same
        return coefficients, row
    tail = coefficients[1:]
    tail_norm = math.sqrt(tail @ tail)
    if tail_norm == 0.0:
        start = np.zeros(width - 1)
        start[0] = 1.0
    else:
        start = tail / tail_norm
    eigenvalues, eigenvectors = tail_spectrum()
    result = minimize_on_sphere(scale * eigenvalues, eigenvectors, reduced_linear, start)
    return lift_coefficients(result.point, rho), row


# ---------------------------------------------------------------------------
# Shared solver loop
# ---------------------------------------------------------------------------

def _initial_precoders(rng, n_antennas, n_chains, n_streams, power):
    """Random constant-modulus analog stage, Gaussian digital stage, composed
    and scaled onto the per-antenna power boundary."""
    phases = rng.uniform(0.0, 2.0 * np.pi, (n_antennas, n_chains))
    f_rf = np.exp(1j * phases) / np.sqrt(n_antennas)
    f_bb = (
        rng.standard_normal((n_chains, n_streams))
        + 1j * rng.standard_normal((n_chains, n_streams))
    ) / np.sqrt(2.0 * n_chains)
    f_d = f_rf @ f_bb
    return f_d * feasibility_scale(f_d, power)


def _power_violation(f_d: np.ndarray, power: np.ndarray) -> float:
    per_antenna = np.sum(np.abs(f_d) ** 2, axis=1)
    return float(np.max(per_antenna / power - 1.0))


def _run_bcd(
    effs,
    stream_counts,
    config: SolverConfig,
    update_antenna,
    antenna_matrix: np.ndarray,
    row_power_target: float,
    init_f_d: np.ndarray | None,
    block_monitor=None,
) -> tuple[PrecoderState, Trace]:
    """Common outer loop: auxiliaries, antenna sweep, trace, decomposition.

    `update_antenna(workspace, n, budget)` performs one antenna block update
    through the workspace, which writes the new pattern vector into
    `antenna_matrix`; the state returns that matrix.
    """
    K = len(effs)
    n_antennas = effs[0].n_antennas
    d_total = sum(stream_counts)
    power = np.broadcast_to(np.asarray(config.power, dtype=float), (n_antennas,)).copy()
    if not np.all((power > 0.0) & (power < np.inf)):
        raise ValueError(
            f"per-antenna power budgets must be positive and finite, got {config.power}"
        )
    budgets = power.tolist()
    beta = np.ones(K) / K
    if config.rf_chains < 1 or config.rf_chains > n_antennas:
        raise ValueError(
            f"rf_chains must lie in [1, {n_antennas}], got {config.rf_chains}"
        )
    users = _Users(effs, stream_counts, config.noise)

    rng = np.random.default_rng(config.seed)
    if init_f_d is None:
        f_d = _initial_precoders(rng, n_antennas, config.rf_chains, d_total, power)
    else:
        f_d = np.array(init_f_d, dtype=complex)
        if f_d.shape != (n_antennas, d_total):
            raise ValueError(
                f"init_f_d must have shape {(n_antennas, d_total)}, got {f_d.shape}"
            )

    trace = Trace()
    weights = np.broadcast_to(np.eye(d_total, dtype=complex), (K, d_total, d_total))

    def objective_of(cov, receivers, weights):
        return wmmse_objective(weights, mse_matrix(cov, receivers), users.masks, beta)

    started = time.perf_counter()
    cov = users.covariances(antenna_matrix, f_d)
    previous = None
    for _ in range(config.max_outer_iterations):
        receivers = mmse_receivers(cov)
        if block_monitor is not None:
            block_monitor("receivers", objective_of(cov, receivers, weights))
        weights = mse_weights(cov, receivers)
        if block_monitor is not None:
            block_monitor("weights", objective_of(cov, receivers, weights))
        swept = time.perf_counter()
        trace.receivers_s += swept - started

        workspace = _SweepWorkspace(
            users, antenna_matrix, f_d, cov.received, receivers, weights, beta
        )
        for n in range(n_antennas):
            update_antenna(workspace, n, budgets[n])
            if block_monitor is not None:
                block_monitor(
                    f"antenna_{n}",
                    objective_of(users.covariances(antenna_matrix, f_d), receivers, weights),
                )
        del workspace  # so the next sweep does not build its own beside it
        evaluated = time.perf_counter()
        trace.sweep_s += evaluated - swept

        # Also the covariances of the next iteration's receivers.
        cov = users.covariances(antenna_matrix, f_d)
        objective = objective_of(cov, receivers, weights)
        rate, _ = weighted_sum_rate(cov, beta)
        trace.objective.append(objective)
        trace.sum_rate.append(rate)
        trace.max_power_violation.append(_power_violation(f_d, power))
        trace.antenna_deviation.append(
            float(np.max(np.abs(np.sum(antenna_matrix**2, axis=1) - row_power_target)))
        )
        finished = time.perf_counter()
        trace.objective_s += finished - evaluated
        trace.iter_seconds.append(finished - started)
        started = finished

        if previous is not None:
            drop = (previous - objective) / max(1.0, abs(previous))
            if drop < config.objective_tol:
                trace.converged = True
                break
        previous = objective

    decomposed = time.perf_counter()
    state = PrecoderState.decomposed(f_d, antenna_matrix, power, config)
    trace.decomp_s = time.perf_counter() - decomposed
    return state, trace


def run_selection(
    effs,
    stream_counts,
    config: SolverConfig,
    init_f_d: np.ndarray | None = None,
    block_monitor=None,
) -> tuple[PrecoderState, Trace]:
    """Precoding over a finite per-antenna pattern candidate set.

    `effs` holds one selection-lifted channel per user.  Antennas start on
    candidate 0; `init_f_d` overrides the random digital initialization
    (used for paired comparisons against a fixed-pattern run).
    """
    if any(eff.mode != "sel" for eff in effs):
        raise ValueError("run_selection expects selection-lifted channels")
    antenna_matrix = np.eye(effs[0].block_width)[np.zeros(effs[0].n_antennas, dtype=int)]

    def update(workspace, n, budget):
        quads, inv_quads = workspace.step_quads
        index, row, _ = select_pattern_and_row(workspace.linear(n), quads[n], inv_quads[n], budget)
        workspace.select(n, index, row)

    return _run_bcd(
        effs, stream_counts, config, update, antenna_matrix, 1.0, init_f_d, block_monitor
    )


def run_synthesis(
    effs,
    stream_counts,
    config: SolverConfig,
    init_f_d: np.ndarray | None = None,
    block_monitor=None,
) -> tuple[PrecoderState, Trace]:
    """Precoding with per-antenna harmonic pattern synthesis.

    `effs` holds one synthesis-lifted channel per user.  Every antenna's
    coefficient vector keeps the constant component pinned at the power
    share `rho`; the remaining coefficients are optimized on the power
    sphere.  Antennas start from :func:`isotropic_coefficients`, which puts
    the remaining power on the first non-constant harmonic, so the start
    pattern is isotropic only for rho = 1: its gain dips to
    sqrt(rho) - sqrt(3 (1 - rho)), -0.11 at rho = 0.7.  Positive gain is
    not enforced; the audit reports the smallest gain.  With rho = 1 (or a
    single basis function) patterns stay isotropic and only the precoder
    rows are updated.
    """
    if any(eff.mode != "cof" for eff in effs):
        raise ValueError("run_synthesis expects synthesis-lifted channels")
    n_antennas = effs[0].n_antennas
    width = effs[0].block_width
    if not 0.0 < config.rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {config.rho}")
    coefficients = np.tile(isotropic_coefficients(width, config.rho), (n_antennas, 1))

    def update(workspace, n, budget):
        coeffs, row = synthesize_pattern_and_row(
            workspace.linear(n),
            workspace.row_quads[n],
            workspace.pinned[n],
            functools.partial(workspace.tail_spectrum, n),
            workspace.antenna_matrix[n],
            budget,
            config.rho,
        )
        workspace.apply(n, coeffs, row)

    return _run_bcd(
        effs, stream_counts, config, update, coefficients, FOUR_PI, init_f_d, block_monitor
    )
