"""Weighted-MMSE precoding with per-antenna power and pattern reconfiguration.

Weighted sum-rate maximization is handled through its weighted-MSE
reformulation: with auxiliary receive filters U_k and weight matrices W_k,
the objective sum_k beta_k (tr(W_k E_k) - ln det W_k) is minimized by block
coordinate descent.  The receiver and weight blocks have closed forms; the
transmit side is swept one antenna at a time, jointly updating that
antenna's precoder row f and its pattern variable (a candidate selection or
a harmonic coefficient vector).

Two solvers are provided: :func:`run_selection` for a finite candidate set
per antenna and :func:`run_synthesis` for freely synthesized patterns with a
pinned constant component.  Both record a per-iteration trace and decompose
the optimized digital precoder into analog and digital stages at the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import compose, selection_matrix
from .decomp import decompose_precoder
from .sphere_opt import (
    isotropic_coefficients,
    lift_coefficients,
    minimize_on_sphere,
    reduced_coefficient_problem,
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
    are linear per-user values (scalar or length K).  `rho` pins the
    constant-component share of synthesized patterns.
    """

    power: float | np.ndarray = 1.0
    noise: float | np.ndarray = 1e-9
    weights: np.ndarray | None = None
    rf_chains: int = 1
    max_outer_iterations: int = 50
    objective_tol: float = 1e-6
    rho: float = 0.7
    seed: int = 0
    decomp_iterations: int = 30


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
    the antenna-domain configuration and the power, noise and user weights
    it was solved for."""

    f_d: np.ndarray
    f_rf: np.ndarray | None
    f_bb: np.ndarray | None
    selection: np.ndarray | None
    coefficients: np.ndarray | None
    beta: np.ndarray
    noise: np.ndarray
    power: np.ndarray
    decomp_residual: float | None = None

    @property
    def n_antennas(self) -> int:
        return self.f_d.shape[0]


# ---------------------------------------------------------------------------
# Rates, auxiliaries and the scalar objective
# ---------------------------------------------------------------------------

def split_precoder(f_d: np.ndarray, stream_counts) -> list[np.ndarray]:
    """Per-user column blocks of a stacked precoder."""
    offsets = np.cumsum([0, *stream_counts])
    return [f_d[:, offsets[k] : offsets[k + 1]] for k in range(len(stream_counts))]


def _as_per_user(value, n_users: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), (n_users,)).copy()


def weighted_sum_rate(
    channels,
    precoders,
    noise_powers,
    weights=None,
    f_rf: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Weighted sum of per-user log-det rates in bps/Hz.

    `precoders` holds one N x D_k matrix per user; pass `f_rf` to compose a
    digital precoder list expressed at the chain inputs.  Treats residual
    interference from the other users plus noise as the effective noise
    covariance.
    """
    K = len(channels)
    noise_powers = _as_per_user(noise_powers, K)
    weights = np.ones(K) / K if weights is None else np.asarray(weights, dtype=float)
    if f_rf is not None:
        precoders = [f_rf @ p for p in precoders]
    received = [[h @ p for p in precoders] for h in channels]
    rates = np.zeros(K)
    for k, h in enumerate(channels):
        m = h.shape[0]
        interference = noise_powers[k] * np.eye(m, dtype=complex)
        for i in range(K):
            if i != k:
                s = received[k][i]
                interference += s @ s.conj().T
        signal = received[k][k]
        total = interference + signal @ signal.conj().T
        rates[k] = (
            np.linalg.slogdet(total)[1] - np.linalg.slogdet(interference)[1]
        ) / np.log(2.0)
    return float(weights @ rates), rates


def mmse_receivers(channels, precoders, noise_powers) -> list[np.ndarray]:
    """Per-user linear MMSE receive filters for the current precoders."""
    K = len(channels)
    noise_powers = _as_per_user(noise_powers, K)
    receivers = []
    for k, h in enumerate(channels):
        m = h.shape[0]
        cov = noise_powers[k] * np.eye(m, dtype=complex)
        for p in precoders:
            s = h @ p
            cov += s @ s.conj().T
        receivers.append(np.linalg.solve(cov, h @ precoders[k]))
    return receivers


def mse_matrix(channel, precoders, k: int, receiver, noise_power: float) -> np.ndarray:
    """Error covariance of user k's streams under the given receive filter."""
    signal = channel @ precoders[k]
    d_k = signal.shape[1]
    mismatch = np.eye(d_k, dtype=complex) - receiver.conj().T @ signal
    cov = noise_power * np.eye(channel.shape[0], dtype=complex)
    for i, p in enumerate(precoders):
        if i != k:
            s = channel @ p
            cov += s @ s.conj().T
    return mismatch @ mismatch.conj().T + receiver.conj().T @ cov @ receiver


def mse_weights(channels, precoders, receivers) -> list[np.ndarray]:
    """Optimal weight matrices (I - U^H H F)^{-1}, symmetrized."""
    out = []
    for k, (h, u) in enumerate(zip(channels, receivers)):
        d_k = precoders[k].shape[1]
        gram = np.eye(d_k, dtype=complex) - u.conj().T @ h @ precoders[k]
        try:
            w = np.linalg.inv(gram)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"weight update singular for user {k}; the receive filter is "
                "inconsistent with the current precoders"
            ) from exc
        out.append(0.5 * (w + w.conj().T))
    return out


def wmmse_objective(weight_matrices, mse_matrices, beta) -> float:
    """sum_k beta_k (tr(W_k E_k) - ln det W_k); requires positive definite W."""
    beta = np.asarray(beta, dtype=float)
    total = 0.0
    for b, w, e in zip(beta, weight_matrices, mse_matrices):
        try:
            np.linalg.cholesky(w)
        except np.linalg.LinAlgError as exc:
            raise ValueError("weight matrix must be positive definite") from exc
        total += b * (float(np.trace(w @ e).real) - np.linalg.slogdet(w)[1])
    return float(total)


# ---------------------------------------------------------------------------
# Per-antenna block terms
# ---------------------------------------------------------------------------

@dataclass
class PerAntennaTerms:
    """Quadratic, cross and alignment terms of one antenna's subproblem.

    The block objective for precoder row f and pattern vector v is
    ||f||^2 v^T quad v + 2 Re(f^H (cross - align) v).
    """

    quad_term: np.ndarray  # (W, W) Hermitian PSD
    cross_term: np.ndarray  # (D, W)
    align_term: np.ndarray  # (D, W)


class _SweepWorkspace:
    """Caches shared factors for a full antenna sweep.

    The users' lifted channels are stacked into one (sum M_k) x N W matrix
    and their weighted receive projections beta_k U_k W_k U_k^H beside it.
    The quad and align terms of every antenna depend only on these, so they
    are built once per sweep.  The cross term also needs the received
    signal of the composed channel times the digital precoder; one stacked
    copy of it (kept conjugated) gets a rank-two correction whenever an
    antenna is updated, keeping each antenna's terms O(1) in N.
    """

    def __init__(self, effs, antenna_matrix, f_d, receivers, weight_matrices, beta):
        width = effs[0].block_width
        n_antennas = effs[0].n_antennas
        self.antenna_matrix = antenna_matrix
        self.f_d = f_d
        beta = np.asarray(beta, dtype=float)
        lifted = np.vstack([eff.matrix for eff in effs])
        proj = np.vstack(  # beta * U W U^H applied to the lifted channel
            [
                (b * (u @ w @ u.conj().T)) @ eff.matrix
                for eff, u, w, b in zip(effs, receivers, weight_matrices, beta)
            ]
        )
        align = np.vstack(  # beta * W U^H applied to the lifted channel
            [
                b * (w @ u.conj().T @ eff.matrix)
                for eff, u, w, b in zip(effs, receivers, weight_matrices, beta)
            ]
        )

        def per_antenna(matrix):  # (rows, N W) -> (N, rows, W)
            blocks = matrix.reshape(matrix.shape[0], n_antennas, width)
            return np.ascontiguousarray(blocks.transpose(1, 0, 2))

        self.blocks_conj = per_antenna(lifted.conj())
        self.proj = per_antenna(proj)
        self.align = per_antenna(align)
        quad = self.blocks_conj.transpose(0, 2, 1) @ self.proj
        self.quad = 0.5 * (quad + quad.conj().transpose(0, 2, 1))
        channel_conj = np.einsum("nmw,nw->mn", self.blocks_conj, antenna_matrix)
        self.received_conj = channel_conj @ f_d.conj()

    def terms(self, n: int) -> PerAntennaTerms:
        quad = self.quad[n]
        row = self.f_d[n].conj()  # f_(n)
        cross = self.received_conj.T @ self.proj[n] - row[:, None] * (
            self.antenna_matrix[n] @ quad
        )
        return PerAntennaTerms(quad_term=quad, cross_term=cross, align_term=self.align[n])

    def apply(self, n: int, vector: np.ndarray, row: np.ndarray) -> None:
        """Commit antenna n's new pattern vector and precoder row."""
        old_row = self.f_d[n].conj()
        self.received_conj += self.blocks_conj[n] @ (
            vector[:, None] * row - self.antenna_matrix[n][:, None] * old_row
        )
        self.antenna_matrix[n] = vector
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
    norm = np.linalg.norm(dvec)
    if norm == 0.0:
        return np.zeros_like(dvec), 0.0
    boundary = np.sqrt(budget) / norm
    step = boundary if quad_scalar <= _TINY_QUAD else min(1.0 / quad_scalar, boundary)
    value = norm**2 * (quad_scalar * step**2 - 2.0 * step)
    return -step * dvec, value


def solve_antenna_row(terms: PerAntennaTerms, vector: np.ndarray, budget: float) -> np.ndarray:
    """Optimal precoder row for a fixed pattern vector under a power budget."""
    quad = float(np.real(vector @ terms.quad_term @ vector))
    dvec = (terms.cross_term - terms.align_term) @ vector
    row, _ = _row_solution(quad, dvec, budget)
    return row


def select_pattern_and_row(terms: PerAntennaTerms, budget: float):
    """Enumerate candidate patterns and pick the jointly optimal pair.

    Returns (candidate index, row, objective value).  Each candidate gets
    the closed-form row of :func:`_row_solution`: a zero direction gives a
    zero row and value 0, a vanishing quadratic coefficient the boundary
    step.  Ties go to the lowest index.
    """
    quads = terms.quad_term.diagonal().real
    dmat = terms.cross_term - terms.align_term
    norms_sq = np.square(np.abs(dmat)).sum(axis=0)
    # A zero direction divides by 1 instead: its value is 0 whatever the step.
    boundary = np.sqrt(budget / np.where(norms_sq > 0.0, norms_sq, 1.0))
    inv_quad = np.where(quads > _TINY_QUAD, 1.0 / np.maximum(quads, _TINY_QUAD), np.inf)
    steps = np.minimum(inv_quad, boundary)
    values = norms_sq * (quads * steps**2 - 2.0 * steps)
    best = int(values.argmin())
    return best, -steps[best] * dmat[:, best], float(values[best])


def synthesize_pattern_and_row(
    terms: PerAntennaTerms,
    coefficients: np.ndarray,
    budget: float,
    rho: float,
):
    """One row update followed by one pattern-coefficient update.

    The row update is closed form for the current coefficients; the
    coefficient update keeps the pinned constant component and solves the
    reduced problem on the unit sphere exactly, never ending above the
    current coefficients, so the block objective cannot increase.  Returns
    (coefficients, row).
    """
    row = solve_antenna_row(terms, coefficients, budget)
    width = coefficients.size
    if rho >= 1.0 or width == 1 or not np.any(row):
        return coefficients, row
    tail = coefficients[1:]
    tail_norm = np.linalg.norm(tail)
    if tail_norm == 0.0:
        start = np.zeros(width - 1)
        start[0] = 1.0
    else:
        start = tail / tail_norm
    problem = reduced_coefficient_problem(
        terms.quad_term, terms.cross_term, terms.align_term, row, rho, start
    )
    return lift_coefficients(minimize_on_sphere(problem).point, rho), row


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
    per_antenna = np.sum(np.abs(f_d) ** 2, axis=1)
    positive = per_antenna > 0.0
    scale = float(np.min(np.sqrt(power[positive] / per_antenna[positive])))
    return f_d * scale


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
    `antenna_matrix`.  The state reports selection-lifted runs by candidate
    index and synthesis-lifted runs by coefficient rows.
    """
    K = len(effs)
    n_antennas = effs[0].n_antennas
    stream_counts = tuple(stream_counts)
    d_total = sum(stream_counts)
    power = np.broadcast_to(np.asarray(config.power, dtype=float), (n_antennas,)).copy()
    noise = _as_per_user(config.noise, K)
    beta = (
        np.ones(K) / K
        if config.weights is None
        else np.asarray(config.weights, dtype=float)
    )
    if config.rf_chains < 1 or config.rf_chains > n_antennas:
        raise ValueError(
            f"rf_chains must lie in [1, {n_antennas}], got {config.rf_chains}"
        )

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
    receivers = [None] * K
    weight_matrices = [np.eye(d_k, dtype=complex) for d_k in stream_counts]

    def current_objective(channels, precoders):
        mses = [
            mse_matrix(channels[k], precoders, k, receivers[k], noise[k])
            for k in range(K)
        ]
        return wmmse_objective(weight_matrices, mses, beta)

    started = time.perf_counter()
    channels = [compose(eff, antenna_matrix) for eff in effs]
    precoders = split_precoder(f_d, stream_counts)
    previous = None
    for _ in range(config.max_outer_iterations):
        receivers = mmse_receivers(channels, precoders, noise)
        if block_monitor is not None:
            block_monitor("receivers", current_objective(channels, precoders))
        weight_matrices = mse_weights(channels, precoders, receivers)
        if block_monitor is not None:
            block_monitor("weights", current_objective(channels, precoders))
        swept = time.perf_counter()
        trace.receivers_s += swept - started

        workspace = _SweepWorkspace(
            effs, antenna_matrix, f_d, receivers, weight_matrices, beta
        )
        for n in range(n_antennas):
            update_antenna(workspace, n, power[n])
            if block_monitor is not None:
                chans = [compose(eff, antenna_matrix) for eff in effs]
                block_monitor(
                    f"antenna_{n}",
                    current_objective(chans, split_precoder(f_d, stream_counts)),
                )
        evaluated = time.perf_counter()
        trace.sweep_s += evaluated - swept

        # Also the channels and precoders of the next iteration's receivers.
        channels = [compose(eff, antenna_matrix) for eff in effs]
        precoders = split_precoder(f_d, stream_counts)
        objective = current_objective(channels, precoders)
        rate, _ = weighted_sum_rate(channels, precoders, noise, beta)
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
    decomp = decompose_precoder(
        f_d, config.rf_chains, power, config.decomp_iterations, seed=config.seed
    )
    trace.decomp_s = time.perf_counter() - decomposed
    selected = effs[0].mode == "sel"
    return PrecoderState(
        f_d=f_d,
        f_rf=decomp.f_rf,
        f_bb=decomp.f_bb,
        selection=np.argmax(antenna_matrix, axis=1) if selected else None,
        coefficients=None if selected else antenna_matrix,
        beta=beta,
        noise=noise,
        power=power,
        decomp_residual=decomp.residual,
    ), trace


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
    n_antennas = effs[0].n_antennas
    width = effs[0].block_width
    antenna_matrix = selection_matrix(np.zeros(n_antennas, dtype=int), width)
    one_hot = np.eye(width)

    def update(workspace, n, budget):
        terms = workspace.terms(n)
        index, row, _ = select_pattern_and_row(terms, budget)
        workspace.apply(n, one_hot[index], row)

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

    `effs` holds one synthesis-lifted channel per user.  Every antenna starts
    isotropic, and its coefficient vector keeps the constant component
    pinned by `rho`; the remaining coefficients are optimized on the power
    sphere.  With rho = 1 (or a single basis function) patterns stay
    isotropic and only the precoder rows are updated.
    """
    if any(eff.mode != "cof" for eff in effs):
        raise ValueError("run_synthesis expects synthesis-lifted channels")
    n_antennas = effs[0].n_antennas
    width = effs[0].block_width
    if not 0.0 < config.rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {config.rho}")
    coefficients = np.tile(isotropic_coefficients(width, config.rho), (n_antennas, 1))

    def update(workspace, n, budget):
        terms = workspace.terms(n)
        coeffs, row = synthesize_pattern_and_row(
            terms, workspace.antenna_matrix[n], budget, config.rho
        )
        workspace.apply(n, coeffs, row)

    return _run_bcd(
        effs, stream_counts, config, update, coefficients, FOUR_PI, init_f_d, block_monitor
    )
