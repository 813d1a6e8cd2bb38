"""Weighted-MMSE precoding with per-antenna power and pattern reconfiguration.

Weighted sum-rate maximization is handled through its weighted-MSE
reformulation: with auxiliary receive filters U_k and weight matrices W_k,
the objective sum_k beta_k (tr(W_k E_k) - ln det W_k) is minimized by block
coordinate descent.  The receiver and weight blocks have closed forms,
fed with the objective and the rate by one covariance pass per outer
iteration that is batched over users; the transmit side is swept one
antenna at a time, jointly updating that antenna's precoder row f and its
pattern variable (a candidate selection or a harmonic coefficient vector).
After each sweep, a run may go on from a Nesterov extrapolation of its
digital precoder instead, kept only when it raises the weighted sum rate;
the trials ride the plain iterates' covariance pass and rate call, stacked
on the run axis.  Each batch keeps its composed channels and composes them
again only after a sweep that moved a pattern.

Two solvers are provided: :func:`run_selection` for a finite candidate set
per antenna and :func:`run_synthesis` for freely synthesized patterns with a
pinned constant component.  Both record a per-iteration trace and decompose
the optimized digital precoder into analog and digital stages at the end.
Their loop, :func:`iterate_selection` / :func:`iterate_synthesis`, runs a
batch of solves with the same pattern width and receive counts in lockstep,
whatever their antenna counts: antenna step n is one array operation
over every run that has antenna n, and the work that sums over a run's
antennas runs once per antenna count.  Every per-run array of a batch lives
in one `_Batch`, tagged with its axis (run, run-major row or (antenna, run)
pair); a run that stops leaves with copies of its rows, and the runs that
stay go on in the batch's one `take`, which cuts every tagged array by its
axis.  Every sweep of one batch layout refills the same per-pair buffers,
made on the layout's first sweep together with the per-antenna views that
the steps read.  A synthesis step solves each run's sphere problem alone
on Python floats, between its array operations over the batch, and the
batch keeps every pair's last secular root, where the pair's next sphere
solve starts.  A run's results do not depend on its batch.  The loop
returns each run undecomposed, and :func:`decompose_states` factors the
runs of one chain count and antenna count in one call, so that a sweep can
decompose the runs of all its batches together.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .decomp import decompose_precoders, feasibility_scale, rescale_per_antenna
from .sphere_opt import (
    isotropic_coefficients,
    lift_coefficients,
    minimize_on_sphere,
    reduced_coefficient_problem,
    reduction_factors,
    sphere_terms,
)

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
    max_outer_iterations: int = 5000
    objective_tol: float = 1e-6
    rho: float = 0.7
    seed: int = 0


@dataclass
class Trace:
    """Per-outer-iteration solver record."""

    objective: list[float] = field(default_factory=list)
    sum_rate: list[float] = field(default_factory=list)
    max_power_violation: list[float] = field(default_factory=list)
    # Whether the run went on from the iteration's extrapolated trial.
    extrapolated: list[bool] = field(default_factory=list)
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
        max_power_violation, extrapolated (0 or 1)."""
        for i in range(self.n_iterations):
            yield (
                i + 1,
                self.objective[i],
                self.sum_rate[i],
                self.max_power_violation[i],
                int(self.extrapolated[i]),
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
# block.  Users with unequal stream counts thus share one batched call.  A
# batch of solves puts a run axis in front of the user axis; every function
# here acts on each run alone, with the same operations as for one run.

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
    """Every user's received signal and covariances for one precoder, or
    for each run of a batch with a leading run axis."""

    received: np.ndarray  # (K, M, D) H_k F: all streams at user k
    own: np.ndarray  # (K, M, D) H_k F with the other users' columns zeroed
    interference: np.ndarray  # (K, M, M) noise plus the other users' signals
    total: np.ndarray  # (K, M, M) interference plus the own signal
    masks: np.ndarray  # (K, D) from :func:`stream_masks`

    def __getitem__(self, runs) -> "Covariances":
        """The covariances of the given runs of a batch."""
        return Covariances(
            self.received[runs], self.own[runs], self.interference[runs], self.total[runs],
            self.masks,
        )


def received_covariances(channels, f_d: np.ndarray, masks: np.ndarray, noise) -> Covariances:
    """One stacked product S = H F and the users' covariances.

    `channels` is (K, M, N), or K channels with equal M, and `f_d` is
    (N, D); a batch adds a leading run axis to both.  `noise` is one power,
    one per user, or an array that broadcasts as (..., K, 1, 1).
    """
    return _covariance_tail(_received(_stack_users(channels), f_d), masks, noise)


def _received(channels: np.ndarray, f_d: np.ndarray) -> np.ndarray:
    """The stacked product S = H F, (..., K, M, D)."""
    *runs, n_users, n_rx, n_antennas = channels.shape
    return (channels.reshape(*runs, n_users * n_rx, n_antennas) @ f_d).reshape(
        *runs, n_users, n_rx, -1
    )


def _covariance_tail(received: np.ndarray, masks: np.ndarray, noise) -> Covariances:
    """The users' covariances of a received signal from :func:`_received`."""
    own = received * masks[:, None, :]
    leak = received - own
    noise = np.asarray(noise, dtype=float)
    if noise.ndim < 3:
        noise = noise.reshape(-1, 1, 1)
    interference = noise * np.eye(received.shape[-2]) + leak @ _herm(leak)
    total = interference + own @ _herm(own)
    return Covariances(received, own, interference, total, masks)


def _weighted(terms: np.ndarray, weights: np.ndarray):
    """weights @ terms as a float, or a list of floats, one per run, for a
    leading run axis."""
    if terms.ndim == 1:
        return float(weights @ terms)
    return [float(weights @ t) for t in terms]


def weighted_sum_rate(cov: Covariances, weights=None):
    """Weighted sum of per-user log-det rates in bps/Hz, and the rates.

    Residual interference from the other users plus noise is the effective
    noise covariance.  Users are weighted equally unless `weights` is given.
    For a batch the sum is a list with one float per run.
    """
    n_users = cov.total.shape[-3]
    weights = np.ones(n_users) / n_users if weights is None else np.asarray(weights, dtype=float)
    _, log_dets = np.linalg.slogdet(np.concatenate([cov.total, cov.interference], axis=-3))
    rates = (log_dets[..., :n_users] - log_dets[..., n_users:]) / np.log(2.0)
    return _weighted(rates, weights), rates


def mmse_receivers(cov: Covariances) -> np.ndarray:
    """Linear MMSE receive filters, (K, M, D)."""
    return np.linalg.solve(cov.total, cov.own)


def mse_weights(cov: Covariances, receivers: np.ndarray) -> np.ndarray:
    """Optimal weight matrices (I - U^H H F)^{-1}, symmetrized: (K, D, D)."""
    gram = np.eye(cov.masks.shape[1]) - _herm(receivers) @ cov.own
    try:
        w = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        ranks = np.linalg.matrix_rank(gram)
        user = int(np.argmin(ranks)) % ranks.shape[-1]
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


def wmmse_objective(weights: np.ndarray, mse: np.ndarray, masks: np.ndarray, beta):
    """sum_k beta_k (tr(W_k E_k) - ln det W_k), the trace over user k's own
    streams (`masks` from :func:`stream_masks`); requires positive definite
    W.  For a batch, a list with one float per run."""
    try:
        chol = np.linalg.cholesky(weights)
    except np.linalg.LinAlgError as exc:
        raise ValueError("weight matrix must be positive definite") from exc
    log_dets = 2.0 * np.log(chol.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1)
    own_block = masks[:, :, None] * masks[:, None, :]
    traces = np.einsum("...kij,...kji->...k", own_block * weights, mse).real
    return _weighted(traces - log_dets, np.asarray(beta, dtype=float))


# ---------------------------------------------------------------------------
# Per-antenna block terms
# ---------------------------------------------------------------------------
#
# The block objective of antenna n for precoder row f and pattern vector v is
# ||f||^2 v^T Q_n v + 2 Re(f^H L_n v), with Q_n the (W, W) Hermitian PSD quad
# term and L_n the (D, W) linear term.

class _Pairs:
    """Where the (antenna, run) pairs of a batch sit in its arrays.

    The runs are ordered by antenna count, largest first, so the runs that
    have antenna n are the leading `counts[n]` runs.  Pair arrays are
    antenna-major over the pairs that exist: antenna n of every run that
    has it is the contiguous slice `slices[n]`, run b at its start plus b.
    When every run has every antenna this is the (N, B) order.  Run-major
    arrays hold each run's antennas as consecutive rows, run after run, so
    that the runs of one antenna count form one contiguous (runs, N) block;
    `groups` holds each block's (runs, rows, N).  The antennas that a group
    has and no smaller group has form one regular (antennas, runs) block of
    pairs, its `segments` entry (pairs, antennas, runs).  Nothing is padded.
    """

    def __init__(self, n_antennas: list[int]):
        self.n_antennas = n_antennas
        counts = np.count_nonzero(
            np.arange(n_antennas[0])[:, None] < np.array(n_antennas), axis=1
        )
        self.counts = counts.tolist()
        starts = np.concatenate([[0], np.cumsum(counts)])
        firsts = np.concatenate([[0], np.cumsum(n_antennas)])
        self.firsts = firsts[:-1]  # each run's first row
        # The row of every pair, and the pair of every row.
        self.antenna_major = np.concatenate(
            [firsts[:count] + n for n, count in enumerate(self.counts)]
        )
        self.run_major = np.concatenate([starts[:size] + b for b, size in enumerate(n_antennas)])
        starts = starts.tolist()
        self.slices = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
        self.groups = []
        lo = 0
        for hi in range(1, len(n_antennas) + 1):
            if hi == len(n_antennas) or n_antennas[hi] != n_antennas[lo]:
                self.groups.append((slice(lo, hi), slice(firsts[lo], firsts[hi]), n_antennas[lo]))
                lo = hi
        lows = [size for _, _, size in self.groups[1:]] + [0]
        self.segments = [
            (slice(starts[low], starts[size]), slice(low, size), runs.stop)
            for (runs, _, size), low in zip(self.groups, lows)
        ]

    def rows_of(self, runs: list[int]) -> np.ndarray:
        """The rows of the given runs, run after run."""
        return np.concatenate(
            [np.arange(self.firsts[b], self.firsts[b] + self.n_antennas[b]) for b in runs]
        )

    def maxima(self, values: np.ndarray) -> list[float]:
        """Every run's largest entry of a run-major (rows,) array."""
        return np.maximum.reduceat(values, self.firsts).tolist()

    def per_antenna(self, matrices: list[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """Every group's (runs, rows, N W) stack of matrices as one pair
        array, (pairs, rows, W): each pair's own block of columns, copied
        segment by segment with no temporary, into `out` when given."""
        rows, columns = matrices[0].shape[1:]
        width = columns // self.n_antennas[0]
        if out is None:
            out = np.empty((len(self.run_major), rows, width), complex)
        for g, ((runs, _, size), matrix) in enumerate(zip(self.groups, matrices)):
            blocks = matrix.reshape(len(matrix), rows, size, width).transpose(2, 0, 1, 3)
            for pairs, antennas, count in self.segments[g:]:
                out[pairs].reshape(-1, count, rows, width)[:, runs] = blocks[antennas]
        return out


def _axis(axis: str):
    """A :class:`_Batch` field of one entry per run, row or pair."""
    return field(metadata={"axis": axis})


@dataclass
class _Batch:
    """Every per-run array of a lockstep batch of solves, each field tagged
    with its axis: per run, ordered by antenna count, largest first, with
    `ids` each run's index in the solve's order; per run-major row; or per
    (antenna, run) pair of the :class:`_Pairs` layout.  The fields on
    `SHARED` serve every run.  The loop assigns the weights and the
    covariance pass of the current iterate and writes the rows in place,
    and :meth:`trial` and :meth:`gate` keep each run's momentum, last plain
    rows and gate; a run leaves through :meth:`leave`, and the runs that
    stay go on in :meth:`take`, which cuts every tagged field by its axis.
    """

    SHARED: ClassVar[tuple[str, ...]] = ("layout", "lifted", "masks")

    layout: _Pairs
    lifted: list[np.ndarray]  # per group of one antenna count, (runs, K, M, N W)
    masks: np.ndarray  # (K, D)
    ids: np.ndarray = _axis("run")
    noise: np.ndarray = _axis("run")  # (B, K, 1, 1)
    factors: np.ndarray | None = _axis("run")  # (B, 5) reduction factors, or None
    weights: np.ndarray = _axis("run")  # (B, K, D, D)
    cov: Covariances | None = _axis("run")  # None before the first pass
    momentum: np.ndarray = _axis("run")  # (B,) Nesterov's t, 1 after a restart
    extrapolated: np.ndarray = _axis("run")  # (B,) bool, the run kept its trial
    f_d: np.ndarray = _axis("row")  # (rows, D)
    plain: np.ndarray = _axis("row")  # (rows, D) the last sweep's f_d
    antenna_matrix: np.ndarray = _axis("row")  # (rows, W)
    power: np.ndarray = _axis("row")  # (rows,)
    blocks_conj: np.ndarray = _axis("pair")  # (pairs, K M, W)
    budgets: np.ndarray = _axis("pair")  # (pairs,)
    # (pairs,) each pair's last scaled secular root, NaN before its first
    # solve, or None in a selection batch
    roots: np.ndarray | None = _axis("pair")

    @classmethod
    def of(cls, runs, stream_counts, starts: np.ndarray, factors=None) -> "_Batch":
        """The runs at their start, every antenna on its run's row of
        `starts` (B, W), with identity weights and no covariance pass."""
        ids = sorted(range(len(runs)), key=lambda r: -runs[r].effs[0].n_antennas)
        runs = [runs[r] for r in ids]
        layout = _Pairs([run.effs[0].n_antennas for run in runs])
        lifted = [
            np.stack([_stack_users([eff.matrix for eff in run.effs]) for run in runs[group]])
            for group, _, _ in layout.groups
        ]
        n_users, n_rx = lifted[0].shape[1:3]
        noise = [
            np.broadcast_to(np.reshape(run.config.noise, (-1, 1, 1)), (n_users, 1, 1))
            for run in runs
        ]
        power = np.concatenate(
            [_budgets(run.config, n) for run, n in zip(runs, layout.n_antennas)]
        )
        d_total = sum(stream_counts)
        f_d = np.concatenate([
            _initial_f_d(run, n, d_total, power[first : first + n])
            for run, first, n in zip(runs, layout.firsts.tolist(), layout.n_antennas)
        ])
        return cls(
            layout,
            lifted,
            stream_masks(stream_counts),
            ids=np.array(ids),
            noise=np.stack(noise),
            factors=None if factors is None else factors[ids],
            weights=np.broadcast_to(
                np.eye(d_total, dtype=complex), (len(runs), n_users, d_total, d_total)
            ),
            cov=None,
            momentum=np.ones(len(runs)),
            extrapolated=np.zeros(len(runs), dtype=bool),
            f_d=f_d,
            plain=f_d.copy(),
            antenna_matrix=np.repeat(starts[ids], layout.n_antennas, axis=0),
            power=power,
            blocks_conj=layout.per_antenna(
                [stack.reshape(len(stack), n_users * n_rx, -1) for stack in lifted]
            ).conj(),
            budgets=power[layout.antenna_major],
            roots=None if factors is None else np.full(len(power), math.nan),
        )

    def take(self, kept: list[int]) -> "_Batch":
        """The batch of the runs at the given places, in order: every
        tagged array indexed by its axis's indices, computed once.  This
        batch's sweep buffers and composed channels are dropped first, so
        that they are freed before the new batch's arrays are made."""
        self.__dict__.pop("buffers", None)
        self.__dict__.pop("composed", None)
        layout = _Pairs([self.layout.n_antennas[b] for b in kept])
        rows = self.layout.rows_of(kept)
        pairs = self.layout.run_major[rows[layout.antenna_major]]
        index = {"run": kept, "row": rows, "pair": pairs}
        lifted = []
        for (group, _, _), stack in zip(self.layout.groups, self.lifted):
            members = [b - group.start for b in kept if group.start <= b < group.stop]
            if members:
                lifted.append(stack[members])
        taken = {}
        for part in fields(self):
            if part.name not in self.SHARED:
                value = getattr(self, part.name)
                taken[part.name] = None if value is None else value[index[part.metadata["axis"]]]
        return _Batch(layout, lifted, self.masks, **taken)

    @functools.cached_property
    def buffers(self) -> "_SweepBuffers":
        """The arrays every sweep of this layout writes, made on its first
        sweep and not a field: :meth:`take` does not carry them over."""
        return _SweepBuffers(self)

    @functools.cached_property
    def composed(self) -> list[np.ndarray]:
        """Every run's channels composed with its current pattern matrix,
        from :meth:`channels`, kept until the loop drops them after a sweep
        that moved a pattern; not a field: :meth:`take` drops them."""
        return self.channels(self.antenna_matrix)

    def leave(self, b: int) -> tuple:
        """The run at place b: its id and copies of its rows of f_d, the
        pattern matrix and the budgets, which keep no batch array alive."""
        rows = self.layout.rows_of([b])
        return int(self.ids[b]), self.f_d[rows], self.antenna_matrix[rows], self.power[rows]

    def channels(self, antenna_matrix: np.ndarray) -> list[np.ndarray]:
        """Every run's channels composed with its pattern vectors, given
        run-major (rows, W): one (runs, K, M, N) stack per antenna count."""
        stacks = []
        for (_, rows, n_antennas), lifted in zip(self.layout.groups, self.lifted):
            n_runs, n_users, n_rx, _ = lifted.shape
            stacks.append(np.einsum(
                "bmnw,bnw->bmn",
                lifted.reshape(n_runs, n_users * n_rx, n_antennas, -1),
                antenna_matrix[rows].reshape(n_runs, n_antennas, -1),
            ).reshape(n_runs, n_users, n_rx, -1))
        return stacks

    def covariances(
        self, channels: list[np.ndarray], f_d: np.ndarray, trial: np.ndarray | None = None
    ) -> Covariances:
        """The covariance pass of every run's composed channels, from
        :meth:`channels`, and `f_d`, given run-major (rows, D): one channel
        product per antenna count, then one covariance tail over the runs.
        Given `trial` rows too, the pass of `f_d` and then that of `trial`,
        stacked on the run axis: one product per antenna count and
        precoder, and one tail over both."""
        received = [
            _received(channel, precoder[rows].reshape(len(channel), n_antennas, -1))
            for precoder in ((f_d,) if trial is None else (f_d, trial))
            for (_, rows, n_antennas), channel in zip(self.layout.groups, channels)
        ]
        noise = self.noise if trial is None else np.concatenate([self.noise, self.noise])
        return _covariance_tail(
            received[0] if len(received) == 1 else np.concatenate(received), self.masks, noise
        )

    def trial(self, capped: list[bool]) -> tuple[list[float], np.ndarray | None]:
        """Each run's Nesterov step and the trial rows of a rate-gated
        extrapolation of the sweep's f_d, the plain iterate, with adaptive
        restart (O'Donoghue & Candes 2015).

        A run with t > 1 that is not at its own iteration cap (`capped`)
        takes the step m = (t - 1) / t', t' = (1 + sqrt(1 + 4 t^2)) / 2, and
        its trial rows are its plain rows plus m times their step from the
        last plain rows, each scaled into its power ball; its pattern matrix
        stays as the sweep left it.  The others take m = 0.  Returns the
        steps, and the run-major trial rows of every run, or None when no
        run takes a step.
        """
        steps = [
            0.0 if cap else (t - 1.0) / _nesterov(t)
            for t, cap in zip(self.momentum.tolist(), capped)
        ]
        if not any(steps):
            return steps, None
        plain = self.f_d
        trial = plain + np.repeat(steps, self.layout.n_antennas)[:, None] * (plain - self.plain)
        norms_sq = np.sum(np.abs(trial) ** 2, axis=-1)
        trial *= np.sqrt(self.power / np.maximum(norms_sq, self.power))[:, None]
        return steps, trial

    def gate(
        self, cov: Covariances, rates: list[float], steps: list[float], trial, going_on: list[bool]
    ) -> None:
        """Go on from each run's trial or from its plain iterate.

        `steps` and `trial` are :meth:`trial`'s; `cov` and `rates` hold the
        covariance pass and weighted sum rates of the plain iterates, then,
        given trial rows, those of the trials (:meth:`covariances`).  A run
        that goes on and took a step keeps its trial, and the trial's pass
        as its next receiver input, only if the trial's rate beats its
        plain iterate's; otherwise it keeps the plain iterate and its t
        restarts at 1.  A run with no step, or one that leaves, keeps its
        plain iterate and advances t.  Every step acts on each run alone.
        """
        n_runs = len(steps)
        steps = [step if on else 0.0 for step, on in zip(steps, going_on)]
        won = [False] * n_runs
        if trial is not None:
            won = [step > 0.0 and new > old for step, new, old in zip(steps, rates[n_runs:], rates)]
        np.copyto(self.plain, self.f_d)
        self.extrapolated = np.array(won)
        self.cov = cov[:n_runs]
        if any(won):
            np.copyto(
                self.f_d, trial, where=np.repeat(self.extrapolated, self.layout.n_antennas)[:, None]
            )
            for name in ("received", "own", "interference", "total"):
                part = getattr(cov, name)
                part[:n_runs][self.extrapolated] = part[n_runs:][self.extrapolated]
        self.momentum = np.array([
            _nesterov(t) if kept or step == 0.0 else 1.0
            for t, kept, step in zip(self.momentum.tolist(), won, steps)
        ])


def _nesterov(t: float) -> float:
    """Nesterov's next t, (1 + sqrt(1 + 4 t^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def _budgets(config: SolverConfig, n_antennas: int) -> np.ndarray:
    power = np.broadcast_to(np.asarray(config.power, dtype=float), (n_antennas,)).copy()
    if not np.all((power > 0.0) & (power < np.inf)):
        raise ValueError(
            f"per-antenna power budgets must be positive and finite, got {config.power}"
        )
    return power


class _Views(NamedTuple):
    """Antenna n's views of the sweep buffers and the batch, cut to its
    pairs or to the leading runs that have it.  The leading fields serve
    every step; a selection step also reads `rows` and `budgets`, a
    synthesis step the fields after them, and the views of a step kind
    that does not read a field hold None there."""

    pairs: slice
    received_t: np.ndarray  # R^T, (runs, D, K M)
    received: np.ndarray  # R, (runs, K M, D)
    proj: np.ndarray  # (runs, K M, W)
    offset: np.ndarray  # (runs, D, W)
    rows_conj: np.ndarray  # (runs, D)
    rows: np.ndarray | None = None  # the selection step's row buffer, (runs, D)
    budgets: np.ndarray | None = None  # (runs,)
    factors: np.ndarray | None = None
    roots: np.ndarray | None = None  # (runs,)
    budget_list: list[float] | None = None
    blocks_conj: np.ndarray | None = None  # (runs, K M, W)
    antenna_matrix: np.ndarray | None = None  # (runs, W)


class _SweepBuffers:
    """Every array a sweep of one :class:`_Batch` layout writes, and the
    per-antenna :class:`_Views` of them that its step kind reads, made
    once per layout: each sweep refills the same memory.  `scratch` holds,
    in turn, every antenna count's products of the lifted channels, for
    `proj` and then for the offset, and the conjugate of the quad terms and
    the own-signal part of the offset (`groups` has each count's two
    product views, `hermitian` and `own_signal` the other two).  No two of
    these are live at once, and separate buffers for them raised the peak
    resident size of every benchmark run by 0.5-0.7 MB."""

    def __init__(self, batch: _Batch):
        layout = batch.layout
        n_pairs, n_rx_total, width = batch.blocks_conj.shape
        n_runs, n_streams = len(batch.ids), batch.f_d.shape[1]
        synthesis = batch.roots is not None
        self.proj = np.empty((n_pairs, n_rx_total, width), complex)
        self.offset = np.empty((n_pairs, n_streams, width), complex)
        self.quad = np.empty((n_pairs, width, width), complex)
        self.received_conj = np.empty((n_runs, n_rx_total, n_streams), complex)
        self.rows_conj = np.empty((n_pairs, n_streams), complex)
        self.antenna_matrix = np.empty((n_pairs, width))
        # a_n^T Q_n of a synthesis sweep; a selection sweep gathers its rows
        self.pattern_quad = np.empty((n_pairs, 1, width), complex) if synthesis else None
        self.rows = np.empty((n_runs, n_streams), complex)
        self.pairs = np.arange(n_pairs)
        scratch = np.empty(n_pairs * width * max(width, n_rx_total, n_streams), complex)
        self.hermitian = scratch[: self.quad.size].reshape(self.quad.shape)
        self.own_signal = scratch[: self.offset.size].reshape(self.offset.shape)
        self.groups = []
        at = 0
        for lifted in batch.lifted:
            n_group, columns = len(lifted), lifted.shape[-1]
            proj = scratch[at : at + lifted.size].reshape(lifted.shape)
            offset = scratch[at : at + n_group * n_streams * columns]
            self.groups.append((proj, offset.reshape(n_group, n_streams, columns)))
            at += max(lifted.size, offset.size)
        budgets = batch.budgets.tolist() if synthesis else None
        self.views = []
        for _, antennas, count in reversed(layout.segments):
            received = self.received_conj[:count]
            shared = (received.swapaxes(1, 2), received)
            per_run = batch.factors[:count] if synthesis else self.rows[:count]
            for pairs in layout.slices[antennas]:
                common = (pairs, *shared, self.proj[pairs], self.offset[pairs], self.rows_conj[pairs])
                if synthesis:
                    self.views.append(_Views(
                        *common, None, None, per_run, batch.roots[pairs], budgets[pairs],
                        batch.blocks_conj[pairs], self.antenna_matrix[pairs],
                    ))
                else:
                    self.views.append(_Views(*common, per_run, batch.budgets[pairs]))


class _SweepWorkspace:
    """What one antenna sweep of a batch shares, built once per sweep from
    the :class:`_Batch` (its current precoders, patterns, covariance pass
    and weights, and its per-pair blocks and budgets) with the new
    receivers, and batched over the (antenna, run) pairs of :class:`_Pairs`.
    The workspace keeps no run's state past its sweep: the loop copies the
    rows and patterns back into the batch when the sweep ends.  Its arrays
    are the batch's :class:`_SweepBuffers`, which outlive the sweep: every
    sweep of one layout writes the same memory, and reads the per-antenna
    views made with it, so that a sweep allocates no per-pair array but
    its lazily built step inputs.

    Arrays are antenna-major over the pairs, so that an antenna step reads
    one contiguous slice, `slices[n]`, for every run that has the antenna;
    those are the leading runs of the run axis, and `views[n]` holds the
    views an antenna step uses, cut to them.  `antenna_matrix`
    (pairs, W) holds every pair's pattern vector and every commit updates
    it; the rows are kept in `rows_conj`, and :meth:`precoders` and
    :meth:`patterns` hand both back run-major, as the loop keeps them.
    `moved` turns true at the first commit that changes a pattern vector,
    so that the loop composes the batch's channels again only then.

    The users' weighted receive projections beta_k U_k W_k U_k^H applied to
    the lifted channels give `proj`; antenna n's quad term Q_n and the
    alignment part of its linear term depend only on these.  The workspace
    holds the raw product M_n = B_n^H P_n of the antenna's block and `proj`
    as `product`; Q_n is its Hermitian part, and only a synthesis sweep
    forms it, as `quad`, in place.  A selection sweep reads the real
    diagonal of M_n, which equals Q_n's bit for bit, and the own-signal
    row a_n^T Q_n = Q_n[s, :] of candidate s as 0.5 (M_n[s, :] +
    conj M_n[:, s]), so that it never forms the (pairs, W, W) Hermitian
    part nor multiplies the pattern vectors into it.  The linear
    term is R^T P_n - O_n: R is the received signal of the composed channel
    times the digital precoder, kept conjugated, and the offset
    O_n = align_n + conj(f_n) (a_n^T Q_n) takes antenna n's own signal out
    of the coupling.  In a Gauss-Seidel sweep f_n and a_n do not change
    before antenna n's own step, so every offset is built here, once, in
    the alignment's buffer; each antenna reads its linear term once, before
    it commits.  R starts from the covariance pass's copy and is corrected
    at every commit (rank two, or one column per one-hot vector for a
    selection), so it stays exact under any order of commits.  The
    correction reads the old row from a running conjugate copy of the rows,
    `rows_conj`, which every commit updates; a selection also keeps each
    antenna's current candidate as a Python list and its block column as an
    array, built with the offsets.  `proj` and the alignment are formed
    from the lifted channels of each antenna count, one product per count.

    The step closed forms read what else the sweep cannot change: the real
    diagonals of the quad terms and, with more than one candidate, their
    guarded inverses (:func:`candidate_quads`) for selection, and
    Re(a_n^T Q_n a_n), Re Q_n[1:, 0] and the :func:`sphere_terms` for
    synthesis.  Each is built on first use: `step_quads` only by selection
    steps, `row_quads` and `pinned` only by synthesis steps, and
    `sphere_terms` decomposes every pair in one batched call only in
    sweeps that solve on the sphere.  `rows` is a buffer the selection step
    fills with every run's new row before one commit.
    """

    def __init__(self, batch: _Batch, receivers: np.ndarray, beta):
        layout, received, weights = batch.layout, batch.cov.received, batch.weights
        n_runs, n_users, n_rx, _ = received.shape
        buffers = batch.buffers
        self.slices, self._run_major, self.views = layout.slices, layout.run_major, buffers.views
        self.antenna_matrix = np.take(
            batch.antenna_matrix, layout.antenna_major, axis=0, out=buffers.antenna_matrix
        )
        self.blocks_conj = batch.blocks_conj
        beta = np.asarray(beta, dtype=float)
        receivers_h = _herm(receivers)
        proj = beta[:, None, None] * (receivers @ weights @ receivers_h)  # beta U W U^H
        # W U^H of every user side by side, (B, D, K M): user k's rows are
        # zero outside its own streams.
        align = (weights @ receivers_h).transpose(0, 2, 1, 3).reshape(
            n_runs, -1, n_users * n_rx
        )
        stream_beta = beta @ batch.masks
        groups = [
            (group, lifted, products)
            for (group, _, _), lifted, products in zip(layout.groups, batch.lifted, buffers.groups)
        ]
        self.proj = layout.per_antenna([
            np.matmul(proj[group], lifted, out=out).reshape(len(lifted), n_users * n_rx, -1)
            for group, lifted, (out, _) in groups
        ], out=buffers.proj)
        # The alignment terms, to which the offset's own-signal part is added.
        offsets = []
        for group, lifted, (_, out) in groups:
            np.matmul(align[group], lifted.reshape(len(lifted), n_users * n_rx, -1), out=out)
            offsets.append(np.multiply(stream_beta[:, None], out, out=out))
        self.offset = layout.per_antenna(offsets, out=buffers.offset)
        self.product = np.matmul(self.blocks_conj.swapaxes(-1, -2), self.proj, out=buffers.quad)
        self._hermitian = buffers.hermitian
        self.received_conj = np.conjugate(
            received.reshape(n_runs, n_users * n_rx, -1), out=buffers.received_conj
        )
        self.rows_conj = np.take(batch.f_d, layout.antenna_major, axis=0, out=buffers.rows_conj)
        np.conjugate(self.rows_conj, out=self.rows_conj)
        self.moved = False
        if batch.roots is None:
            # a_n^T Q_n of the one-hot a_n of candidate s is Q_n[s, :],
            # 0.5 (M[s, :] + conj M[:, s]) for the raw product M.
            every, selected = buffers.pairs, self.antenna_matrix.argmax(axis=1)
            pattern_quad = np.add(
                self.product[every, selected], np.conjugate(self.product[every, :, selected])
            )
            pattern_quad *= 0.5
            columns = self.blocks_conj[every, :, selected]
            selected = selected.tolist()
            # Every antenna's current candidate in each of its runs, indexed
            # [n][b], and every pair's block column, (pairs, K M, 1).
            self._selection = [selected[pairs] for pairs in self.slices], columns[..., None]
        else:
            # a_n^T Q_n, (pairs, W)
            self._pattern_quad = pattern_quad = np.matmul(
                self.antenna_matrix[:, None, :], self.quad, out=buffers.pattern_quad
            )[:, 0, :]
        self.offset += np.multiply(
            self.rows_conj[..., None], pattern_quad[..., None, :], out=buffers.own_signal
        )

    @functools.cached_property
    def quad(self) -> np.ndarray:
        """Every pair's quad term Q_n, (pairs, W, W): the Hermitian part of
        `product`, formed in place of it on first read.  Its real diagonal
        is the product's bit for bit, so `step_quads` reads either."""
        quad = self.product
        quad += np.conjugate(quad, out=self._hermitian).swapaxes(-1, -2)
        quad *= 0.5
        return quad

    @functools.cached_property
    def row_quads(self) -> list[float]:
        """Re(a_n^T Q_n a_n) of every pair as Python floats."""
        return np.einsum("...w,...w->...", self._pattern_quad.real, self.antenna_matrix).tolist()

    @functools.cached_property
    def pinned(self) -> np.ndarray:
        """Re Q_n[1:, 0] of every pair, (pairs, W - 1)."""
        return self.quad[:, 1:, 0].real

    @functools.cached_property
    def sphere_terms(self) -> tuple:
        """Every pair's :func:`sphere_terms` from one batched call on the
        quad terms and the current pattern vectors.  Built at the first
        step that solves on the sphere, when every antenna still to step
        holds the vector it had at the start of the sweep and keeps until
        its own step."""
        return sphere_terms(self.quad, self.antenna_matrix)

    @functools.cached_property
    def step_quads(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Every pair's :func:`candidate_quads` of the raw product, (pairs,
        W) each.  With one candidate, the diagonal and None:
        :func:`select_pattern_and_row` does not read the inverse then."""
        if self.product.shape[-1] == 1:
            return self.product[:, :, 0].real, None
        return candidate_quads(self.product)

    def linear(self, n: int) -> np.ndarray:
        """Antenna n's (runs, D, W) linear terms: one cross-term product and
        the offset."""
        views = self.views[n]
        return views.received_t @ views.proj - views.offset

    def apply(self, n: int, vectors: np.ndarray, rows: np.ndarray) -> None:
        """Commit antenna n's new pattern vector and precoder row in every
        run that has it, (runs, W) and (runs, D).  Antenna n's own pattern
        view, which a step that keeps its patterns hands back, moves nothing
        and is not written."""
        views = self.views[n]
        received_conj = views.received
        received_conj += views.blocks_conj @ (
            vectors[:, :, None] * rows[:, None, :]
            - views.antenna_matrix[:, :, None] * views.rows_conj[:, None, :]
        )
        if vectors is not views.antenna_matrix:
            views.antenna_matrix[...] = vectors
            self.moved = True
        views.rows_conj[...] = rows

    def select(self, n: int, indices: list[int], rows: np.ndarray) -> None:
        """Commit candidate indices[b] and precoder row rows[b] of a one-hot
        antenna n in every run b that has it: the received signal moves by
        one column of the antenna's block per vector, col (row - old_row)
        in a run that keeps its candidate and col_new row - col_old old_row
        in one that changes it.  The runs that keep their candidates, in a
        step by far the most common, commit in one operation; the others
        commit run by run."""
        selection, columns = self._selection
        views = self.views[n]
        pairs, received_conj, old_rows = views.pairs, views.received, views.rows_conj
        selection, columns = selection[n], columns[pairs]
        if indices == selection:
            received_conj += columns * (rows - old_rows)[:, None]
        else:
            changed = [b for b, (new, old) in enumerate(zip(indices, selection)) if new != old]
            if len(changed) < len(indices):
                kept = [b for b, (new, old) in enumerate(zip(indices, selection)) if new == old]
                received_conj[kept] += columns[kept] * (rows[kept] - old_rows[kept])[:, None]
            for b in changed:
                new, old, blocks = indices[b], selection[b], self.blocks_conj[pairs.start + b]
                received_conj[b] += (
                    blocks[:, new, None] * rows[b] - blocks[:, old, None] * old_rows[b]
                )
                columns[b] = blocks[:, new, None]
                self.antenna_matrix[pairs.start + b, old] = 0.0
                self.antenna_matrix[pairs.start + b, new] = 1.0
                selection[b] = new
            self.moved = True
        old_rows[...] = rows

    def precoders(self, out: np.ndarray | None = None) -> np.ndarray:
        """Every run's digital precoder with the rows committed so far,
        run-major (rows, D), written into `out` when given."""
        rows = np.take(self.rows_conj, self._run_major, axis=0, out=out)
        return np.conjugate(rows, out=rows)

    def patterns(self, out: np.ndarray | None = None) -> np.ndarray:
        """Every run's pattern vectors, run-major (rows, W), written into
        `out` when given."""
        return np.take(self.antenna_matrix, self._run_major, axis=0, out=out)


# ---------------------------------------------------------------------------
# Closed-form row update and pattern updates
# ---------------------------------------------------------------------------

# The row update minimizes a ||f||^2 + 2 Re(f^H d) over the power ball
# ||f||^2 <= P for the row-step coefficient a and direction d: the optimum is
# -step d with step min(1/a, sqrt(P)/||d||), the boundary step when a is at
# most _TINY_QUAD, and a zero row when d = 0.  `_negated_steps` takes it on
# Python floats for the synthesis step and a one-candidate selection; a
# selection with several candidates scores them all in one array pass.
# Every step writes its rows with `_rows`.

def _negated_steps(norms_sq, quads, budgets) -> list[float]:
    """Every run's negated row step from its ||d||^2, a and P, Python
    floats each.  An a at most `_TINY_QUAD` (or NaN) takes the boundary
    step, and a ||d||^2 that is not positive divides by 1.  One
    comprehension with comparisons, not `min` and `append`: it runs once
    per antenna step, and a batch of 21 runs pays every call 21 times."""
    return [
        -(boundary if quad <= _TINY_QUAD or not (inverse := 1.0 / quad) < boundary else inverse)
        for norm_sq, quad, budget in zip(norms_sq, quads, budgets)
        for boundary in (math.sqrt(budget / (norm_sq if norm_sq > 0.0 else 1.0)),)
    ]


def _rows(negated_steps, directions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every run's negated step times its direction, (B, D).  Complex steps
    make each product the one of a Python float times a complex array: a
    real array takes another loop, which can differ in the sign of an
    underflowed zero."""
    return np.multiply(np.asarray(negated_steps, dtype=complex)[:, None], directions, out=out)


def candidate_quads(quad_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real diagonal of one (W, W) quad term or of a stack, and its guarded
    inverse.

    Entry s is candidate s's row-step coefficient a = Re Q[s, s]; the
    inverse is 1/a, or inf where a is at most `_TINY_QUAD`, so that the
    step min(inverse, boundary) is the closed-form row step.
    """
    quads = quad_terms.diagonal(axis1=-2, axis2=-1).real
    inv_quads = np.where(quads > _TINY_QUAD, 1.0 / np.maximum(quads, _TINY_QUAD), np.inf)
    return quads, inv_quads


def select_pattern_and_row(
    linear: np.ndarray, quads, inv_quads, budgets, rows: np.ndarray | None = None
):
    """Enumerate candidate patterns and pick the jointly optimal pair, for
    one antenna in every run of a batch.

    `linear` holds each run's (D, W) linear term, (B, D, W), and `quads`
    and `inv_quads` every run's diagonal of the quad term and its guarded
    inverse from :func:`candidate_quads`, (B, W); `budgets` holds the
    runs' positive power budgets, (B,).  Run b's row is written into
    `rows[b]`, a (B, D) buffer made when none is given.  Returns (candidate
    indices, rows), the indices as a list.  Each candidate gets the
    closed-form row: a zero direction gives a zero row and value 0, a
    vanishing quadratic coefficient the boundary step.  Ties go to the
    lowest index.

    One array pass over (B, D, W) scores every candidate of every run: the
    squared norms, boundaries, steps and values, then one `argmin` along
    the candidate axis, and every run's row, its negated step times its
    chosen candidate's direction, is written in one operation.  With a
    single candidate (W = 1) there is nothing to choose or score: the rows
    take the closed-form steps of :func:`_negated_steps` from `quads`, the
    rule of the synthesis step, and `inv_quads` is not read.  A value is
    NaN only for non-finite input or when a direction so small that its
    boundary step overflows meets a quad at most `_TINY_QUAD`; `argmin`
    then takes the first NaN.
    """
    if rows is None:
        rows = np.empty(linear.shape[:2], dtype=complex)
    norms_sq = np.abs(linear)
    np.square(norms_sq, out=norms_sq)
    norms_sq = np.add.reduce(norms_sq, axis=1)
    budgets = np.asarray(budgets, dtype=float)
    if linear.shape[2] == 1:
        steps = _negated_steps(norms_sq.ravel().tolist(), np.ravel(quads).tolist(), budgets.tolist())
        return [0] * len(rows), _rows(steps, linear[:, :, 0], rows)
    # A zero direction divides by 1 instead: its value is 0 whatever the step.
    steps = np.divide(budgets[:, None], np.where(norms_sq > 0.0, norms_sq, 1.0))
    np.sqrt(steps, out=steps)
    np.minimum(inv_quads, steps, out=steps)
    values = norms_sq * (quads * (steps * steps) - 2.0 * steps)
    indices = values.argmin(axis=1)
    runs = np.arange(len(indices))
    _rows(np.negative(steps[runs, indices]), linear[runs, :, indices], rows)
    return indices.tolist(), rows


def synthesize_pattern_and_row(
    linear: np.ndarray,
    row_quads,
    pinned: np.ndarray,
    terms,
    coefficients: np.ndarray,
    budgets,
    factors: np.ndarray,
    roots: np.ndarray,
):
    """One row update followed by one pattern-coefficient update, for one
    antenna in every run of a batch.

    Per run b: `linear[b]` is the antenna's (D, W) linear term,
    `row_quads[b]` the row step's coefficient Re(c^T Q c) at the current
    coefficients c = `coefficients[b]`, `pinned[b]` Re Q[1:, 0] of its
    quad term Q, `budgets[b]` its power budget (these two floats) and
    `factors[b]` the :func:`reduction_factors` of its rho.  The row update
    is closed form for the current coefficients; the coefficient update
    keeps the pinned constant component and solves the reduced problem on
    the unit sphere exactly, starting from the current coefficients and
    never ending above them, so the block objective cannot increase.  A
    run whose row is zero, or whose rho is 1, keeps its coefficients, as
    does every run when W = 1.  `terms()` returns every run's
    :func:`sphere_terms` of Q and c; it is called only when some run
    solves for its coefficients.  `roots[b]` is run b's scaled secular
    root from its last solve, NaN before the first: a solving run's Newton
    iteration starts there when it lies inside the new bracket, and its
    new root is written back in place.  Returns (coefficients, rows),
    (B, W) and (B, D); the coefficients are the given array itself when no
    run solves.

    The row, the reduction, the rotation into each run's eigenbasis, the
    hand-back of kept starts, the rotation back and the lift are array
    operations over the batch.  The step lengths are
    :func:`_negated_steps` on Python floats, and each solving run's sphere
    problem is one :func:`minimize_on_sphere` call on Python floats: its
    set-up, Newton iteration, point, value and kept-start test.  Each
    array operation is the one of a single run, stacked, so a run gets the
    same bits in any batch.
    """
    directions = linear @ coefficients[:, :, None]
    norms_sq = (directions.conj().swapaxes(1, 2) @ directions).real.ravel().tolist()
    rows = _rows(_negated_steps(norms_sq, row_quads, budgets), directions[:, :, 0])
    # A zero squared norm gives a zero row, even where the direction underflowed.
    if 0.0 in norms_sq:
        rows[[norm_sq == 0.0 for norm_sq in norms_sq]] = 0.0
    if coefficients.shape[1] == 1:
        return coefficients, rows
    scales, reduced = reduced_coefficient_problem(factors, pinned, linear, rows)
    solving = [b for b, scale in enumerate(scales.tolist()) if scale != 0.0]
    if not solving:  # zero rows or rho = 1: every coefficient vector scores the same
        return coefficients, rows
    eigenvalues, eigenvectors, starts, coordinates = terms()
    every = len(solving) == len(scales)
    picked = slice(None) if every else solving  # a slice reads and writes faster
    if not every:
        eigenvalues, eigenvectors, starts, coordinates, scales, reduced, factors = (
            part[solving]
            for part in (eigenvalues, eigenvectors, starts, coordinates, scales, reduced, factors)
        )
    coordinates = coordinates.tolist()
    results = [
        minimize_on_sphere(*problem)
        for problem in zip(
            (scales[:, None] * eigenvalues).tolist(),
            (eigenvectors.swapaxes(1, 2) @ reduced[:, :, None])[:, :, 0].tolist(),
            coordinates,
            np.sqrt((reduced[:, None, :] @ reduced[:, :, None]).ravel()).tolist(),
            roots[picked].tolist(),
        )
    ]
    roots[picked] = [result.root for result in results]
    points = np.array([result.point or start for result, start in zip(results, coordinates)])
    points = (eigenvectors @ points[:, :, None])[:, :, 0]
    # Hand back a kept start itself, not its round trip through the eigenbasis.
    kept = [result.point is None for result in results]
    if any(kept):
        points[kept] = starts[kept]
    lifted = lift_coefficients(points, factors)
    if every:
        return lifted, rows
    vectors = coefficients.copy()
    vectors[solving] = lifted
    return vectors, rows


# ---------------------------------------------------------------------------
# Shared solver loop
# ---------------------------------------------------------------------------

@dataclass
class Iterate:
    """A run as its loop left it: the digital precoder, the pattern matrix
    and the per-antenna budgets, not yet decomposed; its solver config and
    its trace.  A zero-forcing run also holds its drop's BD-ZF
    `directions`, of which its precoder is `factor` times up to rounding."""

    f_d: np.ndarray
    antenna_matrix: np.ndarray
    power: np.ndarray
    config: SolverConfig
    trace: Trace
    directions: np.ndarray | None = None
    factor: float = 1.0


def decompose_states(iterates: list[Iterate]) -> list[tuple[PrecoderState, Trace]]:
    """The state of each run's iterate: its digital precoder (N_b, D)
    factored into analog and digital stages with its config's chain count
    and seed, all runs in one batched call.

    A run's decomposition target is its precoder, or its `directions` when
    it has them; the runs that share one directions array and a seed share
    one target in the stack.  Each run gets its target's analog stage and
    its digital stage times the run's `factor`, rescaled once for the
    run's own budgets, so that a zero-forcing run of a drop gets the bits
    it gets alone whatever the budgets of the others.  The runs must share
    a chain count and an antenna count; a mixed list raises ValueError.
    Returns one (state, trace) per run, the trace's `decomp_s` set to an
    equal share of the call's seconds per target, split evenly among the
    runs that read the target.
    """
    n_rf, n_antennas = iterates[0].config.rf_chains, len(iterates[0].f_d)
    if any((it.config.rf_chains, len(it.f_d)) != (n_rf, n_antennas) for it in iterates):
        raise ValueError("decompose_states takes runs of one chain count and antenna count")
    started = time.perf_counter()
    targets: dict = {}  # (id of a target, seed) -> target
    keys = []
    for it in iterates:
        target = it.f_d if it.directions is None else it.directions
        keys.append((id(target), it.config.seed))
        targets.setdefault(keys[-1], target)
    splits = decompose_precoders(
        np.stack(list(targets.values())), n_rf, [None] * len(targets), [seed for _, seed in targets]
    )
    parts = dict(zip(targets, splits))
    states = []
    for iterate, key in zip(iterates, keys):
        part = parts[key]
        f_bb, _ = rescale_per_antenna(part.f_rf, part.f_bb * iterate.factor, iterate.power)
        state = PrecoderState(
            iterate.f_d, part.f_rf, f_bb, iterate.antenna_matrix, iterate.power, part.residual
        )
        states.append((state, iterate.trace))
    share = (time.perf_counter() - started) / len(targets)
    readers = Counter(keys)
    for iterate, key in zip(iterates, keys):
        iterate.trace.decomp_s = share / readers[key]
    return states


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


@dataclass(frozen=True)
class Run:
    """One solve of a batch: one lifted channel per user, the solver
    config, and a digital precoder that replaces the random start."""

    effs: list
    config: SolverConfig
    init_f_d: np.ndarray | None = None

    @property
    def shapes(self) -> tuple:
        """What the runs of one batch share: each user's pattern width and
        receive count.  Their antenna counts may differ."""
        return tuple((eff.block_width, eff.n_rx) for eff in self.effs)


def _initial_f_d(run: Run, n_antennas: int, d_total: int, power: np.ndarray) -> np.ndarray:
    config = run.config
    if config.rf_chains < 1 or config.rf_chains > n_antennas:
        raise ValueError(
            f"rf_chains must lie in [1, {n_antennas}], got {config.rf_chains}"
        )
    if run.init_f_d is None:
        rng = np.random.default_rng(config.seed)
        return _initial_precoders(rng, n_antennas, config.rf_chains, d_total, power)
    f_d = np.array(run.init_f_d, dtype=complex)
    if f_d.shape != (n_antennas, d_total):
        raise ValueError(f"init_f_d must have shape {(n_antennas, d_total)}, got {f_d.shape}")
    return f_d


def _run_bcd(
    runs: list[Run],
    stream_counts,
    step,
    starts: np.ndarray,
    factors=None,
) -> list[Iterate]:
    """Common outer loop of a batch of runs with the same pattern width and
    receive counts, in lockstep: auxiliaries, antenna sweep, trace.

    `starts` (B, W) holds the pattern vector every antenna of each run
    starts from, and `factors` each run's :func:`reduction_factors` in a
    synthesis solve.  Every per-run array lives in one :class:`_Batch`,
    whose runs are ordered by antenna count, largest first; the results
    are handed back in the given order.  `step(workspace, n)` updates
    antenna n of every run that has it through the workspace.  Every
    batched operation acts on each run alone, so a run's iterates do not
    depend on which runs share its batch.  After each sweep the trace
    records the plain iterate, the stop test judges it, and a run that
    goes on may continue from an extrapolated trial instead
    (:meth:`_Batch.trial`, formed before the post-sweep pass for every run
    below its own cap, and :meth:`_Batch.gate`, which judges it after one
    pass and one rate call of the plain iterates and the trials).  That
    pass reads the batch's kept composed channels, which the loop drops
    only after a sweep that moved a pattern.  A run leaves the batch in
    the iteration where its own stop test fires or it reaches its own
    iteration cap: :meth:`_Batch.leave` keeps its plain precoder, pattern
    matrix and budgets, and :meth:`_Batch.take` cuts the others' arrays.
    Each iteration's receiver and objective seconds, the composition, the
    trials and the gate among the latter, are split evenly among the runs
    active in it, and
    its sweep seconds in proportion to their antenna counts.  Returns one
    undecomposed :class:`Iterate` per run.
    """
    shapes = {run.shapes for run in runs}
    if len(shapes) > 1:
        raise ValueError(
            "the runs of a batch need the same array shapes apart from the antenna count, "
            f"got {sorted(shapes)}"
        )
    batch = _Batch.of(runs, stream_counts, starts, factors)
    n_users = len(runs[0].effs)
    beta = np.ones(n_users) / n_users
    traces = [Trace() for _ in runs]
    left: list = []  # what _Batch.leave gives of each run that left

    started = time.perf_counter()
    batch.cov = batch.covariances(batch.composed, batch.f_d)
    iteration = 0
    while True:
        iteration += 1
        cov = batch.cov
        receivers = mmse_receivers(cov)
        batch.weights = weights = mse_weights(cov, receivers)
        swept = time.perf_counter()

        workspace = _SweepWorkspace(batch, receivers, beta)
        layout = batch.layout
        for n in range(layout.n_antennas[0]):
            step(workspace, n)
        workspace.precoders(out=batch.f_d)
        if workspace.moved:
            workspace.patterns(out=batch.antenna_matrix)
            batch.__dict__.pop("composed", None)  # composed again when next read
        del workspace  # so the next sweep does not build its own beside it
        evaluated = time.perf_counter()

        # One pass of the plain iterates and the trials, whose plain half
        # is also the next receivers' input unless the run keeps its trial.
        ids = batch.ids.tolist()
        n_active = len(ids)
        steps, trial = batch.trial(
            [iteration >= runs[r].config.max_outer_iterations for r in ids]
        )
        cov = batch.covariances(batch.composed, batch.f_d, trial)
        rates, _ = weighted_sum_rate(cov, beta)
        objectives = wmmse_objective(
            weights, mse_matrix(cov[:n_active], receivers), batch.masks, beta
        )
        violations = layout.maxima(np.sum(np.abs(batch.f_d) ** 2, axis=-1) / batch.power - 1.0)
        going_on = []
        for b, r in enumerate(ids):
            trace, config = traces[r], runs[r].config
            if trace.objective:
                previous = trace.objective[-1]
                if (previous - objectives[b]) / max(1.0, abs(previous)) < config.objective_tol:
                    trace.converged = True
            going_on.append(not trace.converged and iteration < config.max_outer_iterations)
        batch.gate(cov, rates, steps, trial, going_on)
        finished = time.perf_counter()

        shared = ((swept - started) + (finished - evaluated)) / n_active
        per_step = (evaluated - swept) / sum(layout.n_antennas)
        kept = []
        for b, r in enumerate(ids):
            trace = traces[r]
            trace.objective.append(objectives[b])
            trace.sum_rate.append(rates[b])
            trace.max_power_violation.append(violations[b])
            trace.extrapolated.append(bool(batch.extrapolated[b]))
            sweep = per_step * layout.n_antennas[b]
            trace.receivers_s += (swept - started) / n_active
            trace.sweep_s += sweep
            trace.objective_s += (finished - evaluated) / n_active
            trace.iter_seconds.append(shared + sweep)
            if going_on[b]:
                kept.append(b)
            else:
                left.append(batch.leave(b))
        if not kept:
            break
        if len(kept) < n_active:
            batch = batch.take(kept)
        started = time.perf_counter()

    results: list = [None] * len(runs)
    for r, *rows in left:
        results[r] = Iterate(*rows, runs[r].config, traces[r])
    return results


def _select_step(workspace: _SweepWorkspace, n: int) -> None:
    views = workspace.views[n]
    quads, inv_quads = workspace.step_quads
    indices, rows = select_pattern_and_row(
        workspace.linear(n), quads[views.pairs],
        None if inv_quads is None else inv_quads[views.pairs], views.budgets, views.rows,
    )
    workspace.select(n, indices, rows)


def _synthesize_step(workspace: _SweepWorkspace, n: int) -> None:
    views = workspace.views[n]
    pairs = views.pairs
    vectors, rows = synthesize_pattern_and_row(
        workspace.linear(n),
        workspace.row_quads[pairs],
        workspace.pinned[pairs],
        lambda: [part[pairs] for part in workspace.sphere_terms],
        views.antenna_matrix,
        views.budget_list,
        views.factors,
        views.roots,
    )
    workspace.apply(n, vectors, rows)


def iterate_selection(runs: list[Run], stream_counts) -> list[Iterate]:
    """Precoding over a finite per-antenna pattern candidate set for a batch
    of runs with the same pattern width and receive counts, iterated in
    lockstep; their antenna counts may differ.

    Each run's `effs` holds one selection-lifted channel per user.  Antennas
    start on candidate 0; a run's `init_f_d` overrides its random digital
    initialization (used for paired comparisons against a fixed-pattern
    run).  Returns one undecomposed :class:`Iterate` per run.
    """
    if any(eff.mode != "sel" for run in runs for eff in run.effs):
        raise ValueError("run_selection expects selection-lifted channels")
    starts = np.eye(runs[0].effs[0].block_width)[np.zeros(len(runs), dtype=int)]
    return _run_bcd(runs, stream_counts, _select_step, starts)


def iterate_synthesis(runs: list[Run], stream_counts) -> list[Iterate]:
    """Precoding with per-antenna harmonic pattern synthesis for a batch of
    runs with the same pattern width and receive counts, iterated in
    lockstep; see :func:`run_synthesis`.  Returns one undecomposed
    :class:`Iterate` per run.
    """
    if any(eff.mode != "cof" for run in runs for eff in run.effs):
        raise ValueError("run_synthesis expects synthesis-lifted channels")
    factors = np.stack([reduction_factors(run.config.rho) for run in runs])
    width = runs[0].effs[0].block_width
    starts = np.stack([isotropic_coefficients(width, run.config.rho) for run in runs])
    return _run_bcd(runs, stream_counts, _synthesize_step, starts, factors)


def run_selection(
    effs,
    stream_counts,
    config: SolverConfig,
    init_f_d: np.ndarray | None = None,
) -> tuple[PrecoderState, Trace]:
    """Precoding over a finite per-antenna pattern candidate set.

    `effs` holds one selection-lifted channel per user.  Antennas start on
    candidate 0; `init_f_d` overrides the random digital initialization
    (used for paired comparisons against a fixed-pattern run).  This is
    :func:`iterate_selection` on a batch of one, then :func:`decompose_states`.
    """
    run = Run(effs, config, init_f_d)
    return decompose_states(iterate_selection([run], stream_counts))[0]


def run_synthesis(
    effs,
    stream_counts,
    config: SolverConfig,
    init_f_d: np.ndarray | None = None,
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
    rows are updated.  This is :func:`iterate_synthesis` on a batch of one,
    then :func:`decompose_states`.
    """
    run = Run(effs, config, init_f_d)
    return decompose_states(iterate_synthesis([run], stream_counts))[0]
