"""Fixed-antenna comparison precoders.

Two benchmarks against which the reconfigurable-pattern solvers are judged:
the same weighted-MMSE descent with every antenna locked to one pattern, and
block-diagonalization zero forcing with equal stream powers rescaled for
per-antenna feasibility.  Zero-forcing directions depend on the channels
alone, so one call computes them once and scales them for every power
budget that shares the channels, and hands them back with each budget's
factor.
"""

from __future__ import annotations

import numpy as np

from .channel import Scenario, selection_effective_channel
from .decomp import feasibility_scale
from .exceptions import ConfigurationError
from .patterns import CandidateSet, Pattern
from .wmmse import PrecoderState, SolverConfig, Trace, run_selection


def fixed_pattern_wmmse(
    scenario: Scenario,
    pattern: Pattern,
    stream_counts,
    config: SolverConfig,
) -> tuple[PrecoderState, Trace]:
    """Weighted-MMSE precoding with one fixed pattern on every antenna.

    Identical to the selection solver run on a single-candidate set, so the
    selection step is forced and only the precoder rows move.  This is the
    reference form of the baseline, used by acceptance criterion 06; the
    sweep runner, and with it the acceptance fixture, solves the same run
    from each cell's lifted baseline channels, batched across cells.
    """
    single = CandidateSet((pattern,))
    effs = [selection_effective_channel(geom, single) for geom in scenario.geometries]
    return run_selection(effs, stream_counts, config)


class ZeroForcing(list):
    """The precoders of :func:`bd_zero_forcing`, one per power budget, with
    what they share: the `directions` (N, D), and each budget's positive
    factor in `factors`, so that precoder i is factors[i] times the
    directions up to rounding."""

    def __init__(self, precoders, directions: np.ndarray, factors: list[float]):
        super().__init__(precoders)
        self.directions = directions
        self.factors = factors


def bd_zero_forcing(channels, stream_counts, powers) -> ZeroForcing:
    """Block-diagonalization zero-forcing precoders, one per power budget.

    Each user's precoder lives in the null space of every other user's
    channel.  The user's channel is projected off the others' row space,
    H_k - (H_k V) V^H with V the others' right singular vectors, and the
    strongest right singular directions of the projection carry the
    streams.  Only thin SVDs are taken, so no N x N factor is formed.
    These directions are computed once.  `powers` holds the budgets to
    precode for, each a scalar or one per antenna; for each, streams start
    with equal power (the total budget split evenly) and the stacked
    precoder is then scaled down once so every antenna meets its budget.
    The precoders come back with the directions and each budget's factor,
    the product of the two scalars, so that a caller can decompose the
    directions once for every budget (:class:`ZeroForcing`).
    """
    K = len(channels)
    stream_counts = tuple(stream_counts)
    n = channels[0].shape[1]
    d_total = sum(stream_counts)
    if d_total > n:
        raise ConfigurationError(
            f"cannot zero-force {d_total} streams with {n} antennas"
        )

    blocks = []
    for k in range(K):
        others = [channels[i] for i in range(K) if i != k]
        row_space = np.zeros((n, 0))  # (N, rank), conjugates spanning the others' rows
        if others:
            stacked = np.vstack(others)
            _, singulars, vh = np.linalg.svd(stacked, full_matrices=False)
            row_space = vh[: _rank(singulars, stacked.shape)].conj().T
        # A second pass removes what cancellation left of the others' rows.
        projected = _project_off(_project_off(channels[k], row_space), row_space)
        _, singulars, vh = np.linalg.svd(projected, full_matrices=False)
        found = _rank(singulars, projected.shape)
        if found < stream_counts[k]:
            raise ConfigurationError(
                f"user {k}: the projected channel has {found} directions for "
                f"{stream_counts[k]} streams"
            )
        # Projecting the chosen rows once more keeps a weak stream's
        # direction as far from the others' rows as a strong one's.
        blocks.append(_project_off(vh[: stream_counts[k]], row_space).conj().T)
    directions = np.hstack(blocks)

    precoders, factors = [], []
    for power in powers:
        power = np.broadcast_to(np.asarray(power, dtype=float), (n,))
        stream_power = np.sqrt(float(np.sum(power)) / d_total)
        f_d = stream_power * directions
        scale = min(1.0, feasibility_scale(f_d, power))
        precoders.append(f_d * scale)
        factors.append(stream_power * scale)
    return ZeroForcing(precoders, directions, factors)


def _rank(singulars: np.ndarray, shape) -> int:
    """The number of singular values above max(shape) * eps times the
    largest, numpy's `matrix_rank` rule."""
    return int(np.sum(singulars > max(shape) * np.finfo(float).eps * singulars[0]))


def _project_off(rows: np.ndarray, row_space: np.ndarray) -> np.ndarray:
    """`rows` less their projection onto the row space: rows - (rows V) V^H."""
    return rows - (rows @ row_space) @ row_space.conj().T


def interference_leakage(channels, precoders, stream_counts) -> list[float]:
    """Largest relative cross-user leakage ||H_i F_k|| / (||H_i|| ||F_k||)
    of each precoder on the same channels, whose norms are taken once."""
    offsets = np.cumsum([0, *stream_counts])
    norms = [np.linalg.norm(h) for h in channels]
    leakages = []
    for f_d in precoders:
        worst = 0.0
        for k in range(len(channels)):
            block = f_d[:, offsets[k] : offsets[k + 1]]
            block_norm = np.linalg.norm(block)
            if block_norm == 0.0:
                continue
            for i, h in enumerate(channels):
                if i == k:
                    continue
                rel = np.linalg.norm(h @ block) / (norms[i] * block_norm)
                worst = max(worst, float(rel))
        leakages.append(worst)
    return leakages
