"""Fixed-antenna comparison precoders.

Two benchmarks against which the reconfigurable-pattern solvers are judged:
the same weighted-MMSE descent with every antenna locked to one pattern, and
block-diagonalization zero forcing with equal stream powers rescaled for
per-antenna feasibility.
"""

from __future__ import annotations

import numpy as np

from .channel import Scenario, selection_effective_channel
from .decomp import feasibility_scale
from .exceptions import ConfigurationError
from .patterns import CandidateSet, RadiationPattern
from .wmmse import PrecoderState, SolverConfig, Trace, run_selection


def fixed_pattern_wmmse(
    scenario: Scenario,
    pattern: RadiationPattern,
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


def bd_zero_forcing(channels, stream_counts, power) -> np.ndarray:
    """Block-diagonalization zero-forcing precoder.

    Each user's precoder lives in the null space of every other user's
    channel; within that space the strongest right singular directions of
    the projected channel carry the streams.  Streams start with equal
    power (the total budget split evenly) and the stacked precoder is then
    scaled down once so every antenna meets its budget.
    """
    K = len(channels)
    stream_counts = tuple(stream_counts)
    n = channels[0].shape[1]
    power = np.broadcast_to(np.asarray(power, dtype=float), (n,))
    d_total = sum(stream_counts)
    if d_total > n:
        raise ConfigurationError(
            f"cannot zero-force {d_total} streams with {n} antennas"
        )

    per_stream = float(np.sum(power)) / d_total
    blocks = []
    for k in range(K):
        others = [channels[i] for i in range(K) if i != k]
        if others:
            stacked = np.vstack(others)
            _, singulars, vh = np.linalg.svd(stacked, full_matrices=True)
            tol = max(stacked.shape) * np.finfo(float).eps * (
                singulars[0] if singulars.size else 0.0
            )
            rank = int(np.sum(singulars > tol))
            null_basis = vh[rank:].conj().T  # (N, N - rank)
        else:
            null_basis = np.eye(n, dtype=complex)
        projected = channels[k] @ null_basis
        _, _, vh_proj = np.linalg.svd(projected, full_matrices=False)
        if vh_proj.shape[0] < stream_counts[k]:  # min(M_k, null space dimension)
            raise ConfigurationError(
                f"user {k}: the projected channel has {vh_proj.shape[0]} directions for "
                f"{stream_counts[k]} streams"
            )
        directions = null_basis @ vh_proj.conj().T[:, : stream_counts[k]]
        blocks.append(np.sqrt(per_stream) * directions)

    f_d = np.hstack(blocks)
    return f_d * min(1.0, feasibility_scale(f_d, power))


def interference_leakage(channels, f_d: np.ndarray, stream_counts) -> float:
    """Largest relative cross-user leakage ||H_i F_k|| / (||H_i|| ||F_k||)."""
    offsets = np.cumsum([0, *stream_counts])
    worst = 0.0
    for k in range(len(channels)):
        block = f_d[:, offsets[k] : offsets[k + 1]]
        block_norm = np.linalg.norm(block)
        if block_norm == 0.0:
            continue
        for i, h in enumerate(channels):
            if i == k:
                continue
            rel = np.linalg.norm(h @ block) / (np.linalg.norm(h) * block_norm)
            worst = max(worst, float(rel))
    return worst
