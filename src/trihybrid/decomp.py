"""Factor a fully digital precoder into analog and digital stages.

The analog stage is phase-only with entries of squared modulus 1/N; the
digital stage is unconstrained.  Alternating minimization under a relaxed
total-power view: the digital stage is the least-squares fit (minimum norm,
singular values below 1e-9 of the largest dropped), and the analog stage is
refined one entry at a time, each phase set to its exact per-coordinate
minimizer, so the Frobenius mismatch never increases.  A final scalar
rescaling of the digital stage restores the per-antenna power budgets.
A stack of precoders is factored in one batched alternation, each run
with the bits it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative singular-value cutoff of the digital least-squares fit.  Nearly
# parallel analog columns (a rank-deficient target) would otherwise scale
# last-bit differences of the target into different alternation paths.
_LSTSQ_RCOND = 1e-9


@dataclass
class DecompositionResult:
    f_rf: np.ndarray  # (N, N_RF), entries (1/sqrt(N)) * e^{j phase}
    f_bb: np.ndarray  # (N_RF, D), rescaled for per-antenna feasibility
    residual: float  # relative Frobenius mismatch before rescaling
    scale: float  # factor applied to the digital stage
    history: list[float] = field(default_factory=list)


def _relative_residual(f_d, f_rf, f_bb, norm: float) -> float:
    """||f_d - f_rf f_bb|| / ||f_d|| for the target's norm `norm`; 0 for a
    zero target."""
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(f_d - f_rf @ f_bb) / norm)


def feasibility_scale(f: np.ndarray, power) -> float:
    """Largest factor that keeps every row of `f` within its per-antenna
    power budget (a scalar or one per row); inf when every row is zero."""
    per_antenna = np.sum(np.abs(f) ** 2, axis=1)
    positive = per_antenna > 0.0
    if not np.any(positive):
        return np.inf
    power = np.broadcast_to(np.asarray(power, dtype=float), per_antenna.shape)
    return float(np.min(np.sqrt(power[positive] / per_antenna[positive])))


def rescale_per_antenna(
    f_rf: np.ndarray, f_bb: np.ndarray, power
) -> tuple[np.ndarray, float]:
    """Scale the digital stage so every antenna meets its power budget.

    Returns the scaled digital stage and the scalar applied (never above 1,
    so no entry grows).
    """
    scale = min(1.0, feasibility_scale(f_rf @ f_bb, power))
    return f_bb * scale, scale


def _refine_phases(f_d, f_rf, f_bb) -> np.ndarray:
    """One cyclic pass of exact per-column phase updates on the analog stage
    of every run of a stack, (B, N, N_RF), in place.

    Column j's entries each minimize the true mismatch with everything else
    held fixed, so the pass cannot increase the residual.
    """
    root = np.sqrt(f_rf.shape[1])
    targets = f_bb.conj()[..., None]  # conj(f_bb[:, j]) as (B, D, 1) columns
    residual = f_d - f_rf @ f_bb
    for j in range(f_rf.shape[2]):
        old, gains = f_rf[:, :, j, None], f_bb[:, j, None, :]
        without = residual + old * gains
        match = without @ targets[:, j]
        column = np.exp(1j * np.angle(match))
        column /= root
        if np.count_nonzero(match) < match.size:  # a zero match keeps its phase
            keep = match == 0.0
            column[keep] = old[keep]
        old[...] = column
        residual = without - column * gains
    return f_rf


def decompose_precoders(
    f_d: np.ndarray,
    n_rf: int,
    power,
    seeds,
    iterations: int = 30,
) -> list[DecompositionResult]:
    """Alternate digital least squares and analog phase refinement on a
    stack of precoders, (B, N, D), all with `n_rf` chains.

    `power` holds each run's budgets (a scalar or one per antenna) and
    `seeds` each run's seed.  The analog stage starts from the phases of
    the leading columns of the target; random phases from the run's own
    generator pad any extra chains.  The phase refinement of every run
    still alternating is one batched pass; the least-squares fit and the
    residual stay per run.  A run stops on its own tests: a residual below
    1e-15, an improvement that stalls, or the iteration cap.  Its recorded
    residual history is non-increasing.  After the alternation each run's
    digital stage is rescaled for per-antenna feasibility.  Returns one
    result per run, each equal to the bit to the run decomposed alone.
    """
    f_d = np.asarray(f_d, dtype=complex)
    n_runs, n_antennas, n_streams = f_d.shape
    if n_rf > n_antennas:
        raise ValueError(f"cannot use {n_rf} chains with {n_antennas} antennas")
    if n_rf < 1:
        raise ValueError("need at least one chain")

    lead = min(n_rf, n_streams)
    phases = np.angle(f_d[:, :, :lead])
    if n_rf > lead:
        pads = [
            np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_antennas, n_rf - lead))
            for seed in seeds
        ]
        phases = np.concatenate([phases, np.stack(pads)], axis=2)
    f_rf = np.exp(1j * phases) / np.sqrt(n_antennas)

    f_bb = np.stack([np.linalg.lstsq(a, b, rcond=_LSTSQ_RCOND)[0] for a, b in zip(f_rf, f_d)])
    norms = [np.linalg.norm(target) for target in f_d]
    residuals = [_relative_residual(*parts) for parts in zip(f_d, f_rf, f_bb, norms)]
    histories = [[residual] for residual in residuals]
    active = [b for b, residual in enumerate(residuals) if not residual < 1e-15]
    for _ in range(iterations):
        if not active:
            break
        if len(active) == n_runs:  # no run has stopped: refine in place, with no gather
            _refine_phases(f_d, f_rf, f_bb)
        else:
            f_rf[active] = _refine_phases(f_d[active], f_rf[active], f_bb[active])
        going = []
        for b in active:
            f_bb[b] = np.linalg.lstsq(f_rf[b], f_d[b], rcond=_LSTSQ_RCOND)[0]
            residual = residuals[b]
            new_residual = _relative_residual(f_d[b], f_rf[b], f_bb[b], norms[b])
            histories[b].append(min(new_residual, residual))
            if new_residual >= residual - 1e-15:
                residuals[b] = min(new_residual, residual)
                continue
            residuals[b] = new_residual
            if not new_residual < 1e-15:
                going.append(b)
        active = going

    results = []
    for b, (residual, history) in enumerate(zip(residuals, histories)):
        f_bb_scaled, scale = rescale_per_antenna(f_rf[b], f_bb[b], power[b])
        results.append(
            DecompositionResult(
                f_rf=f_rf[b], f_bb=f_bb_scaled, residual=residual, scale=scale, history=history
            )
        )
    return results


def decompose_precoder(
    f_d: np.ndarray,
    n_rf: int,
    power,
    iterations: int = 30,
    seed: int = 0,
) -> DecompositionResult:
    """Alternate digital least squares and analog phase refinement: the
    decomposition of :func:`decompose_precoders` on a stack of one.

    The analog stage starts from the phases of the leading columns of the
    target (random phases pad any extra chains).  The recorded residual
    history is non-increasing; the loop stops early once the improvement
    stalls.  After the alternation the digital stage is rescaled for
    per-antenna feasibility.
    """
    return decompose_precoders(np.asarray(f_d)[None], n_rf, [power], [seed], iterations)[0]
