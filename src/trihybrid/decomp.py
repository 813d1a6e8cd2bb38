"""Factor a fully digital precoder into analog and digital stages.

The analog stage is phase-only with entries of squared modulus 1/N; the
digital stage is unconstrained.  Alternating minimization under a relaxed
total-power view: the digital stage is the least-squares fit (minimum norm,
singular values below 1e-9 of the largest dropped), and the analog stage is
refined one entry at a time, each phase set to its exact per-coordinate
minimizer, so the Frobenius mismatch never increases.  A final scalar
rescaling of the digital stage restores the per-antenna power budgets.
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


def _relative_residual(f_d, f_rf, f_bb) -> float:
    denom = np.linalg.norm(f_d)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(f_d - f_rf @ f_bb) / denom)


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
    """One cyclic pass of exact per-column phase updates on the analog stage.

    Column j's entries each minimize the true mismatch with everything else
    held fixed, so the pass cannot increase the residual.
    """
    n = f_rf.shape[0]
    f_rf = f_rf.copy()
    residual = f_d - f_rf @ f_bb
    for j in range(f_rf.shape[1]):
        without = residual + f_rf[:, j, None] * f_bb[j]
        match = without @ f_bb[j].conj()
        keep = np.abs(match) == 0.0
        column = np.exp(1j * np.angle(match)) / np.sqrt(n)
        column[keep] = f_rf[keep, j]
        f_rf[:, j] = column
        residual = without - column[:, None] * f_bb[j]
    return f_rf


def decompose_precoder(
    f_d: np.ndarray,
    n_rf: int,
    power,
    iterations: int = 30,
    seed: int = 0,
) -> DecompositionResult:
    """Alternate digital least squares and analog phase refinement.

    The analog stage starts from the phases of the leading columns of the
    target (random phases pad any extra chains).  The recorded residual
    history is non-increasing; the loop stops early once the improvement
    stalls.  After the alternation the digital stage is rescaled for
    per-antenna feasibility.
    """
    f_d = np.asarray(f_d, dtype=complex)
    n_antennas, n_streams = f_d.shape
    if n_rf > n_antennas:
        raise ValueError(f"cannot use {n_rf} chains with {n_antennas} antennas")
    if n_rf < 1:
        raise ValueError("need at least one chain")

    rng = np.random.default_rng(seed)
    lead = min(n_rf, n_streams)
    phases = np.angle(f_d[:, :lead])
    if n_rf > lead:
        phases = np.concatenate(
            [phases, rng.uniform(0.0, 2.0 * np.pi, (n_antennas, n_rf - lead))], axis=1
        )
    f_rf = np.exp(1j * phases) / np.sqrt(n_antennas)

    history: list[float] = []
    f_bb, *_ = np.linalg.lstsq(f_rf, f_d, rcond=_LSTSQ_RCOND)
    residual = _relative_residual(f_d, f_rf, f_bb)
    history.append(residual)
    for _ in range(iterations):
        if residual < 1e-15:
            break
        f_rf = _refine_phases(f_d, f_rf, f_bb)
        f_bb, *_ = np.linalg.lstsq(f_rf, f_d, rcond=_LSTSQ_RCOND)
        new_residual = _relative_residual(f_d, f_rf, f_bb)
        history.append(min(new_residual, residual))
        if new_residual >= residual - 1e-15:
            residual = min(new_residual, residual)
            break
        residual = new_residual

    f_bb_scaled, scale = rescale_per_antenna(f_rf, f_bb, power)
    return DecompositionResult(
        f_rf=f_rf,
        f_bb=f_bb_scaled,
        residual=residual,
        scale=scale,
        history=history,
    )
