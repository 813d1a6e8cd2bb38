"""Constraint audits of solver states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import CandidateSet
from .sphharm import FOUR_PI, default_grid
from .wmmse import PrecoderState


@dataclass
class ConstraintReport:
    """Constraint deviations of a solver state; zero means satisfied.

    `max_power_violation` is the largest relative excess of an antenna's
    power over its budget (0 when every antenna is within budget);
    `modulus_deviation` is the largest deviation of analog-stage squared
    moduli from 1/N; `antenna_deviation` is the largest deviation of the
    antenna-matrix rows from their constraint (one-hot rows, or squared
    norm 4*pi); `min_pattern_gain` is the smallest gain of the patterns in
    use over the audit grid.
    """

    max_power_violation: float
    modulus_deviation: float
    antenna_deviation: float
    min_pattern_gain: float


def audit_constraints(
    states: list[PrecoderState], candidates: CandidateSet | None = None
) -> list[ConstraintReport]:
    """Recompute every constraint of each state from scratch, the pattern
    gains over the :func:`default_grid`; one report per state.

    With `candidates` the antenna-matrix rows are selections from that set
    and must be exactly one-hot, and the smallest gain is read from the
    set's per-candidate minima (:attr:`CandidateSet.min_gains`); without,
    they are harmonic coefficient vectors of squared norm 4*pi.  The states
    must share their antenna count, stream count and pattern width; their
    chain counts may differ.  Every check is one array operation over the
    stacked states, and each is the one of a single state, so a state gets
    the same report in any list.  Only the harmonic gains are taken state
    by state: the stacked (states, grid, N) product would hold megabytes.
    """
    f_d = np.stack([state.f_d for state in states])
    per_antenna = np.sum(np.abs(f_d) ** 2, axis=2)
    power = np.stack([state.power for state in states])
    violations = np.max(per_antenna / power - 1.0, axis=1).tolist()
    # Every state's analog stage side by side, (N, chains of every state).
    f_rf = np.hstack([state.f_rf for state in states])
    moduli = np.max(np.abs(np.abs(f_rf) ** 2 * len(f_rf) - 1.0), axis=0)
    firsts = np.cumsum([0] + [state.f_rf.shape[1] for state in states[:-1]])
    modulus_deviations = np.maximum.reduceat(moduli, firsts).tolist()

    matrices = np.stack([state.antenna_matrix for state in states])
    if candidates is not None:
        selection = np.argmax(matrices, axis=2)
        one_hot = np.eye(matrices.shape[2])[selection]
        antenna_deviations = np.max(np.abs(matrices - one_hot), axis=(1, 2)).tolist()
        min_gains = np.min(np.asarray(candidates.min_gains)[selection], axis=1).tolist()
    else:
        norms = np.sum(matrices**2, axis=2)
        antenna_deviations = np.max(np.abs(norms - FOUR_PI), axis=1).tolist()
        basis = default_grid().basis(int(np.sqrt(matrices.shape[2])) - 1)
        # (n_theta, n_phi, N) gains of each state
        min_gains = [float(np.min(basis @ state.antenna_matrix.T)) for state in states]
    return [
        ConstraintReport(
            max_power_violation=max(0.0, violation),
            modulus_deviation=modulus,
            antenna_deviation=deviation,
            min_pattern_gain=gain,
        )
        for violation, modulus, deviation, gain in zip(
            violations, modulus_deviations, antenna_deviations, min_gains
        )
    ]
