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
    state: PrecoderState, candidates: CandidateSet | None = None
) -> ConstraintReport:
    """Recompute every constraint of a solver state from scratch, the
    pattern gains over the :func:`default_grid`.

    With `candidates` the antenna-matrix rows are selections from that set
    and must be exactly one-hot, and the smallest gain is read from the
    set's per-candidate minima (:attr:`CandidateSet.min_gains`); without,
    they are harmonic coefficient vectors of squared norm 4*pi.
    """
    per_antenna = np.sum(np.abs(state.f_d) ** 2, axis=1)
    power_violation = max(0.0, float(np.max(per_antenna / state.power - 1.0)))
    n = state.f_rf.shape[0]
    modulus_deviation = float(np.max(np.abs(np.abs(state.f_rf) ** 2 * n - 1.0)))

    matrix = state.antenna_matrix
    if candidates is not None:
        selection = np.argmax(matrix, axis=1)
        one_hot = np.eye(matrix.shape[1])[selection]
        antenna_deviation = float(np.max(np.abs(matrix - one_hot)))
        min_gains = candidates.min_gains
        min_gain = min(min_gains[s] for s in sorted(set(selection.tolist())))
    else:
        norms = np.sum(matrix**2, axis=1)
        antenna_deviation = float(np.max(np.abs(norms - FOUR_PI)))
        basis = default_grid().basis(int(np.sqrt(matrix.shape[1])) - 1)
        min_gain = float(np.min(basis @ matrix.T))  # (n_theta, n_phi, N) gains
    return ConstraintReport(
        max_power_violation=power_violation,
        modulus_deviation=modulus_deviation,
        antenna_deviation=antenna_deviation,
        min_pattern_gain=min_gain,
    )
