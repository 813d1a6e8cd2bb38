"""Constraint audits of solver states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import CandidateSet
from .sphharm import FOUR_PI, SphereGrid, default_grid
from .wmmse import PrecoderState


@dataclass
class ConstraintReport:
    """Signed constraint margins of a solver state; positive means satisfied.

    `power_margin` is min over antennas of 1 - power/budget;
    `modulus_margin` is minus the largest deviation of analog-stage squared
    moduli from 1/N; `antenna_margin` is minus the largest deviation of the
    pattern variables from their constraint (one-hot rows, or squared norm
    4*pi); `positivity_min` is the smallest pattern gain over the audit
    grid.
    """

    power_margin: float
    modulus_margin: float | None
    antenna_margin: float | None
    positivity_min: float | None

    def max_power_violation(self) -> float:
        return max(0.0, -self.power_margin)

    def modulus_deviation(self) -> float:
        return 0.0 if self.modulus_margin is None else max(0.0, -self.modulus_margin)

    def antenna_deviation(self) -> float:
        return 0.0 if self.antenna_margin is None else max(0.0, -self.antenna_margin)


def audit_constraints(
    state: PrecoderState,
    candidates: CandidateSet | None = None,
    grid: SphereGrid | None = None,
) -> ConstraintReport:
    """Recompute every constraint of a solver state from scratch."""
    per_antenna = np.sum(np.abs(state.f_d) ** 2, axis=1)
    power_margin = float(np.min(1.0 - per_antenna / state.power))

    modulus_margin = None
    if state.f_rf is not None:
        n = state.f_rf.shape[0]
        modulus_margin = -float(np.max(np.abs(np.abs(state.f_rf) ** 2 * n - 1.0)))

    antenna_margin = None
    positivity_min = None
    grid = grid or default_grid()
    tg, pg = grid.mesh()
    if state.selection is not None:
        antenna_margin = 0.0  # indices encode exactly one-hot selections
        if candidates is not None:
            used = np.unique(state.selection)
            positivity_min = min(
                float(np.min(candidates.patterns[s].gain(tg, pg))) for s in used
            )
    elif state.coefficients is not None:
        norms = np.sum(state.coefficients**2, axis=1)
        antenna_margin = -float(np.max(np.abs(norms - FOUR_PI)))
        basis = grid.basis(int(np.sqrt(state.coefficients.shape[1])) - 1)
        fields = basis @ state.coefficients.T  # (n_theta, n_phi, N)
        positivity_min = float(np.min(fields))
    return ConstraintReport(
        power_margin=power_margin,
        modulus_margin=modulus_margin,
        antenna_margin=antenna_margin,
        positivity_min=positivity_min,
    )
