"""Evaluation artifacts: array beampatterns, envelopes, constraint audits."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .channel import ArrayLayout
from .patterns import CandidateSet
from .sphharm import FOUR_PI, SphereGrid, default_grid
from .wmmse import PrecoderState


def array_beampattern(
    layout: ArrayLayout,
    tx_patterns,
    f_rf: np.ndarray,
    f_bb_user: np.ndarray,
    theta,
    phi,
    wavelength: float,
) -> np.ndarray:
    """Transmit field amplitude toward (theta, phi) for one user's streams.

    Element n contributes its pattern gain times the geometric phase
    exp(j 2 pi / lambda * p_n . u); the amplitude is the 2-norm of the
    steered composite precoder response, so common stream phase rotations do
    not matter.  Accepts broadcastable angle arrays.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta_b, phi_b = np.broadcast_arrays(theta, phi)
    direction = np.stack(
        [
            np.sin(theta_b) * np.cos(phi_b),
            np.sin(theta_b) * np.sin(phi_b),
            np.cos(theta_b),
        ],
        axis=-1,
    )  # (..., 3)
    phase = np.exp(2j * np.pi / wavelength * direction @ layout.positions.T)  # (..., N)
    gains = np.stack(
        [p.gain(theta_b, phi_b) for p in tx_patterns], axis=-1
    )  # (..., N)
    response = (gains * phase) @ (f_rf @ f_bb_user)  # (..., D_k)
    out = np.linalg.norm(response, axis=-1)
    return out if out.ndim else float(out)


def azimuth_envelope(field: np.ndarray) -> np.ndarray:
    """Envelope over inclination: per-azimuth maximum of a (theta x phi) field."""
    field = np.asarray(field)
    if field.ndim != 2 or field.shape[0] < 1:
        raise ValueError("expected a nonempty (theta x phi) field")
    return field.max(axis=0)


def write_beampattern_csv(
    path,
    layout: ArrayLayout,
    tx_patterns,
    f_rf: np.ndarray,
    f_bb_users,
    wavelength: float,
    resolution_deg: float = 1.0,
) -> None:
    """Azimuth envelopes per user, normalized to the global peak, in dB.

    Columns: phi_deg, user, envelope_db_normalized.
    """
    theta = np.deg2rad(np.arange(0.0, 180.0 + resolution_deg, resolution_deg))
    phi = np.deg2rad(np.arange(-180.0, 180.0, resolution_deg))
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    envelopes = []
    for f_bb_k in f_bb_users:
        field = array_beampattern(layout, tx_patterns, f_rf, f_bb_k, tg, pg, wavelength)
        envelopes.append(azimuth_envelope(field))
    peak = max(float(np.max(env)) for env in envelopes)
    if peak <= 0.0:
        peak = 1.0
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi_deg", "user", "envelope_db_normalized"])
        for user, env in enumerate(envelopes):
            db = 20.0 * np.log10(np.maximum(env / peak, 1e-12))
            for p, value in zip(np.rad2deg(phi), db):
                writer.writerow([f"{float(p)!r}", user, f"{float(value)!r}"])


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
