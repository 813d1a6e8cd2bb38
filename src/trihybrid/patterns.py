"""Radiation patterns and candidate sets for pattern-reconfigurable antennas.

The library builds one kind of pattern, the Gaussian beam: a strictly
positive magnitude gain over the sphere, peaked at a steering direction,
plus a nonnegative gain floor.  What the rest of the library reads of a
pattern is the :class:`Pattern` protocol.
Normalized patterns radiate total power 4*pi, i.e. the squared gain
integrates to the full solid angle.  Candidate sets hold an ordered list of
normalized beams from which each transmit antenna selects one; index 0 is
the designated fixed-baseline pattern.  Synthesized (harmonic) patterns
are coefficient rows of the antenna matrix, not pattern objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import isqrt
from typing import Protocol

import numpy as np

from . import sphharm
from .exceptions import ConfigurationError
from .sphharm import FOUR_PI, SphereGrid, default_grid

_LN2 = float(np.log(2.0))

BROADSIDE = (np.pi / 2.0, 0.0)

# Candidate beam centers cover the quarter sphere in front of the array
# (+x) and below its horizon, where the users are; every beam carries the
# same small gain floor, keeping it strictly positive.
BEAM_THETA_RANGE = (np.pi / 2.0, np.pi)
BEAM_PHI_RANGE = (-np.pi / 2.0, np.pi / 2.0)
BEAM_FLOOR = 1e-3


def great_circle_angle(theta1, phi1, theta2, phi2):
    """Central angle between two directions given as (inclination, azimuth)."""
    cos_angle = np.cos(theta1) * np.cos(theta2) + np.sin(theta1) * np.sin(
        theta2
    ) * np.cos(np.asarray(phi1, dtype=float) - phi2)
    return np.arccos(np.clip(cos_angle, -1.0, 1.0))


def most_square_factors(n: int) -> tuple[int, int]:
    """Factor n = a * b with a <= b and a as large as possible."""
    if n < 1:
        raise ValueError(f"need a positive count, got {n}")
    for a in range(isqrt(n), 0, -1):
        if n % a == 0:
            return a, n // a
    raise AssertionError("unreachable")


class Pattern(Protocol):
    """What the channel and the candidate sets read of a pattern: its
    magnitude gain at directions (theta, phi), and a copy with the gain
    multiplied by a factor.  :class:`RadiationPattern` is the only one the
    library builds."""

    def gain(self, theta, phi): ...

    def scaled(self, factor: float) -> "Pattern": ...


@dataclass(frozen=True, eq=False)
class RadiationPattern:
    """Gaussian beam: magnitude gain over the sphere.

    The unscaled gain is exp(-ln 2 / 2 (2 delta / beamwidth)^2) + floor,
    with delta the angle from the beam center (theta0, phi0); `scale` is
    the multiplicative factor applied by normalization.
    """

    theta0: float
    phi0: float
    beamwidth: float
    floor: float
    scale: float = 1.0

    def gain(self, theta, phi):
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        delta = great_circle_angle(theta, phi, self.theta0, self.phi0)
        ratio = 2.0 * delta / self.beamwidth
        raw = np.exp(-0.5 * _LN2 * ratio**2) + self.floor
        out = self.scale * raw
        return out if out.ndim else float(out)

    def scaled(self, factor: float) -> "RadiationPattern":
        return replace(self, scale=self.scale * factor)


def gaussian_beam(
    center_inclination: float,
    center_azimuth: float,
    beamwidth: float,
    floor: float = 0.0,
) -> RadiationPattern:
    """Unnormalized Gaussian beam steered at (center_inclination, center_azimuth).

    `beamwidth` is the 3 dB beamwidth of the power pattern in radians: the
    squared gain halves at an angular offset of beamwidth / 2 when the floor
    is zero.  `floor` is a small additive gain keeping the pattern strictly
    positive after truncation and quadrature.
    """
    if not 0.0 < beamwidth < np.pi:
        raise ValueError(f"beamwidth must lie in (0, pi), got {beamwidth}")
    if floor < 0.0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    return RadiationPattern(
        theta0=float(center_inclination),
        phi0=float(center_azimuth),
        beamwidth=float(beamwidth),
        floor=float(floor),
    )


def normalize_pattern(
    pattern: RadiationPattern, grid: SphereGrid | None = None
) -> RadiationPattern:
    """Rescale so the squared gain integrates to 4*pi over the sphere."""
    energy = sphharm.pattern_energy(pattern.gain, grid)
    if energy <= 0.0:
        raise ValueError("cannot normalize a pattern with zero radiated power")
    return pattern.scaled(float(np.sqrt(FOUR_PI / energy)))


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Ordered set of normalized patterns selectable per antenna."""

    patterns: tuple[Pattern, ...]

    @property
    def size(self) -> int:
        return len(self.patterns)

    @property
    def baseline(self) -> Pattern:
        return self.patterns[0]

    def gain_vector(self, theta, phi) -> np.ndarray:
        """Per-candidate gains at a direction, stacked along the last axis."""
        return np.stack([p.gain(theta, phi) for p in self.patterns], axis=-1)

    @cached_property
    def min_gains(self) -> tuple[float, ...]:
        """Each candidate's smallest gain over the :func:`default_grid`,
        evaluated once per set."""
        tg, pg = default_grid().mesh()
        return tuple(float(np.min(p.gain(tg, pg))) for p in self.patterns)


def gaussian_beam_grid(count: int, beamwidth: float = np.deg2rad(85.0)) -> CandidateSet:
    """Candidate set of Gaussian beams with centers on a uniform tensor grid.

    Beam centers sit at the cell midpoints of the most nearly square
    (count_theta x count_phi) partition of `BEAM_THETA_RANGE` x
    `BEAM_PHI_RANGE`, inclination-major, each beam with gain floor
    `BEAM_FLOOR` and normalized on the default quadrature grid.  The
    candidate whose center is closest to array broadside is then moved to
    index 0, where it doubles as the fixed-baseline pattern.
    """
    if count < 1:
        raise ConfigurationError(f"candidate count must be positive, got {count}")
    n_theta, n_phi = most_square_factors(count)
    quad = default_grid()

    theta_lo, theta_hi = BEAM_THETA_RANGE
    phi_lo, phi_hi = BEAM_PHI_RANGE
    theta_centers = theta_lo + (np.arange(n_theta) + 0.5) * (theta_hi - theta_lo) / n_theta
    phi_centers = phi_lo + (np.arange(n_phi) + 0.5) * (phi_hi - phi_lo) / n_phi

    beams = []
    for t0 in theta_centers:
        for p0 in phi_centers:
            beam = gaussian_beam(t0, p0, beamwidth, BEAM_FLOOR)
            beams.append(normalize_pattern(beam, quad))

    centers = np.array([(b.theta0, b.phi0) for b in beams])
    best = int(np.argmin(great_circle_angle(centers[:, 0], centers[:, 1], *BROADSIDE)))
    beams[0], beams[best] = beams[best], beams[0]
    return CandidateSet(tuple(beams))
