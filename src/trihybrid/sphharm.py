"""Real spherical harmonics and surface quadrature.

Provides the orthonormal real harmonic basis on the unit sphere, sampled at
given directions or cached on a quadrature grid, and numerical integration
over the sphere on a Gauss-Legendre (inclination) x uniform (azimuth) grid.
A synthesized gain is the basis times a coefficient vector; the pipeline
forms it only through the lifted channels and the audit's grid basis.

Basis ordering: the pair (degree u, order q) with u >= 0 and |q| <= u is
flattened to t = u^2 + u + q + 1, so truncating at degree U keeps
T = (U + 1)^2 functions.  Associated Legendre functions are evaluated by
upward recurrence without the Condon-Shortley sign; the sign convention is
pinned by the orthonormality tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# Index bookkeeping
# ---------------------------------------------------------------------------

def truncation_length(degree: int) -> int:
    """Number of basis functions kept when truncating at `degree`."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    return (degree + 1) ** 2


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------

def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def assoc_legendre(degree: int, order: int, x):
    """Associated Legendre function P_u^q(x) without the Condon-Shortley sign.

    Uses the stable upward recurrence in the degree.  `x` may be a scalar or
    an array with entries in [-1, 1].
    """
    if order < 0 or order > degree:
        raise ValueError(f"need 0 <= order <= degree, got ({degree}, {order})")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("argument of assoc_legendre must lie in [-1, 1]")
    x = np.clip(x, -1.0, 1.0)

    s = np.sqrt((1.0 - x) * (1.0 + x))
    p_prev = _double_factorial(2 * order - 1) * s**order
    if degree == order:
        return p_prev if p_prev.ndim else float(p_prev)
    p_curr = x * (2 * order + 1) * p_prev
    for u in range(order + 2, degree + 1):
        p_prev, p_curr = p_curr, (
            (2 * u - 1) * x * p_curr - (u + order - 1) * p_prev
        ) / (u - order)
    return p_curr if p_curr.ndim else float(p_curr)


def _normalization(degree: int, order: int) -> float:
    ratio = factorial(degree - order) / factorial(degree + order)
    return np.sqrt((2 * degree + 1) / FOUR_PI * ratio)


def real_sph_harm(degree: int, order: int, theta, phi):
    """Real spherical harmonic Y_u^q(theta, phi).

    theta is the inclination in [0, pi], phi the azimuth.  Scalars and
    broadcastable arrays are accepted.
    """
    if abs(order) > degree:
        raise ValueError(f"|order| <= degree required, got ({degree}, {order})")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    q = abs(order)
    p = assoc_legendre(degree, q, np.cos(theta))
    norm = _normalization(degree, q)
    if order > 0:
        out = np.sqrt(2.0) * norm * p * np.cos(q * phi)
    elif order < 0:
        out = np.sqrt(2.0) * norm * p * np.sin(q * phi)
    else:
        out = norm * p * np.ones_like(phi)
    out = np.asarray(out)
    return out if out.ndim else float(out)


def sh_basis(theta, phi, degree: int) -> np.ndarray:
    """Stack of all harmonics up to `degree`, shape (..., (degree+1)^2).

    Entry t-1 along the last axis is the harmonic with flat index t.
    """
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    out = np.empty(theta.shape + (truncation_length(degree),))
    for u in range(degree + 1):
        for q in range(-u, u + 1):
            out[..., u * u + u + q] = real_sph_harm(u, q, theta, phi)
    return out


# ---------------------------------------------------------------------------
# Quadrature grids
# ---------------------------------------------------------------------------

@dataclass
class SphereGrid:
    """Quadrature nodes on the sphere.

    Inclination nodes carry Gauss-Legendre weights in cos(theta), so the
    sin(theta) surface element is already absorbed; azimuth nodes are
    uniformly spaced with equal weights summing to 2*pi.
    """

    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray
    _basis_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_theta(self) -> int:
        return self.theta.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def phi_weight(self) -> float:
        return 2.0 * np.pi / self.n_phi

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def weights(self) -> np.ndarray:
        return np.outer(self.theta_weights, np.full(self.n_phi, self.phi_weight))

    def integrate(self, values: np.ndarray) -> float:
        """Surface integral of `values` sampled on the grid."""
        values = np.asarray(values)
        if values.shape != (self.n_theta, self.n_phi):
            raise ValueError(
                f"expected samples of shape {(self.n_theta, self.n_phi)}, "
                f"got {values.shape}"
            )
        return float(np.sum(values * self.weights()))

    def basis(self, degree: int) -> np.ndarray:
        """Cached harmonic basis sampled on the grid, shape (n_theta, n_phi, T)."""
        if degree not in self._basis_cache:
            tg, pg = self.mesh()
            self._basis_cache[degree] = sh_basis(tg, pg, degree)
        return self._basis_cache[degree]


def sphere_grid(n_theta: int = 64, n_phi: int = 128) -> SphereGrid:
    """Gauss-Legendre x uniform-azimuth grid; exact for harmonic products of
    degree up to 2*n_theta - 1."""
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid sizes must be positive")
    x, w = leggauss(n_theta)
    order = np.argsort(np.arccos(x))
    theta = np.arccos(x)[order]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return SphereGrid(theta=theta, theta_weights=w[order], phi=phi)


_DEFAULT_GRID: SphereGrid | None = None


def default_grid() -> SphereGrid:
    """Shared 64 x 128 grid, sufficient for degrees used at desk scale."""
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        _DEFAULT_GRID = sphere_grid()
    return _DEFAULT_GRID


def pattern_energy(gain, grid: SphereGrid | None = None) -> float:
    """Total radiated power: surface integral of the squared gain(theta, phi)."""
    grid = grid or default_grid()
    tg, pg = grid.mesh()
    values = np.asarray(gain(tg, pg), dtype=float)
    return grid.integrate(values**2)
