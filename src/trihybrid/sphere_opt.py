"""Exact minimization of a quadratic over the unit sphere for the reduced
coefficient step.

Minimizes x^T B x + v^T x subject to ||x|| = 1 globally (Moré & Sorensen,
"Computing a trust region step", 1983; Hager, "Minimizing a quadratic over a
sphere", SIAM J. Optim. 2001).  With B = Q diag(lam) Q^T and w = Q^T v, a
global minimizer is x = -Q (diag(lam) - mu)^{-1} w / 2 for the multiplier
mu < lam_min at which that vector has unit norm.  Writing t = lam_min - mu,
the root of the secular equation 1/||x(t)|| = 1 is found by safeguarded
Newton iteration.  In the hard case, where w has no component in the bottom
eigenspace and ||x|| stays below one as mu approaches lam_min, mu = lam_min
and a bottom eigenvector fills the missing norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative to the problem scale ||B||_F + ||v||.  Eigenvalues this close to
# the smallest form the bottom eigenspace, and a bottom component of w this
# small counts as none; either approximation moves the objective by at most
# this much times the scale anywhere on the sphere.
_CLUSTER_TOL = 1e-9
_SECULAR_TOL = 1e-12  # on | ||x(t)|| - 1 |
_MAX_NEWTON = 50


@dataclass
class SphereResult:
    point: np.ndarray
    value: float
    iterations: int  # Newton steps on the secular equation
    converged: bool  # the secular residual met its tolerance


def minimize_on_sphere(
    quadratic: np.ndarray, linear: np.ndarray, start: np.ndarray
) -> SphereResult:
    """Global minimizer of x^T quadratic x + linear^T x over ||x|| = 1.

    `quadratic` is (n, n) and real, `linear` and the unit vector `start` are
    (n,) and real.  The start point only breaks ties: in the hard case the
    bottom-eigenspace component points along the start's projection onto
    that space.  The returned value never exceeds the objective at the
    start.
    """
    n = linear.shape[0]
    if quadratic.shape != (n, n) or start.shape != (n,):
        raise ValueError("inconsistent problem dimensions")
    if abs(math.sqrt(start @ start) - 1.0) > 1e-9:
        raise ValueError("start point must have unit norm")

    start_value = float(start @ quadratic @ start + linear @ start)
    scale = np.linalg.norm(quadratic, "fro") + np.linalg.norm(linear)
    if scale == 0.0:
        return SphereResult(point=start.copy(), value=0.0, iterations=0, converged=True)
    quad = quadratic / scale
    lam, basis = np.linalg.eigh(0.5 * (quad + quad.T))
    half_w = 0.5 * (basis.T @ linear) / scale
    gaps = lam - lam[0]
    # Eigenvalues come sorted, so the bottom eigenspace is the first m.
    m = int(np.searchsorted(gaps, _CLUSTER_TOL, side="right"))
    gaps[:m] = 0.0
    w_bottom = 2.0 * math.sqrt(half_w[:m] @ half_w[:m])

    # Coordinates of x(t) in the eigenbasis: y = -half_w / (gaps + t), t >= 0.
    y = np.zeros_like(half_w)
    iterations = 0
    converged = True
    if w_bottom <= _CLUSTER_TOL:
        # No bottom component: x(t) stays finite at t = 0, and if it is
        # inside the sphere there, a bottom eigenvector fills the norm.
        w_bottom, first = 0.0, m
        y[m:] = -half_w[m:] / gaps[m:]
        hard = y @ y <= 1.0
    else:
        first, hard = 0, False
    if hard:
        fill = basis[:, :m].T @ start
        fill_norm = math.sqrt(fill @ fill)
        if fill_norm <= _CLUSTER_TOL:
            fill[:] = 0.0
            fill[0] = fill_norm = 1.0
        y[:m] = math.sqrt(max(0.0, 1.0 - y @ y)) * fill / fill_norm
    else:
        g, hw = gaps[first:], half_w[first:]
        # ||x(t)|| falls from >= 1 at `low` to <= 1 at `high`.
        low = max(0.5 * w_bottom, float(np.max(np.abs(hw) - g)), 0.0)
        high = math.sqrt(hw @ hw)
        t = low
        converged = False
        while iterations < _MAX_NEWTON:
            iterations += 1
            denom = g + t
            ya = hw / denom
            norm_sq = float(ya @ ya)
            norm = math.sqrt(norm_sq)
            if abs(norm - 1.0) <= _SECULAR_TOL:
                converged = True
                break
            if norm > 1.0:
                low = t
            else:
                high = t
            # 1/||x(t)|| is concave and increasing in t, so Newton steps from
            # the left of the root stay left of it; bisect if rounding
            # throws a step out of the bracket.
            slope = float(ya @ (ya / denom)) / (norm * norm_sq)
            t += (1.0 - 1.0 / norm) / slope
            if not low <= t <= high:
                t = 0.5 * (low + high)
        y[first:] = -ya

    point = basis @ y
    point /= math.sqrt(point @ point)
    value = float(point @ quadratic @ point + linear @ point)
    if value > start_value:
        point, value = start.copy(), start_value
    return SphereResult(point=point, value=value, iterations=iterations, converged=converged)


def reduced_coefficient_problem(
    quad_term: np.ndarray,
    linear_term: np.ndarray,
    row: np.ndarray,
    rho: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the per-antenna pattern subproblem to the unit sphere.

    With the constant-component coefficient pinned at 2*sqrt(rho*pi) and the
    remaining coefficients written as 2*sqrt((1-rho)*pi) times a unit vector,
    the quadratic-form objective in the full coefficient vector becomes a
    quadratic plus linear objective in that unit vector (constant terms
    dropped).  `row` is the precoder row of the antenna being updated.
    Returns the (quadratic, linear) pair of :func:`minimize_on_sphere`.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    row_power = float(np.real(row @ row.conj()))
    quad = 4.0 * np.pi * (1.0 - rho) * row_power * np.real(quad_term[1:, 1:])
    v1 = 4.0 * np.sqrt((1.0 - rho) * np.pi) * np.real(
        row.conj() @ linear_term[:, 1:]
    )
    v2 = (
        8.0
        * np.pi
        * np.sqrt(rho * (1.0 - rho))
        * row_power
        * np.real(quad_term[1:, 0])
    )
    return quad, v1 + v2


def lift_coefficients(point: np.ndarray, rho: float) -> np.ndarray:
    """Full coefficient vector from a unit vector: constant component pinned
    at 2*sqrt(rho*pi), remainder scaled to carry the rest of the 4*pi power."""
    head = 2.0 * np.sqrt(rho * np.pi)
    tail = 2.0 * np.sqrt((1.0 - rho) * np.pi) * np.asarray(point, dtype=float)
    return np.concatenate([[head], tail])


def isotropic_coefficients(width: int, rho: float) -> np.ndarray:
    """Default starting coefficients: constant component at its pinned value
    and the entire remaining power on the first non-constant harmonic."""
    if width == 1:
        return np.array([2.0 * np.sqrt(np.pi)])
    start = np.zeros(width - 1)
    start[0] = 1.0
    return lift_coefficients(start, rho)
