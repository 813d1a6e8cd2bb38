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

The solver takes B by its eigendecomposition and decomposes nothing itself.
In the reduced pattern step B is a positive scalar times Re Q[1:, 1:] of
the antenna's quad term Q, which is fixed for a whole antenna sweep, so the
sweep decomposes every antenna's Re Q[1:, 1:] in one batched call and each
antenna step is two projections plus the scalar secular solve.
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
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    linear: np.ndarray,
    start: np.ndarray,
) -> SphereResult:
    """Global minimizer of x^T B x + linear^T x over ||x|| = 1.

    B is given by its eigendecomposition B = V diag(eigenvalues) V^T, as
    returned by `np.linalg.eigh`: `eigenvalues` is (n,) and ascending, the
    columns of `eigenvectors` (n, n) are orthonormal.  `linear` and the unit
    vector `start` are (n,) and real.  The start point only breaks ties: in
    the hard case the bottom-eigenspace component points along the start's
    projection onto that space.  The returned value never exceeds the
    objective at the start.
    """
    n = linear.shape[0]
    if eigenvalues.shape != (n,) or eigenvectors.shape != (n, n) or start.shape != (n,):
        raise ValueError("inconsistent problem dimensions")
    if abs(math.sqrt(start @ start) - 1.0) > 1e-9:
        raise ValueError("start point must have unit norm")

    # Everything after the two projections runs on Python floats: on a
    # handful of entries numpy's per-call overhead would cost more than the
    # arithmetic.  Objective values are taken in eigen coordinates, where
    # x = V y gives sum(lam y^2) + w^T y with w = V^T linear.
    lam = eigenvalues.tolist()
    w = (eigenvectors.T @ linear).tolist()
    start_y = (eigenvectors.T @ start).tolist()
    start_value = _value(lam, w, start_y)
    # ||B||_F is the 2-norm of its eigenvalues.
    scale = math.sqrt(_sum_sq(lam)) + math.sqrt(linear @ linear)
    if scale == 0.0:
        return SphereResult(point=start.copy(), value=0.0, iterations=0, converged=True)
    half_w = [0.5 * wi / scale for wi in w]
    gaps = [(li - lam[0]) / scale for li in lam]
    # Eigenvalues come sorted, so the bottom eigenspace is the first m.
    m = sum(gap <= _CLUSTER_TOL for gap in gaps)
    gaps[:m] = [0.0] * m
    w_bottom = 2.0 * math.sqrt(_sum_sq(half_w[:m]))

    # Coordinates of x(t) in the eigenbasis: y = -half_w / (gaps + t), t >= 0.
    y = [0.0] * n
    iterations = 0
    converged = True
    if w_bottom <= _CLUSTER_TOL:
        # No bottom component: x(t) stays finite at t = 0, and if it is
        # inside the sphere there, a bottom eigenvector fills the norm.
        w_bottom, first = 0.0, m
        y[m:] = [-h / g for g, h in zip(gaps[m:], half_w[m:])]
        hard = _sum_sq(y) <= 1.0
    else:
        first, hard = 0, False
    if hard:
        fill = start_y[:m]
        fill_norm = math.sqrt(_sum_sq(fill))
        if fill_norm <= _CLUSTER_TOL:
            fill = [1.0] + [0.0] * (m - 1)
            fill_norm = 1.0
        tau = math.sqrt(max(0.0, 1.0 - _sum_sq(y))) / fill_norm
        y[:m] = [tau * f for f in fill]
    else:
        g, hw = gaps[first:], half_w[first:]
        # ||x(t)|| falls from >= 1 at `low` to <= 1 at `high`.
        low = max(0.5 * w_bottom, max(abs(h) - gi for gi, h in zip(g, hw)), 0.0)
        high = math.sqrt(_sum_sq(hw))
        t = root = low
        converged = False
        while iterations < _MAX_NEWTON:
            iterations += 1
            root = t
            norm_sq = slope_sum = 0.0
            for gi, h in zip(g, hw):
                denom = gi + t
                sq = (h / denom) ** 2
                norm_sq += sq
                slope_sum += sq / denom
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
            slope = slope_sum / (norm * norm_sq)
            t += (1.0 - 1.0 / norm) / slope
            if not low <= t <= high:
                t = 0.5 * (low + high)
        y[first:] = [-h / (gi + root) for gi, h in zip(g, hw)]

    norm = math.sqrt(_sum_sq(y))
    y = [yi / norm for yi in y]
    value = _value(lam, w, y)
    if value > start_value:
        return SphereResult(
            point=start.copy(), value=start_value, iterations=iterations, converged=converged
        )
    return SphereResult(
        point=eigenvectors @ y, value=value, iterations=iterations, converged=converged
    )


def _sum_sq(values) -> float:
    return sum(v * v for v in values)


def _value(lam, w, y) -> float:
    """sum(lam y^2) + w^T y on Python floats."""
    return sum((li * yi + wi) * yi for li, wi, yi in zip(lam, w, y))


def reduced_coefficient_problem(
    pinned: np.ndarray,
    linear_term: np.ndarray,
    row: np.ndarray,
    rho: float,
) -> tuple[float, np.ndarray]:
    """Reduce the per-antenna pattern subproblem to the unit sphere.

    With the constant-component coefficient pinned at 2*sqrt(rho*pi) and the
    remaining coefficients written as 2*sqrt((1-rho)*pi) times a unit vector,
    the quadratic-form objective in the full coefficient vector becomes a
    quadratic plus linear objective in that unit vector (constant terms
    dropped).  `pinned` is Re quad_term[1:, 0], the coupling of the free
    coefficients to the pinned one; `row` is the precoder row of the
    antenna being updated.  Returns (scale, linear): the quadratic is
    scale * Re quad_term[1:, 1:], so its eigenpairs are scale times the
    eigenvalues of :func:`reduced_spectrum` with the same eigenvectors.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    row_power = float(np.vdot(row, row).real)
    v1 = 4.0 * math.sqrt((1.0 - rho) * math.pi) * (row.conj() @ linear_term[:, 1:]).real
    v2 = (8.0 * math.pi * math.sqrt(rho * (1.0 - rho)) * row_power) * pinned
    return 4.0 * math.pi * (1.0 - rho) * row_power, v1 + v2


def reduced_spectrum(quad_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Re quad_term[1:, 1:], the reduced quadratic of
    :func:`reduced_coefficient_problem` up to its scale, for one (W, W) quad
    term or a stack of them in one batched call."""
    return np.linalg.eigh(quad_terms[..., 1:, 1:].real)


def lift_coefficients(point: np.ndarray, rho: float) -> np.ndarray:
    """Full coefficient vector from a unit vector: constant component pinned
    at 2*sqrt(rho*pi), remainder scaled to carry the rest of the 4*pi power."""
    lifted = np.empty(len(point) + 1)
    lifted[0] = 2.0 * math.sqrt(rho * math.pi)
    np.multiply(2.0 * math.sqrt((1.0 - rho) * math.pi), point, out=lifted[1:])
    return lifted


def isotropic_coefficients(width: int, rho: float) -> np.ndarray:
    """Default starting coefficients: constant component at its pinned value
    and the entire remaining power on the first non-constant harmonic."""
    if width == 1:
        return np.array([2.0 * np.sqrt(np.pi)])
    start = np.zeros(width - 1)
    start[0] = 1.0
    return lift_coefficients(start, rho)
