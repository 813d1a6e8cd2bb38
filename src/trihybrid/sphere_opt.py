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

The solver works in the eigenbasis of B and decomposes nothing itself.  In
the reduced pattern step B is a positive scalar times Re Q[1:, 1:] of the
antenna's quad term Q, which is fixed for a whole antenna sweep, so the
sweep decomposes every antenna's Re Q[1:, 1:] in one batched call.  The
synthesis step of a lockstep batch reduces every run's problem to the
sphere, rotates it into its eigenbasis and lifts the solutions back in
array operations over the batch (:func:`reduced_coefficient_problem`,
:func:`lift_coefficients`); only the secular solve,
:func:`minimize_on_sphere`, runs once per run, on Python floats.
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
    point: list  # eigenbasis coordinates, or the start itself when it is kept
    value: float
    iterations: int  # Newton steps on the secular equation
    converged: bool  # the secular residual met its tolerance


def minimize_on_sphere(eigenvalues, linear, start, linear_norm: float) -> SphereResult:
    """Global minimizer of sum(eigenvalues y^2) + linear^T y over ||y|| = 1.

    The problem is given in the eigenbasis of B = V diag(eigenvalues) V^T:
    `eigenvalues` is ascending, as `np.linalg.eigh` returns it, and `linear`
    and the unit vector `start` are V^T v and V^T x0 for the caller's linear
    term v and start x0; all three are sequences of n floats, best Python
    lists.  `linear_norm` is ||v|| as the caller computed it in its own
    coordinates, where it may differ from the norm of V^T v in the last
    bits; it sets the problem scale.  The start point only breaks ties: in
    the hard case the bottom-eigenspace component points along the start's
    projection onto that space.  The returned value never exceeds the
    objective at the start.  The point is a list of n floats in the
    eigenbasis, or `start` itself when no point improves on it, so that a
    caller can hand back its own start vector instead of rotating V^T x0
    back.
    """
    n = len(linear)
    if len(eigenvalues) != n or len(start) != n:
        raise ValueError("inconsistent problem dimensions")
    if abs(math.sqrt(_sum_sq(start)) - 1.0) > 1e-9:
        raise ValueError("start point must have unit norm")

    # Everything runs on Python floats: on a handful of entries numpy's
    # per-call overhead would cost more than the arithmetic.
    lam, w = eigenvalues, linear
    start_value = _value(lam, w, start)
    # ||B||_F is the 2-norm of its eigenvalues.
    scale = math.sqrt(_sum_sq(lam)) + linear_norm
    if scale == 0.0:
        return SphereResult(point=start, value=0.0, iterations=0, converged=True)
    half_w = [0.5 * wi / scale for wi in w]
    gaps = [(li - lam[0]) / scale for li in lam]
    # Eigenvalues come sorted, so the bottom eigenspace is the first m.
    m = len([gap for gap in gaps if gap <= _CLUSTER_TOL])
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
        fill = start[:m]
        fill_norm = math.sqrt(_sum_sq(fill))
        if fill_norm <= _CLUSTER_TOL:
            fill = [1.0] + [0.0] * (m - 1)
            fill_norm = 1.0
        tau = math.sqrt(max(0.0, 1.0 - _sum_sq(y))) / fill_norm
        y[:m] = [tau * f for f in fill]
    else:
        g, hw = gaps[first:], half_w[first:]
        # ||x(t)|| falls from >= 1 at `low` to <= 1 at `high`.
        low = max(0.5 * w_bottom, max([abs(h) - gi for gi, h in zip(g, hw)]), 0.0)
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
            point=start, value=start_value, iterations=iterations, converged=converged
        )
    return SphereResult(point=y, value=value, iterations=iterations, converged=converged)


# List comprehensions rather than generators: the same sums in the same
# order, with less interpreter overhead on a handful of entries.
def _sum_sq(values) -> float:
    return sum([v * v for v in values])


def _value(lam, w, y) -> float:
    """sum(lam y^2) + w^T y on Python floats."""
    return sum([(li * yi + wi) * yi for li, wi, yi in zip(lam, w, y)])


def reduction_factors(rho: float) -> np.ndarray:
    """The constants that reduce the pattern step at power share rho in
    (0, 1] to the unit sphere, as one (5,) array:

    0. 2 sqrt(rho pi), the pinned constant coefficient;
    1. 2 sqrt((1 - rho) pi), the norm of the free coefficients;
    2. 4 sqrt((1 - rho) pi), the weight of the row's linear coupling;
    3. 4 pi (1 - rho), the scale of the quadratic per unit row power;
    4. 8 pi sqrt(rho (1 - rho)), the weight of the pinned coupling per
       unit row power.

    At rho = 1 every factor but the first is 0, so the reduced problem is
    zero and the coefficients stay where they are.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return np.array(
        [
            2.0 * math.sqrt(rho * math.pi),
            2.0 * math.sqrt((1.0 - rho) * math.pi),
            4.0 * math.sqrt((1.0 - rho) * math.pi),
            4.0 * math.pi * (1.0 - rho),
            8.0 * math.pi * math.sqrt(rho * (1.0 - rho)),
        ]
    )


def reduced_coefficient_problem(
    factors: np.ndarray,
    pinned: np.ndarray,
    linear_terms: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce one antenna's pattern subproblem to the unit sphere, in every
    run of a batch.

    With the constant-component coefficient pinned at 2*sqrt(rho*pi) and the
    remaining coefficients written as 2*sqrt((1-rho)*pi) times a unit vector,
    the quadratic-form objective in the full coefficient vector becomes a
    quadratic plus linear objective in that unit vector (constant terms
    dropped).  Per run b: `factors[b]` is :func:`reduction_factors` of its
    rho, `pinned[b]` (W - 1,) is Re quad_term[1:, 0], the coupling of the
    free coefficients to the pinned one, `linear_terms[b]` (D, W) the
    antenna's linear term and `rows[b]` (D,) its precoder row.  Returns
    (scales, linear), (B,) and (B, W - 1): run b's quadratic is scales[b] *
    Re quad_term[1:, 1:], so its eigenpairs are scales[b] times the
    eigenvalues of :func:`reduced_spectrum` with the same eigenvectors.
    """
    rows_conj = rows.conj()[:, None, :]
    row_powers = (rows_conj @ rows[:, :, None]).real[:, 0, 0]
    linear = factors[:, 2, None] * (rows_conj @ linear_terms[:, :, 1:]).real[:, 0]
    linear += (factors[:, 4] * row_powers)[:, None] * pinned
    return factors[:, 3] * row_powers, linear


def reduced_spectrum(quad_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Re quad_term[1:, 1:], the reduced quadratic of
    :func:`reduced_coefficient_problem` up to its scale, for one (W, W) quad
    term or a stack of them in one batched call."""
    return np.linalg.eigh(quad_terms[..., 1:, 1:].real)


def sphere_terms(quad_terms: np.ndarray, coefficients: np.ndarray) -> tuple:
    """The part of the reduced problem that a sweep cannot change, for one
    (W, W) quad term and (W,) coefficient vector or for stacks of them with
    the same leading axes: the :func:`reduced_spectrum` (eigenvalues,
    eigenvectors), the unit start (the free coefficients normalized, or e_0
    where they are all zero) and the start's coordinates in the eigenbasis,
    V^T start, as nested Python lists.  Everything is one array operation
    over the stack."""
    eigenvalues, eigenvectors = reduced_spectrum(quad_terms)
    tails = coefficients[..., 1:]
    norms = np.sqrt(tails[..., None, :] @ tails[..., :, None])[..., 0]
    empty = norms[..., 0] == 0.0
    starts = tails / np.where(empty[..., None], 1.0, norms)
    starts[empty] = np.eye(1, starts.shape[-1])[0]
    coordinates = (eigenvectors.swapaxes(-1, -2) @ starts[..., None])[..., 0]
    return eigenvalues, eigenvectors, starts, coordinates.tolist()


def lift_coefficients(points: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Full coefficient vectors from unit vectors, (..., W - 1) -> (..., W):
    constant component pinned at 2*sqrt(rho*pi), remainder scaled to carry
    the rest of the 4*pi power; `factors` (..., 5) from
    :func:`reduction_factors`."""
    lifted = np.empty((*points.shape[:-1], points.shape[-1] + 1))
    lifted[..., 0] = factors[..., 0]
    np.multiply(factors[..., 1, None], points, out=lifted[..., 1:])
    return lifted


def isotropic_coefficients(width: int, rho: float) -> np.ndarray:
    """Default starting coefficients: constant component at its pinned value
    and the entire remaining power on the first non-constant harmonic."""
    if width == 1:
        return np.array([2.0 * np.sqrt(np.pi)])
    start = np.zeros(width - 1)
    start[0] = 1.0
    return lift_coefficients(start, reduction_factors(rho))
