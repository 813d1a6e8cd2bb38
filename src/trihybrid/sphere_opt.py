"""Exact minimization of a quadratic over the unit sphere for the reduced
coefficient step, for every run of a batch.

Minimizes x^T B x + v^T x subject to ||x|| = 1 globally (Moré & Sorensen,
"Computing a trust region step", 1983; Hager, "Minimizing a quadratic over a
sphere", SIAM J. Optim. 2001).  With B = Q diag(lam) Q^T and w = Q^T v, a
global minimizer is x = -Q (diag(lam) - mu)^{-1} w / 2 for the multiplier
mu < lam_min at which that vector has unit norm.  Writing t = lam_min - mu,
the root of the secular equation 1/||x(t)|| = 1 is found by safeguarded
Newton iteration, started from the left end of a bracket of the root or
from a hint inside it.  In the hard case, where w has no component in the
bottom eigenspace and ||x|| stays below one as mu approaches lam_min,
mu = lam_min and a bottom eigenvector fills the missing norm.

The solver works in the eigenbasis of B and decomposes nothing itself.  In
the reduced pattern step B is a positive scalar times Re Q[1:, 1:] of the
antenna's quad term Q, which is fixed for a whole antenna sweep, so the
sweep decomposes every antenna's Re Q[1:, 1:] in one batched call.  The
synthesis step of a lockstep batch reduces every run's problem to the
sphere and rotates it into its eigenbasis in array operations over the
batch (:func:`reduced_coefficient_problem`); :func:`minimize_on_sphere`
then solves each run's problem alone on Python floats, its set-up, Newton
iteration and finish, whatever the batch size.  The synthesis step hands
each solve the root that its antenna's problem in the same run had in the
last sweep as the hint: the problem moves little from sweep to sweep, so
the iteration starts close to its root.
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
    root: float  # t = lam_min - mu; 0 where the set-up found the point itself
    iterations: int  # Newton steps on the secular equation
    converged: bool  # the secular residual met its tolerance
    point: list | None  # the unit minimizer in the eigenbasis; None: the start is kept
    value: float  # the objective at `point`, or at the start when it is kept


def minimize_on_sphere(
    eigenvalues, linear, start, linear_norm: float, hint: float = math.nan
) -> SphereResult:
    """Minimize sum(eigenvalues y^2) + linear^T y over ||y|| = 1 for one
    run, on Python floats: the set-up, the secular root by safeguarded
    Newton iteration, and the finish.

    The problem is given in the eigenbasis of B = V diag(eigenvalues) V^T:
    `eigenvalues` is ascending, as `np.linalg.eigh` returns it, and
    `linear` and the unit vector `start` are V^T v and V^T x0 for the
    caller's linear term v and start x0; all three are sequences of n
    Python floats, as `tolist` gives them.  `linear_norm` is ||v|| as the
    caller computed it in its own coordinates, where it may differ from
    the norm of V^T v in the last bits; it sets the problem scale.  The
    start only breaks ties: in the hard case the bottom-eigenspace
    component points along the start's projection onto that space, or
    along the first eigenvector when that projection vanishes.

    The Newton iteration starts at `hint`, such as the root of the same
    antenna's problem in the last sweep, when it lies strictly inside the
    root's bracket, and at the bracket's left end otherwise (no hint, NaN,
    or a hint on or outside the bracket), where it takes the bits it takes
    without a hint.  A zero problem, and the hard case, whose point the
    set-up finds itself, take no step and report root 0.  The result's
    point is None, and its value the start's, when the solved point scores
    above the start (a zero problem scores 0), so that the caller hands
    back its own start vector instead of rotating V^T x0 back.

    Every sum runs left to right from 0.0, whatever the Python version,
    and `** 2` is libm's `pow`; on a handful of entries numpy's per-call
    overhead would cost more than the arithmetic.
    """
    n = len(linear)
    if len(eigenvalues) != n or len(start) != n:
        raise ValueError("inconsistent problem dimensions")
    # The start's squared norm and value, and ||B||_F^2, the squared
    # 2-norm of the eigenvalues.
    norm_sq = start_value = lam_sq = 0.0
    for li, wi, si in zip(eigenvalues, linear, start):
        norm_sq += si * si
        start_value += (li * si + wi) * si
        lam_sq += li * li
    sqrt = math.sqrt
    if abs(sqrt(norm_sq) - 1.0) > 1e-9:
        raise ValueError("start point must have unit norm")
    scale = sqrt(lam_sq) + linear_norm
    if scale == 0.0:
        return SphereResult(0.0, 0, True, None, 0.0)

    # half_w = w / (2 scale) and the gaps (lam - lam_min) / scale, 0 across
    # the bottom eigenspace, a leading block of m since eigenvalues come
    # sorted.
    lam_min = eigenvalues[0]
    half_w = [0.5 * wi / scale for wi in linear]
    gaps = [(li - lam_min) / scale for li in eigenvalues]
    m = 0
    bottom_sq = 0.0
    while m < n and gaps[m] <= _CLUSTER_TOL:
        gaps[m] = 0.0
        bottom_sq += half_w[m] * half_w[m]
        m += 1
    w_bottom = 2.0 * sqrt(bottom_sq)
    first = 0
    if w_bottom <= _CLUSTER_TOL:
        # No bottom component: the secular sum skips the bottom
        # eigenspace, where x(t) is finite at t = 0, and if x(0) is inside
        # the sphere there, a bottom eigenvector fills the norm (the hard
        # case).
        w_bottom, first = 0.0, m
        point = [0.0] * m + [-h / g for g, h in zip(gaps[m:], half_w[m:])]
        points_sq = 0.0
        for y in point:
            points_sq += y * y
        if points_sq <= 1.0:
            fill_sq = 0.0
            for si in start[:m]:
                fill_sq += si * si
            fill_norm = sqrt(fill_sq)
            tau = sqrt(max(0.0, 1.0 - points_sq))
            if fill_norm <= _CLUSTER_TOL:
                point[0] = tau
            else:
                tau /= fill_norm
                point[:m] = [tau * si for si in start[:m]]
            return _finish(eigenvalues, linear, point, start_value, 0.0, 0, True)

    # x(t) = -half_w / (gaps + t) over the entries from `first`; ||x(t)||
    # falls from >= 1 at `low` to <= 1 at `high`.
    entries = list(zip(gaps[first:], half_w[first:]))
    high_sq = 0.0
    reach = -math.inf
    for g, h in entries:
        high_sq += h * h
        r = abs(h) - g
        if r > reach:
            reach = r
    low = max(0.5 * w_bottom, reach)
    high = sqrt(high_sq)

    iterations = 0
    t = root = hint if low < hint < high else low
    converged = False
    while iterations < _MAX_NEWTON:
        iterations += 1
        root = t
        norm_sq = slope_sum = 0.0
        for gi, h in entries:
            denom = gi + t
            sq = (h / denom) ** 2
            norm_sq += sq
            slope_sum += sq / denom
        norm = sqrt(norm_sq)
        if abs(norm - 1.0) <= _SECULAR_TOL:
            converged = True
            break
        if norm > 1.0:
            low = t
        else:
            high = t
        # 1/||x(t)|| is concave and increasing in t, so Newton steps from
        # the left of the root stay left of it, and a step from a start
        # right of it lands left of it; bisect if a step leaves the
        # bracket.
        slope = slope_sum / (norm * norm_sq)
        t += (1.0 - 1.0 / norm) / slope
        if not low <= t <= high:
            t = 0.5 * (low + high)
    point = [0.0] * first + [-h / (gi + root) for gi, h in entries]
    return _finish(eigenvalues, linear, point, start_value, root, iterations, converged)


def _finish(lam, w, point, start_value, root, iterations, converged) -> SphereResult:
    """The result for x = `point`: x / ||x|| and its value, or the start
    when that scores above it."""
    norm_sq = 0.0
    for y in point:
        norm_sq += y * y
    norm = math.sqrt(norm_sq)
    unit = []
    value = 0.0
    for li, wi, y in zip(lam, w, point):
        y /= norm
        unit.append(y)
        value += (li * y + wi) * y
    if value > start_value:
        return SphereResult(root, iterations, converged, None, start_value)
    return SphereResult(root, iterations, converged, unit, value)


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
    V^T start.  Everything is one array operation over the stack."""
    eigenvalues, eigenvectors = reduced_spectrum(quad_terms)
    tails = coefficients[..., 1:]
    norms = np.sqrt(tails[..., None, :] @ tails[..., :, None])[..., 0]
    empty = norms[..., 0] == 0.0
    starts = tails / np.where(empty[..., None], 1.0, norms)
    starts[empty] = np.eye(1, starts.shape[-1])[0]
    coordinates = (eigenvectors.swapaxes(-1, -2) @ starts[..., None])[..., 0]
    return eigenvalues, eigenvectors, starts, coordinates


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
