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
batch (:func:`reduced_coefficient_problem`).  :func:`secular_problems` then
sets up every run's secular equation at once, :func:`minimize_on_sphere`
runs the one part that stays per run, the Newton iteration on Python
floats, and :meth:`SecularProblems.finish` forms the points, their values
and the kept-start test over the batch again.  The synthesis step hands
each solve the root that its antenna's problem in the same run had in the
last sweep as the hint: the problem moves little from sweep to sweep, so
the iteration starts close to its root.

The array set-up and finish take every sum in Python's order, left to right
from 0, with `np.add.accumulate`, so that a run gets the bits of its problem
solved alone on Python floats: `np.add.reduce` sums pairwise along a
contiguous axis of 8 or more entries.
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


def _sums(terms: np.ndarray) -> np.ndarray:
    """Each row's sum over the last axis as Python's `sum` takes it: left to
    right, from 0 (which turns a sum of negative zeros into +0)."""
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


@dataclass
class SecularProblems:
    """The secular equations of a batch of sphere problems, set up over the
    (B, n) arrays of every run by :func:`secular_problems`.

    A run is settled when the set-up finds its point without a root: a zero
    problem keeps its start, and in the hard case the point is x(0) off the
    bottom eigenspace plus the bottom fill, already in `points`.  Every
    other run solves for its root over all entries, or, where w has no
    bottom component (`skips`), over those off the bottom eigenspace, the
    entries whose gap is not 0; `secular` marks the entries the roots set.
    """

    eigenvalues: np.ndarray  # (B, n)
    linear: np.ndarray  # (B, n)
    start_values: np.ndarray  # (B,) the objective at each start; 0 for a zero problem
    zero: np.ndarray  # (B,) zero problems, which keep their start
    settled: list[bool]
    skips: list[bool]  # the secular sum skips the bottom eigenspace
    half_w: np.ndarray  # (B, n) w / (2 scale)
    gaps: np.ndarray  # (B, n) (lam - lam_min) / scale, 0 across the bottom eigenspace
    low: np.ndarray  # (B,) the root's bracket
    high: np.ndarray
    points: np.ndarray  # (B, n) the settled points; 0 where x(t) has no component
    secular: np.ndarray | bool  # (B, n) the entries the roots set, or True for all

    def arguments(self) -> list[tuple]:
        """The arguments of :func:`minimize_on_sphere` for every run: the
        gaps and half_w its secular sum runs over, as Python lists, and the
        bracket; no entries for a settled run."""
        out = []
        for gaps, half_w, low, high, settled, skips in zip(
            self.gaps.tolist(), self.half_w.tolist(), self.low.tolist(), self.high.tolist(),
            self.settled, self.skips,
        ):
            if settled:
                out.append(((), (), 0.0, 0.0))
                continue
            if skips:
                first = gaps.count(0.0)
                gaps, half_w = gaps[first:], half_w[first:]
            out.append((gaps, half_w, low, high))
        return out

    def finish(self, roots) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every run's point from its secular root (a sequence of B floats,
        read for unsettled runs only): x(root) normalized, or its settled
        point, written into `points`.  Returns (points, values, kept), (B, n),
        (B,) and (B,): a run whose point scores above its start, or a zero
        problem, keeps its start, and its value is the start's."""
        points = np.divide(
            -self.half_w, self.gaps + np.array(roots)[:, None], out=self.points, where=self.secular
        )
        points /= np.sqrt(np.add.accumulate(points * points, axis=1)[:, -1:])
        values = _sums((self.eigenvalues * points + self.linear) * points)
        kept = self.zero | (values > self.start_values)
        return points, np.where(kept, self.start_values, values), kept


def secular_problems(eigenvalues, linear, starts, linear_norms) -> SecularProblems:
    """Set up the problems min sum(eigenvalues y^2) + linear^T y over
    ||y|| = 1 of a batch: everything before the Newton iteration, in array
    operations over the batch.

    Each problem is given in the eigenbasis of its B = V diag(eigenvalues)
    V^T: `eigenvalues[b]` is ascending, as `np.linalg.eigh` returns it, and
    `linear[b]` and the unit vector `starts[b]` are V^T v and V^T x0 for the
    caller's linear term v and start x0; all three are (B, n).
    `linear_norms[b]` is ||v|| as the caller computed it in its own
    coordinates, where it may differ from the norm of V^T v in the last
    bits; it sets the problem scale.  The start only breaks ties: in the
    hard case the bottom-eigenspace component points along the start's
    projection onto that space, or along the first eigenvector when that
    projection vanishes.  A batch with no run whose w lacks a bottom
    component, and no zero problem, skips the work of those cases.
    """
    lam, w, starts = (np.asarray(a, dtype=float) for a in (eigenvalues, linear, starts))
    if w.ndim != 2 or lam.shape != w.shape or starts.shape != w.shape:
        raise ValueError("inconsistent problem dimensions")
    # The start's squared norm and value, and ||B||_F^2, the squared
    # 2-norm of the eigenvalues.
    starts_sq = starts * starts
    start_values = lam * starts
    start_values += w
    start_values *= starts
    norms_sq, start_values, lam_sq = _sums(np.array([starts_sq, start_values, lam * lam]))
    if np.count_nonzero(np.abs(np.sqrt(norms_sq) - 1.0) > 1e-9):
        raise ValueError("start point must have unit norm")
    scales = np.sqrt(lam_sq)
    scales += linear_norms
    zero = scales == 0.0
    if np.count_nonzero(zero):  # scale 1 keeps a zero problem's arithmetic finite
        scales[zero] = 1.0
        start_values[zero] = 0.0
    scales = scales[:, None]
    half_w = 0.5 * w / scales
    gaps = (lam - lam[:, :1]) / scales
    # Eigenvalues come sorted, so the bottom eigenspace is a leading block.
    bottom = gaps <= _CLUSTER_TOL
    gaps[bottom] = 0.0
    half_w_sq = half_w * half_w
    # Sums of squares over the bottom eigenspace and over all entries (a
    # masked entry adds +0 and changes nothing).
    bottom_sq, high = np.add.accumulate(np.array([half_w_sq * bottom, half_w_sq]), axis=-1)[..., -1]
    w_bottom = 2.0 * np.sqrt(bottom_sq)
    # ||x(t)|| falls from >= 1 at `low` to <= 1 at `high`; 0.5 w_bottom >= 0,
    # so the bracket starts at t >= 0.
    reach = np.abs(half_w) - gaps
    skips = w_bottom <= _CLUSTER_TOL
    points = np.zeros_like(gaps)
    settled, secular = zero, True
    if np.count_nonzero(skips | zero):
        # No bottom component: the secular sum skips the bottom eigenspace,
        # where x(t) is finite at t = 0, and if x(0) is inside the sphere
        # there, a bottom eigenvector fills the norm (the hard case).
        top = ~bottom
        np.divide(-half_w, gaps, out=points, where=top)
        top_sq, points_sq, fill_sq = np.add.accumulate(
            np.array([half_w_sq * top, points * points, starts_sq * bottom]), axis=-1
        )[..., -1]
        skipped = bottom & skips[:, None]
        reach[skipped] = -np.inf
        w_bottom[skips] = 0.0
        high = np.where(skips, top_sq, high)
        hard = skips & (points_sq <= 1.0)
        if np.count_nonzero(hard):
            fill_norms = np.sqrt(fill_sq)
            unset = fill_norms <= _CLUSTER_TOL
            fills = np.where(unset[:, None], np.eye(1, w.shape[1]), starts)
            taus = np.sqrt(np.maximum(0.0, 1.0 - points_sq)) / np.where(unset, 1.0, fill_norms)
            points = np.where(bottom & hard[:, None], taus[:, None] * fills, points)
        settled = zero | hard
        secular = ~(skipped | settled[:, None])
    return SecularProblems(
        eigenvalues=lam,
        linear=w,
        start_values=start_values,
        zero=zero,
        settled=settled.tolist(),
        skips=skips.tolist(),
        half_w=half_w,
        gaps=gaps,
        low=np.maximum(0.5 * w_bottom, reach.max(axis=1)),
        high=np.sqrt(high),
        points=points,
        secular=secular,
    )


def minimize_on_sphere(
    gaps, half_w, low: float, high: float, hint: float = math.nan
) -> SphereResult:
    """The root t >= 0 of one run's secular equation ||x(t)|| = 1, with
    x(t) = -half_w / (gaps + t), by safeguarded Newton iteration on Python
    floats.

    `gaps` and `half_w` are the entries the secular sum runs over and
    [low, high] brackets the root, as :meth:`SecularProblems.arguments`
    gives them; empty entries mark a run the set-up settled, which takes no
    step.  The iteration starts at `hint`, such as the root of the same
    antenna's problem in the last sweep, when low < hint < high, and at
    `low` otherwise (no hint, NaN, or a hint on or outside the bracket),
    where it takes the bits it takes without a hint.  On a handful of
    entries numpy's per-call overhead would cost more than the arithmetic,
    and `** 2` here is libm's `pow`, which numpy's square does not match in
    every last bit.
    """
    iterations = 0
    if not gaps:
        return SphereResult(0.0, iterations, True)
    entries = list(zip(gaps, half_w))
    sqrt = math.sqrt
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
    return SphereResult(root, iterations, converged)


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
