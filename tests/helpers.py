"""Independent oracles used to pin expected values.

These deliberately avoid the library's own code paths: Legendre functions
come from the Rodrigues formula evaluated symbolically, surface integrals
from dense trapezoid grids, and channels from entry-by-entry loops or from
their far-field limit with shared per-path angles.  The isotropic and
harmonic patterns live here too: the library builds only Gaussian beams.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest
import sympy as sp

from trihybrid import wmmse
from trihybrid.channel import compose, to_spherical
from trihybrid.decomp import _LSTSQ_RCOND, _QR_CONDITION, rescale_per_antenna
from trihybrid.metrics import ConstraintReport
from trihybrid.sphharm import FOUR_PI, default_grid, sh_basis, truncation_length
from trihybrid.sphere_opt import (
    _CLUSTER_TOL,
    _MAX_NEWTON,
    _SECULAR_TOL,
    minimize_on_sphere,
    secular_problems,
)
from trihybrid.wmmse import _TINY_QUAD


def legendre_rodrigues(degree: int, order: int, x: float) -> float:
    """P_u^q(x) via the Rodrigues formula, no Condon-Shortley sign,
    evaluated in extended precision."""
    xs = sp.Symbol("x")
    poly = (xs**2 - 1) ** degree
    deriv = sp.diff(poly, xs, degree + order)
    expr = (1 - xs**2) ** sp.Rational(order, 2) * deriv / (
        2**degree * sp.factorial(degree)
    )
    return float(expr.evalf(50, subs={xs: sp.Float(x, 50)}))


def real_sh_oracle(degree: int, order: int, theta: float, phi: float) -> float:
    """Direct evaluation of the three-branch real harmonic definition."""
    q = abs(order)
    norm = math.sqrt(
        (2 * degree + 1)
        / (4 * math.pi)
        * math.factorial(degree - q)
        / math.factorial(degree + q)
    )
    p = legendre_rodrigues(degree, q, math.cos(theta))
    if order > 0:
        return math.sqrt(2.0) * norm * p * math.cos(q * phi)
    if order < 0:
        return math.sqrt(2.0) * norm * p * math.sin(q * phi)
    return norm * p


def trapezoid_sphere_integral(fn, n_theta: int = 400, n_phi: int = 800) -> float:
    """Dense trapezoid quadrature of fn(theta, phi) * sin(theta)."""
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi)
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    values = fn(tg, pg) * np.sin(tg)
    return float(np.trapezoid(np.trapezoid(values, phi, axis=1), theta))


def channel_entry_loops(geom, tx_patterns) -> np.ndarray:
    """Entry-by-entry reimplementation of the per-antenna channel with
    isotropic receive antennas."""
    lam = geom.wavelength
    zeta = geom.pathloss_exponent
    L, M, N = geom.distances.shape
    out = np.zeros((M, N), dtype=complex)
    for ell in range(L):
        for m in range(M):
            for n in range(N):
                d = geom.distances[ell, m, n]
                c = (lam / (4.0 * np.pi * d)) ** (zeta / 2.0) * np.exp(
                    1j * geom.phases[ell, m, n]
                )
                a = np.exp(
                    -2j * np.pi / lam * (d - geom.ref_distances[ell])
                ) / np.sqrt(N * M)
                g_bs = tx_patterns[n].gain(
                    geom.aod_inclination[ell, m, n], geom.aod_azimuth[ell, m, n]
                )
                out[m, n] += c * a * g_bs
    return np.sqrt(N * M / L) * out


def synthesize_gain(coeffs, theta, phi):
    """Gain synthesized from a harmonic coefficient vector at (theta, phi),
    on the library's basis (pinned against the Rodrigues oracle above)."""
    values = np.asarray(coeffs, dtype=float)
    degree = math.isqrt(values.size) - 1
    if truncation_length(degree) != values.size:
        raise ValueError(f"coefficient length {values.size} is not a perfect square")
    out = np.asarray(sh_basis(theta, phi, degree) @ values)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class OraclePattern:
    """A gain function times a scale, with the `gain` and `scaled` of a
    library pattern: the isotropic and harmonic reference patterns that the
    channel, reduction and normalization tests use beside the library's
    Gaussian beams."""

    raw: Callable
    scale: float = 1.0

    def gain(self, theta, phi):
        raw = self.raw(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
        out = self.scale * np.asarray(raw)
        return out if out.ndim else float(out)

    def scaled(self, factor: float) -> "OraclePattern":
        return replace(self, scale=self.scale * factor)


def isotropic_pattern() -> OraclePattern:
    """Unit gain in every direction."""
    return OraclePattern(lambda theta, phi: np.ones(np.broadcast_shapes(theta.shape, phi.shape)))


def harmonic_pattern(coeffs) -> OraclePattern:
    """The gain synthesized from `coeffs`; positivity is not checked."""
    return OraclePattern(lambda theta, phi: synthesize_gain(coeffs, theta, phi))


def _centered_response(layout, theta, phi, wavelength) -> np.ndarray:
    """Array response toward (theta, phi), referenced to the centroid."""
    direction = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    offsets = layout.positions - layout.centroid
    return np.exp(-2j * np.pi / wavelength * offsets @ direction) / np.sqrt(layout.size)


def far_field_channel(bs_layout, ue_layout, wavelength, path_gains, departure, arrival):
    """Far-field multipath channel between isotropic arrays.

    Every path has one complex gain and one (inclination, azimuth) pair per
    side, shared by all antenna pairs: (L, 2) `departure` angles and (L, 2)
    `arrival` angles, the latter pointing from the receiver back toward the
    transmitter side.  Responses are referenced to the array centroids.
    """
    departure = np.atleast_2d(np.asarray(departure, dtype=float))
    arrival = np.atleast_2d(np.asarray(arrival, dtype=float))
    L = len(path_gains)
    M, N = ue_layout.size, bs_layout.size
    out = np.zeros((M, N), dtype=complex)
    for ell in range(L):
        a_tx = _centered_response(bs_layout, *departure[ell], wavelength)
        # The wave continues through the receiver: evaluate the manifold at
        # the propagation direction, the antipode of the look-back angles.
        a_rx = _centered_response(
            ue_layout, np.pi - arrival[ell, 0], arrival[ell, 1] + np.pi, wavelength
        )
        out += path_gains[ell] * np.outer(a_rx, a_tx.conj())
    return np.sqrt(N * M / L) * out


def far_field_from_scenario(scenario, user: int) -> np.ndarray:
    """Far-field limit of a scenario user's channel with isotropic antennas.

    Per-path angles are taken between the array centroids and the path's
    hop point; path gains use the reference distances, so this is the
    long-distance limit of the exact per-pair assembly.
    """
    geom = scenario.geometries[user]
    bs_c = scenario.bs_layout.centroid
    ue_c = scenario.ue_layouts[user].centroid
    lam = scenario.wavelength
    departure, arrival, path_gains = [], [], []
    for ell in range(geom.n_paths):
        hop = ue_c if ell == 0 else scenario.scatterers[user][ell - 1]
        departure.append(to_spherical(hop - bs_c))
        arrival.append(to_spherical((bs_c if ell == 0 else hop) - ue_c))
        path_gains.append(
            (lam / (4.0 * np.pi * geom.ref_distances[ell])) ** (geom.pathloss_exponent / 2.0)
            * np.exp(1j * geom.phases[ell, 0, 0])
        )
    return far_field_channel(
        scenario.bs_layout, scenario.ue_layouts[user], lam, path_gains, departure, arrival
    )


def random_psd(rng, size: int, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian positive semidefinite matrix."""
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return scale * (a @ a.conj().T) / size


def random_complex(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def ball_samples(rng, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform samples from a complex ball of the given radius."""
    raw = rng.standard_normal((count, 2 * dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, count) ** (1.0 / (2 * dim))
    scaled = raw * radii[:, None]
    return scaled[:, :dim] + 1j * scaled[:, dim:]


def block_objective(quad, linear, row: np.ndarray, vector: np.ndarray) -> float:
    """||f||^2 v^T Q v + 2 Re(f^H L v) computed directly."""
    a = float(np.real(vector @ quad @ vector))
    dvec = linear @ vector
    return float(np.real(row @ row.conj()) * a + 2.0 * float(np.real(row.conj() @ dvec)))


def select_pattern_and_row_vectorized(linear, quads, inv_quads, budgets, rows=None):
    """The selection step of :func:`trihybrid.wmmse.select_pattern_and_row`
    computed on whole arrays, run by run: every candidate's boundary, step
    and value at once, then `argmin`.  The library scores every run of the
    batch in one pass; the two must agree bit for bit.  Same signature and
    return as the library's step; an `inv_quads` of None, as a sweep passes
    it for a single candidate, is formed here: 1/a, or inf where a is at
    most `_TINY_QUAD`."""
    if rows is None:
        rows = np.empty(np.shape(linear)[:2], dtype=complex)
    if inv_quads is None:
        inv_quads = [
            [1.0 / quad if quad > _TINY_QUAD else math.inf for quad in run]
            for run in np.asarray(quads).tolist()
        ]
    indices = []
    for b, budget in enumerate(budgets):
        norms_sq = np.square(np.abs(linear[b])).sum(axis=0)
        # A zero direction divides by 1 instead: its value is 0 whatever the step.
        boundary = np.sqrt(budget / np.where(norms_sq > 0.0, norms_sq, 1.0))
        steps = np.minimum(inv_quads[b], boundary)
        run_values = norms_sq * (np.asarray(quads[b]) * steps**2 - 2.0 * steps)
        best = int(run_values.argmin())
        rows[b] = -steps[best] * linear[b][:, best]
        indices.append(best)
    return indices, rows


def select_pattern_and_row_loop(linear, quads, inv_quads, budgets, rows=None):
    """The selection step of :func:`trihybrid.wmmse.select_pattern_and_row`
    scored one candidate at a time on Python floats: per run, each
    candidate's boundary, step and value in turn, keeping the first
    smallest value, or the first NaN as `argmin` does.  The squared norms
    are the library's pass, so that both sum the streams in one order; the
    rest shares no code with the library.  Same signature and return as
    the library's step."""
    if rows is None:
        rows = np.empty(np.shape(linear)[:2], dtype=complex)
    norms_sq = np.add.reduce(np.square(np.abs(linear)), axis=1).tolist()
    quads, inv_quads = np.asarray(quads).tolist(), np.asarray(inv_quads).tolist()
    indices = []
    for b, budget in enumerate(np.asarray(budgets, dtype=float).tolist()):
        best, best_value, best_step = 0, math.nan, 0.0
        for s, (norm_sq, quad, inv_quad) in enumerate(zip(norms_sq[b], quads[b], inv_quads[b])):
            # A zero direction divides by 1 instead: its value is 0 whatever the step.
            boundary = math.sqrt(budget / (norm_sq if norm_sq > 0.0 else 1.0))
            step = min(inv_quad, boundary)
            value = norm_sq * (quad * (step * step) - 2.0 * step)
            if value != value:  # NaN: argmin takes the first one
                best, best_value, best_step = s, value, step
                break
            if s == 0 or value < best_value:
                best, best_value, best_step = s, value, step
        # A complex step: a Python float times a complex array.
        rows[b] = complex(-best_step) * linear[b, :, best]
        indices.append(best)
    return indices, rows


def row_solution(quad_scalar: float, dvec: np.ndarray, budget: float):
    """Minimizer of a ||f||^2 + 2 Re(f^H d) over the power ball, and its
    value, for one direction on Python floats.

    The optimum is anti-parallel to d with step min(1/a, sqrt(P)/||d||);
    when the quadratic coefficient vanishes the step sits on the power
    boundary.  The synthesis step gives this row to the bit, zero rows
    included (:func:`synthesize_pattern_and_row_single` pins it).  The
    selection step sums ||d||^2 in its own way, so it matches this row to
    rounding where ||d||^2 is positive, and not at all where it is zero:
    this returns +0.0, while the selection step writes -step d, whose real
    parts carry the sign bit for an all-zero direction (as
    :func:`select_pattern_and_row_loop` pins) and whose entries stay tiny
    for an underflowed one.
    """
    norm_sq = float(np.vdot(dvec, dvec).real)
    if norm_sq == 0.0:
        return np.zeros_like(dvec), 0.0
    boundary = math.sqrt(budget / norm_sq)
    step = boundary if quad_scalar <= _TINY_QUAD else min(1.0 / quad_scalar, boundary)
    value = norm_sq * (quad_scalar * step**2 - 2.0 * step)
    return -step * dvec, value


@dataclass
class SphereSolution:
    point: np.ndarray | list  # or the start itself when it is kept
    value: float
    iterations: int  # Newton steps on the secular equation
    converged: bool  # the secular residual met its tolerance


def rotated_sphere_solve(eigenvalues, eigenvectors, linear, start) -> SphereSolution:
    """The library's sphere solve of x^T B x + linear^T x over ||x|| = 1 in
    the caller's coordinates: B = V diag(eigenvalues) V^T as `np.linalg.eigh`
    returns it, the problem rotated into the eigenbasis, set up and
    finished as a batch of one, and the point rotated back; a kept start
    comes back as a copy of `start`."""
    to_eigen = np.asarray(eigenvectors).T
    problems = secular_problems(
        np.asarray(eigenvalues)[None],
        (to_eigen @ linear)[None],
        (to_eigen @ start)[None],
        [math.sqrt(linear @ linear)],
    )
    (arguments,) = problems.arguments()
    result = minimize_on_sphere(*arguments)
    points, values, kept = problems.finish([result.root])
    point = start.copy() if kept[0] else eigenvectors @ points[0]
    return SphereSolution(point, float(values[0]), result.iterations, result.converged)


def _sum_sq(values) -> float:
    return sum(v * v for v in values)


def _value(lam, w, y) -> float:
    return sum((li * yi + wi) * yi for li, wi, yi in zip(lam, w, y))


def minimize_on_sphere_single(eigenvalues, linear, start, linear_norm: float) -> SphereSolution:
    """Global minimizer of sum(eigenvalues y^2) + linear^T y over ||y|| = 1,
    one problem in one call on Python floats: the set-up, the secular
    Newton solve or the hard case, and the finish.  The library sets up and
    finishes a batch of problems in array operations; each of its runs must
    give these bits.

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
        return SphereSolution(point=start, value=0.0, iterations=0, converged=True)
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
        return SphereSolution(
            point=start, value=start_value, iterations=iterations, converged=converged
        )
    return SphereSolution(point=y, value=value, iterations=iterations, converged=converged)


def sphere_solve_full(eigenvalues, eigenvectors, linear, start) -> SphereSolution:
    """Global minimizer of x^T B x + linear^T x over ||x|| = 1, B given by
    `np.linalg.eigh`'s eigenpairs, solved in one call per problem in the
    caller's coordinates: both projections, the secular Newton solve or the
    hard case, and the rotation back.  The library solves in the eigenbasis
    and rotates a batch at once; through :func:`rotated_sphere_solve` it
    must give these bits."""
    n = linear.shape[0]
    if eigenvalues.shape != (n,) or eigenvectors.shape != (n, n) or start.shape != (n,):
        raise ValueError("inconsistent problem dimensions")
    if abs(math.sqrt(start @ start) - 1.0) > 1e-9:
        raise ValueError("start point must have unit norm")
    lam = eigenvalues.tolist()
    w = (eigenvectors.T @ linear).tolist()
    start_y = (eigenvectors.T @ start).tolist()
    start_value = _value(lam, w, start_y)
    scale = math.sqrt(_sum_sq(lam)) + math.sqrt(linear @ linear)
    if scale == 0.0:
        return SphereSolution(point=start.copy(), value=0.0, iterations=0, converged=True)
    half_w = [0.5 * wi / scale for wi in w]
    gaps = [(li - lam[0]) / scale for li in lam]
    m = sum(gap <= _CLUSTER_TOL for gap in gaps)
    gaps[:m] = [0.0] * m
    w_bottom = 2.0 * math.sqrt(_sum_sq(half_w[:m]))
    y = [0.0] * n
    iterations = 0
    converged = True
    if w_bottom <= _CLUSTER_TOL:
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
            slope = slope_sum / (norm * norm_sq)
            t += (1.0 - 1.0 / norm) / slope
            if not low <= t <= high:
                t = 0.5 * (low + high)
        y[first:] = [-h / (gi + root) for gi, h in zip(g, hw)]
    norm = math.sqrt(_sum_sq(y))
    y = [yi / norm for yi in y]
    value = _value(lam, w, y)
    if value > start_value:
        return SphereSolution(
            point=start.copy(), value=start_value, iterations=iterations, converged=converged
        )
    return SphereSolution(
        point=eigenvectors @ y, value=value, iterations=iterations, converged=converged
    )


def synthesize_pattern_and_row_single(
    linear, row_quad: float, pinned, tail_spectrum, coefficients, budget: float, rho: float
):
    """The synthesis step of one run, one antenna: the closed-form row of
    :func:`row_solution`, then the pinned reduction, the start, the solve of
    :func:`sphere_solve_full` and the lift, each on that run's own arrays.
    `tail_spectrum()` returns Re Q[1:, 1:]'s eigenpairs.  Returns
    (coefficients, row).  Every run of
    :func:`trihybrid.wmmse.synthesize_pattern_and_row` without a root from
    an earlier solve must equal it bit for bit."""
    row, _ = row_solution(row_quad, linear @ coefficients, budget)
    width = coefficients.size
    if rho >= 1.0 or width == 1:
        return coefficients, row
    row_power = float(np.vdot(row, row).real)
    v1 = 4.0 * math.sqrt((1.0 - rho) * math.pi) * (row.conj() @ linear[:, 1:]).real
    v2 = (8.0 * math.pi * math.sqrt(rho * (1.0 - rho)) * row_power) * pinned
    scale = 4.0 * math.pi * (1.0 - rho) * row_power
    if scale == 0.0:
        return coefficients, row
    tail = coefficients[1:]
    tail_norm = math.sqrt(tail @ tail)
    if tail_norm == 0.0:
        start = np.zeros(width - 1)
        start[0] = 1.0
    else:
        start = tail / tail_norm
    eigenvalues, eigenvectors = tail_spectrum()
    point = sphere_solve_full(scale * eigenvalues, eigenvectors, v1 + v2, start).point
    lifted = np.empty(width)
    lifted[0] = 2.0 * math.sqrt(rho * math.pi)
    np.multiply(2.0 * math.sqrt((1.0 - rho) * math.pi), point, out=lifted[1:])
    return lifted, row


def _frobenius(a) -> float:
    """Frobenius norm of a matrix, summed along its flattened entries."""
    return float(np.linalg.norm(a.ravel(), axis=0))


def _relative_residual(f_d, f_rf, f_bb) -> float:
    denom = _frobenius(f_d)
    if denom == 0.0:
        return 0.0
    return _frobenius(f_d - f_rf @ f_bb) / denom


def svd_least_squares_2d(f_rf, f_d):
    """The minimum-norm least-squares fit f_rf^+ f_d of one analog stage,
    from its thin SVD with singular values at or below `_LSTSQ_RCOND`
    times the largest dropped."""
    u, singulars, vh = np.linalg.svd(f_rf, full_matrices=False)
    inverse = np.array([1.0 / s if s > _LSTSQ_RCOND * singulars[0] else 0.0 for s in singulars])
    return vh.conj().T @ (inverse[:, None] * (u.conj().T @ f_d))


def least_squares_2d(f_rf, f_d):
    """The least-squares fit of one analog stage as the library makes it:
    R^-1 Q^H f_d from its reduced QR when ||R||_F ||R^-1||_F is at most
    `_QR_CONDITION` and R has no zero pivot, else the SVD fit."""
    q, r = np.linalg.qr(f_rf)
    if np.all(np.diag(r) != 0.0):
        inverse = np.linalg.inv(r)
        if _frobenius(r) * _frobenius(inverse) <= _QR_CONDITION:
            return inverse @ (q.conj().T @ f_d)
    return svd_least_squares_2d(f_rf, f_d)


def decompose_precoder_loop(f_d, n_rf: int, power, iterations: int = 30, seed: int = 0):
    """The analog/digital decomposition of one precoder with its own
    two-dimensional alternation: (f_rf, f_bb, residual, scale, history).
    The library decomposes a stack in one batched alternation; each of its
    runs must equal this bit for bit."""
    n_antennas, n_streams = f_d.shape
    lead = min(n_rf, n_streams)
    phases = np.angle(f_d[:, :lead])
    if n_rf > lead:
        pad = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (n_antennas, n_rf - lead))
        phases = np.concatenate([phases, pad], axis=1)
    f_rf = np.exp(1j * phases) / np.sqrt(n_antennas)
    f_bb = least_squares_2d(f_rf, f_d)
    residual = _relative_residual(f_d, f_rf, f_bb)
    history = [residual]
    for _ in range(iterations):
        if residual < 1e-15:
            break
        f_rf = f_rf.copy()
        mismatch = f_d - f_rf @ f_bb
        for j in range(n_rf):
            gains = f_bb[j]
            gain_power = np.sum(gains.real**2 + gains.imag**2)
            match = mismatch @ gains.conj() + f_rf[:, j] * gain_power
            magnitude = np.abs(match) * np.sqrt(n_antennas)
            column = f_rf[:, j].copy()
            moved = magnitude > 0.0
            column[moved] = match[moved] / magnitude[moved]
            mismatch = mismatch + (f_rf[:, j] - column)[:, None] * gains
            f_rf[:, j] = column
        f_bb = least_squares_2d(f_rf, f_d)
        new_residual = _relative_residual(f_d, f_rf, f_bb)
        history.append(min(new_residual, residual))
        if new_residual >= residual - 1e-15:
            residual = min(new_residual, residual)
            break
        residual = new_residual
    f_bb, scale = rescale_per_antenna(f_rf, f_bb, power)
    return f_rf, f_bb, residual, scale, history


def antenna_terms(workspace, n: int, align: np.ndarray, run: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Antenna n's quad and linear terms in one run of the sweep workspace,
    formed from its current state: its running received signal, rows and
    pattern vectors, read at the pair of (antenna n, run).

    The coupling to the other antennas is R^T P_n minus antenna n's own
    signal conj(f_n) (a_n^T Q_n), and the alignment term `align` (from
    :func:`alignment_term`) is subtracted after it, all taken afresh, with
    no offset cached at the sweep start.
    """
    pair = workspace.slices[n].start + run
    quad = workspace.quad[pair]
    row = workspace.rows_conj[pair]
    cross = workspace.received_conj[run].T @ workspace.proj[pair] - row[:, None] * (
        workspace.antenna_matrix[pair] @ quad
    )
    return quad, cross - align


@contextlib.contextmanager
def block_objectives(effs, noise):
    """Record the WMMSE objective of a one-run solve, taken while the
    context is open, after every block of its loop: the receivers, the
    weights and each antenna step, in loop order.

    The receiver and weight blocks are read through spies on
    `wmmse.mmse_receivers` and `wmmse.mse_weights`, which see every
    iteration's covariances; before the first weight update the weights are
    the identity, as the loop starts them.  An antenna step is read through
    a spy on the step functions, as :func:`pattern_deviations` does: the
    objective is taken at the workspace's precoder and patterns right after
    the step, on the channels composed from `effs` with `noise`, under the
    iteration's receivers and weights.  Yields the list of objectives.
    """
    objectives = []
    held = {}  # the current receivers, weights and stream masks
    beta = np.ones(len(effs)) / len(effs)
    receivers_of, weights_of = wmmse.mmse_receivers, wmmse.mse_weights

    def objective(cov, receivers, weights):
        return wmmse.wmmse_objective(weights, wmmse.mse_matrix(cov, receivers), cov.masks, beta)

    def receivers_spy(cov):
        held["receivers"] = receivers = receivers_of(cov)
        held["masks"] = masks = cov.masks
        d_total = masks.shape[1]
        identity = np.broadcast_to(
            np.eye(d_total, dtype=complex), (*cov.own.shape[:2], d_total, d_total)
        )
        objectives.append(objective(cov, receivers, held.get("weights", identity))[0])
        return receivers

    def weights_spy(cov, receivers):
        held["weights"] = weights = weights_of(cov, receivers)
        objectives.append(objective(cov, receivers, weights)[0])
        return weights

    def recorded(step):
        def spied(workspace, n):
            step(workspace, n)
            patterns = workspace.patterns()
            channels = [compose(eff, patterns) for eff in effs]
            cov = wmmse.received_covariances(channels, workspace.precoders(), held["masks"], noise)
            objectives.append(objective(cov, held["receivers"][0], held["weights"][0]))

        return spied

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wmmse, "mmse_receivers", receivers_spy)
        patch.setattr(wmmse, "mse_weights", weights_spy)
        patch.setattr(wmmse, "_select_step", recorded(wmmse._select_step))
        patch.setattr(wmmse, "_synthesize_step", recorded(wmmse._synthesize_step))
        yield objectives


@contextlib.contextmanager
def pattern_deviations():
    """Record how far every antenna step of the WMMSE loop, taken while the
    context is open, leaves the stepped antenna from its pattern constraint.

    Each step's new pattern vectors are read from the sweep workspace right
    after the step: a selection row's largest entrywise distance from the
    one-hot vector of its largest entry, and a synthesis row's
    |sum of squares - 4 pi|.  A sweep steps every antenna once and no later
    step of it touches that antenna's row, so the values bound the
    constraint of the antenna matrix at the end of every outer iteration.
    Yields {"sel": [...], "syn": [...]}, one maximum over the stepped runs
    per step.
    """
    deviations = {"sel": [], "syn": []}

    def one_hot(rows):
        return float(np.max(np.abs(rows - np.eye(rows.shape[1])[rows.argmax(axis=1)])))

    def sphere_power(rows):
        return float(np.max(np.abs(np.sum(rows**2, axis=1) - FOUR_PI)))

    def recorded(step, mode, deviation):
        def spied(workspace, n):
            step(workspace, n)
            deviations[mode].append(deviation(workspace.antenna_matrix[workspace.slices[n]]))

        return spied

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wmmse, "_select_step", recorded(wmmse._select_step, "sel", one_hot))
        patch.setattr(
            wmmse, "_synthesize_step", recorded(wmmse._synthesize_step, "syn", sphere_power)
        )
        yield deviations


def alignment_term(effs, receivers, weights, beta, n: int) -> np.ndarray:
    """Antenna n's alignment term sum_k beta_k W_k U_k^H H_{k,n}, (D, W),
    user by user, from the embedded receivers (K, M, D) and weights
    (K, D, D) and each user's lifted block of antenna n."""
    return sum(
        beta[k] * (weights[k] @ receivers[k].conj().T @ eff.blocks()[:, n, :])
        for k, eff in enumerate(effs)
    )


def hermitian_sweep_terms(batch, receivers, beta):
    """A selection sweep's step quads and offsets built from the full
    Hermitian quad terms, as the workspace built them before it kept the
    raw product: every pair's Q = (M + M^H) / 2 of M = B^H P, its
    :func:`wmmse.candidate_quads` (the real diagonal and None for one
    candidate), and the offsets with the own-signal part conj(f_n)
    (a_n^T Q_n) taken by a product with the pattern vectors.  Fresh arrays,
    from the batch at the start of the sweep and its new receivers.
    Returns (quads, inverse quads or None, offsets)."""
    layout, received, weights = batch.layout, batch.cov.received, batch.weights
    n_runs, n_users, n_rx, _ = received.shape
    beta = np.asarray(beta, dtype=float)
    receivers_h = receivers.conj().swapaxes(-1, -2)
    proj = beta[:, None, None] * (receivers @ weights @ receivers_h)
    align = (weights @ receivers_h).transpose(0, 2, 1, 3).reshape(n_runs, -1, n_users * n_rx)
    stream_beta = beta @ batch.masks
    projs, offsets = [], []
    for (group, _, _), lifted in zip(layout.groups, batch.lifted):
        flat = lifted.reshape(len(lifted), n_users * n_rx, -1)
        projs.append((proj[group] @ lifted).reshape(len(lifted), n_users * n_rx, -1))
        offsets.append(stream_beta[:, None] * (align[group] @ flat))
    proj, offset = layout.per_antenna(projs), layout.per_antenna(offsets)
    quad = batch.blocks_conj.swapaxes(-1, -2) @ proj
    quad = (quad + quad.conj().swapaxes(-1, -2)) * 0.5
    vectors = batch.antenna_matrix[layout.antenna_major]
    rows_conj = batch.f_d[layout.antenna_major].conj()
    offset = offset + rows_conj[..., None] * (vectors[:, None, :] @ quad)
    if quad.shape[-1] == 1:
        return quad[:, :, 0].real, None, offset
    return (*wmmse.candidate_quads(quad), offset)


# ---------------------------------------------------------------------------
# Per-user weighted-MMSE loops: references for the batched covariance pass
# ---------------------------------------------------------------------------

def split_precoder(f_d: np.ndarray, stream_counts) -> list[np.ndarray]:
    """Per-user column blocks of a stacked precoder."""
    offsets = np.cumsum([0, *stream_counts])
    return [f_d[:, offsets[k] : offsets[k + 1]] for k in range(len(stream_counts))]


def weighted_sum_rate_loop(channels, precoders, noise_powers, weights) -> tuple[float, np.ndarray]:
    """Weighted sum of per-user log-det rates, user by user."""
    K = len(channels)
    noise_powers = np.broadcast_to(np.asarray(noise_powers, dtype=float), (K,))
    rates = np.zeros(K)
    for k, h in enumerate(channels):
        interference = noise_powers[k] * np.eye(h.shape[0], dtype=complex)
        for i, p in enumerate(precoders):
            if i != k:
                s = h @ p
                interference += s @ s.conj().T
        signal = h @ precoders[k]
        total = interference + signal @ signal.conj().T
        rates[k] = (
            np.linalg.slogdet(total)[1] - np.linalg.slogdet(interference)[1]
        ) / np.log(2.0)
    return float(np.asarray(weights, dtype=float) @ rates), rates


def mmse_receivers_loop(channels, precoders, noise_powers) -> list[np.ndarray]:
    """Per-user linear MMSE receive filters, M x D_k each."""
    K = len(channels)
    noise_powers = np.broadcast_to(np.asarray(noise_powers, dtype=float), (K,))
    receivers = []
    for k, h in enumerate(channels):
        cov = noise_powers[k] * np.eye(h.shape[0], dtype=complex)
        for p in precoders:
            s = h @ p
            cov += s @ s.conj().T
        receivers.append(np.linalg.solve(cov, h @ precoders[k]))
    return receivers


def mse_matrix_loop(channel, precoders, k: int, receiver, noise_power: float) -> np.ndarray:
    """Error covariance of user k's streams under the given receive filter."""
    signal = channel @ precoders[k]
    mismatch = np.eye(signal.shape[1], dtype=complex) - receiver.conj().T @ signal
    cov = noise_power * np.eye(channel.shape[0], dtype=complex)
    for i, p in enumerate(precoders):
        if i != k:
            s = channel @ p
            cov += s @ s.conj().T
    return mismatch @ mismatch.conj().T + receiver.conj().T @ cov @ receiver


def mse_weights_loop(channels, precoders, receivers) -> list[np.ndarray]:
    """Per-user weight matrices (I - U^H H F)^{-1}, symmetrized."""
    out = []
    for k, (h, u) in enumerate(zip(channels, receivers)):
        gram = np.eye(precoders[k].shape[1], dtype=complex) - u.conj().T @ h @ precoders[k]
        w = np.linalg.inv(gram)
        out.append(0.5 * (w + w.conj().T))
    return out


def wmmse_objective_loop(weight_matrices, mse_matrices, beta) -> float:
    """sum_k beta_k (tr(W_k E_k) - ln det W_k)."""
    return float(
        sum(
            b * (float(np.trace(w @ e).real) - np.linalg.slogdet(w)[1])
            for b, w, e in zip(beta, weight_matrices, mse_matrices)
        )
    )


def embed_receivers(receivers, stream_counts) -> np.ndarray:
    """(K, M, D) stack of per-user M x D_k filters, zero outside each
    user's streams."""
    offsets = np.cumsum([0, *stream_counts])
    out = np.zeros((len(receivers), receivers[0].shape[0], offsets[-1]), dtype=complex)
    for k, u in enumerate(receivers):
        out[k, :, offsets[k] : offsets[k + 1]] = u
    return out


def embed_weights(weights, stream_counts) -> np.ndarray:
    """(K, D, D) stack of per-user D_k x D_k matrices, identity outside
    each user's diagonal block."""
    offsets = np.cumsum([0, *stream_counts])
    out = np.tile(np.eye(offsets[-1], dtype=complex), (len(weights), 1, 1))
    for k, w in enumerate(weights):
        out[k, offsets[k] : offsets[k + 1], offsets[k] : offsets[k + 1]] = w
    return out


def _stream_slice(k: int, stream_counts) -> slice:
    offsets = np.cumsum([0, *stream_counts])
    return slice(offsets[k], offsets[k + 1])


def receiver_block(receivers: np.ndarray, k: int, stream_counts) -> np.ndarray:
    """User k's M x D_k filter from a (K, M, D) stack."""
    return receivers[k, :, _stream_slice(k, stream_counts)]


def stream_block(stacked: np.ndarray, k: int, stream_counts) -> np.ndarray:
    """User k's D_k x D_k block of a (K, D, D) stack."""
    cols = _stream_slice(k, stream_counts)
    return stacked[k, cols, cols]


# ---------------------------------------------------------------------------
# One row at a time: references for the runner's evaluation stage
# ---------------------------------------------------------------------------

def audit_one(state, candidates=None) -> ConstraintReport:
    """One state's constraint report, each check on its own arrays: the
    reference of the batched :func:`metrics.audit_constraints`."""
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
        min_gain = float(np.min(basis @ matrix.T))
    return ConstraintReport(power_violation, modulus_deviation, antenna_deviation, min_gain)


def leakage_one(channels, f_d: np.ndarray, stream_counts) -> float:
    """One precoder's largest relative cross-user leakage
    ||H_i F_k|| / (||H_i|| ||F_k||), pair by pair."""
    worst = 0.0
    for k, block in enumerate(split_precoder(f_d, stream_counts)):
        block_norm = np.linalg.norm(block)
        if block_norm == 0.0:
            continue
        for i, h in enumerate(channels):
            if i != k:
                rel = np.linalg.norm(h @ block) / (np.linalg.norm(h) * block_norm)
                worst = max(worst, float(rel))
    return worst


def row_numbers_one(cell, method: str) -> tuple:
    """A decomposed row's (digital rate, hybrid rate, constraint report,
    leakage or None), evaluated for that row alone: its channels composed
    user by user, one covariance pass and one rate per precoder, its own
    audit and leakage.  The reference of the runner's evaluation stage."""
    state, _ = cell.solution(method)
    if method in ("model1", "model2"):
        audit_set = cell.sweep.candidates if method == "model1" else None
        channels = [compose(e, state.antenna_matrix) for e in cell.runs[method].effs]
    else:
        audit_set = cell.sweep.baseline_set
        channels = cell.sweep.baseline_channels(cell.value, cell.seed)
    masks, noise = wmmse.stream_masks(cell.streams), cell.solver.noise
    digital, hybrid = (
        wmmse.weighted_sum_rate(wmmse.received_covariances(channels, f_d, masks, noise))[0]
        for f_d in (state.f_d, state.f_rf @ state.f_bb)
    )
    leakage = leakage_one(channels, state.f_d, cell.streams) if method == "zf" else None
    return digital, hybrid, audit_one(state, audit_set), leakage
