import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    block_objective,
    minimize_on_sphere_single,
    random_complex,
    random_psd,
    rotated_sphere_solve,
    secular_equation,
    sphere_solve_full,
)
from trihybrid.sphere_opt import (
    _SECULAR_TOL,
    isotropic_coefficients,
    lift_coefficients,
    minimize_on_sphere,
    reduced_coefficient_problem,
    reduced_spectrum,
    reduction_factors,
)
from trihybrid.sphharm import FOUR_PI


class TestMinimize:
    def test_linear_objective_closed_form(self):
        v = np.array([3.0, 4.0, 0.0])
        result = _solve(np.zeros((3, 3)), v, np.array([0.0, 0.0, 1.0]))
        assert result.value == pytest.approx(-5.0, abs=1e-12)
        assert_allclose(result.point, -v / 5.0, atol=1e-12)

    def test_rayleigh_quotient(self, rng):
        lam = np.array([2.0, -1.5, 0.3, 4.0])
        start = rng.standard_normal(4)
        start /= np.linalg.norm(start)
        result = _solve(np.diag(lam), np.zeros(4), start)
        assert result.value == pytest.approx(-1.5, abs=1e-12)
        assert abs(abs(result.point[1]) - 1.0) < 1e-12
        # The sign follows the start's component in the bottom eigenspace.
        assert result.point[1] * start[1] > 0.0

    def test_hard_case_simple_bottom_eigenvalue(self):
        # v has no component along the bottom eigenvector e_0 and the
        # stationary point of the shifted problem lies inside the sphere, so
        # the minimizer is that point plus +-tau e_0.
        lam = np.array([1.0, 2.0, 3.0])
        v = np.array([0.0, 0.8, 1.2])
        tail = -v[1:] / (2.0 * (lam[1:] - lam[0]))  # (-0.4, -0.3)
        tau = np.sqrt(1.0 - tail @ tail)
        start = np.array([-0.6, 0.0, 0.8])
        result = _solve(np.diag(lam), v, start)
        expected = np.concatenate([[-tau], tail])  # sign of start[0]
        assert_allclose(result.point, expected, atol=1e-12)
        assert result.value == pytest.approx(
            expected @ np.diag(lam) @ expected + v @ expected, abs=1e-12
        )
        assert result.converged and result.iterations == 0

    def test_hard_case_repeated_bottom_eigenvalue(self, rng):
        # A rotated problem whose smallest eigenvalue has multiplicity three
        # and whose linear term lies in the top eigenspace: every minimizer
        # has the analytic top part and bottom part of norm tau.
        lam = np.array([-1.0, -1.0, -1.0, 0.5, 2.0])
        rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        quad = rotation @ np.diag(lam) @ rotation.T
        w = np.array([0.0, 0.0, 0.0, 1.5, -2.0])
        tail = -w[3:] / (2.0 * (lam[3:] - lam[0]))  # (-0.5, 1/3)
        tau = np.sqrt(1.0 - tail @ tail)
        start = rng.standard_normal(5)
        start /= np.linalg.norm(start)
        result = _solve(quad, rotation @ w, start)
        y = rotation.T @ result.point
        assert_allclose(y[3:], tail, atol=1e-9)
        assert np.linalg.norm(y[:3]) == pytest.approx(tau, abs=1e-9)
        # The bottom part follows the start's projection onto that space.
        bottom_start = (rotation.T @ start)[:3]
        assert_allclose(y[:3], tau * bottom_start / np.linalg.norm(bottom_start), atol=1e-9)
        expected = lam[0] * tau**2 + lam[3:] @ tail**2 + w[3:] @ tail
        assert result.value == pytest.approx(expected, abs=1e-12)

    def test_near_hard_case_is_continuous(self):
        # A vanishing bottom component of v moves the minimizer continuously
        # onto the hard-case solution.
        lam = np.array([1.0, 2.0, 3.0])
        start = np.array([-0.6, 0.0, 0.8])
        hard = _solve(np.diag(lam), np.array([0.0, 0.8, 1.2]), start)
        near = _solve(np.diag(lam), np.array([1e-6, 0.8, 1.2]), start)
        assert near.converged and near.iterations > 0
        assert_allclose(near.point, hard.point, atol=1e-5)

    def test_zero_problem_keeps_start(self, rng):
        start = rng.standard_normal(5)
        start /= np.linalg.norm(start)
        result = _solve(np.zeros((5, 5)), np.zeros(5), start)
        assert_allclose(result.point, start)
        assert result.value == 0.0
        assert result.converged

    def test_never_worse_than_start(self, rng):
        for _ in range(10):
            n = 6
            a = rng.standard_normal((n, n))
            quad = (a + a.T) / 2
            v = rng.standard_normal(n)
            start = rng.standard_normal(n)
            start /= np.linalg.norm(start)
            result = _solve(quad, v, start)
            assert result.value <= _objective(quad, v, start) + 1e-12

    def test_small_brute_force(self, rng):
        # 3-dimensional sphere: dense sampling is a meaningful oracle.
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            quad = (a + a.T) / 2
            v = rng.standard_normal(3)
            start = rng.standard_normal(3)
            start /= np.linalg.norm(start)
            result = _solve(quad, v, start)
            pts = rng.standard_normal((1_000_000, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            sampled = np.einsum("ij,jk,ik->i", pts, quad, pts) + pts @ v
            assert result.value <= float(np.min(sampled)) + 1e-4

    def test_scale_invariance_of_iterates(self, rng):
        a = rng.standard_normal((5, 5))
        quad = (a + a.T) / 2
        v = rng.standard_normal(5)
        start = rng.standard_normal(5)
        start /= np.linalg.norm(start)
        base = _solve(quad, v, start)
        for factor in (1e-8, 3.7, 1e6):
            scaled = _solve(factor * quad, factor * v, start)
            assert_allclose(scaled.point, base.point, atol=1e-9)
            assert scaled.value == pytest.approx(factor * base.value, rel=1e-9)

    def test_start_norm_validated(self):
        with pytest.raises(ValueError, match="unit norm"):
            _solve(np.zeros((2, 2)), np.zeros(2), np.array([1.0, 1.0]))

    def test_dimensions_validated(self):
        with pytest.raises(ValueError, match="dimensions"):
            minimize_on_sphere([0.0] * 3, [0.0] * 2, [1.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="dimensions"):
            minimize_on_sphere([0.0] * 2, [0.0] * 3, [1.0, 0.0, 0.0], 0.0)
        with pytest.raises(ValueError, match="dimensions"):
            minimize_on_sphere([0.0] * 3, [0.0] * 3, [1.0, 0.0], 0.0)
        # A batch of one where one problem is expected.
        with pytest.raises(ValueError, match="dimensions"):
            minimize_on_sphere([[0.0] * 3], [[0.0] * 3], [1.0, 0.0, 0.0], 0.0)

    def test_kept_start_is_handed_back_itself(self):
        # The solve flags a kept start with no point, so that the caller
        # hands back its own start vector instead of rotating the eigenbasis
        # coordinates back; the start's value comes with it.
        points, values, kept = _finish([[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0]] * 2, [[0.6, 0.8]] * 2)
        assert kept == [True, False]
        assert values[0] == 0.0
        assert_allclose(np.abs(points[1]), [1.0, 0.0], atol=1e-12)
        # A start a rounding error better than the point the solve finds.
        points, values, kept = _finish([[-1.0, 2.0]], [[0.0, 0.0]], [[1.0 + 1e-12, 0.0]])
        assert kept == [True]
        assert values[0] == -(1.0 + 1e-12) * (1.0 + 1e-12)
        assert points[0] is None

    def test_sums_run_left_to_right_from_zero(self):
        # The start is kept, so the value is its start value, a sum of one
        # term near -1 and two terms of 1e-16, each below half an ulp of
        # the first.  Left to right, from 0.0, the small terms round away
        # one at a time; a compensated sum (the built-in `sum` of floats
        # from Python 3.12 on) or an exact one keeps their total.  The
        # library and the test oracle both give the sequential bits.
        tiny = math.sqrt(5e-17)
        lam, w, start = [-1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [1.0 + 1e-12, tiny, tiny]
        terms = [(li * si + wi) * si for li, wi, si in zip(lam, w, start)]
        sequential = 0.0
        for term in terms:
            sequential += term
        assert sequential == terms[0]
        assert math.fsum(terms) != sequential
        result = minimize_on_sphere(lam, w, start, 0.0)
        assert result.point is None
        assert result.value.hex() == sequential.hex() == "-0x1.0000000002330p+0"
        want = minimize_on_sphere_single(lam, w, start, 0.0)
        assert want.point is start and want.value.hex() == sequential.hex()


def _finish(eigenvalues, linear, starts):
    """The points, values and kept flags of problems in the eigenbasis, each
    solved alone with the norm of its own linear term; a kept start has no
    point."""
    results = [
        minimize_on_sphere(lam, w, start, math.sqrt(sum(wi * wi for wi in w)))
        for lam, w, start in zip(eigenvalues, linear, starts)
    ]
    return (
        [result.point for result in results],
        [result.value for result in results],
        [result.point is None for result in results],
    )


class TestReducedProblem:
    def test_rho_domain(self, rng):
        for rho in (0.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                reduction_factors(rho)
        # rho = 1 pins the whole pattern: the reduced problem is zero.
        quad, linear_term = _random_terms(rng, 4)
        scale, linear = _reduce(quad, linear_term, np.ones(2, dtype=complex), 1.0)
        assert scale == 0.0
        assert_allclose(linear, 0.0)

    def test_zero_row_zeroes_problem(self, rng):
        quad, linear_term = _random_terms(rng, 4)
        scale, linear = _reduce(quad, linear_term, np.zeros(2, dtype=complex), 0.5)
        assert scale == 0.0
        assert_allclose(linear, 0.0)

    def test_prefactors_vanish_as_rho_approaches_one(self, rng):
        quad, linear_term = _random_terms(rng, 4)
        row = random_complex(rng, 2)
        sizes = []
        for rho in (0.9, 0.99, 0.999):
            scale, linear = _reduce(quad, linear_term, row, rho)
            quadratic = _reduced_quadratic(quad, scale)
            sizes.append(np.linalg.norm(quadratic) + np.linalg.norm(linear))
        assert sizes[0] > sizes[1] > sizes[2]

    def test_lift_matches_full_objective_up_to_constant(self, rng):
        # The reduced objective and the full per-antenna block objective at
        # the lifted coefficients differ by a constant in the free variables.
        width = 5
        quad, linear_term = _random_terms(rng, width)
        row = random_complex(rng, 3)
        rho = 0.6
        scale, linear = _reduce(quad, linear_term, row, rho)
        quadratic = _reduced_quadratic(quad, scale)
        gaps = []
        for _ in range(10):
            point = rng.standard_normal(width - 1)
            point /= np.linalg.norm(point)
            lifted = _lift(point, rho)
            full = block_objective(quad, linear_term, row, lifted)
            reduced = _objective(quadratic, linear, point)
            gaps.append(full - reduced)
        assert np.ptp(gaps) < 1e-9 * max(1.0, abs(gaps[0]))

    def test_lift_power(self, rng):
        point = rng.standard_normal(8)
        point /= np.linalg.norm(point)
        c = _lift(point, 0.7)
        assert abs(c @ c - FOUR_PI) < 1e-12
        assert c[0] == pytest.approx(2 * np.sqrt(0.7 * np.pi))

    def test_isotropic_default(self):
        c = isotropic_coefficients(9, 0.7)
        assert abs(c @ c - FOUR_PI) < 1e-12
        c1 = isotropic_coefficients(1, 0.7)
        assert_allclose(c1, [2 * np.sqrt(np.pi)])


def _random_terms(rng, width):
    """A random quad term and linear term."""
    streams = 2 if width == 4 else 3
    return (
        random_psd(rng, width),
        random_complex(rng, streams, width) - random_complex(rng, streams, width),
    )


def _reduce(quad, linear_term, row, rho):
    """reduced_coefficient_problem on a batch of one: (scale, linear)."""
    scales, linear = reduced_coefficient_problem(
        reduction_factors(rho)[None], quad[None, 1:, 0].real, linear_term[None], row[None]
    )
    return scales[0], linear[0]


def _lift(point, rho):
    return lift_coefficients(point, reduction_factors(rho))


def _reduced_quadratic(quad, scale):
    eigenvalues, eigenvectors = reduced_spectrum(quad)
    return (eigenvectors * (scale * eigenvalues)) @ eigenvectors.T


def _solve(quadratic, linear, start):
    return rotated_sphere_solve(*np.linalg.eigh(quadratic), linear, start)


def _objective(quadratic, linear, point):
    return float(point @ quadratic @ point + linear @ point)


class TestPositivityAudit:
    def test_guaranteed_regime(self, rng, grid):
        # For 9 coefficients the constant component dominates whenever
        # rho >= 8/9, so every lifted pattern is positive on the grid.
        basis = grid.basis(2).reshape(-1, 9)
        rho = 0.9
        for _ in range(50):
            point = rng.standard_normal(8)
            point /= np.linalg.norm(point)
            gains = basis @ _lift(point, rho)
            assert np.min(gains) > 0.0

    def test_violations_detected_and_logged(self, rng, grid):
        # Below the guaranteed regime dips happen; the audit reports them as
        # a signed margin instead of failing.
        basis = grid.basis(2).reshape(-1, 9)
        rho = 0.7
        mins = []
        for _ in range(200):
            point = rng.standard_normal(8)
            point /= np.linalg.norm(point)
            mins.append(float(np.min(basis @ _lift(point, rho))))
        mins = np.asarray(mins)
        assert np.any(mins < 0.0)  # the audit has something to log
        fraction_positive = float(np.mean(mins > 0.0))
        # Recorded, not asserted at a fixed rate: positivity below the
        # guaranteed threshold depends on the basis size.
        assert 0.0 <= fraction_positive <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
def test_global_minimum_any_dimension(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    quad = (a + a.T) / 2
    v = rng.standard_normal(dim) * rng.choice([0.0, 1e-3, 1.0, 10.0])
    start = rng.standard_normal(dim)
    start /= np.linalg.norm(start)
    result = _solve(quad, v, start)
    assert result.converged
    assert abs(np.linalg.norm(result.point) - 1.0) < 1e-12
    assert result.value <= _objective(quad, v, start) + 1e-12
    pts = rng.standard_normal((10_000, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    sampled = np.einsum("ij,jk,ik->i", pts, quad, pts) + pts @ v
    assert result.value <= float(np.min(sampled)) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["random", "hard", "repeated", "zero_linear", "zero"]),
)
def test_eigenbasis_solve_matches_full_coordinate_oracle(dim, seed, kind):
    # Rotated into the eigenbasis, solved there and rotated back, every
    # problem gives the full-coordinate solve's bits: point, value,
    # iterations and converged, in the hard case, with a repeated bottom
    # eigenvalue and when the start is kept.
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.standard_normal(dim))
    if kind == "repeated":
        lam[: (dim + 1) // 2] = lam[0]
    if kind == "zero":
        lam[:] = 0.0
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues, eigenvectors = np.linalg.eigh(rotation @ np.diag(lam) @ rotation.T)
    w = rng.standard_normal(dim)
    if kind in ("hard", "repeated"):
        w[0] = 0.0
        w *= 0.1
    if kind in ("zero_linear", "zero"):
        w[:] = 0.0
    linear = eigenvectors @ w
    start = rng.standard_normal(dim)
    start /= np.linalg.norm(start)
    got = rotated_sphere_solve(eigenvalues, eigenvectors, linear, start)
    want = sphere_solve_full(eigenvalues, eigenvectors, linear, start)
    assert got.point.tobytes() == want.point.tobytes()
    assert (got.value, got.iterations, got.converged) == (
        want.value, want.iterations, want.converged,
    )
    assert type(got.iterations) is int and type(got.converged) is bool


_SECULAR_KINDS = ("random", "cluster", "hard", "hard_unset", "outside", "zero", "kept", "tiny")


@st.composite
def _secular_batches(draw):
    """A batch of 1-4 sphere problems in the eigenbasis sharing n in 1-9,
    each of a kind from _SECULAR_KINDS: a random problem, a bottom cluster
    of up to five eigenvalues (m > 1) with a bottom component, the hard
    case (no bottom component, x(0) inside the sphere) with the start's
    fill or, where the start has no bottom component, the first
    eigenvector's, no bottom component with x(0) outside the sphere, so
    that the secular sum skips the bottom entries, a zero problem (scale
    0), a start a rounding error
    better than the solved point, so that it is kept, and a problem scaled
    by 1e-150."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(_SECULAR_KINDS), min_size=1, max_size=4))
    lam = np.sort(rng.standard_normal((len(kinds), n)), axis=1)
    w = rng.standard_normal((len(kinds), n))
    starts = rng.standard_normal((len(kinds), n))
    for b, kind in enumerate(kinds):
        bottom = int(rng.integers(1, min(n, 5) + 1))
        if kind == "cluster":
            lam[b, :bottom] = lam[b, 0]
        elif kind in ("hard", "hard_unset", "outside"):
            lam[b, :bottom] = lam[b, 0]
            lam[b, bottom:] += 1.0
            w[b, :bottom] = 0.0
            w[b] *= 10.0 if kind == "outside" else 0.1
            if kind == "hard_unset" and bottom < n:
                starts[b, :bottom] = 0.0
        elif kind == "zero":
            lam[b] = w[b] = 0.0
        elif kind == "kept":
            lam[b, 0] = -1.0 - abs(lam[b, 0])
            lam[b] = np.sort(lam[b])
            w[b] = 0.0
            starts[b] = np.eye(1, n)[0] * (1.0 + 1e-12)
            continue
        elif kind == "tiny":
            lam[b] *= 1e-150
            w[b] *= 1e-150
        starts[b] /= math.sqrt(starts[b] @ starts[b])
    norms = [math.sqrt(v @ v) for v in w]
    return kinds, lam, w, starts, norms


@settings(max_examples=300, deadline=None)
@given(_secular_batches())
def test_sphere_solve_matches_single_problem_oracle(batch):
    # Each problem, solved alone, gives the one-problem oracle's bits: its
    # point (or the kept start), value, iterations and converged flag.
    # Settled problems take no Newton step.
    kinds, lam, w, starts, norms = batch
    for b in range(len(kinds)):
        start = starts[b].tolist()
        result = minimize_on_sphere(lam[b].tolist(), w[b].tolist(), start, norms[b])
        want = minimize_on_sphere_single(lam[b].tolist(), w[b].tolist(), start, norms[b])
        assert type(result.iterations) is int and type(result.converged) is bool
        assert (result.iterations, result.converged) == (want.iterations, want.converged), b
        assert result.value.hex() == want.value.hex(), b
        assert (result.point is None) == (want.point is start), b
        if result.point is not None:
            assert np.array(result.point).tobytes() == np.array(want.point).tobytes(), b
        if kinds[b] == "kept":
            assert result.point is None


def _problems(batch):
    """Each problem of a batch as minimize_on_sphere's first four arguments,
    with its secular equation."""
    kinds, lam, w, starts, norms = batch
    for b in range(len(kinds)):
        problem = (lam[b].tolist(), w[b].tolist(), starts[b].tolist(), norms[b])
        yield problem, secular_equation(problem[0], problem[1], norms[b])


@settings(max_examples=300, deadline=None)
@given(_secular_batches(), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_hint_inside_bracket_finds_the_root(batch, where):
    # A Newton iteration started anywhere strictly inside the bracket, as
    # the synthesis step starts it from the last sweep's root, meets the
    # secular tolerance, and its point has the value of the solve from
    # the bracket's left end to 1e-12 of the problem scale.
    for problem, (gaps, half_w, low, high) in _problems(batch):
        cold = minimize_on_sphere(*problem)
        hint = low + where * (high - low)
        warm = minimize_on_sphere(*problem, hint)
        if gaps and low < hint < high:
            assert warm.converged
            norm = math.sqrt(sum((h / (g + warm.root)) ** 2 for g, h in zip(gaps, half_w)))
            assert abs(norm - 1.0) <= _SECULAR_TOL
        lam, _, _, linear_norm = problem
        scale = math.sqrt(sum(li * li for li in lam)) + linear_norm
        assert abs(warm.value - cold.value) <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(_secular_batches())
def test_hint_off_the_open_bracket_starts_at_its_left_end(batch):
    # A hint on either end of the bracket, outside it or NaN is not used:
    # the iteration gives the bits of the solve without a hint, root,
    # iterations and converged flag.
    for problem, (_, _, low, high) in _problems(batch):
        want = minimize_on_sphere(*problem)
        for hint in (low, high, low - 1.0, -math.inf, high + 1.0, math.inf, math.nan):
            got = minimize_on_sphere(*problem, hint)
            assert (got.root.hex(), got.iterations, got.converged) == (
                want.root.hex(), want.iterations, want.converged,
            ), hint
