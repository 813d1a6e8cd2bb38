"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The shared fixture is a sweep of the experiment runner:
twenty seeded scenarios at desk scale (16 transmit antennas, two
2-antenna users, four paths, eight candidate beams, degree-2 synthesis),
solved with all four methods by the runner's batch stage, `model1` and
`model2` warm from the cell's fixed-pattern solve.  Criteria 05, 07, 09
and 10 judge the states and traces of that stage and the rows `run_point`
makes of them, so they judge what `trihybrid run` reports.  The other
criteria make their own small solves.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_solver
from helpers import (
    block_objective,
    harmonic_pattern,
    isotropic_pattern,
    pattern_deviations,
    random_complex,
    random_psd,
    rotated_sphere_solve,
)
from trihybrid.baselines import fixed_pattern_wmmse
from trihybrid.channel import (
    EffectiveChannel,
    ScenarioConfig,
    assemble_channel,
    compose,
    generate_scenario,
    selection_effective_channel,
    synthesis_effective_channel,
)
from trihybrid.experiments import _WMMSE_METHODS, _cell_rows, _solve_cells, load_config
from trihybrid.patterns import CandidateSet, gaussian_beam_grid, most_square_factors
from trihybrid.sphharm import FOUR_PI, default_grid
from trihybrid.wmmse import (
    candidate_quads,
    run_selection,
    run_synthesis,
    select_pattern_and_row,
)

N_SUITE = 20
STREAMS = (2, 2)
D_TOTAL = sum(STREAMS)
RF_CHAINS = D_TOTAL + 3

# The runner's defaults are the desk scale above: a 4x4 array, two 2x1
# users with two streams each, 0 dBm per antenna, RF chains D + 3.
SUITE_CONFIG = f"""
[solver]
seed = 17
max_outer_iterations = 40
warm_start = true

[sweep]
values = 0
seeds = {" ".join(map(str, range(N_SUITE)))}
"""


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """The runner's batch stage and rows on twenty seeded scenarios: the
    solved cells, per cell its rows by method, the seconds taken, and the
    :func:`pattern_deviations` of every antenna step the stage took."""
    path = tmp_path_factory.mktemp("suite") / "suite.ini"
    path.write_text(SUITE_CONFIG)
    started = time.perf_counter()
    config = load_config(path)
    keys = [(value, seed) for value in config.values for seed in config.seeds]
    with pattern_deviations() as deviations:
        cells = _solve_cells(config, keys)
    outcomes = _cell_rows(config, cells)
    elapsed = time.perf_counter() - started
    assert [error for _, error in outcomes] == [None] * N_SUITE
    rows = [
        {method: result.row for method, result in zip(config.methods, results)}
        for results, _ in outcomes
    ]
    return cells, rows, elapsed, deviations


def test_criterion_01_orthonormality():
    started = time.perf_counter()
    grid = default_grid()
    basis = grid.basis(6)
    gram = np.einsum("ij,ijt,iju->tu", grid.weights(), basis, basis)
    error = float(np.abs(gram - np.eye(49)).max())
    elapsed = time.perf_counter() - started
    ok = error < 1e-8 and elapsed < 10.0
    report(1, ok, f"orthonormality error {error:.2e} in {elapsed:.2f}s")
    assert ok


def test_criterion_02_energy_law():
    grid = default_grid()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        degree = int(rng.integers(0, 7))
        coeffs = rng.standard_normal((degree + 1) ** 2)
        coeffs *= np.sqrt(FOUR_PI / (coeffs @ coeffs))
        gains = grid.basis(degree) @ coeffs
        energy = grid.integrate(gains**2)
        worst = max(worst, abs(energy - FOUR_PI))
    ok = worst < 1e-6
    report(2, ok, f"max |energy - 4pi| = {worst:.2e} over 100 draws")
    assert ok


def test_criterion_03_effective_channel_identities():
    candidates = gaussian_beam_grid(8)
    rng = np.random.default_rng(7)
    worst_sel, worst_cof = 0.0, 0.0
    for seed in range(20):
        scenario = generate_scenario(ScenarioConfig(), 100 + seed)
        for geom in scenario.geometries:
            eff_s = selection_effective_channel(geom, candidates)
            sel = rng.integers(0, candidates.size, geom.n_tx)
            lifted = compose(eff_s, np.eye(candidates.size)[sel])
            direct = assemble_channel(geom, [candidates.patterns[s] for s in sel])
            worst_sel = max(
                worst_sel,
                np.linalg.norm(lifted - direct) / np.linalg.norm(direct),
            )
            eff_c = synthesis_effective_channel(geom, 2)
            coeffs = rng.standard_normal((geom.n_tx, 9))
            lifted = compose(eff_c, coeffs)
            direct = assemble_channel(
                geom, [harmonic_pattern(c) for c in coeffs]
            )
            worst_cof = max(
                worst_cof,
                np.linalg.norm(lifted - direct) / np.linalg.norm(direct),
            )
    ok = worst_sel < 1e-10 and worst_cof < 1e-10
    report(3, ok, f"selection {worst_sel:.2e}, synthesis {worst_cof:.2e}")
    assert ok


def test_criterion_04_closed_form_row_oracle():
    rng = np.random.default_rng(4)
    n_instances = 200
    samples_per_state = 250_000
    width, d_streams = 4, 4
    worst_gap = -np.inf
    for _ in range(n_instances):
        quad = random_psd(rng, width)
        dmat = random_complex(rng, d_streams, width) - random_complex(rng, d_streams, width)
        budget = float(rng.uniform(0.5, 4.0))
        quads, inv_quads = candidate_quads(quad)
        (index,), (row,) = select_pattern_and_row(dmat[None], [quads], [inv_quads], [budget])
        value = block_objective(quad, dmat, row, np.eye(width)[index])
        best_sampled = np.inf
        for s in range(width):
            a = float(np.real(quad[s, s]))
            # The draws of `ball_samples`: the sample r u, with u a normalized
            # real Gaussian vector (its real parts, then its imaginary parts),
            # scores a r^2 + 2 r (u_re . Re d + u_im . Im d), so no complex
            # copy of the samples is needed.
            raw = rng.standard_normal((samples_per_state, 2 * d_streams))
            radii = np.sqrt(budget) * rng.uniform(0.0, 1.0, samples_per_state) ** (
                1.0 / (2 * d_streams)
            )
            along = raw @ np.concatenate([dmat[:, s].real, dmat[:, s].imag])
            along /= np.sqrt(np.einsum("ij,ij->i", raw, raw))
            sampled = radii * (a * radii + 2.0 * along)
            best_sampled = min(best_sampled, float(np.min(sampled)))
        worst_gap = max(worst_gap, value - best_sampled)
    ok = worst_gap <= 1e-6
    report(
        4, ok, f"closed form vs 1e6-sample joint brute force: worst gap {worst_gap:.2e}"
    )
    assert ok


def test_criterion_05_bcd_monotone(suite):
    cells, _, _, deviations = suite
    worst_rise = -np.inf
    audits_ok = True
    for cell in cells:
        for method in _WMMSE_METHODS:
            _, trace = cell.solution(method)
            objective = np.array(trace.objective)
            rises = np.diff(objective) / np.maximum(1.0, np.abs(objective[:-1]))
            if rises.size:
                worst_rise = max(worst_rise, float(np.max(rises)))
            audits_ok &= max(trace.max_power_violation) <= 1e-9
    # The pattern constraint after every antenna step of every sweep, so at
    # every outer iteration of both step kinds.
    audits_ok &= bool(deviations["sel"]) and bool(deviations["syn"])
    audits_ok &= max(deviations["sel"] + deviations["syn"]) <= 1e-8
    ok = worst_rise <= 1e-9 and audits_ok
    report(
        5,
        ok,
        f"worst relative objective rise {worst_rise:.2e}; per-iteration audits "
        f"{'clean' if audits_ok else 'violated'}",
    )
    assert ok


def test_criterion_06_reductions():
    candidates = gaussian_beam_grid(8)
    config = desk_solver(
        max_outer_iterations=12, objective_tol=0.0, rf_chains=RF_CHAINS
    )
    worst_sel, worst_plain, worst_syn = 0.0, 0.0, 0.0
    for seed in range(5):
        scenario = generate_scenario(ScenarioConfig(), 300 + seed)
        # Selection with one candidate against the fixed-pattern baseline.
        single = CandidateSet((candidates.baseline,))
        effs = [selection_effective_channel(g, single) for g in scenario.geometries]
        _, trace_a = run_selection(effs, STREAMS, config)
        _, trace_b = fixed_pattern_wmmse(scenario, candidates.baseline, STREAMS, config)
        a, b = np.array(trace_a.objective), np.array(trace_b.objective)
        worst_sel = max(worst_sel, float(np.abs(a - b).max() / np.abs(b).max()))
        # The same solve on channels the plain assembler builds, not the lift.
        plain = [
            EffectiveChannel(assemble_channel(g, candidates.baseline), "sel", 1)
            for g in scenario.geometries
        ]
        _, trace_p = run_selection(plain, STREAMS, config)
        p = np.array(trace_p.objective)
        worst_plain = max(worst_plain, float(np.abs(p - b).max() / np.abs(b).max()))
        # Synthesis pinned to the constant component against fixed isotropic.
        effs2 = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        _, trace_c = run_synthesis(effs2, STREAMS, dataclasses.replace(config, rho=1.0))
        _, trace_d = fixed_pattern_wmmse(scenario, isotropic_pattern(), STREAMS, config)
        c, d = np.array(trace_c.objective), np.array(trace_d.objective)
        worst_syn = max(worst_syn, float(np.abs(c - d).max() / np.abs(d).max()))
    ok = worst_sel <= 1e-12 and worst_plain <= 1e-12 and worst_syn <= 1e-12
    report(
        6,
        ok,
        f"single-candidate gap {worst_sel:.2e} (assembled channels {worst_plain:.2e}), "
        f"pinned-synthesis gap {worst_syn:.2e}",
    )
    assert ok


def test_criterion_07_baseline_dominance(suite):
    _, rows, elapsed, _ = suite

    def digital(method):
        return np.array([float(r[method]["sum_rate_digital"]) for r in rows])

    m1, m2, fixed, zf = digital("model1"), digital("model2"), digital("wmmse_fixed"), digital("zf")
    paired = bool(np.all(m1 >= fixed - 1e-6))
    ordering = m2.mean() >= m1.mean() >= fixed.mean() >= zf.mean()
    ok = paired and ordering and elapsed < 300.0
    report(
        7,
        ok,
        f"paired dominance {'holds' if paired else 'fails'}; means "
        f"model2 {m2.mean():.2f} >= model1 {m1.mean():.2f} >= fixed "
        f"{fixed.mean():.2f} >= zf {zf.mean():.2f}; suite {elapsed:.0f}s",
    )
    assert ok


def test_criterion_08_sphere_solver_oracle():
    rng = np.random.default_rng(8)
    grid_points = rng.standard_normal((1_000_000, 8))
    grid_points /= np.linalg.norm(grid_points, axis=1, keepdims=True)
    worst_gap = -np.inf
    for _ in range(50):
        a = rng.standard_normal((8, 8))
        quad = (a + a.T) / 2
        linear = rng.standard_normal(8)
        start = rng.standard_normal(8)
        start /= np.linalg.norm(start)
        result = rotated_sphere_solve(*np.linalg.eigh(quad), linear, start)
        sampled = (
            np.einsum("ij,jk,ik->i", grid_points, quad, grid_points)
            + grid_points @ linear
        )
        worst_gap = max(worst_gap, result.value - float(np.min(sampled)))
    ok = worst_gap <= 1e-4
    report(8, ok, f"sphere solve vs 1e6-point grid: worst gap {worst_gap:.2e}")
    assert ok


def test_criterion_09_decomposition_quality(suite):
    cells, rows, _, _ = suite
    worst_ratio = np.inf
    exact = True
    for cell, row in zip(cells, rows):
        for method in _WMMSE_METHODS:
            rates = row[method]
            worst_ratio = min(
                worst_ratio, float(rates["sum_rate_hybrid"]) / float(rates["sum_rate_digital"])
            )
        # Every decomposed state, the zero-forcing ones included.
        for method in (*_WMMSE_METHODS, "zf"):
            state, _ = cell.solution(method)
            n = state.f_rf.shape[0]
            exact &= float(np.abs(np.abs(state.f_rf) ** 2 * n - 1).max()) <= 1e-12
            composite = state.f_rf @ state.f_bb
            per_antenna = np.sum(np.abs(composite) ** 2, axis=1)
            exact &= float(np.max(per_antenna / state.power - 1.0)) <= 1e-12
    ok = worst_ratio >= 0.9 and exact
    report(
        9,
        ok,
        f"worst hybrid/digital rate ratio {worst_ratio:.3f} at {RF_CHAINS} chains; "
        f"modulus/power {'exact' if exact else 'violated'}",
    )
    assert ok


def test_criterion_10_zf_leakage(suite):
    _, rows, _, _ = suite
    worst = max(float(r["zf"]["zf_leakage"]) for r in rows)
    ok = worst < 1e-9
    report(10, ok, f"worst relative inter-user leakage {worst:.2e}")
    assert ok


def _median_iteration_seconds(method: str, n_antennas: int) -> float:
    shape = most_square_factors(n_antennas)
    scenario = generate_scenario(ScenarioConfig(bs_shape=shape), 1000 + n_antennas)
    config = desk_solver(
        max_outer_iterations=6, objective_tol=0.0, rf_chains=RF_CHAINS
    )
    if method == "selection":
        candidates = gaussian_beam_grid(8)
        effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
        _, trace = run_selection(effs, STREAMS, config)
    else:
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        _, trace = run_synthesis(effs, STREAMS, config)
    return float(np.median(trace.iter_seconds[1:]))


def test_criterion_11_complexity_scaling():
    sizes = np.array([16, 36, 64, 100])
    ok = True
    detail = []
    for method in ("selection", "synthesis"):
        times = np.array([_median_iteration_seconds(method, n) for n in sizes])
        exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        detail.append(f"{method} exponent {exponent:.2f}")
        ok &= exponent <= 2.3
    report(11, ok, "; ".join(detail))
    assert ok


def test_criterion_12_determinism(tmp_path):
    config_text = """
[scenario]
users = 2
bs_rows = 3
bs_cols = 3
ue_rows = 2
ue_cols = 1
paths_per_user = 3

[solver]
streams_per_user = 2
candidates = 4
sh_degree = 1
max_outer_iterations = 5
rf_chains_offset = 2

[sweep]
axis = power
values = -5 5
methods = model1 model2 wmmse_fixed zf
seeds = 1
output = results.csv
"""
    from trihybrid.experiments import run_experiment

    cfg = tmp_path / "determinism.ini"
    cfg.write_text(config_text)
    first = Path(run_experiment(cfg)).read_bytes()
    second = Path(run_experiment(cfg)).read_bytes()
    ok = first == second
    report(12, ok, f"rerun produced {'identical' if ok else 'different'} bytes")
    assert ok
