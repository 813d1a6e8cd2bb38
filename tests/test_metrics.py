import dataclasses

import numpy as np
import pytest

from conftest import desk_scenario, desk_solver
from helpers import audit_one
from trihybrid.channel import selection_effective_channel, synthesis_effective_channel
from trihybrid.metrics import audit_constraints
from trihybrid.patterns import gaussian_beam_grid
from trihybrid.wmmse import run_selection, run_synthesis


@pytest.fixture(scope="module")
def solved_selection():
    scenario = desk_scenario(6)
    candidates = gaussian_beam_grid(8)
    effs = [selection_effective_channel(g, candidates) for g in scenario.geometries]
    state, _ = run_selection(effs, (2, 2), desk_solver(max_outer_iterations=8))
    return state, candidates


@pytest.fixture(scope="module")
def solved_synthesis():
    """Synthesis states of two scenarios, at five and at seven chains."""
    states = []
    for seed, chains in ((6, 5), (7, 7)):
        effs = [synthesis_effective_channel(g, 2) for g in desk_scenario(seed).geometries]
        config = desk_solver(max_outer_iterations=4, rf_chains=chains)
        states.append(run_synthesis(effs, (2, 2), config)[0])
    return states


def _bits(report) -> list[str]:
    return [repr(float(value)) for value in vars(report).values()]


class TestAudit:
    def test_fresh_state_passes(self, solved_selection):
        state, candidates = solved_selection
        [report] = audit_constraints([state], candidates)
        assert report.max_power_violation <= 1e-12
        assert report.modulus_deviation <= 1e-9
        assert report.antenna_deviation == 0.0
        assert report.min_pattern_gain > 0.0

    def test_scaled_precoder_flagged(self, solved_selection):
        state, candidates = solved_selection
        bad = dataclasses.replace(state, f_d=2.0 * state.f_d)
        [report] = audit_constraints([bad], candidates)
        assert report.max_power_violation > 0.0

    def test_non_one_hot_selection_flagged(self, solved_selection):
        state, candidates = solved_selection
        blended = state.antenna_matrix.copy()
        blended[2] = 0.0
        blended[2, :2] = (0.75, 0.25)
        [report] = audit_constraints(
            [dataclasses.replace(state, antenna_matrix=blended)], candidates
        )
        assert report.antenna_deviation == 0.25

    def test_isotropic_synthesis_margin(self):
        scenario = desk_scenario(6)
        effs = [synthesis_effective_channel(g, 2) for g in scenario.geometries]
        config = desk_solver(max_outer_iterations=5, rho=1.0)
        state, _ = run_synthesis(effs, (2, 2), config)
        [report] = audit_constraints([state])
        assert report.min_pattern_gain == pytest.approx(1.0, abs=1e-12)
        assert report.antenna_deviation == pytest.approx(0.0, abs=1e-9)

    def test_each_report_is_its_state_audited_alone(self, solved_selection, solved_synthesis):
        # A list audits every state with the bits of its own audit, also
        # beside states with other chain counts and other violations.
        state, candidates = solved_selection
        blended = state.antenna_matrix.copy()
        blended[3] = np.eye(8)[5] * 0.5
        selections = [
            state,
            dataclasses.replace(state, f_d=1.5 * state.f_d, antenna_matrix=blended),
            dataclasses.replace(state, f_rf=state.f_rf[:, :5] * 1.01, f_bb=state.f_bb[:5]),
        ]
        for states, audit_set in ((selections, candidates), (solved_synthesis, None)):
            reports = audit_constraints(states, audit_set)
            assert [_bits(r) for r in reports] == [_bits(audit_one(s, audit_set)) for s in states]
        assert audit_constraints(selections, candidates)[1].max_power_violation > 1.0
