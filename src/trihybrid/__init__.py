"""Multi-user MIMO precoding with reconfigurable per-antenna radiation patterns."""

from .channel import (
    ScenarioConfig,
    compose,
    generate_scenario,
    selection_effective_channel,
    synthesis_effective_channel,
)
from .patterns import gaussian_beam_grid
from .wmmse import PrecoderState, SolverConfig, Trace, run_selection, run_synthesis

__version__ = "0.1.0"
