"""Multi-user MIMO precoding with reconfigurable per-antenna radiation patterns."""

from .baselines import bd_zero_forcing, fixed_pattern_wmmse, interference_leakage
from .channel import (
    ArrayLayout,
    EffectiveChannel,
    PathGeometry,
    Scenario,
    ScenarioConfig,
    assemble_channel,
    compose,
    generate_scenario,
    selection_effective_channel,
    synthesis_effective_channel,
    upa_layout,
)
from .decomp import DecompositionResult, decompose_precoder, rescale_per_antenna
from .metrics import ConstraintReport, audit_constraints
from .patterns import (
    CandidateSet,
    RadiationPattern,
    gaussian_beam,
    gaussian_beam_grid,
    harmonic_pattern,
    isotropic_pattern,
    normalize_pattern,
)
from .sphere_opt import SphereResult, minimize_on_sphere, reduced_coefficient_problem
from .sphharm import (
    FOUR_PI,
    SHCoefficients,
    SphereGrid,
    assoc_legendre,
    default_grid,
    pattern_energy,
    real_sph_harm,
    sh_basis,
    sphere_grid,
    synthesize_gain,
)
from .wmmse import (
    PrecoderState,
    SolverConfig,
    Trace,
    candidate_quads,
    mmse_receivers,
    mse_matrix,
    mse_weights,
    received_covariances,
    run_selection,
    run_synthesis,
    select_pattern_and_row,
    stream_masks,
    synthesize_pattern_and_row,
    weighted_sum_rate,
    wmmse_objective,
)

__version__ = "0.1.0"
