"""granular1d: Lagrangian solver for 1D pressureless granular flow with a
maximal density constraint and adhesion memory.

The flow is represented by the monotone transport map of its density;
congestion is enforced by projecting the free motion onto the cone of
maps whose gaps dominate those of the maximally packed rearrangement
(weighted isotonic regression), and the blocked compression accumulates
into a nonpositive adhesion potential that controls when glued blocks
release.
"""

from .density import PiecewiseDensity, Segment, uniform_blocks
from .dynamics import (
    ForceField,
    PicardResult,
    SimState,
    StepperConfig,
    Stretch,
    adhesion_potential,
    block_velocity,
    check_state,
    init_state,
    picard_solve,
    piecewise_constant_force,
    run_simulation,
    run_windows,
    step,
    zero_force,
)
from .errors import (
    ConvergenceError,
    EmptyMeasureError,
    Granular1dError,
    InvariantViolation,
    OracleLimitError,
)
from .eulerian import EulerianField, check_exclusion, reconstruct, wasserstein2
from .heterogeneous import build_ratio_system, cosine_bump_rho_star
from .transport import (
    BlockPartition,
    ParticleSystem,
    build_particles,
    oracle_qp_projection,
    project_admissible,
    project_monotone,
    weighted_norm,
)
from .twoblock import (
    ContactTracker,
    ExactSnapshot,
    TwoBlockParams,
    error_norms,
    two_block_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ContactTracker",
    "ConvergenceError",
    "EmptyMeasureError",
    "EulerianField",
    "ExactSnapshot",
    "ForceField",
    "Granular1dError",
    "InvariantViolation",
    "OracleLimitError",
    "ParticleSystem",
    "PicardResult",
    "PiecewiseDensity",
    "Segment",
    "SimState",
    "StepperConfig",
    "Stretch",
    "TwoBlockParams",
    "adhesion_potential",
    "block_velocity",
    "build_particles",
    "build_ratio_system",
    "check_exclusion",
    "check_state",
    "cosine_bump_rho_star",
    "error_norms",
    "init_state",
    "oracle_qp_projection",
    "picard_solve",
    "piecewise_constant_force",
    "project_admissible",
    "project_monotone",
    "reconstruct",
    "run_simulation",
    "run_windows",
    "step",
    "two_block_exact",
    "uniform_blocks",
    "wasserstein2",
    "weighted_norm",
    "zero_force",
]
