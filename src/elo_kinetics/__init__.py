"""Kinetic Elo rating model with learning: mean-field Fokker-Planck solver,
steady-state machinery, particle simulators, and verification diagnostics."""

from .grid import DensityField, Grid2D
from .kernels import (
    CoefficientField,
    KernelKind,
    KernelParams,
    a1_of_density,
    a2_of_density,
    a_field,
    b_eval,
    phi_beta,
    quadratic_form,
)
from .fv_solver import (
    CFL_SAFETY,
    CFLError,
    EvolutionTrace,
    PositivityError,
    SolverConfig,
    cfl_limit,
    evolve,
    step_advect_R,
    step_drift_diffuse_rho,
    strang_step,
)
from .steady_state import (
    FixedPointConfig,
    NonConvergenceError,
    SteadyStateResult,
    fixed_point_iterate,
    map_G,
    nonlinear_equilibrate,
)
from .particles import (
    AgentPopulation,
    InteractionParams,
    run_tournament,
    simulate_mean_field,
    step_mean_field_sde,
)
from .diagnostics import (
    ConfinementRadii,
    DriftCheckResult,
    beta_norm,
    beta_norm_diff,
    confinement_radii,
    generator_on_weight,
    lyapunov_drift_check,
    relative_energy,
    wasserstein1_samples_vs_marginal,
)

__version__ = "0.1.0"
