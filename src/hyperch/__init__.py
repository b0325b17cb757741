"""Phase-field simulation on the unit square with a dynamic boundary
condition and optional hyperbolic relaxation.

The bulk order parameter evolves by a conserved gradient flow of a
double-well free energy; the boundary trace carries its own surface
free energy and evolves by a matching flow on the perimeter loop.
Second-order-in-time relaxation terms (beta1, beta2) model delayed
response; the first-order linear scheme with explicit stabilized wells
keeps the step matrix constant over a run.
"""

from .grid import Grid, build_grid
from .linalg import DirectFactorization, SolveError, SolveStats
from .model import (
    F_val,
    G_val,
    ModelParams,
    bulk_mass,
    bulk_quadrature_weights,
    f_val,
    g_val,
    modified_energy,
    surface_mass,
    total_energy,
)
from .operators import (
    PoissonSolveError,
    apply_bulk_laplacian,
    apply_loop_laplacian,
    dirichlet_energy_bulk,
    dirichlet_energy_loop,
    normal_derivative,
    solve_poisson_loop_zeromean,
    solve_poisson_neumann_zeromean,
    to_full_grid,
)
from .scheme import (
    DiagRecord,
    NonFiniteStateError,
    SparseSystem,
    State,
    assemble_rhs,
    assemble_system,
    init_state,
    run,
    step,
)
from .experiments import (
    BetaSweepResult,
    CaseSpec,
    ConvergenceResult,
    beta_sweep,
    convergence_study,
    fit_slope,
    init_case,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "build_grid",
    "DirectFactorization",
    "SolveError",
    "SolveStats",
    "F_val",
    "G_val",
    "ModelParams",
    "bulk_mass",
    "bulk_quadrature_weights",
    "f_val",
    "g_val",
    "modified_energy",
    "surface_mass",
    "total_energy",
    "PoissonSolveError",
    "apply_bulk_laplacian",
    "apply_loop_laplacian",
    "dirichlet_energy_bulk",
    "dirichlet_energy_loop",
    "normal_derivative",
    "solve_poisson_loop_zeromean",
    "solve_poisson_neumann_zeromean",
    "to_full_grid",
    "DiagRecord",
    "NonFiniteStateError",
    "SparseSystem",
    "State",
    "assemble_rhs",
    "assemble_system",
    "init_state",
    "run",
    "step",
    "BetaSweepResult",
    "CaseSpec",
    "ConvergenceResult",
    "beta_sweep",
    "convergence_study",
    "fit_slope",
    "init_case",
]
