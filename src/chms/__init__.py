"""Structure-preserving variational integrator and conservation-law
diagnostics for the shallow-water particle-label field on a circle."""

from .errors import (
    BadInitialData,
    ChmsError,
    ConfigError,
    EmptyRegion,
    MaxItersExceeded,
    NonMonotone,
    NotOnShell,
    OutOfRange,
    SingularJacobian,
)
from .grid import GridSpec, classify_region
from .del_solver import (
    EvolveResult,
    Section,
    SolverConfig,
    StepFailure,
    StepStats,
    evolve,
    initialize,
)
from .geometry_checks import (
    SymmetryGenerator,
    level_series,
    solve_first_variation,
)
from .bridges import (
    B0,
    B1,
    conservation_residual,
    continuous_el_residual,
    hamilton_residuals,
    hamiltonian_phase,
    legendre,
    omega_pair,
    phase_field,
)

__version__ = "0.1.0"
