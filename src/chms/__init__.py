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
from .grid import GridSpec, Region, classify_region
from .lagrangian import continuous_density
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
    TangentSection,
    mff_boundary_sum,
    noether_boundary_sum,
    solve_first_variation,
    total_momentum,
)
from .bridges import (
    B0,
    B1,
    Jet3Sample,
    PhasePoint,
    PresymplecticPair,
    conservation_residual,
    continuous_el_residual,
    eulerian_velocity,
    hamilton_residuals,
    hamiltonian,
    legendre,
    omega_pair,
    phase_field,
)

__version__ = "0.1.0"
