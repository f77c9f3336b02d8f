"""Structured-grid simulator and verification suite for gravity-driven
porous-media transport with velocity-dependent hydrodynamic dispersion."""

from .coefficients import (
    PhysParams,
    RegParams,
    dispersion_tensor,
    dispersion_tensor_regularized,
    divergence,
    eigen_bounds,
    mollify,
    stream_velocity,
)
from .config import RunConfig
from .elliptic import EllipticSolveReport, PoissonSolver, SolverError
from .grid import (
    GridSpec,
    ScalarField,
    SymTensorField,
    VectorField,
    diff_x1,
    integrate,
    quad_form,
    read_snapshot,
    write_snapshot,
)
from .transport import (
    SimState,
    StartMemory,
    StepReport,
    Trajectory,
    initial_condition,
    parabolic_step,
    picard_coupled_step,
    run,
)

__version__ = "0.1.0"
