"""Solitons in a condensate with spatially varying interaction strength.

The package evolves the full field equation, integrates reduced particle
models for dark and bright solitons, and ships a harness that runs both
side by side and writes the comparison to CSV.
"""

from .errors import (
    ConfigurationError,
    ExtractionError,
    GpsolError,
    InstabilityError,
    ParameterError,
    RangeError,
    SingularityError,
)
from .grid_field import ComplexField, SpatialGrid, build_grid, simpson
from .harness import ExperimentConfig, RunRecord, parse_config, run_experiment, scenario, write_csv
from .inhomogeneity import InhomogeneityProfile, make_generic, make_inverse_square
from .ode_engine import OdeSystem, OdeTrajectory, abm4_integrate, rk4_integrate
from .pde_engine import EvolutionProblem, PdeTrajectory, evolve

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GpsolError",
    "ConfigurationError",
    "SingularityError",
    "ParameterError",
    "RangeError",
    "ExtractionError",
    "InstabilityError",
    "SpatialGrid",
    "ComplexField",
    "build_grid",
    "simpson",
    "InhomogeneityProfile",
    "make_inverse_square",
    "make_generic",
    "OdeSystem",
    "OdeTrajectory",
    "rk4_integrate",
    "abm4_integrate",
    "EvolutionProblem",
    "PdeTrajectory",
    "evolve",
    "ExperimentConfig",
    "RunRecord",
    "parse_config",
    "run_experiment",
    "scenario",
    "write_csv",
]
