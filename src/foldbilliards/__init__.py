"""Billiard tables, fold hypersurfaces and geodesic convergence experiments.

The package studies convex billiard tables K = {f >= 0} inside a hyperplane
of a constant-curvature ambient space, the one-parameter family of fold
hypersurfaces {x_{n+1}^2 = lam^2 f(x)} that flatten onto the table as
lam -> 0, and the convergence of fold geodesics to billiard trajectories.

Layout:

- ``ambient``: the three constant-curvature coordinate models (metric,
  Christoffel symbols, closed-form distances and geodesic flow, comparison
  profiles).
- ``table``: table shapes, boundary frames, the reflection law and polarity.
- ``fold``: fold geometry (second fundamental form, sectional curvature),
  curvature scans and fold-to-table Hausdorff distances.
- ``dynamics``: geodesic integration on folds and tables, billiard
  trajectories with event-detected bounces.
- ``analysis``: quasigeodesic residual checks and the two convergence
  experiments (fold geodesics to billiards, steep billiards to boundary
  geodesics).
- ``config`` / ``runner`` / ``cli``: JSON experiment configs, artifact
  writers and the command-line entry point.
"""

__version__ = "0.1.0"

from .ambient import (
    AmbientModel,
    euclidean,
    hyperbolic,
    spherical,
    distance,
    rho_kappa,
    alpha_kappa,
)
from .errors import (
    GeometryError,
    InvalidInputError,
    PreconditionError,
    ConfigError,
    NumericError,
    BounceAccumulationError,
)
from .table import (
    TableSpec,
    disk_table,
    half_space_table,
    parabola_table,
    spherical_halfspace_table,
    BUILTIN_TABLES,
    boundary_frame,
    reflect,
    polar_vector,
    is_polar,
)
from .fold import (
    Fold,
    sectional_curvature,
    scan_curvature,
    check_h_sufficient_conditions,
    hausdorff_distance,
)
from .dynamics import (
    SampledCurve,
    BilliardTrajectory,
    integrate_fold_geodesic,
    integrate_table_geodesic,
    billiard_trajectory,
)
from .analysis import (
    quasigeodesic_residual,
    fold_convergence_experiment,
    boundary_geodesic_experiment,
)
from .config import ExperimentConfig, load_config, validate_config
from .runner import run_experiment

__all__ = [
    "AmbientModel",
    "euclidean",
    "hyperbolic",
    "spherical",
    "distance",
    "rho_kappa",
    "alpha_kappa",
    "GeometryError",
    "InvalidInputError",
    "PreconditionError",
    "ConfigError",
    "NumericError",
    "BounceAccumulationError",
    "TableSpec",
    "disk_table",
    "half_space_table",
    "parabola_table",
    "spherical_halfspace_table",
    "BUILTIN_TABLES",
    "boundary_frame",
    "reflect",
    "polar_vector",
    "is_polar",
    "Fold",
    "sectional_curvature",
    "scan_curvature",
    "check_h_sufficient_conditions",
    "hausdorff_distance",
    "SampledCurve",
    "BilliardTrajectory",
    "integrate_fold_geodesic",
    "integrate_table_geodesic",
    "billiard_trajectory",
    "quasigeodesic_residual",
    "fold_convergence_experiment",
    "boundary_geodesic_experiment",
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "run_experiment",
    "__version__",
]
