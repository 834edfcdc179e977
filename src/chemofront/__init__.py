"""Numerical laboratory for degenerate diffusion with chemotactic drift.

Four coupled fields on a box with reflecting walls: a cell density moving by
compactly supported nonlinear diffusion, bounded-sensitivity drift and
logistic growth; an attractant released where an immobile matrix is degraded;
the matrix itself; and the diffusing enzyme that degrades it.  The package
bundles the finite-volume solver, closed-form comparison profiles with their
selection rules, a stochastic lattice twin, fitting diagnostics and a small
CLI.
"""

from .model import (
    ConstantSensitivity,
    Field,
    Grid,
    LinearSwitchSensitivity,
    ModelParams,
    StateQuad,
    TabulatedSensitivity,
    logistic_growth,
)
from .profiles import (
    BlowupResult,
    ConstructionError,
    EnvelopeResult,
    OdeEnvelopeParams,
    ProfileParams,
    barenblatt,
    barenblatt_support_radius,
    classify_blowup,
    convergence_envelopes,
    lower_profile_branches,
    select_lower_profile,
    select_upper_profile,
)
from .solver import (
    RunResult,
    SimulationError,
    SolverConfig,
    StepReport,
    cfl_dt,
    max_abs_gradient,
    max_abs_laplacian,
    peak_coordinate,
    run,
    step,
)
from .diagnostics import (
    HISTORY_COLUMNS,
    SUPPORT_THRESHOLD,
    DriftAudit,
    ExponentialFit,
    PowerLawFit,
    SandwichReport,
    conservation_audit,
    fit_exponential,
    fit_power_law,
    history_row,
    sandwich_check,
    support_radius,
)
from .lattice import (
    LatticeState,
    coarse_density,
    rate_arrays,
    run_adaptive,
    step_tau_leap,
)
from .config_io import (
    ConfigError,
    RunConfig,
    SnapshotError,
    build_initial_state,
    parse_config,
    parse_config_file,
    read_snapshot,
    serialize_config,
    write_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantSensitivity",
    "Field",
    "Grid",
    "LinearSwitchSensitivity",
    "ModelParams",
    "StateQuad",
    "TabulatedSensitivity",
    "logistic_growth",
    "BlowupResult",
    "ConstructionError",
    "EnvelopeResult",
    "OdeEnvelopeParams",
    "ProfileParams",
    "barenblatt",
    "barenblatt_support_radius",
    "classify_blowup",
    "convergence_envelopes",
    "lower_profile_branches",
    "select_lower_profile",
    "select_upper_profile",
    "RunResult",
    "SimulationError",
    "SolverConfig",
    "StepReport",
    "cfl_dt",
    "max_abs_gradient",
    "max_abs_laplacian",
    "peak_coordinate",
    "run",
    "step",
    "HISTORY_COLUMNS",
    "SUPPORT_THRESHOLD",
    "DriftAudit",
    "ExponentialFit",
    "PowerLawFit",
    "SandwichReport",
    "conservation_audit",
    "fit_exponential",
    "fit_power_law",
    "history_row",
    "sandwich_check",
    "support_radius",
    "LatticeState",
    "coarse_density",
    "rate_arrays",
    "run_adaptive",
    "step_tau_leap",
    "ConfigError",
    "RunConfig",
    "SnapshotError",
    "build_initial_state",
    "parse_config",
    "parse_config_file",
    "read_snapshot",
    "serialize_config",
    "write_snapshot",
    "__version__",
]
