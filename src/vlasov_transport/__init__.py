"""Semi-Lagrangian laboratory for a 1D kinetic equation coupled to a
unit-speed transport field.

The package solves

    df/dt + v df/dx + B df/dv = 0,
    dB/dt + dB/dx = int f dv,

on truncated phase-space grids with two independent engines (successive
approximation and direct time marching), and ships the diagnostics needed
to confront the discrete histories with the structural properties of the
continuous system: a priori sup bounds, support growth, a one-parameter
change of frame, sign-definite scenarios, square-root modulus tables for
the field, and a scalar blow-up majorant.
"""

from .phase_space import (PhaseGrid, DensityField, TransportField,
                          InitialDataSpec, DomainExitError, build_phase_grid,
                          sample_initial_data)
from .characteristics import LatticeFieldHistory
from .field_solve import (MomentProfile, density_moment, field_from_history,
                          advance_field, conservative_data_constant)
from .solver import (SolutionHistory, PicardTrace, MajorantResult,
                     advect_density, solve_picard, solve_direct,
                     majorant_existence_time)
from .analysis import (support_infimum, compute_diagnostics,
                       derivative_rep_check, scaling_transform, pde_residual,
                       scenario_monotone_check, holder_quotient,
                       ScenarioHypothesisError)
from .cli import RunConfig, parse_config, load_config, run_scenario
from .snapshot import write_snapshot, read_snapshot

__version__ = "0.1.0"

__all__ = [
    "PhaseGrid", "DensityField", "TransportField", "InitialDataSpec",
    "DomainExitError", "build_phase_grid", "sample_initial_data",
    "LatticeFieldHistory", "MomentProfile",
    "density_moment", "field_from_history", "advance_field",
    "conservative_data_constant", "SolutionHistory",
    "PicardTrace", "MajorantResult", "advect_density", "solve_picard",
    "solve_direct", "majorant_existence_time", "support_infimum",
    "compute_diagnostics", "derivative_rep_check", "scaling_transform",
    "pde_residual", "scenario_monotone_check", "holder_quotient",
    "ScenarioHypothesisError",
    "RunConfig", "parse_config", "load_config", "run_scenario",
    "write_snapshot", "read_snapshot",
]
