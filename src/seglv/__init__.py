"""Strongly competing species systems on ball-and-corridor domains.

Steady states of k competing densities with homogeneous Dirichlet data are
solved on dumbbell-like domains (disjoint disks bridged by thin corridors),
the competition strength is marched toward the segregation limit, and the
limit is checked against its characteristic properties: vanishing overlaps,
the differential-inequality pair, non-invasion of foreign territories,
strong H1 convergence, and multistart uniqueness.
"""

from .config import RunConfig, load_config, parse_config
from .continuation import ContinuationSchedule, ContinuationStep, ContinuationTrace, continuation_run
from .diagnostics import (DiagnosticsReport, FreeBoundary, UniquenessReport,
                          ViolationStats, box_violation_count, compute_diagnostics,
                          energy, free_boundary, h1_distance, inequality_check,
                          noninvasion, overlap, seeded_perturbation, uniqueness_probe)
from .domain import (BallSpec, CorridorSpec, GridDomain, build_domain,
                     region_membership, unit_square_domain)
from .errors import (ConfigError, DomainError, DomainMismatchError, EigenSolveError,
                     NDFailure, NonlinearSolveError, PhiUnavailable, PipelineError)
from .fileio import emit_field, emit_image, read_field, read_field_values
from .operators import (ScalarField, StateField, apply_laplacian, inner, norm,
                        solve_spd, state_h1_norm)
from .reaction import (SpeciesParams, f_eval, f_prime, f_truncated_eval,
                       f_truncated_prime, hat_rhs, hat_transform, potential_eval)
from .runner import RunSummary, convergence_study, run
from .scalar import (NDReport, ScalarSolveReport, nd_margin, positive_branch_guess,
                     principal_eigenvalue, solve_ball, supersolution_phi)
from .system import ModelKind, residual, solve_near, solve_system

__all__ = [
    "BallSpec", "ConfigError", "ContinuationSchedule", "ContinuationStep",
    "ContinuationTrace", "CorridorSpec", "DiagnosticsReport", "DomainError",
    "DomainMismatchError", "EigenSolveError", "FreeBoundary", "GridDomain",
    "ModelKind", "NDFailure", "NDReport", "NonlinearSolveError",
    "PhiUnavailable", "PipelineError", "RunConfig", "RunSummary", "ScalarField",
    "ScalarSolveReport", "SpeciesParams", "StateField", "UniquenessReport",
    "ViolationStats", "apply_laplacian", "box_violation_count", "build_domain",
    "compute_diagnostics", "continuation_run", "convergence_study", "emit_field",
    "emit_image", "energy", "f_eval", "f_prime", "f_truncated_eval",
    "f_truncated_prime", "free_boundary", "h1_distance", "hat_rhs", "hat_transform",
    "inequality_check", "inner", "load_config", "nd_margin", "noninvasion", "norm",
    "overlap", "parse_config", "positive_branch_guess", "potential_eval",
    "principal_eigenvalue", "read_field", "read_field_values", "region_membership",
    "residual", "run", "seeded_perturbation", "solve_ball", "solve_near",
    "solve_spd", "solve_system", "state_h1_norm", "supersolution_phi", "uniqueness_probe",
    "unit_square_domain",
]
