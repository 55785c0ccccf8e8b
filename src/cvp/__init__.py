"""Solver and verifier for causal variational principles on discretized spaces."""

__version__ = "0.1.0"

from .errors import (ConstructionError, CVPError, DegenerateExhaustionError,
                     DegenerateStageError, InputError, PositivityError,
                     ProfileError, SizeError, SolverFailure, UsageError,
                     VolumeConstraintError)
from .space import (Exhaustion, MetricSpace, build_exhaustion, closed_ball,
                    grid_1d, space_from_dict)
from .lagrangian import (DecayProfile, Lagrangian, diagonal_infimum,
                         exp_profile, global_sup,
                         kernel_from_spec, make_kernel, poly_profile,
                         profile_from_spec, scaled_exp_profile, tail_index,
                         verify_compact_range, verify_entropy_decay)
from .measure import (DiscreteMeasure, action, averaged_kernel, measure_to_dict,
                      restrict)
from .simplex_solver import (CompactProblem, CompactSolution, KKTResiduals,
                             SolverOptions, brute_force_minimizer,
                             minimize_on_compact)
from .pipeline import (ExhaustionRun, RunOptions, ScaledMinimizer,
                       check_ell_convergence, check_support_approximation,
                       local_mass_bound_check, run_exhaustion,
                       stage_ell, tail_mass, window_points)
from .el_analysis import (EXIT_CONDITION, EXIT_EL_FAILED, EXIT_MINIMALITY,
                          EXIT_OK, ELReport, check_sufficient_conditions,
                          gamma_lower_bound, nontriviality_check, verify_el)

__all__ = [name for name in dir() if not name.startswith("_")]
