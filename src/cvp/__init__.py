"""Solver and verifier for causal variational principles on discretized spaces."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import CVPError, InputError, SolverFailure, UsageError
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
from .pipeline import (ExhaustionRun, RunOptions, ScaledMinimizer, run_exhaustion,
                       stage_ell, tail_mass, window_points)
from .el_analysis import (EXIT_CONDITION, EXIT_EL_FAILED, EXIT_MINIMALITY,
                          EXIT_OK, check_sufficient_conditions,
                          gamma_lower_bound, local_mass_bound_check,
                          nontriviality_check, verify_el)

# the names imported above; the submodules they come from are not API names
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
