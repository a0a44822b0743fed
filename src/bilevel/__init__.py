"""Inversion-free penalty solver and benchmark suite for bilevel problems."""

from .core import (BoxBounds, StepperState, gaussian_matrix, make_rng,
                   make_stepper, project_box)
from .errors import (CapabilityError, ConfigError, ContractViolationError,
                     ConvergenceError, NumericError, SingularHessianError)
from .hypergrad import (KKTReport, exact_hypergrad, fd_hypergrad,
                        kkt_residual, solve_lower_level, verify_lemma3)
from .oracle import (FdCheckReport, PenaltyParams, Point, ProblemOracle,
                     fd_check_oracle, initial_slacks, penalty_grad_u,
                     penalty_grad_v, penalty_value, slackify)
from .problems import (DatasetSplit, ProblemInstance, get_problem,
                       make_constrained_toy, make_hyperparam_ridge,
                       make_importance_toy, make_poison_toy, make_quadratic,
                       make_synthetic)
from .solvers import (OracleCounters, PenaltyConfig, SolverTrace,
                      approxgrad_hypergrad, fmd_hypergrad, gd_alternating,
                      outer_loop, penalty_aug_solve, penalty_solve,
                      rmd_hypergrad)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
