"""Blind calibration of multiplicative sensor gains from randomized snapshots.

Jointly recovers a signal x and positive per-sensor gains d from p snapshots
y_l = diag(d) A_l x taken under independent random sensing matrices, by
projected gradient descent from a backprojection initialisation.
"""

from .errors import (BlindcalError, DimensionError, DivergenceError, FormatError,
                     ParameterError, SingularityError, TheoryRangeWarning)
from .geometry import (delta, delta_F, draw_gain_perturbation, in_neighbourhood,
                       project_C_rho, project_zero_sum)
from .model import GroundTruth, SensingEnsemble, generate_ensemble, sense
from .objective import (GradientPair, expected_gradients, expected_hessian,
                        expected_objective, gradients, hessian, objective_value)
from .seeding import derive_seed
from .solver import (ContractionDiagnostics, SolveResult, SolverConfig, SolverState,
                     SolverTrace, contraction_diagnostics, default_kappa,
                     exact_line_search, initialise, iterate, solve)

__all__ = [
    "BlindcalError", "DimensionError", "DivergenceError", "FormatError",
    "ParameterError", "SingularityError", "TheoryRangeWarning",
    "delta", "delta_F", "draw_gain_perturbation", "in_neighbourhood",
    "project_C_rho", "project_zero_sum",
    "GroundTruth", "SensingEnsemble", "generate_ensemble", "sense",
    "GradientPair", "expected_gradients", "expected_hessian", "expected_objective",
    "gradients", "hessian", "objective_value",
    "derive_seed",
    "ContractionDiagnostics", "SolveResult", "SolverConfig", "SolverState",
    "SolverTrace", "contraction_diagnostics", "default_kappa",
    "exact_line_search", "initialise", "iterate", "solve",
]

__version__ = "0.1.0"
