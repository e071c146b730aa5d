"""Numerical noncommutative interpolation and Poisson transforms on
truncated full Fock spaces.

The library works with the multiplier algebra generated by the left creation
operators on a Fock space truncated at a chosen degree: multiplier norm
bounds, Nevanlinna-Pick and Caratheodory interpolation over the unit ball,
Poisson kernels of row contractions with von Neumann inequality checks, and
quotients by 2-sided ideals such as commutation relations.
"""

from .errors import DomainError, ResourceCapError, SingularGramError
from .freealg import (BallPoint, NcMatrixPolynomial, NcPolynomial, WordIndex, basis_size,
                      evaluate, sup_norm_bounds, tensor_product, truncated_mult_matrix)
from .ideals import (IdealSpec, QuotientModel, build_quotient, caratheodory_distance,
                     constrained_von_neumann_check, q_commutation_spec, quotient_checks,
                     quotient_distance, quotient_poisson_check)
from .numerics import PsdVerdict, as_hermitian, hermitian_sqrt, operator_norm, psd_check
from .pick import (PickCertificate, PickProblem, certify, classical_ball_matrix, gram,
                   lagrange_interpolant, min_norm_and_condition, pick_matrix,
                   sample_membership_check)
from .poisson import (PoissonKernelMatrix, RowContraction, c0_sequence, is_c0_certified,
                      minimal_subspace, poisson_covariance_residuals, poisson_kernel)

__all__ = [
    "BallPoint", "DomainError", "IdealSpec", "NcMatrixPolynomial", "NcPolynomial",
    "PickCertificate", "PickProblem", "PoissonKernelMatrix", "PsdVerdict", "QuotientModel",
    "ResourceCapError", "RowContraction", "SingularGramError", "WordIndex", "as_hermitian",
    "basis_size", "build_quotient", "c0_sequence", "caratheodory_distance", "certify",
    "classical_ball_matrix", "constrained_von_neumann_check", "evaluate", "gram",
    "hermitian_sqrt", "is_c0_certified", "lagrange_interpolant", "min_norm_and_condition",
    "minimal_subspace", "operator_norm", "pick_matrix", "poisson_covariance_residuals",
    "poisson_kernel", "psd_check", "q_commutation_spec", "quotient_checks",
    "quotient_distance", "quotient_poisson_check", "sample_membership_check",
    "sup_norm_bounds", "tensor_product", "truncated_mult_matrix",
]

__version__ = "0.1.0"
