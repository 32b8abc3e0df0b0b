"""Sparse solutions of tensor complementarity problems.

Sparse coordinate tensors, structure classification (nonnegative, Z, M, P,
and the KS class), an exact QP subproblem solver (direct solves, a
least-squares step, a dual active-set method), and an SQP driver for the
minimum-support reformulation min e'x s.t. A x^(m-1) = q, x >= 0.
"""

from .tensors import Tensor, SpectralBracket, spectral_radius
from .classify import (Verdict, Certificate, KSDecomposition, is_nonnegative,
                       is_z_tensor, is_nonsingular_m_tensor, is_p_tensor,
                       is_ks_tensor, ks_split, satisfies_condition2,
                       z_function_check)
from .qp import QP, QPResult, solve_qp
from .sqp import (SQPConfig, SolveReport, MultistartResult, Verification,
                  sqp_solve, multistart_sparse, verify_solution, SPARSITY_TOL)
from .problems import (TCPProblem, FormatError, parse_problem, parse_tensor,
                       serialize_problem, serialize_tensor, builtin,
                       BUILTIN_NAMES, reference_solution, generate_ks_instance)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "SpectralBracket", "spectral_radius",
    "Verdict", "Certificate", "KSDecomposition", "is_nonnegative",
    "is_z_tensor", "is_nonsingular_m_tensor", "is_p_tensor", "is_ks_tensor",
    "ks_split", "satisfies_condition2", "z_function_check",
    "QP", "QPResult", "solve_qp",
    "SQPConfig", "SolveReport", "MultistartResult", "Verification",
    "sqp_solve", "multistart_sparse", "verify_solution", "SPARSITY_TOL",
    "TCPProblem", "FormatError", "parse_problem", "parse_tensor",
    "serialize_problem", "serialize_tensor", "builtin", "BUILTIN_NAMES",
    "reference_solution", "generate_ks_instance",
    "__version__",
]
