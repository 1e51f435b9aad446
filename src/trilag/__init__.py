"""Bound-state spectra of 2D radial Schrodinger problems in a Laguerre basis.

The basis renders the reference Hamiltonian and the overlap tridiagonal
while three potential families (screened Coulomb / Yukawa, Kratzer,
generalized Morse) get closed-form or Gauss-assembled potential matrices,
so spectra reduce to a symmetric-definite generalized eigenproblem.  Each
family is a Potential that also gives the radial form and weight exponent
of a generalized Gauss-Laguerre oracle, quad_potential_matrix, which
assembles the full matrix as one Gauss product on the orthonormal Laguerre
table and validates every assembled element.
"""

from .basis import BasisSpec, h0_matrix, overlap_matrix
from .eigen import NotPositiveDefiniteError, Pencil, solve_pencil
from .potentials import (
    KratzerParams,
    MorseParams,
    Potential,
    YukawaParams,
    kratzer_matrix,
    morse_matrix,
    oracle_weight_nu,
    radial_function,
    yukawa_matrix,
)
from .quadrature import QuadRule, gauss_laguerre_rule, quad_potential_matrix
from .solver import (
    ConvergenceTable,
    PlateauReport,
    SpectrumResult,
    bound_states,
    converge_in_n,
    critical_screening,
    kratzer_exact,
    lambda_scan,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "ConvergenceTable",
    "KratzerParams",
    "MorseParams",
    "NotPositiveDefiniteError",
    "Pencil",
    "PlateauReport",
    "Potential",
    "QuadRule",
    "SpectrumResult",
    "YukawaParams",
    "bound_states",
    "converge_in_n",
    "critical_screening",
    "gauss_laguerre_rule",
    "h0_matrix",
    "kratzer_exact",
    "kratzer_matrix",
    "lambda_scan",
    "morse_matrix",
    "oracle_weight_nu",
    "overlap_matrix",
    "quad_potential_matrix",
    "radial_function",
    "solve_pencil",
    "spectrum",
    "yukawa_matrix",
]
