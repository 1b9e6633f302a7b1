"""Exact lower Bruhat interval sizes for affine Weyl groups.

Three independent routes to |<= theta(lambda)|:

  * brute-force Coxeter enumeration (subword closure in the alcove model),
  * |W_f| times a lattice-point count of the orbit polytope,
  * a face-volume formula with system-dependent geometric coefficients,

plus the exact machinery each route needs (rational linear algebra,
radical scalars, volume polynomials, hypersimplex Ehrhart polynomials).
"""

__version__ = "0.1.0"

from .errors import (AlcovesError, BudgetExceededError, DegenerateBasisError,
                     FitVerificationError, FormulaConsistencyError,
                     RadicalClassError, SingularSystemError, WallPointError)
from .linalg import QMatrix, QVector, gram_det, gram_matrix, solve_linear
from .radicals import RadScalar, sqrt_decompose
from .mpoly import MPoly
from .rootdata import (RootSystemData, RootSystemId, build_root_system,
                       dominant_representative, weyl_order)
from .affine import (AffineElement, descents, element_from_point,
                     enumerate_weyl_group, length, longest_finite_element,
                     lower_interval, sigma_reflection, simple_reflection, theta)
from .orbits import (DominantCoweight, FaceDescriptor, contains, enumerate_X,
                     face, interval_size_lattice, lattice_count,
                     lattice_count_by_membership)
from .volumes import (VolumePolynomial, euclidean_volume, mixed_basis_nu,
                      squarefree_coefficient, volume_polynomial)
from .coefficients import (GeometricCoefficients, eulerian, evaluate_formula,
                           fit_mu, hypersimplex_dilation_count,
                           hypersimplex_ehrhart, mu_empty, mu_full, stirling1,
                           type_a_connected_mu)

__all__ = [
    "AffineElement", "AlcovesError", "BudgetExceededError", "DegenerateBasisError",
    "DominantCoweight", "FaceDescriptor", "FitVerificationError",
    "FormulaConsistencyError", "GeometricCoefficients", "MPoly", "QMatrix",
    "QVector", "RadScalar", "RadicalClassError", "RootSystemData", "RootSystemId",
    "SingularSystemError", "VolumePolynomial", "WallPointError",
    "build_root_system", "contains", "descents", "dominant_representative",
    "element_from_point", "enumerate_weyl_group", "enumerate_X", "eulerian",
    "euclidean_volume", "evaluate_formula", "face", "fit_mu", "gram_det",
    "gram_matrix", "hypersimplex_dilation_count", "hypersimplex_ehrhart",
    "interval_size_lattice", "lattice_count", "lattice_count_by_membership",
    "length", "longest_finite_element", "lower_interval", "mixed_basis_nu",
    "mu_empty", "mu_full", "sigma_reflection", "simple_reflection", "solve_linear",
    "sqrt_decompose", "squarefree_coefficient", "stirling1", "theta",
    "type_a_connected_mu", "volume_polynomial", "weyl_order",
]
