"""Exact lower Bruhat interval sizes for affine Weyl groups.

Three independent routes to |<= theta(lambda)|:

  * brute-force Coxeter enumeration (subword closure in the alcove model),
  * |W_f| times a lattice-point count of the orbit polytope,
  * a face-volume formula with system-dependent geometric coefficients,

plus the exact machinery the routes call, and no more: rational linear
algebra (Gram determinants, solve, inverse, rank), radical scalars that are
multiplied, divided and compared, volume polynomials, and hypersimplex
Ehrhart polynomials.
"""

__version__ = "0.1.0"

from .errors import (AlcovesError, BudgetExceededError, DegenerateBasisError,
                     FitVerificationError, FormulaConsistencyError,
                     SingularSystemError, WallPointError)
from .linalg import QMatrix, QVector, gram_det, solve_linear
from .radicals import RadScalar, sqrt_decompose
from .mpoly import MPoly
from .rootdata import (RootSystemData, RootSystemId, build_root_system,
                       dominant_representative, weyl_order)
from .affine import (descents, element_from_point, interval_size_bruhat,
                     lower_interval, sigma_reflection, theta)
from .orbits import (DominantCoweight, FaceDescriptor, contains, enumerate_X,
                     face, interval_size_lattice, lattice_count,
                     lattice_count_by_membership)
from .volumes import (VolumePolynomial, euclidean_volume, relative_volumes,
                      squarefree_coefficient, volume_polynomial)
from .coefficients import (GeometricCoefficients, eulerian, evaluate_formula,
                           fit_mu, hypersimplex_dilation_count,
                           hypersimplex_ehrhart, mu_full, stirling1,
                           type_a_connected_mu)

__all__ = [
    "AlcovesError", "BudgetExceededError", "DegenerateBasisError",
    "DominantCoweight", "FaceDescriptor", "FitVerificationError",
    "FormulaConsistencyError", "GeometricCoefficients", "MPoly", "QMatrix",
    "QVector", "RadScalar", "RootSystemData", "RootSystemId",
    "SingularSystemError", "VolumePolynomial", "WallPointError",
    "build_root_system", "contains", "descents", "dominant_representative",
    "element_from_point", "enumerate_X", "eulerian",
    "euclidean_volume", "evaluate_formula", "face", "fit_mu", "gram_det",
    "hypersimplex_dilation_count", "hypersimplex_ehrhart",
    "interval_size_bruhat", "interval_size_lattice", "lattice_count",
    "lattice_count_by_membership", "lower_interval", "mu_full",
    "relative_volumes", "sigma_reflection", "solve_linear",
    "sqrt_decompose", "squarefree_coefficient", "stirling1", "theta",
    "type_a_connected_mu", "volume_polynomial", "weyl_order",
]
