"""Exact lower Bruhat interval sizes for affine Weyl groups.

Three independent routes to |<= theta(lambda)|:

  * brute-force Coxeter enumeration (subword closure in the alcove model),
  * |W_f| times a lattice-point count of the orbit polytope,
  * a face-volume formula with system-dependent geometric coefficients,

plus the exact machinery the routes call, and no more: integer root data
with an ambient Euclidean view built on first read from integers alone (tuples
of Fractions, and (coeff, radicand) pairs for the lattice volumes that
`rootdata` reports), one integer bordering step that gives the adjugate and
determinant of each Cartan block, volume polynomials, and hypersimplex Ehrhart
polynomials.  The oracles that check these, a general Gauss-Jordan
elimination, rational vectors and radical scalars among them, live with the
tests.
"""

__version__ = "0.1.0"

from .errors import (AlcovesError, BudgetExceededError, FitVerificationError,
                     FormulaConsistencyError, WallPointError)
from .mpoly import MPoly
from .rootdata import (RootSystemData, RootSystemId, build_root_system,
                       dominant_representative, weyl_order)
from .affine import (descents, interval_size_bruhat, lower_interval, sigma_reflection,
                     theta)
from .orbits import (FaceDescriptor, contains, enumerate_X, face, interval_size_lattice,
                     lattice_count, lattice_count_by_membership)
from .volumes import VolumePolynomial, relative_volumes, volume_polynomial
from .coefficients import (GeometricCoefficients, evaluate_formula, fit_mu,
                           hypersimplex_dilation_count, hypersimplex_ehrhart)

__all__ = [
    "AlcovesError", "BudgetExceededError", "FaceDescriptor",
    "FitVerificationError", "FormulaConsistencyError", "GeometricCoefficients",
    "MPoly", "RootSystemData", "RootSystemId",
    "VolumePolynomial", "WallPointError",
    "build_root_system", "contains", "descents", "dominant_representative",
    "enumerate_X", "evaluate_formula", "face", "fit_mu",
    "hypersimplex_dilation_count", "hypersimplex_ehrhart",
    "interval_size_bruhat", "interval_size_lattice", "lattice_count",
    "lattice_count_by_membership", "lower_interval", "relative_volumes",
    "sigma_reflection", "theta", "volume_polynomial", "weyl_order",
]
