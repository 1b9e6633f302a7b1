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

Importing the package imports none of its modules: each public name is read
from its module on first use (PEP 562), so a CLI process loads only the route
it runs.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it; __all__ lists them sorted
_HOMES = {
    "errors": ("AlcovesError", "BudgetExceededError", "FitVerificationError",
               "FormulaConsistencyError", "WallPointError"),
    "mpoly": ("MPoly",),
    "rootdata": ("RootSystemData", "RootSystemId", "build_root_system",
                 "dominant_representative", "weyl_order"),
    "affine": ("descents", "interval_size_bruhat", "lower_interval", "sigma_reflection",
               "theta"),
    "orbits": ("FaceDescriptor", "contains", "enumerate_X", "face", "interval_size_lattice",
               "lattice_count", "lattice_count_by_membership"),
    "volumes": ("VolumePolynomial", "volume_polynomial"),
    "coefficients": ("GeometricCoefficients", "evaluate_formula", "fit_mu",
                     "hypersimplex_dilation_count", "hypersimplex_ehrhart"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module
    return getattr(import_module("." + _HOME[name], __name__), name)
