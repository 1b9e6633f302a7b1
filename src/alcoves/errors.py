"""Exception types shared across the library, and the default budgets.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message wording.  The default caps live here, beside
BudgetExceededError, so that the CLI reads them without importing a route.
"""

DEFAULT_INTERVAL_CAP = 10 ** 6  # elements of a lower Bruhat interval (`affine`)
DEFAULT_BOX_CAP = 10 ** 8  # cells of the level simplex that bounds X_lambda (`orbits`)


class AlcovesError(Exception):
    """Base class for all library errors."""


class WallPointError(AlcovesError, ValueError):
    """Point lies on a reflection hyperplane, so it selects no alcove."""


class BudgetExceededError(AlcovesError, RuntimeError):
    """A configured enumeration cap was hit before the computation finished."""


class FitVerificationError(AlcovesError, RuntimeError):
    """Fitted coefficients failed exact verification: a closed-form pin or a count on T_n."""


class FormulaConsistencyError(AlcovesError, RuntimeError):
    """An identity that must hold exactly (by theory) failed at runtime."""
