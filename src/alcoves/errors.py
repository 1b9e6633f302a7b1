"""Exception types shared across the library.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message wording.
"""


class AlcovesError(Exception):
    """Base class for all library errors."""


class SingularSystemError(AlcovesError, ValueError):
    """Square linear system with no unique solution."""


class WallPointError(AlcovesError, ValueError):
    """Point lies on a reflection hyperplane, so it selects no alcove."""


class BudgetExceededError(AlcovesError, RuntimeError):
    """A configured enumeration cap was hit before the computation finished."""


class FitVerificationError(AlcovesError, RuntimeError):
    """Fitted coefficients failed exact verification on held-out points."""


class FormulaConsistencyError(AlcovesError, RuntimeError):
    """An identity that must hold exactly (by theory) failed at runtime."""
