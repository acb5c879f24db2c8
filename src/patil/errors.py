"""Exception hierarchy shared across the library."""


class PatilError(Exception):
    """Base class for all library errors."""


class DomainError(PatilError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NonConvergence(PatilError, ArithmeticError):
    """Adaptive quadrature exhausted its budget or met a non-finite value.

    ``index`` is the position of the failing integral in its batch, so
    that the caller can name the cell it belongs to.
    """

    def __init__(self, message, estimate=None, error=None, index=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
        self.index = index


def in_cell(exc, cell):
    """``exc``, a NonConvergence, with its message headed by ``cell``."""
    return NonConvergence(f"{cell}: {exc}", exc.estimate, exc.error)
