"""Exception hierarchy shared across the library."""


class PatilError(Exception):
    """Base class for all library errors."""


class DomainError(PatilError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NonConvergence(PatilError, ArithmeticError):
    """Adaptive quadrature exhausted its budget or met a non-finite value."""

    def __init__(self, message, estimate=None, error=None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error
