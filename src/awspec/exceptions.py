"""Exception types shared by the scalar kernels and the high-level API."""


class QSeriesError(Exception):
    """Base class for series/product evaluation failures."""


class PoleError(QSeriesError):
    """A denominator q-shifted factorial vanished (series hits a pole)."""


class NonConvergenceError(QSeriesError):
    """Truncation criteria were not met within the term budget."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""
