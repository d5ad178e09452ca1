"""Error taxonomy shared by all modules."""


class QmieError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QmieError, ValueError):
    """Input outside an operation's mathematical domain."""


class ResourceLimitError(QmieError, RuntimeError):
    """Requested work beyond the configured hard cap."""


class DegenerateChannelError(QmieError, ArithmeticError):
    """Both boundary coefficients vanished; the channel phase is undefined."""


class PoleExcludedError(DomainError):
    """Evaluation requested exactly on an excluded singular point."""


class ToleranceError(QmieError, RuntimeError):
    """A numerical tolerance could not be met (e.g. quadrature non-convergence)."""


class ConsistencyError(QmieError, RuntimeError):
    """Two internal routes to the same quantity disagree beyond tolerance."""


class NonFiniteError(QmieError, ArithmeticError):
    """A result holds NaN or inf where a finite value is required."""


class ConfigError(QmieError, ValueError):
    """Malformed run configuration."""
