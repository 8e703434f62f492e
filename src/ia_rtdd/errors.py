"""Exception types shared across the package."""


class IaRtddError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IaRtddError, ValueError):
    """Invalid network configuration, stream allocation, or input format."""


class BudgetError(IaRtddError):
    """Allocation search space exceeds the configured budget."""


class MatchingError(IaRtddError):
    """No complete matching exists for the requested block assignment."""


class SingularSystemError(IaRtddError):
    """A stacked effective channel matrix is too ill-conditioned to invert."""


class NumericalError(IaRtddError):
    """A numeric computation produced a non-finite or invalid result."""
