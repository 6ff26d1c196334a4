"""Exception types shared across the solver toolkit."""


class ConfigError(ValueError):
    """A solver or criterion configuration violates its preconditions."""


class InvalidStartError(ConfigError):
    """The starting point lies outside the effective domain of the nonsmooth part."""


class NumericFailure(RuntimeError):
    """A numerical routine failed: no convergence within its cap, or rounding
    broke an inequality that holds in exact arithmetic."""


class GrowthOverflowError(OverflowError):
    """A step would take the coefficient sum past the floating-point safety limit."""


class CertificateUndefinedError(ValueError):
    """A certificate was requested at an iterate where it is not defined (k = 0)."""
