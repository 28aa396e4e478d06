"""Exception types shared across the package."""


class NnctError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(NnctError):
    """Input data or parameters violate a documented precondition."""


class ParseError(NnctError):
    """A data file could not be parsed."""


class DegenerateTestError(NnctError):
    """A test statistic is undefined for this input (zero variance,
    singular covariance, empty class, or similar)."""
