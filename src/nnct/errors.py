"""Exception types, and the seed rule, shared across the package."""


class NnctError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(NnctError):
    """Input data, or as ``InvalidArgumentError`` a parameter, violate a
    documented precondition."""


class InvalidArgumentError(InvalidInputError):
    """A parameter, not the data, violates a documented precondition: the
    caller's fault, which the CLI reports as a usage error."""


def check_seed(seed: int) -> None:
    """The seed rule of every study, Q/R estimate and permutation p-value:
    a nonnegative integer."""
    if seed < 0:
        raise InvalidArgumentError("seed must be a nonnegative integer")


class ParseError(NnctError):
    """A data file could not be parsed."""


class DegenerateTestError(NnctError):
    """A test statistic is undefined for this input (zero variance,
    singular covariance, empty class, or similar)."""
