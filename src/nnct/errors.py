"""Exception types, and the seed and count rules, shared across the package."""

import operator


class NnctError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(NnctError):
    """Input data, or as ``InvalidArgumentError`` a parameter, violate a
    documented precondition."""


class InvalidArgumentError(InvalidInputError):
    """A parameter, not the data, violates a documented precondition: the
    caller's fault, which the CLI reports as a usage error."""


def check_count(value, what: str, minimum: int, message: str | None = None) -> int:
    """A count parameter: an integer (Python or numpy) >= ``minimum``,
    returned as an int.  ``message``, if given, replaces both refusals."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(
            message or f"{what} must be an integer, got {value!r}") from None
    if count < minimum:
        raise InvalidArgumentError(message or f"{what} must be >= {minimum}, got {count}")
    return count


def check_seed(seed) -> int:
    """The seed rule of every study, Q/R estimate and permutation p-value:
    a nonnegative integer (Python or numpy), returned as an int."""
    return check_count(seed, "seed", 0, "seed must be a nonnegative integer")


class ParseError(NnctError):
    """A data file could not be parsed."""


class DegenerateTestError(NnctError):
    """A test statistic is undefined for this input (zero variance,
    singular covariance, empty class, or similar)."""
