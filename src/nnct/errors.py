"""Exception types, and the seed and count rules, shared across the package."""

import numbers
import operator

import numpy as np


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


def check_real(value, what: str) -> float:
    """A real parameter (a level, an offset, a radius): a Python or numpy
    real number, returned as a float; text is refused, never parsed."""
    if not isinstance(value, numbers.Real):
        raise InvalidArgumentError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _array(values, what: str) -> np.ndarray:
    try:
        return np.asarray(values)
    except ValueError:  # ragged nesting (numpy < 1.24 makes an object array)
        raise InvalidInputError(f"{what} must be a rectangular array") from None


def check_real_array(values, what: str) -> np.ndarray:
    """Real data (coordinates) as float64: booleans, integers or floats;
    text, complex numbers and objects are invalid input, never parsed or
    truncated."""
    a = _array(values, what)
    if a.dtype.kind not in "biuf":
        raise InvalidInputError(f"{what} must be real numbers")
    return a.astype(float, copy=False)


def check_integral(values, what: str) -> np.ndarray:
    """Integer data (counts, labels) as int64: integers, or floats with
    integral values, within the int64 range; anything else, NaN included,
    is invalid input, never truncated."""
    a = _array(values, what)
    kind = a.dtype.kind
    if not (kind in "bi" or kind == "u" and np.all(a < 2**63)
            or kind == "f" and np.all((a == np.trunc(a)) & (np.abs(a) < 2.0**63))):
        raise InvalidInputError(f"{what} must be integers within the int64 range")
    return a.astype(np.int64, copy=False)


def check_seed(seed) -> int:
    """The seed rule of every study, Q/R estimate and permutation p-value:
    a nonnegative integer (Python or numpy), returned as an int."""
    return check_count(seed, "seed", 0, "seed must be a nonnegative integer")


class ParseError(NnctError):
    """A data file could not be parsed."""


class DegenerateTestError(NnctError):
    """A test statistic is undefined for this input (zero variance,
    singular covariance, empty class, or similar)."""
