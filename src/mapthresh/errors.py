"""Exception types shared across the package, and the checks of scalar arguments.

All exception types inherit from ValueError so callers that only know the
stdlib still catch them; the CLI uses the distinction to pick exit codes
(bad inputs exit 2, numeric failures exit 1).
"""


class MapThreshError(ValueError):
    """Base class for errors raised by this package."""


class DomainError(MapThreshError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigurationError(MapThreshError):
    """A spec, config file, or parameter combination is invalid."""


class SizeError(MapThreshError):
    """An input is too large or too small for the requested operation."""


class DegenerateDataError(MapThreshError):
    """The data carry no usable information (e.g. constant input)."""


class UnsupportedBallError(MapThreshError):
    """The requested parameter-ball kind is not supported here."""


class NumericError(MapThreshError):
    """A computation failed numerically (overflow, non-convergence treated as fatal)."""


def check_integer(value, name: str, minimum: int, error: type[MapThreshError] = DomainError) -> int:
    """``value`` as an int if it has an integral value >= ``minimum`` (10.0 does,
    a bool does not); else raise ``error``, naming the argument ``name``."""
    try:
        whole = int(value)
        usable = whole == value and whole >= minimum and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):  # None, strings, NaN, infinities
        usable = False
    if not usable:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return whole


def check_between(value, name: str, low: float, high: float, error: type[MapThreshError] = DomainError):
    """``value`` unchanged if low < value < high (NaN is not, nor is a
    bool); else raise ``error``, naming the argument ``name``."""
    try:
        usable = low < value < high and not isinstance(value, bool)
    except (TypeError, ValueError):  # None, strings, arrays
        usable = False
    if not usable:
        raise error(f"{name} must lie in ({low:g}, {high:g}), got {value!r}")
    return value
