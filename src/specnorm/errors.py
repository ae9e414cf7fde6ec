"""Error taxonomy shared across the package.

Three families, matching the process exit codes of the command line front
end: configuration problems (bad keys, ranges, incompatible settings),
data problems (malformed input files, unusable samples), and numerical
problems (failed decompositions, degenerate statistics). All derive from
:class:`SpecnormError` so callers can catch package errors in one clause.

Every count, from a config key to a spec's length, is checked by one rule,
:func:`_check_count`: an integer (numpy integers pass, bools do not) of at least
its bound and below 2**63. Every real argument, from a plan's alpha to an
interval's estimate, is checked by another, :func:`_check_real`: a real number
(Python and numpy reals pass; bools, None, strings, complex numbers, Decimals
and arrays do not) inside an interval whose infinite ends are open, so NaN,
+-inf and integers past the float range never pass. A refused value raises a
ConfigError that names it: "<name> = <value> must be an integer", "... must be
at least <bound>", "... must be below 2**63", "... must be a real number" or
"... must lie in <interval>".
"""

import math
import numbers
import operator
from contextlib import suppress

__all__ = ["SpecnormError", "ConfigError", "DataError", "NumericalError"]


class SpecnormError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpecnormError, ValueError):
    """A configuration value is missing, unknown, or out of range."""


class DataError(SpecnormError, ValueError):
    """Input data cannot be used (malformed file, too short, non-finite)."""


class NumericalError(SpecnormError, RuntimeError):
    """A numerical routine failed or produced a degenerate quantity."""


def _check_count(name: str, value: object, least: int = 1) -> int:
    """``value`` as an int, once ``operator.index`` reads it (numpy integers, not bools or
    None) in [least, 2**63): past 2**63 the float arithmetic counts feed overflows. An
    optional count that is unset (None) is its caller's to skip."""
    if not isinstance(value, bool):
        with suppress(TypeError):  # from operator.index only: a ConfigError passes
            count = operator.index(value)
            if count < least:
                raise ConfigError(f"{name} = {value} must be at least {least}")
            if count >= 2**63:
                raise ConfigError(f"{name} = {value} must be below 2**63")
            return count
    raise ConfigError(f"{name} = {value!r} must be an integer")


def _check_real(name: str, value: object, low: float = -math.inf, high: float = math.inf,
                open_low: bool = False, open_high: bool = False) -> float:
    """``value`` as a float, once it is a real number (``numbers.Real``, so numpy floats and
    integers, not bools) inside the interval from ``low`` to ``high``; an infinite end is open."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} = {value!r} must be a real number")
    x = math.nan  # for an integer or fraction past the float range
    with suppress(OverflowError):
        x = float(value)
    open_low, open_high = open_low or low == -math.inf, open_high or high == math.inf
    if not ((low < x if open_low else low <= x) and (x < high if open_high else x <= high)):
        interval = f"{'(' if open_low else '['}{low:.6g}, {high:.6g}{')' if open_high else ']'}"
        raise ConfigError(f"{name} = {value} must lie in {interval}")
    return x
