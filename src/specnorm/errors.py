"""Error taxonomy shared across the package.

Three families, matching the process exit codes of the command line front
end: configuration problems (bad keys, ranges, incompatible settings),
data problems (malformed input files, unusable samples), and numerical
problems (failed decompositions, degenerate statistics). All derive from
:class:`SpecnormError` so callers can catch package errors in one clause.

Every count, from a config key to a spec's length, is checked by one rule,
:func:`_check_count`: an integer (numpy integers pass, bools do not) of at
least its bound and below 2**63, else a ConfigError "<name> = <value> must be
an integer", "... must be at least <bound>" or "... must be below 2**63".
"""

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
