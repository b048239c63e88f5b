"""Error taxonomy shared across the package.

Every failure the library raises on purpose derives from GpsolError so
callers can catch the whole family at once.  The CLI maps subclasses to
process exit codes (see cli.py).
"""

from __future__ import annotations


class GpsolError(Exception):
    """Base class for all errors raised by gpsol."""


class ConfigurationError(GpsolError, ValueError):
    """Invalid configuration: bad key, bad value, violated invariant."""


class SingularityError(ConfigurationError):
    """The interaction profile is singular inside the requested domain."""


class ParameterError(GpsolError, ValueError):
    """Soliton or particle parameters outside their admissible range."""


class RangeError(GpsolError, ValueError):
    """A required window or point falls outside the usable domain."""


class ExtractionError(GpsolError, ValueError):
    """Center extraction is degenerate for the supplied field."""


class InstabilityError(GpsolError, RuntimeError):
    """Time integration produced non-finite values.

    Carries the simulation time at which the blow-up was detected, and
    names it at the end of the message.
    """

    def __init__(self, message: str, t_fail: float):
        super().__init__(f"{message} at t = {t_fail:g}")
        self.t_fail = t_fail
