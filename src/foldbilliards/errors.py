"""Exception hierarchy shared by all modules.

Every error raised on a contract violation derives from GeometryError so
callers (and the CLI) can map failures to exit codes without string matching.
"""


class GeometryError(Exception):
    """Base class for all package-specific failures."""


class InvalidInputError(GeometryError):
    """Non-finite, wrongly shaped or otherwise malformed numeric input."""


class PreconditionError(GeometryError):
    """A documented operation precondition does not hold."""


class DegenerateBoundaryError(GeometryError):
    """The table boundary has a vanishing gradient at the requested point."""


class OutsideTableError(GeometryError):
    """A point violates f >= 0 where a table point was required."""


class SingularPointError(GeometryError):
    """The fold defining function has a vanishing gradient at the point."""


class DegeneratePlaneError(GeometryError):
    """Two tangent vectors fail to span a 2-plane."""


class BounceAccumulationError(GeometryError):
    """Two billiard bounces closer in time than the configured minimum."""


class ConfigError(GeometryError):
    """Malformed experiment configuration, found before anything runs."""


class NumericError(GeometryError):
    """A numerical guard tripped (clamping slack exceeded, divergence, ...)."""
