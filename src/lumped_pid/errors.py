"""Exception types shared across the package, and the check of a positive number."""

import numpy as np


class LumpedPidError(Exception):
    """Base class for all package errors; ``kind`` names one in reports, and
    one that stops a run's loop carries the ``step`` and time ``t`` of it."""

    def __init__(self, message, t=None, step=None):
        super().__init__(message)
        self.t = t
        self.step = step

    kind = property(lambda self: type(self).__name__)

    def at(self, step, t) -> None:
        """Record the step and time at which it stopped a run's loop, unless set."""
        if self.step is None:
            self.step, self.t = step, t


class ConfigError(LumpedPidError):
    """Invalid configuration value or scenario field."""


def check_positive(value, key):
    """``value`` if it is a finite number > 0, or a ``[lanes]`` array of
    them, else a ConfigError naming ``key``: the check of every bandwidth
    and step, option or argument."""
    v = np.asarray(value, dtype=float)
    if not np.isfinite(v).all():
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if not (v > 0.0).all():
        raise ConfigError(f"{key}: must be positive, got {value!r}")
    return value


class OrderMismatchError(ConfigError):
    """Controller order does not match the requested reduction or plant."""


class DimensionMismatchError(LumpedPidError):
    """Sequence length does not match the controller/plant dimension."""


class PoleHitError(LumpedPidError):
    """Transfer-function evaluation requested on (or numerically at) a pole."""


class DivergedError(LumpedPidError):
    """Simulation state became non-finite or exceeded the runaway bound."""

    kind = "diverged"


class WindowTooShortError(LumpedPidError):
    """Trace tail too short to estimate a steady-state quantity."""


class OffPathError(LumpedPidError):
    """Pose is outside the path's capture region."""


class AmbiguousMatchError(LumpedPidError):
    """Two path matching candidates are equally close."""


class AttitudeSingularityError(LumpedPidError):
    """Error-rotation vector parameterization is singular (tr(R~) close to -1)."""


class DegenerateThrustError(LumpedPidError):
    """Desired force vector too small to define a thrust direction."""


class GimbalDegenerateError(LumpedPidError):
    """Desired thrust axis is parallel to the heading vector."""


class SteeringLimitError(LumpedPidError):
    """Effective steering angle at or beyond +-pi/2."""
