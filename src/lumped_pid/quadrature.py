"""Running quadrature shared by the observer and the classic PID integral.

Both controller forms must integrate with the same rule, otherwise their
outputs drift apart; the PI/PID equivalence tests pin this.
"""

from .errors import ConfigError

RECTANGULAR = "rectangular"  # left endpoint
TRAPEZOIDAL = "trapezoidal"

RULES = (RECTANGULAR, TRAPEZOIDAL)


class Integrator:
    """Accumulates samples y_k taken at t_k = k*dt into an estimate of
    the running integral of y up to the current sample time.

    ``push(y_k)`` returns the integral up to t_k: the left-rectangular rule
    uses previous samples only, the trapezoidal rule closes the last panel
    with the new sample. The first push always returns the seed value.

    Samples may be floats or ``[lanes]`` float64 arrays (one lane per
    lockstep cell); the running total is rebound, never updated in place, so
    a returned total or a stored sample is never changed by a later push.
    """

    __slots__ = ("rule", "total", "_prev", "_started")

    def __init__(self, rule: str = RECTANGULAR, seed: float = 0.0):
        if rule not in RULES:
            raise ConfigError(f"unknown quadrature rule {rule!r}, expected one of {RULES}")
        self.rule = rule
        self.total = float(seed)
        self._prev = 0.0
        self._started = False

    def push(self, sample: float, dt: float) -> float:
        if self._started:
            if self.rule == RECTANGULAR:
                self.total = self.total + self._prev * dt
            else:
                self.total = self.total + 0.5 * (self._prev + sample) * dt
        else:
            self._started = True
        self._prev = sample
        return self.total
