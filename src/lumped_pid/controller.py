"""Controller synthesis and stepping.

The control input is split as ``u = (u_x - f_hat) / b`` where

* ``u_x = -sum_i a_i x^(i)`` is state feedback placing all poles of the
  disturbance-free system at ``-omega`` (equal-pole tuning, so the whole
  state-feedback part has the single knob ``omega``), and
* ``f_hat = omega_f * (x^(n-1) - int u_x dt)`` is a first-order observer of
  the lumped disturbance with bandwidth ``omega_f``.

For first- and second-order plants this composition collapses to the classic
PI/PID controller; :func:`reduce_to_pi` and :func:`reduce_to_pid` give the
closed-form gains and :class:`GeneralizedController` can step either the
literal integral form or the algebraically reduced PID form (see the class
docstring for when the two discretizations differ).

:func:`lockstep_controller` fuses per-cell controllers into one that steps
every cell at once as a numpy lane, through the same ``step`` code.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, OrderMismatchError
from .polylti import MAX_ORDER, Polynomial, RationalTransferFunction, binomial_poly, poly_mul
from .quadrature import RECTANGULAR, Integrator

OBSERVER_FORMS = ("integral", "pid")


@dataclass(frozen=True)
class ControllerConfig:
    """Synthesis inputs.

    ``n`` is the plant order, ``b`` the input coefficient, ``omega`` the
    state-feedback (homogeneous) bandwidth, ``omega_f`` the observer
    bandwidth, and ``dt`` the controller/integration step. Under measurement
    noise, ``omega < omega_f`` is the recommended (not enforced) tuning.
    """

    n: int
    b: float
    omega: float
    omega_f: float
    dt: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1 or self.n > MAX_ORDER:
            raise ConfigError(f"n: order must be an integer in [1, {MAX_ORDER}], got {self.n!r}")
        if not (self.b != 0.0 and math.isfinite(self.b)):
            raise ConfigError(f"b: input coefficient must be finite and nonzero, got {self.b!r}")
        if not (self.omega > 0.0):
            raise ConfigError(f"omega: bandwidth must be positive, got {self.omega!r}")
        if not (self.omega_f > 0.0):
            raise ConfigError(f"omega_f: observer bandwidth must be positive, got {self.omega_f!r}")
        if not (self.dt > 0.0):
            raise ConfigError(f"dt: step must be positive, got {self.dt!r}")


@dataclass(frozen=True)
class HomogeneousGains:
    """State-feedback gains; ``a[i]`` multiplies ``x^(i)``, i = 0..n-1."""

    a: tuple[float, ...]


@dataclass(frozen=True)
class ClassicPidGains:
    """Textbook gains, pre-division by b (the caller applies 1/b)."""

    kp: float
    ki: float
    kd: Optional[float] = None


def synthesize_gains(n: int, omega: float) -> HomogeneousGains:
    """Equal-pole gains: coefficients of (s+omega)^n below the leading term.

    ``a[i] = C(n, n-i) * omega**(n-i)``, all strictly positive.
    """
    poly = binomial_poly(omega, n)  # validates n and omega
    return HomogeneousGains(a=poly.coeffs[:-1])


def homogeneous_control(a: Sequence[float], x_derivs: Sequence[float]) -> float:
    """State feedback ``u_x = -sum a[i] * x_derivs[i]``; the caller checks
    that both have the plant order's length."""
    acc = 0.0
    for ai, xi in zip(a, x_derivs):
        acc += ai * xi
    return -acc


def reduce_to_pi(config: ControllerConfig) -> ClassicPidGains:
    """First-order reduction: kp = omega, ki = omega_f * omega (pre-1/b)."""
    if config.n != 1:
        raise OrderMismatchError(f"PI reduction requires n=1, got n={config.n}")
    a0 = config.omega
    return ClassicPidGains(kp=a0, ki=config.omega_f * a0, kd=None)


def reduce_to_pid(config: ControllerConfig) -> ClassicPidGains:
    """Second-order reduction with a1 = 2*omega, a0 = omega**2 (pre-1/b):

    kd = a1 + omega_f, kp = a0 + omega_f*a1, ki = omega_f*a0.
    """
    if config.n != 2:
        raise OrderMismatchError(f"PID reduction requires n=2, got n={config.n}")
    a0 = config.omega * config.omega
    a1 = 2.0 * config.omega
    wf = config.omega_f
    return ClassicPidGains(kp=a0 + wf * a1, ki=wf * a0, kd=a1 + wf)


def closed_loop_tf(config: ControllerConfig) -> RationalTransferFunction:
    """Disturbance-to-state transfer function of the compensated loop:

    ``G(s) = s / ((s+omega)^n (s+omega_f))`` -- the zero at the origin is
    what rejects constant disturbances exactly.
    """
    den = poly_mul(binomial_poly(config.omega, config.n), Polynomial((config.omega_f, 1.0)))
    return RationalTransferFunction(Polynomial((0.0, 1.0)), den)


def observer_tfs(omega_f: float) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """Observer lag ``G_o = omega_f/(s+omega_f)`` and its complement
    ``G_e = s/(s+omega_f)`` (estimation-error path); G_o + G_e = 1."""
    if not (omega_f > 0.0):
        raise ConfigError(f"omega_f must be positive, got {omega_f!r}")
    den = Polynomial((omega_f, 1.0))
    g_o = RationalTransferFunction(Polynomial((omega_f,)), den)
    g_e = RationalTransferFunction(Polynomial((0.0, 1.0)), den)
    return g_o, g_e


class GeneralizedController:
    """Stateful stepping of the full controller for any order n.

    ``observer_form`` selects how the observer's running integral of u_x is
    discretized:

    * ``"integral"`` (default) accumulates the u_x samples directly, exactly
      as the observer is defined. The estimate then obeys the first-order lag
      d(f_hat)/dt = omega_f*(f - f_hat) along closed-loop trajectories, so
      estimate-error decay and bandwidth studies use this form.
    * ``"pid"`` carries the integral in its reduced form: every a_i*x^(i)
      component of u_x (i >= 1) integrates exactly to a_i*x^(i-1), leaving a
      running integral of x alone. This reproduces the classic PI/PID
      arithmetic identically, step for step, for any measurement sequence
      under a shared quadrature rule. Following the PI reduction, the n=1
      variant omits the direct measurement term from the estimate.

    The two forms agree in continuous time; discretely they differ by the
    quadrature error of the top-derivative channel (and, for n=1, by the
    omitted direct term), which is why both are provided.

    The running integral starts at 0, or at the first z^(n-1) with
    ``seed_integral``: the omitted initial-value term is part of the lumped
    disturbance.
    """

    LANE_FIELDS = ("gains", "_omega_f")

    def __init__(
        self,
        config: ControllerConfig,
        rule: str = RECTANGULAR,
        observer_form: str = "integral",
        seed_integral: bool = False,
    ):
        if observer_form not in OBSERVER_FORMS:
            raise ConfigError(f"observer_form must be one of {OBSERVER_FORMS}, got {observer_form!r}")
        self.config = config
        self.gains = synthesize_gains(config.n, config.omega)
        self.rule = rule
        self.observer_form = observer_form
        self.seed_integral = seed_integral
        self._omega_f = config.omega_f
        self._integ = Integrator(rule)
        self.u_x = 0.0
        self.f_hat = 0.0
        self._first = True

    def step(self, z: Sequence[float]) -> float:
        """Consume one measurement vector (x^(0)..x^(n-1)), return u."""
        cfg = self.config
        n = cfg.n
        if len(z) != n:
            raise DimensionMismatchError(f"expected {n} measurements, got {len(z)}")
        a = self.gains.a
        ux = homogeneous_control(a, z)
        if self.observer_form == "integral":
            if self._first and self.seed_integral:
                self._integ.total = z[n - 1]
            integral = self._integ.push(ux, cfg.dt)
            f_hat = self._omega_f * (z[n - 1] - integral)
        else:
            integral = self._integ.push(z[0], cfg.dt)
            red = a[0] * integral
            for i in range(1, n):
                red += a[i] * z[i - 1]
            top = z[n - 1] if n >= 2 else 0.0
            f_hat = self._omega_f * (top + red)
        self._first = False
        self.u_x = ux
        self.f_hat = f_hat
        return (ux - f_hat) / cfg.b


class HomogeneousController:
    """State feedback only (f_hat = 0); the uncompensated loop."""

    LANE_FIELDS = ("gains",)

    def __init__(self, config: ControllerConfig):
        self.config = config
        self.gains = synthesize_gains(config.n, config.omega)
        self.u_x = 0.0
        self.f_hat = 0.0

    def step(self, z: Sequence[float]) -> float:
        if len(z) != self.config.n:
            raise DimensionMismatchError(f"expected {self.config.n} measurements, got {len(z)}")
        self.u_x = homogeneous_control(self.gains.a, z)
        return self.u_x / self.config.b


class ClassicPidController:
    """Textbook PI/PID stepping (n = 1 or 2) with the gains of
    :func:`reduce_to_pi` / :func:`reduce_to_pid`:
    ``u = -(kd*e_dot + kp*e + ki*integral(e))/b``, the integral accumulated
    with the observer's quadrature rule; a PI (``kd`` of None) has no
    derivative term."""

    LANE_FIELDS = ("gains",)

    def __init__(self, config: ControllerConfig, rule: str = RECTANGULAR):
        if config.n == 1:
            self.gains = reduce_to_pi(config)
        elif config.n == 2:
            self.gains = reduce_to_pid(config)
        else:
            raise OrderMismatchError(f"classic PID stepping requires n in {{1, 2}}, got {config.n}")
        self.config = config
        self.rule = rule
        self._integ = Integrator(rule)
        self.f_hat = math.nan  # the classic form has no separate estimate

    def step(self, z: Sequence[float]) -> float:
        cfg = self.config
        if len(z) != cfg.n:
            raise DimensionMismatchError(f"expected {cfg.n} measurements, got {len(z)}")
        e = z[0]
        e_dot = z[1] if cfg.n == 2 else 0.0
        integral = self._integ.push(e, cfg.dt)
        kd = self.gains.kd if self.gains.kd is not None else 0.0
        return -(kd * e_dot + self.gains.kp * e + self.gains.ki * integral) / cfg.b


def _stack_lanes(values: Sequence):
    """Per-lane values of one field as lanes: floats become a ``[lanes]``
    float64 array, tuples and dataclasses are stacked field by field."""
    first = values[0]
    if first is None:
        return None
    if isinstance(first, tuple):
        return tuple(_stack_lanes(column) for column in zip(*values))
    if dataclasses.is_dataclass(first):
        return dataclasses.replace(first, **{
            f.name: _stack_lanes([getattr(v, f.name) for v in values])
            for f in dataclasses.fields(first)
        })
    return np.array(values, dtype=float)


def lockstep_controller(controllers: Sequence):
    """One controller that steps every controller of ``controllers`` as a lane.

    The controllers must be fresh (never stepped) instances of one class whose
    configs differ only in ``omega`` and ``omega_f``. The result is a copy of
    the first with each field of its class's ``LANE_FIELDS`` (gains, observer
    bandwidth) stacked into ``[lanes]`` float64 arrays. Its ``step`` is the
    class's own: it takes the measurements as an ``[n, lanes]`` array, whose
    rows it reads one by one, and returns ``u`` as a ``[lanes]`` array. Every
    operation of a ``step`` is an elementwise ``+``,
    ``-``, ``*`` or ``/`` applied in the same order as on floats, and numpy
    rounds each one exactly as Python does, so lane j of every result equals
    ``controllers[j].step`` on lane j of the inputs, bit for bit. Its
    ``config`` stays the first lane's; ``step`` reads only the shared
    ``n``, ``b`` and ``dt`` from it.
    """
    lanes = copy.deepcopy(controllers[0])
    for name in lanes.LANE_FIELDS:
        setattr(lanes, name, _stack_lanes([getattr(c, name) for c in controllers]))
    return lanes
