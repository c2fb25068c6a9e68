"""Controller synthesis and stepping.

The control input is split as ``u = (u_x - f_hat) / b`` where

* ``u_x = -sum_i a_i x^(i)`` is state feedback placing all poles of the
  disturbance-free system at ``-omega`` (equal-pole tuning, so the whole
  state-feedback part has the single knob ``omega``), and
* ``f_hat = omega_f * (x^(n-1) - int u_x dt)`` is a first-order observer of
  the lumped disturbance with bandwidth ``omega_f``.

For first- and second-order plants this composition collapses to the classic
PI/PID controller, whose gains are the coefficients of the closed loop's
polynomial ``(s+omega)^n (s+omega_f)`` below the leading one
(:func:`reduce_to_pid`); :class:`GeneralizedController` can step either the
literal integral form or the algebraically reduced PID form (see the class
docstring for when the two discretizations differ). :func:`observer_step` is
the integral form's one channel: the vehicle's lateral law steps through it,
and the VTOL's two loops write it out on three axes.

Each controller takes the numbers its ``step`` reads (gains, ``omega_f``,
``b``, ``dt``) as floats, or as ``[lanes]`` float64 arrays to step every cell
of a lockstep run at once on ``[n, lanes]`` measurements through the same
``step``: its elementwise ``+ - * /`` in the float order round as Python's,
so each lane equals its float controller bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, OrderMismatchError, check_positive
from .polylti import Polynomial, RationalTransferFunction, binomial_poly, check_coeffs, poly_mul
from .quadrature import RECTANGULAR, Integrator

OBSERVER_FORMS = ("integral", "pid")


@dataclass(frozen=True)
class ClassicPidGains:
    """Textbook gains, pre-division by b (the caller applies 1/b)."""

    kp: float
    ki: float
    kd: Optional[float] = None


def synthesize_gains(n: int, omega: float) -> tuple[float, ...]:
    """Equal-pole gains ``a``: coefficients of (s+omega)^n below the leading
    term, ``a[i] = C(n, n-i) * omega**(n-i)`` multiplying ``x^(i)``, i =
    0..n-1, all strictly positive.
    """
    return binomial_poly(omega, n).coeffs[:-1]  # validates n and omega


def homogeneous_control(a: Sequence[float], x_derivs: Sequence[float]) -> float:
    """State feedback ``u_x = -sum a[i] * x_derivs[i]``; the caller checks
    that both have the plant order's length."""
    acc = 0.0
    for ai, xi in zip(a, x_derivs):
        acc += ai * xi
    return -acc


def observer_step(a: Sequence[float], z: Sequence[float], integ: Integrator,
                  omega_f: float, dt: float) -> tuple[float, float]:
    """One channel of the integral-form law on floats or ``[lanes]`` arrays:
    ``u_x = -sum a[i] z[i]`` is pushed into ``integ`` over ``dt``, and
    ``(u_x, f_hat = omega_f * (z[-1] - integral of u_x))`` is returned."""
    u_x = homogeneous_control(a, z)
    return u_x, omega_f * (z[-1] - integ.push(u_x, dt))


def reduce_to_pid(n: int, omega: float, omega_f: float) -> ClassicPidGains:
    """Classic gains of the n = 1 or 2 law (pre-1/b): the coefficients of
    :func:`closed_loop_tf`'s denominator ``(s+omega)^n (s+omega_f)`` below
    the leading one, ``(ki, kp)`` for a PI and ``(ki, kp, kd)`` for a PID.

    So a PI has kp = omega + omega_f, ki = omega_f*omega, and a PID with
    (a0, a1) of :func:`synthesize_gains` has kd = a1 + omega_f,
    kp = a0 + omega_f*a1, ki = omega_f*a0.
    """
    if n not in (1, 2):
        raise OrderMismatchError(f"PI/PID reduction requires n in {{1, 2}}, got {n}")
    ki, kp, *kd = closed_loop_tf(n, omega, omega_f).denominator.coeffs[:-1]
    return ClassicPidGains(kp=kp, ki=ki, kd=kd[0] if kd else None)


def closed_loop_tf(n: int, omega: float, omega_f: float) -> RationalTransferFunction:
    """Disturbance-to-state transfer function of the compensated loop of
    order ``n``, state-feedback bandwidth ``omega`` and observer bandwidth
    ``omega_f``:

    ``G(s) = s / ((s+omega)^n (s+omega_f))`` -- the zero at the origin is
    what rejects constant disturbances exactly. Under measurement noise,
    ``omega < omega_f`` is the recommended (not enforced) tuning. A
    denominator coefficient beyond the float range, or one that rounds to 0,
    is a ConfigError.
    """
    den = poly_mul(binomial_poly(omega, n), Polynomial((check_positive(omega_f, "omega_f"), 1.0)))
    check_coeffs(den.coeffs, f"omega = {omega!r} and omega_f = {omega_f!r} at "
                             f"order {n}: (s + omega)**{n} (s + omega_f)")
    return RationalTransferFunction(Polynomial((0.0, 1.0)), den)


def observer_tfs(omega_f: float) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """Observer lag ``G_o = omega_f/(s+omega_f)`` and its complement
    ``G_e = s/(s+omega_f)`` (estimation-error path); G_o + G_e = 1."""
    den = Polynomial((check_positive(omega_f, "omega_f"), 1.0))
    g_o = RationalTransferFunction(Polynomial((omega_f,)), den)
    g_e = RationalTransferFunction(Polynomial((0.0, 1.0)), den)
    return g_o, g_e


def _check_nonzero(value, key: str):
    """``value`` (a float, a ``[lanes]`` array, or a tuple of either) if it
    holds a number and each is finite and nonzero, else a ConfigError naming
    ``key``: the check of ``b`` and of every gain, as a gain of 0 leaves the
    closed loop a polynomial with a coefficient of 0, never Hurwitz."""
    v = np.asarray(value, dtype=float)
    if not (v.size and (np.isfinite(v) & (v != 0.0)).all()):
        raise ConfigError(f"{key}: must be finite and nonzero, got {value!r}")
    return value


class GeneralizedController:
    """Stateful stepping of the full controller for any order n = len(a):
    gains ``a`` (such as :func:`synthesize_gains` gives), observer
    bandwidth ``omega_f``, input coefficient ``b`` and step ``dt``.

    ``observer_form`` selects how the observer's running integral of u_x is
    discretized:

    * ``"integral"`` (default) accumulates the u_x samples directly, exactly
      as the observer is defined. The estimate then obeys the first-order lag
      d(f_hat)/dt = omega_f*(f - f_hat) along closed-loop trajectories, so
      estimate-error decay and bandwidth studies use this form.
    * ``"pid"`` carries the integral in its reduced form: every a_i*x^(i)
      component of u_x (i >= 1) integrates exactly to a_i*x^(i-1), leaving a
      running integral of x alone. This is the classic PI/PID law under a
      shared quadrature rule, equal up to rounding for any measurement
      sequence; criterion 1 bounds the per-step difference by 1e-9.

    The two forms agree in continuous time; discretely they differ by the
    quadrature error of the top-derivative channel, which is why both are
    provided. At n = 1, ``u_x = -a0 x`` has no derivative channel, so the
    two forms are one law up to rounding.

    The running integral starts at 0, or at the first z^(n-1) with
    ``seed_integral``: the omitted initial-value term is part of the lumped
    disturbance. The ``"pid"`` form integrates x, not u_x, so it has no such
    integral to seed and rejects ``seed_integral`` with a ConfigError.
    """

    def __init__(self, a: Sequence[float], omega_f: float, b: float, dt: float,
                 rule: str = RECTANGULAR, observer_form: str = "integral",
                 seed_integral: bool = False):
        if observer_form not in OBSERVER_FORMS:
            raise ConfigError(f"observer_form must be one of {OBSERVER_FORMS}, got {observer_form!r}")
        if seed_integral and observer_form == "pid":
            raise ConfigError("seed_integral: not read by observer_form 'pid'")
        self.a = _check_nonzero(a, "a")
        self.n = len(a)
        self.omega_f = check_positive(omega_f, "omega_f")
        self.b = _check_nonzero(b, "b")
        self.dt = check_positive(dt, "dt")
        self.observer_form = observer_form
        self._seed_pending = seed_integral
        self._integ = Integrator(rule)
        self.u_x = 0.0
        self.f_hat = 0.0

    def step(self, z: Sequence[float]) -> float:
        """Consume one measurement vector (x^(0)..x^(n-1)), return u."""
        n = self.n
        if len(z) != n:
            raise DimensionMismatchError(f"expected {n} measurements, got {len(z)}")
        a = self.a
        if self.observer_form == "integral":
            if self._seed_pending:
                self._integ.total = z[n - 1]
                self._seed_pending = False
            ux, f_hat = observer_step(a, z, self._integ, self.omega_f, self.dt)
        else:
            ux = homogeneous_control(a, z)
            integral = self._integ.push(z[0], self.dt)
            red = a[0] * integral
            for i in range(1, n):
                red += a[i] * z[i - 1]
            f_hat = self.omega_f * (z[n - 1] + red)
        self.u_x = ux
        self.f_hat = f_hat
        return (ux - f_hat) / self.b


class HomogeneousController:
    """State feedback only (f_hat = 0), the uncompensated loop: gains ``a``
    for n = len(a), input coefficient ``b``."""

    def __init__(self, a: Sequence[float], b: float):
        self.a = _check_nonzero(a, "a")
        self.n = len(a)
        self.b = _check_nonzero(b, "b")
        self.f_hat = 0.0

    def step(self, z: Sequence[float]) -> float:
        if len(z) != self.n:
            raise DimensionMismatchError(f"expected {self.n} measurements, got {len(z)}")
        return homogeneous_control(self.a, z) / self.b


class ClassicPidController:
    """Textbook PI/PID stepping (n = 1 or 2) with the gains of
    :func:`reduce_to_pid`, which closes the loop on ``(s+omega)^n (s+omega_f)``:
    ``u = -(kd*e_dot + kp*e + ki*integral(e))/b``, the integral accumulated
    with the observer's quadrature rule over steps ``dt``. A PI (n = 1) has
    ``kd`` None, and holds ``kd = 0.0`` against its zero ``e_dot``."""

    def __init__(self, kp: float, ki: float, kd: Optional[float], b: float, dt: float,
                 rule: str = RECTANGULAR):
        self.n = 1 if kd is None else 2
        self.kp, self.ki = _check_nonzero(kp, "kp"), _check_nonzero(ki, "ki")
        self.kd = 0.0 if kd is None else _check_nonzero(kd, "kd")
        self.b = _check_nonzero(b, "b")
        self.dt = check_positive(dt, "dt")
        self._integ = Integrator(rule)
        self.f_hat = math.nan  # the classic form has no separate estimate

    def step(self, z: Sequence[float]) -> float:
        n = self.n
        if len(z) != n:
            raise DimensionMismatchError(f"expected {n} measurements, got {len(z)}")
        e = z[0]
        e_dot = z[1] if n == 2 else 0.0
        integral = self._integ.push(e, self.dt)
        return -(self.kd * e_dot + self.kp * e + self.ki * integral) / self.b
