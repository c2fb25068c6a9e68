"""nth-order integrator chain x^(n) = f + b*u and its closed-loop runner.

The lumped disturbance is f = f0(t) + sum_i c_i * x^(i) with optional small
state-coupling coefficients c_i; the state vector is (x, xdot, ..., x^(n-1)).
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import Sequence

import numpy as np

from ..analysis import BoundReport, check_bound
from ..config import (_bool, _check_read, _check_signal, _choice, _count, _float, _floats,
                      _positive, _scalar_signal)
from ..controller import (
    OBSERVER_FORMS,
    ClassicPidController,
    ControllerConfig,
    GeneralizedController,
    HomogeneousController,
    lockstep_controller,
)
from ..errors import ConfigError, LumpedPidError, WindowTooShortError
from ..polylti import MAX_ORDER
from ..quadrature import RECTANGULAR, RULES
from ..sim import (
    LaneFailures,
    Scenario,
    SimTrace,
    TraceRecorder,
    check_state,
    rk4_step,
)
from ..signals import noise_table

# Each option: its parser and the value a scenario without it takes; an x0
# of None is the zero state. BANDWIDTH names the option that sets the
# observer bandwidth; the controller kinds in NO_OBSERVER read none.
OPTIONS = {"plant.order": (_count, 1), "plant.b": (_float, 1.0), "plant.x0": (_floats, None),
           "plant.state_coeffs": (_floats, ()),
           "controller.kind": (_choice("none", "homogeneous", "generalized", "pid"),
                               "generalized"),
           "controller.omega": (_positive, 1.0), "controller.omega_f": (_positive, 1.0),
           "controller.quadrature": (_choice(*RULES), RECTANGULAR),
           "controller.observer_form": (_choice(*OBSERVER_FORMS), "integral"),
           "controller.seed_integral": (_bool, False)}
BANDWIDTH = "omega_f"
NO_OBSERVER = ("none", "homogeneous")
# The controller options a controller setting does not read; every kind
# reads omega and omega_f, as tune and bode do whatever the kind.
_UNREAD = {("kind", "none"): ("quadrature", "observer_form", "seed_integral"),
           ("kind", "homogeneous"): ("quadrature", "observer_form", "seed_integral"),
           ("kind", "pid"): ("observer_form", "seed_integral"),
           ("observer_form", "pid"): ("seed_integral",)}
parse_disturbance = _scalar_signal  # f0(t)
SIGNAL = "x0"
OBSERVER = ("f_true", "f_hat")
PLOTS = (
    ("state", ("x*",), "state", "x"),
    ("control", ("u",), "control", "u"),
    ("observer", OBSERVER, "disturbance estimate", "f"),
)
# One lockstep step of 2 to 6 lanes costs about 4.2 to 4.6 float steps on the
# second-order generalized chain of chain_step.conf and 3.4 to 3.9 on the
# homogeneous one of bound_demo.conf, so four lanes about break even and a
# list of fewer than four runs one at a time.
LOCKSTEP = 4


def check(scenario: Scenario) -> None:
    """The rules that span options: the plant's shape, the order a
    controller takes, and no option set that the controller does not read."""
    _check_signal(scenario.disturbance)
    opts, copts = scenario.plant, scenario.controller
    n, kind = opts["order"], copts["kind"]
    if opts["b"] == 0.0:
        raise ConfigError("plant.b: input coefficient must be nonzero")
    if opts["state_coeffs"] and len(opts["state_coeffs"]) != n:
        raise ConfigError(
            f"plant.state_coeffs: expected {n} coefficients, got {len(opts['state_coeffs'])}")
    if opts["x0"] is not None and len(opts["x0"]) != n:
        raise ConfigError(f"plant.x0: expected {n} values, got {len(opts['x0'])}")
    if kind == "pid" and n > 2:
        raise ConfigError(f"plant.order: must be 1 or 2 with controller.kind 'pid', got {n}")
    if kind != "none" and n > MAX_ORDER:  # the synthesis limit
        raise ConfigError(f"plant.order: must be at most {MAX_ORDER} with controller.kind "
                          f"{kind!r}, got {n}")
    _check_read(copts, OPTIONS, _UNREAD)


class IntegratorChain:
    def __init__(self, n: int, b: float, state_coeffs: Sequence[float] = ()):
        self.n = n
        self.b = b
        self.state_coeffs = tuple(float(c) for c in state_coeffs)

    def lumped_disturbance(self, state: Sequence[float], f0: float) -> float:
        f = f0
        for c, x in zip(self.state_coeffs, state):
            f += c * x
        return f

    def derivative(self, state, bu, d, t):
        """The derivative of a list of floats under the held input term ``bu`` = b*u."""
        return [*state[1:], self.lumped_disturbance(state, d) + bu]


def rk4_map(plant: IntegratorChain, dt: float):
    """One RK4 step of the chain under a held ``bu`` = b*u, as the affine map
    ``x+ = M x + q bu + p0 f0(t) + pm f0(t+h/2) + p1 f0(t+h)`` that
    :func:`rk4_step` builds on ``n + 4`` basis inputs: RK4 up to rounding.
    Gives ``step(x, bu, d)`` for ``x`` a list of floats or an ``[n, lanes]``
    array and ``d`` the disturbance at t, t+h/2 and t+h: each row one sum in
    a fixed order, without terms of coefficient 0 and with those of 1 taken
    as they are, so each lane is bit-identical to its run alone."""
    n = plant.n
    # each value of (*d, *x, bu) alone, as (state, bu, time of a unit disturbance)
    inputs = [([0.0] * n, 0.0, at) for at in (0.0, 0.5 * dt, dt)]
    inputs += [([float(i == j) for i in range(n)], 0.0, None) for j in range(n)]
    inputs.append(([0.0] * n, 1.0, None))
    basis = [rk4_step(plant, x, bu, lambda t, at=at: float(t == at), 0.0, dt)
             for x, bu, at in inputs]
    # row i sums the disturbance, bu, the other state rows, then its own
    # last, as RK4 adds its increment last; None is a coefficient of 1
    rows = [[(k, None if basis[k][i] == 1.0 else basis[k][i])
             for k in (0, 1, 2, 3 + n, *(3 + j for j in range(n) if j != i), 3 + i)
             if basis[k][i] != 0.0] for i in range(n)]

    def step(x, bu, d):
        values = (*d, *x, bu)
        out = x.copy()
        for i, terms in enumerate(rows):
            acc = 0.0
            for k, c in terms:
                acc = acc + (values[k] if c is None else c * values[k])
            out[i] = acc
        return out

    return step


def noise_channels(scenario: Scenario) -> int:
    """The noised measurement channels, x ... x^(n-1): the plant's order."""
    return scenario.plant["order"]


def controller_config(scenario: Scenario) -> ControllerConfig:
    """The synthesis inputs of a chain scenario: what its controller, its
    bound check and the ``tune`` and ``bode`` commands use."""
    opts = scenario.controller
    return ControllerConfig(n=scenario.plant["order"], b=scenario.plant["b"],
                            omega=opts["omega"], omega_f=opts["omega_f"], dt=scenario.dt)


def _build_controller(scenario: Scenario):
    opts = scenario.controller
    kind = opts["kind"]
    if kind == "none":
        return None
    config = controller_config(scenario)
    if kind == "homogeneous":
        return HomogeneousController(config)
    if kind == "pid":
        return ClassicPidController(config, rule=opts["quadrature"])
    return GeneralizedController(config, rule=opts["quadrature"],
                                 observer_form=opts["observer_form"],
                                 seed_integral=opts["seed_integral"])


# the trace columns the sweep metrics read; all a lockstep run records, its
# row [t, state[0], f_true, f_hat]
LOCKSTEP_COLUMNS = ("t", SIGNAL, *OBSERVER)


def _lane_key(scenario: Scenario) -> tuple:
    """What every scenario of one lockstep run must share."""
    controller = {k: v for k, v in scenario.controller.items() if k not in ("omega", "omega_f")}
    return (scenario.plant, controller, scenario.disturbance, scenario.dt,
            scenario.duration, scenario.decimation)


def run(scenario: Scenario | Sequence[Scenario]):
    """Simulate one scenario, or a list of lane-compatible ones in lockstep.

    A list runs through this same loop with the state and measurements held
    as ``[n, lanes]`` float64 arrays (row i is component i of every lane),
    the noise as one ``[steps, n, lanes]`` table, and every other
    per-scenario quantity as a ``[lanes]`` array: control and estimates,
    per-lane gains and ``omega_f``. ``f0(t)`` stays one float per step,
    shared by every lane. The plant and controllers use only elementwise
    ``+``, ``-``, ``*`` and ``/``, so each lane is bit-identical to its
    scenario run alone. A list gives one outcome per scenario, in order: a
    SimTrace of the LOCKSTEP_COLUMNS, or the DivergedError that stopped that
    scenario.
    """
    lockstep = not isinstance(scenario, Scenario)
    scenarios = list(scenario) if lockstep else [scenario]
    first = scenarios[0]
    if any(_lane_key(s) != _lane_key(first) for s in scenarios[1:]):
        raise ConfigError("lockstep scenarios differ in more than omega, omega_f and noise")
    opts = first.plant
    plant = IntegratorChain(opts["order"], opts["b"], opts["state_coeffs"])
    x0 = (0.0,) * plant.n if opts["x0"] is None else opts["x0"]
    n = plant.n
    step = rk4_map(plant, first.dt)
    controllers = [_build_controller(s) for s in scenarios]
    controller = controllers[0]
    f0 = first.disturbance
    dt = first.dt
    half = 0.5 * dt
    n_steps = first.n_steps
    if lockstep:
        if controller is not None:
            controller = lockstep_controller(controllers)
        noise = noise_table([s.noise for s in scenarios], n, n_steps + 1)
        lanes = LaneFailures(len(scenarios))
        rec = TraceRecorder(LOCKSTEP_COLUMNS, n_steps, first.decimation, lanes=len(scenarios))
        state = np.repeat(np.array(x0, dtype=float)[:, None], len(scenarios), axis=1)
    else:
        noise = noise_table(first.noise, n, n_steps + 1)
        lanes = None
        names = ["t", *(f"x{i}" for i in range(n)), "u", "f_true", "f_hat",
                 *(f"z{i}" for i in range(n))]
        rec = TraceRecorder(names, n_steps, first.decimation)
        state = list(x0)

    # a lane may overflow to inf or NaN; check_state masks it in `lanes` at
    # the next step
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n_steps + 1):
                t = k * dt
                check_state(state, t, k, lanes)
                z = (state + noise[k] if lockstep
                     else [x + e for x, e in zip(state, noise[k].tolist())])
                if controller is None:
                    u = 0.0
                    f_hat = math.nan
                else:
                    u = controller.step(z)
                    f_hat = controller.f_hat
                d0 = f0(t)
                f_true = plant.lumped_disturbance(state, d0)
                rec.record(k, [t, state[0], f_true, f_hat] if lockstep
                           else [t, *state, u, f_true, f_hat, *z])
                if k < n_steps:
                    state = step(state, plant.b * u, (d0, f0(t + half), f0(t + dt)))
        except LumpedPidError as exc:
            exc.at(k, t)
            raise
    if not lockstep:
        return rec.build()
    return [trace if error is None else error
            for trace, error in zip(rec.build(), lanes.errors)]


def bound(trace: SimTrace, scenario: Scenario) -> BoundReport | None:
    """The ultimate-bound check of a homogeneous run, if its tail is long enough."""
    if scenario.controller["kind"] == "homogeneous":
        config = controller_config(scenario)
        with suppress(WindowTooShortError):
            return check_bound(trace, config.omega, config.n)
    return None
