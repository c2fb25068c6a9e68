"""nth-order integrator chain x^(n) = f + b*u and its closed-loop runner.

The lumped disturbance is f = f0(t) + sum_i c_i * x^(i) with optional small
state-coupling coefficients c_i; the state vector is (x, xdot, ..., x^(n-1)).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..controller import (
    ClassicPidController,
    ControllerConfig,
    GeneralizedController,
    HomogeneousController,
    lockstep_controller,
)
from ..errors import ConfigError
from ..quadrature import RECTANGULAR
from ..sim import (
    LaneFailures,
    PlantModel,
    Scenario,
    TraceRecorder,
    check_state,
    rk4_step,
)
from ..signals import noise_table

CONTROLLER_KINDS = ("none", "homogeneous", "generalized", "pid")


class IntegratorChain(PlantModel):
    def __init__(self, n: int, b: float, state_coeffs: Sequence[float] = ()):
        if n < 1:
            raise ConfigError(f"plant.order: must be >= 1, got {n}")
        if b == 0.0:
            raise ConfigError("plant.b: input coefficient must be nonzero")
        if state_coeffs and len(state_coeffs) != n:
            raise ConfigError(
                f"plant.state_coeffs: expected {n} coefficients, got {len(state_coeffs)}"
            )
        self.n = n
        self.b = b
        self.state_coeffs = tuple(float(c) for c in state_coeffs)
        self.state_dim = n

    def lumped_disturbance(self, state: Sequence[float], f0: float) -> float:
        f = f0
        for c, x in zip(self.state_coeffs, state):
            f += c * x
        return f

    def derivative(self, state, u, d, t):
        out = list(state[1:])
        out.append(self.lumped_disturbance(state, d) + self.b * u)
        return out

    def measurements(self, state, t):
        return list(state)


def _build_controller(scenario: Scenario, n: int, b: float):
    opts = scenario.controller
    kind = opts.get("kind", "generalized")
    if kind not in CONTROLLER_KINDS:
        raise ConfigError(
            f"controller.kind: unknown kind {kind!r}, expected one of {CONTROLLER_KINDS}"
        )
    if kind == "none":
        return None
    config = ControllerConfig(
        n=n,
        b=b,
        omega=float(opts.get("omega", 1.0)),
        omega_f=float(opts.get("omega_f", 1.0)),
        dt=scenario.dt,
    )
    rule = opts.get("quadrature", RECTANGULAR)
    if kind == "homogeneous":
        return HomogeneousController(config)
    if kind == "pid":
        return ClassicPidController(config, rule=rule)
    return GeneralizedController(
        config,
        rule=rule,
        observer_form=opts.get("observer_form", "integral"),
        seed_integral=bool(opts.get("seed_integral", False)),
    )


# the trace columns the sweep metrics read; all a lockstep run records
LOCKSTEP_COLUMNS = ("t", "x0", "f_true", "f_hat")


def _lane_key(scenario: Scenario) -> tuple:
    """What every scenario of one lockstep run must share."""
    controller = {k: v for k, v in scenario.controller.items() if k not in ("omega", "omega_f")}
    return (scenario.plant, controller, scenario.disturbance, scenario.dt,
            scenario.duration, scenario.decimation)


def run(scenario: Scenario | Sequence[Scenario]):
    """Simulate one scenario, or a list of lane-compatible ones in lockstep.

    A list runs through this same loop with every per-scenario quantity held
    as a ``[lanes]`` float64 array: state, measurements, control and
    estimates, per-lane gains and ``omega_f``. ``f0(t)`` stays one float per
    step, shared by every lane. The plant and controllers use only
    elementwise ``+``, ``-``, ``*`` and ``/``, so each lane is bit-identical
    to its scenario run alone. A list gives one outcome per scenario, as
    :func:`lumped_pid.sim.run_scenario` describes.
    """
    lockstep = not isinstance(scenario, Scenario)
    scenarios = list(scenario) if lockstep else [scenario]
    first = scenarios[0]
    if any(_lane_key(s) != _lane_key(first) for s in scenarios[1:]):
        raise ConfigError("lockstep scenarios differ in more than omega, omega_f and noise")
    opts = first.plant
    n = int(opts.get("order", 1))
    b = float(opts.get("b", 1.0))
    plant = IntegratorChain(n, b, opts.get("state_coeffs", ()))
    x0 = list(opts.get("x0", [0.0] * n))
    if len(x0) != n:
        raise ConfigError(f"plant.x0: expected {n} values, got {len(x0)}")

    controllers = [_build_controller(s, n, b) for s in scenarios]
    controller = controllers[0]
    f0 = first.disturbance
    dt = first.dt
    n_steps = first.n_steps
    names = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + ["u", "f_true", "f_hat"]
        + [f"z{i}" for i in range(n)]
    )
    if lockstep:
        if controller is not None:
            controller = lockstep_controller(controllers)
        noise = noise_table([s.noise for s in scenarios], n, n_steps + 1)
        lanes = LaneFailures(len(scenarios))
        rec = TraceRecorder.lockstep(names, LOCKSTEP_COLUMNS, len(scenarios), n_steps,
                                     first.decimation)
        state = [np.full(len(scenarios), float(v)) for v in x0]
    else:
        noise = noise_table(first.noise, n, n_steps + 1)
        lanes = None
        rec = TraceRecorder(names, first.decimation)
        state = [float(v) for v in x0]

    # a masked lane may overflow to inf or NaN; that is recorded in `lanes`
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            t = k * dt
            check_state(state, t, k, lanes)
            z = [state[i] + noise[i][k] for i in range(n)]
            if controller is None:
                u = 0.0
                f_hat = math.nan
            else:
                u = controller.step(z)
                f_hat = controller.f_hat
            f_true = plant.lumped_disturbance(state, f0(t))
            rec.record(k, [t, *state, u, f_true, f_hat, *z])
            if k < n_steps:
                state = rk4_step(plant, state, u, f0, t, dt, lanes)
    if not lockstep:
        return rec.build()
    return [trace if error is None else error
            for trace, error in zip(rec.build(), lanes.errors)]
