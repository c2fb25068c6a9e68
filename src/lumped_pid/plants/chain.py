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
from ..config import (_bool, _check_signal, _choice, _float, _floats, _int, _positive,
                      _scalar_signal)
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
OPTIONS = {"plant.order": (_int, 1), "plant.b": (_float, 1.0), "plant.x0": (_floats, None),
           "plant.state_coeffs": (_floats, ()),
           "controller.kind": (_choice("none", "homogeneous", "generalized", "pid"),
                               "generalized"),
           "controller.omega": (_positive, 1.0), "controller.omega_f": (_positive, 1.0),
           "controller.quadrature": (_choice(*RULES), RECTANGULAR),
           "controller.observer_form": (_choice(*OBSERVER_FORMS), "integral"),
           "controller.seed_integral": (_bool, False)}
BANDWIDTH = "omega_f"
NO_OBSERVER = ("none", "homogeneous")
parse_disturbance = _scalar_signal  # f0(t)
check_disturbance = _check_signal
SIGNAL = "x0"
OBSERVER = ("f_true", "f_hat")
PLOTS = (
    ("state", ("x*",), "state", "x"),
    ("control", ("u",), "control", "u"),
    ("observer", OBSERVER, "disturbance estimate", "f"),
)
# One lockstep step of 2 to 5 lanes costs about three float steps (2.8 to 3.3
# measured on the second-order generalized and homogeneous chains of
# chain_step.conf and bound_demo.conf), so three scenarios only break even
# and a list of fewer than four runs one at a time.
LOCKSTEP = 4


class IntegratorChain:
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
        # the rows of an [n, lanes] derivative before its top row is written
        self._shift = np.minimum(np.arange(1, n + 1), n - 1)

    def lumped_disturbance(self, state: Sequence[float], f0: float) -> float:
        f = f0
        for c, x in zip(self.state_coeffs, state):
            f += c * x
        return f

    def derivative(self, state, bu, d, t):
        """The state derivative under the held input term ``bu`` = b*u,
        which the caller forms once per step rather than once per stage.
        An ``[n, lanes]`` state gives an array: its shifted rows over one
        top row."""
        top = self.lumped_disturbance(state, d) + bu
        if isinstance(state, np.ndarray):
            out = state.take(self._shift, axis=0)
            out[-1] = top
            return out
        return [*state[1:], top]


def _plant(scenario: Scenario) -> tuple[IntegratorChain, tuple]:
    """The scenario's chain and initial state."""
    opts = scenario.plant
    plant = IntegratorChain(opts["order"], opts["b"], opts["state_coeffs"])
    x0 = (0.0,) * plant.n if opts["x0"] is None else opts["x0"]
    if len(x0) != plant.n:
        raise ConfigError(f"plant.x0: expected {plant.n} values, got {len(x0)}")
    return plant, x0


def noise_channels(scenario: Scenario) -> int:
    """The noised measurement channels, x ... x^(n-1): the plant's order."""
    return _plant(scenario)[0].n


def controller_config(scenario: Scenario) -> ControllerConfig:
    """The synthesis inputs of a chain scenario, once its plant is checked:
    what its controller, its bound check and the ``tune`` and ``bode``
    commands use."""
    plant, _ = _plant(scenario)
    opts = scenario.controller
    if plant.n > MAX_ORDER:  # the synthesis limit; a chain without a controller has none
        raise ConfigError(f"plant.order: must be at most {MAX_ORDER} with controller.kind "
                          f"{opts['kind']!r}, got {plant.n}")
    return ControllerConfig(n=plant.n, b=plant.b, omega=opts["omega"],
                            omega_f=opts["omega_f"], dt=scenario.dt)


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
    return GeneralizedController(
        config,
        rule=opts["quadrature"],
        observer_form=opts["observer_form"],
        seed_integral=opts["seed_integral"],
    )


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
    plant, x0 = _plant(first)
    n = plant.n
    controllers = [_build_controller(s) for s in scenarios]
    controller = controllers[0]
    f0 = first.disturbance
    dt = first.dt
    n_steps = first.n_steps
    if lockstep:
        if controller is not None:
            controller = lockstep_controller(controllers)
        noise = noise_table([s.noise for s in scenarios], n, n_steps + 1)
        lanes = LaneFailures(len(scenarios))
        rec = TraceRecorder.lockstep(LOCKSTEP_COLUMNS, len(scenarios), n_steps,
                                     first.decimation)
        state = np.repeat(np.array(x0, dtype=float)[:, None], len(scenarios), axis=1)
    else:
        noise = noise_table(first.noise, n, n_steps + 1)
        lanes = None
        names = (
            ["t"]
            + [f"x{i}" for i in range(n)]
            + ["u", "f_true", "f_hat"]
            + [f"z{i}" for i in range(n)]
        )
        rec = TraceRecorder(names, first.decimation)
        state = x0

    # a lane may overflow to inf or NaN; check_state masks it in `lanes` at
    # the next step
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n_steps + 1):
                t = k * dt
                check_state(state, t, k, lanes)
                z = state + noise[k] if lockstep else [state[i] + noise[i][k] for i in range(n)]
                if controller is None:
                    u = 0.0
                    f_hat = math.nan
                else:
                    u = controller.step(z)
                    f_hat = controller.f_hat
                f_true = plant.lumped_disturbance(state, f0(t))
                rec.record(k, [t, state[0], f_true, f_hat] if lockstep
                           else [t, *state, u, f_true, f_hat, *z])
                if k < n_steps:
                    state = rk4_step(plant, state, plant.b * u, f0, t, dt)
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
