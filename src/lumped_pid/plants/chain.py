"""nth-order integrator chain x^(n) = f + b*u and its closed-loop runner.

The lumped disturbance is f = f0(t) + sum_i c_i * x^(i) with optional small
state-coupling coefficients c_i; the state vector is (x, xdot, ..., x^(n-1)).
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import Sequence

import numpy as np

from ..analysis import BoundReport, MetricsReduction, TraceSummary, check_bound
from ..config import (_bool, _check_read, _check_signal, _choice, _count, _float, _floats,
                      _positive, _scalar_signal)
from ..controller import (
    OBSERVER_FORMS,
    ClassicPidController,
    GeneralizedController,
    HomogeneousController,
    reduce_to_pid,
    synthesize_gains,
)
from ..errors import ConfigError, WindowTooShortError
from ..polylti import MAX_ORDER
from ..quadrature import RECTANGULAR, RULES
from ..sim import (
    STEP_ERRORS,
    LaneFailures,
    Scenario,
    TraceRecorder,
    check_state,
    rk4_step,
    run_failure,
)
from ..signals import NoiseStream, noise_table

# Each option: its parser and the value a scenario without it takes; an x0
# of None is the zero state. LOOPS names the option that sets the
# observer bandwidth and the controller kinds that read none.
OPTIONS = {"plant.order": (_count, 1), "plant.b": (_float, 1.0), "plant.x0": (_floats, None),
           "plant.state_coeffs": (_floats, ()),
           "controller.kind": (_choice("none", "homogeneous", "generalized", "pid"),
                               "generalized"),
           "controller.omega": (_positive, 1.0), "controller.omega_f": (_positive, 1.0),
           "controller.quadrature": (_choice(*RULES), RECTANGULAR),
           "controller.observer_form": (_choice(*OBSERVER_FORMS), "integral"),
           "controller.seed_integral": (_bool, False)}
# The controller options a controller setting does not read; every kind
# reads omega and omega_f, as tune and bode do whatever the kind.
_UNREAD = {("kind", "none"): ("quadrature", "observer_form", "seed_integral"),
           ("kind", "homogeneous"): ("quadrature", "observer_form", "seed_integral"),
           ("kind", "pid"): ("observer_form", "seed_integral"),
           ("observer_form", "pid"): ("seed_integral",)}
parse_disturbance = _scalar_signal  # f0(t)
LOOPS = (("x0", "omega", "omega_f", ("f_true", "f_hat"), ("none", "homogeneous")),)
PLOTS = (
    ("state", ("x*",), "state", "x"),
    ("control", ("u",), "control", "u"),
    ("observer", LOOPS[0][3], "disturbance estimate", "f"),
)
# By controller kind, the fewest scenarios that run as the lanes of one run;
# a shorter list runs one at a time. Each is the smallest count at which a
# lockstep run with its metrics rows was not slower than its cells run one by
# one: CPU time of lockstep over one by one, median of 21 interleaved pairs,
# full-length stock configs (chain_step.conf, and bound_demo.conf for
# homogeneous), half the cells noisy; 2-vCPU x86_64, Python 3.11, numpy 2.4,
# both RK4 steps as loop-free code.
#   cells         3     4     5     6
#   none         1.11  0.83  0.68  0.56
#   homogeneous  1.53  1.12  0.91  0.75
#   pid          1.84  1.36  1.10  0.89
#   generalized  1.78  1.31  1.10  0.90
LOCKSTEP = {"none": 4, "homogeneous": 5, "pid": 6, "generalized": 6}


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

    def derivative(self, state, bu, d):
        """The derivative of a list of floats under the held input term ``bu`` = b*u
        and the disturbance value ``d`` = f0."""
        return [*state[1:], self.lumped_disturbance(state, d) + bu]


def rk4_map(plant: IntegratorChain, dt: float):
    """One RK4 step of the chain under a held ``bu`` = b*u, as the affine map
    ``x+ = M x + q bu + p0 f0(t) + pm f0(t+h/2) + p1 f0(t+h)`` that
    :func:`rk4_step` builds on ``n + 4`` basis inputs, each value of
    ``(*d, *x, bu)`` alone: RK4 up to rounding.
    Gives ``step(x, bu, d)`` for ``x`` a list of floats or an ``[n, lanes]``
    array and ``d`` the disturbance at t, t+h/2 and t+h: each row one sum in
    a fixed order, without terms of coefficient 0 and with those of 1 taken
    as they are, so each lane is bit-identical to its run alone. The step is
    loop-free code built from those rows once, by :func:`_straight_line`."""
    n = plant.n
    units = [[float(i == k) for i in range(n + 4)] for k in range(n + 4)]
    basis = [rk4_step(plant.derivative, e[3:3 + n], e[-1], e[:3], dt) for e in units]
    # row i sums the disturbance, bu, the other state rows, then its own
    # last, as RK4 adds its increment last; None is a coefficient of 1
    rows = [[(k, None if basis[k][i] == 1.0 else basis[k][i])
             for k in (0, 1, 2, 3 + n, *(3 + j for j in range(n) if j != i), 3 + i)
             if basis[k][i] != 0.0] for i in range(n)]
    return _straight_line(rows, n)


def _straight_line(rows, n: int):
    """``step(x, bu, d)`` for the rows of :func:`rk4_map`, compiled as one
    flat statement per term: ``acc = 0.0 + term`` for a row's first, then
    ``acc = acc + term``, the order and the operations of a loop over the
    terms, so the same bits. Flat statements have no nesting depth to
    outgrow at a large order, and each coefficient is a closure name, never
    written as text, so an inf or NaN coefficient goes through as it is."""
    values = ("d0", "dm", "d1", *(f"x{j}" for j in range(n)), "bu")
    coeffs = []
    body = []
    for i, terms in enumerate(rows):
        acc = "0.0"
        for k, c in terms:
            term = values[k]
            if c is not None:
                term = f"c{len(coeffs)} * {term}"
                coeffs.append(c)
            body.append(f"acc = {acc} + {term}")
            acc = "acc"
        body.append(f"out[{i}] = {acc}")
    source = "\n".join([
        f"def make({', '.join(f'c{m}' for m in range(len(coeffs)))}):",
        "    def step(x, bu, d):",
        "        d0, dm, d1 = d",
        f"        {', '.join(values[3:3 + n])}, = x",
        "        out = x.copy()",
        *(f"        {line}" for line in body),
        "        return out",
        "    return step",
    ])
    namespace: dict = {}
    exec(compile(source, "<chain.rk4_map>", "exec"), namespace)
    return namespace["make"](*coeffs)


def noise_channels(scenario: Scenario) -> int:
    """The noised measurement channels, x ... x^(n-1): the plant's order."""
    return scenario.plant["order"]


def _build_controller(scenarios: Sequence[Scenario], lockstep: bool):
    """The controller of a run, None for kind none: each scenario's gains and
    omega_f as floats for one, as ``[lanes]`` arrays in ``lockstep``."""
    opts, dt = scenarios[0].controller, scenarios[0].dt
    if opts["kind"] == "none":
        return None
    n, b = scenarios[0].plant["order"], scenarios[0].plant["b"]
    omegas = [s.controller["omega"] for s in scenarios]
    omega_fs = [s.controller["omega_f"] for s in scenarios]

    def lanes(values):
        return np.array(values, dtype=float) if lockstep else values[0]

    if opts["kind"] == "pid":
        gains = [reduce_to_pid(n, omega, omega_f) for omega, omega_f in zip(omegas, omega_fs)]
        kd = None if gains[0].kd is None else lanes([g.kd for g in gains])
        return ClassicPidController(lanes([g.kp for g in gains]), lanes([g.ki for g in gains]),
                                    kd, b, dt, rule=opts["quadrature"])
    a = tuple(map(lanes, zip(*(synthesize_gains(n, omega) for omega in omegas))))
    if opts["kind"] == "homogeneous":
        return HomogeneousController(a, b)
    return GeneralizedController(a, lanes(omega_fs), b, dt,
                                 rule=opts["quadrature"], observer_form=opts["observer_form"],
                                 seed_integral=opts["seed_integral"])


# the trace columns the sweep metrics read; all a lockstep run records, its
# row [t, state[0], f_true, f_hat]
LOCKSTEP_COLUMNS = ("t", LOOPS[0][0], *LOOPS[0][3])


def _lane_key(scenario: Scenario) -> tuple:
    """What every scenario of one lockstep run must share."""
    controller = {k: v for k, v in scenario.controller.items() if k not in ("omega", "omega_f")}
    return (scenario.plant, controller, scenario.disturbance, scenario.dt,
            scenario.duration, scenario.decimation)


def lane_compatible(scenarios: Sequence[Scenario]) -> bool:
    """Whether the scenarios differ in nothing but omega, omega_f and noise,
    and so can run as the lanes of one lockstep run."""
    return all(_lane_key(s) == _lane_key(scenarios[0]) for s in scenarios[1:])


def lockstep(scenarios: Sequence[Scenario]) -> bool:
    """Whether ``run`` takes the scenarios as the lanes of one run: at least
    LOCKSTEP of them for the controller kind of the first, lane-compatible."""
    return (len(scenarios) >= LOCKSTEP[scenarios[0].controller["kind"]]
            and lane_compatible(scenarios))


def run(scenario: Scenario | Sequence[Scenario]):
    """Simulate one scenario, or a list of lane-compatible ones in lockstep.

    A list runs through this same loop with the state and measurements held
    as ``[n, lanes]`` float64 arrays (row i is component i of every lane)
    and every other per-scenario quantity as a ``[lanes]`` array: control
    and estimates, per-lane gains and ``omega_f``. ``f0(t)`` stays one float
    per step, shared by every lane. The plant and controllers use only
    elementwise ``+``, ``-``, ``*`` and ``/``, so each lane is bit-identical
    to its scenario run alone. Nothing a list holds grows with lanes times
    steps: its noise is drawn a block at a time (:class:`NoiseStream`), and
    its rows of the LOCKSTEP_COLUMNS go a block at a time to one
    :class:`MetricsReduction`. A list gives one outcome per scenario, in
    order: the TraceSummary of its lane, at its own ``threshold``, or the
    DivergedError that stopped that scenario.
    """
    lockstep = not isinstance(scenario, Scenario)
    scenarios = list(scenario) if lockstep else [scenario]
    first = scenarios[0]
    if not lane_compatible(scenarios):
        raise ConfigError("lockstep scenarios differ in more than omega, omega_f and noise")
    opts = first.plant
    plant = IntegratorChain(opts["order"], opts["b"], opts["state_coeffs"])
    x0 = (0.0,) * plant.n if opts["x0"] is None else opts["x0"]
    n = plant.n
    step = rk4_map(plant, first.dt)
    controller = _build_controller(scenarios, lockstep)
    f0 = first.disturbance
    dt = first.dt
    half = 0.5 * dt
    n_steps = first.n_steps
    if lockstep:
        specs = [s.noise for s in scenarios]
        noise = (None if all(spec.silent for spec in specs)
                 else iter(NoiseStream(specs, n, n_steps + 1)))
        lanes = LaneFailures(len(scenarios))
        reduction = MetricsReduction(LOCKSTEP_COLUMNS, n_steps // first.decimation + 1,
                                     np.array([s.threshold for s in scenarios]), len(scenarios))
        rec = TraceRecorder(LOCKSTEP_COLUMNS, n_steps, first.decimation, reduction=reduction)
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
                z = (state if noise is None else state + next(noise) if lockstep
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
        except STEP_ERRORS as exc:
            error = run_failure(exc, k, t)
            if not lockstep:
                raise error
            # a step's error, its disturbance's say, stops each lane still
            # running there, as it stops that lane's scenario run alone
            return [error if e is None else e for e in lanes.errors]
        outcomes = rec.build()  # a diverged lane's last block holds inf or NaN
    if not lockstep:
        return outcomes
    return [summary if error is None else error
            for summary, error in zip(outcomes, lanes.errors)]


def bound(summary: TraceSummary, scenario: Scenario) -> BoundReport | None:
    """The ultimate-bound check of a homogeneous run's summary, if its tail is
    long enough."""
    if scenario.controller["kind"] == "homogeneous":
        with suppress(WindowTooShortError):
            return check_bound(summary, scenario.controller["omega"], scenario.plant["order"])
    return None
