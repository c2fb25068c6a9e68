"""Fixed-step closed-loop simulation: RK4, guards, scenarios, traces.

Time is kept on an integer step counter with t = k*dt (never accumulated), so
trace timestamps sit exactly on the grid. Control inputs are held constant
over each integration step (zero-order hold) at the integrator rate. A run is
a pure function of its scenario, seed included.

A lockstep run advances several scenarios at once: each per-scenario
quantity is a ``[lanes]`` float64 array, one lane per scenario, and the state
one ``[n, lanes]`` array, row i holding component i. It goes through the same
plant step and controller code as a float state does. A chain steps by its
RK4 step as one affine map, which :func:`rk4_step` builds once per run.

:func:`check_state`, at the top of each step of a plant's loop, is the one
divergence guard: a plant step returns its state unchecked, so a step that
makes the state non-finite is reported at the next step. In a lockstep run
it takes a :class:`LaneFailures` record and masks failing lanes instead of
raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigError, DivergedError, LumpedPidError
from .signals import NoiseSpec

# States beyond this magnitude abort the run as diverged rather than waiting
# for overflow, so parameter sweeps can record the failure.
RUNAWAY_BOUND = 1e12
# The most steps a scenario may take: a run beyond it would not end, and a
# noisy one would first allocate a noise sample per step and channel.
MAX_STEPS = 10**8
# The lockstep guard tests the sum of squares of the whole state array first.
# Rounding is monotone, so the sum is at least every rounded square: a sum
# within this screen puts every element below RUNAWAY_BOUND / 2, and only a
# sum beyond it (or NaN) needs the lane-by-lane check.
_LANE_SCREEN = 0.25 * RUNAWAY_BOUND**2


class LaneFailures:
    """The first failure of each lane of a lockstep run.

    A lane whose state fails the guard is masked: it keeps the DivergedError of
    its first failing step, and later failures of it are ignored. Its state
    goes on advancing (as inf or NaN) without touching the other lanes,
    because every lockstep operation is elementwise.
    """

    def __init__(self, lanes: int):
        self.running = np.ones(lanes, dtype=bool)
        self.errors: list[Optional[DivergedError]] = [None] * lanes
        self._live: Optional[np.ndarray] = None  # running lanes, once one has failed

    def screen(self, x: np.ndarray) -> bool:
        """Whether the running lanes of the ``[n, lanes]`` array ``x`` have a
        sum of squares within the lockstep screen: one dot over the whole
        array, False if an element is NaN."""
        live = (x if self._live is None else x[:, self._live]).ravel()
        return live.dot(live) < _LANE_SCREEN

    def fail(self, mask: np.ndarray, message: str, t: float, step: int) -> None:
        """Mask each running lane set in ``mask``, recording its failure."""
        mask = mask & self.running
        if mask.any():
            for j in np.flatnonzero(mask):
                self.errors[j] = DivergedError(message, t=t, step=step)
            self.running &= ~mask
            self._live = np.flatnonzero(self.running)


def rk4_step(
    plant,
    state: Sequence[float],
    u,
    d_eval: Callable[[float], object],
    t: float,
    dt: float,
):
    """Classical 4th-order Runge-Kutta step with u held over the step, on a
    state of Python floats; a chain run calls it only to build its step map.

    ``plant.derivative(state, u, d, t)`` gives the state derivative, a
    sequence of floats, for the held control u and the disturbance value d.
    The disturbance evaluator is sampled at the stage times. The new state is
    returned unchecked, possibly non-finite: the caller's loop runs
    :func:`check_state` on it at the top of its next step.
    """
    if not (dt > 0.0):
        raise ConfigError(f"dt must be positive, got {dt!r}")
    half = 0.5 * dt
    d0, dm, d1 = d_eval(t), d_eval(t + half), d_eval(t + dt)
    ks = [plant.derivative(state, u, d0, t)]
    # plain loops, as a comprehension would add a frame per call
    for h, d in ((half, dm), (half, dm), (dt, d1)):
        stage = []
        for x, k in zip(state, ks[-1]):
            stage.append(x + h * k)
        ks.append(plant.derivative(stage, u, d, t + h))
    sixth = dt / 6.0
    out = []
    for x, a, b, c, d in zip(state, *ks):
        out.append(x + sixth * (a + 2.0 * (b + c) + d))
    return out


def check_state(
    state: Sequence[float], t: float, step: int, lanes: Optional[LaneFailures] = None
) -> None:
    """Per-step non-finite and runaway guard for simulation loops, the only
    one: a loop runs it on each step's state before anything reads it.

    With ``lanes``, the state is an ``[n, lanes]`` array and each failing
    lane is masked in ``lanes`` instead of raising; a lane fails for the same
    first reason, component by component, as it would alone.
    """
    if lanes is not None:
        if not lanes.screen(state):  # NaN, inf or past half the bound
            for x in state:
                lanes.fail(~np.isfinite(x), f"non-finite state at t={t:g}", t, step)
                lanes.fail(~(np.abs(x) <= RUNAWAY_BOUND),
                           f"diverged: |state| exceeded {RUNAWAY_BOUND:g} at t={t:g}", t, step)
        return
    for x in state:
        if not math.isfinite(x):
            raise DivergedError(f"non-finite state at t={t:g}", t=t, step=step)
        if abs(x) > RUNAWAY_BOUND:
            raise DivergedError(
                f"diverged: |state| exceeded {RUNAWAY_BOUND:g} at t={t:g}", t=t, step=step
            )


def nest(options: dict) -> tuple[dict, dict]:
    """The plant and controller dicts of options by config key; a
    ``reference.*`` or ``path.*`` option nests in the plant dict."""
    nested = {"plant": {}, "controller": {}}
    for key, value in options.items():
        section, name = key.split(".", 1)
        into = nested[section] if section in nested else nested["plant"].setdefault(section, {})
        into[name] = value
    return nested["plant"], nested["controller"]


# The config key of each scenario-wide Scenario field
FIELDS = {"sim.dt": "dt", "sim.duration": "duration", "sim.seed": "seed",
          "sim.decimation": "decimation", "noise.sigma": "noise", "metrics.threshold": "threshold"}


@dataclass
class Scenario:
    """Declarative experiment description; see config.py for the file schema.
    Each option given (by name, :func:`nest`) and each field of :data:`FIELDS`
    is parsed once, config text or typed, and one not given or None takes its
    default; ``duration`` has none. ``noise`` takes a NoiseSpec or its
    deviations and becomes a NoiseSpec of ``seed``. ``disturbance`` has the
    shape of the plant's ``parse_disturbance``."""

    plant_kind: str
    plant: dict
    controller: dict
    disturbance: object
    noise: NoiseSpec | Sequence[float] | str | None = None
    dt: float = None
    duration: float = None
    seed: int = None
    decimation: int = None
    threshold: float = None

    def __post_init__(self):
        from .config import SCENARIO_OPTIONS, resolve  # config.py imports this one
        from .plants import plant_module  # the plant modules import this one
        module = plant_module(self.plant_kind)
        given = {f"controller.{name}": value for name, value in self.controller.items()}
        for name, value in self.plant.items():
            # a nested dict holds the options of a reference.* or path.* section
            given.update({f"{name}.{key}": v for key, v in value.items()}
                         if isinstance(value, dict) else {f"plant.{name}": value})
        unknown = [key for key in given if key not in module.OPTIONS]
        if unknown:
            raise ConfigError(f"{unknown[0]}: not a key of plant {self.plant_kind!r}")
        given.update({key: getattr(self, name) for key, name in FIELDS.items()})
        if isinstance(self.noise, NoiseSpec):
            given["noise.sigma"] = self.noise.sigmas
        options = {key: resolve(given.get(key), key, parse, default)
                   for key, (parse, default) in {**SCENARIO_OPTIONS, **module.OPTIONS}.items()}
        for key, name in FIELDS.items():
            setattr(self, name, options.pop(key))
        self.plant, self.controller = nest(options)
        module.check(self)
        steps = self.duration / self.dt  # a dt beyond the duration is a fraction of a step
        if not (steps < math.inf and abs(steps - round(steps)) <= 1e-9 * steps):
            raise ConfigError(f"sim.duration: must be a whole number of sim.dt steps, "
                              f"got {self.duration!r} / {self.dt!r} = {steps!r}")
        if round(steps) > MAX_STEPS:
            raise ConfigError(f"sim.duration: at most {MAX_STEPS:g} sim.dt steps, "
                              f"got {self.duration!r} / {self.dt!r} = {steps:g}")
        self.noise = NoiseSpec(sigmas=self.noise, seed=self.seed)
        channels = module.noise_channels(self)
        if len(self.noise.sigmas) not in (1, channels):
            raise ConfigError(f"noise.sigma: expected 1 or {channels} values, "
                              f"got {len(self.noise.sigmas)}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


class SimTrace:
    """Columnar, uniformly-gridded record of one run."""

    def __init__(self, columns: dict[str, np.ndarray]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ConfigError("trace columns must have equal length")
        self.columns = columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    def __len__(self) -> int:
        return len(self.columns["t"])

    def to_csv(self, path) -> None:
        """CSV with one named column per quantity, floats at 17 significant digits."""
        data = np.column_stack([self.columns[name] for name in self.names])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(self.names))


class _LaneColumns:
    """Preallocated storage for the columns of a lockstep recorder;
    ``columns[row] = values`` writes one row, in the order of ``names``.

    A column is allocated at the first row: ``[lanes, rows]`` if its value is
    an array, or one ``[rows]`` array shared by every lane if it is a float
    (time, or a disturbance no state feeds back into).
    """

    def __init__(self, names: Sequence[str], lanes: int, rows: int):
        self.names = list(names)
        self.lanes = lanes
        self.columns: dict[str, np.ndarray] = {}
        self._arrays: list[np.ndarray] = []
        self._capacity = rows

    def __setitem__(self, row: int, values: Sequence) -> None:
        if row == 0:
            for name, value in zip(self.names, values):
                lanes = () if isinstance(value, float) else (self.lanes,)
                self.columns[name] = np.empty(lanes + (self._capacity,))
            # row-first views: one assignment writes row k of every lane
            self._arrays = [self.columns[name].T for name in self.names]
        for array, value in zip(self._arrays, values):
            array[row] = value

    def lane(self, j: int) -> dict[str, np.ndarray]:
        """Lane j's columns, as views."""
        return {name: data if data.ndim == 1 else data[j] for name, data in self.columns.items()}


class TraceRecorder:
    """The decimated rows of a run of ``n_steps`` steps, written as they come
    into float64 storage preallocated for ``n_steps // decimation + 1`` rows,
    8 B per value: for a single run, one ``[rows, columns]`` block whose
    columns ``build`` gives as views; with ``lanes``, :class:`_LaneColumns`
    of floats and ``[lanes]`` arrays, which ``build`` gives as one SimTrace
    per lane."""

    def __init__(self, names: Sequence[str], n_steps: int, decimation: int = 1,
                 lanes: Optional[int] = None):
        self.names = list(names)
        self.decimation = decimation
        self.lanes = lanes
        rows = n_steps // decimation + 1
        # column-major, so that each column is one contiguous view
        self._data = (np.empty((rows, len(self.names)), order="F") if lanes is None
                      else _LaneColumns(self.names, lanes, rows))

    def record(self, step_index: int, values: Sequence[float]) -> None:
        if step_index % self.decimation == 0:
            self._data[step_index // self.decimation] = values

    def build(self) -> SimTrace | list[SimTrace]:
        if self.lanes is None:
            return SimTrace(dict(zip(self.names, self._data.T)))
        return [SimTrace(self._data.lane(j)) for j in range(self.lanes)]


def run_scenario(scenario: Scenario | Sequence[Scenario]):
    """Simulate one scenario to completion; bit-reproducible for a fixed seed.

    Given a list of scenarios of one plant, gives one outcome per scenario,
    in order: its trace, or the run failure (with ``step``) that stopped it.
    A list of at least the plant's ``LOCKSTEP`` scenarios runs as the lanes
    of one run; any other runs each scenario alone (:func:`run_each`). An
    error raised before a run's loop propagates.
    """
    from .plants import plant_module  # the plant modules import this one

    if isinstance(scenario, Scenario):
        return plant_module(scenario.plant_kind).run(scenario)
    kinds = sorted({s.plant_kind for s in scenario})
    if len(kinds) != 1:
        raise ConfigError(f"a list of scenarios takes one plant, got {kinds}")
    plant = plant_module(kinds[0])
    lockstep = plant.LOCKSTEP is not None and len(scenario) >= plant.LOCKSTEP
    return plant.run(scenario) if lockstep else run_each(scenario)


def run_each(scenarios: Sequence[Scenario]) -> Iterator:
    """Run each scenario alone, in order, yielding its trace or the run
    failure that stopped it; an error raised before a run's loop propagates.
    A trace is released before the next run starts, once the caller drops it.
    """
    for scenario in scenarios:
        try:
            outcome = run_scenario(scenario)
        except LumpedPidError as exc:
            if exc.step is None:
                raise
            outcome = exc
        yield outcome
        del outcome
