"""Fixed-step closed-loop simulation: RK4, guards, scenarios, traces.

Time is kept on an integer step counter with t = k*dt (never accumulated), so
trace timestamps sit exactly on the grid. Control inputs are held constant
over each integration step (zero-order hold) at the integrator rate, and
every plant's step reads the disturbance only as its values at the RK4 stage
times t, t + dt/2 and t + dt, which its loop samples and passes in. A run is
a pure function of its scenario, seed included.

A lockstep run advances several scenarios at once: each per-scenario
quantity is a ``[lanes]`` float64 array, one lane per scenario, and the state
one ``[n, lanes]`` array, row i holding component i. It goes through the same
plant step and controller code as a float state does. A chain steps by its
RK4 step as one affine map, which :func:`rk4_step` builds once per run.

Both RK4 steps run as loop-free ("straight-line") code, compiled once: the
chain's map from its rows of coefficients, and :func:`rk4_step`'s body once
per state length. Each does the operations of the loops it replaces, in
their order, so the bits are those of the loops.

:func:`check_state`, at the top of each step of a plant's loop, is the one
divergence guard: a plant step returns its state unchecked, so a step that
makes the state non-finite is reported at the next step. In a lockstep run
it takes a :class:`LaneFailures` record and masks failing lanes instead of
raising. A math error inside a step is a divergence there (:func:`run_failure`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DivergedError, LumpedPidError
from .signals import BLOCK, NoiseSpec

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


def rk4_step(derivative, state: Sequence[float], u, d: Sequence, dt: float):
    """Classical 4th-order Runge-Kutta step with u held over the step, on a
    state of Python floats; the vehicle calls it every step, a chain run only
    to build its step map. ``derivative(state, u, d)`` gives the derivative,
    a sequence of ``len(state)`` floats (a tuple, say), for the held control u
    and the disturbance value d. ``d`` holds the disturbance at the three
    stage times t, t + dt/2 and t + dt, the only values of it a step reads.
    The new state, a list, is returned unchecked, possibly non-finite: the
    caller's loop runs :func:`check_state` on it at the top of its next step.
    """
    if not (dt > 0.0):
        raise ConfigError(f"dt must be positive, got {dt!r}")
    return _rk4_kernel(len(state))(derivative, state, u, d, dt)


@functools.cache
def _rk4_kernel(n: int):
    """The body of :func:`rk4_step` for a state of length n, compiled once as
    loop-free code: each stage one list display of ``x + half * k`` (``x + dt
    * k`` for the last), and the new state ``x + sixth * (a + 2.0 * (b + c) +
    e)``, component by component."""
    def names(prefix):  # the trailing comma makes n = 1 a tuple unpack too
        return ", ".join(f"{prefix}{i}" for i in range(n)) + ","

    def stage(k, h):
        return ", ".join(f"x{i} + {h} * {k}{i}" for i in range(n))

    source = "\n".join([
        "def rk4(derivative, state, u, d, dt):",
        "    half = 0.5 * dt",
        "    d0, dm, d1 = d",
        f"    {names('x')} = state",
        f"    {names('a')} = derivative(state, u, d0)",
        f"    {names('b')} = derivative([{stage('a', 'half')}], u, dm)",
        f"    {names('c')} = derivative([{stage('b', 'half')}], u, dm)",
        f"    {names('e')} = derivative([{stage('c', 'dt')}], u, d1)",
        "    sixth = dt / 6.0",
        "    return [" + ", ".join(f"x{i} + sixth * (a{i} + 2.0 * (b{i} + c{i}) + e{i})"
                              for i in range(n)) + "]",
    ])
    namespace: dict = {}
    exec(compile(source, f"<rk4_step n={n}>", "exec"), namespace)
    return namespace["rk4"]


def check_state(
    state: Sequence[float], t: float, step: int, lanes: Optional[LaneFailures] = None
) -> None:
    """Per-step non-finite and runaway guard for simulation loops, the only
    one: a loop runs it on each step's state before anything reads it.

    A float state passes at once when the sum of its absolute values is
    within RUNAWAY_BOUND: rounding is monotone, so that sum bounds every
    component, and it is NaN or inf when one is. Any other state is checked
    component by component, so the first failing one gives the reason.

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
    if sum(map(abs, state)) <= RUNAWAY_BOUND:
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


def write_csv(path, names: Sequence[str], lines: Iterable) -> None:
    """Write a CSV file, as every command writes one: the header ``names``,
    then ``lines``, each item the bytes of one or more newline-terminated
    lines of fields."""
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        fh.writelines(lines)


class SimTrace:
    """Columnar, uniformly-gridded record of one run."""

    def __init__(self, columns: dict[str, np.ndarray]):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ConfigError("trace columns must have equal length")
        self.columns = columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    @property
    def t(self) -> np.ndarray:
        return self.columns["t"]

    def __len__(self) -> int:
        return len(self.columns["t"])

    def to_csv(self, path) -> None:
        """CSV with one named column per quantity, each value ``%.17g`` (NaN
        as ``nan``), formatted by :func:`g17.csv_blocks` a block of values at
        a time, so the trace is never copied whole."""
        from .g17 import csv_blocks  # only a trace written out needs the formatter

        write_csv(path, self.names, csv_blocks(list(self.columns.values())))


class _LaneBlocks:
    """The rows of a lockstep recorder, :data:`BLOCK` at a time:
    ``blocks[row] = values`` writes one row, in the order of the recorder's
    names, and each full block goes to ``reduce`` as a list of columns;
    ``flush`` hands it the rows of the last, partial block.

    A column is allocated at the first row: ``[BLOCK, lanes]`` if its value
    is an array, or ``[BLOCK]``, shared by every lane, if it is a float
    (time, or a disturbance no state feeds back into).
    """

    def __init__(self, lanes: int, reduce: Callable[[list], None]):
        self.lanes = lanes
        self.reduce = reduce
        self._blocks: list[np.ndarray] = []

    def __setitem__(self, row: int, values: Sequence) -> None:
        if row == 0:
            self._blocks = [np.empty((BLOCK,) if isinstance(v, float) else (BLOCK, self.lanes))
                            for v in values]
        i = row % BLOCK
        for block, value in zip(self._blocks, values):
            block[i] = value
        if i == BLOCK - 1:
            self.reduce(self._blocks)

    def flush(self, rows: int) -> None:
        """Reduce what is left of ``rows`` rows in all."""
        if rows % BLOCK:
            self.reduce([block[:rows % BLOCK] for block in self._blocks])


class TraceRecorder:
    """The decimated rows of a run of ``n_steps`` steps, ``n_steps //
    decimation + 1`` of them, written as they come.

    For a single run, they go into one ``[rows, columns]`` float64 block
    preallocated for the whole run, 8 B per value, whose columns ``build``
    gives as views of one SimTrace. With ``reduction`` (an
    :class:`analysis.MetricsReduction` of lockstep lanes), they go into
    ``[BLOCK, lanes]`` buffers that are handed to ``reduction.feed`` block by
    block, so no column of the run is held whole; ``build`` then gives the
    reduction's summaries, one per lane."""

    def __init__(self, names: Sequence[str], n_steps: int, decimation: int = 1,
                 reduction=None):
        self.names = list(names)
        self.decimation = decimation
        self.reduction = reduction
        self.rows = n_steps // decimation + 1
        # column-major, so that each column is one contiguous view
        self._data = (np.empty((self.rows, len(self.names)), order="F") if reduction is None
                      else _LaneBlocks(reduction.lanes, reduction.feed))

    def record(self, step_index: int, values: Sequence[float]) -> None:
        if step_index % self.decimation == 0:
            self._data[step_index // self.decimation] = values

    def build(self) -> SimTrace | list:
        if self.reduction is None:
            return SimTrace(dict(zip(self.names, self._data.T)))
        self._data.flush(self.rows)
        return self.reduction.summaries()


# What a step of a run's loop may raise: a package error, or a math error
# of its float arithmetic (``math.sin`` of inf, say)
STEP_ERRORS = (LumpedPidError, ArithmeticError, ValueError)


def run_failure(exc: Exception, step: int, t: float) -> LumpedPidError:
    """The run failure that ``exc``, one of STEP_ERRORS raised in step
    ``step`` of a run's loop at time ``t``, stops the run with: a package
    error with its step recorded, or a math error as a DivergedError there."""
    if not isinstance(exc, LumpedPidError):
        exc = DivergedError(f"math error at t={t:g}: {exc}")
    exc.at(step, t)
    return exc


def summary(trace: SimTrace, scenario: Scenario):
    """The TraceSummary of a run of ``scenario``, as a lockstep lane keeps it:
    the error and (true, estimate) columns of its plant's loop 0 at the
    scenario's ``threshold``."""
    from .analysis import summarise  # analysis.py imports this one
    from .plants import plant_module  # the plant modules import this one
    error, _, _, pair, _ = plant_module(scenario.plant_kind).LOOPS[0]
    return summarise(trace, scenario.threshold, error, pair or ())


def _outcome(scenario: Scenario):
    """The summary of ``scenario`` run alone, or the run failure that stopped it."""
    try:
        return summary(run_scenario(scenario), scenario)
    except LumpedPidError as exc:
        if exc.step is None:
            raise
        return exc


def run_scenario(scenario: Scenario | Sequence[Scenario]):
    """Simulate one scenario to completion; bit-reproducible for a fixed seed.

    Given a list of scenarios of one plant, gives one outcome per scenario,
    in order: its :func:`summary`, or the run failure (with ``step``) that
    stopped it, whichever way the list runs. A list that the plant's
    ``lockstep`` accepts runs as the lanes of one run; any other runs each
    scenario alone as its outcome is taken, so no two traces are held at
    once. An error raised before a run's loop propagates.
    """
    from .plants import plant_module  # the plant modules import this one

    if isinstance(scenario, Scenario):
        return plant_module(scenario.plant_kind).run(scenario)
    kinds = sorted({s.plant_kind for s in scenario})
    if len(kinds) != 1:
        raise ConfigError(f"a list of scenarios takes one plant, got {kinds}")
    plant = plant_module(kinds[0])
    lockstep = plant.lockstep is not None and plant.lockstep(scenario)
    return plant.run(scenario) if lockstep else map(_outcome, scenario)
