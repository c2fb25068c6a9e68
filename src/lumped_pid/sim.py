"""Fixed-step closed-loop simulation: plants, RK4, scenarios, traces.

Time is kept on an integer step counter with t = k*dt (never accumulated), so
trace timestamps sit exactly on the grid. Control inputs are held constant
over each integration step (zero-order hold) at the integrator rate. A run is
a pure function of its scenario, seed included.

A lockstep run advances several scenarios at once: each per-scenario
quantity is a ``[lanes]`` float64 array, one lane per scenario, and goes
through the same plant, integrator and controller code as a float does. The
guards take a :class:`LaneFailures` record then and mask failing lanes
instead of raising.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DivergedError
from .signals import NoiseSpec

# States beyond this magnitude abort the run as diverged rather than waiting
# for overflow, so parameter sweeps can record the failure.
RUNAWAY_BOUND = 1e12
# Lockstep guards test each state component's sum of squares over the lanes
# first. Rounding is monotone, so the sum is at least every rounded square:
# a sum within this screen puts every lane below RUNAWAY_BOUND / 2, and only
# a sum beyond it (or NaN) needs the lane-by-lane check.
_LANE_SCREEN = 0.25 * RUNAWAY_BOUND**2


class PlantModel(abc.ABC):
    """Deterministic plant dynamics plus its measurement map."""

    state_dim: int

    @abc.abstractmethod
    def derivative(self, state: Sequence[float], u, d, t: float) -> list[float]:
        """State derivative given held control u and disturbance value d."""

    @abc.abstractmethod
    def measurements(self, state: Sequence[float], t: float) -> list[float]:
        """Measured quantities (before noise)."""


class LaneFailures:
    """The first failure of each lane of a lockstep run.

    A lane whose state fails a guard is masked: it keeps the DivergedError of
    its first failing step, and later failures of it are ignored. Its state
    goes on advancing (as inf or NaN) without touching the other lanes,
    because every lockstep operation is elementwise.
    """

    def __init__(self, lanes: int):
        self.running = np.ones(lanes, dtype=bool)
        self.errors: list[Optional[DivergedError]] = [None] * lanes
        self._live: Optional[np.ndarray] = None  # running lanes, once one has failed

    def live(self, x: np.ndarray) -> np.ndarray:
        """The running lanes of ``x``."""
        return x if self._live is None else x[self._live]

    def fail(self, mask: np.ndarray, message: str, t: float, step: int) -> None:
        """Mask each running lane set in ``mask``, recording its failure."""
        mask = mask & self.running
        if mask.any():
            for j in np.flatnonzero(mask):
                self.errors[j] = DivergedError(message, t=t, step=step)
            self.running &= ~mask
            self._live = np.flatnonzero(self.running)


def rk4_step(
    plant: PlantModel,
    state: Sequence[float],
    u,
    d_eval: Callable[[float], object],
    t: float,
    dt: float,
    lanes: Optional[LaneFailures] = None,
) -> list[float]:
    """Classical 4th-order Runge-Kutta step with u held over the step.

    The disturbance evaluator is sampled at the stage times. Raises
    DivergedError if the new state is non-finite; the error carries the grid
    index ``round(t / dt)`` of the step. With ``lanes``, the state and ``u``
    are ``[lanes]`` arrays and each lane with a non-finite result is masked
    in ``lanes`` instead.
    """
    if not (dt > 0.0):
        raise ConfigError(f"dt must be positive, got {dt!r}")
    half = 0.5 * dt
    d0 = d_eval(t)
    dm = d_eval(t + half)
    d1 = d_eval(t + dt)
    k1 = plant.derivative(state, u, d0, t)
    s2 = [x + half * k for x, k in zip(state, k1)]
    k2 = plant.derivative(s2, u, dm, t + half)
    s3 = [x + half * k for x, k in zip(state, k2)]
    k3 = plant.derivative(s3, u, dm, t + half)
    s4 = [x + dt * k for x, k in zip(state, k3)]
    k4 = plant.derivative(s4, u, d1, t + dt)
    sixth = dt / 6.0
    out = [
        x + sixth * (a + 2.0 * (b + c) + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]
    if lanes is not None:
        for x in out:
            live = lanes.live(x)
            if not live.dot(live) < math.inf:  # a lane is non-finite, or merely huge
                lanes.fail(~np.isfinite(x), f"non-finite state component after step at t={t:g}",
                           t, round(t / dt))
        return out
    for x in out:
        if not math.isfinite(x):
            raise DivergedError(f"non-finite state component after step at t={t:g}",
                                t=t, step=round(t / dt))
    return out


def check_state(
    state: Sequence[float], t: float, step: int, lanes: Optional[LaneFailures] = None
) -> None:
    """Per-step non-finite and runaway guard for simulation loops.

    With ``lanes``, the state components are ``[lanes]`` arrays and each
    failing lane is masked in ``lanes`` instead of raising; a lane fails for
    the same first reason as it would alone.
    """
    if lanes is not None:
        for x in state:
            live = lanes.live(x)
            if not live.dot(live) <= _LANE_SCREEN:  # a lane is NaN, inf or past half the bound
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


@dataclass
class Scenario:
    """Declarative experiment description; see config.py for the file schema."""

    plant_kind: str
    plant: dict
    controller: dict
    disturbance: object
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    dt: float = 1e-3
    duration: float = 1.0
    seed: int = 0
    decimation: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ConfigError(f"sim.dt: must be positive, got {self.dt!r}")
        if not (self.duration > 0.0):
            raise ConfigError(f"sim.duration: must be positive, got {self.duration!r}")
        if self.dt > self.duration:
            raise ConfigError("sim.dt: step exceeds duration")
        if self.decimation < 1:
            raise ConfigError("sim.decimation: must be >= 1")
        if self.noise.seed != self.seed:
            # scenario seed is authoritative; NoiseSpec carries it for addressing
            self.noise = NoiseSpec(sigmas=self.noise.sigmas, seed=self.seed)

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
    """Preallocated storage for the kept columns of a lockstep recorder;
    ``append`` takes a full row of the recorder's names.

    A column is allocated at the first row: ``[lanes, rows]`` if its value is
    an array, or one ``[rows]`` array shared by every lane if it is a float
    (time, or a disturbance no state feeds back into).
    """

    def __init__(self, names: Sequence[str], keep: Sequence[str], lanes: int, rows: int):
        self.keep = list(keep)
        self.index = [list(names).index(name) for name in keep]
        self.lanes = lanes
        self.columns: dict[str, np.ndarray] = {}
        self._arrays: list[np.ndarray] = []
        self._capacity = rows
        self.rows = 0

    def append(self, values: Sequence) -> None:
        row = self.rows
        if row == 0:
            for name, i in zip(self.keep, self.index):
                lanes = () if isinstance(values[i], float) else (self.lanes,)
                self.columns[name] = np.empty(lanes + (self._capacity,))
            # row-first views: one assignment writes row k of every lane
            self._arrays = [self.columns[name].T for name in self.keep]
        for array, i in zip(self._arrays, self.index):
            array[row] = values[i]
        self.rows = row + 1

    def lane(self, j: int) -> dict[str, np.ndarray]:
        """Lane j's columns, as views."""
        return {name: data if data.ndim == 1 else data[j] for name, data in self.columns.items()}


class TraceRecorder:
    """Accumulates decimated rows during a run."""

    def __init__(self, names: Sequence[str], decimation: int = 1):
        self.names = list(names)
        self.decimation = decimation
        self._rows: list[tuple] = []

    @classmethod
    def lockstep(
        cls, names: Sequence[str], keep: Sequence[str], lanes: int, n_steps: int,
        decimation: int = 1,
    ) -> TraceRecorder:
        """A recorder for a lockstep run of ``n_steps`` steps: ``record`` still
        takes full rows of ``names`` (floats or ``[lanes]`` arrays), but only
        the columns in ``keep`` are stored, into preallocated arrays, and
        ``build`` returns one SimTrace per lane."""
        rec = cls(names, decimation)
        rec._rows = _LaneColumns(rec.names, keep, lanes, n_steps // decimation + 1)
        return rec

    def record(self, step_index: int, values: Sequence[float]) -> None:
        if step_index % self.decimation == 0:
            self._rows.append(tuple(values))

    def build(self) -> SimTrace | list[SimTrace]:
        if isinstance(self._rows, _LaneColumns):
            return [SimTrace(self._rows.lane(j)) for j in range(self._rows.lanes)]
        data = np.asarray(self._rows, dtype=float)
        return SimTrace({name: data[:, i] for i, name in enumerate(self.names)})


def run_scenario(scenario: Scenario | Sequence[Scenario]):
    """Simulate one scenario to completion; bit-reproducible for a fixed seed.

    Given a list of lane-compatible chain scenarios (same plant, controller
    options but ``omega``/``omega_f``, disturbance, ``dt``, duration and
    decimation), runs them in lockstep and returns one outcome per scenario,
    in order: a SimTrace of ``t``, ``x0``, ``f_true`` and ``f_hat``, or the
    DivergedError that stopped that scenario. Each outcome is bit-identical
    to what running the scenario alone gives (or raises).
    """
    from .plants import chain, vehicle, vtol

    if not isinstance(scenario, Scenario):
        kinds = sorted({s.plant_kind for s in scenario})
        if kinds != ["chain"]:
            raise ConfigError(f"lockstep runs take one or more chain scenarios, got {kinds}")
        return chain.run(scenario)
    runners = {"chain": chain.run, "vtol": vtol.run, "vehicle": vehicle.run}
    try:
        runner = runners[scenario.plant_kind]
    except KeyError:
        raise ConfigError(
            f"plant.kind: unknown plant {scenario.plant_kind!r}, expected one of {sorted(runners)}"
        ) from None
    return runner(scenario)
