"""Quantitative checks over simulation traces and transfer functions.

The "final window" of a trace is its last 20%. The reported
limsup is the maximum over that window after the transient has been given at
least ten homogeneous time constants to settle; it is an estimate of the
mathematical limsup, not the limit itself.

Trace metrics and the bound check read only a :class:`TraceSummary`, the
outcome of one reduction, :class:`MetricsReduction`: a lockstep run feeds it
every lane's rows a block at a time as it goes, and a single run's trace is
fed to it whole, as one chunk (:func:`summarise`, through ``sim.summary``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, WindowTooShortError
from .polylti import log_grid
from .sim import SimTrace, write_csv

FINAL_WINDOW_FRAC = 0.2
BOUND_MARGIN = 0.05  # absorbs integration and windowing error
BOUND_ABS_FLOOR = 1e-8  # accepted residue when f_bar = 0 (asymptotic stability)


@dataclass(frozen=True)
class TraceMetrics:
    sse_rms: float        # RMS of the signal over the final window
    sse_max: float        # max |signal| over the final window
    settling_time: float  # first time the signal stays below the threshold
    overshoot: float      # max |signal| after the first zero crossing
    observer_rmse: float  # RMS of f - f_hat over the final window (nan if absent)


@dataclass(frozen=True)
class BoundReport:
    f_bar: float             # measured sup |f| over the trace tail
    theoretical_bound: float  # f_bar / omega**n
    measured_limsup: float    # max |x| over the final window
    satisfied: bool


def _final_window(n: int) -> int:
    return max(1, int(math.ceil(FINAL_WINDOW_FRAC * n)))


def ultimate_bound(f_bar: float, omega: float, n: int) -> float:
    """Asymptotic ceiling f_bar / omega**n on |x| for the repeated-pole
    homogeneous system driven by a bounded disturbance."""
    if not (f_bar >= 0.0):
        raise ConfigError(f"f_bar must be >= 0, got {f_bar!r}")
    if not (omega > 0.0) or n < 1:
        raise ConfigError(f"need omega > 0 and n >= 1, got omega={omega!r}, n={n!r}")
    return f_bar / omega**n


@dataclass(frozen=True)
class TraceSummary:
    """What the metrics of one run read, as a :class:`MetricsReduction`
    keeps it: the outcome of a scenario of a list, whichever way the list
    runs, as a lockstep lane or as a trace reduced by :func:`summarise`; the
    one input of :func:`trace_metrics` and :func:`check_bound`. Its settling
    time is at the threshold it was reduced at."""

    rows: int              # the rows reduced
    signal: str            # the column the settling and overshoot are of
    tail: dict             # the final window of each column reduced, by name
    settling_time: float   # first time the signal stays below the threshold
    overshoot: float       # max |signal| after its first zero crossing


class MetricsReduction:
    """The facts the metrics of ``lanes`` runs read, reduced from their
    ``rows`` rows as they are fed, a chunk at a time.

    ``names`` are the columns fed: time, the metric signal, then further
    columns (the observer's). Per lane it keeps:

    * the final window of each column, its last ``_final_window(rows)``
      rows: a contiguous ``[lanes, w]`` array, or one ``[w]`` array for a
      column fed as one value per row shared by every lane (time, say);
    * the time of the row after the signal's last exceedance of
      ``threshold`` (a float, or one per lane), and whether the last row fed
      exceeds it;
    * the signal's first sign crossing, carried across chunks, and the
      running max of ``|signal|`` from the crossing's row, the first whose
      sign is opposite to the row before's.

    A max, a last index and a first crossing do not depend on where the
    chunks end, and the windows hold the rows' own values contiguously, so
    the metrics are the same bits for any chunking, a whole trace fed as
    one chunk among them.
    """

    def __init__(self, names: Sequence[str], rows: int, threshold, lanes: int = 1):
        self.names = tuple(names)
        self.rows = rows
        self.window = _final_window(rows)
        self.threshold = threshold
        self.lanes = lanes
        self.fed = 0
        self._tails: list[np.ndarray] = []  # allocated at the first chunk, shaped as its columns
        self._above = np.zeros(lanes, dtype=bool)  # whether the last row fed exceeds
        self._settled = np.zeros(lanes)  # time of the row after the last exceedance
        # the sign of the last row fed, as (< 0, > 0); neither before the first
        self._negative = np.zeros(lanes, dtype=bool)
        self._positive = np.zeros(lanes, dtype=bool)
        self._crossed = np.zeros(lanes, dtype=bool)
        self._peak = np.zeros(lanes)

    def feed(self, columns: Sequence[np.ndarray]) -> None:
        """Reduce the next rows: ``columns`` in the order of ``names``, time
        as ``[m]`` and each other ``[m, lanes]``, or ``[m]`` if shared by
        every lane."""
        t = columns[0]
        m = len(t)
        k0 = self.fed
        self.fed += m
        start = self.rows - self.window  # the first row of the final window
        if not self._tails:
            self._tails = [np.empty(np.shape(c)[1:] + (self.window,)) for c in columns]
        if self.fed > start:
            lo = max(start, k0)
            for tail, column in zip(self._tails, columns):
                tail[..., lo - start:self.fed - start] = column[lo - k0:].T

        x = columns[1].reshape(m, -1)
        size = np.abs(x)
        above = size > self.threshold
        preceded = np.empty_like(above)  # whether the row before exceeds
        preceded[0] = self._above
        preceded[1:] = above[:-1]
        self._above = above[-1].copy()
        hit = preceded.any(axis=0)
        if hit.any():  # none once every lane has settled
            last = m - 1 - np.argmax(preceded[::-1], axis=0)
            self._settled = np.where(hit, t[last], self._settled)

        # a row crosses if its sign and the row before's are opposite: what
        # sign(before) * sign(row) < 0 tests, NaN and zeros included
        negative, positive = x < 0.0, x > 0.0
        crossing = np.empty_like(negative)
        crossing[0] = self._negative & positive[0] | self._positive & negative[0]
        crossing[1:] = negative[:-1] & positive[1:] | positive[:-1] & negative[1:]
        self._negative, self._positive = negative[-1].copy(), positive[-1].copy()
        # the running max of |signal| from the first crossing's row: the
        # whole chunk once crossed, from that row in the chunk it falls in
        peak = np.where(self._crossed, size.max(axis=0), 0.0)
        for j in np.flatnonzero(crossing.any(axis=0) & ~self._crossed):  # once a lane
            peak[j] = size[np.argmax(crossing[:, j]):, j].max()
            self._crossed[j] = True
        self._peak = np.maximum(self._peak, peak)

    def summaries(self) -> list[TraceSummary]:
        """One summary per lane, of the rows fed so far."""
        settling = np.where(self._above, math.inf, self._settled)
        return [TraceSummary(rows=self.fed, signal=self.names[1],
                             tail={name: tail if tail.ndim == 1 else tail[j]
                                   for name, tail in zip(self.names, self._tails)},
                             settling_time=float(settling[j]), overshoot=float(self._peak[j]))
                for j in range(self.lanes)]


def summarise(trace: SimTrace, threshold: float, signal: str,
              columns: Sequence[str]) -> TraceSummary:
    """The summary of a trace: its ``t``, ``signal`` and further ``columns``
    fed to the one reduction as one chunk."""
    if len(trace) == 0:
        raise ConfigError("empty trace")
    names = ("t", signal, *columns)
    reduction = MetricsReduction(names, len(trace), threshold)
    reduction.feed([trace[name] for name in names])
    return reduction.summaries()[0]


def trace_metrics(summary: TraceSummary,
                  observer: tuple[str, str] | None = ("f_true", "f_hat")) -> TraceMetrics:
    """Steady-state, settling, overshoot, and observer statistics of a run,
    read from its summary: of the summary's own signal, at the threshold it
    was reduced at.

    Settling uses permanently-below semantics: the reported time is the first
    sample after the last exceedance (inf if the trace ends above threshold).
    ``observer`` names the (true, estimate) columns of the observed lumped
    term; the observer RMSE is NaN without them, or with a NaN estimate in
    the final window.
    """
    tail = summary.tail[summary.signal]
    sse_rms = float(np.sqrt(np.mean(tail * tail)))
    sse_max = float(np.max(np.abs(tail)))
    if observer and all(c in summary.tail for c in observer):
        err = summary.tail[observer[0]] - summary.tail[observer[1]]
        observer_rmse = float(np.sqrt(np.mean(err * err)))
    else:
        observer_rmse = math.nan
    return TraceMetrics(sse_rms, sse_max, summary.settling_time, summary.overshoot, observer_rmse)


def check_bound(summary: TraceSummary, omega: float, n: int) -> BoundReport:
    """Empirical ultimate-bound check of ``x0`` on an uncompensated chain run,
    from the final window of its summary, which must keep ``f_true``.

    The run must be of state feedback alone (no observer), so that
    x^(n) = -sum C(n,i) omega^i x^(n-i) + f. A tail shorter than ten
    homogeneous time constants, a one-row run's too, is WindowTooShortError.
    """
    t = summary.tail["t"]
    tail_span = float(t[-1] - t[0])
    if tail_span < 10.0 / omega:
        raise WindowTooShortError(
            f"trace tail spans {tail_span:g} s, need >= {10.0 / omega:g} s (10 time constants)"
        )
    f_bar = float(np.max(np.abs(summary.tail["f_true"])))
    bound = ultimate_bound(f_bar, omega, n)
    measured = float(np.max(np.abs(summary.tail["x0"])))
    return BoundReport(
        f_bar=f_bar,
        theoretical_bound=bound,
        measured_limsup=measured,
        satisfied=measured <= bound * (1.0 + BOUND_MARGIN) + BOUND_ABS_FLOOR,
    )


def default_grid(omega: float, omega_f: float, points_per_decade: int = 50) -> list[float]:
    """Two decades below the slowest corner to two above the fastest."""
    lo = min(omega, omega_f) / 100.0
    hi = max(omega, omega_f) * 100.0
    return log_grid(lo, hi, points_per_decade)


# The columns of metrics.csv and sweep.csv, in the order _metrics_fields gives them
METRICS_COLUMNS = ("scenario_id", "omega", "omega_f", "sigma", "sse_rms", "sse_max", "settling",
                   "overshoot", "observer_rmse", "bound", "limsup", "satisfied", "status")


@dataclass(frozen=True)
class MetricsRow:
    scenario_id: str
    omega: float
    omega_f: float
    sigma: float
    metrics: Optional[TraceMetrics] = None
    bound: Optional[BoundReport] = None
    status: str = "ok"


def _fmt(value) -> str:
    """A table's field: blank for None and NaN, true/false for a bool, floats
    at 17 significant digits."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def table_line(row: Sequence) -> bytes:
    """The CSV line of a table's row: each field through :func:`_fmt`."""
    return (",".join(map(_fmt, row)) + "\n").encode()


def _metrics_fields(row: MetricsRow) -> tuple:
    m, b = row.metrics, row.bound
    metrics = ((m.sse_rms, m.sse_max, m.settling_time, m.overshoot, m.observer_rmse)
               if m else (None,) * 5)
    bound = (b.theoretical_bound, b.measured_limsup, b.satisfied) if b else (None,) * 3
    return (row.scenario_id, row.omega, row.omega_f, row.sigma, *metrics, *bound, row.status)


def write_metrics_csv(path, rows: Sequence[MetricsRow]) -> None:
    write_csv(path, METRICS_COLUMNS, map(table_line, map(_metrics_fields, rows)))
