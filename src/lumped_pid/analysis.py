"""Quantitative checks over simulation traces and transfer functions.

The "final window" of a trace is its last 20%. The reported
limsup is the maximum over that window after the transient has been given at
least ten homogeneous time constants to settle; it is an estimate of the
mathematical limsup, not the limit itself.
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


def trace_metrics(
    trace: SimTrace,
    threshold: float,
    signal: str = "x0",
    observer: tuple[str, str] | None = ("f_true", "f_hat"),
) -> TraceMetrics:
    """Steady-state, settling, overshoot, and observer statistics.

    Settling uses permanently-below semantics: the reported time is the first
    sample after the last exceedance (inf if the trace ends above threshold).
    ``observer`` names the (true, estimate) columns of the observed lumped
    term; the observer RMSE is NaN without them or without any estimate.
    """
    if len(trace) == 0:
        raise ConfigError("empty trace")
    x = trace[signal]
    t = trace.t
    w = _final_window(len(x))
    tail = x[-w:]
    sse_rms = float(np.sqrt(np.mean(tail * tail)))
    sse_max = float(np.max(np.abs(tail)))

    above = np.abs(x) > threshold
    if not above.any():
        settling = 0.0
    elif above[-1]:
        settling = math.inf
    else:
        settling = float(t[int(np.nonzero(above)[0][-1]) + 1])

    crossings = np.nonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)[0]
    overshoot = float(np.max(np.abs(x[crossings[0] + 1:]))) if len(crossings) else 0.0

    if observer and all(c in trace for c in observer) and not np.isnan(trace[observer[1]]).all():
        err = trace[observer[0]][-w:] - trace[observer[1]][-w:]
        observer_rmse = float(np.sqrt(np.mean(err * err)))
    else:
        observer_rmse = math.nan
    return TraceMetrics(sse_rms, sse_max, settling, overshoot, observer_rmse)


def check_bound(trace: SimTrace, omega: float, n: int) -> BoundReport:
    """Empirical ultimate-bound check of ``x0`` on an uncompensated chain run.

    The trace must come from state feedback alone (no observer), so that
    x^(n) = -sum C(n,i) omega^i x^(n-i) + f. A tail shorter than ten
    homogeneous time constants, a one-row trace's too, is WindowTooShortError.
    """
    w = _final_window(len(trace))
    t = trace.t
    tail_span = float(t[-1] - t[len(t) - w])
    if tail_span < 10.0 / omega:
        raise WindowTooShortError(
            f"trace tail spans {tail_span:g} s, need >= {10.0 / omega:g} s (10 time constants)"
        )
    f_bar = float(np.max(np.abs(trace["f_true"][-w:])))
    bound = ultimate_bound(f_bar, omega, n)
    measured = float(np.max(np.abs(trace["x0"][-w:])))
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


def table_line(row: Sequence) -> str:
    """The CSV line of a table's row: each field through :func:`_fmt`."""
    return ",".join(map(_fmt, row)) + "\n"


def _metrics_fields(row: MetricsRow) -> tuple:
    m, b = row.metrics, row.bound
    metrics = ((m.sse_rms, m.sse_max, m.settling_time, m.overshoot, m.observer_rmse)
               if m else (None,) * 5)
    bound = (b.theoretical_bound, b.measured_limsup, b.satisfied) if b else (None,) * 3
    return (row.scenario_id, row.omega, row.omega_f, row.sigma, *metrics, *bound, row.status)


def write_metrics_csv(path, rows: Sequence[MetricsRow]) -> None:
    write_csv(path, METRICS_COLUMNS, map(_metrics_fields, rows), table_line)
