import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumped_pid.analysis import (
    MetricsReduction,
    MetricsRow,
    check_bound,
    default_grid,
    summarise,
    trace_metrics,
    ultimate_bound,
    write_metrics_csv,
)
from lumped_pid.controller import closed_loop_tf, observer_tfs
from lumped_pid.errors import ConfigError, PoleHitError, WindowTooShortError
from lumped_pid.polylti import frequency_response
from lumped_pid.signals import Constant, Sinusoid
from lumped_pid.sim import Scenario, SimTrace, run_scenario, summary


def synthetic_trace(t, x, f_true=None, f_hat=None):
    cols = {"t": np.asarray(t, float), "x0": np.asarray(x, float)}
    if f_true is not None:
        cols["f_true"] = np.asarray(f_true, float)
        cols["f_hat"] = np.asarray(f_hat, float)
    return SimTrace(cols)


def synthetic_summary(t, x, threshold, f_true=None, f_hat=None):
    """The summary of a synthetic x0 trace at ``threshold``, with its
    (f_true, f_hat) columns if given."""
    trace = synthetic_trace(t, x, f_true, f_hat)
    return summarise(trace, threshold, "x0", () if f_true is None else ("f_true", "f_hat"))


def run_summary(scenario):
    """The summary of ``scenario`` run alone, as ``simulate`` reads it."""
    return summary(run_scenario(scenario), scenario)


def homogeneous_scenario(n, omega, disturbance, duration=60.0, dt=5e-3, threshold=None):
    return Scenario(
        plant_kind="chain",
        plant={"order": n, "b": 1.0},
        controller={"kind": "homogeneous", "omega": omega, "omega_f": 1.0},
        disturbance=disturbance,
        dt=dt,
        duration=duration,
        seed=0,
        threshold=threshold,
    )


class TestUltimateBound:
    def test_zero_disturbance(self):
        assert ultimate_bound(0.0, 3.0, 2) == 0.0

    def test_values(self):
        assert ultimate_bound(1.0, 5.0, 2) == pytest.approx(0.04)
        assert ultimate_bound(2.0, 2.0, 3) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ultimate_bound(-1.0, 2.0, 1)
        with pytest.raises(ConfigError):
            ultimate_bound(1.0, 0.0, 1)


class TestTraceMetrics:
    def test_zero_trace(self):
        t = np.arange(100) * 0.01
        m = trace_metrics(synthetic_summary(t, np.zeros(100), threshold=0.02))
        assert m.sse_rms == 0.0 and m.sse_max == 0.0
        assert m.settling_time == 0.0
        assert m.overshoot == 0.0
        assert math.isnan(m.observer_rmse)

    def test_exponential_settling(self):
        dt = 1e-3
        t = np.arange(0, 5.0, dt)
        x = np.exp(-2.0 * t)
        m = trace_metrics(synthetic_summary(t, x, threshold=0.02))
        assert abs(m.settling_time - math.log(50.0) / 2.0) <= dt + 1e-12

    def test_never_settles(self):
        t = np.arange(100) * 0.01
        m = trace_metrics(synthetic_summary(t, np.ones(100), threshold=0.5))
        assert m.settling_time == math.inf

    def test_overshoot_after_first_crossing(self):
        dt = 1e-4
        t = np.arange(0, 3.0, dt)
        x = np.exp(-t) * np.cos(5.0 * t)
        m = trace_metrics(synthetic_summary(t, x, threshold=0.01))
        # first peak after the zero crossing at 5t = pi/2
        peak_t = (math.pi - math.atan(1.0 / 5.0)) / 5.0
        expected = abs(math.exp(-peak_t) * math.cos(5.0 * peak_t))
        assert m.overshoot == pytest.approx(expected, rel=1e-3)

    def test_observer_rmse_over_window(self):
        t = np.arange(100) * 0.01
        f_true = np.ones(100)
        f_hat = np.ones(100) * 0.9
        m = trace_metrics(synthetic_summary(t, np.zeros(100), 0.01, f_true, f_hat))
        assert m.observer_rmse == pytest.approx(0.1, rel=1e-12)

    def test_observer_rmse_named_columns(self):
        # the vehicle's observer tracks d_lump; d_true is a different signal
        t = np.arange(100) * 0.01
        trace = SimTrace({"t": t, "l": np.zeros(100), "d_true": np.full(100, 0.5),
                          "d_lump": np.full(100, 0.2), "d_hat": np.full(100, 0.25)})
        observed = summarise(trace, 0.01, "l", ("d_lump", "d_hat"))
        m = trace_metrics(observed, observer=("d_lump", "d_hat"))
        assert m.observer_rmse == pytest.approx(0.05, rel=1e-12)
        assert math.isnan(trace_metrics(observed).observer_rmse)
        assert math.isnan(trace_metrics(observed, observer=None).observer_rmse)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigError):
            trace_metrics(summarise(SimTrace({"t": np.array([]), "x0": np.array([])}), 0.01,
                                    "x0", ()))


    def test_overshoot_counts_the_crossing_row(self):
        t = np.arange(4) * 0.1
        m = trace_metrics(synthetic_summary(t, [1.0, -5.0, -1.0, -0.5], threshold=0.02))
        assert m.overshoot == 5.0


def settling_and_overshoot(t, x, threshold):
    """Settling time and overshoot of one signal, computed over the whole
    trace at once: what trace_metrics computed before its reduction."""
    above = np.abs(x) > threshold
    if not above.any():
        settling = 0.0
    elif above[-1]:
        settling = math.inf
    else:
        settling = float(t[int(np.nonzero(above)[0][-1]) + 1])
    crossings = np.nonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)[0]
    overshoot = float(np.max(np.abs(x[crossings[0] + 1:]))) if len(crossings) else 0.0
    return settling, overshoot


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 60), st.integers(1, 3), st.integers(1, 70))
def test_reduction_of_any_chunking_is_the_whole_trace_computation(data, rows, lanes, chunk):
    # values near the thresholds, signed zeros and NaN estimates included
    value = st.sampled_from([0.0, -0.0, 0.02, -0.02, 0.5, -0.5]) | st.floats(-3.0, 3.0)
    x = np.array(data.draw(st.lists(st.lists(value, min_size=lanes, max_size=lanes),
                                    min_size=rows, max_size=rows)))
    f_hat = np.where(np.array(data.draw(st.lists(st.booleans(), min_size=lanes, max_size=lanes))),
                     np.nan, x * 0.5)
    thresholds = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.02, 0.5, 1.0]),
                                             min_size=lanes, max_size=lanes)))
    t = np.arange(rows) * 0.1
    f_true = np.cos(t)  # one column shared by every lane
    reduction = MetricsReduction(("t", "x0", "f_true", "f_hat"), rows, thresholds, lanes)
    for k in range(0, rows, chunk):
        reduction.feed([t[k:k + chunk], x[k:k + chunk], f_true[k:k + chunk], f_hat[k:k + chunk]])
    w = math.ceil(0.2 * rows)
    for j, summary in enumerate(reduction.summaries()):
        assert summary.rows == rows
        settling, overshoot = settling_and_overshoot(t, x[:, j], thresholds[j])
        assert (summary.settling_time, summary.overshoot) == (settling, overshoot)
        for name, column in (("t", t), ("x0", x[:, j]), ("f_true", f_true), ("f_hat", f_hat[:, j])):
            assert summary.tail[name].tobytes() == column[-w:].tobytes(), name


class TestCheckBound:
    def test_constant_disturbance_first_order(self):
        # steady x = 1/omega exactly (DC gain of 1/(s+omega))
        report = check_bound(run_summary(homogeneous_scenario(1, 2.0, Constant(1.0), duration=60.0)),
                             2.0, 1)
        assert report.satisfied
        assert report.f_bar == pytest.approx(1.0, rel=1e-12)
        assert report.measured_limsup == pytest.approx(0.5, rel=1e-9)

    def test_zero_disturbance_settles_to_tiny(self):
        scenario = homogeneous_scenario(2, 2.0, Constant(0.0), duration=30.0)
        scenario.plant["x0"] = [1.0, 0.0]
        report = check_bound(run_summary(scenario), 2.0, 2)
        assert report.satisfied
        assert report.measured_limsup < 1e-8

    def test_sinusoid_matches_frequency_response(self):
        # tail amplitude ~ |1/(j nu + omega)^2| which the 1/omega^n bound dominates
        omega, nu = 5.0, 1.0
        report = check_bound(run_summary(homogeneous_scenario(2, omega, Sinusoid(1.0, nu),
                                                              duration=60.0)), omega, 2)
        assert report.satisfied
        expected_amp = abs(1.0 / (1j * nu + omega) ** 2)
        assert report.measured_limsup == pytest.approx(expected_amp, rel=0.02)
        assert report.measured_limsup <= report.theoretical_bound

    def test_window_too_short(self):
        reduced = run_summary(homogeneous_scenario(1, 1.0, Constant(1.0), duration=10.0))
        with pytest.raises(WindowTooShortError):
            check_bound(reduced, 1.0, 1)


class TestBodeTable:
    def test_dc_and_bandwidth_points(self):
        g_o, g_e = observer_tfs(10.0)
        rows = frequency_response(g_o, [0.001, 10.0, 1e5])
        assert rows[0].magnitude == pytest.approx(1.0, abs=1e-6)
        assert rows[1].magnitude == pytest.approx(1 / math.sqrt(2), rel=1e-9)
        rows_e = frequency_response(g_e, [10.0])
        assert rows_e[0].magnitude == pytest.approx(1 / math.sqrt(2), rel=1e-9)

    def test_default_grid_bounds(self):
        grid = default_grid(2.0, 10.0)
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(1000.0)

    def test_closed_loop_low_frequency_slope(self):
        # +20 dB/decade below the first pole (the zero at the origin)
        from lumped_pid.controller import closed_loop_tf

        tf = closed_loop_tf(2, 2.0, 10.0)
        rows = frequency_response(tf, [1e-4, 1e-3, 1e-2])
        slope1 = 20.0 * math.log10(rows[1].magnitude / rows[0].magnitude)
        slope2 = 20.0 * math.log10(rows[2].magnitude / rows[1].magnitude)
        assert slope1 == pytest.approx(20.0, abs=0.1)
        assert slope2 == pytest.approx(20.0, abs=0.1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
@example(2, 150.0, 10.0)  # ki = omega_f omega^2 overflows
@example(2, 150.0, 0.0)  # Horner's powers of s overflow along the grid
@example(1, 200.0, 200.0)
@example(2, 0.0, 103.0)  # |den| overflows with both parts finite
@example(2, 0.0, 2.0)
def test_closed_loop_bode_rows_are_finite_or_raise(n, log_omega, log_omega_f):
    # bandwidths log-uniform over the floats: the closed loop or its table
    # past the float range is an error, never an inf or NaN row
    omega, omega_f = 10.0 ** log_omega, 10.0 ** log_omega_f
    try:
        rows = frequency_response(
            closed_loop_tf(n, omega, omega_f),
            default_grid(omega, omega_f))
    except (ConfigError, PoleHitError):
        return
    assert all(math.isfinite(r.magnitude) and math.isfinite(r.phase) for r in rows)


class TestMetricsCsv:
    def test_round_trip_shape(self, tmp_path):
        reduced = run_summary(homogeneous_scenario(1, 2.0, Constant(1.0), duration=60.0,
                                                   threshold=0.02))
        m = trace_metrics(reduced)
        b = check_bound(reduced, 2.0, 1)
        rows = [
            MetricsRow("cell0", 2.0, 10.0, 0.0, m, b),
            MetricsRow("cell1", 2.0, 20.0, 0.0, None, None, status="diverged"),
        ]
        out = tmp_path / "metrics.csv"
        write_metrics_csv(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scenario_id,omega,omega_f,sigma,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "cell0"
        assert lines[1].split(",")[-1] == "ok"
        assert lines[2].split(",")[4] == ""  # no metrics for the failed cell
        assert lines[2].split(",")[-1] == "diverged"


class TestObserverRmseSweep:
    def test_final_window_rmse_decreases_with_bandwidth(self):
        # same seed, step disturbance: the residual estimate error in the
        # final window shrinks as the observer bandwidth grows
        rmses = []
        for omega_f in (5.0, 10.0, 20.0):
            scenario = Scenario(
                plant_kind="chain",
                plant={"order": 1, "b": 1.0},
                controller={"kind": "generalized", "omega": 2.0, "omega_f": omega_f},
                disturbance=Constant(1.0),
                dt=1e-3 / omega_f,
                duration=1.5,
                seed=3,
                threshold=0.02,
            )
            m = trace_metrics(run_summary(scenario))
            rmses.append(m.observer_rmse)
        assert rmses[0] > rmses[1] > rmses[2]
