"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.analysis import check_bound, trace_metrics
from lumped_pid.cli import main as cli_main
from lumped_pid.controller import (
    ClassicPidController,
    GeneralizedController,
    closed_loop_tf,
    reduce_to_pid,
    synthesize_gains,
)
from lumped_pid.polylti import Polynomial, RationalTransferFunction, binomial_poly, dc_gain, evaluate_at, poly_mul
from lumped_pid import so3
from lumped_pid.plants.vtol import _inertia, advance_rigid_body
from lumped_pid.quadrature import RECTANGULAR, TRAPEZOIDAL
from lumped_pid.signals import Constant, NoiseSpec, Sinusoid, Step
from lumped_pid.sim import Scenario, run_scenario, summary


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{label}] FAIL ({time.perf_counter() - start:.1f} s)")
                raise
            print(f"[{label}] PASS ({time.perf_counter() - start:.1f} s)")
        return wrapper
    return deco


def chain_scenario(**overrides):
    base = dict(
        plant_kind="chain",
        plant={"order": 2, "b": 1.0},
        controller={"kind": "generalized", "omega": 2.0, "omega_f": 10.0},
        disturbance=Constant(0.0),
        dt=1e-3,
        duration=5.0,
        seed=0,
    )
    base.update(overrides)
    return Scenario(**base)


@criterion("criterion 1: PI/PID equivalence")
def test_pi_pid_equivalence():
    # 100 randomized configs, 1e4-step random measurement sequences, both
    # orders and both quadrature rules; the reduced generalized form must
    # match the classic stepping to 1e-9 at every step within 5 s.
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = 1 if trial < 50 else 2
        b = float(rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0]))
        omega = float(rng.uniform(0.2, 8.0))
        omega_f = float(rng.uniform(0.5, 40.0))
        dt = float(10.0 ** rng.uniform(-4.0, -2.0))
        rule = RECTANGULAR if trial % 2 == 0 else TRAPEZOIDAL
        gen = GeneralizedController(synthesize_gains(n, omega), omega_f, b, dt, rule=rule,
                                    observer_form="pid")
        gains = reduce_to_pid(n, omega, omega_f)
        pid = ClassicPidController(gains.kp, gains.ki, gains.kd, b, dt, rule=rule)
        for z in rng.uniform(-2.0, 2.0, size=(10_000, n)).tolist():
            diff = abs(gen.step(z) - pid.step(z))
            if diff > worst:
                worst = diff
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max per-step difference {worst:.3e}"
    if sys.gettrace() is None:  # a line tracer times itself, not the program
        assert elapsed < 5.0, f"took {elapsed:.1f} s"


@criterion("criterion 2: gain formulas vs closed-loop denominator")
def test_gain_formula_structural_identity():
    gains = reduce_to_pid(2, 2.0, 10.0)
    assert (gains.kd, gains.kp, gains.ki) == (14.0, 44.0, 40.0)
    den = poly_mul(binomial_poly(2.0, 2), Polynomial((10.0, 1.0)))
    assert den.coeffs == (40.0, 44.0, 14.0, 1.0)
    assert den.coeffs[:3] == (gains.ki, gains.kp, gains.kd)


@criterion("criterion 1b: the closed-loop PI is the decomposition (n = 1)")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([RECTANGULAR, TRAPEZOIDAL]), st.floats(0.2, 8.0), st.floats(0.5, 40.0),
       st.floats(0.2, 5.0) | st.floats(-5.0, -0.2), st.floats(-2.0, 2.0),
       st.floats(1e-4, 2e-3), st.integers(100, 1000), st.sampled_from([0.0, 0.01]))
def test_pi_is_the_decomposition_on_a_closed_loop(rule, omega, omega_f, b, x0, dt, steps, sigma):
    # the classic PI and the integral form, each closing the loop on the same
    # noisy measurements, give the same u up to rounding
    def control(kind):
        return run_scenario(chain_scenario(
            plant={"order": 1, "b": b, "x0": (x0,)},
            controller={"kind": kind, "omega": omega, "omega_f": omega_f, "quadrature": rule},
            disturbance=Sinusoid(1.0, 3.0), noise=(sigma,), dt=dt, duration=steps * dt))["u"]

    classic, generalized = control("pid"), control("generalized")
    gap = float(np.max(np.abs(classic - generalized)))
    assert gap <= 1e-12 * float(np.max(np.abs(generalized))), f"max|du| {gap:.3e}"


@criterion("criterion 2 (n = 1): the PI closes the loop on (s+omega)(s+omega_f)")
def test_pi_gains_and_step_response():
    gains = reduce_to_pid(1, 2.0, 10.0)
    den = closed_loop_tf(1, 2.0, 10.0).denominator
    assert den.coeffs == (20.0, 12.0, 1.0)
    assert den.coeffs[:2] == (gains.ki, gains.kp)
    # a unit step disturbance: x = (e^-2t - e^-10t) / 8, which G(s) = s/((s+2)(s+10))
    # gives, peaks at 0.067 and never changes sign
    trace = run_scenario(chain_scenario(
        plant={"order": 1, "b": 1.0},
        controller={"kind": "pid", "omega": 2.0, "omega_f": 10.0},
        disturbance=Step(1.0, t_start=0.0)))
    x, t = trace["x0"], trace.t
    gap = float(np.max(np.abs(x - (np.exp(-2.0 * t) - np.exp(-10.0 * t)) / 8.0)))
    assert gap <= 5e-4, f"max deviation from G(s)'s step response {gap:.3e}"
    assert float(np.min(x)) >= 0.0, f"x0 goes negative: {float(np.min(x)):.3e}"


@criterion("criterion 3: ultimate bound on the homogeneous system")
def test_ultimate_bound_grid():
    start = time.perf_counter()
    for n in (1, 2, 3):
        for omega in (1.0, 2.0, 5.0):
            for name, signal in (("const", Constant(1.0)), ("sin", Sinusoid(1.0, 1.0))):
                scenario = chain_scenario(
                    plant={"order": n, "b": 1.0},
                    controller={"kind": "homogeneous", "omega": omega, "omega_f": 1.0},
                    disturbance=signal,
                    dt=5e-3,
                    duration=60.0,
                )
                report = check_bound(summary(run_scenario(scenario), scenario), omega, n)
                label = f"n={n} omega={omega} f={name}"
                assert report.satisfied, (
                    f"{label}: limsup {report.measured_limsup:.4g} > "
                    f"bound {report.theoretical_bound:.4g} * 1.05"
                )
                if name == "sin":
                    lowpass = RationalTransferFunction(
                        Polynomial((1.0,)), binomial_poly(omega, n))
                    expected = abs(evaluate_at(lowpass, 1j * 1.0))
                    assert report.measured_limsup == pytest.approx(expected, rel=0.02), label
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"took {elapsed:.1f} s"


@criterion("criterion 4: observer decay rate and RMSE vs bandwidth")
def test_observer_bandwidth():
    rmses = []
    for omega_f in (5.0, 10.0, 20.0):
        dt = 1e-4 * (10.0 / omega_f)
        scenario = chain_scenario(
            plant={"order": 1, "b": 1.0},
            controller={"kind": "generalized", "omega": 2.0, "omega_f": omega_f},
            disturbance=Step(1.0, t_start=0.0),
            dt=dt,
            duration=1.5,
        )
        trace = run_scenario(scenario)
        err = trace["f_true"] - trace["f_hat"]
        fit = trace.t <= 3.0 / omega_f
        slope = np.polyfit(trace.t[fit], np.log(np.abs(err[fit])), 1)[0]
        assert abs(slope + omega_f) / omega_f < 0.02, (
            f"omega_f={omega_f}: fitted decay {slope:.4g} vs {-omega_f}"
        )
        rmses.append(float(np.sqrt(np.mean(err * err))))
    assert rmses[0] > rmses[1] > rmses[2], f"observer RMSE not decreasing: {rmses}"


@criterion("criterion 5: constant-disturbance rejection")
def test_constant_disturbance_rejection():
    for n in (1, 2):
        assert dc_gain(closed_loop_tf(n, 2.0, 10.0)) == 0.0
        scenario = chain_scenario(
            plant={"order": n, "b": 1.0},
            controller={"kind": "generalized", "omega": 2.0, "omega_f": 10.0},
            disturbance=Constant(1.0),
            duration=30.0 / 2.0,  # 30 homogeneous time constants
        )
        trace = run_scenario(scenario)
        x = np.abs(trace["x0"])
        peak = float(np.max(x))
        window = trace.t >= 0.8 * trace.t[-1]  # starts well past 10/omega
        assert float(trace.t[window][0]) >= 10.0 / 2.0
        steady = float(np.max(x[window]))
        assert steady < 1e-6 * peak, f"n={n}: steady {steady:.3g} vs peak {peak:.3g}"


@criterion("criterion 6: noise throughput grows with observer bandwidth")
def test_noise_monotonicity():
    def control_rms(omega_f):
        scenario = chain_scenario(
            controller={"kind": "generalized", "omega": 2.0, "omega_f": omega_f},
            noise=NoiseSpec(sigmas=(0.0, 0.01)),  # top-derivative channel only
            duration=5.0,
            seed=42,
        )
        trace = run_scenario(scenario)
        u = trace["u"]
        return float(np.sqrt(np.mean(u * u)))

    ratio = control_rms(40.0) / control_rms(10.0)
    assert 3.0 <= ratio <= 5.0, f"control-noise RMS ratio {ratio:.3f} outside [3, 5]"


@criterion("criterion 7: VTOL hover equilibrium and wind rejection")
def test_vtol_hover_and_wind():
    m, g, J9 = 1.0, 9.81, _inertia(np.diag([0.02, 0.02, 0.04]), "plant.inertia")
    # one step from rest (p = v = omega = 0, R = I) at thrust m g, with zero
    # torque and disturbance, leaves the state where it was
    zero, R9 = (0.0, 0.0, 0.0), so3.IDENTITY9
    rest = (zero, zero, R9, zero)
    still = (zero,) * 3
    stepped = advance_rigid_body(*rest, m * g, zero, 1e-3, m, g, J9, so3.inv3(J9), still, still)
    residual = math.sqrt(sum((x - y) ** 2 for a, b in zip(stepped, rest) for x, y in zip(a, b)))
    assert residual < 1e-12, f"hover step residual {residual:.3e}"

    start = time.perf_counter()
    omega = 2.0
    scenario = Scenario(
        plant_kind="vtol",
        plant={"mass": 1.0, "gravity": 9.81, "inertia": (0.02, 0.02, 0.04),
               "reference": {"kind": "hover", "position": (0.0, 0.0, 0.0)}},
        controller={"omega": omega, "omega_f": 8.0, "omega_att": 10.0, "omega_tau": 20.0},
        disturbance={"force": (Constant(0.5), Constant(0.0), Constant(0.0))},
        dt=1e-3,
        duration=60.0,
        seed=0,
    )
    trace = run_scenario(scenario)
    elapsed = time.perf_counter() - start
    err = trace["err_norm"]
    peak = float(np.max(err))
    after = trace.t >= 10.0 / omega
    assert float(np.max(err[after])) < 0.01 * peak, "wind transient not rejected"
    assert float(np.max(trace["ortho_err"])) <= 1e-9, "rotation left SO(3)"
    if sys.gettrace() is None:  # a line tracer times itself, not the program
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


@criterion("criterion 8: vehicle lateral control")
def test_vehicle_lateral():
    start = time.perf_counter()
    L, v, bias = 2.7, 10.0, math.radians(2.0)
    omega = 0.5
    k0, k1 = omega * omega, 2.0 * omega

    # (a) feedback-linearization identity per recorded step (known-d law)
    scenario = Scenario(
        plant_kind="vehicle",
        plant={"wheelbase": L, "speed": v, "x0": (0.0, -1.0, 0.0),
               "path": {"kind": "line", "length": 200.0}},
        controller={"kind": "known_d", "omega": omega},
        disturbance=Constant(bias),
        dt=1e-3,
        duration=8.0,
        seed=0,
    )
    trace = run_scenario(scenario)
    cos_e = np.cos(trace["e_theta"])
    lpp = cos_e * (0.0 - np.tan(trace["delta"] + trace["d_true"]) / L)  # kappa_d = 0
    target = -k0 * trace["l"] - k1 * np.sin(trace["e_theta"])
    assert float(np.max(np.abs(lpp - target))) <= 1e-6, "linearization identity broken"

    # (b) unknown bias rejected on a straight path and on a 50 m circle
    straight = Scenario(
        plant_kind="vehicle",
        plant={"wheelbase": L, "speed": v, "path": {"kind": "line", "length": 200.0}},
        controller={"kind": "observer", "omega": omega, "omega_d": 2.0},
        disturbance=Constant(bias),
        dt=1e-3,
        duration=8.0,
        seed=0,
    )
    tr_s = run_scenario(straight)
    tail = tr_s.t >= 6.0
    assert float(np.max(np.abs(tr_s["l"][tail]))) < 1e-3, "straight: lateral error tail"
    analytic_straight = -math.tan(bias) / L
    assert tr_s["d_hat"][-1] == pytest.approx(analytic_straight, rel=0.05)

    kappa = 1.0 / 50.0
    circle = Scenario(
        plant_kind="vehicle",
        plant={"wheelbase": L, "speed": v,
               "path": {"kind": "circle", "radius": 50.0, "arc": 300.0}},
        controller={"kind": "observer", "omega": omega, "omega_d": 2.0},
        disturbance=Constant(bias),
        dt=1e-3,
        duration=15.0,
        seed=0,
    )
    tr_c = run_scenario(circle)
    tail_c = tr_c.t >= 12.0
    assert float(np.max(np.abs(tr_c["l"][tail_c]))) < 1e-3, "circle: lateral error tail"
    delta_ss = math.atan(L * kappa) - bias
    analytic_circle = kappa - math.tan(bias) * (1.0 + math.tan(delta_ss) ** 2) / (
        L * (1.0 - math.tan(delta_ss) * math.tan(bias)))
    assert tr_c["d_hat"][-1] == pytest.approx(analytic_circle, rel=0.05)

    # (c) finite-difference consistency of l' with sin(e_theta)
    ds = v * straight.dt
    dl = np.diff(tr_s["l"]) / ds
    mid = 0.5 * (np.sin(tr_s["e_theta"][1:]) + np.sin(tr_s["e_theta"][:-1]))
    rel = np.abs(dl - mid) / np.maximum(np.abs(mid), 1e-3)
    assert float(np.max(rel)) < 1e-3, "l' finite difference vs sin(e_theta)"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


@criterion("criterion 9: byte-level determinism")
def test_determinism(tmp_path):
    # identical seeds reproduce CSV bytes exactly, for every plant kind
    noisy = dict(
        controller={"kind": "generalized", "omega": 2.0, "omega_f": 10.0},
        noise=NoiseSpec(sigmas=(0.01, 0.01)),
        disturbance=Sinusoid(1.0, 3.0),
        duration=2.0,
        seed=1234,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(chain_scenario(**noisy)).to_csv(a)
    run_scenario(chain_scenario(**noisy)).to_csv(b)
    assert a.read_bytes() == b.read_bytes(), "chain rerun differs"

    vehicle = dict(
        plant_kind="vehicle",
        plant={"wheelbase": 2.7, "speed": 10.0, "path": {"kind": "circle", "radius": 50.0, "arc": 200.0}},
        controller={"kind": "observer", "omega": 0.5, "omega_d": 2.0},
        disturbance=Constant(math.radians(2.0)),
        dt=1e-3,
        duration=3.0,
        seed=7,
    )
    va, vb = tmp_path / "va.csv", tmp_path / "vb.csv"
    run_scenario(Scenario(**vehicle)).to_csv(va)
    run_scenario(Scenario(**vehicle)).to_csv(vb)
    assert va.read_bytes() == vb.read_bytes(), "vehicle rerun differs"

    vtol = dict(
        plant_kind="vtol",
        plant={"mass": 1.0, "gravity": 9.81, "inertia": (0.02, 0.02, 0.04),
               "reference": {"kind": "hover", "position": (0.0, 0.0, 0.0)}},
        controller={"omega": 2.0, "omega_f": 8.0, "omega_att": 10.0, "omega_tau": 20.0},
        disturbance={"force": (Constant(0.5), Constant(0.0), Constant(0.0))},
        noise=NoiseSpec(sigmas=(0.001,)),
        dt=1e-3,
        duration=1.5,
        seed=99,
    )
    ra, rb = tmp_path / "ra.csv", tmp_path / "rb.csv"
    run_scenario(Scenario(**vtol)).to_csv(ra)
    run_scenario(Scenario(**vtol)).to_csv(rb)
    assert ra.read_bytes() == rb.read_bytes(), "vtol rerun differs"

    # sweep output bytes are independent of parallelism
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "plant.kind = chain\nplant.order = 2\nplant.b = 1.0\n"
        "controller.kind = generalized\ncontroller.omega = 2.0\n"
        "controller.omega_f = 10.0\ndisturbance.kind = constant\n"
        "disturbance.value = 1.0\nnoise.sigma = 0.005\n"
        "sim.dt = 0.001\nsim.duration = 1.0\nsim.seed = 42\n"
    )
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    grid = ["--grid", "omega=1,2", "omega_f=10,20"]
    assert cli_main(["sweep", "--config", str(conf), "--out", str(serial)] + grid) == 0
    assert cli_main(["sweep", "--config", str(conf), "--out", str(parallel),
                     "--parallel", "4"] + grid) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


@criterion("supplement: metrics sweep sanity")
def test_metrics_sweep_sanity():
    # settling time shrinks as the state-feedback bandwidth grows
    settlings = []
    for omega in (1.0, 2.0, 5.0):
        scenario = chain_scenario(
            controller={"kind": "generalized", "omega": omega, "omega_f": 20.0},
            disturbance=Constant(1.0),
            duration=30.0 / omega,
            threshold=0.005,
        )
        m = trace_metrics(summary(run_scenario(scenario), scenario))
        settlings.append(m.settling_time)
    assert settlings[0] > settlings[1] > settlings[2], settlings
