import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.controller import OBSERVER_FORMS
from lumped_pid.errors import ConfigError, DivergedError
from lumped_pid.plants import chain
from lumped_pid.plants.chain import IntegratorChain
from lumped_pid import signals
from lumped_pid.quadrature import RULES
from lumped_pid.signals import (Constant, NoiseSpec, Sinusoid, Step, Sum, gaussian_noise,
                                noise_channel, noise_table)
from lumped_pid.sim import Scenario, SimTrace, rk4_step, run_scenario


class Decay(IntegratorChain):
    """xdot = -x as a chain with state feedback folded into the disturbance."""

    def __init__(self):
        super().__init__(n=1, b=1.0, state_coeffs=(-1.0,))


def make_scenario(**overrides):
    base = dict(
        plant_kind="chain",
        plant={"order": 2, "b": 1.0},
        controller={"kind": "generalized", "omega": 2.0, "omega_f": 10.0},
        disturbance=Constant(1.0),
        noise=NoiseSpec(),
        dt=1e-3,
        duration=5.0,
        seed=42,
    )
    base.update(overrides)
    return Scenario(**base)


class TestRk4Step:
    def test_zero_derivative_leaves_state(self):
        plant = IntegratorChain(1, 1.0)
        out = rk4_step(plant, [3.25], 0.0, Constant(0.0), 0.0, 0.1)
        assert out == [3.25]

    def test_exponential_decay_accuracy(self):
        plant = Decay()
        out = rk4_step(plant, [1.0], 0.0, Constant(0.0), 0.0, 0.1)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7

    def test_harmonic_oscillator_energy_drift(self):
        omega = 2.0
        plant = IntegratorChain(2, 1.0, state_coeffs=(-omega * omega, 0.0))
        period = 2 * math.pi / omega
        dt = period / 1000
        state = [1.0, 0.0]
        t = 0.0
        for k in range(1000):
            state = rk4_step(plant, state, 0.0, Constant(0.0), k * dt, dt)
        e0 = 0.5 * omega * omega * 1.0
        e1 = 0.5 * (omega * omega * state[0] ** 2 + state[1] ** 2)
        assert abs(e1 - e0) / e0 < 1e-8

    def test_global_error_is_fourth_order(self):
        # halving dt twice must shrink the error by about 16x each time
        plant = Decay()

        def global_error(dt):
            state = [1.0]
            steps = int(round(1.0 / dt))
            for k in range(steps):
                state = rk4_step(plant, state, 0.0, Constant(0.0), k * dt, dt)
            return abs(state[0] - math.exp(-1.0))

        e1, e2, e3 = global_error(0.02), global_error(0.01), global_error(0.005)
        assert 12.0 < e1 / e2 < 20.0
        assert 12.0 < e2 / e3 < 20.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            rk4_step(IntegratorChain(1, 1.0), [0.0], 0.0, Constant(0.0), 0.0, 0.0)

    def test_nonfinite_state_is_returned_and_caught_at_the_next_step(self):
        # rk4_step does not guard its result; check_state, at the top of the
        # next step, is the run's one divergence guard
        plant = IntegratorChain(1, 1.0)
        out = rk4_step(plant, [0.0], 0.0, Constant(1e308), 0.0, 1.0)
        assert not math.isfinite(out[0])
        # a chain run steps by its RK4 map, which folds the sum k1 + 2 (k2 +
        # k3) + k4 that overflows above into one weight per stage time: the
        # state reaches 1e308 itself, finite but past the runaway bound
        overflow = make_scenario(plant={"order": 1, "b": 1.0}, controller={"kind": "none"},
                                 disturbance=Constant(1e308), dt=1.0, duration=3.0)
        with pytest.raises(DivergedError) as info:
            run_scenario(overflow)
        assert info.value.step == 1 and info.value.t == 1.0
        assert str(info.value) == "diverged: |state| exceeded 1e+12 at t=1"

    def test_a_chain_step_that_overflows_is_caught_at_the_next_step(self):
        # at dt = 2 the map's own result, 2e308, overflows to inf
        overflow = make_scenario(plant={"order": 1, "b": 1.0}, controller={"kind": "none"},
                                 disturbance=Constant(1e308), dt=2.0, duration=6.0)
        with pytest.raises(DivergedError) as info:
            run_scenario(overflow)
        assert info.value.step == 1 and info.value.t == 2.0
        assert str(info.value) == "non-finite state at t=2"


@st.composite
def chain_steps(draw):
    """A chain of order 1 to 3, a step size, a disturbance, a state and an
    input term: what one RK4 step of the chain reads."""
    order = draw(st.integers(1, 3))
    values = st.floats(-10.0, 10.0)
    plant = IntegratorChain(order, draw(st.sampled_from([1.0, -0.7, 2.5])),
                            draw(st.just(()) | st.lists(st.floats(-5.0, 5.0), min_size=order,
                                                        max_size=order)))
    disturbance = draw(st.sampled_from([Constant(1.0), Sinusoid(1.0, 3.0), Step(0.5, 0.02),
                                        Sum((Constant(-0.3), Sinusoid(2.0, 7.0)))]))
    state = draw(st.lists(values, min_size=order, max_size=order))
    return (plant, draw(st.sampled_from([1e-4, 1e-3, 0.01, 0.1])), disturbance,
            draw(st.floats(0.0, 1.0)), state, draw(values))


class TestRk4Map:
    """A chain run steps by its RK4 step as one affine map, which rk4_step
    builds; rk4_step, stage by stage, is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(chain_steps())
    def test_a_map_step_is_an_rk4_step(self, case):
        plant, dt, f0, t, state, bu = case
        expected = rk4_step(plant, state, bu, f0, t, dt)
        out = chain.rk4_map(plant, dt)(state, bu, (f0(t), f0(t + 0.5 * dt), f0(t + dt)))
        tol = 1e-12 * (1.0 + max(map(abs, state)))
        assert all(abs(a - b) <= tol for a, b in zip(out, expected)), (out, expected)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_a_run_calls_rk4_step_only_to_build_its_map(self, monkeypatch, order):
        calls = []

        def spy(*args):
            calls.append(args)
            return rk4_step(*args)

        monkeypatch.setattr(chain, "rk4_step", spy)
        scenario = make_scenario(plant={"order": order, "b": 1.0}, duration=0.1)
        run_scenario(scenario)
        assert len(calls) == order + 4
        chain.run([scenario] * 3)  # the lanes of one run share its map
        assert len(calls) == 2 * (order + 4)


class TestDisturbanceSignals:
    def test_variants(self):
        assert Constant(2.0)(17.3) == 2.0
        assert Step(3.0, t_start=1.0)(0.5) == 0.0
        assert Step(3.0, t_start=1.0)(1.0) == 3.0
        assert Sinusoid(2.0, 1.0)(math.pi / 2) == pytest.approx(2.0)
        s = Sum((Constant(1.0), Sinusoid(1.0, 1.0)))
        assert s(math.pi / 2) == pytest.approx(2.0)


class TestGaussianNoise:
    def test_zero_sigma_is_exactly_zero(self):
        spec = NoiseSpec(sigmas=(0.0,), seed=1)
        assert gaussian_noise(spec, 0, 123) == 0.0
        assert np.all(noise_channel(spec, 0, 100) == 0.0)

    def test_pinned_sample(self):
        # determinism contract for the pinned generator (Philox + inverse CDF)
        spec = NoiseSpec(sigmas=(1.0,), seed=42)
        assert gaussian_noise(spec, 0, 7) == -1.5361711008219219

    def test_single_sample_matches_vectorized_stream(self):
        spec = NoiseSpec(sigmas=(0.7, 1.3), seed=99)
        for channel in (0, 1):
            arr = noise_channel(spec, channel, 20)
            for k in (0, 1, 4, 7, 13, 19):
                assert gaussian_noise(spec, channel, k) == arr[k]

    def test_channel_addressing_is_order_independent(self):
        spec = NoiseSpec(sigmas=(1.0, 1.0), seed=5)
        later = gaussian_noise(spec, 1, 3)
        earlier = gaussian_noise(spec, 0, 3)
        assert gaussian_noise(spec, 1, 3) == later
        assert gaussian_noise(spec, 0, 3) == earlier

    def test_inverse_cdf_is_scipys_bit_for_bit_on_the_addressed_stream(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        n = 10**6
        for seed, channel in ((0, 0), (2**64 - 1, 5)):
            spec = NoiseSpec(sigmas=(1.0,), seed=seed)
            u = np.random.Generator(signals._stream(seed, channel)).random(n)
            expected = ndtri(np.maximum(u, signals._MIN_UNIFORM))
            assert np.array_equal(noise_channel(spec, channel, n).view(np.int64),
                                  expected.view(np.int64))

    def test_inverse_cdf_is_scipys_bit_for_bit_at_edges_and_branch_points(self):
        ndtri = pytest.importorskip("scipy.special").ndtri
        ys = [2.0**-54, 5e-324, 0.5, 1.0 - 2.0**-53]
        # the central/tail branch points, and y = exp(-32), where x = 8
        # switches the tail from P1/Q1 to P2/Q2
        for point in (math.exp(-2), 1.0 - math.exp(-2), math.exp(-32)):
            ys += [math.nextafter(point, 0.0), point, math.nextafter(point, 1.0)]
        ys = np.array(ys)
        assert np.array_equal(signals._ndtri(ys).view(np.int64), ndtri(ys).view(np.int64))

    def test_moments(self):
        big = noise_channel(NoiseSpec(sigmas=(1.0,), seed=123), 0, 10**6)
        assert abs(big.mean()) < 4.0 / math.sqrt(10**6)
        assert abs(big.std() - 1.0) < 0.01

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            NoiseSpec(sigmas=(-0.1,), seed=0)

    def test_table_is_one_float64_array_for_a_run_and_for_lanes(self):
        # a single spec is one lane: [samples, channels], 8 B per sample and channel
        specs = [NoiseSpec(sigmas=(0.3, 0.0, 1.1), seed=4), NoiseSpec(sigmas=(0.2,), seed=9)]
        lanes = noise_table(specs, 3, 6)
        assert lanes.shape == (6, 3, 2) and lanes.dtype == np.float64
        for j, spec in enumerate(specs):
            table = noise_table(spec, 3, 6)
            assert table.shape == (6, 3) and table.dtype == np.float64
            assert np.array_equal(table, lanes[:, :, j])
            assert table[5].tolist() == [gaussian_noise(spec, c, 5) for c in range(3)]


class TestRunScenario:
    def test_trace_columns_of_unequal_length_rejected(self):
        with pytest.raises(ConfigError, match="^trace columns must have equal length$"):
            SimTrace({"t": np.zeros(3), "x0": np.zeros(2)})

    def test_no_noise_deviation_rejected(self):
        with pytest.raises(ConfigError, match="^noise.sigma: need at least one value$"):
            make_scenario(noise=())

    def test_equilibrium_stays_zero(self):
        trace = run_scenario(make_scenario(disturbance=Constant(0.0), duration=1.0))
        for name in ("x0", "x1", "u", "f_hat"):
            assert np.all(trace[name] == 0.0)

    def test_constant_disturbance_rejection_and_force_balance(self):
        b = 2.0
        trace = run_scenario(
            make_scenario(plant={"order": 2, "b": b}, duration=12.0)
        )
        tail = trace.t >= 10.0
        assert np.max(np.abs(trace["x0"][tail])) < 1e-6
        assert trace["u"][-1] == pytest.approx(-1.0 / b, rel=1e-6)
        assert trace["f_hat"][-1] == pytest.approx(1.0, rel=1e-6)

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        scenario = make_scenario(noise=NoiseSpec(sigmas=(0.0, 0.01)), duration=1.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_scenario(scenario).to_csv(a)
        run_scenario(make_scenario(noise=NoiseSpec(sigmas=(0.0, 0.01)), duration=1.0)).to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_grid_integrity_with_decimation(self):
        scenario = make_scenario(duration=0.5, decimation=10)
        trace = run_scenario(scenario)
        expected = np.arange(len(trace)) * (scenario.dt * 10)
        assert np.array_equal(trace.t, expected)

    def test_a_recorded_value_takes_8_bytes(self):
        # a 35-column VTOL trace of R rows peaks within 2 R 35 8 B plus a fixed
        # slack: one preallocated float64 block, whose columns the trace views
        def vtol(duration):
            return Scenario(plant_kind="vtol", plant={}, controller={},
                            disturbance={"force": (Constant(0.5), Constant(0.0), Constant(0.0))},
                            dt=1e-3, duration=duration)

        run_scenario(vtol(0.01))  # imports and first-call caches stay out of the count
        tracemalloc.start()
        try:
            trace = run_scenario(vtol(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, columns = len(trace), len(trace.names)
        assert (rows, columns) == (2001, 35)
        assert peak < 2 * rows * columns * 8 + 100_000

    def test_divergence_reported(self):
        scenario = make_scenario(
            plant={"order": 1, "b": 1.0, "state_coeffs": (5.0,), "x0": [1.0]},
            controller={"kind": "none"},
            disturbance=Constant(0.0),
            duration=10.0,
            dt=1e-2,
        )
        with pytest.raises(DivergedError):
            run_scenario(scenario)

    def test_unknown_plant_kind(self):
        with pytest.raises(ConfigError):
            run_scenario(make_scenario(plant_kind="pendulum"))

    def test_trace_csv_header(self, tmp_path):
        trace = run_scenario(make_scenario(duration=0.01, dt=1e-3))
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,x0,x1,u,f_true,f_hat,z0,z1"

    def test_noise_enters_measurements_only(self):
        scenario = make_scenario(
            controller={"kind": "none"},
            disturbance=Constant(0.0),
            noise=NoiseSpec(sigmas=(0.1, 0.1)),
            duration=0.5,
        )
        trace = run_scenario(scenario)
        assert np.all(trace["x0"] == 0.0)
        assert np.any(trace["z0"] != 0.0)
        assert np.all(trace["z0"] == trace["z0"] - trace["x0"])

    def test_scenario_validation(self):
        with pytest.raises(ConfigError):
            make_scenario(dt=-1.0)
        with pytest.raises(ConfigError):
            make_scenario(duration=0.0)
        with pytest.raises(ConfigError):
            make_scenario(dt=2.0, duration=1.0)

    def test_pid_controller_kind_matches_generalized_tail(self):
        # both reject the constant disturbance; tails agree near zero
        gen = run_scenario(make_scenario(duration=12.0))
        pid = run_scenario(make_scenario(controller={"kind": "pid", "omega": 2.0, "omega_f": 10.0}, duration=12.0))
        assert np.max(np.abs(pid["x0"][pid.t >= 10.0])) < 1e-6
        assert pid["u"][-1] == pytest.approx(gen["u"][-1], abs=1e-6)

    def test_state_dependent_disturbance_recorded(self):
        scenario = make_scenario(
            plant={"order": 1, "b": 1.0, "state_coeffs": (0.3,), "x0": [2.0]},
            controller={"kind": "none"},
            disturbance=Constant(0.5),
            duration=0.01,
            dt=1e-2,
        )
        trace = run_scenario(scenario)
        assert trace["f_true"][0] == pytest.approx(0.5 + 0.3 * 2.0)


class TestNoiseInjectionScaling:
    def test_injected_term_rms_linear_in_observer_bandwidth(self):
        # identical seeded noise realizations: the omega_f * w_top term the
        # observer injects into the control scales exactly linearly, and the
        # full closed-loop control RMS grows monotonically with omega_f
        def run_with(omega_f):
            scenario = make_scenario(
                controller={"kind": "generalized", "omega": 2.0, "omega_f": omega_f},
                disturbance=Constant(0.0),
                noise=NoiseSpec(sigmas=(0.0, 0.01)),
                duration=2.0,
                seed=11,
            )
            return run_scenario(scenario)

        traces = {wf: run_with(wf) for wf in (10.0, 20.0, 40.0)}
        # every run drew the same addressed realization on the top channel
        stream = noise_channel(NoiseSpec(sigmas=(0.0, 0.01), seed=11), 1, len(traces[10.0]))
        for wf in (10.0, 20.0, 40.0):
            recovered = traces[wf]["z1"] - traces[wf]["x1"]
            assert np.allclose(recovered, stream, atol=1e-12)

        def injected_rms(wf):
            return float(np.sqrt(np.mean((wf * stream) ** 2)))

        r10, r20, r40 = (injected_rms(wf) for wf in (10.0, 20.0, 40.0))
        assert r20 / r10 == pytest.approx(2.0, rel=1e-12)
        assert r40 / r10 == pytest.approx(4.0, rel=1e-12)

        def control_rms(wf):
            u = traces[wf]["u"]
            return float(np.sqrt(np.mean(u * u)))

        assert control_rms(10.0) < control_rms(20.0) < control_rms(40.0)


LOCKSTEP_COLUMNS = ("t", "x0", "f_true", "f_hat")


def assert_lockstep_matches_alone(scenarios):
    """Every lane of a lockstep run equals its scenario run alone, bit for bit;
    the chain's own ``run`` takes a list of any length as lanes."""
    outcomes = chain.run(scenarios)
    assert len(outcomes) == len(scenarios)
    for scenario, outcome in zip(scenarios, outcomes):
        try:
            alone = run_scenario(scenario)
        except DivergedError as exc:
            assert isinstance(outcome, DivergedError)
            assert (outcome.step, outcome.t, str(outcome)) == (exc.step, exc.t, str(exc))
            continue
        assert not isinstance(outcome, DivergedError), outcome
        for name in LOCKSTEP_COLUMNS:
            assert outcome[name].tobytes() == alone[name].tobytes(), name
    return outcomes


def lanes_over(omegas, omega_fs=(None,), sigmas=(0.0,), **overrides):
    controller = overrides.pop("controller", {"kind": "generalized"})
    noise = overrides.pop("noise", None)
    scenarios = []
    for i, (omega, omega_f, sigma) in enumerate(
        (w, wf, s) for w in omegas for wf in omega_fs for s in sigmas
    ):
        opts = dict(controller, omega=omega)
        if omega_f is not None:
            opts["omega_f"] = omega_f
        spec = noise if noise is not None else NoiseSpec(sigmas=(sigma,))
        scenarios.append(make_scenario(controller=opts, noise=spec, seed=42 + i, **overrides))
    return scenarios


class TestLockstep:
    @pytest.mark.parametrize("controller", [
        {"kind": "generalized"},
        {"kind": "generalized", "quadrature": "trapezoidal"},
        {"kind": "generalized", "observer_form": "pid"},
        {"kind": "generalized", "seed_integral": True},
        {"kind": "pid"},
        {"kind": "pid", "quadrature": "trapezoidal"},
    ], ids=["integral", "trapezoidal", "observer_pid", "seed_integral", "pid", "pid_trapezoidal"])
    def test_observer_controllers_match_alone(self, controller):
        assert_lockstep_matches_alone(lanes_over(
            (1.0, 2.5), (5.0, 30.0), (0.0, 0.01), controller=controller,
            disturbance=Sinusoid(1.0, 3.0), duration=0.5))

    @pytest.mark.parametrize("kind", ["homogeneous", "none"])
    def test_observerless_controllers_match_alone(self, kind):
        assert_lockstep_matches_alone(lanes_over(
            (1.0, 2.0, 5.0), sigmas=(0.0, 0.02), controller={"kind": kind},
            disturbance=Sinusoid(1.0, 1.0), duration=0.5))

    def test_first_order_pi_and_multichannel_noise_match_alone(self):
        assert_lockstep_matches_alone(lanes_over(
            (1.0, 3.0), (4.0, 9.0), controller={"kind": "pid"},
            plant={"order": 1, "b": -0.7}, noise=NoiseSpec(sigmas=(0.05,)), duration=0.5))
        assert_lockstep_matches_alone(lanes_over(
            (1.0, 3.0), (4.0, 9.0), plant={"order": 3, "b": 1.3},
            noise=NoiseSpec(sigmas=(0.0, 0.01, 0.02)), duration=0.5))

    def test_decimation_and_state_coeffs_match_alone(self):
        outcomes = assert_lockstep_matches_alone(lanes_over(
            (1.0, 2.0), (10.0, 20.0), (0.0, 0.01),
            plant={"order": 2, "b": 1.0, "state_coeffs": (0.3, -0.2), "x0": [0.5, -1.0]},
            decimation=7, duration=0.5))
        assert len(outcomes[0]) == 500 // 7 + 1
        # a state-fed disturbance is a lane of its own
        assert outcomes[0]["f_true"].tobytes() != outcomes[1]["f_true"].tobytes()

    def test_diverged_lane_keeps_its_step_and_leaves_others(self):
        # the omega = 2000 lane runs away; its neighbours finish untouched
        outcomes = assert_lockstep_matches_alone(lanes_over((2.0, 2000.0, 3.0), duration=2.0))
        assert [isinstance(o, DivergedError) for o in outcomes] == [False, True, False]
        assert outcomes[1].step is not None and outcomes[1].t == outcomes[1].step * 1e-3

    def test_non_finite_step_reported_at_the_next_step(self):
        # noise near the float range drives u to inf at step 0, so the RK4
        # step makes the state non-finite; check_state reports it at step 1,
        # in the lane as in the scenario run alone. It screens component by
        # component, and x0 comes out finite but past the runaway bound.
        scenarios = lanes_over((2.0,), (10.0,), (0.0, 1e307, 0.01), duration=0.05)
        outcomes = assert_lockstep_matches_alone(scenarios)
        assert [isinstance(o, DivergedError) for o in outcomes] == [False, True, False]
        with pytest.raises(DivergedError) as alone:
            run_scenario(scenarios[1])
        for error in (outcomes[1], alone.value):
            assert error.step == 1
            assert str(error) == "diverged: |state| exceeded 1e+12 at t=0.001"

    def test_incompatible_scenarios_rejected(self):
        with pytest.raises(ConfigError, match="differ"):
            chain.run([make_scenario(duration=1.0), make_scenario(duration=2.0)])
        with pytest.raises(ConfigError, match="chain"):
            run_scenario([make_scenario(), make_scenario(plant_kind="vehicle", plant={},
                                                         controller={})])


@st.composite
def lockstep_lanes(draw):
    """1 to 6 lane-compatible chain scenarios: one plant, controller kind and
    form, disturbance and decimation, each lane with its own omega, omega_f,
    noise and seed. An omega of 2000 runs away at this step."""
    kind = draw(st.sampled_from(["generalized", "pid", "homogeneous", "none"]))
    order = draw(st.integers(1, 2 if kind == "pid" else 3))
    controller = {"kind": kind}
    if kind in ("generalized", "pid"):
        controller["quadrature"] = draw(st.sampled_from(RULES))
    if kind == "generalized":
        controller["observer_form"] = draw(st.sampled_from(OBSERVER_FORMS))
        # the PID form does not read seed_integral
        if controller["observer_form"] == "integral":
            controller["seed_integral"] = draw(st.booleans())
    components = st.lists(st.floats(-2.0, 2.0), min_size=order, max_size=order).map(tuple)
    plant = {"order": order, "b": draw(st.sampled_from([1.0, -0.7, 2.5])),
             "x0": draw(st.none() | components),
             "state_coeffs": draw(st.just(()) | components)}
    shared = dict(plant=plant, dt=1e-3, duration=draw(st.sampled_from([0.01, 0.05, 0.1])),
                  decimation=draw(st.integers(1, 4)),
                  disturbance=draw(st.sampled_from([Constant(1.0), Sinusoid(1.0, 3.0),
                                                    Step(0.5, 0.02)])))
    sigmas = st.floats(0.0, 0.05).map(lambda s: (s,)) | st.lists(
        st.floats(0.0, 0.05), min_size=order, max_size=order).map(tuple)
    lanes = draw(st.lists(st.tuples(st.floats(0.5, 50.0) | st.just(2000.0),
                                    st.floats(1.0, 100.0), sigmas), min_size=1, max_size=6))
    return [make_scenario(controller={**controller, "omega": omega, "omega_f": omega_f},
                          noise=NoiseSpec(sigmas=sigmas), seed=42 + j, **shared)
            for j, (omega, omega_f, sigmas) in enumerate(lanes)]


@settings(max_examples=120, deadline=None)
@given(lockstep_lanes())
def test_every_lane_matches_its_scenario_run_alone(scenarios):
    # order 1 has no shifted rows in its derivative: the top row is all of it
    assert_lockstep_matches_alone(scenarios)
