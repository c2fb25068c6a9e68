import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumped_pid.config import build_scenario, load_config
from lumped_pid.controller import OBSERVER_FORMS
from lumped_pid.analysis import TraceSummary, check_bound, trace_metrics
from lumped_pid.errors import ConfigError, DivergedError, WindowTooShortError
from lumped_pid.plants import chain
from lumped_pid.plants.chain import IntegratorChain
from lumped_pid.quadrature import RULES
from lumped_pid.signals import Constant, NoiseSpec, NoiseStream, Sinusoid, Step, Sum, noise_table
from lumped_pid.sim import (BLOCK, RUNAWAY_BOUND, Scenario, SimTrace, check_state, rk4_step,
                            run_scenario, summary)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ZERO = (0.0, 0.0, 0.0)  # a zero disturbance at the three RK4 stage times


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
        out = rk4_step(plant.derivative, [3.25], 0.0, ZERO, 0.1)
        assert out == [3.25]

    def test_exponential_decay_accuracy(self):
        plant = Decay()
        out = rk4_step(plant.derivative, [1.0], 0.0, ZERO, 0.1)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7

    def test_harmonic_oscillator_energy_drift(self):
        omega = 2.0
        plant = IntegratorChain(2, 1.0, state_coeffs=(-omega * omega, 0.0))
        period = 2 * math.pi / omega
        dt = period / 1000
        state = [1.0, 0.0]
        for _ in range(1000):
            state = rk4_step(plant.derivative, state, 0.0, ZERO, dt)
        e0 = 0.5 * omega * omega * 1.0
        e1 = 0.5 * (omega * omega * state[0] ** 2 + state[1] ** 2)
        assert abs(e1 - e0) / e0 < 1e-8

    def test_global_error_is_fourth_order(self):
        # halving dt twice must shrink the error by about 16x each time
        plant = Decay()

        def global_error(dt):
            state = [1.0]
            steps = int(round(1.0 / dt))
            for _ in range(steps):
                state = rk4_step(plant.derivative, state, 0.0, ZERO, dt)
            return abs(state[0] - math.exp(-1.0))

        e1, e2, e3 = global_error(0.02), global_error(0.01), global_error(0.005)
        assert 12.0 < e1 / e2 < 20.0
        assert 12.0 < e2 / e3 < 20.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            rk4_step(IntegratorChain(1, 1.0).derivative, [0.0], 0.0, ZERO, 0.0)

    def test_nonfinite_state_is_returned_and_caught_at_the_next_step(self):
        # rk4_step does not guard its result; check_state, at the top of the
        # next step, is the run's one divergence guard
        plant = IntegratorChain(1, 1.0)
        out = rk4_step(plant.derivative, [0.0], 0.0, (1e308,) * 3, 1.0)
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

    def test_a_map_with_coefficients_past_the_float_range_is_caught_at_the_next_step(self):
        # at order 3 and dt = 1e150 the map's higher-order coefficients are
        # inf: they go through as they are, and the state they make is
        # non-finite at step 1
        step = chain.rk4_map(IntegratorChain(3, 1.0), 1e150)
        assert not all(map(math.isfinite, step([1.0, 0.0, 0.0], 0.0, (1.0, 1.0, 1.0))))
        overflow = make_scenario(plant={"order": 3, "b": 1.0, "x0": [1.0, 0.0, 0.0]},
                                 controller={"kind": "none"}, dt=1e150, duration=3e150)
        with pytest.raises(DivergedError) as info:
            run_scenario(overflow)
        assert info.value.step == 1 and info.value.t == 1e150
        assert str(info.value) == "non-finite state at t=1e+150"


DIVERGED = "diverged: |state| exceeded 1e+12 at t=0.5"
NON_FINITE = "non-finite state at t=0.5"


class TestCheckState:
    """A float state passes the guard at once when the sum of its absolute
    values is within the bound; any other goes component by component."""

    @pytest.mark.parametrize("state", [(1e12,), (0.0, -1e12, 0.0), (1e12, 1.0, -1e12)],
                             ids=["alone", "beside_zeros", "sum_past_the_bound"])
    def test_components_at_the_bound_pass(self, state):
        check_state(state, 0.5, 7)

    @pytest.mark.parametrize("state,message", [
        ((math.nextafter(1e12, math.inf),), DIVERGED),
        ((0.0, -math.nextafter(1e12, math.inf)), DIVERGED),
        ((2e12, math.nan), DIVERGED),  # the reason of the first failing component
        ((math.nan, 2e12), NON_FINITE),
        ((1.0, -math.inf, 2e12), NON_FINITE),
        ((1e308, 1e308, 1e308), DIVERGED),  # the sum overflows to inf
    ], ids=["past_the_bound", "negative", "diverged_then_nan", "nan_then_diverged",
            "inf", "sum_overflows"])
    def test_first_failing_component_gives_the_reason(self, state, message):
        with pytest.raises(DivergedError) as info:
            check_state(state, 0.5, 7)
        assert str(info.value) == message
        assert (info.value.step, info.value.t) == (7, 0.5)

    @given(st.lists(st.floats() | st.sampled_from([1e12, -1e12, 4e11, 2e12]), min_size=1,
                    max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_passes_exactly_the_states_within_the_bound(self, state):
        bad = next((x for x in state if not abs(x) <= RUNAWAY_BOUND), None)
        if bad is None:
            check_state(state, 0.5, 7)
        else:
            with pytest.raises(DivergedError) as info:
                check_state(state, 0.5, 7)
            assert str(info.value) == (NON_FINITE if not math.isfinite(bad) else DIVERGED)


def loop_rk4(derivative, state, u, d, dt):
    """RK4 as loops over the components, the reference for rk4_step's
    loop-free body: the same operations in the same order."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = derivative(state, u, d[0])
    k2 = derivative([x + half * k for x, k in zip(state, k1)], u, d[1])
    k3 = derivative([x + half * k for x, k in zip(state, k2)], u, d[1])
    k4 = derivative([x + dt * k for x, k in zip(state, k3)], u, d[2])
    return [x + sixth * (a + 2.0 * (b + c) + e) for x, a, b, c, e in zip(state, k1, k2, k3, k4)]


def loop_map(rows, x, bu, d):
    """An affine step as a loop over each row's ``(k, c)`` terms, the
    reference for the map's loop-free code."""
    values = (*d, *x, bu)
    out = x.copy()
    for i, terms in enumerate(rows):
        acc = 0.0
        for k, c in terms:
            acc = acc + (values[k] if c is None else c * values[k])
        out[i] = acc
    return out


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def one_nan(a):
    """``a`` as floats with every NaN made numpy's one NaN. CPython keeps
    a NaN's sign and payload differently in a warm (specialised) float add
    and a cold one, and no output writes them (``%.17g`` gives ``nan``)."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a


@st.composite
def chain_steps(draw):
    """A chain of order 1 to 8, with or without state coupling, a step size,
    a disturbance, a state and an input term: what one RK4 step of the chain
    reads."""
    order = draw(st.integers(1, 8))
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
    @example((IntegratorChain(1, 1.0, (-1.0,)), 0.1, Constant(1.0), 0.0, [-0.0], 0.5))
    def test_rk4_step_is_the_stage_loops_it_unrolls(self, case):
        # order 1 unpacks a single name, which needs its trailing comma
        plant, dt, f0, t, state, bu = case
        d = (f0(t), f0(t + 0.5 * dt), f0(t + dt))
        assert same_bits(rk4_step(plant.derivative, state, bu, d, dt),
                         loop_rk4(plant.derivative, state, bu, d, dt))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_loop_free_code_is_the_loop_over_its_terms(self, n, data):
        # any coefficients, inf and NaN among them, and any subset of the
        # n + 4 inputs in any order, on a list state and on lanes
        coeff = st.none() | st.floats(allow_nan=True, allow_infinity=True)
        rows = []
        for _ in range(n):
            ks = data.draw(st.permutations(range(n + 4)))[:data.draw(st.integers(0, n + 4))]
            rows.append([(k, data.draw(coeff)) for k in ks])
        step = chain._straight_line(rows, n)
        values = st.floats(-1e3, 1e3)
        x = data.draw(st.lists(values, min_size=n, max_size=n))
        bu, d = data.draw(values), tuple(data.draw(st.lists(values, min_size=3, max_size=3)))
        with np.errstate(invalid="ignore", over="ignore"):
            assert same_bits(one_nan(step(x, bu, d)), one_nan(loop_map(rows, x, bu, d)))
            lanes = np.array([x, x[::-1]]).T.copy()
            bus = np.array([bu, -bu])
            assert same_bits(one_nan(step(lanes, bus, d)),
                             one_nan(loop_map(rows, lanes, bus, d)))

    @settings(max_examples=100, deadline=None)
    @given(chain_steps(), st.data())
    def test_each_lane_of_a_map_step_is_its_float_step(self, case, data):
        plant, dt, f0, t, state, bu = case
        d = (f0(t), f0(t + 0.5 * dt), f0(t + dt))
        values = st.floats(-10.0, 10.0)
        extra = data.draw(st.lists(st.tuples(st.lists(values, min_size=plant.n,
                                                      max_size=plant.n), values), max_size=4))
        lanes = [(state, bu), *extra]
        step = chain.rk4_map(plant, dt)
        out = step(np.array([x for x, _ in lanes]).T.copy(), np.array([b for _, b in lanes]), d)
        for j, (x, b) in enumerate(lanes):
            assert same_bits(out[:, j], step(x, b, d))

    @settings(max_examples=200, deadline=None)
    @given(chain_steps())
    def test_a_map_step_is_an_rk4_step(self, case):
        plant, dt, f0, t, state, bu = case
        d = (f0(t), f0(t + 0.5 * dt), f0(t + dt))
        expected = rk4_step(plant.derivative, state, bu, d, dt)
        out = chain.rk4_map(plant, dt)(state, bu, d)
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
        spec = NoiseSpec(sigmas=(0.0, 1.0), seed=1)
        assert not noise_table(spec, 2, 100)[:, 0].any()
        assert noise_table(NoiseSpec(sigmas=(0.0,), seed=1), 1, 100) is None  # draws nothing

    def test_pinned_sample(self):
        # determinism contract for the pinned generator (Philox + standard_normal)
        spec = NoiseSpec(sigmas=(1.0,), seed=42)
        assert noise_table(spec, 1, 8)[7, 0] == -0.025661075544929

    def test_a_stream_is_its_seed_and_channel_alone(self):
        # a (seed, channel) stream is the same bits in any lane, beside any
        # other lanes and channels, and scaled by its own sigma alone
        spec = NoiseSpec(sigmas=(1.0,), seed=5)
        alone = noise_table(spec, 2, 20)
        specs = [NoiseSpec(sigmas=(0.3, 0.0), seed=5), NoiseSpec(sigmas=(2.0,), seed=6), spec,
                 NoiseSpec(sigmas=(0.0, 0.7), seed=5)]
        lanes = np.stack(list(NoiseStream(specs, 2, 20)))
        assert lanes[:, :, 2].tobytes() == alone.tobytes()
        assert lanes[:, 0, 0].tobytes() == (0.3 * alone[:, 0]).tobytes()
        assert lanes[:, 1, 3].tobytes() == (0.7 * alone[:, 1]).tobytes()
        assert not lanes[:, 1, 0].any()
        # channels of one seed, and one channel of two seeds, are different streams
        assert not np.isin(alone[:, 0], alone[:, 1]).any()
        assert not np.isin(lanes[:, 0, 1], lanes[:, 0, 2]).any()

    def test_standard_normal_distribution(self):
        # the tail frequencies within 4 binomial standard errors of the normal
        # law's; two channels of a seed, and a channel of two adjacent seeds,
        # uncorrelated within 4 / sqrt(N)
        n = 10**6
        channels = noise_table(NoiseSpec(sigmas=(1.0,), seed=123), 2, n)
        beside = noise_table(NoiseSpec(sigmas=(1.0,), seed=124), 1, n)[:, 0]
        z = channels[:, 0]
        for k in (2.0, 3.0):
            p = math.erfc(k / math.sqrt(2.0))  # P(|z| > k)
            assert abs(np.mean(np.abs(z) > k) - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)
        for other in (channels[:, 1], beside):
            assert abs(np.corrcoef(z, other)[0, 1]) < 4.0 / math.sqrt(n)

    def test_moments(self):
        big = noise_table(NoiseSpec(sigmas=(1.0,), seed=123), 1, 10**6)[:, 0]
        assert abs(big.mean()) < 4.0 / math.sqrt(10**6)
        assert abs(big.std() - 1.0) < 0.01

    def test_rejects_negative_sigma(self):
        with pytest.raises(ConfigError):
            NoiseSpec(sigmas=(-0.1,), seed=0)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
    def test_rejects_a_sigma_that_is_not_finite(self, sigma):
        # as the config does, so a code-built spec draws no infinite samples
        with pytest.raises(ConfigError, match="^noise.sigma: expected finite numbers, got "):
            NoiseSpec(sigmas=(0.1, sigma), seed=0)

    def test_table_is_one_float64_array_for_a_run_and_for_lanes(self):
        # a single spec is one lane: [samples, channels], 8 B per sample and channel
        specs = [NoiseSpec(sigmas=(0.3, 0.0, 1.1), seed=4), NoiseSpec(sigmas=(0.2,), seed=9)]
        lanes = np.stack(list(NoiseStream(specs, 3, 6)))
        assert lanes.shape == (6, 3, 2) and lanes.dtype == np.float64
        for j, spec in enumerate(specs):
            table = noise_table(spec, 3, 6)
            assert table.shape == (6, 3) and table.dtype == np.float64
            assert np.array_equal(table, lanes[:, :, j])

    def test_no_table_when_every_lane_is_silent(self):
        silent = NoiseSpec(sigmas=(0.0, 0.0), seed=4)
        assert noise_table(silent, 2, 6) is None
        assert noise_table(NoiseStream([silent, NoiseSpec()], 2, 6), 2, 6) is None
        noisy = NoiseStream([silent, NoiseSpec(sigmas=(0.1,))], 2, 6)
        assert noise_table(noisy, 2, 6).shape == (6, 2, 2)

    @pytest.mark.parametrize("samples", [5, BLOCK + 3])
    def test_a_silent_stream_yields_zero_samples(self, samples):
        drawn = list(NoiseStream([NoiseSpec(), NoiseSpec(sigmas=(0.0,), seed=3)], 1, samples))
        assert len(drawn) == samples
        assert all(e.shape == (1, 2) and not e.any() for e in drawn)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 700), st.integers(1, 3), st.data())
    def test_noise_drawn_block_by_block_is_the_whole_run_table(self, block, steps, channels,
                                                               data):
        # any block length, one that does not divide the step count too, and
        # silent lanes and channels among noisy ones
        sigma = st.sampled_from([0.0, 0.0, 0.05, 1.3])
        lanes = data.draw(st.lists(st.tuples(
            st.lists(sigma, min_size=1, max_size=1) | st.lists(
                sigma, min_size=channels, max_size=channels),
            st.integers(0, 2**64 - 1)), min_size=1, max_size=5))
        specs = [NoiseSpec(sigmas=tuple(sigmas), seed=seed) for sigmas, seed in lanes]
        table = noise_table(NoiseStream(specs, channels, steps), channels, steps)
        if table is None:
            assert all(spec.silent for spec in specs)
            assert not np.stack(list(NoiseStream(specs, channels, steps))).any()
            return
        # drawn `block` samples at a time, and BLOCK at a time as a run iterates it
        stream, drawn = NoiseStream(specs, channels, steps), np.zeros((steps, channels, len(specs)))
        for k in range(0, steps, block):
            stream.fill(drawn[k:k + block])
        iterated = np.stack(list(NoiseStream(specs, channels, steps)))
        assert drawn.shape == iterated.shape == table.shape == (steps, channels, len(specs))
        assert drawn.tobytes() == iterated.tobytes() == table.tobytes()

    def test_a_noise_free_chain_measures_the_true_state(self):
        # no noise is added, not even 0.0, which would turn -0.0 into +0.0
        trace = run_scenario(make_scenario(plant={"order": 2, "b": 1.0, "x0": [-0.0, 0.0]},
                                           controller={"kind": "none"},
                                           disturbance=Constant(0.0), duration=0.01))
        for i in range(2):
            assert trace[f"z{i}"].tobytes() == trace[f"x{i}"].tobytes()
        assert math.copysign(1.0, trace["z0"][0]) == -1.0


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

    def test_writing_a_trace_never_copies_it_whole(self, tmp_path):
        # rows are formatted a block at a time, so writing vtol_wind.conf's
        # 1.68 MB trace peaks well below the trace itself
        trace = run_scenario(build_scenario(load_config(CONFIGS / "vtol_wind.conf")))
        trace.to_csv(tmp_path / "warm.csv")  # first-call caches stay out of the count
        tracemalloc.start()
        try:
            trace.to_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, columns = len(trace), len(trace.names)
        assert (rows, columns) == (6001, 35)
        assert peak < rows * columns * 8 / 4
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()

    def test_a_lockstep_run_holds_no_column_whole(self):
        # 64 noisy lanes of 10 001 steps peak within lanes (2 w + BLOCK (n + 2))
        # 8 B plus a fixed slack: per lane, the final windows of x0 and f_hat
        # (w rows), and a block of the n noise channels, x0 and f_hat; t and
        # the state-free f_true are shared by every lane. The 1.5 MB slack
        # holds the working arrays of a block's noise draw (one stream's
        # block, 2 kB, a draw) and of its reduction. Each lane's noise and columns held whole would take
        # about 20 MB.
        def lanes(duration):
            return lanes_over([1.0 + 0.5 * i for i in range(8)], [5.0 * (i + 2) for i in range(8)],
                              (0.01,), duration=duration)

        chain.run(lanes(0.01))  # imports and first-call caches stay out of the count
        scenarios = lanes(10.0)
        tracemalloc.start()
        try:
            outcomes = chain.run(scenarios)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(o, TraceSummary) and o.rows == 10_001 for o in outcomes)
        w, n = len(outcomes[0].tail["t"]), 2
        assert (len(scenarios), w) == (64, 2001)
        assert peak < len(scenarios) * (2 * w + BLOCK * (n + 2)) * 8 + 1_500_000

    def test_trace_csv_keeps_nan_and_17_digits(self, tmp_path):
        # more rows than a block, and a value of each kind %.17g writes
        n = 3 * BLOCK + 5
        values = np.linspace(-1.0, 1.0, n) / 3.0
        values[[0, BLOCK, n - 1]] = [math.nan, -0.0, math.inf]
        trace = SimTrace({"t": np.arange(n) * 1e-3, "v": values})
        trace.to_csv(tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines == ["t,v", *("%.17g,%.17g" % row
                                  for row in zip(trace.t.tolist(), values.tolist()))]
        assert lines[1].endswith(",nan") and lines[BLOCK + 1].endswith(",-0")

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
        # every run drew the same realization of the top channel's stream
        stream = noise_table(NoiseSpec(sigmas=(0.0, 0.01), seed=11), 2, len(traces[10.0]))[:, 1]
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


def bits(report) -> list:
    """A metrics or bound report's fields, each float as its exact hex."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def bound_or_error(reduced, scenario):
    """check_bound of a summary at the scenario's omega, whatever its
    controller, or the message of the WindowTooShortError that a short tail
    raises."""
    try:
        return bits(check_bound(reduced, scenario.controller["omega"], scenario.plant["order"]))
    except WindowTooShortError as exc:
        return str(exc)


def assert_lockstep_matches_alone(scenarios):
    """Every lane of a lockstep run reduces to what its scenario run alone
    gives, bit for bit: the row count, the final window of each column it
    keeps, its TraceMetrics and its BoundReport. The chain's own ``run``
    takes a list of any length as lanes."""
    outcomes = chain.run(scenarios)
    assert len(outcomes) == len(scenarios)
    for scenario, outcome in zip(scenarios, outcomes):
        try:
            alone = run_scenario(scenario)
        except DivergedError as exc:
            assert isinstance(outcome, DivergedError)
            assert (outcome.step, outcome.t, str(outcome)) == (exc.step, exc.t, str(exc))
            continue
        assert isinstance(outcome, TraceSummary), outcome
        assert outcome.rows == len(alone)
        w = len(outcome.tail["t"])
        assert w == math.ceil(0.2 * len(alone))
        for name in LOCKSTEP_COLUMNS:
            assert outcome.tail[name].tobytes() == alone[name][-w:].tobytes(), name
        observer = None if scenario.controller["kind"] in chain.NO_OBSERVER else chain.OBSERVER
        reduced = summary(alone, scenario)
        assert (bits(trace_metrics(outcome, observer=observer))
                == bits(trace_metrics(reduced, observer=observer)))
        assert bound_or_error(outcome, scenario) == bound_or_error(reduced, scenario)
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
        assert outcomes[0].rows == 500 // 7 + 1
        # a state-fed disturbance is a lane of its own
        assert outcomes[0].tail["f_true"].tobytes() != outcomes[1].tail["f_true"].tobytes()

    @pytest.mark.parametrize("row", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_first_crossing_on_a_block_boundary_matches_alone(self, row):
        # no control and a unit disturbance: x0 = x0(0) + t first changes sign
        # from row - 1 to row, so at BLOCK the crossing is carried from the
        # first block of rows to the second; one row either side of it too
        scenarios = lanes_over((1.0, 2.0), sigmas=(0.0, 0.01), controller={"kind": "none"},
                               plant={"order": 1, "b": 1.0, "x0": [-(row - 0.5) * 1e-3]},
                               duration=0.6)
        outcomes = assert_lockstep_matches_alone(scenarios)
        x = run_scenario(scenarios[0])["x0"]
        assert np.flatnonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)[0] + 1 == row
        assert outcomes[0].overshoot == np.max(np.abs(x[row:])) > 0.0

    def test_settling_on_a_block_boundary_matches_alone(self):
        # x0 = exp(-t) under no control; each lane's own threshold puts its
        # last exceedance at row r, so it settles at row r + 1: from the last
        # row of the first block of rows to the first of the second, and one
        # row either side
        rows = (BLOCK - 2, BLOCK - 1, BLOCK)
        scenarios = [make_scenario(controller={"kind": "none", "omega": 1.0 + j},
                                   plant={"order": 1, "b": 1.0, "x0": [1.0],
                                          "state_coeffs": (-1.0,)},
                                   disturbance=Constant(0.0), duration=0.6,
                                   threshold=math.exp(-(r + 0.5) * 1e-3))
                     for j, r in enumerate(rows)]
        outcomes = assert_lockstep_matches_alone(scenarios)
        for r, outcome in zip(rows, outcomes):
            assert outcome.settling_time == (r + 1) * 1e-3

    def test_overshoot_peak_carried_across_blocks_matches_alone(self):
        # a damped oscillator (x'' = -400 x - 4 x' under no control) crosses
        # zero in the first block of rows and peaks after it there too; later
        # blocks hold smaller swings, which must not replace that peak
        scenarios = lanes_over((1.0, 2.0), sigmas=(0.0, 0.01), controller={"kind": "none"},
                               plant={"order": 2, "b": 1.0, "x0": [1.0, 0.0],
                                      "state_coeffs": (-400.0, -4.0)},
                               disturbance=Constant(0.0), duration=1.0)
        outcomes = assert_lockstep_matches_alone(scenarios)
        x = run_scenario(scenarios[0])["x0"]
        first = np.flatnonzero(np.sign(x[:-1]) * np.sign(x[1:]) < 0)[0] + 1
        peak = first + int(np.argmax(np.abs(x[first:])))
        assert peak < BLOCK < len(x)
        assert outcomes[0].overshoot == abs(x[peak])

    def test_an_uncontrolled_order_250_chain_with_coupling_matches_alone(self):
        # only a controller bounds the order; the map's loop-free code has no
        # nesting to outgrow at this size
        n = 250
        outcomes = assert_lockstep_matches_alone(lanes_over(
            (1.0, 2.0), sigmas=(0.0, 0.01), controller={"kind": "none"},
            plant={"order": n, "b": 1.0, "x0": [1.0] * n,
                   "state_coeffs": tuple(-0.5 / (i + 1) for i in range(n))},
            duration=0.05))
        assert all(isinstance(o, TraceSummary) for o in outcomes)
        assert outcomes[0].tail["x0"][-1] > 1.0

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

    def test_mixed_list_runs_one_scenario_at_a_time(self):
        # four scenarios that differ in dt cannot be lanes of one run; each
        # gives the summary of its run alone
        scenarios = [make_scenario(dt=dt, duration=0.1) for dt in (1e-3, 2e-3) * 2]
        outcomes = list(run_scenario(scenarios))
        assert len(outcomes) == 4
        for scenario, outcome in zip(scenarios, outcomes):
            expected = summary(run_scenario(scenario), scenario)
            assert isinstance(outcome, TraceSummary), outcome
            assert outcome.rows == expected.rows == round(0.1 / scenario.dt) + 1
            for name in expected.tail:
                assert outcome.tail[name].tobytes() == expected.tail[name].tobytes(), name

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
    # 0.3 s records more rows than a block, so a lane's reduction carries
    shared = dict(plant=plant, dt=1e-3, duration=draw(st.sampled_from([0.01, 0.05, 0.1, 0.3])),
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
