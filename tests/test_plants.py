"""The plant registry: each plant module is the one description of its plant."""

import dataclasses
import fnmatch
import weakref
from pathlib import Path

import numpy as np
import pytest

from lumped_pid import plants
from lumped_pid.analysis import TraceSummary
from lumped_pid.config import (REQUIRED, SCENARIO_OPTIONS, _positive, build_scenario,
                               load_config)
from lumped_pid.errors import ConfigError, LumpedPidError, SteeringLimitError
from lumped_pid.plants import chain, plant_module
from lumped_pid.signals import Constant, NoiseSpec, Sinusoid
from lumped_pid.sim import Scenario, SimTrace, nest, run_scenario, summary

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STOCK = {"chain": "chain_step.conf", "vtol": "vtol_wind.conf", "vehicle": "vehicle_bias.conf"}


def short_scenario(kind):
    scenario = build_scenario(load_config(CONFIGS / STOCK[kind]))
    return dataclasses.replace(scenario, duration=0.05)


def assert_same_summary(outcome, expected):
    """Two TraceSummaries agree field by field, each array bit for bit."""
    assert isinstance(outcome, TraceSummary), outcome
    for field in dataclasses.fields(TraceSummary):
        got, want = getattr(outcome, field.name), getattr(expected, field.name)
        if field.name == "tail":
            assert list(got) == list(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name
        else:
            assert repr(got) == repr(want), field.name


def test_every_plant_has_a_stock_config():
    assert set(STOCK) == set(plants.PLANTS)


class TestRunLookup:
    """perfbench wraps ``plants.<kind>.run`` by replacing the module global,
    so a run must look the function up on the module when it starts."""

    def test_run_scenario_calls_the_module_run_of_now(self, monkeypatch):
        calls = []
        run = chain.run

        def spy(scenario):
            calls.append(scenario)
            return run(scenario)

        monkeypatch.setattr(chain, "run", spy)
        scenario = short_scenario("chain")
        assert isinstance(run_scenario(scenario), SimTrace)
        # enough chain scenarios of a kind run as the lanes of one run, one
        # fewer one at a time
        fewest = chain.LOCKSTEP[scenario.controller["kind"]]
        assert len(run_scenario([scenario] * fewest)) == fewest
        assert calls == [scenario, [scenario] * fewest]
        calls.clear()
        outcomes = list(run_scenario([scenario] * (fewest - 1)))
        assert all(isinstance(o, TraceSummary) for o in outcomes)
        assert calls == [scenario] * (fewest - 1)

    def test_lockstep_only_where_the_module_allows_it(self):
        assert {kind: module.lockstep is not None for kind, module in plants.PLANTS.items()} == {
            "chain": True, "vtol": False, "vehicle": False}
        assert chain.LOCKSTEP == {"none": 4, "homogeneous": 5, "pid": 6, "generalized": 6}
        # a list of another plant's scenarios gives the summary of each
        # scenario's run alone
        first = short_scenario("vtol")
        second = dataclasses.replace(first, controller={**first.controller, "omega": 3.0})
        outcomes = list(run_scenario([first, second]))
        assert len(outcomes) == 2
        for scenario, outcome in zip([first, second], outcomes):
            assert_same_summary(outcome, summary(run_scenario(scenario), scenario))
        assert not np.array_equal(outcomes[0].tail["err_norm"], outcomes[1].tail["err_norm"])
        with pytest.raises(ConfigError, match="one plant"):
            run_scenario([short_scenario("vtol"), short_scenario("chain")])


class TestRunEach:
    """A list that does not run in lockstep runs each scenario alone, as its
    outcome is taken."""

    def test_run_failure_is_an_outcome(self):
        ok = short_scenario("vehicle")
        # a 1.6 rad steering bias drives the effective steering past pi/2
        bad = build_scenario({**load_config(CONFIGS / STOCK["vehicle"]), "disturbance.value": "1.6"})
        outcomes = list(run_scenario([ok, bad, ok]))
        assert isinstance(outcomes[0], TraceSummary) and isinstance(outcomes[2], TraceSummary)
        assert isinstance(outcomes[1], SteeringLimitError) and outcomes[1].step == 0

    def test_error_before_the_loop_propagates(self, tmp_path):
        ok = short_scenario("vehicle")
        missing = str(tmp_path / "missing.csv")
        bad = dataclasses.replace(ok, plant={**ok.plant, "path": {"kind": "csv", "file": missing}})
        outcomes = iter(run_scenario([ok, bad]))
        assert isinstance(next(outcomes), TraceSummary)
        with pytest.raises(ConfigError, match="path.file: cannot read") as raised:
            next(outcomes)
        assert raised.value.step is None

    def test_previous_trace_is_released_before_the_next_run(self, monkeypatch):
        traces = []
        run = chain.run

        def spy(scenario):
            assert all(trace() is None for trace in traces), "an earlier trace is alive"
            trace = run(scenario)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(chain, "run", spy)
        outcomes = list(run_scenario([short_scenario("chain")] * 3))
        assert all(isinstance(o, TraceSummary) for o in outcomes)
        assert len(traces) == 3 and traces[-1]() is None


def with_controller(scenario, values, key="omega", **changes):
    """A copy of ``scenario`` per value of its controller option ``key``."""
    return [dataclasses.replace(scenario, controller={**scenario.controller, key: value},
                                **changes) for value in values]


def scenario_list(case):
    """A list of scenarios whose last one stops mid-run."""
    chain_step = short_scenario("chain")
    fewest = chain.LOCKSTEP[chain_step.controller["kind"]]
    # omega = 2000 runs away at this step, within 0.1 s
    lanes = with_controller(chain_step, [*(1.0 + j for j in range(fewest - 1)), 2000.0],
                            duration=0.1)
    vehicle = short_scenario("vehicle")
    vtol = short_scenario("vtol")
    return {
        "chain_below_lockstep": lanes[1:],
        "chain_at_lockstep": lanes,
        "chain_mixed": [dataclasses.replace(lanes[0], dt=2e-3), *lanes[1:]],
        # a 1.6 rad steering bias drives the effective steering past pi/2
        "vehicle": [*with_controller(vehicle, [0.5, 1.0]),
                    dataclasses.replace(vehicle, disturbance=Constant(1.6))],
        # an omega_tau of 1e308 makes the attitude step's rotation angle inf
        "vtol": [*with_controller(vtol, [2.0, 3.0]),
                 *with_controller(vtol, [1e308], key="omega_tau")],
    }[case]


@pytest.mark.parametrize("case", ["chain_below_lockstep", "chain_at_lockstep", "chain_mixed",
                                  "vehicle", "vtol"])
def test_a_list_gives_each_scenario_summary_or_failure(case, monkeypatch):
    """Whichever way a list runs, each outcome is the summary of its
    scenario's run alone, or the run failure that stopped that run."""
    scenarios = scenario_list(case)
    module = plant_module(scenarios[0].plant_kind)
    calls = []
    run = module.run
    monkeypatch.setattr(module, "run", lambda scenario: calls.append(scenario) or run(scenario))
    outcomes = list(run_scenario(scenarios))
    # only the chain list at its lockstep count runs as the lanes of one run
    assert calls == ([scenarios] if case == "chain_at_lockstep" else scenarios)
    assert len(outcomes) == len(scenarios)
    for scenario, outcome in zip(scenarios[:-1], outcomes):
        assert_same_summary(outcome, summary(run_scenario(scenario), scenario))
    with pytest.raises(LumpedPidError) as alone:
        run_scenario(scenarios[-1])
    failure = outcomes[-1]
    assert type(failure) is type(alone.value) and failure.step is not None
    assert (failure.step, failure.t, str(failure)) == (alone.value.step, alone.value.t,
                                                         str(alone.value))


@pytest.mark.parametrize("kind", ["none", "homogeneous", "pid", "generalized"])
def test_a_one_scenario_chain_list_is_its_single_run(kind):
    # chain.run takes a list of any length as lanes; one lane built from
    # [1] arrays reduces to the summary of the float run
    stock = short_scenario("chain")
    scenario = dataclasses.replace(stock, controller={"kind": kind, "omega": 3.0},
                                   noise=NoiseSpec(sigmas=(0.01,)), duration=0.3)
    (outcome,) = chain.run([scenario])
    assert_same_summary(outcome, summary(chain.run(scenario), scenario))


@pytest.mark.parametrize("case", ["chain", "chain_lockstep", "vehicle", "vtol"])
def test_a_run_samples_its_disturbance_at_the_stage_times(case):
    # each stepped k samples at k dt, k dt + dt/2 and k dt + dt, and the
    # step is handed those values; the chain and the vehicle read d(t) at
    # the last k too, for the trace, and a lockstep list samples once for
    # every lane. The VTOL samples the force and the torque apart.
    times = {}

    def signal(part):
        def sample(t):
            times.setdefault(part, []).append(t)
            return 0.001
        return sample

    kind = case.partition("_")[0]
    scenario = short_scenario(kind)
    if kind == "vtol":
        scenario = dataclasses.replace(scenario, disturbance={
            part: (signal(part), Constant(0.0), Sinusoid(0.001, 2.0))
            for part in ("force", "torque")})
    else:
        scenario = dataclasses.replace(scenario, disturbance=signal("d"))
    lanes = (with_controller(scenario, [2.0, 3.0])
             if case == "chain_lockstep" else scenario)
    plant_module(kind).run(lanes)
    dt, n = scenario.dt, scenario.n_steps
    stepped = [s for k in range(n) for s in (k * dt, k * dt + 0.5 * dt, k * dt + dt)]
    assert times == ({"force": stepped, "torque": stepped} if kind == "vtol"
                     else {"d": stepped + [n * dt]})


@pytest.mark.parametrize("kind", sorted(STOCK))
def test_trace_holds_every_column_the_module_names(kind):
    module = plant_module(kind)
    trace = run_scenario(short_scenario(kind))
    named = [name for error, _, _, pair, _ in module.LOOPS
             for name in (error, *(pair or ())) if name is not None]
    named += [pattern for _, patterns, _, _ in module.PLOTS for pattern in patterns]
    missing = [name for name in named if not fnmatch.filter(trace.names, name)]
    assert not missing, f"{kind} trace lacks {missing}"


@pytest.mark.parametrize("kind", sorted(STOCK))
def test_declarations_are_consistent(kind):
    module = plant_module(kind)
    # each loop's bandwidths are positive controller options, and each kind
    # without its observer is a controller kind of the plant
    for _, omega, omega_f, _, no_observer in module.LOOPS:
        assert module.OPTIONS[f"controller.{omega}"][0] is _positive
        assert module.OPTIONS[f"controller.{omega_f}"][0] is _positive
        for choice in no_observer:
            assert module.OPTIONS["controller.kind"][0](choice, "controller.kind") == choice
    # every default reads back through its own parser as itself
    for key, (parse, default) in {**SCENARIO_OPTIONS, **module.OPTIONS}.items():
        if default is not None and default is not REQUIRED:
            assert parse(default, key) == default, key
    assert all(key.split(".", 1)[0] in ("plant", "reference", "path", "controller")
               for key in module.OPTIONS)


@pytest.mark.parametrize("kind", sorted(STOCK))
def test_a_direct_scenario_carries_every_declared_option(kind):
    module = plant_module(kind)
    scenario = Scenario(plant_kind=kind, plant={}, controller={},
                        disturbance=module.parse_disturbance({}), duration=1.0)
    assert (scenario.dt, scenario.seed, scenario.decimation, scenario.threshold,
            scenario.noise.sigmas) == (1e-3, 0, 1, 0.02, (0.0,))
    assert scenario.controller == {key.split(".", 1)[1]: default
                                   for key, (_, default) in module.OPTIONS.items()
                                   if key.startswith("controller.")}
    assert scenario.plant == nest({key: default for key, (_, default) in module.OPTIONS.items()
                                   if not key.startswith("controller.")})[0]
    # a given option is kept, and the rest are still filled in
    given = dataclasses.replace(scenario, controller={"omega": 3.0})
    assert given.controller == {**scenario.controller, "omega": 3.0}
    # as is every option a config leaves out
    built = build_scenario({"plant.kind": kind, "sim.duration": "1"})
    assert built == scenario


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tables = "\n".join(line for line in readme.splitlines() if line.startswith("| `"))
    keys = [*SCENARIO_OPTIONS,
            *(key for module in plants.PLANTS.values() for key in module.OPTIONS)]
    missing = [key for key in keys if f"`{key}`" not in tables]
    assert not missing


@pytest.mark.parametrize("kind,plant,controller,key", [
    ("vehicle", {"speeed": 5.0, "path": {"kind": "line", "lenght": 50}}, {"omgea": 3.0},
     "controller.omgea"),
    ("vehicle", {"speeed": 5.0}, {}, "plant.speeed"),
    ("vehicle", {"path": {"kind": "line", "lenght": 50}}, {}, "path.lenght"),
    ("vtol", {"reference": {"kind": "hover", "psii": 1.0}}, {}, "reference.psii"),
    ("vtol", {"path": {"kind": "line"}}, {}, "path.kind"),
    ("chain", {"order": 2, "speed": 1.0}, {}, "plant.speed"),
    ("chain", {}, {"omega_d": 2.0}, "controller.omega_d"),
], ids=["first_of_three", "plant", "nested_path", "nested_reference", "other_plants_section",
        "chain_plant", "chain_controller"])
def test_a_direct_scenario_rejects_undeclared_options(kind, plant, controller, key):
    with pytest.raises(ConfigError) as raised:
        Scenario(plant_kind=kind, plant=plant, controller=controller, disturbance=Constant(0.0))
    assert str(raised.value) == f"{key}: not a key of plant {kind!r}"


@pytest.mark.parametrize("kind,plant,controller,message", [
    ("chain", {"order": 3}, {"kind": "pid"},
     "plant.order: must be 1 or 2 with controller.kind 'pid', got 3"),
    ("chain", {"order": 21}, {}, "plant.order: must be at most 20 with controller.kind "
                                 "'generalized', got 21"),
    ("chain", {}, {"kind": "homogeneous", "quadrature": "trapezoidal"},
     "controller.quadrature: not read by controller.kind 'homogeneous'"),
    ("chain", {"order": 2, "x0": (0.5, 0.3)}, {"observer_form": "pid", "seed_integral": True},
     "controller.seed_integral: not read by controller.observer_form 'pid'"),
    ("chain", {}, {}, "disturbance: expected a signal of t, got 1.0"),
    ("vehicle", {"path": {"kind": "csv"}}, {}, "path.file: required for path.kind = csv"),
    ("vehicle", {}, {"kind": "known_d", "omega_d": 7.0},
     "controller.omega_d: not read by controller.kind 'known_d'"),
    ("vehicle", {}, {}, "disturbance: expected a signal of t, got 1.0"),
    ("vtol", {"inertia": ((0.02, 0.001, 0.0), (0.0, 0.02, 0.0), (0.0, 0.0, 0.04))}, {},
     "plant.inertia: must be symmetric"),
    ("vtol", {"inertia": (0.02, -0.02, 0.04)}, {}, "plant.inertia: must be a positive-definite"),
    ("vtol", {}, {}, "disturbance: expected a dict of force and torque triples"),
    ("vehicle", {"path": {"kind": "csv", "file": "path.csv", "spacing": 0.5}}, {},
     "path.spacing: not read by path.kind 'csv'"),
    ("vtol", {"reference": {"kind": "lissajous", "omega": 3.0}}, {},
     "reference.omega: not read by reference.kind 'lissajous'"),
], ids=["pid_order_3", "order_21", "homogeneous_quadrature", "pid_form_seed_integral",
        "chain_disturbance", "csv_without_file", "known_d_omega_d", "vehicle_disturbance",
        "inertia_asymmetric", "inertia_indefinite", "vtol_disturbance", "csv_path_spacing",
        "lissajous_reference_omega"])
def test_a_direct_scenario_checks_rules_across_options(kind, plant, controller, message):
    disturbance = (1.0 if message.startswith("disturbance")
                   else plants.PLANTS[kind].parse_disturbance({}))
    with pytest.raises(ConfigError) as raised:
        Scenario(plant_kind=kind, plant=plant, controller=controller, disturbance=disturbance,
                 duration=1.0)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("threshold,message", [
    (-1.0, "must be positive"), (0.0, "must be positive"),
    (float("nan"), "expected a finite number"),
], ids=["-1.0", "0.0", "nan"])
def test_a_direct_scenario_rejects_a_threshold_that_is_not_positive(threshold, message):
    with pytest.raises(ConfigError, match=f"^metrics.threshold: {message}"):
        Scenario(plant_kind="chain", plant={}, controller={}, disturbance=Constant(0.0),
                 duration=1.0, threshold=threshold)
