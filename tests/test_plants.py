"""The plant registry: each plant module is the one description of its plant."""

import dataclasses
import fnmatch
import weakref
from pathlib import Path

import numpy as np
import pytest

from lumped_pid import plants
from lumped_pid.config import REQUIRED, SCENARIO_OPTIONS, build_scenario, load_config
from lumped_pid.errors import ConfigError, SteeringLimitError
from lumped_pid.plants import chain, plant_module
from lumped_pid.signals import Constant
from lumped_pid.sim import Scenario, SimTrace, nest, run_each, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STOCK = {"chain": "chain_step.conf", "vtol": "vtol_wind.conf", "vehicle": "vehicle_bias.conf"}


def short_scenario(kind):
    scenario = build_scenario(load_config(CONFIGS / STOCK[kind]))
    return dataclasses.replace(scenario, duration=0.05)


def test_every_plant_has_a_stock_config():
    assert set(STOCK) == set(plants.PLANTS)


class TestRunLookup:
    """perfbench wraps ``plants.<kind>.run`` by replacing the module global,
    so a run must look the function up on the module when it starts."""

    def test_run_scenario_calls_the_module_run_of_now(self, monkeypatch):
        calls = []

        def spy(scenario):
            calls.append(scenario)
            return "traced"

        monkeypatch.setattr(chain, "run", spy)
        scenario = short_scenario("chain")
        assert run_scenario(scenario) == "traced"
        # four chain scenarios run as the lanes of one run, three one at a time
        assert run_scenario([scenario] * 4) == "traced"
        assert calls == [scenario, [scenario] * 4]
        calls.clear()
        assert list(run_scenario([scenario] * 3)) == ["traced"] * 3
        assert calls == [scenario] * 3

    def test_lockstep_only_where_the_module_allows_it(self):
        assert {kind: module.LOCKSTEP for kind, module in plants.PLANTS.items()} == {
            "chain": 4, "vtol": None, "vehicle": None}
        # a list of another plant's scenarios gives each scenario's run alone
        first = short_scenario("vtol")
        second = dataclasses.replace(first, controller={**first.controller, "omega": 3.0})
        outcomes = list(run_scenario([first, second]))
        assert len(outcomes) == 2
        for scenario, outcome in zip([first, second], outcomes):
            alone = run_scenario(scenario)
            assert outcome.names == alone.names
            assert all(np.array_equal(outcome[name], alone[name]) for name in alone.names)
        assert not np.array_equal(outcomes[0]["px"], outcomes[1]["px"])
        with pytest.raises(ConfigError, match="one plant"):
            run_scenario([short_scenario("vtol"), short_scenario("chain")])


class TestRunEach:
    def test_run_failure_is_an_outcome(self):
        ok = short_scenario("vehicle")
        # a 1.6 rad steering bias drives the effective steering past pi/2
        bad = build_scenario({**load_config(CONFIGS / STOCK["vehicle"]), "disturbance.value": "1.6"})
        outcomes = list(run_each([ok, bad, ok]))
        assert isinstance(outcomes[0], SimTrace) and isinstance(outcomes[2], SimTrace)
        assert isinstance(outcomes[1], SteeringLimitError) and outcomes[1].step == 0

    def test_error_before_the_loop_propagates(self, tmp_path):
        ok = short_scenario("vehicle")
        missing = str(tmp_path / "missing.csv")
        bad = dataclasses.replace(ok, plant={**ok.plant, "path": {"kind": "csv", "file": missing}})
        outcomes = run_each([ok, bad])
        assert isinstance(next(outcomes), SimTrace)
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
        outcomes = run_each([short_scenario("chain")] * 3)
        for _ in range(3):
            trace = next(outcomes)
            assert isinstance(trace, SimTrace)
            del trace
        assert len(traces) == 3


@pytest.mark.parametrize("kind", sorted(STOCK))
def test_trace_holds_every_column_the_module_names(kind):
    module = plant_module(kind)
    trace = run_scenario(short_scenario(kind))
    named = [module.SIGNAL, *(module.OBSERVER or ())]
    named += [pattern for _, patterns, _, _ in module.PLOTS for pattern in patterns]
    missing = [name for name in named if not fnmatch.filter(trace.names, name)]
    assert not missing, f"{kind} trace lacks {missing}"


@pytest.mark.parametrize("kind", sorted(STOCK))
def test_declarations_are_consistent(kind):
    module = plant_module(kind)
    controller = [key.split(".", 1)[1] for key in module.OPTIONS if key.startswith("controller.")]
    assert module.BANDWIDTH in controller and "omega" in controller
    # every default reads back through its own parser as itself
    for key, (parse, default) in {**SCENARIO_OPTIONS, **module.OPTIONS}.items():
        if default is not None and default is not REQUIRED:
            assert parse(default, key) == default, key
    assert not module.NO_OBSERVER or "kind" in controller
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
