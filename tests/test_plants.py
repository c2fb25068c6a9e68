"""The plant registry: each plant module is the one description of its plant."""

import dataclasses
import fnmatch
from pathlib import Path

import pytest

from lumped_pid import plants
from lumped_pid.config import build_scenario, load_config
from lumped_pid.errors import ConfigError
from lumped_pid.plants import chain, plant_module
from lumped_pid.sim import run_scenario

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
        assert run_scenario([scenario, scenario]) == "traced"
        assert calls == [scenario, [scenario, scenario]]

    def test_lockstep_only_where_the_module_allows_it(self):
        assert [kind for kind, module in plants.PLANTS.items() if module.LOCKSTEP] == ["chain"]
        with pytest.raises(ConfigError, match="lockstep"):
            run_scenario([short_scenario("vtol"), short_scenario("vtol")])


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
    assert module.BANDWIDTH in module.DEFAULTS and "omega" in module.DEFAULTS
    assert not set(module.DEFAULTS) & set(module.OPTIONS)
    assert all(key.split(".", 1)[0] in ("plant", "reference", "path") for key in module.KEYS)
