"""Each option has one check, its parser in the plant's table, and a Scenario
built in code runs it on construction: a value is accepted or rejected alike
whether it comes from a config file or from code."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.config import _positive, build_scenario
from lumped_pid.errors import ConfigError
from lumped_pid.plants import PLANTS, option_parsers
from lumped_pid.signals import ZERO
from lumped_pid.sim import Scenario

# every option with a checking parser, as (plant kind, key, parser)
CHECKED = [(kind, key, parse) for kind, module in PLANTS.items()
           for key, parse in option_parsers(module).items() if getattr(parse, "checks", False)]
# each plant's choices, plus values that are no choice of any plant
WORDS = ["none", "homogeneous", "generalized", "pid", "rectangular", "trapezoidal", "integral",
         "observer", "known_d", "line", "circle", "csv", "hover", "lissajous", "simpson",
         "Line", "bogus"]


def test_the_checked_options():
    assert {(kind, key) for kind, key, _ in CHECKED} == {
        *(("chain", f"controller.{name}") for name in
          ("kind", "omega", "omega_f", "quadrature", "observer_form")),
        *(("vehicle", key) for key in
          ("controller.kind", "controller.omega", "controller.omega_d", "controller.quadrature",
           "plant.wheelbase", "plant.speed", "plant.capture_radius", "path.kind", "path.length",
           "path.radius", "path.arc", "path.spacing")),
        *(("vtol", key) for key in
          ("controller.omega", "controller.omega_f", "controller.omega_att",
           "controller.omega_tau", "plant.mass", "reference.kind")),
    }


def from_config(kind, key, text):
    return build_scenario({"plant.kind": kind, "sim.duration": "0.01", key: text})


def from_code(kind, key, value):
    section, name = key.split(".", 1)
    if section == "controller":
        plant, controller = {}, {name: value}
    else:
        plant = {name: value} if section == "plant" else {section: {name: value}}
        controller = {}
    disturbance = PLANTS[kind].parse_disturbance({})
    return Scenario(plant_kind=kind, plant=plant, controller=controller,
                    disturbance=disturbance, duration=0.01)


def outcome(build, *args):
    """None if ``build(*args)`` succeeds, else its ConfigError message."""
    try:
        build(*args)
    except ConfigError as exc:
        return str(exc)
    return None


numbers = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1e-300]))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_value_from_config_or_from_code_has_one_outcome(data):
    kind, key, parse = data.draw(st.sampled_from(CHECKED))
    if parse is _positive:
        value = data.draw(numbers)
        text = repr(float(value))
    else:
        value = text = data.draw(st.sampled_from(WORDS) | st.from_regex(r"\A[a-z_]{1,8}\Z"))
    code = outcome(from_code, kind, key, value)
    assert code == outcome(from_config, kind, key, text)
    if parse is _positive:
        assert (code is None) == (math.isfinite(value) and value > 0)
    if code is not None:
        assert code.startswith(f"{key}: ")


@pytest.mark.parametrize("kind,key,value,message", [
    ("chain", "controller.quadrature", "simpson",
     "controller.quadrature: unknown quadrature 'simpson'"),
    ("chain", "controller.omega", -1, "controller.omega: must be positive, got -1.0"),
    ("vehicle", "path.length", -5, "path.length: must be positive, got -5.0"),
    ("vehicle", "path.arc", 0, "path.arc: must be positive, got 0.0"),
    ("vehicle", "path.kind", "spiral", "path.kind: unknown kind 'spiral'"),
    ("vtol", "reference.kind", "spiral", "reference.kind: unknown kind 'spiral'"),
    ("vtol", "controller.omega_att", float("inf"),
     "controller.omega_att: expected a finite number, got inf"),
], ids=["quadrature", "chain_omega", "path_length", "path_arc", "path_kind", "reference_kind",
        "vtol_omega_att_inf"])
def test_a_code_built_scenario_raises_on_construction(kind, key, value, message):
    with pytest.raises(ConfigError) as raised:
        from_code(kind, key, value)
    assert str(raised.value).startswith(message)


def chain_run(dt, duration):
    return Scenario(plant_kind="chain", plant={}, controller={}, disturbance=ZERO,
                    dt=dt, duration=duration)


@pytest.mark.parametrize("dt,duration", [(0.005, 0.0125), (1.0, 0.5), (1e-3, 1e-12)],
                         ids=["two_and_a_half", "step_beyond_duration", "no_step"])
def test_a_duration_of_a_fraction_of_a_step(dt, duration):
    with pytest.raises(ConfigError, match="^sim.duration: must be a whole number of sim.dt"):
        chain_run(dt, duration)


def test_a_duration_of_whole_steps():
    # rounding in duration / dt is not a fraction of a step
    assert chain_run(0.1, 0.3).n_steps == 3
    assert chain_run(1e-3, 0.05).n_steps == 50


@pytest.mark.parametrize("key,dt,duration", [("sim.dt", math.inf, 1.0),
                                             ("sim.duration", 1e-3, math.inf)])
def test_a_step_or_duration_that_is_not_finite(key, dt, duration):
    with pytest.raises(ConfigError, match=f"^{key}: must be positive, got inf"):
        chain_run(dt, duration)
