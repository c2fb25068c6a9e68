"""Each option has one parser, in its plant's ``OPTIONS`` or in
``SCENARIO_OPTIONS``, and a Scenario runs it on every option it is given,
once: a value is accepted or rejected alike, and resolves to the same value,
whether it comes from a config file or from code."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.config import (SCENARIO_OPTIONS, _bool, _count, _float, _floats, _floats3, _int,
                               _positive, _str, build_scenario)
from lumped_pid.errors import ConfigError
from lumped_pid.plants import PLANTS
from lumped_pid.plants.vtol import _inertia
from lumped_pid.signals import ZERO, Constant, NoiseSpec
from lumped_pid.sim import FIELDS, MAX_STEPS, Scenario

# every option, as (plant kind, key, parser)
OPTIONS = [(kind, key, parse) for kind, module in PLANTS.items()
           for key, (parse, _) in {**SCENARIO_OPTIONS, **module.OPTIONS}.items()]
# each plant's choices, plus values that are no choice of any plant
WORDS = ["none", "homogeneous", "generalized", "pid", "rectangular", "trapezoidal", "integral",
         "observer", "known_d", "line", "circle", "csv", "hover", "lissajous", "simpson",
         "Line", "bogus"]

# the options the default path and reference kinds (line, hover) do not read,
# each rejected when set away from its default
UNREAD_BY_DEFAULT_KIND = {"path.radius", "path.arc", "path.file", "reference.radius",
                          "reference.omega", "reference.height", "reference.amplitude",
                          "reference.freq", "reference.phase"}

numbers = st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 1e-300]))


def values(parse):
    """A strategy of (value typed in code, its config text) pairs for ``parse``."""
    if parse in (_float, _positive):
        return numbers.map(lambda v: (v, repr(float(v))))
    if parse in (_int, _count):
        # an integral float is no integer, typed or as its text
        return st.integers(-3, 25).flatmap(
            lambda v: st.sampled_from([(v, str(v)), (float(v), repr(float(v)))]))
    if parse is _bool:
        return st.booleans().map(lambda v: (v, str(v).lower()))
    if parse in (_floats, _floats3, _inertia):
        return st.lists(numbers, min_size=1, max_size=10).map(
            lambda v: (v, ",".join(repr(float(x)) for x in v)))
    words = st.sampled_from(WORDS) | st.from_regex(r"\A[a-z_]{1,8}\Z")
    assert parse is _str or parse.__qualname__.startswith("_choice"), parse
    return words.map(lambda w: (w, w))


def from_config(kind, key, text):
    return build_scenario({"plant.kind": kind, "sim.duration": "0.01", key: text})


def from_code(kind, key, value):
    section, name = key.split(".", 1)
    plant, controller, fields = {}, {}, {"duration": 0.01}
    if key in FIELDS:
        fields[FIELDS[key]] = value
    elif section == "controller":
        controller = {name: value}
    else:
        plant = {name: value} if section == "plant" else {section: {name: value}}
    return Scenario(plant_kind=kind, plant=plant, controller=controller,
                    disturbance=PLANTS[kind].parse_disturbance({}), **fields)


def outcome(build, *args):
    """The Scenario ``build(*args)`` gives, or its ConfigError's message up to
    the rejected value, which reads as text or as typed."""
    try:
        return build(*args)
    except ConfigError as exc:
        return str(exc).split(" got ")[0]


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_a_value_from_config_or_from_code_has_one_outcome(data):
    kind, key, parse = data.draw(st.sampled_from(OPTIONS))
    value, text = data.draw(values(parse))
    code = outcome(from_code, kind, key, value)
    config = outcome(from_config, kind, key, text)
    # a step that does not divide the duration, or divides it into too many
    # steps, is an error of two keys, and so is a csv path without its file
    step_count = ("sim.duration: must be a whole number of sim.dt steps,",
                  "sim.duration: at most 1e+08 sim.dt steps,")
    if isinstance(code, str) or isinstance(config, str):
        assert code == config
        assert (code.startswith(f"{key}: ") or key == "sim.dt" and code in step_count
                or key == "path.kind" and code == "path.file: required for path.kind = csv")
    else:
        assert code == config
    if parse is _positive:
        accepted = isinstance(code, Scenario) or code in step_count
        unread = key in UNREAD_BY_DEFAULT_KIND and value != PLANTS[kind].OPTIONS[key][1]
        assert accepted == (math.isfinite(value) and value > 0 and not unread)


@pytest.mark.parametrize("kind,key,value,message", [
    ("chain", "controller.quadrature", "simpson",
     "controller.quadrature: unknown quadrature 'simpson'"),
    ("chain", "controller.omega", -1, "controller.omega: must be positive, got -1.0"),
    ("chain", "plant.order", 2.7, "plant.order: expected an integer, got 2.7"),
    ("chain", "plant.order", True, "plant.order: expected an integer, got True"),
    ("chain", "plant.order", 3.0, "plant.order: expected an integer, got 3.0"),
    ("chain", "plant.b", "fast", "plant.b: expected a number, got 'fast'"),
    ("chain", "plant.state_coeffs", 0.5, "plant.state_coeffs: expected comma-separated numbers"),
    ("chain", "controller.seed_integral", "maybe",
     "controller.seed_integral: expected true/false, got 'maybe'"),
    ("vehicle", "path.length", -5, "path.length: must be positive, got -5.0"),
    ("vehicle", "path.arc", 0, "path.arc: must be positive, got 0.0"),
    ("vehicle", "path.kind", "spiral", "path.kind: unknown kind 'spiral'"),
    ("vehicle", "plant.x0", (0.0, 0.0), "plant.x0: expected 3 components, got 2"),
    ("vtol", "reference.kind", "spiral", "reference.kind: unknown kind 'spiral'"),
    ("vtol", "reference.position", (1.0, 2.0), "reference.position: expected 3 components"),
    ("vtol", "plant.inertia", [[1.0, 0.0], [0.0, 1.0]],
     "plant.inertia: expected 3 (diagonal) or 9 values"),
    ("vtol", "controller.omega_att", float("inf"),
     "controller.omega_att: expected a finite number, got inf"),
    ("vtol", "plant.inertia", (1e-150, 1e-150, 1e-150),
     "plant.inertia: its determinant or inverse is beyond the float range"),
], ids=["quadrature", "chain_omega", "order_fraction", "order_bool", "order_integral_float",
         "b_word",
        "state_coeffs_scalar", "seed_integral", "path_length", "path_arc", "path_kind",
        "vehicle_x0", "reference_kind", "reference_position", "inertia_2x2", "vtol_omega_att_inf",
        "inertia_det_underflow"])
def test_a_code_built_scenario_raises_on_construction(kind, key, value, message):
    with pytest.raises(ConfigError) as raised:
        from_code(kind, key, value)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize("kind,key,value,resolved", [
    ("chain", "plant.order", np.int64(3), 3),
    ("chain", "plant.b", 2, 2.0),
    ("chain", "plant.state_coeffs", np.array([0.5]), (0.5,)),
    ("chain", "controller.seed_integral", "yes", True),
    ("vehicle", "plant.x0", [0, 1, 0], (0.0, 1.0, 0.0)),
    ("vtol", "plant.inertia", (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0)),
    ("vtol", "plant.inertia", np.diag([1.0, 2.0, 3.0]),
     (1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0)),
    ("vtol", "plant.inertia", [[1, 0.1, 0], [0.1, 2, 0], [0, 0, 3]],
     (1.0, 0.1, 0.0, 0.1, 2.0, 0.0, 0.0, 0.0, 3.0)),
], ids=["order_numpy", "b_int", "state_coeffs_array", "seed_word",
        "vehicle_x0_list", "inertia_diagonal", "inertia_matrix", "inertia_rows"])
def test_a_typed_value_resolves(kind, key, value, resolved):
    section, name = key.split(".", 1)
    options = from_code(kind, key, value)
    options = options.controller if section == "controller" else options.plant
    assert (options if section in ("plant", "controller") else options[section])[name] == resolved


@pytest.mark.parametrize("kind,fields,outcome", [
    ("chain", {"decimation": 2.5}, "sim.decimation: expected an integer, got 2.5"),
    ("chain", {"decimation": 2.0}, "sim.decimation: expected an integer, got 2.0"),
    ("chain", {"decimation": True}, "sim.decimation: expected an integer, got True"),
    ("chain", {"decimation": 0}, "sim.decimation: must be >= 1, got 0"),
    ("chain", {"seed": 1.5}, "sim.seed: expected an integer, got 1.5"),
    ("chain", {"dt": "abc"}, "sim.dt: expected a number, got 'abc'"),
    ("chain", {"seed": "x", "noise": NoiseSpec((0.1,))}, "sim.seed: expected an integer, got 'x'"),
    ("chain", {"duration": None}, "sim.duration: required"),
    ("chain", {"dt": "0.01", "duration": "0.5", "threshold": "0.1", "seed": "3", "noise": "0.1"},
     {"dt": 0.01, "duration": 0.5, "threshold": 0.1, "seed": 3, "noise": (0.1,)}),
    ("chain", {"noise": NoiseSpec((0.1,), seed=7), "seed": 3}, {"noise": [0.1], "seed": 3}),
    ("vehicle", {"noise": NoiseSpec((0.0, 0.0))}, "noise.sigma: expected 1 or 3 values, got 2"),
    ("vtol", {"noise": NoiseSpec((0.0, 0.0))}, "noise.sigma: expected 1 or 9 values, got 2"),
], ids=["decimation_fraction", "decimation_integral_float", "decimation_bool", "decimation_zero", "seed_fraction", "dt_word",
        "noisy_seed_word", "no_duration", "text", "noise_spec", "vehicle_sigmas", "vtol_sigmas"])
def test_a_code_built_field_is_parsed_on_construction(kind, fields, outcome):
    def build(fields):
        return Scenario(plant_kind=kind, plant={}, controller={},
                        disturbance=PLANTS[kind].parse_disturbance({}),
                        **{"duration": 0.5, **fields})

    if isinstance(outcome, str):
        with pytest.raises(ConfigError) as raised:
            build(fields)
        assert str(raised.value) == outcome
    else:
        assert build(fields) == build(outcome)


def test_a_given_none_takes_the_default():
    scenario = Scenario(plant_kind="vehicle", plant={"speed": None, "path": {"arc": None}},
                        controller={"omega": None}, disturbance=ZERO, dt=None, seed=None,
                        duration=1.0)
    assert (scenario.dt, scenario.seed) == (1e-3, 0)
    assert scenario.plant["speed"] == PLANTS["vehicle"].OPTIONS["plant.speed"][1]
    assert scenario.plant["path"]["arc"] == PLANTS["vehicle"].OPTIONS["path.arc"][1]
    assert scenario.controller["omega"] == PLANTS["vehicle"].OPTIONS["controller.omega"][1]


@pytest.mark.parametrize("kind,disturbance", [
    ("vtol", Constant(5.0)),
    ("vtol", {"force": Constant(5.0)}),
    ("vtol", {"wind": None}),
    ("chain", {"force": None, "torque": None}),
    ("vehicle", {"force": None, "torque": None}),
], ids=["vtol_scalar", "vtol_scalar_part", "vtol_unknown_part", "chain_dict", "vehicle_dict"])
def test_a_disturbance_of_another_shape_is_rejected(kind, disturbance):
    with pytest.raises(ConfigError, match="^disturbance: "):
        Scenario(plant_kind=kind, plant={}, controller={}, disturbance=disturbance, duration=1.0)


def chain_run(dt, duration):
    return Scenario(plant_kind="chain", plant={}, controller={}, disturbance=ZERO,
                    dt=dt, duration=duration)


@pytest.mark.parametrize("dt,duration", [(0.005, 0.0125), (1.0, 0.5), (1e-3, 1e-12)],
                         ids=["two_and_a_half", "step_beyond_duration", "no_step"])
def test_a_duration_of_a_fraction_of_a_step(dt, duration):
    with pytest.raises(ConfigError, match="^sim.duration: must be a whole number of sim.dt"):
        chain_run(dt, duration)


@pytest.mark.parametrize("dt,duration", [(1e-300, 0.01), (1e-9, 1000.0), (1e-3, 100000.001)],
                         ids=["tiny_step", "1e12_steps", "one_past_the_cap"])
def test_a_duration_of_too_many_steps(dt, duration):
    # such a run would never end, and a noisy one would first allocate a noise
    # sample per step and channel
    with pytest.raises(ConfigError, match=r"^sim.duration: at most 1e\+08 sim.dt steps, got "):
        chain_run(dt, duration)
    text = {"plant.kind": "chain", "sim.dt": repr(dt), "sim.duration": repr(duration),
            "noise.sigma": "0.1"}
    with pytest.raises(ConfigError, match=r"^sim.duration: at most 1e\+08 sim.dt steps, got "):
        build_scenario(text)
    assert chain_run(1e-3, 100000.0).n_steps == MAX_STEPS


def test_a_duration_of_whole_steps():
    # rounding in duration / dt is not a fraction of a step
    assert chain_run(0.1, 0.3).n_steps == 3
    assert chain_run(1e-3, 0.05).n_steps == 50


@pytest.mark.parametrize("key,dt,duration", [("sim.dt", math.inf, 1.0),
                                             ("sim.duration", 1e-3, math.inf)])
def test_a_step_or_duration_that_is_not_finite(key, dt, duration):
    with pytest.raises(ConfigError, match=f"^{key}: expected a finite number, got inf"):
        chain_run(dt, duration)
