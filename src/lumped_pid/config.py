"""Flat dotted-key scenario configs.

One ``key = value`` pair per line, ``#`` comments. Lists are comma separated.
Example (integrator chain):

    plant.kind = chain
    plant.order = 2
    plant.b = 1.0
    controller.kind = generalized
    controller.omega = 2.0
    controller.omega_f = 10.0
    disturbance.kind = constant
    disturbance.value = 1.0
    noise.sigma = 0.0
    sim.dt = 0.001
    sim.duration = 10.0
    sim.seed = 42

Plant-specific keys: chain uses plant.order/plant.b/plant.x0/plant.state_coeffs;
vtol uses plant.mass/plant.gravity/plant.inertia, reference.* (kind =
hover|circle|lissajous) and disturbance.force.* / disturbance.torque.*;
vehicle uses plant.wheelbase/plant.speed/plant.x0, path.* (kind =
line|circle|csv) and a scalar disturbance acting as steering bias [rad].
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .signals import NoiseSpec, Sum, build_signal
from .sim import Scenario

_KNOWN_PREFIXES = ("plant", "controller", "disturbance", "noise", "sim",
                   "reference", "path", "metrics")


def parse_config_text(text: str) -> dict[str, str]:
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key.split(".", 1)[0] not in _KNOWN_PREFIXES:
            raise ConfigError(f"line {lineno}: unknown section {key.split('.', 1)[0]!r}")
        flat[key] = value
    return flat


def load_config(path) -> dict[str, str]:
    try:
        with open(path) as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _float(flat, key, default=None):
    if key not in flat:
        if default is None:
            raise ConfigError(f"{key}: required")
        return default
    try:
        value = float(flat[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {flat[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {flat[key]!r}")
    return value


def _int(flat, key, default=None):
    if key not in flat:
        if default is None:
            raise ConfigError(f"{key}: required")
        return default
    try:
        return int(flat[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {flat[key]!r}") from None


def _floats(flat, key, default=None):
    if key not in flat:
        return default
    try:
        values = tuple(float(v) for v in flat[key].split(","))
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {flat[key]!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: expected finite numbers, got {flat[key]!r}")
    return values


def _floats3(flat, key, default=None):
    values = _floats(flat, key, default)
    if values is not None and len(values) != 3:
        raise ConfigError(f"{key}: expected 3 components, got {len(values)}")
    return values


def _bool(flat, key, default=False):
    if key not in flat:
        return default
    val = flat[key].lower()
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {flat[key]!r}")


def _signal_params(flat: dict, prefix: str) -> dict:
    """The numeric fields of the signal at ``prefix``, parsed."""
    return {name: _float(flat, f"{prefix}.{name}")
            for name in ("value", "t_start", "amplitude", "freq", "phase")
            if f"{prefix}.{name}" in flat}


def _scalar_signal(flat: dict, prefix: str = "disturbance"):
    kind = flat.get(prefix + ".kind", "none")
    if kind == "sum":
        n_terms = _int(flat, prefix + ".terms")
        terms = []
        for i in range(n_terms):
            sub = prefix + f".term{i}"
            terms.append(build_signal(flat.get(sub + ".kind", "none"), _signal_params(flat, sub)))
        return Sum(tuple(terms))
    return build_signal(kind, _signal_params(flat, prefix))


def _triple_signal(flat: dict, prefix: str):
    kind = flat.get(prefix + ".kind", "none")
    if kind == "none":
        return None
    if kind in ("constant", "step"):
        values = _floats3(flat, prefix + ".value", (0.0, 0.0, 0.0))
        t0 = _float(flat, prefix + ".t_start", 0.0)
        return tuple(build_signal(kind, {"value": v, "t_start": t0}) for v in values)
    if kind == "sinusoid":
        amps = _floats3(flat, prefix + ".amplitude", (0.0, 0.0, 0.0))
        freq = _float(flat, prefix + ".freq", 1.0)
        phase = _float(flat, prefix + ".phase", 0.0)
        return tuple(build_signal(kind, {"amplitude": a, "freq": freq, "phase": phase})
                     for a in amps)
    raise ConfigError(f"{prefix}.kind: unknown kind {kind!r}")


def _controller_options(flat: dict) -> dict:
    opts = {}
    for key, cast in (
        ("kind", str), ("quadrature", str), ("observer_form", str),
    ):
        if f"controller.{key}" in flat:
            opts[key] = cast(flat[f"controller.{key}"])
    for key in ("omega", "omega_f", "omega_att", "omega_tau", "omega_d"):
        if f"controller.{key}" in flat:
            opts[key] = _float(flat, f"controller.{key}")
    if "controller.seed_integral" in flat:
        opts["seed_integral"] = _bool(flat, "controller.seed_integral")
    return opts


def build_scenario(flat: dict, seed_override: int | None = None) -> Scenario:
    """Typed Scenario from a flat config mapping; field-level errors."""
    kind = flat.get("plant.kind")
    if kind is None:
        raise ConfigError("plant.kind: required")

    if kind == "chain":
        plant = {"order": _int(flat, "plant.order", 1), "b": _float(flat, "plant.b", 1.0)}
        if "plant.x0" in flat:
            plant["x0"] = _floats(flat, "plant.x0")
        if "plant.state_coeffs" in flat:
            plant["state_coeffs"] = _floats(flat, "plant.state_coeffs")
        disturbance = _scalar_signal(flat)
    elif kind == "vtol":
        plant = {
            "mass": _float(flat, "plant.mass", 1.0),
            "gravity": _float(flat, "plant.gravity", 9.81),
        }
        inertia = _floats(flat, "plant.inertia", (0.02, 0.02, 0.04))
        if len(inertia) not in (3, 9):
            raise ConfigError("plant.inertia: expected 3 (diagonal) or 9 values")
        plant["inertia"] = (inertia if len(inertia) == 3
                            else [inertia[0:3], inertia[3:6], inertia[6:9]])
        ref = {"kind": flat.get("reference.kind", "hover"),
               "psi": _float(flat, "reference.psi", 0.0)}
        if ref["kind"] == "hover":
            ref["position"] = _floats3(flat, "reference.position", (0.0, 0.0, 0.0))
        elif ref["kind"] == "circle":
            ref["radius"] = _float(flat, "reference.radius", 1.0)
            ref["omega"] = _float(flat, "reference.omega", 1.0)
            ref["height"] = _float(flat, "reference.height", 0.0)
        elif ref["kind"] == "lissajous":
            ref["amplitude"] = _floats3(flat, "reference.amplitude", (1.0, 1.0, 0.0))
            ref["freq"] = _floats3(flat, "reference.freq", (1.0, 2.0, 0.0))
            ref["phase"] = _floats3(flat, "reference.phase", (0.0, 0.0, 0.0))
            ref["height"] = _float(flat, "reference.height", 0.0)
        else:
            raise ConfigError(f"reference.kind: unknown kind {ref['kind']!r}")
        plant["reference"] = ref
        if "plant.p0" in flat:
            plant["p0"] = _floats3(flat, "plant.p0")
        if "plant.v0" in flat:
            plant["v0"] = _floats3(flat, "plant.v0")
        disturbance = {
            "force": _triple_signal(flat, "disturbance.force"),
            "torque": _triple_signal(flat, "disturbance.torque"),
        }
    elif kind == "vehicle":
        plant = {
            "wheelbase": _float(flat, "plant.wheelbase", 2.7),
            "speed": _float(flat, "plant.speed", 10.0),
        }
        if "plant.x0" in flat:
            plant["x0"] = _floats(flat, "plant.x0")
        if "plant.capture_radius" in flat:
            plant["capture_radius"] = _float(flat, "plant.capture_radius")
        path = {"kind": flat.get("path.kind", "line")}
        if "path.length" in flat:
            path["length"] = _float(flat, "path.length")
        if "path.radius" in flat:
            path["radius"] = _float(flat, "path.radius")
        if "path.arc" in flat:
            path["arc"] = _float(flat, "path.arc")
        if "path.spacing" in flat:
            path["spacing"] = _float(flat, "path.spacing")
        if "path.file" in flat:
            path["file"] = flat["path.file"]
        plant["path"] = path
        disturbance = _scalar_signal(flat)
    else:
        raise ConfigError(f"plant.kind: unknown plant {kind!r}")

    seed = _int(flat, "sim.seed", 0) if seed_override is None else seed_override
    noise = NoiseSpec(sigmas=_floats(flat, "noise.sigma", (0.0,)), seed=seed)
    return Scenario(
        plant_kind=kind,
        plant=plant,
        controller=_controller_options(flat),
        disturbance=disturbance,
        noise=noise,
        dt=_float(flat, "sim.dt", 1e-3),
        duration=_float(flat, "sim.duration"),
        seed=seed,
        decimation=_int(flat, "sim.decimation", 1),
    )
