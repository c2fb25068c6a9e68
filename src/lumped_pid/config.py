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

Each module of lumped_pid.plants declares the plant.*, reference.*, path.*
and controller.* options it reads, each with a parser of config text or
typed values and a default, and parses its disturbance.* keys. A key given
twice or that nothing reads is an error, and so is a noise.sigma list whose
length is neither 1 nor the plant's count of noised channels.
``metrics.threshold`` (default 0.02) is the settling band of the metrics.
"""

from __future__ import annotations

import math
from collections import UserDict

from .errors import ConfigError
from .signals import NoiseSpec, Sum, build_signal
from .sim import Scenario, nest

_KNOWN_PREFIXES = ("plant", "controller", "disturbance", "noise", "sim",
                   "reference", "path", "metrics")


def parse_config_text(text: str) -> dict[str, str]:
    flat: dict[str, str] = {}
    first_line: dict[str, int] = {}
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
        if key in flat:
            raise ConfigError(
                f"line {lineno}: {key} given twice (first on line {first_line[key]})")
        flat[key] = value
        first_line[key] = lineno
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
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {flat[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return value


def _positive(flat, key):
    """A finite number > 0."""
    value = _float(flat, key)
    if not value > 0.0:
        raise ConfigError(f"{key}: must be positive, got {value!r}")
    return value


def _int(flat, key, default=None):
    """An integer; a bool or a number with a fraction is none."""
    if key not in flat:
        if default is None:
            raise ConfigError(f"{key}: required")
        return default
    value = flat[key]
    try:
        number = int(value)
        if isinstance(value, bool) or not isinstance(value, str) and number != value:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None
    return number


def _floats(flat, key, default=None):
    if key not in flat:
        return default
    value = flat[key]
    try:
        values = tuple(float(v) for v in (value.split(",") if isinstance(value, str) else value))
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected comma-separated numbers, got {value!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
    return values


def _bool(flat, key, default=False):
    if key not in flat:
        return default
    val = str(flat[key]).lower()  # a bool reads as True or False
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {flat[key]!r}")


def _signal(flat: dict, prefix: str):
    """The signal at ``prefix``; it reads only the fields of its kind."""
    return build_signal(flat.get(prefix + ".kind", "none"),
                        lambda name, default: _float(flat, f"{prefix}.{name}", default),
                        prefix + ".kind")


def _scalar_signal(flat: dict, prefix: str = "disturbance"):
    if flat.get(prefix + ".kind") == "sum":
        terms = _int(flat, prefix + ".terms")
        if terms < 1:
            raise ConfigError(f"{prefix}.terms: must be >= 1, got {terms}")
        return Sum(tuple(_signal(flat, f"{prefix}.term{i}") for i in range(terms)))
    return _signal(flat, prefix)


def _check_signal(disturbance) -> None:
    """Reject a scalar disturbance that is not a signal of t."""
    if not callable(disturbance):
        raise ConfigError(f"disturbance: expected a signal of t, got {disturbance!r}")


def _str(flat, key):
    return flat[key]


def _choice(*choices: str):
    """A parser of a string option that takes one of ``choices``."""

    def parse(flat, key):
        if flat[key] not in choices:
            raise ConfigError(f"{key}: unknown {key.rsplit('.', 1)[-1]} {flat[key]!r}, "
                              f"expected one of {choices}")
        return flat[key]

    return parse


class _ReadKeys(UserDict):
    """A flat config that records the keys looked up in it, ``get`` too."""

    def __init__(self, flat: dict):
        super().__init__(flat)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def build_scenario(flat: dict, seed_override: int | None = None) -> Scenario:
    """Typed Scenario from a flat config mapping; field-level errors. A key
    that neither the run nor its metrics read is an error, such as a plant
    section key its plant module does not declare."""
    from .plants import plant_module  # the plant modules import this one

    flat = _ReadKeys(flat)
    kind = flat.get("plant.kind")
    if kind is None:
        raise ConfigError("plant.kind: required")
    module = plant_module(kind)
    plant, controller = nest({key: flat[key] for key in flat if key in module.OPTIONS})

    seed = _int(flat, "sim.seed", 0)
    seed = seed if seed_override is None else seed_override
    scenario = Scenario(
        plant_kind=kind,
        plant=plant,
        controller=controller,
        disturbance=module.parse_disturbance(flat),
        noise=NoiseSpec(sigmas=_floats(flat, "noise.sigma", (0.0,)), seed=seed),
        dt=_float(flat, "sim.dt", 1e-3),
        duration=_float(flat, "sim.duration"),
        seed=seed,
        decimation=_int(flat, "sim.decimation", 1),
        threshold=_float(flat, "metrics.threshold", 0.02),
    )
    unread = [key for key in flat if key not in flat.read]
    if unread:
        raise ConfigError(f"{unread[0]}: not a key of plant {kind!r}")
    scenario.noise.check_channels(module.noise_channels(scenario))
    return scenario
