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
and controller.* options it reads, and SCENARIO_OPTIONS the sim.*,
noise.sigma and metrics.threshold ones, each with a parser of config text or
typed values and a default, which a Scenario applies; each plant module
parses its disturbance.* keys, and its ``check`` holds each rule that spans
options. A key given twice or that nothing reads is an error, and so is a
noise.sigma list whose length is neither 1 nor the plant's count of noised
channels. ``metrics.threshold`` is the settling band of the metrics.
"""

from __future__ import annotations

import math
import operator
from collections import UserDict

from .errors import ConfigError, check_positive
from .signals import Sum, build_signal
from .sim import FIELDS, Scenario, nest

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


def _float(value, key):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {number!r}")
    return number


def _positive(value, key):
    """A finite number > 0."""
    return check_positive(_float(value, key), key)


def _int(value, key):
    """An integer: an int (not a bool) or integer text. A float is none, even
    ``2.0``, as the text ``2.0`` is none, so code and config agree."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _count(value, key):
    """An integer >= 1."""
    number = _int(value, key)
    if number < 1:
        raise ConfigError(f"{key}: must be >= 1, got {number}")
    return number


def _floats(value, key):
    try:
        values = tuple(float(v) for v in (value.split(",") if isinstance(value, str) else value))
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected comma-separated numbers, got {value!r}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
    return values


def _floats3(value, key):
    values = _floats(value, key)
    if len(values) != 3:
        raise ConfigError(f"{key}: expected 3 components, got {len(values)}")
    return values


def _bool(value, key):
    val = str(value).lower()  # a bool reads as True or False
    if val in ("true", "1", "yes"):
        return True
    if val in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {value!r}")


def _str(value, key):
    return value


def _choice(*choices: str):
    """A parser of a string option that takes one of ``choices``."""

    def parse(value, key):
        if value not in choices:
            raise ConfigError(f"{key}: unknown {key.rsplit('.', 1)[-1]} {value!r}, "
                              f"expected one of {choices}")
        return value

    return parse


# The default of an option that must be given
REQUIRED = object()
# Each scenario-wide option, a Scenario field (sim.FIELDS): its parser and
# default. A Scenario checks the noise.sigma count against its plant's.
SCENARIO_OPTIONS = {"sim.dt": (_positive, 1e-3), "sim.duration": (_positive, REQUIRED),
                    "sim.seed": (_int, 0), "sim.decimation": (_count, 1),
                    "noise.sigma": (_floats, (0.0,)), "metrics.threshold": (_positive, 0.02)}


def resolve(value, key, parse, default):
    """The option ``key``: ``value`` parsed, or if it is None, ``default``."""
    if value is not None:
        return parse(value, key)
    if default is REQUIRED:
        raise ConfigError(f"{key}: required")
    return default


def _reader(flat: dict, prefix: str, parse=_float):
    """``field(name, default)`` of :func:`build_signal`: ``prefix.name`` resolved."""
    return lambda name, default: resolve(flat.get(f"{prefix}.{name}"), f"{prefix}.{name}",
                                         parse, default)


def _signal(flat: dict, prefix: str):
    """The signal at ``prefix``; it reads only the fields of its kind."""
    return build_signal(flat.get(prefix + ".kind", "none"), _reader(flat, prefix), prefix + ".kind")


def _scalar_signal(flat: dict, prefix: str = "disturbance"):
    if flat.get(prefix + ".kind") == "sum":
        terms = _reader(flat, prefix, _count)("terms", REQUIRED)
        return Sum(tuple(_signal(flat, f"{prefix}.term{i}") for i in range(terms)))
    return _signal(flat, prefix)


def _check_signal(disturbance) -> None:
    """Reject a scalar disturbance that is not a signal of t."""
    if not callable(disturbance):
        raise ConfigError(f"disturbance: expected a signal of t, got {disturbance!r}")


def _check_read(values: dict, options: dict, unread: dict, section: str = "controller") -> None:
    """Reject an option of ``section`` set away from its default that the chosen
    setting does not read: ``unread`` maps (option, value) to those."""
    for (key, value), names in unread.items():
        for name in names if values[key] == value else ():
            if values[name] != options[f"{section}.{name}"][1]:
                raise ConfigError(f"{section}.{name}: not read by {section}.{key} {value!r}")


class _ReadKeys(UserDict):
    """A flat config that records the keys looked up in it, ``get`` too."""

    def __init__(self, flat: dict):
        super().__init__(flat)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def build_scenario(flat: dict, seed_override: int | None = None) -> Scenario:
    """Typed Scenario from a flat config mapping; field-level errors. It parses
    the disturbance and hands every other key's text to the Scenario. A key
    that nothing reads is an error, such as a plant section key its plant
    module does not declare."""
    from .plants import plant_module  # the plant modules import this one

    flat = _ReadKeys(flat)
    kind = flat.get("plant.kind")
    if kind is None:
        raise ConfigError("plant.kind: required")
    module = plant_module(kind)
    plant, controller = nest({key: flat[key] for key in flat if key in module.OPTIONS})
    disturbance = module.parse_disturbance(flat)
    fields = {name: flat.get(key) for key, name in FIELDS.items()}
    if seed_override is not None:
        _int(flat.get("sim.seed", 0), "sim.seed")  # checked even when overridden
        fields["seed"] = seed_override
    unread = [key for key in flat if key not in flat.read]
    if unread:
        raise ConfigError(f"{unread[0]}: not a key of plant {kind!r}")
    return Scenario(plant_kind=kind, plant=plant, controller=controller,
                    disturbance=disturbance, **fields)
