"""Disturbance signals and reproducible measurement noise.

Disturbances are small callable dataclasses evaluable at any t >= 0; every
variant is bounded on [0, inf). Noise uses the counter-based Philox generator
with one independent stream per (seed, channel), so any (seed, channel, step)
triple addresses the same sample regardless of evaluation order, process, or
platform. Normal deviates come from the inverse CDF applied to the uniform
stream, which keeps that addressing exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .errors import ConfigError

# Philox yields four 64-bit words per counter block; one double per word.
_DOUBLES_PER_BLOCK = 4
_MIN_UNIFORM = 2.0 ** -54  # keeps ndtri finite if the stream ever yields 0.0


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class Step:
    value: float
    t_start: float = 0.0

    def __call__(self, t: float) -> float:
        return self.value if t >= self.t_start else 0.0


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    freq: float  # rad/s (rad/m in the distance domain)
    phase: float = 0.0

    def __call__(self, t: float) -> float:
        return self.amplitude * math.sin(self.freq * t + self.phase)


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __call__(self, t: float) -> float:
        return sum(term(t) for term in self.terms)


DisturbanceSignal = Callable[[float], float]

ZERO = Constant(0.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Per-channel standard deviations plus the stream seed.

    A single-entry ``sigmas`` broadcasts to every channel.
    """

    sigmas: tuple[float, ...] = (0.0,)
    seed: int = 0

    def __post_init__(self):
        if not self.sigmas:
            raise ConfigError("noise.sigma: need at least one value")
        for s in self.sigmas:
            if not (s >= 0.0):
                raise ConfigError(f"noise.sigma: deviations must be >= 0, got {s!r}")

    def check_channels(self, n_channels: int) -> None:
        """Reject a count of deviations other than 1 or ``n_channels``."""
        if len(self.sigmas) not in (1, n_channels):
            raise ConfigError(
                f"noise.sigma: expected 1 or {n_channels} values, got {len(self.sigmas)}"
            )

    def sigma_for(self, channel: int) -> float:
        return self.sigmas[0] if len(self.sigmas) == 1 else self.sigmas[channel]

    @property
    def silent(self) -> bool:
        return all(s == 0.0 for s in self.sigmas)


def _stream(seed: int, channel: int) -> Philox:
    key = np.array([seed % 2**64, channel], dtype=np.uint64)
    return Philox(key=key)


def gaussian_noise(spec: NoiseSpec, channel: int, step_index: int) -> float:
    """Single addressed sample: zero-mean Gaussian with the channel's sigma."""
    sigma = spec.sigma_for(channel)
    if sigma == 0.0:
        return 0.0
    bg = _stream(spec.seed, channel)
    bg.advance(step_index // _DOUBLES_PER_BLOCK)
    u = Generator(bg).random(step_index % _DOUBLES_PER_BLOCK + 1)[-1]
    return sigma * float(ndtri(max(u, _MIN_UNIFORM)))


def noise_channel(spec: NoiseSpec, channel: int, n_samples: int) -> np.ndarray:
    """The channel's first ``n_samples`` values; index k equals
    ``gaussian_noise(spec, channel, k)``."""
    sigma = spec.sigma_for(channel)
    if sigma == 0.0:
        return np.zeros(n_samples)
    u = Generator(_stream(spec.seed, channel)).random(n_samples)
    return sigma * ndtri(np.maximum(u, _MIN_UNIFORM))


def noise_table(
    spec: NoiseSpec | Sequence[NoiseSpec], n_channels: int, n_samples: int
) -> list:
    """Per-channel sample lists for a whole run (plain floats for the hot loop).

    Given one spec per lane of a lockstep run, each channel is instead a
    ``[n_samples, lanes]`` float64 array whose column j is lane j's channel,
    so row k is every lane's sample k. Every spec must give 1 or
    ``n_channels`` deviations.
    """
    for lane in [spec] if isinstance(spec, NoiseSpec) else spec:
        lane.check_channels(n_channels)
    if isinstance(spec, NoiseSpec):
        return [noise_channel(spec, c, n_samples).tolist() for c in range(n_channels)]
    table = []
    for c in range(n_channels):
        channel = np.empty((n_samples, len(spec)))
        for j, lane in enumerate(spec):
            channel[:, j] = noise_channel(lane, c, n_samples)
        table.append(channel)
    return table


def build_signal(kind: str, field: Callable[[str, float], float]) -> DisturbanceSignal:
    """Construct a scalar signal of ``kind``; ``field(name, default)`` gives
    the value of each of its parameters, and only its kind's are asked for."""
    kind = kind.lower()
    if kind == "none":
        return ZERO
    if kind == "constant":
        return Constant(field("value", 0.0))
    if kind == "step":
        return Step(field("value", 0.0), field("t_start", 0.0))
    if kind == "sinusoid":
        return Sinusoid(field("amplitude", 0.0), field("freq", 1.0), field("phase", 0.0))
    raise ConfigError(f"disturbance.kind: unknown kind {kind!r}")


def sample_triple(signals: Sequence[DisturbanceSignal], t: float) -> tuple[float, float, float]:
    return (signals[0](t), signals[1](t), signals[2](t))
