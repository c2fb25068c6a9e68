"""Disturbance signals and reproducible measurement noise.

Disturbances are small callable dataclasses evaluable at any t >= 0; every
variant is bounded on [0, inf). Noise comes from one stream per (seed,
channel): numpy's ``Generator.standard_normal`` on a Philox generator keyed
by the pair, scaled by the channel's deviation. A stream is drawn in order
and each draw continues where the last stopped, so a run's samples are the
same bits however its draws are split into blocks, and a lockstep lane's
are those of its run alone. The bits are numpy's: NEP 19 does not freeze
``standard_normal``'s stream across numpy releases, and the recorded digests
of noisy outputs would show such a change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

# The samples or rows handled per block: the noise a lockstep run draws at a
# time, and the rows it records before reducing them. A few hundred keep a
# block small against a run and the per-block cost small against a row's.
BLOCK = 256


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
    """Per-channel standard deviations plus the stream seed, which keys
    Philox as one 64-bit word and so must lie in ``[0, 2**64)``.

    A single-entry ``sigmas`` broadcasts to every channel.
    """

    sigmas: tuple[float, ...] = (0.0,)
    seed: int = 0

    def __post_init__(self):
        if not self.sigmas:
            raise ConfigError("noise.sigma: need at least one value")
        if not all(map(math.isfinite, self.sigmas)):
            raise ConfigError(f"noise.sigma: expected finite numbers, got {self.sigmas!r}")
        for s in self.sigmas:
            if not (s >= 0.0):
                raise ConfigError(f"noise.sigma: deviations must be >= 0, got {s!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"sim.seed: must be in [0, 2**64), got {self.seed!r}")

    def sigma_for(self, channel: int) -> float:
        return self.sigmas[0] if len(self.sigmas) == 1 else self.sigmas[channel]

    @property
    def silent(self) -> bool:
        return all(s == 0.0 for s in self.sigmas)


class NoiseStream:
    """The first ``n_samples`` noise samples of a run's lanes (one spec
    each), drawn in order: each noisy (lane, channel) keeps the generator of
    its (seed, channel) stream, so a draw continues where the last stopped,
    and sample k is the same bits however the draws are sized and whatever
    lanes and channels are drawn beside it.

    Iterating it gives sample after sample, each an ``[n_channels, lanes]``
    array, drawn :data:`BLOCK` samples at a time through :func:`noise_table`
    (the last block only as many as are left), so a lockstep run holds one
    block, not every sample of the run.
    """

    def __init__(self, specs: Sequence[NoiseSpec], n_channels: int, n_samples: int):
        self.shape = (n_channels, len(specs))
        self.n_samples = n_samples
        self.noisy = [(c, j, spec.sigma_for(c),
                       Generator(Philox(key=np.array([spec.seed, c], dtype=np.uint64))))
                      for j, spec in enumerate(specs) for c in range(n_channels)
                      if spec.sigma_for(c) != 0.0]

    def fill(self, out: np.ndarray) -> None:
        """Draw the next ``len(out)`` samples into the zeroed ``[samples,
        n_channels, lanes]`` array ``out``; a silent channel stays 0.0."""
        for c, j, sigma, g in self.noisy:
            np.multiply(g.standard_normal(len(out)), sigma, out=out[:, c, j])

    def __iter__(self) -> Iterator[np.ndarray]:
        for start in range(0, self.n_samples, BLOCK):
            m = min(BLOCK, self.n_samples - start)
            block = noise_table(self, self.shape[0], m)
            yield from np.zeros((m, *self.shape)) if block is None else block
            del block  # a spent block is let go before the next is drawn


def noise_table(spec: NoiseSpec | NoiseStream, n_channels: int,
                n_samples: int) -> np.ndarray | None:
    """Noise samples in one float64 table, 8 B per sample and channel.

    Given a single run's spec, every sample of the run: ``[n_samples,
    n_channels]``, whose ``table[k].tolist()`` is sample k as the plain
    floats the run's loop adds; column c is the first ``n_samples`` of the
    (seed, c) stream times channel c's deviation. A Scenario's spec gives 1 or
    ``n_channels`` deviations. Given a lockstep run's :class:`NoiseStream`,
    its next ``n_samples``, a block: ``[n_samples, n_channels, lanes]``, so
    ``table[k]`` is a sample shaped as a lockstep state. Every noise draw of
    a run, lockstep or single, is a call of this function (the benchmark's
    per-layer trace times it as one layer). None if every lane is silent: a
    loop then measures the true state."""
    single = isinstance(spec, NoiseSpec)
    stream = NoiseStream([spec], n_channels, n_samples) if single else spec
    if not stream.noisy:
        return None
    table = np.zeros((n_samples, *stream.shape))
    stream.fill(table)
    return table[:, :, 0] if single else table


def build_signal(kind: str, field: Callable[[str, float], float], key: str) -> DisturbanceSignal:
    """Construct a scalar signal of ``kind``, the value of config ``key``;
    ``field(name, default)`` gives the value of each of its parameters, and
    only its kind's are asked for."""
    if kind == "none":
        return ZERO
    if kind == "constant":
        return Constant(field("value", 0.0))
    if kind == "step":
        return Step(field("value", 0.0), field("t_start", 0.0))
    if kind == "sinusoid":
        return Sinusoid(field("amplitude", 0.0), field("freq", 1.0), field("phase", 0.0))
    raise ConfigError(f"{key}: unknown kind {kind!r}")


def sample_triple(signals: Sequence[DisturbanceSignal], t: float) -> tuple[float, float, float]:
    return (signals[0](t), signals[1](t), signals[2](t))
