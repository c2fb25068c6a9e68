"""Disturbance signals and reproducible measurement noise.

Disturbances are small callable dataclasses evaluable at any t >= 0; every
variant is bounded on [0, inf). Noise uses the counter-based Philox generator
with one independent stream per (seed, channel), so any (seed, channel, step)
triple addresses the same sample regardless of evaluation order, process, or
platform. Normal deviates come from the inverse CDF applied to the uniform
stream, which keeps that addressing exact. The inverse CDF is a port of
Moshier's Cephes ``ndtri`` (the algorithm ``scipy.special.ndtri`` runs) that
gives scipy's values bit for bit; for that its logarithms go through the C
library's ``log`` (``math.log``), since numpy's vectorised ``log`` may differ
from it in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

# Philox yields four 64-bit words per counter block; one double per word.
_DOUBLES_PER_BLOCK = 4
_MIN_UNIFORM = 2.0 ** -54  # keeps _ndtri finite if the stream ever yields 0.0
# The samples or rows handled per block: the noise a lockstep run draws at a
# time, the rows it records before reducing them, the rows a trace formats
# per CSV write. A few hundred keep a block small against a run and the
# per-block cost small against a row's.
BLOCK = 256
# The most samples one _ndtri call takes, unless one channel's draw is
# longer: its working arrays, about six of that size, then stay near 0.8 MB
# however many lanes a lockstep block covers, and a long run's table is
# drawn one channel at a time. Drawing a lockstep block's streams in one
# call, not one call each, took chain_sweep from 0.554 to 0.511 s a pass
# (medians of 8 interleaved pairs, 2-vCPU x86_64, Python 3.11).
_NDTRI_SAMPLES = 2**14


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

    def sigma_for(self, channel: int) -> float:
        return self.sigmas[0] if len(self.sigmas) == 1 else self.sigmas[channel]

    @property
    def silent(self) -> bool:
        return all(s == 0.0 for s in self.sigmas)


# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989). Each polynomial is evaluated by Horner's rule as Cephes'
# polevl does; a Q* table omits its leading coefficient 1, as p1evl's does.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# y - 1/2 for y in (exp(-2), 1 - exp(-2)]
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# z = 1/x, x = sqrt(-2 log y) in [2, 8): y down to exp(-32)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# x in [8, 64)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """(((c0 x + c1) x + c2) x + ...), in place on a new array."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """_polevl with an implied leading coefficient 1: ((x + c0) x + c1) ..."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _log(v: np.ndarray) -> np.ndarray:
    """The C library's log of each element of a contiguous 1-D array, as
    Cephes calls it; numpy's SIMD log differs from it on a few inputs."""
    return np.fromiter(map(math.log, memoryview(v)), float, len(v))


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """The inverse standard normal CDF of each y in (0, 1), as Cephes'
    ``ndtri`` computes it, operation for operation."""
    out = np.empty_like(y0)
    # Cephes reflects y > 1 - exp(-2) to 1 - y; 1 - (1 - exp(-2)) rounds back
    # to exp(-2) exactly, so a reflected y always falls in the tail branch.
    inner = (y0 > _EXP_M2) & (y0 <= 1.0 - _EXP_M2)
    # by index: a random boolean mask gathers and scatters several times slower
    central = np.flatnonzero(inner)
    tail = np.flatnonzero(~inner)

    # y = y0 - 1/2: (y + y (y^2 P0(y^2) / Q0(y^2))) sqrt(2 pi)
    y = y0[central]
    y -= 0.5
    y2 = y * y
    x = _polevl(y2, _P0)
    x *= y2
    x /= _p1evl(y2, _Q0)
    x *= y
    x += y
    x *= _S2PI
    out[central] = x

    # x = sqrt(-2 log y), z = 1/x: x - log(x)/x - z P(z)/Q(z), negated for
    # y0 < 1/2
    y = y0[tail]
    upper = y > 1.0 - _EXP_M2
    np.subtract(1.0, y, out=y, where=upper)
    x = _log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _P1)
    x1 /= _p1evl(z, _Q1)
    far = x >= 8.0  # y <= exp(-32)
    if far.any():
        zf = z[far]
        x1f = zf * _polevl(zf, _P2)
        x1f /= _p1evl(zf, _Q2)
        x1[far] = x1f
    x0 -= x1
    np.negative(x0, out=x0, where=~upper)
    out[tail] = x0
    return out


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
    return sigma * float(_ndtri(np.array([max(u, _MIN_UNIFORM)]))[0])


class NoiseStream:
    """The first ``n_samples`` noise samples of a run's lanes (one spec
    each), drawn in order: each noisy (lane, channel) keeps one Philox
    generator, so a draw continues where the last stopped, and sample k is
    the same bits however the draws are sized.

    Iterating it gives sample after sample, each an ``[n_channels, lanes]``
    array, drawn :data:`BLOCK` samples at a time through :func:`noise_table`
    (the last block only as many as are left), so a lockstep run holds one
    block, not every sample of the run. Each ``_ndtri`` call is elementwise,
    so how the draws are grouped into calls leaves the bits as they are too.
    """

    def __init__(self, specs: Sequence[NoiseSpec], n_channels: int, n_samples: int):
        self.shape = (n_channels, len(specs))
        self.n_samples = n_samples
        self.noisy = [(c, j, spec.sigma_for(c), Generator(_stream(spec.seed, c)))
                      for j, spec in enumerate(specs) for c in range(n_channels)
                      if spec.sigma_for(c) != 0.0]

    def fill(self, out: np.ndarray) -> None:
        """Draw the next ``len(out)`` samples into the zeroed ``[samples,
        n_channels, lanes]`` array ``out``, with one ``_ndtri`` call per
        group of streams of :data:`_NDTRI_SAMPLES` samples or fewer (or per
        stream, if one is longer); a silent channel stays 0.0."""
        m = len(out)
        group = max(1, _NDTRI_SAMPLES // m)  # the streams one call draws
        for start in range(0, len(self.noisy), group):
            noisy = self.noisy[start:start + group]
            u = np.concatenate([g.random(m) for *_, g in noisy])
            e = _ndtri(np.maximum(u, _MIN_UNIFORM, out=u))
            for i, (c, j, sigma, _) in enumerate(noisy):
                np.multiply(e[i * m:(i + 1) * m], sigma, out=out[:, c, j])

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
    floats the run's loop adds; index k of channel c equals
    ``gaussian_noise(spec, c, k)``. A Scenario's spec gives 1 or
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
