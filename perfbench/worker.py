"""One benchmark process: set-up, then at most one timed pass.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory holding ``lumped_pid``), ``configs``
(config files to load and validate during set-up), ``argv`` (one argument
list per ``lumped_pid.cli.main`` call of the pass, or null for set-up only)
and ``trace`` (wrap the layers before the pass). The process prints one JSON
object as the last line of its standard output.

Times are reported twice: as measured (``*_raw``) and scaled to a reference
machine speed. On a shared machine the speed of one core drifts by up to 2x
over seconds as neighbours come and go, which moves every timing of a run
together. A ``SpeedSampler`` times a fixed pure-Python kernel, shaped like
the simulation loops, every ``INTERVAL_S`` of wall time; a region's scaled
time is its measured time, minus the time spent sampling, times
``KERNEL_REF_S`` over the kernel's time during the region (harmonic mean).
The kernel is the benchmark's own code, so a change to the program moves the
scaled times exactly as much as the measured ones.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

INTERVAL_S = 0.05
KERNEL_STEPS = 200
# The kernel's time at the reference speed: its 10th percentile over 2000
# samples on a 2-vCPU Intel Xeon VM with Python 3.11.7, i.e. a core whose
# neighbours are quiet. Scaled times read as times on that core.
KERNEL_REF_S = 0.00045


def _derivative(state, u):
    out = list(state[1:])
    out.append(u - 3.0 * state[0] - 2.0 * state[-1])
    return out


def _kernel() -> None:
    state = [1.0, 0.0, 0.5]
    h = 1e-3
    for _ in range(KERNEL_STEPS):
        k1 = _derivative(state, 0.1)
        mid = [x + 0.5 * h * d for x, d in zip(state, k1)]
        k2 = _derivative(mid, 0.1)
        state = [x + h * d for x, d in zip(state, k2)]


class SpeedSampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t
        self.samples.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self) -> tuple:
        return time.perf_counter(), len(self.samples), self.spent

    def scaled(self, begin: tuple) -> tuple:
        """(measured, scaled) seconds since ``begin``, a ``mark()``."""
        measured = time.perf_counter() - begin[0] - (self.spent - begin[2])
        self.sample()  # at least one sample per region; outside the region's time
        region = self.samples[begin[1]:]
        speed = KERNEL_REF_S * sum(1.0 / s for s in region) / len(region)
        return measured, measured * speed


def main() -> int:
    sampler = SpeedSampler()
    sampler.start()
    begin = (_T0, 0, 0.0)
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import lumped_pid.cli as cli
    from lumped_pid.config import build_scenario, load_config

    for path in spec["configs"]:
        build_scenario(load_config(path))
    raw, scaled = sampler.scaled(begin)
    result = {"setup_raw_s": raw, "setup_s": scaled, "module": cli.__file__}

    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from layers import Tracer

            # imports lumped_pid.plants.* here, which an untraced pass does
            # inside its first run_scenario call (a few milliseconds)
            tracer = Tracer()
            tracer.install()
        codes, walls = [], []
        start = sampler.mark()
        for argv in spec["argv"]:
            t = time.perf_counter()
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejects arguments by exiting
                codes.append(exc.code)
            except Exception:  # an escaped exception is a failed operation, not a crash
                traceback.print_exc()
                codes.append(None)
            walls.append(time.perf_counter() - t)
        raw, scaled = sampler.scaled(start)
        result.update(
            wall_raw_s=raw,
            wall_s=scaled,
            speed=scaled / raw,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            codes=codes,
            walls=[w * scaled / raw for w in walls],
        )
        if tracer is not None:
            result["layers"] = tracer.stats()
            result["missing"] = tracer.missing
    sampler.stop()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
