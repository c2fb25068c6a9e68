"""Per-layer call counts and times, recorded from outside the program.

Each layer is a public function or method of a module under
``src/lumped_pid``. ``Tracer.install`` replaces it with a timing wrapper at
every binding a caller can look it up through: module globals that hold the
function (``from ..sim import rk4_step`` makes ``lumped_pid.plants.chain``
hold its own binding), or the class attribute for a method. Spans nest: a
layer's self time is its time minus the time of the wrapped layers it called.

Spans are aggregated per layer as they close (calls, total and child time)
instead of being kept one by one, because the chain loop makes several
wrapped calls per step and a sweep makes millions of steps.
"""

from __future__ import annotations

import importlib
import sys
import time

# (layer name, module, attribute, what the per-layer metrics report)
#   "us_per_call": calls and mean microseconds per call
#   "us":          calls and total microseconds per pass
#   "self_us":     calls and self time per pass; the span minus its children
#   "self_us_per_step": self time per simulated plant step
#   "count":       calls only; the call is not a span, so its time stays in
#                  the caller's self time (plants.*.run is the loop that
#                  sim.run_scenario's self time measures)
LAYERS = (
    ("cli", "lumped_pid.cli", "main", "self_us"),
    ("config.load_config", "lumped_pid.config", "load_config", "us"),
    ("config.build_scenario", "lumped_pid.config", "build_scenario", "us"),
    ("sim.run_scenario", "lumped_pid.sim", "run_scenario", "self_us_per_step"),
    ("plants.chain.run", "lumped_pid.plants.chain", "run", "count"),
    ("plants.vehicle.run", "lumped_pid.plants.vehicle", "run", "count"),
    ("plants.vtol.run", "lumped_pid.plants.vtol", "run", "count"),
    ("sim.rk4_step", "lumped_pid.sim", "rk4_step", "us_per_call"),
    ("sim.check_state", "lumped_pid.sim", "check_state", "us_per_call"),
    ("sim.TraceRecorder.record", "lumped_pid.sim", "TraceRecorder.record", "us_per_call"),
    ("sim.TraceRecorder.build", "lumped_pid.sim", "TraceRecorder.build", "us"),
    ("sim.SimTrace.to_csv", "lumped_pid.sim", "SimTrace.to_csv", "us"),
    ("signals.noise_table", "lumped_pid.signals", "noise_table", "us"),
    ("controller.GeneralizedController.step", "lumped_pid.controller",
     "GeneralizedController.step", "us_per_call"),
    ("controller.HomogeneousController.step", "lumped_pid.controller",
     "HomogeneousController.step", "us_per_call"),
    ("plants.vehicle.frenet_match", "lumped_pid.plants.vehicle", "frenet_match", "us_per_call"),
    ("plants.vehicle.LateralObserverController.step", "lumped_pid.plants.vehicle",
     "LateralObserverController.step", "us_per_call"),
    ("plants.vtol.advance_rigid_body", "lumped_pid.plants.vtol", "advance_rigid_body",
     "us_per_call"),
    ("plants.vtol.VtolController.compute", "lumped_pid.plants.vtol", "VtolController.compute",
     "us_per_call"),
    ("analysis.trace_metrics", "lumped_pid.analysis", "trace_metrics", "us"),
    ("analysis.check_bound", "lumped_pid.analysis", "check_bound", "us"),
    ("analysis.write_metrics_csv", "lumped_pid.analysis", "write_metrics_csv", "us"),
    ("svgplot.write_line_plot", "lumped_pid.svgplot", "write_line_plot", "us"),
)

LAYER_NAMES = tuple(name for name, *_ in LAYERS)

# Modules whose cumulative import time the set-up process reports.
IMPORTED_MODULES = (
    "numpy",
    "scipy.special",
    "lumped_pid",
    "lumped_pid.errors",
    "lumped_pid.polylti",
    "lumped_pid.quadrature",
    "lumped_pid.controller",
    "lumped_pid.signals",
    "lumped_pid.sim",
    "lumped_pid.so3",
    "lumped_pid.analysis",
    "lumped_pid.config",
    "lumped_pid.svgplot",
    "lumped_pid.cli",
    "lumped_pid.plants",
    "lumped_pid.plants.chain",
    "lumped_pid.plants.vehicle",
    "lumped_pid.plants.vtol",
)


class _Stat:
    __slots__ = ("calls", "ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self._stats = {name: _Stat() for name in LAYER_NAMES}
        self._stack: list[_Stat] = []
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every layer; a layer that no longer exists goes to ``missing``."""
        for name, module, attr, kind in LAYERS:
            try:
                owner = importlib.import_module(module)
                *outer, fn_name = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            stat = self._stats[name]
            wrapper = self._count(original, stat) if kind == "count" else self._span(original, stat)
            if outer:
                setattr(owner, fn_name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".", 1)[0] != "lumped_pid" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _span(self, fn, stat):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack.append(stat)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.ns += elapsed
                if stack:
                    stack[-1].child_ns += elapsed

        return wrapper

    @staticmethod
    def _count(fn, stat):
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def stats(self) -> dict:
        """Per layer: calls, total microseconds and self microseconds."""
        return {
            name: {"calls": s.calls, "us": s.ns / 1e3, "self_us": (s.ns - s.child_ns) / 1e3}
            for name, s in self._stats.items()
        }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative microseconds per module from ``python -X importtime`` output."""
    wanted = set(IMPORTED_MODULES)
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module in wanted:
            try:
                out[module] = float(fields[1])
            except ValueError:
                continue
    return out
