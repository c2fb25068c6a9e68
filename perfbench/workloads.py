"""The benchmark's workloads: generated inputs, output checks, layer coverage.

Every workload runs ``lumped_pid.cli.main`` invocations one after another in
one process (a closed loop with one caller); sweeps run ``--parallel 1``, so
on a small shared machine the numbers measure the program and not the
scheduler or a process pool. The workload seed reaches the program only
through ``sim.seed`` in the generated configs.

Output checks follow from properties of the controllers, not from the seed:

* a noise-free generalized chain rejects a constant disturbance, so the
  tail of x0 stays below ``REJECTION_SHARE`` of the ultimate bound
  ``|f| / omega^n`` that the uncompensated loop would only be held to;
* every homogeneous (``bound_demo``) run satisfies that ultimate bound;
* vehicle and VTOL tracking errors over the final window stay below the
  stated limits, noise-free runs at round-off;
* the VTOL rotation stays orthonormal with determinant 1 to round-off;
* every invocation exits 0 and every row has status ``ok``.

SHA-256 digests of the output CSVs are recorded for ``RECORDED_SEED`` and
counted, not enforced: a change may alter output bits on purpose within a
stated bound.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

RECORDED_SEED = 0
INPUTS = Path(__file__).resolve().parent / "inputs"

REJECTION_SHARE = 1e-3
NOISE_FREE_TAIL_LIMIT = 1e-9
VEHICLE_NOISY_TAIL_LIMIT_M = 0.1
VTOL_CIRCLE_TAIL_LIMIT_M = 0.1
ROUND_OFF_LIMIT = 1e-12

# A check sees one metrics row (the row of a simulate, or one sweep cell),
# the generated config and the output directory; it returns None or a reason.
Check = Callable[[dict, dict, Path], Optional[str]]


def _chain_rejects(row: dict, cfg: dict, out: Path) -> Optional[str]:
    if float(row["sigma"]) != 0.0:
        return None
    bound = abs(float(cfg["disturbance.value"])) / float(row["omega"]) ** int(cfg["plant.order"])
    sse = float(row["sse_max"])
    if not sse <= REJECTION_SHARE * bound:
        return f"constant disturbance not rejected: sse_max {sse:.3g} > {REJECTION_SHARE * bound:.3g}"
    return None


def _bound_holds(row: dict, cfg: dict, out: Path) -> Optional[str]:
    if row["satisfied"] != "true":
        return f"ultimate bound missed: limsup {row['limsup']} > bound {row['bound']}"
    return None


def _tail_below(limit: float) -> Check:
    def check(row: dict, cfg: dict, out: Path) -> Optional[str]:
        sse = float(row["sse_max"])
        if not sse <= limit:
            return f"final-window error {sse:.3g} above {limit:g}"
        return None

    return check


def _rotation_at_round_off(row: dict, cfg: dict, out: Path) -> Optional[str]:
    worst = 0.0
    with open(out / "trace.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            worst = max(worst, abs(float(rec["ortho_err"])), abs(float(rec["det_err"])))
    if not worst <= ROUND_OFF_LIMIT:
        return f"rotation drifted: max ortho/det error {worst:.3g}"
    return None


def _trace_complete(row: dict, cfg: dict, out: Path) -> Optional[str]:
    steps = int(round(float(cfg["sim.duration"]) / float(cfg["sim.dt"])))
    expected = 1 + steps // int(cfg.get("sim.decimation", "1")) + 1
    with open(out / "trace.csv", "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != expected:
        return f"trace.csv has {lines} lines, expected {expected}"
    return None


def _plots_written(row: dict, cfg: dict, out: Path) -> Optional[str]:
    plots = sorted(out.glob("plot_*.svg"))
    if len(plots) != 3 or any(p.stat().st_size == 0 for p in plots):
        return f"expected 3 non-empty chain plots, found {len(plots)}"
    return None


@dataclass(frozen=True)
class Invocation:
    label: str                       # unique in its workload; names output dir and config
    template: str                    # file under inputs/, a copy of a stock config
    overrides: tuple = ()            # (key, value) pairs applied to the template
    grid: tuple = ()                 # sweep axes; empty means `simulate`
    plots: bool = False
    checks: tuple = ()

    @property
    def output(self) -> str:
        return "sweep.csv" if self.grid else "trace.csv"

    def config(self, seed: int) -> dict:
        cfg = {}
        for raw in (INPUTS / self.template).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
        cfg.update(self.overrides)
        cfg["sim.seed"] = str(seed)
        return cfg

    def argv(self, config_path: Path, out: Path) -> list:
        if self.grid:
            return ["sweep", "--config", str(config_path), "--out", str(out),
                    "--grid", *self.grid, "--parallel", "1"]
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        return argv + ["--plots"] if self.plots else argv

    def cells(self) -> int:
        n = 1
        for axis in self.grid:
            n *= len(axis.split("=", 1)[1].split(","))
        return n

    def steps(self, cfg: dict) -> int:
        return self.cells() * int(round(float(cfg["sim.duration"]) / float(cfg["sim.dt"])))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple
    exercised: frozenset  # layers that must record calls in the traced run
    bypassed: frozenset   # layers that must record none


_CHAIN_GRID = ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01")
# HomogeneousController never reads omega_f, so bound_demo sweeps omega only
_BOUND_GRID = ("omega=2,5", "sigma=0,0.01")
_VEHICLE_CIRCLE = (("path.kind", "circle"), ("noise.sigma", "0.01,0.01,0.001"))
_VTOL_CIRCLE = (("reference.kind", "circle"), ("reference.radius", "1.0"),
                ("reference.omega", "1.0"), ("sim.duration", "10.0"), ("noise.sigma", "0.001"))

_FRONT = {"cli", "config.load_config", "config.build_scenario", "sim.run_scenario",
          "sim.check_state", "sim.TraceRecorder.record", "sim.TraceRecorder.build",
          "signals.noise_table", "analysis.trace_metrics", "analysis.write_metrics_csv"}
_CHAIN = {"plants.chain.run", "sim.rk4_step", "controller.GeneralizedController.step",
          "controller.HomogeneousController.step", "analysis.check_bound"}
_VEHICLE = {"plants.vehicle.run", "plants.vehicle.frenet_match",
            "plants.vehicle.LateralObserverController.step"}
_VTOL = {"plants.vtol.run", "plants.vtol.advance_rigid_body", "plants.vtol.VtolController.compute"}
_OUTPUT = {"sim.SimTrace.to_csv"}
_PLOTS = {"svgplot.write_line_plot"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain_sweep",
            "many short chain cells reduced to metrics in memory; the workload for "
            "one-loop and batched sweeps",
            (
                Invocation("chain_step_sweep", "chain_step.conf", grid=_CHAIN_GRID,
                           checks=(_chain_rejects,)),
                Invocation("bound_demo_sweep", "bound_demo.conf", grid=_BOUND_GRID,
                           checks=(_bound_holds,)),
            ),
            exercised=frozenset(_FRONT | _CHAIN),
            bypassed=frozenset(_VEHICLE | _VTOL | _OUTPUT | _PLOTS),
        ),
        Workload(
            "chain_trace",
            "the same chain loop, but writing full-rate trace.csv and SVG plots "
            "instead of reducing in memory; CSV writing is about a third of a pass",
            (
                Invocation("chain_step", "chain_step.conf", plots=True,
                           checks=(_chain_rejects, _plots_written)),
                Invocation("bound_demo", "bound_demo.conf", plots=True,
                           checks=(_bound_holds, _plots_written)),
            ),
            exercised=frozenset(_FRONT | _CHAIN | _OUTPUT | _PLOTS),
            bypassed=frozenset(_VEHICLE | _VTOL),
        ),
        Workload(
            "vehicle_track",
            "Frenet path matching dominates and runs nowhere else; the circle path "
            "with pose noise reaches the two-candidate branch",
            (
                Invocation("vehicle_bias", "vehicle_bias.conf",
                           checks=(_tail_below(NOISE_FREE_TAIL_LIMIT),)),
                Invocation("vehicle_circle", "vehicle_bias.conf", overrides=_VEHICLE_CIRCLE,
                           checks=(_tail_below(VEHICLE_NOISY_TAIL_LIMIT_M),)),
            ),
            exercised=frozenset(_FRONT | _VEHICLE | _OUTPUT | {"sim.rk4_step"}),
            bypassed=frozenset(_VTOL | _PLOTS | _CHAIN - {"sim.rk4_step"}),
        ),
        Workload(
            "vtol_track",
            "rigid-body integration on SO(3) and the VTOL controller dominate and "
            "run nowhere else",
            (
                Invocation("vtol_wind", "vtol_wind.conf",
                           checks=(_tail_below(NOISE_FREE_TAIL_LIMIT), _rotation_at_round_off)),
                Invocation("vtol_circle", "vtol_wind.conf", overrides=_VTOL_CIRCLE,
                           checks=(_tail_below(VTOL_CIRCLE_TAIL_LIMIT_M), _rotation_at_round_off)),
            ),
            exercised=frozenset(_FRONT | _VTOL | _OUTPUT),
            bypassed=frozenset(_CHAIN | _VEHICLE | _PLOTS),
        ),
    )
}


def write_config(cfg: dict, path: Path) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))


def check_outputs(inv: Invocation, cfg: dict, out: Path, code) -> list:
    """One entry per operation (simulate call or sweep cell): None if it
    passed, else the reason it failed."""
    expected = inv.cells()
    if code != 0:
        return [f"exit code {code}"] * expected
    try:
        with open(out / ("sweep.csv" if inv.grid else "metrics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != expected:
            return [f"{len(rows)} rows, expected {expected}"] * expected
        checks = inv.checks if inv.grid else (_trace_complete, *inv.checks)
        results = []
        for row in rows:
            reason = None if row["status"] == "ok" else f"status {row['status']}"
            for check in checks:
                reason = reason or check(row, cfg, out)
            results.append(reason)
        return results
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"] * expected
