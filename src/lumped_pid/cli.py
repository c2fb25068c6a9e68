"""Command-line entry point: tune, simulate, sweep, bode.

Exit codes: 0 success; 2 config error (or another error outside a simulation
run); 3 run failure, a simulation stopped mid-run by divergence or a physical
limit (the vehicle's steering, the VTOL's attitude or thrust singularities);
4 partial sweep failure. The environment variable LUMPED_PID_SEED overrides
the scenario seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .analysis import (
    MetricsRow,
    bode_table,
    check_bound,
    default_grid,
    trace_metrics,
    write_metrics_csv,
)
from .config import _float, _int, build_scenario, load_config
from .controller import ControllerConfig, closed_loop_tf, observer_tfs, reduce_to_pi, reduce_to_pid, synthesize_gains
from .errors import ConfigError, DivergedError, LumpedPidError, WindowTooShortError
from .sim import run_scenario
from .svgplot import write_line_plot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_FAILED = 3
EXIT_PARTIAL = 4

_PRIMARY_SIGNAL = {"chain": "x0", "vtol": "err_norm", "vehicle": "l"}
# state-feedback bandwidth each plant runner uses without controller.omega
_OMEGA_DEFAULT = {"chain": 1.0, "vtol": 2.0, "vehicle": 0.5}
# (true, estimate) trace columns of the lumped term each plant's observer tracks;
# the vehicle's d_hat estimates d_lump, not the steering bias d_true
_OBSERVER_COLUMNS = {"chain": ("f_true", "f_hat"), "vehicle": ("d_lump", "d_hat")}
# observer-bandwidth option and its default, as each plant runner reads them
_BANDWIDTH_OPTION = {"chain": ("omega_f", 1.0), "vtol": ("omega_f", 8.0),
                     "vehicle": ("omega_d", 2.0)}
# controllers that read no observer bandwidth
_NO_OBSERVER = {("chain", "none"), ("chain", "homogeneous"), ("vehicle", "known_d")}
_PLOT_POINTS = 2000
# One lockstep step costs about as much as five float steps whatever the lane
# count (measured on second-order chains, generalized and homogeneous), so
# smaller groups of sweep cells run one at a time.
_LOCKSTEP_MIN_CELLS = 5


def _seed_override() -> int | None:
    raw = os.environ.get("LUMPED_PID_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"LUMPED_PID_SEED: expected an integer, got {raw!r}") from None


def _tune_config(flat: dict) -> ControllerConfig:
    if "plant.order" in flat:
        n = _int(flat, "plant.order")
    elif "controller.n" in flat:
        n = _int(flat, "controller.n")
    else:
        raise ConfigError("plant.order (or controller.n): required")
    return ControllerConfig(
        n=n,
        b=_float(flat, "plant.b", _float(flat, "controller.b", 1.0)),
        omega=_float(flat, "controller.omega"),
        omega_f=_float(flat, "controller.omega_f"),
        dt=_float(flat, "sim.dt", 1e-3),
    )


def cmd_tune(args) -> int:
    flat = load_config(args.config)
    config = _tune_config(flat)
    gains = synthesize_gains(config.n, config.omega)
    lines = [
        f"n        = {config.n}",
        f"b        = {config.b:g}",
        f"omega    = {config.omega:g}",
        f"omega_f  = {config.omega_f:g}",
    ]
    rows = [("n", config.n), ("b", config.b), ("omega", config.omega),
            ("omega_f", config.omega_f)]
    for i, a in enumerate(gains.a):
        lines.append(f"a{i}       = {a:.12g}")
        rows.append((f"a{i}", a))
    if config.n == 1:
        classic = reduce_to_pi(config)
    elif config.n == 2:
        classic = reduce_to_pid(config)
    else:
        classic = None
        lines.append("no classic PI/PID reduction exists beyond n = 2; "
                     "use the generalized gains above")
    if classic is not None:
        named = [("kp", classic.kp), ("ki", classic.ki)]
        if classic.kd is not None:
            named.insert(0, ("kd", classic.kd))
        pre = "  ".join(f"{k} = {v:.12g}" for k, v in named)
        post = "  ".join(f"{k}/b = {v / config.b:.12g}" for k, v in named)
        lines.append(f"classic (pre-1/b):  {pre}")
        lines.append(f"classic (post-1/b): {post}")
        for k, v in named:
            rows.append((k, v))
            rows.append((f"{k}_over_b", v / config.b))
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("name,value\n")
            for name, value in rows:
                fh.write(f"{name},{value:.17g}\n" if isinstance(value, float)
                         else f"{name},{value}\n")
    return EXIT_OK


def _decimate_for_plot(arr):
    step = max(1, len(arr) // _PLOT_POINTS)
    return arr[::step]


def _write_plots(trace, kind: str, outdir: Path) -> None:
    t = _decimate_for_plot(trace.t)
    if kind == "chain":
        state = {name: _decimate_for_plot(trace[name])
                 for name in trace.names if name.startswith("x")}
        write_line_plot(outdir / "plot_state.svg", t, state, "state", "t [s]", "x")
        write_line_plot(outdir / "plot_control.svg", t,
                        {"u": _decimate_for_plot(trace["u"])}, "control", "t [s]", "u")
        write_line_plot(outdir / "plot_observer.svg", t,
                        {"f_true": _decimate_for_plot(trace["f_true"]),
                         "f_hat": _decimate_for_plot(trace["f_hat"])},
                        "disturbance estimate", "t [s]", "f")
    elif kind == "vtol":
        write_line_plot(outdir / "plot_position.svg", t,
                        {n: _decimate_for_plot(trace[n]) for n in ("px", "py", "pz")},
                        "position", "t [s]", "p [m]")
        write_line_plot(outdir / "plot_error.svg", t,
                        {"err_norm": _decimate_for_plot(trace["err_norm"])},
                        "tracking error", "t [s]", "|p err| [m]")
    else:
        write_line_plot(outdir / "plot_lateral.svg", t,
                        {"l": _decimate_for_plot(trace["l"]),
                         "e_theta": _decimate_for_plot(trace["e_theta"])},
                        "lateral error", "t [s]", "l [m], e_theta [rad]")
        write_line_plot(outdir / "plot_steering.svg", t,
                        {"delta": _decimate_for_plot(trace["delta"]),
                         "d_hat": _decimate_for_plot(trace["d_hat"])},
                        "steering and estimate", "t [s]", "rad")


def _observer_bandwidth(scenario) -> tuple[str | None, float]:
    """The controller option that sets the observer bandwidth, and its value.

    A controller without an observer gives no option; its value echoes the
    configured (and unused) omega_f, or NaN.
    """
    option, default = _BANDWIDTH_OPTION[scenario.plant_kind]
    kind = scenario.controller.get("kind")
    if (scenario.plant_kind, kind) in _NO_OBSERVER:
        return None, scenario.controller.get("omega_f", math.nan)
    return option, scenario.controller.get(option, default)


def _run_values(scenario) -> tuple[float, float, float]:
    """The (omega, omega_f, sigma) a run of ``scenario`` uses, as its metrics
    row reports them."""
    omega = scenario.controller.get("omega", _OMEGA_DEFAULT[scenario.plant_kind])
    return omega, _observer_bandwidth(scenario)[1], scenario.noise.sigmas[0]


def _metrics_for(trace, flat: dict, scenario) -> MetricsRow:
    signal = _PRIMARY_SIGNAL[scenario.plant_kind]
    threshold = _float(flat, "metrics.threshold", 0.02)
    metrics = trace_metrics(trace, threshold, signal=signal,
                            observer=_OBSERVER_COLUMNS.get(scenario.plant_kind))
    omega, omega_f, sigma = _run_values(scenario)
    bound = None
    if scenario.plant_kind == "chain" and scenario.controller.get("kind") == "homogeneous":
        try:
            bound = check_bound(trace, omega, scenario.plant.get("order", 1))
        except WindowTooShortError:
            bound = None
    return MetricsRow("scenario", omega, omega_f, sigma, metrics=metrics, bound=bound)


def cmd_simulate(args) -> int:
    flat = load_config(args.config)
    scenario = build_scenario(flat, seed_override=_seed_override())
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        trace = run_scenario(scenario)
    except ConfigError:
        raise
    except LumpedPidError as exc:
        kind = "diverged" if isinstance(exc, DivergedError) else type(exc).__name__
        print(f"run failed: {kind}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    trace.to_csv(outdir / "trace.csv")
    write_metrics_csv(outdir / "metrics.csv", [_metrics_for(trace, flat, scenario)])
    if args.plots:
        _write_plots(trace, scenario.plant_kind, outdir)
    print(f"wrote {outdir / 'trace.csv'} ({len(trace)} rows)")
    return EXIT_OK


def _parse_grid(specs: list[str]) -> dict[str, list[float]]:
    grid = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--grid: expected name=v1,v2,..., got {spec!r}")
        name, values = spec.split("=", 1)
        name = name.strip()
        if name not in ("omega", "omega_f", "sigma"):
            raise ConfigError(f"--grid: unknown axis {name!r} (omega, omega_f, sigma)")
        try:
            vals = [float(v) for v in values.split(",") if v]
        except ValueError:
            raise ConfigError(f"--grid: bad numbers in {spec!r}") from None
        if not vals or any(v < 0 or (name != "sigma" and v <= 0) for v in vals):
            raise ConfigError(f"--grid: {name} values must be positive")
        grid[name] = vals
    if "omega" not in grid and "omega_f" not in grid and "sigma" not in grid:
        raise ConfigError("--grid: need at least one axis")
    return grid


def _failure_status(exc: LumpedPidError) -> str:
    """The sweep status of a failed cell; comma-free, as CSV needs."""
    if isinstance(exc, DivergedError):
        return f"diverged at step {exc.step} t={exc.t:g}"
    return f"error: {exc}".replace(",", ";")


def _cell_row(cell, scenario, outcome) -> MetricsRow:
    """A cell's row from its run's outcome: a trace, or the error that
    stopped the cell (``scenario`` is None if it failed to build)."""
    flat, scenario_id, omega, omega_f, sigma = cell
    if not isinstance(outcome, LumpedPidError):
        try:
            row = _metrics_for(outcome, flat, scenario)
            return MetricsRow(scenario_id, omega, omega_f, sigma, row.metrics, row.bound)
        except LumpedPidError as exc:
            outcome = exc
    return MetricsRow(scenario_id, omega, omega_f, sigma, status=_failure_status(outcome))


def _sweep_cell(cell) -> MetricsRow:
    """The row of one sweep cell, run alone."""
    scenario = None
    try:
        scenario = build_scenario(cell[0])
        outcome = run_scenario(scenario)
    except LumpedPidError as exc:
        outcome = exc
    return _cell_row(cell, scenario, outcome)


def _sweep_cells(cells: list) -> list[MetricsRow]:
    """Rows of sweep cells, each run alone."""
    return [_sweep_cell(cell) for cell in cells]


def _sweep_lanes(cells: list) -> list[MetricsRow]:
    """Rows of chain sweep cells, run as the lanes of one lockstep run."""
    if len(cells) < _LOCKSTEP_MIN_CELLS:
        return _sweep_cells(cells)
    scenarios, outcomes = {}, {}
    for i, cell in enumerate(cells):
        try:
            scenarios[i] = build_scenario(cell[0])
        except LumpedPidError as exc:
            outcomes[i] = exc
    try:
        ran = run_scenario(list(scenarios.values())) if scenarios else []
    except LumpedPidError:
        # the run failed before its loop (say, on an invalid base option):
        # run each cell alone so that its row names its own error
        return _sweep_cells(cells)
    outcomes.update(zip(scenarios, ran))
    return [_cell_row(cell, scenarios.get(i), outcomes[i]) for i, cell in enumerate(cells)]


def cmd_sweep(args) -> int:
    flat = load_config(args.config)
    seed = _seed_override()
    if seed is not None:
        flat["sim.seed"] = str(seed)
    grid = _parse_grid(args.grid)
    base_scenario = build_scenario(flat)  # validate the base config up front
    bandwidth_option, base_bandwidth = _observer_bandwidth(base_scenario)
    if "omega_f" in grid and bandwidth_option is None:
        raise ConfigError(
            f"--grid: omega_f: controller.kind {base_scenario.controller.get('kind')!r} "
            f"of plant {base_scenario.plant_kind!r} has no observer bandwidth"
        )
    base_omega, _, base_sigma = _run_values(base_scenario)
    omegas = grid.get("omega", [base_omega])
    omega_fs = grid.get("omega_f", [base_bandwidth])
    sigmas = grid.get("sigma", [base_sigma])

    cells = []
    index = 0
    for omega in sorted(omegas):
        for omega_f in sorted(omega_fs):
            for sigma in sorted(sigmas):
                # only grid axes are written: the rest is the base config's
                cell = dict(flat)
                if "omega" in grid:
                    cell["controller.omega"] = repr(omega)
                if "omega_f" in grid:
                    cell[f"controller.{bandwidth_option}"] = repr(omega_f)
                if "sigma" in grid:
                    cell["noise.sigma"] = repr(sigma)
                if args.seed_policy == "per-cell":
                    cell["sim.seed"] = str(int(flat.get("sim.seed", "0")) + index)
                scenario_id = f"omega={omega:g}_omegaf={omega_f:g}_sigma={sigma:g}"
                cells.append((cell, scenario_id, omega, omega_f, sigma))
                index += 1

    if base_scenario.plant_kind == "chain":
        # every cell differs from the base only in its axes and seed, so all
        # are lanes of one lockstep run, or of one per --parallel worker
        parts = max(1, min(args.parallel, len(cells)))
        groups = [cells[len(cells) * i // parts:len(cells) * (i + 1) // parts]
                  for i in range(parts)]
        work = _sweep_lanes
    else:
        groups = [[cell] for cell in cells]
        work = _sweep_cells
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            rows = [row for part in pool.map(work, groups) for row in part]
    else:
        rows = [row for group in groups for row in work(group)]

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(outdir / "sweep.csv", rows)
    failed = [r for r in rows if r.status != "ok"]
    print(f"wrote {outdir / 'sweep.csv'} ({len(rows)} cells, {len(failed)} failed)")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_bode(args) -> int:
    flat = load_config(args.config)
    config = _tune_config(flat)
    grid = default_grid(config.omega, config.omega_f, args.points_per_decade)
    tables = [
        ("G", closed_loop_tf(config)),
        ("G_o", observer_tfs(config.omega_f)[0]),
        ("G_e", observer_tfs(config.omega_f)[1]),
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        fh.write("tf,freq,mag,phase_rad\n")
        for name, tf in tables:
            for row in bode_table(tf, grid):
                fh.write(f"{name},{row.frequency:.17g},{row.magnitude:.17g},"
                         f"{row.phase:.17g}\n")
    print(f"wrote {out} ({len(grid)} frequencies x {len(tables)} transfer functions)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lumped-pid",
        description="PID synthesis and closed-loop simulation via repeated-pole "
                    "state feedback plus a lumped-disturbance observer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="print synthesized gains and PI/PID reductions")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="also write the gains as name,value CSV")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("simulate", help="run one scenario; write trace and metrics CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--plots", action="store_true", help="also write SVG line plots")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter grid; one metrics row per cell")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", nargs="+", required=True,
                   metavar="AXIS=V1,V2", help="axes: omega, omega_f, sigma")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--seed-policy", choices=("fixed", "per-cell"), default="fixed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bode", help="frequency tables for G, G_o, G_e")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--points-per-decade", type=int, default=50)
    p.set_defaults(func=cmd_bode)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LumpedPidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
