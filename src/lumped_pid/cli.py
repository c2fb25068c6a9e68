"""Command-line entry point: tune, simulate, sweep, bode.

Every command reads its config through ``config.build_scenario``; tune and
bode take chain scenarios only. Exit codes: 0 success; 2 config error, or
another error raised before a simulation's loop (a sweep's too); 3 run
failure, a simulation stopped mid-run by divergence or a physical limit (the
vehicle's steering, the VTOL's attitude or thrust singularities); 4 some
sweep cells stopped mid-run. The environment variable LUMPED_PID_SEED
overrides the scenario seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import itertools
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .analysis import (MetricsRow, TraceSummary, default_grid, table_line, trace_metrics,
                       write_metrics_csv)
from .config import build_scenario, load_config
from .controller import closed_loop_tf, observer_tfs, reduce_to_pid, synthesize_gains
from .errors import ConfigError, LumpedPidError
from .plants import plant_module
from .polylti import MAX_ORDER, frequency_response
from .signals import NoiseSpec
from .sim import run_scenario, summary, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN_FAILED = 3
EXIT_PARTIAL = 4

_PLOT_POINTS = 2000


def _seed_override() -> int | None:
    raw = os.environ.get("LUMPED_PID_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"LUMPED_PID_SEED: expected an integer, got {raw!r}") from None


@contextmanager
def _out_errors(out):
    """Make a failure to create or write the ``--out`` path ``out`` a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {exc.filename or out}: "
                          f"{exc.strerror or exc}") from None


def _chain_config(args) -> tuple[int, float, float, float]:
    """The synthesis inputs ``(n, b, omega, omega_f)`` of the chain scenario
    in ``args.config``, read as ``simulate`` reads it; they exist for every
    controller kind."""
    scenario = build_scenario(load_config(args.config))
    if scenario.plant_kind != "chain":
        raise ConfigError(f"plant.kind: {args.command} takes a chain plant, "
                          f"got {scenario.plant_kind!r}")
    if scenario.plant["order"] > MAX_ORDER:  # checked by the scenario unless kind is none
        raise ConfigError(f"plant.order: {args.command} takes at most {MAX_ORDER}, "
                          f"got {scenario.plant['order']}")
    return (scenario.plant["order"], scenario.plant["b"], scenario.controller["omega"],
            scenario.controller["omega_f"])


def _write_table(out: Path, names: tuple[str, ...], rows: list) -> None:
    """Write a table to the ``--out`` file ``out``, creating its directory."""
    with _out_errors(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out, names, map(table_line, rows))


def cmd_tune(args) -> int:
    n, b, omega, omega_f = _chain_config(args)
    rows = [("n", n), ("b", b), ("omega", omega), ("omega_f", omega_f),
            *((f"a{i}", a) for i, a in enumerate(synthesize_gains(n, omega)))]
    head = len(rows)
    if n <= 2:
        classic = reduce_to_pid(n, omega, omega_f)
        for k, v in (("kd", classic.kd), ("kp", classic.kp), ("ki", classic.ki)):
            if v is not None:
                rows += [(k, v), (f"{k}_over_b", v / b)]
    # stdout: the inputs at 6 significant digits, the gains at 12, and the
    # classic gains (each followed by its value over b) on two lines
    lines = [f"{name:<9}= {value:{'g' if i < 4 else '.12g'}}"
             for i, (name, value) in enumerate(rows[:head])]
    if n > 2:
        lines.append("no classic PI/PID reduction exists beyond n = 2; "
                     "use the generalized gains above")
    else:
        pre, post = rows[head::2], rows[head + 1::2]
        lines.append("classic (pre-1/b):  " + "  ".join(f"{k} = {v:.12g}" for k, v in pre))
        lines.append("classic (post-1/b): " + "  ".join(
            f"{k.replace('_over_b', '/b')} = {v:.12g}" for k, v in post))
    print("\n".join(lines))
    if args.out:
        _write_table(Path(args.out), ("name", "value"), rows)
    return EXIT_OK


def _write_plots(trace, plant, outdir: Path) -> None:
    """The plant's SVG plots; a column pattern may name several columns."""
    from .svgplot import write_line_plot  # only a run with --plots needs the plotter

    step = max(1, len(trace) // _PLOT_POINTS)
    t = trace.t[::step]
    for stem, patterns, title, ylabel in plant.PLOTS:
        series = {name: trace[name][::step]
                  for pattern in patterns for name in fnmatch.filter(trace.names, pattern)}
        write_line_plot(outdir / f"plot_{stem}.svg", t, series, title, "t [s]", ylabel)


def _run_values(scenario) -> tuple[tuple[float, float, float], tuple | None]:
    """What loop 0 of a run of ``scenario`` reports: its metrics row's (omega,
    omega_f, sigma) and the (true, estimate) columns its metrics read; NaN (a
    blank field) and None for a controller without an observer."""
    _, omega, omega_f, pair, no_observer = plant_module(scenario.plant_kind).LOOPS[0]
    sigma = scenario.noise.sigmas[0]
    # a plant with one controller (the VTOL's) declares no controller kind
    if scenario.controller.get("kind") in no_observer:
        return (scenario.controller[omega], math.nan, sigma), None
    return (scenario.controller[omega], scenario.controller[omega_f], sigma), pair


def _metrics_for(summary: TraceSummary, scenario, scenario_id: str = "scenario") -> MetricsRow:
    """The metrics row of a run's summary (:func:`sim.summary`)."""
    plant = plant_module(scenario.plant_kind)
    values, observer = _run_values(scenario)
    metrics = trace_metrics(summary, observer)
    bound = plant.bound and plant.bound(summary, scenario)
    return MetricsRow(scenario_id, *values, metrics=metrics, bound=bound)


def cmd_simulate(args) -> int:
    scenario = build_scenario(load_config(args.config), seed_override=_seed_override())
    outdir = Path(args.out)
    with _out_errors(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    try:
        trace = run_scenario(scenario)
    except LumpedPidError as exc:
        if exc.step is None:  # raised before the run's loop: not a run failure
            raise
        print(f"run failed: {_failure_status(exc)}: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    with _out_errors(outdir):
        trace.to_csv(outdir / "trace.csv")
        write_metrics_csv(outdir / "metrics.csv",
                          [_metrics_for(summary(trace, scenario), scenario)])
        if args.plots:
            _write_plots(trace, plant_module(scenario.plant_kind), outdir)
    print(f"wrote {outdir / 'trace.csv'} ({len(trace)} rows)")
    return EXIT_OK


def _parse_grid(specs: list[str], axes: list[str]) -> dict[str, list[float]]:
    grid = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--grid: expected name=v1,v2,..., got {spec!r}")
        name, values = spec.split("=", 1)
        name = name.strip()
        if name not in axes:
            raise ConfigError(f"--grid: unknown axis {name!r} ({', '.join(axes)})")
        if name in grid:
            raise ConfigError(f"--grid: axis {name!r} given twice")
        try:
            vals = [float(v) for v in values.split(",")]
        except ValueError:
            raise ConfigError(f"--grid: bad numbers in {spec!r}") from None
        sigma = name == "sigma"  # a zero deviation is a noise-free cell
        if not all(0.0 <= v < math.inf and (v > 0.0 or sigma) for v in vals):
            raise ConfigError(f"--grid: {name} values must be finite and "
                              f"{'non-negative' if sigma else 'positive'}")
        grid[name] = vals
    return grid


def _failure_status(exc: LumpedPidError) -> str:
    """How a failed run reads: ``<kind> at step K t=T``; comma-free, as CSV needs."""
    return f"{exc.kind} at step {exc.step} t={exc.t:g}"


def _sweep_rows(cells: list) -> list[MetricsRow]:
    """The rows of a contiguous group of ``(scenario_id, scenario)`` sweep cells."""
    # a lockstep plant runs a large enough group as the lanes of one run
    outcomes = run_scenario([scenario for _, scenario in cells])
    return [MetricsRow(scenario_id, *_run_values(scenario)[0], status=_failure_status(outcome))
            if isinstance(outcome, LumpedPidError) else _metrics_for(outcome, scenario, scenario_id)
            for (scenario_id, scenario), outcome in zip(cells, outcomes)]


def cmd_sweep(args) -> int:
    if args.parallel < 1:
        raise ConfigError(f"--parallel: expected a worker count >= 1, got {args.parallel}")
    base = build_scenario(load_config(args.config), seed_override=_seed_override())
    plant = plant_module(base.plant_kind)
    # the axes: each loop's two bandwidths, loop 0's observer bandwidth under
    # the name omega_f, then sigma
    options = {("omega_f" if name == plant.LOOPS[0][2] else name): name
               for loop in plant.LOOPS for name in loop[1:3]}
    grid = _parse_grid(args.grid, [*options, "sigma"])
    # a controller without an observer reports a NaN omega_f
    if "omega_f" in grid and math.isnan(_run_values(base)[0][1]):
        raise ConfigError(
            f"--grid: omega_f: controller.kind {base.controller['kind']!r} "
            f"of plant {base.plant_kind!r} has no observer bandwidth"
        )
    axes = [axis for axis in [*options, "sigma"] if axis in grid]

    cells = {}  # by scenario_id
    for index, values in enumerate(itertools.product(*(sorted(grid[axis]) for axis in axes))):
        # only grid axes are written: the rest is the base scenario's
        cell = dict(zip(axes, values))
        controller = {**base.controller,
                      **{options[axis]: value for axis, value in cell.items() if axis != "sigma"}}
        scenario = dataclasses.replace(
            base, controller=controller,
            noise=NoiseSpec((cell["sigma"],)) if "sigma" in cell else base.noise,
            seed=base.seed + index if args.seed_policy == "per-cell" else base.seed,
        )
        # the id names the values the row reports, then each further grid axis
        (omega, omega_f, sigma), _ = _run_values(scenario)
        omegaf = "" if math.isnan(omega_f) else f"_omegaf={omega_f:g}"
        further = "".join(f"_{axis}={value:g}" for axis, value in cell.items()
                          if axis in options and axis not in ("omega", "omega_f"))
        scenario_id = f"omega={omega:g}{omegaf}{further}_sigma={sigma:g}"
        if scenario_id in cells:  # %g keeps 6 significant digits
            raise ConfigError(f"--grid: two cells share the scenario_id {scenario_id!r}")
        cells[scenario_id] = scenario
    cells = list(cells.items())

    outdir = Path(args.out)
    with _out_errors(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
    # every cell differs from the base only in its axes and seed, so a
    # lockstep plant runs each group as the lanes of one run
    parts = min(args.parallel, len(cells))
    groups = [cells[len(cells) * i // parts:len(cells) * (i + 1) // parts] for i in range(parts)]
    if parts > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: a costly import

        with ProcessPoolExecutor(max_workers=parts) as pool:
            rows = [row for part in pool.map(_sweep_rows, groups) for row in part]
    else:
        rows = _sweep_rows(cells)

    with _out_errors(outdir):
        write_metrics_csv(outdir / "sweep.csv", rows)
    failed = [r for r in rows if r.status != "ok"]
    print(f"wrote {outdir / 'sweep.csv'} ({len(rows)} cells, {len(failed)} failed)")
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_bode(args) -> int:
    n, _, omega, omega_f = _chain_config(args)
    grid = default_grid(omega, omega_f, args.points_per_decade)
    g_o, g_e = observer_tfs(omega_f)
    tables = [("G", closed_loop_tf(n, omega, omega_f)), ("G_o", g_o), ("G_e", g_e)]
    out = Path(args.out)
    _write_table(out, ("tf", "freq", "mag", "phase_rad"),
                 [(name, row.frequency, row.magnitude, row.phase)
                  for name, tf in tables for row in frequency_response(tf, grid)])
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
    p.add_argument("--grid", nargs="+", required=True, metavar="AXIS=V1,V2",
                   help="axes: each loop's two bandwidths, loop 0's observer bandwidth "
                        "as omega_f, then sigma (chain and vehicle: omega, omega_f, sigma; "
                        "VTOL: omega, omega_f, omega_att, omega_tau, sigma)")
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
