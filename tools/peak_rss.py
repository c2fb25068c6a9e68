"""Print the peak resident set size of ``simulate`` on each stock config, and
of the 256-cell ``chain_step.conf`` sweep run in lockstep and cell by cell.

Runs ``lumped-pid simulate`` on each ``configs/*.conf`` (or on the configs
given), one after another, each in a fresh interpreter, and prints per
config the trace rows and the process's ``ru_maxrss`` in MB: once after
set-up (importing ``lumped_pid.cli`` and building the scenario) and once
after the run, which writes ``trace.csv`` and ``metrics.csv`` to a temporary
directory. Without configs it then runs ``lumped-pid sweep`` on
``configs/chain_step.conf`` over the 16 x 8 x 2 grid of :data:`SWEEP_GRID`
(10 001 steps a cell), once as the lanes of one lockstep run and once cell
by cell (every ``chain.LOCKSTEP`` count set to infinity), each in a fresh
interpreter, and prints the same columns plus the sweep's wall time.
``LUMPED_PID_SEED`` is removed, so each config runs with its own
``sim.seed``. From the repository root:

    python tools/peak_rss.py [config ...]
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "configs" / "chain_step.conf"
SWEEP_GRID = ("omega=" + ",".join(f"{0.5 * i:g}" for i in range(1, 17)),
              "omega_f=" + ",".join(str(5 * i) for i in range(1, 9)), "sigma=0,0.01")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(config: str) -> dict:
    """Set up and run one config in this process; its rows and peak RSS."""
    from lumped_pid.cli import main
    from lumped_pid.config import build_scenario, load_config

    build_scenario(load_config(config))
    setup = _maxrss_mb()
    with tempfile.TemporaryDirectory() as out:
        code = main(["simulate", "--config", config, "--out", out])
        run = _maxrss_mb()
        rows = 0
        if code == 0:
            with open(Path(out) / "trace.csv", "rb") as fh:
                rows = sum(1 for _ in fh) - 1
    return {"exit": code, "rows": rows, "setup_mb": setup, "run_mb": run}


def measure_sweep(mode: str) -> dict:
    """Set up and run the 256-cell sweep in this process, in ``mode``
    ``lockstep`` or ``alone``; its rows, peak RSS and wall time."""
    from lumped_pid.cli import main
    from lumped_pid.config import build_scenario, load_config
    from lumped_pid.plants import chain

    build_scenario(load_config(SWEEP_CONFIG))
    if mode == "alone":
        chain.LOCKSTEP = dict.fromkeys(chain.LOCKSTEP, math.inf)
    setup = _maxrss_mb()
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        code = main(["sweep", "--config", str(SWEEP_CONFIG), "--out", out, "--grid", *SWEEP_GRID])
        wall = time.perf_counter() - start
        run = _maxrss_mb()
        with open(Path(out) / "sweep.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
    return {"exit": code, "rows": rows, "setup_mb": setup, "run_mb": run, "wall_s": wall}


def _one(args: list[str], env: dict) -> dict:
    proc = subprocess.run([sys.executable, __file__, *args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(args: list[str]) -> int:
    env = {k: v for k, v in os.environ.items() if k != "LUMPED_PID_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    configs = args or sorted(str(p) for p in (ROOT / "configs").glob("*.conf"))
    print(f"{'config':<20} {'rows':>7} {'setup MB':>9} {'run MB':>8}")
    for config in configs:
        result = _one(["--one", config], env)
        print(f"{Path(config).name:<20} {result['rows']:>7} {result['setup_mb']:>9.2f} "
              f"{result['run_mb']:>8.2f}")
        if result["exit"] != 0:
            print(f"{config}: simulate exited {result['exit']}", file=sys.stderr)
            return 1
    if args:
        return 0
    for mode in ("lockstep", "alone"):
        result = _one(["--one-sweep", mode], env)
        print(f"{'sweep ' + mode:<20} {result['rows']:>7} {result['setup_mb']:>9.2f} "
              f"{result['run_mb']:>8.2f}  {result['wall_s']:.2f} s")
        if result["exit"] != 0:
            print(f"sweep {mode}: exited {result['exit']}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(sys.argv[2])))
    elif sys.argv[1:2] == ["--one-sweep"]:
        print(json.dumps(measure_sweep(sys.argv[2])))
    else:
        sys.exit(main(sys.argv[1:]))
