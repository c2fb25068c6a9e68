"""Print the peak resident set size of ``simulate`` on each stock config.

Runs ``lumped-pid simulate`` on each ``configs/*.conf`` (or on the configs
given), one after another, each in a fresh interpreter, and prints per
config the trace rows and the process's ``ru_maxrss`` in MB: once after
set-up (importing ``lumped_pid.cli`` and building the scenario) and once
after the run, which writes ``trace.csv`` and ``metrics.csv`` to a temporary
directory. ``LUMPED_PID_SEED`` is removed, so each config runs with its own
``sim.seed``. From the repository root:

    python tools/peak_rss.py [config ...]
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def main(configs: list[str]) -> int:
    env = {k: v for k, v in os.environ.items() if k != "LUMPED_PID_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    print(f"{'config':<20} {'rows':>7} {'setup MB':>9} {'run MB':>8}")
    for config in configs or sorted(str(p) for p in (ROOT / "configs").glob("*.conf")):
        proc = subprocess.run([sys.executable, __file__, "--one", config], env=env,
                              capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{Path(config).name:<20} {result['rows']:>7} {result['setup_mb']:>9.2f} "
              f"{result['run_mb']:>8.2f}")
        if result["exit"] != 0:
            print(f"{config}: simulate exited {result['exit']}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(sys.argv[2])))
    else:
        sys.exit(main(sys.argv[1:]))
