"""lumped-pid benchmark: closed-loop simulate and sweep workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (``worker.py``): set-up
(import ``lumped_pid.cli``, load and validate the workload's configs), then
every invocation of the workload through ``lumped_pid.cli.main``. Passes
repeat until ``--seconds`` have gone by; end-to-end metrics are medians over
the run. ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead. After each pass the outputs are checked; a failed
check fails its operation (one simulate call or one sweep cell).

The metric names, units and bounds are those of BENCHMARK.json at the root of
the checkout. The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 4     # set-up-only interpreters per run, beside one per pass
IMPORTTIME_PROCESSES = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LUMPED_PID_SEED", None)  # the seed reaches the program through sim.seed only
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(spec: dict, importtime: bool = False) -> tuple[dict, str]:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=_child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported lumped_pid from {result['module']}, not from {SRC}")
    return result, proc.stderr


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run of one workload: inputs, passes and their results."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.configs = {}
        self.config_paths = {}
        for inv in workload.invocations:
            cfg = inv.config(seed)
            path = workdir / f"{inv.label}.conf"
            workloads.write_config(cfg, path)
            self.configs[inv.label] = cfg
            self.config_paths[inv.label] = path
        self.steps = {inv.label: inv.steps(self.configs[inv.label]) for inv in workload.invocations}
        self.total_steps = sum(self.steps.values())
        recorded = json.loads((HERE / "digests.json").read_text())
        self.recorded = recorded[workload.name] if seed == workloads.RECORDED_SEED else {}
        self.setup_s: list[float] = []
        self.setup_raw_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _spec(self, argv, trace=False) -> dict:
        return {"src": str(SRC), "configs": [str(p) for p in self.config_paths.values()],
                "argv": argv, "trace": trace}

    def _add_setup(self, result: dict) -> None:
        self.setup_s.append(result["setup_s"])
        self.setup_raw_s.append(result["setup_raw_s"])

    def setup_only(self) -> None:
        self._add_setup(run_worker(self._spec(None))[0])

    def importtime(self) -> dict:
        """Cumulative import microseconds per module, scaled like set-up time."""
        result, stderr = run_worker(self._spec(None), importtime=True)
        speed = result["setup_s"] / result["setup_raw_s"]
        return {m: us * speed for m, us in layers.parse_importtime(stderr).items()}

    def one_pass(self, index: int, trace: bool) -> dict:
        """Run one pass in a fresh interpreter, check its outputs, delete them."""
        passdir = self.workdir / f"pass{index}"
        invs = self.workload.invocations
        argv = [inv.argv(self.config_paths[inv.label], passdir / inv.label) for inv in invs]
        result, _ = run_worker(self._spec(argv, trace))
        self._add_setup(result)
        result["digests"] = {}
        result["csv_bytes"] = 0
        result["cells"] = result["cells_failed"] = 0
        for inv, code in zip(invs, result["codes"]):
            out = passdir / inv.label
            verdicts = workloads.check_outputs(inv, self.configs[inv.label], out, code)
            self.attempted += len(verdicts)
            self.failures += [f"{inv.label}: {v}" for v in verdicts if v is not None]
            if inv.grid:
                result["cells"] += len(verdicts)
                result["cells_failed"] += sum(v is not None for v in verdicts)
            output = out / inv.output
            if output.exists():
                result["digests"][inv.label] = _sha256(output)
                if not inv.grid:
                    result["csv_bytes"] += output.stat().st_size
        shutil.rmtree(passdir, ignore_errors=True)
        return result

    def digest_match(self, result: dict) -> int:
        return sum(result["digests"].get(label) == digest
                   for label, digest in self.recorded.items())


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(run: Run, result: dict) -> dict:
    """Per-layer metrics of one traced pass, times scaled like the pass."""
    speed = result["speed"]
    m = {}
    for name, _, _, kind in layers.LAYERS:
        s = result["layers"][name]
        us, self_us = s["us"] * speed, s["self_us"] * speed
        m[f"{name}.calls"] = s["calls"]
        if kind == "us_per_call":
            m[f"{name}.us_per_call"] = us / s["calls"] if s["calls"] else 0.0
        elif kind == "us":
            m[f"{name}.us"] = us
        elif kind == "self_us":
            m[f"{name}.self_us"] = self_us
        elif kind == "self_us_per_step":
            m[f"{name}.self_us_per_step"] = self_us / run.total_steps
    to_csv_us = result["layers"]["sim.SimTrace.to_csv"]["us"] * speed
    m["sim.SimTrace.to_csv.bytes"] = result["csv_bytes"]
    m["sim.SimTrace.to_csv.MB_per_s"] = result["csv_bytes"] / to_csv_us if to_csv_us else 0.0
    m["cli.sweep.cells"] = result["cells"]
    m["cli.sweep.cells_failed"] = result["cells_failed"]
    m["sim.digest_match"] = run.digest_match(result)
    return m


def coverage_errors(run: Run, traced: list) -> list:
    """Layers listed as exercised that recorded no call, and layers listed as
    bypassed that recorded any, in any traced pass."""
    errors = []
    for result in traced:
        errors += [f"layer {name} not found in the program" for name in result["missing"]]
        for name in sorted(run.workload.exercised):
            if result["layers"][name]["calls"] == 0:
                errors.append(f"layer {name} is exercised by {run.workload.name} but recorded 0 calls")
        for name in sorted(run.workload.bypassed):
            calls = result["layers"][name]["calls"]
            if calls:
                errors.append(f"layer {name} is bypassed by {run.workload.name} but recorded {calls} calls")
    return sorted(set(errors))


def environment() -> str:
    try:
        versions = f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}"
    except metadata.PackageNotFoundError:
        versions = "numpy/scipy versions unknown"
    return (f"{platform.machine()} {platform.processor() or platform.platform()}, "
            f"nproc {os.cpu_count()}, Python {platform.python_version()}, {versions}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "lumped_pid" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: no lumped_pid source under {SRC} or no {bench_file}", file=sys.stderr)
        return 2
    declared = json.loads(bench_file.read_text())["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / "work"))
    try:
        run = Run(workload, args.seed, workdir)
        start = time.monotonic()
        run.setup_only()  # warm-up: byte-compiles the package, fills the file cache
        run.setup_s.clear()
        run.setup_raw_s.clear()
        for _ in range(SETUP_PROCESSES):
            run.setup_only()
        untraced, traced = [], []
        while (time.monotonic() - start < args.seconds or not untraced
               or (args.trace and not traced)):
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            (traced if is_traced else untraced).append(
                run.one_pass(len(untraced) + len(traced), is_traced))
        imports = ([run.importtime() for _ in range(IMPORTTIME_PROCESSES)]
                   if args.trace else [])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall = _median(r["wall_s"] for r in untraced)
    errors = []
    if args.trace:
        per_pass = [layer_metrics(run, r) for r in traced]
        computed = {name: _median(p[name] for p in per_pass) for name in per_pass[0]}
        computed["trace.overhead"] = _median(r["wall_s"] for r in traced) / wall
        for module in layers.IMPORTED_MODULES:
            computed[f"import.{module}.us"] = _median(i.get(module, 0.0) for i in imports)
        errors = coverage_errors(run, traced)
    else:
        computed = {
            "setup_s": _median(run.setup_s),
            "wall_s": wall,
            "us_per_step": wall / run.total_steps * 1e6,
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced),
        }

    names = [m["name"] for m in declared]
    if set(names) != set(computed):
        print(f"error: BENCHMARK.json declares {sorted(set(names) - set(computed))} "
              f"that the benchmark does not compute, and the benchmark computes "
              f"{sorted(set(computed) - set(names))} that it does not declare", file=sys.stderr)
        return 1

    failed = len(run.failures)
    lines = [
        f"workload {workload.name}: seed {args.seed}, trace {args.trace}, "
        f"{len(untraced)} untraced and {len(traced)} traced passes, "
        f"{len(run.setup_s)} set-ups, {run.total_steps} plant steps per pass",
        f"  why: {workload.why}",
        f"  environment: {environment()}",
    ]
    if not args.trace:
        for key, unit, samples, raw in (
            ("setup_s", "s", run.setup_s, run.setup_raw_s),
            ("wall_s", "s", [r["wall_s"] for r in untraced], [r["wall_raw_s"] for r in untraced]),
            ("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in untraced], None),
        ):
            lines.append(f"  {key:<12} {computed[key]:.4f} {unit} (median of {len(samples)}, "
                         f"range {min(samples):.4f}..{max(samples):.4f}"
                         + (f"; as measured {_median(raw):.4f})" if raw else ")"))
        lines.append(f"  us_per_step  {computed['us_per_step']:.3f} us")
        lines.append(f"  speed        {_median(r['speed'] for r in untraced):.3f} "
                     f"(scaled / measured time, median over passes)")
    lines.append(f"  fail_frac    {failed / run.attempted:g} ({failed} of {run.attempted} operations failed)")
    for i, inv in enumerate(workload.invocations):
        per_step = _median(r["walls"][i] for r in untraced) / run.steps[inv.label] * 1e6
        lines.append(f"  {inv.label:<18} {per_step:8.3f} us/step over {run.steps[inv.label]} steps")
    if run.recorded:
        lines.append(f"  digests: {run.digest_match(untraced[0])} of {len(run.recorded)} output "
                     f"files match the recorded seed {workloads.RECORDED_SEED}")
    else:
        lines.append(f"  digests: none recorded for seed {args.seed}; property checks only")
    lines += [f"  FAILED {f}" for f in run.failures[:20]]
    lines += [f"  COVERAGE {e}" for e in errors]
    print("\n".join(lines))

    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
