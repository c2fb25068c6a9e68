import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import lumped_pid

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    missing = [name for name in lumped_pid.__all__ if not hasattr(lumped_pid, name)]
    assert missing == []
    assert len(set(lumped_pid.__all__)) == len(lumped_pid.__all__)


def test_every_benchmark_layer_resolves():
    # perfbench wraps each layer by its module and attribute path; one that
    # no longer resolves would silently drop out of the per-layer metrics
    layers = runpy.run_path(str(ROOT / "perfbench" / "layers.py"))["LAYERS"]
    unresolved = []
    for name, module, attr, _ in layers:
        try:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            unresolved.append(name)
            continue
        if not callable(owner):
            unresolved.append(name)
    assert layers and unresolved == []


def test_star_import():
    namespace = {}
    exec("from lumped_pid import *", namespace)
    assert set(lumped_pid.__all__) <= set(namespace)


def _loaded_after(code: str, tmp_path, *packages: str) -> str:
    """The modules of ``packages`` that a fresh interpreter has loaded once
    ``code`` has run, as a printed list."""
    # run from tmp_path, with the package importable as the tests import it
    package_root = Path(lumped_pid.__file__).resolve().parent.parent
    report = (f"import sys; print([m for m in sys.modules "
              f"if m in {packages!r} or m.startswith({tuple(p + '.' for p in packages)!r})])")
    proc = subprocess.run([sys.executable, "-c", f"{code}; {report}"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestRuntimeWithoutScipy:
    """The library and CLI run on numpy alone; scipy is a test reference."""

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert _loaded_after("import lumped_pid.cli", tmp_path, "scipy") == "[]"

    def test_noisy_simulate_loads_no_scipy(self, tmp_path):
        text = (ROOT / "configs" / "chain_step.conf").read_text()
        conf = tmp_path / "noisy.conf"
        conf.write_text("\n".join(line for line in text.splitlines()
                                  if not line.startswith(("noise.sigma", "sim.duration")))
                        + "\nnoise.sigma = 0.01\nsim.duration = 0.5\n")
        code = ("import lumped_pid.cli; "
                f"assert lumped_pid.cli.main(['simulate', '--config', {str(conf)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]) == 0")
        assert _loaded_after(code, tmp_path, "scipy") == "[]"
        assert (tmp_path / "out" / "trace.csv").is_file()

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
        assert names == ["numpy"]
        assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


class TestProcessPoolOnlyForParallelSweeps:
    """Only ``sweep --parallel N`` with N > 1 imports the process pool."""

    POOL = ("concurrent.futures", "multiprocessing")

    def test_cli_import_loads_no_pool(self, tmp_path):
        assert _loaded_after("import lumped_pid.cli", tmp_path, *self.POOL) == "[]"

    def test_serial_sweep_loads_no_pool(self, tmp_path):
        conf = tmp_path / "short.conf"
        text = (ROOT / "configs" / "chain_step.conf").read_text()
        conf.write_text(text.replace("sim.duration = 10.0", "sim.duration = 0.05"))
        code = ("import lumped_pid.cli; "
                f"assert lumped_pid.cli.main(['sweep', '--config', {str(conf)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}, '--grid', 'omega=1,2']) == 0")
        assert _loaded_after(code, tmp_path, *self.POOL) == "[]"
        assert (tmp_path / "out" / "sweep.csv").is_file()


class TestPlotterOnlyForPlots:
    """Only ``simulate --plots`` imports the SVG plotter."""

    PLOTTER = "lumped_pid.svgplot"

    @staticmethod
    def command(tmp_path, *args):
        conf = tmp_path / "short.conf"
        text = (ROOT / "configs" / "chain_step.conf").read_text()
        conf.write_text(text.replace("sim.duration = 10.0", "sim.duration = 0.05"))
        argv = [*args, "--config", str(conf), "--out", str(tmp_path / "out")]
        return f"import lumped_pid.cli; assert lumped_pid.cli.main({argv!r}) == 0"

    def test_sweep_loads_no_plotter(self, tmp_path):
        code = self.command(tmp_path, "sweep", "--grid", "omega=1,2")
        assert _loaded_after(code, tmp_path, self.PLOTTER) == "[]"
        assert (tmp_path / "out" / "sweep.csv").is_file()

    def test_simulate_without_plots_loads_no_plotter(self, tmp_path):
        code = self.command(tmp_path, "simulate")
        assert _loaded_after(code, tmp_path, self.PLOTTER) == "[]"
        assert (tmp_path / "out" / "trace.csv").is_file()

    def test_simulate_with_plots_loads_it(self, tmp_path):
        code = self.command(tmp_path, "simulate", "--plots")
        assert _loaded_after(code, tmp_path, self.PLOTTER) == f"[{self.PLOTTER!r}]"
        assert (tmp_path / "out" / "plot_state.svg").is_file()


def test_readme_quick_start_runs(tmp_path):
    # the README's one python block, run as written in a fresh directory
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    package_root = Path(lumped_pid.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr
    assert "kp=44.0, ki=40.0, kd=14.0" in proc.stdout
    assert (tmp_path / "trace.csv").is_file()
