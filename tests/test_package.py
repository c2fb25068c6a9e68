import os
import re
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


def test_star_import():
    namespace = {}
    exec("from lumped_pid import *", namespace)
    assert set(lumped_pid.__all__) <= set(namespace)


# Prints the scipy modules loaded once the statements before it have run.
_SCIPY_MODULES = "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"


def _scipy_modules_after(code: str, tmp_path) -> str:
    # run from tmp_path, with the package importable as the tests import it
    package_root = Path(lumped_pid.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", f"{code}; {_SCIPY_MODULES}"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestRuntimeWithoutScipy:
    """The library and CLI run on numpy alone; scipy is a test reference."""

    def test_cli_import_loads_no_scipy(self, tmp_path):
        assert _scipy_modules_after("import sys, lumped_pid.cli", tmp_path) == "[]"

    def test_noisy_simulate_loads_no_scipy(self, tmp_path):
        text = (ROOT / "configs" / "chain_step.conf").read_text()
        conf = tmp_path / "noisy.conf"
        conf.write_text("\n".join(line for line in text.splitlines()
                                  if not line.startswith(("noise.sigma", "sim.duration")))
                        + "\nnoise.sigma = 0.01\nsim.duration = 0.5\n")
        code = ("import sys, lumped_pid.cli; "
                f"assert lumped_pid.cli.main(['simulate', '--config', {str(conf)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]) == 0")
        assert _scipy_modules_after(code, tmp_path) == "[]"
        assert (tmp_path / "out" / "trace.csv").is_file()

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
        assert names == ["numpy"]
        assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
