import dataclasses
import hashlib
import math
import os
import re
import runpy
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid import cli
from lumped_pid.cli import main
from lumped_pid.config import build_scenario, load_config, parse_config_text
from lumped_pid.controller import synthesize_gains
from lumped_pid.errors import ConfigError
from lumped_pid.plants import chain, vehicle
from lumped_pid.polylti import MAX_GRID_POINTS
from lumped_pid.signals import NoiseSpec, Sum
from lumped_pid.svgplot import line_plot_svg, write_line_plot


CHAIN_CONF = """
plant.kind = chain
plant.order = 2
plant.b = 1.0
controller.kind = generalized
controller.omega = 2.0
controller.omega_f = 10.0
disturbance.kind = constant
disturbance.value = 1.0
sim.dt = 0.001
sim.duration = 2.0
sim.seed = 42
"""


VEHICLE_CONF = """
plant.kind = vehicle
plant.wheelbase = 2.7
plant.speed = 10.0
path.kind = line
path.length = 200.0
controller.kind = observer
controller.omega = 0.5
controller.omega_d = 2.0
disturbance.kind = constant
disturbance.value = 0.03490658503988659
sim.dt = 0.001
sim.duration = 2.0
sim.seed = 0
"""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH_INPUTS = CONFIGS.parent / "perfbench" / "inputs"


def stock(name, **changes):
    """A stock config's text with keys replaced (None drops a key)."""
    lines = [line for line in (CONFIGS / name).read_text().splitlines()
             if line.split("=", 1)[0].strip() not in changes]
    lines += [f"{key} = {value}" for key, value in changes.items() if value is not None]
    return "\n".join(lines) + "\n"


def read_rows(csv_path):
    header, *lines = csv_path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def write_conf(tmp_path, text, name="scenario.conf"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        flat = parse_config_text(CHAIN_CONF)
        assert flat["plant.kind"] == "chain"
        assert flat["controller.omega"] == "2.0"

    def test_comments_and_blanks(self):
        flat = parse_config_text("# whole comment\n\nplant.kind = chain # trailing\n")
        assert flat == {"plant.kind": "chain"}

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("plant.kind chain\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="^line 2: empty key or value in 'plant.order ='$"):
            parse_config_text("plant.kind = chain\nplant.order =\n")

    def test_missing_plant_kind(self):
        with pytest.raises(ConfigError, match="^plant.kind: required$"):
            build_scenario({"sim.duration": "1"})

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_config_text("plnt.kind = chain\n")

    def test_build_chain_scenario(self):
        scenario = build_scenario(parse_config_text(CHAIN_CONF))
        assert scenario.plant_kind == "chain"
        assert scenario.plant["order"] == 2
        assert scenario.controller["omega"] == 2.0
        assert scenario.disturbance(0.0) == 1.0
        assert scenario.seed == 42

    def test_sum_disturbance(self):
        # the sum replaces the constant: its disturbance.value would go unread
        text = CHAIN_CONF.replace("disturbance.value = 1.0\n", "").replace(
            "disturbance.kind = constant\n", "") + (
            "disturbance.kind = sum\ndisturbance.terms = 2\n"
            "disturbance.term0.kind = constant\ndisturbance.term0.value = 1.0\n"
            "disturbance.term1.kind = sinusoid\ndisturbance.term1.amplitude = 0.5\n"
            "disturbance.term1.freq = 3.0\n"
        )
        scenario = build_scenario(parse_config_text(text))
        assert isinstance(scenario.disturbance, Sum)
        assert scenario.disturbance(0.0) == pytest.approx(1.0)

    def test_field_level_error_message(self):
        with pytest.raises(ConfigError, match="plant.order"):
            build_scenario(parse_config_text(CHAIN_CONF.replace(
                "plant.order = 2", "plant.order = two")))

    def test_missing_duration(self):
        with pytest.raises(ConfigError, match="sim.duration"):
            build_scenario(parse_config_text("plant.kind = chain\nplant.order = 1\n"))


class TestTune:
    def test_module_runs_as_a_script(self, tmp_path, capsys, monkeypatch):
        # python -m lumped_pid.cli exits with main's status; the module is
        # already imported here, so runpy warns that it runs it a second time
        conf = write_conf(tmp_path, CHAIN_CONF)
        monkeypatch.setattr(sys, "argv", ["lumped-pid", "tune", "--config", conf])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
                pytest.raises(SystemExit) as exited:
            runpy.run_module("lumped_pid.cli", run_name="__main__")
        assert exited.value.code == 0
        assert "kd = 14" in capsys.readouterr().out

    def test_pid_values(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["tune", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "kd = 14" in out and "kp = 44" in out and "ki = 40" in out
        assert "a0       = 4" in out and "a1       = 4" in out

    def test_pi_with_division(self, tmp_path, capsys):
        text = CHAIN_CONF.replace("plant.order = 2", "plant.order = 1")
        text = text.replace("plant.b = 1.0", "plant.b = 2.0")
        text = text.replace("controller.omega = 2.0", "controller.omega = 5.0")
        text = text.replace("controller.omega_f = 10.0", "controller.omega_f = 20.0")
        conf = write_conf(tmp_path, text)
        assert main(["tune", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "kp = 25" in out and "ki = 100" in out
        assert "kp/b = 12.5" in out and "ki/b = 50" in out

    def test_higher_order_has_no_reduction(self, tmp_path, capsys):
        text = CHAIN_CONF.replace("plant.order = 2", "plant.order = 3")
        conf = write_conf(tmp_path, text)
        assert main(["tune", "--config", conf]) == 0
        out = capsys.readouterr().out
        assert "a0       = 8" in out and "a1       = 12" in out and "a2       = 6" in out
        assert "no classic PI/PID reduction" in out

    def test_csv_output(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        out_csv = tmp_path / "gains.csv"
        assert main(["tune", "--config", conf, "--out", str(out_csv)]) == 0
        capsys.readouterr()
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "name,value"
        values = dict(line.split(",") for line in lines[1:])
        assert float(values["kd"]) == 14.0
        assert float(values["kp_over_b"]) == 44.0

    def test_gains_are_those_a_run_uses(self, tmp_path, capsys):
        # no controller.omega: tune takes the default a simulate run takes
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"controller.omega": None}))
        assert main(["tune", "--config", conf, "--out", str(tmp_path / "gains.csv")]) == 0
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        (row,) = read_rows(tmp_path / "sim" / "metrics.csv")
        gains = dict(line.split(",") for line in
                     (tmp_path / "gains.csv").read_text().splitlines()[1:])
        omega = float(row["omega"])
        assert float(gains["omega"]) == omega == 1.0
        assert float(gains["omega_f"]) == float(row["omega_f"])
        a = synthesize_gains(2, omega)
        assert [float(gains["a0"]), float(gains["a1"])] == list(a)


# chain configs every command rejects, and the start of the message naming the key
CHAIN_REJECTED = pytest.mark.parametrize("changes,message", [
    ({"controller.omegaa": 3}, "controller.omegaa: not a key of plant 'chain'"),
    ({"plant.x0": "1,2,3"}, "plant.x0: expected 2 values"),
    ({"plant.x0": "1,abc"}, "plant.x0: expected comma-separated numbers"),
    ({"controller.kind": "lqr"}, "controller.kind: unknown kind 'lqr'"),
    ({"sim.duration": None}, "sim.duration: required"),
    ({"controller.quadrature": "simpson"}, "controller.quadrature: unknown quadrature 'simpson'"),
    ({"controller.observer_form": "bogus"},
     "controller.observer_form: unknown observer_form 'bogus'"),
    ({"noise.sigma": "0.1,0.2,0.3"}, "noise.sigma: expected 1 or 2 values, got 3"),
    ({"controller.omega": -1}, "controller.omega: must be positive, got -1.0"),
    ({"plant.order": 25, "plant.x0": None}, "plant.order: must be at most 20"),
    ({"plant.order": 21}, "plant.order: must be at most 20 with controller.kind 'generalized', "
                          "got 21"),
    ({"controller.kind": "pid", "plant.order": 3},
     "plant.order: must be 1 or 2 with controller.kind 'pid', got 3"),
    ({"plant.b": 0}, "plant.b: input coefficient must be nonzero"),
    ({"plant.state_coeffs": "0.5"}, "plant.state_coeffs: expected 2 coefficients, got 1"),
    # an option the controller kind does not read, set to a value other than its default
    *(({"controller.kind": kind, f"controller.{key}": value},
       f"controller.{key}: not read by controller.kind '{kind}'")
      for kind in ("homogeneous", "none")
      for key, value in (("quadrature", "trapezoidal"), ("observer_form", "pid"),
                         ("seed_integral", "true"))),
    ({"controller.kind": "pid", "controller.observer_form": "pid"},
     "controller.observer_form: not read by controller.kind 'pid'"),
    ({"controller.kind": "pid", "controller.seed_integral": "true"},
     "controller.seed_integral: not read by controller.kind 'pid'"),
    ({"controller.observer_form": "pid", "controller.seed_integral": "true", "plant.x0": "0.5,0.3"},
     "controller.seed_integral: not read by controller.observer_form 'pid'"),
], ids=["unread_key", "x0_length", "x0_number", "controller_kind", "no_duration",
        "quadrature", "observer_form", "sigma_count", "omega_negative", "order_too_high",
        "order_21", "pid_order_3", "b_zero", "state_coeffs_length",
        *(f"{kind}_{key}" for kind in ("homogeneous", "none")
          for key in ("quadrature", "observer_form", "seed_integral")),
        "pid_observer_form", "pid_seed_integral", "pid_form_seed_integral"])


@pytest.mark.parametrize("command", ["tune", "bode"])
class TestChainCommandsReadAsSimulate:
    """tune and bode read a config as simulate does, and take only chains."""

    @CHAIN_REJECTED
    def test_what_simulate_rejects_exits_2(self, tmp_path, capsys, command, changes, message):
        conf = write_conf(tmp_path, stock("chain_step.conf", **changes))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "sim").exists()
        assert main([command, "--config", conf, "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out.csv").exists()

    def test_order_beyond_synthesis_without_a_controller(self, tmp_path, capsys, command):
        # simulate runs it; tune and bode synthesize gains whatever the kind
        conf = write_conf(tmp_path, stock("chain_step.conf", **{
            "controller.kind": "none", "plant.order": 21, "sim.duration": 0.01}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        assert main([command, "--config", conf, "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"config error: plant.order: {command} takes at most 20, got 21\n")

    def test_other_plants_exit_2(self, tmp_path, capsys, command):
        for name, kind in (("vtol_wind.conf", "vtol"), ("vehicle_bias.conf", "vehicle")):
            assert main([command, "--config", str(CONFIGS / name),
                         "--out", str(tmp_path / "out.csv")]) == 2
            assert f"plant.kind: {command} takes a chain plant, got '{kind}'" in \
                capsys.readouterr().err


@CHAIN_REJECTED
def test_sweep_rejects_what_simulate_rejects(tmp_path, capsys, changes, message):
    conf = write_conf(tmp_path, stock("chain_step.conf", **changes))
    assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                 "--grid", "omega=1,2"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "x").exists()
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        build_scenario(parse_config_text(stock("chain_step.conf", **changes)))


# configs of the other plants that break a rule across options, and the start
# of the message naming the key
OTHERS_REJECTED = pytest.mark.parametrize("conf,changes,message", [
    ("vehicle_bias.conf", {"path.kind": "csv", "path.length": None},
     "path.file: required for path.kind = csv"),
    ("vehicle_bias.conf", {"controller.kind": "known_d", "controller.omega_d": 7},
     "controller.omega_d: not read by controller.kind 'known_d'"),
    ("vehicle_bias.conf", {"controller.kind": "known_d", "controller.quadrature": "trapezoidal"},
     "controller.quadrature: not read by controller.kind 'known_d'"),
    ("vtol_wind.conf", {"plant.inertia": "0.02,0.001,0,0,0.02,0,0,0,0.04"},
     "plant.inertia: must be symmetric"),
    ("vtol_wind.conf", {"plant.inertia": "0.02,-0.02,0.04"},
     "plant.inertia: must be a positive-definite matrix"),
    # a determinant that underflows to 0, overflows, or is subnormal (1 / det3 overflows)
    *(("vtol_wind.conf", {"plant.inertia": f"{v},{v},{v}"},
       "plant.inertia: its determinant or inverse is beyond the float range")
      for v in ("1e-150", "1e103", "1e-103")),
    # a path or reference option the kind does not read, set away from its default
    ("vehicle_bias.conf", {"path.kind": "circle", "path.length": 5},
     "path.length: not read by path.kind 'circle'"),
    ("vehicle_bias.conf", {"path.radius": 20}, "path.radius: not read by path.kind 'line'"),
    ("vtol_wind.conf", {"reference.radius": 2},
     "reference.radius: not read by reference.kind 'hover'"),
    ("vtol_wind.conf", {"reference.kind": "circle", "reference.position": "1,0,0"},
     "reference.position: not read by reference.kind 'circle'"),
], ids=["csv_without_file", "known_d_omega_d", "known_d_quadrature", "vtol_inertia_asymmetric",
        "vtol_inertia_indefinite", "vtol_inertia_det_underflow", "vtol_inertia_det_overflow",
        "vtol_inertia_det_subnormal", "circle_path_length", "line_path_radius",
        "hover_reference_radius", "circle_reference_position"])


@OTHERS_REJECTED
def test_simulate_and_sweep_reject_before_any_output(tmp_path, capsys, conf, changes, message):
    text = stock(conf, **changes)
    for command, *grid in (["simulate"], ["sweep", "--grid", "omega=1,2"]):
        out = tmp_path / command
        assert main([command, "--config", write_conf(tmp_path, text), "--out", str(out),
                     *grid]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        build_scenario(parse_config_text(text))


def test_options_a_kind_does_not_read_are_judged_by_value(tmp_path, capsys):
    """An option a kind does not read may be given at its default, and every
    chain kind reads omega and omega_f: tune and bode read them."""
    text = stock("bound_demo.conf", **{"controller.quadrature": "rectangular",
                                       "controller.observer_form": "integral",
                                       "controller.seed_integral": "false",
                                       "sim.duration": 1.0})
    conf = write_conf(tmp_path, text)
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
    assert main(["tune", "--config", conf]) == 0
    assert "omega_f  = 1" in capsys.readouterr().out
    # path.length = 200.0 and reference.position = 0,0,0 stay in the stock configs
    for conf, changes in (("vehicle_bias.conf", {"controller.kind": "known_d",
                                                 "controller.omega_d": 2.0}),
                          ("vehicle_bias.conf", {"path.kind": "circle"}),
                          ("vtol_wind.conf", {"reference.kind": "circle"}),
                          ("vtol_wind.conf", {"reference.radius": 1.0})):
        text = stock(conf, **changes, **{"sim.duration": 0.1})
        assert main(["simulate", "--config", write_conf(tmp_path, text),
                     "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()


class TestOutputPaths:
    """Each command creates its output directory before any run, and an
    ``--out`` path that cannot be created or written exits 2 naming it."""

    def test_tune_creates_the_parent_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "gains.csv"
        assert main(["tune", "--config", write_conf(tmp_path, CHAIN_CONF),
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("name,value\n")

    @pytest.mark.parametrize("command", ["tune", "bode"])
    def test_a_file_path_that_is_a_directory_exits_2(self, tmp_path, capsys, command):
        assert main([command, "--config", write_conf(tmp_path, CHAIN_CONF),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --out: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_directory_path_that_is_a_file_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("kept")
        grid = ["--grid", "omega=1,2"] if command == "sweep" else []
        assert main([command, "--config", write_conf(tmp_path, CHAIN_CONF),
                     "--out", str(out), *grid]) == 2
        assert capsys.readouterr().err.startswith(f"config error: --out: cannot write {out}: ")
        assert out.read_text() == "kept"

    def test_sweep_creates_its_directory_before_any_cell_runs(self, tmp_path, capsys,
                                                              monkeypatch):
        out = tmp_path / "new" / "sweep"
        sweep_rows = cli._sweep_rows

        def spy(cells):
            assert out.is_dir()
            return sweep_rows(cells)

        monkeypatch.setattr(cli, "_sweep_rows", spy)
        conf = write_conf(tmp_path, CHAIN_CONF.replace("sim.duration = 2.0", "sim.duration = 0.1"))
        assert main(["sweep", "--config", conf, "--out", str(out), "--grid", "omega=1,2"]) == 0
        # and a directory that cannot be created stops the sweep before its first cell
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(cli, "_sweep_rows", None)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "file" / "sweep"),
                     "--grid", "omega=1,2"]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: cannot write ")


def run_python(tmp_path, code):
    """The stdout of ``code`` run in its own interpreter with a timeout and
    1 GiB of data, which must exit 0: a loop that never ends, or an
    allocation past the limit, fails instead of hanging or swapping."""
    resource = pytest.importorskip("resource")
    package_root = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(package_root)},
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_DATA,
                                                                (2**30, 2**30)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["simulate", "--config", conf, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", conf, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_plots_written(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        out = tmp_path / "run"
        assert main(["simulate", "--config", conf, "--out", str(out), "--plots"]) == 0
        capsys.readouterr()
        for name in ("plot_state.svg", "plot_control.svg", "plot_observer.svg"):
            content = (out / name).read_text()
            assert content.startswith("<svg") and "polyline" in content

    def test_plot_of_a_constant_series(self, tmp_path, capsys):
        # without a controller u stays 0: its plot widens the flat y range
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"controller.kind": "none",
                                                                "sim.duration": 0.1}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", conf, "--out", str(out), "--plots"]) == 0
        capsys.readouterr()
        content = (out / "plot_control.svg").read_text()
        assert "polyline" in content and ">-1</text>" in content and ">1</text>" in content

    @pytest.mark.parametrize("conf,changes,svg", [
        ("chain_step.conf", {"controller.kind": "pid"}, "plot_observer.svg"),
        ("chain_step.conf", {"controller.kind": "none"}, "plot_observer.svg"),
        ("vehicle_bias.conf", {"controller.kind": "known_d", "controller.omega_d": None},
         "plot_steering.svg"),
    ], ids=["chain_pid", "chain_none", "vehicle_known_d"])
    def test_an_estimate_the_controller_does_not_make_is_not_plotted(
            self, tmp_path, capsys, conf, changes, svg):
        # its column is all NaN: a polyline of it would read "70.00,nan ..."
        conf = write_conf(tmp_path, stock(conf, **changes, **{"sim.duration": 0.5}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", conf, "--out", str(out), "--plots"]) == 0
        capsys.readouterr()
        assert not any("nan" in p.read_text() for p in out.glob("*.svg"))
        assert (out / svg).read_text().count("<polyline") == 1

    def test_infinite_samples_are_left_out_of_a_plot(self, tmp_path, capsys):
        # an observer bandwidth of 1e308 overflows in the first step: the
        # last row records u = -inf and f_hat = inf beside finite samples
        conf = write_conf(tmp_path, "plant.kind = chain\ncontroller.omega_f = 1e308\n"
                          "disturbance.kind = constant\ndisturbance.value = 1e4\n"
                          "sim.dt = 0.001\nsim.duration = 0.001\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", conf, "--out", str(out), "--plots"]) == 0
        capsys.readouterr()
        last = read_rows(out / "trace.csv")[-1]
        assert (last["u"], last["f_hat"]) == ("-inf", "inf")
        for svg in out.glob("*.svg"):
            text = svg.read_text()
            assert "polyline" in text and "nan" not in text and "inf" not in text

    def test_a_nan_sample_does_not_decide_the_range(self):
        # min and max keep a NaN that comes first, and skip one that comes later
        def y_ticks(ys):
            svg = line_plot_svg([0.0, 1.0, 2.0], {"y": ys})
            assert "nan" not in svg
            return re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>', svg)

        assert y_ticks([math.nan, 1.0, 3.0]) == y_ticks([1.0, math.nan, 3.0])
        assert y_ticks([1.0, math.nan, 3.0]) == ["1", "1.5", "2", "2.5", "3"]

    @pytest.mark.parametrize("ys,ticks", [
        ([-1.7e308, 1.7e308], ["-1e+308", "0", "1e+308"]),  # the span overflows
        ([-1e306, 1e306], ["-1e+306", "-5e+305", "0", "5e+305", "1e+306"]),  # ph * span does
        ([1.79e308, sys.float_info.max], ["1.79e+308", "1.792e+308", "1.794e+308",
                                          "1.796e+308"]),  # the last tick's bound does
    ], ids=["span", "product", "tick_bound"])
    def test_finite_samples_near_the_float_limit_are_plotted(self, ys, ticks):
        svg = line_plot_svg([0.0, 1.0], {"u": ys})
        assert "nan" not in svg and "inf" not in svg
        assert re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>', svg) == ticks
        assert re.findall(r'points="([^"]*)"', svg) == ["70.00,432.00 780.00,36.00"]

    @pytest.mark.parametrize("x,ys", [
        ([0.0, 1.0], [1e300, 1e300]),  # 1e300 - 1.0 is 1e300
        ([1e20, 1e20], [0.0, 1.0]),
        ([0.0, 1.0], [8e15, 8e15]),  # 8e15 - 1.0 moves, but a 0.5 tick step does not
        ([0.0, 1.0], [sys.float_info.max] * 2),
        ([sys.float_info.max] * 2, [-sys.float_info.max] * 2),
    ], ids=["y_1e300", "x_1e20", "y_8e15", "y_max", "x_max"])
    def test_a_constant_range_past_unit_rounding_is_widened(self, x, ys):
        svg = line_plot_svg(x, {"u": ys})
        assert "nan" not in svg and "inf" not in svg
        assert len(re.findall(r'text-anchor="end"', svg)) >= 2

    @pytest.mark.parametrize("ys", [
        [0.0, 5e-324],  # span / _TICKS underflows to 0
        [-5e-324, 5e-324],
        [0.0, 2.5e-323],  # 10 ** floor(log10(span / _TICKS)) does
    ], ids=["zero_to_min", "min_to_min", "zero_to_5_min"])
    def test_a_subnormal_range_is_widened_as_a_constant_one(self, ys):
        svg = line_plot_svg([0.0, 1.0], {"u": ys})
        assert re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>', svg) == [
            "-1", "-0.5", "0", "0.5", "1"]
        assert re.findall(r'points="([^"]*)"', svg) == ["70.00,234.00 780.00,234.00"]
        svg = line_plot_svg(ys, {"u": [0.0, 1.0]})
        assert re.findall(r'font-size="11"[^>]*>([^<]*)</text>', svg)[:6] == [
            "0", "0.2", "0.4", "0.6", "0.8", "1"]

    def test_a_run_with_a_subnormal_state_is_plotted(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "plant.kind = chain\nplant.order = 2\n"
                          "plant.x0 = 5e-324,0\ncontroller.kind = homogeneous\n"
                          "sim.dt = 0.01\nsim.duration = 1.0\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", conf, "--out", str(out), "--plots"]) == 0
        capsys.readouterr()
        for name in ("plot_state.svg", "plot_control.svg", "plot_observer.svg"):
            assert "polyline" in (out / name).read_text()

    # A tick step below half the rounding unit of the values leaves a tick
    # unchanged when added. Each case runs in its own interpreter
    # (run_python), so that a tick loop that never ends, and appends a tick
    # on every pass, fails instead of hanging.
    def test_a_tick_step_below_the_rounding_unit_ends_the_ticks(self, tmp_path):
        svg = run_python(tmp_path, "from lumped_pid.svgplot import line_plot_svg; "
                              "print(line_plot_svg([0.0, 1.0], {'u': [1e16, 1e16 + 2]}))")
        ticks = [float(v) for v in re.findall(r'text-anchor="end"[^>]*>([^<]*)</text>', svg)]
        assert 1 <= len(ticks) <= 6 and ticks == sorted(set(ticks))

    def test_a_plot_of_a_huge_constant_disturbance_ends(self, tmp_path):
        # f_true spans 9e15 ... 9e15 + 2, and its y ticks step by 0.5
        conf = write_conf(tmp_path, "plant.kind = chain\nplant.order = 2\n"
                          "plant.state_coeffs = 4e-8,0\ncontroller.kind = none\n"
                          "disturbance.kind = constant\ndisturbance.value = 9e15\n"
                          "sim.dt = 0.00001\nsim.duration = 0.0001\n")
        out = tmp_path / "run"
        run_python(tmp_path, f"from lumped_pid.cli import main; assert main(['simulate', "
                                  f"'--config', {conf!r}, '--out', {str(out)!r}, '--plots']) == 0")
        for name in ("plot_state.svg", "plot_control.svg", "plot_observer.svg"):
            assert "polyline" in (out / name).read_text()

    def test_a_plot_that_fails_writes_no_file(self, tmp_path):
        with pytest.raises(ValueError):  # no series has a finite sample
            write_line_plot(tmp_path / "plot.svg", [0.0, 1.0], {"u": [math.nan, math.nan]})
        assert not (tmp_path / "plot.svg").exists()


def _narrow_samples(c):
    """Samples a few ulps, or a relative 1e-9 at most, from c."""
    return st.lists(st.integers(-8, 8).map(lambda k: c + k * math.ulp(c))
                    | st.floats(-1e-9, 1e-9).map(lambda r: c * (1.0 + r)),
                    min_size=1, max_size=20)


# finite samples of any size, subnormals and +-max among them, or a narrow
# span of 2**53-scale values
PLOT_SAMPLES = (
    st.lists(st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from([0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]),
             min_size=1, max_size=20)
    | (st.floats(2.0**52, 2.0**54) | st.floats(-(2.0**54), -(2.0**52))).flatmap(_narrow_samples))


@settings(max_examples=300, deadline=None)
@given(PLOT_SAMPLES, PLOT_SAMPLES)
def test_a_plot_of_finite_samples_is_finite_and_in_its_view_box(xs, ys):
    size = min(len(xs), len(ys))
    start = time.perf_counter()
    svg = line_plot_svg(xs[:size], {"u": ys[:size]})
    assert time.perf_counter() - start < 2.0
    assert "nan" not in svg and "inf" not in svg
    (points,) = re.findall(r'points="([^"]*)"', svg)
    for point in points.split():
        px, py = map(float, point.split(","))
        assert 0.0 <= px <= 800.0 and 0.0 <= py <= 480.0, point


class TestOneRowTrace:
    """A trace of one row, at t = 0, spans no time: its metrics row reads ok
    and leaves the bound blank, as any tail too short for the bound does."""

    TEXT = stock("bound_demo.conf", **{"sim.duration": 0.05, "sim.decimation": 20})

    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", write_conf(tmp_path, self.TEXT),
                     "--out", str(out), "--plots"]) == 0
        capsys.readouterr()
        assert len((out / "trace.csv").read_text().splitlines()) == 2
        (row,) = read_rows(out / "metrics.csv")
        assert (row["bound"], row["limsup"], row["satisfied"], row["status"]) == ("", "", "", "ok")
        # one point: the plot widens the empty t range
        assert "polyline" in (out / "plot_state.svg").read_text()

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_conf(tmp_path, self.TEXT),
                     "--out", str(out), "--grid", "omega=2,5"]) == 0
        capsys.readouterr()
        rows = read_rows(out / "sweep.csv")
        assert [(r["bound"], r["limsup"], r["satisfied"], r["status"]) for r in rows] == [
            ("", "", "", "ok")] * 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF.replace("plant.kind = chain",
                                                       "plant.kind = hovercraft"))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.conf"),
                     "--out", str(tmp_path / "x")]) == 2
        capsys.readouterr()

    def test_vehicle_observer_rmse_tracks_lumped_term(self, tmp_path, capsys):
        conf = write_conf(tmp_path, VEHICLE_CONF)
        out = tmp_path / "run"
        assert main(["simulate", "--config", conf, "--out", str(out)]) == 0
        capsys.readouterr()
        (row,) = read_rows(out / "metrics.csv")
        # d_hat converges to d_lump on a straight path; against the steering
        # bias d_true the error would stay near 0.05
        assert float(row["observer_rmse"]) < 1e-6
        assert float(row["omega_f"]) == 2.0

    def test_diverged_exit_code(self, tmp_path, capsys):
        text = """
plant.kind = chain
plant.order = 1
plant.b = 1.0
plant.x0 = 1.0
plant.state_coeffs = 5.0
controller.kind = none
sim.dt = 0.01
sim.duration = 10.0
"""
        conf = write_conf(tmp_path, text)
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "d")]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, capsys):
        text = CHAIN_CONF + "noise.sigma = 0.05\n"
        conf = write_conf(tmp_path, text)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        os.environ["LUMPED_PID_SEED"] = "7"
        try:
            assert main(["simulate", "--config", conf, "--out", str(out1)]) == 0
        finally:
            del os.environ["LUMPED_PID_SEED"]
        assert main(["simulate", "--config", conf, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


    def test_seed_override_that_is_not_an_integer_exits_2(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setenv("LUMPED_PID_SEED", "abc")
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "config error: LUMPED_PID_SEED: expected an integer, got 'abc'\n")


class TestSweep:
    def test_grid_rows_sorted_and_complete(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF.replace("sim.duration = 2.0",
                                                       "sim.duration = 1.0"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", conf, "--out", str(out),
                     "--grid", "omega=2,1", "omega_f=20,10"]) == 0
        capsys.readouterr()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5
        cells = [line.split(",")[0] for line in lines[1:]]
        assert cells == sorted(cells)
        omegas = [float(line.split(",")[1]) for line in lines[1:]]
        assert omegas == [1.0, 1.0, 2.0, 2.0]

    def test_parallel_matches_serial(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF.replace("sim.duration = 2.0",
                                                       "sim.duration = 1.0"))
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        args = ["--grid", "omega=1,2", "omega_f=10,20"]
        assert main(["sweep", "--config", conf, "--out", str(out1)] + args) == 0
        assert main(["sweep", "--config", conf, "--out", str(out2),
                     "--parallel", "4"] + args) == 0
        capsys.readouterr()
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_partial_failure_reported(self, tmp_path, capsys):
        # a huge omega with a coarse dt destabilizes the discrete loop
        text = CHAIN_CONF.replace("sim.dt = 0.001", "sim.dt = 0.05")
        conf = write_conf(tmp_path, text)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", conf, "--out", str(out),
                     "--grid", "omega=1,200"])
        capsys.readouterr()
        assert code == 4
        lines = (out / "sweep.csv").read_text().splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses[0] == "ok" and statuses[1].startswith("diverged at step ")

    def test_vehicle_omega_f_axis_sets_observer_bandwidth(self, tmp_path, capsys):
        conf = write_conf(tmp_path, VEHICLE_CONF)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", conf, "--out", str(out),
                     "--grid", "omega_f=1,50"]) == 0
        capsys.readouterr()
        slow, fast = read_rows(out / "sweep.csv")
        assert (float(slow["omega_f"]), float(fast["omega_f"])) == (1.0, 50.0)
        assert slow["sse_rms"] != fast["sse_rms"]
        assert slow["observer_rmse"] != fast["observer_rmse"]

    def test_row_reports_vehicle_observer_bandwidth(self, tmp_path, capsys):
        # without controller.omega_d the row names the default the runner
        # uses: the same bytes as a sweep that sets it explicitly
        outputs = []
        implicit = VEHICLE_CONF.replace("controller.omega_d = 2.0\n", "")
        for name, text in (("implicit", implicit), ("explicit", VEHICLE_CONF)):
            out = tmp_path / name
            assert main(["sweep", "--config", write_conf(tmp_path, text, f"{name}.conf"),
                         "--out", str(out), "--grid", "omega=0.5"]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        (row,) = read_rows(tmp_path / "implicit" / "sweep.csv")
        assert float(row["omega_f"]) == 2.0

    @pytest.mark.parametrize("text", [
        VEHICLE_CONF.replace("controller.kind = observer", "controller.kind = known_d"),
        CHAIN_CONF.replace("controller.kind = generalized", "controller.kind = homogeneous"),
    ], ids=["vehicle_known_d", "chain_homogeneous"])
    def test_omega_f_axis_rejected_without_observer(self, tmp_path, capsys, text):
        conf = write_conf(tmp_path, text)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", "omega_f=1,50"]) == 2
        assert "no observer bandwidth" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", "banana=1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("axis,message", [
        ("omega", "--grid: expected name=v1,v2,..., got 'omega'"),
        ("omega=a,b", "--grid: bad numbers in 'omega=a,b'"),
        ("omega=1,,2", "--grid: bad numbers in 'omega=1,,2'"),
        ("omega=1,", "--grid: bad numbers in 'omega=1,'"),
    ], ids=["no_equals", "not_numbers", "empty_item", "trailing_comma"])
    def test_malformed_grid_axis(self, tmp_path, capsys, axis, message):
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", axis]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_axis_given_twice(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", "omega=1", "omega=2,3"]) == 2
        assert "--grid: axis 'omega' given twice" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("grid", ["omega=1,1", "omega=1.0000001,1.0000002"],
                             ids=["repeated_value", "equal_to_six_digits"])
    def test_cells_sharing_a_scenario_id(self, tmp_path, capsys, grid):
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", grid]) == 2
        assert capsys.readouterr().err == ("config error: --grid: two cells share the "
                                           "scenario_id 'omega=1_omegaf=10_sigma=0'\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one(self, tmp_path, capsys, workers):
        conf = write_conf(tmp_path, CHAIN_CONF)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", "omega=1,2", "--parallel", workers]) == 2
        assert f"--parallel: expected a worker count >= 1, got {workers}" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def sweep_bytes(tmp_path, monkeypatch, text, grid, *extra, lockstep):
    """sweep.csv bytes with every chain cell run in lockstep, or each alone."""
    monkeypatch.setattr(chain, "LOCKSTEP",
                        dict.fromkeys(chain.LOCKSTEP, 1 if lockstep else math.inf))
    name = f"{'lockstep' if lockstep else 'alone'}{len(list(tmp_path.iterdir()))}"
    out = tmp_path / name
    code = main(["sweep", "--config", write_conf(tmp_path, text, name + ".conf"),
                 "--out", str(out), "--grid", *grid, *extra])
    assert code in (0, 4)
    return (out / "sweep.csv").read_bytes()


# (config text, grid, extra arguments)
LOCKSTEP_CASES = {
    "chain_step_benchmark_grid": (
        stock("chain_step.conf"), ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"), ()),
    "bound_demo_benchmark_grid": (stock("bound_demo.conf"), ("omega=2,5", "sigma=0,0.01"), ()),
    "seed_per_cell": (
        stock("chain_step.conf", **{"sim.duration": 1.0}),
        ("omega=1,2", "omega_f=10,20", "sigma=0.01,0.02"), ("--seed-policy", "per-cell")),
    "trapezoidal": (
        stock("chain_step.conf", **{"sim.duration": 1.0, "controller.quadrature": "trapezoidal"}),
        ("omega=1,2", "omega_f=10,20", "sigma=0,0.01"), ()),
    "observer_form_pid": (
        stock("chain_step.conf", **{"sim.duration": 1.0, "controller.observer_form": "pid"}),
        ("omega=1,2", "omega_f=10,20", "sigma=0,0.01"), ()),
    "pid": (
        stock("chain_step.conf", **{"sim.duration": 1.0, "controller.kind": "pid"}),
        ("omega=1,2", "omega_f=10,20", "sigma=0,0.01"), ()),
    "none": (
        stock("chain_step.conf", **{"sim.duration": 1.0, "controller.kind": "none"}),
        ("omega=1,2", "sigma=0,0.01,0.02"), ()),
    "decimation_state_coeffs": (
        stock("chain_step.conf", **{"sim.duration": 1.0, "sim.decimation": 7,
                                    "plant.state_coeffs": "0.3,-0.2"}),
        ("omega=1,2", "omega_f=10,20", "sigma=0,0.01"), ()),
    "256_cells": (
        stock("chain_step.conf", **{"sim.duration": 1.0}),
        ("omega=" + ",".join(str(0.5 * i) for i in range(1, 17)),
         "omega_f=" + ",".join(str(5 * i) for i in range(1, 9)), "sigma=0,0.01"), ()),
}


class TestLockstepSweep:
    """Chain sweeps run their cells as lanes of one lockstep run; the bytes
    equal those of every cell run alone through the float path."""

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_matches_cells_run_alone(self, tmp_path, capsys, monkeypatch, case):
        text, grid, extra = LOCKSTEP_CASES[case]
        lockstep = sweep_bytes(tmp_path, monkeypatch, text, grid, *extra, lockstep=True)
        alone = sweep_bytes(tmp_path, monkeypatch, text, grid, *extra, lockstep=False)
        capsys.readouterr()
        assert lockstep == alone
        cells = math.prod(len(axis.split("=")[1].split(",")) for axis in grid)
        statuses = [line.rsplit(",", 1)[1] for line in lockstep.decode().splitlines()[1:]]
        assert statuses == ["ok"] * cells

    @pytest.mark.parametrize("case,runs", [("chain_step_benchmark_grid", [18]),
                                           ("bound_demo_benchmark_grid", [1, 1, 1, 1])],
                             ids=["chain_step_benchmark_grid", "bound_demo_benchmark_grid"])
    def test_benchmark_grid_runs_as_chain_lockstep_says(self, tmp_path, capsys, monkeypatch,
                                                         case, runs):
        # the 18 generalized cells are one lockstep run; 4 homogeneous cells
        # are fewer than chain.LOCKSTEP["homogeneous"] and run one by one
        text, grid, extra = LOCKSTEP_CASES[case]
        lanes = []
        run = chain.run

        def spy(scenario):
            lanes.append(len(scenario) if isinstance(scenario, list) else 1)
            return run(scenario)

        monkeypatch.setattr(chain, "run", spy)
        conf = write_conf(tmp_path, re.sub(r"sim\.duration = .*", "sim.duration = 0.1", text))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", *grid, *extra]) == 0
        capsys.readouterr()
        assert lanes == runs

    def test_parallel_groups_match_cells_run_alone(self, tmp_path, capsys, monkeypatch):
        text = stock("chain_step.conf", **{"sim.duration": 1.0})
        grid = ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01")
        alone = sweep_bytes(tmp_path, monkeypatch, text, grid, lockstep=False)
        # two workers, nine lanes each: both run in lockstep at the default size
        monkeypatch.undo()
        out = tmp_path / "parallel"
        assert main(["sweep", "--config", write_conf(tmp_path, text), "--out", str(out),
                     "--grid", *grid, "--parallel", "2"]) == 0
        capsys.readouterr()
        assert (out / "sweep.csv").read_bytes() == alone

    def test_diverged_rows_say_where(self, tmp_path, capsys, monkeypatch):
        text = stock("chain_step.conf")
        lockstep = sweep_bytes(tmp_path, monkeypatch, text, ("omega=2,2000",), lockstep=True)
        alone = sweep_bytes(tmp_path, monkeypatch, text, ("omega=2,2000",), lockstep=False)
        capsys.readouterr()
        assert lockstep == alone
        ok, diverged = (line.split(",") for line in lockstep.decode().splitlines()[1:])
        assert ok[-1] == "ok"
        match = re.fullmatch(r"diverged at step (\d+) t=(\S+)", diverged[-1])
        assert match and float(match[2]) == pytest.approx(int(match[1]) * 0.001)
        assert all(field == "" for field in diverged[4:-1])

    def test_failure_before_the_loop_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the base config is invalid, so no cell runs: exit 2, as simulate does
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"sim.duration": 1.0,
                                                                "plant.x0": "1,2,3"}))
        # every cell in lockstep, or each alone
        for min_cells in (1, math.inf):
            monkeypatch.setattr(chain, "LOCKSTEP", dict.fromkeys(chain.LOCKSTEP, min_cells))
            assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                         "--grid", "omega=1,2,5", "sigma=0,0.01"]) == 2
            assert "plant.x0: expected 2 values, got 3" in capsys.readouterr().err
            assert not (tmp_path / "x" / "sweep.csv").exists()


# 8 chain cells, enough to run in lockstep
LANE_GRID = ("omega=1,2", "omega_f=10,20", "sigma=0,0.01")

# name: (config text, grid, extra arguments, LUMPED_PID_SEED, exit code, SHA-256 of
# sweep.csv). The vehicle and VTOL digests were recorded before sweep cells were
# derived from the base scenario, so they pin that every cell runs as it did when
# built from its own config text. The chain digests were re-recorded when the
# chain's RK4 step became one affine map, a change at round-off in which no
# cell's status moved. The cases with a sigma > 0 cell were re-recorded when
# noise came to be drawn by numpy's standard_normal; their sigma = 0 rows kept
# their bytes, and no cell's status or bound check moved. The VTOL ones were
# re-recorded when the attitude law took its closed forms, a change at
# round-off in which no cell's status moved.
SWEEP_DIGESTS = {
    "chain_step_benchmark_grid": (
        stock("chain_step.conf"), ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"), (),
        None, 0, "ad9f3e0d67c04e752f9ed0b877aba442401d4fb197b941854c6cf0b157dcf64c"),
    "chain_step_benchmark_grid_per_cell": (
        stock("chain_step.conf"), ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"),
        ("--seed-policy", "per-cell"),
        None, 0, "a782cd314c44018621020c2f1e57abdd4cef5bcb42cb2b5b005a5dfe49d9201d"),
    "bound_demo_benchmark_grid": (
        stock("bound_demo.conf"), ("omega=2,5", "sigma=0,0.01"), (),
        None, 0, "723b515e251815d532b052d4aeb464c8a3e1c0d1ab20789bf6ed2cb3331834de"),
    "vehicle_bias_2s": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0}), ("omega=0.5,1", "omega_f=1,2"), (),
        None, 0, "8fd1763d3d93031d56cd49b13dd9d42aa0fcf92add83975e3a53e2e8c99b168c"),
    "vtol_wind_3s": (
        stock("vtol_wind.conf", **{"sim.duration": 3.0}), ("omega=1,2", "sigma=0,0.001"),
        ("--parallel", "1"),
        None, 0, "058573c97c37890d26a0e2e0882231e6e79ec1665fded3e1f54329092348f84d"),
    "vtol_wind_3s_parallel": (
        stock("vtol_wind.conf", **{"sim.duration": 3.0}), ("omega=1,2", "sigma=0,0.001"),
        ("--parallel", "2"),
        None, 0, "058573c97c37890d26a0e2e0882231e6e79ec1665fded3e1f54329092348f84d"),
    "chain_step_2s_parallel_per_cell": (
        stock("chain_step.conf", **{"sim.duration": 2.0}),
        ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"),
        ("--parallel", "2", "--seed-policy", "per-cell"),
        None, 0, "36c599501869c1f78b9b92b16024be99dbc95facbf8c4737c6882a4776e7f914"),
    "chain_step_2s_diverged": (
        stock("chain_step.conf", **{"sim.duration": 2.0}), ("omega=2,2000",), (),
        None, 4, "0631bc155955e2f74f25b90da054e8b8d34bb83ba182ca7f3f233a938a1c7a76"),
    "chain_step_1s_env_seed_per_cell": (
        stock("chain_step.conf", **{"sim.duration": 1.0}),
        ("omega=1,2", "omega_f=10,20", "sigma=0.01,0.02"), ("--seed-policy", "per-cell"),
        "7", 0, "7a9284a2a8eb51a47357e871d66e1d69c8059f70eea96dcc8363560a6868bf04"),
    # the chain controller settings the cases above leave at their defaults,
    # 8 cells in lockstep each, recorded before each controller held its
    # gains as plain attributes; the PI's re-recorded when its kp became
    # omega + omega_f
    "chain_step_2s_pid": (
        stock("chain_step.conf", **{"sim.duration": 2.0, "controller.kind": "pid"}),
        LANE_GRID, (),
        None, 0, "a144adee505047bf465a04ff1cba87dca5771d6e6cb85ffaeda23fa0cf8f01fa"),
    "chain_step_2s_pi": (
        stock("chain_step.conf", **{"sim.duration": 2.0, "controller.kind": "pid",
                                    "plant.order": 1}),
        LANE_GRID, (),
        None, 0, "5ff01efc44652522c928c0adfedf582ff3cd92954606a06b76915876f3a42638"),
    "chain_step_2s_observer_form_pid": (
        stock("chain_step.conf", **{"sim.duration": 2.0, "controller.observer_form": "pid"}),
        LANE_GRID, (),
        None, 0, "7edc2a09288642f8216d1f82287fa80c87c8cfb59e7cf1065e1a18822086fcb3"),
    "chain_step_2s_seed_integral": (
        stock("chain_step.conf", **{"sim.duration": 2.0, "controller.seed_integral": "true",
                                    "plant.x0": "0.5,0.3"}),
        LANE_GRID, (),
        None, 0, "e5a74ddf870ccc33984f34e5e9e59f448714b3815b3adcc7bdc9074b08289454"),
    "chain_step_2s_trapezoidal": (
        stock("chain_step.conf", **{"sim.duration": 2.0,
                                    "controller.quadrature": "trapezoidal"}),
        LANE_GRID, (),
        None, 0, "e8b69443f754140eae8523654b8127811742535ba02bcbe22b3c7c09ddf00f76"),
}


@pytest.mark.parametrize("case", SWEEP_DIGESTS)
def test_sweep_bytes_match_recorded_digest(tmp_path, capsys, monkeypatch, case):
    text, grid, extra, seed, code, digest = SWEEP_DIGESTS[case]
    if seed is None:
        monkeypatch.delenv("LUMPED_PID_SEED", raising=False)
    else:
        monkeypatch.setenv("LUMPED_PID_SEED", seed)
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_conf(tmp_path, text), "--out", str(out),
                 "--grid", *grid, *extra]) == code
    capsys.readouterr()
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest


# stock config: SHA-256 of its simulate run's trace.csv and metrics.csv; the
# VTOL one re-recorded when the attitude law took its closed forms
STOCK_DIGESTS = {
    "chain_step.conf": ("9246a0c4247ea14dbcf9e71acfefaad58e95c0873fcc7247237d928b7922e52e",
                        "7fda56f00a325921ef2fdb945fe0c300925a5ddd9051810eab203dad796b01f9"),
    "bound_demo.conf": ("42c890d266b2083bb879b2453685a9f5e509ba77852a5bbd85a5e70fd5641c8a",
                        "66fd89f4bf5a8ba17327e71d8799a109d30ad95159c704fac651863e9f944650"),
    "vehicle_bias.conf": ("d7840a673a7c124026cbd1875d10c97ed49eddee5321d20a7b74a8d811e719f8",
                          "e6b1b57180aed2962b3c11e831c997f5f1cec66506e3453ae1563ce4d971cb97"),
    "vtol_wind.conf": ("92a44c85c4d2af516d3c13cbaa0fbca9cdba0d2bef89014d923d58ced4044840",
                       "e29b0197889abeca4656f661b8beae44f33f275b98f343b474d8830feb705191"),
}


# stock config: SHA-256 of each SVG its simulate --plots run writes, recorded
# before every CSV went through one writer
STOCK_PLOT_DIGESTS = {
    "chain_step.conf": {
        "plot_control.svg": "524ee017f40bff9d96d6277fa3e89a591654af231e53945ace2765ec3adb654a",
        "plot_observer.svg": "5095b801c2e3e3bd6220f35460e991d108beaaca2c98d243a5faed6dcf5c91d7",
        "plot_state.svg": "e55657eacc030ac2c5eb7c764fcd0f38a7efa00a269c9e50314424c562790842"},
    "bound_demo.conf": {
        "plot_control.svg": "26ec4a9e9631c75f58808977e5192b43f2ebd279e2dd6379330e7a80e3942c80",
        "plot_observer.svg": "4889c5c80f74c5df689b715b5066d9313a760b8ab50776f6cc4cec4fbf0fe99e",
        "plot_state.svg": "8d934dc5b5469cf04b18838a79a142618c99b615dd624b90e5ce3675fd04e4e6"},
    "vehicle_bias.conf": {
        "plot_lateral.svg": "e3210712a0abe64376084c80a186dfe29d62ec0717a186992df39883e9706ca0",
        "plot_steering.svg": "b1df4facc22b8fcffb3a01440b192613be4ffcffb09901ae14aafdeb2882da51"},
    "vtol_wind.conf": {
        "plot_error.svg": "bff6370e3d31d9071debf3d7b85228638986f7505964feab5da2a86f121636cd",
        "plot_position.svg": "53b3f7a81538e6153ac477208d37b6361bc45685dd12474c870ea2b4e382560d"},
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.conf")))
def test_stock_config_bytes_match_recorded_digest(tmp_path, capsys, monkeypatch, name):
    monkeypatch.delenv("LUMPED_PID_SEED", raising=False)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIGS / name), "--out", str(out),
                 "--plots"]) == 0
    capsys.readouterr()
    assert tuple(hashlib.sha256((out / csv).read_bytes()).hexdigest()
                 for csv in ("trace.csv", "metrics.csv")) == STOCK_DIGESTS[name]
    assert {svg.name: hashlib.sha256(svg.read_bytes()).hexdigest()
            for svg in out.glob("*.svg")} == STOCK_PLOT_DIGESTS[name]


# CHAIN_CONF's plant.order and plant.b: SHA-256 of tune's stdout, of its --out
# CSV and of bode's CSV, recorded before every CSV went through one writer;
# order 1's tune digests re-recorded when the PI's kp became omega + omega_f
TUNE_DIGESTS = {
    "order_1": (1, 1.0, "cdd4fbecf1e4219208a855571e8a08a3019c1bd3f767541a02d55c0e52277025",
                "276aa0a7273942cfc803fff88aa409e270eb9c5c62e970cbf993c6ed6f38fdd7",
                "3e55d03231e2ed2fbc38c3cf308b2930fd7138ba58c644386e2f9ad3e7002006"),
    "order_2": (2, 1.0, "f542e7875c6954a5f027d93868a63cacef73e570062af649b1cad0e43e45e47f",
                "e0e7e7e949d6b2045415057de5f1fd429e3131c39a8d62ec4767ca891790cbf1",
                "848af0ddc2d61fb8bc8409da33d1a521adc9cfdd00385f9fd93e3fac7cc59bf0"),
    "order_3": (3, 1.0, "5afdb2e8a25eeed7e6610042ca5c5aaa10d3a9e6066fd9ed605a56865f4a28ff",
                "4ba87670b9bba30d70c7d059037a7f93ea45c13c59ac9498957cb5b89ab28abf",
                "aabab3e940a9d2aacdc03dc2d428e10ece7d19d44bcc9589b18f90370e569ec8"),
    "order_2_negative_b": (
        2, -2.5, "920b7069a2e34ffb23c9e4018a4fa49b331dbe485bec3422d331db70781ee475",
        "fcf9b382c14603bee8710528e8ef477131008ad44255df2662822ab1ca8f1655",
        "848af0ddc2d61fb8bc8409da33d1a521adc9cfdd00385f9fd93e3fac7cc59bf0"),
}


@pytest.mark.parametrize("case", TUNE_DIGESTS)
def test_tune_and_bode_bytes_match_recorded_digest(tmp_path, capsys, case):
    order, b, stdout, gains, bode = TUNE_DIGESTS[case]
    conf = write_conf(tmp_path, CHAIN_CONF.replace("plant.order = 2", f"plant.order = {order}")
                      .replace("plant.b = 1.0", f"plant.b = {b}"))
    assert main(["tune", "--config", conf, "--out", str(tmp_path / "gains.csv")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout
    assert main(["bode", "--config", conf, "--out", str(tmp_path / "bode.csv")]) == 0
    capsys.readouterr()
    assert [hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest()
            for csv in ("gains.csv", "bode.csv")] == [gains, bode]


# short noisy runs: config text and the SHA-256 of its simulate run's trace.csv
# and metrics.csv, recorded before the noise table became one float64 array;
# the noisy ones re-recorded when noise came to be drawn by numpy's
# standard_normal, the noise-free vehicle_two_candidate not; the VTOL ones
# re-recorded when the attitude law took its closed forms
NOISY_DIGESTS = {
    "chain_step_noisy": (
        stock("chain_step.conf", **{"sim.duration": 2.0, "noise.sigma": "0.01,0.02"}),
        "c3c09951b3233c1347f6dca505f365de6987eeec66f38e61f1f25fd9da997a2b",
        "e911fbd13500c4319c581ee87e9be3f786c46e01705ab1b4c3daacbaefc12322"),
    "vehicle_circle_noisy": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0, "path.kind": "circle",
                                      "noise.sigma": "0.01,0.01,0.001"}),
        "61d99cf6d2d821ee0722405de033d31e7b9d3e6892a202c1a6e62a2773b7ba8c",
        "4c2ae743a334d89f0411371d5056f5df3d52fbd83cf55cddfc1c842d8f7adf2f"),
    "vtol_circle_noisy": (
        stock("vtol_wind.conf", **{"reference.kind": "circle", "reference.radius": 1.0,
                                   "reference.omega": 1.0, "sim.duration": 2.0,
                                   "noise.sigma": 0.001}),
        "9166c29045268300b88f3d792d9973eb125e4d325b0f96a8b5b6807853569072",
        "2ab257c3e3003fff3fbb2ecabcabb122f4d61888e66f5662e695c7a24b18495e"),
    # a circle off the ground at a heading, recorded before each reference
    # answered its position and velocity from one call
    "vtol_circle_height_psi_noisy": (
        stock("vtol_wind.conf", **{"reference.kind": "circle", "reference.radius": 1.5,
                                   "reference.omega": 0.8, "reference.height": -2.0,
                                   "reference.psi": 0.4, "sim.duration": 2.0,
                                   "noise.sigma": 0.001}),
        "927650f769dcb05c7be451f0057826a9c917f558be008fb3f318e07929e15ffa",
        "bcc536b4b7b0a09c90bc15ac8b93ccc1d5ff2a7172ac1d63acef8109ad964b82"),
    # the VTOL paths that the stock hover run does not reach, recorded before
    # the rigid-body derivative was split into its thrust and body halves
    "vtol_lissajous_noisy": (
        stock("vtol_wind.conf", **{"reference.kind": "lissajous", "reference.position": None,
                                   "reference.amplitude": "1.0,0.5,0.3",
                                   "reference.freq": "1.0,2.0,0.5",
                                   "reference.phase": "0.0,0.5,0.0", "reference.height": -1.0,
                                   "sim.duration": 2.0, "noise.sigma": 0.001}),
        "14f5879712b8286553da5fad4b49505d22d8a4e285aebfe5c77a40503156032e",
        "d74890b72c7e4d1fbe8c06d5315285625dc19f8216114c0bcd51df38440c6876"),
    "vtol_sinusoid_disturbance_noisy": (
        stock("vtol_wind.conf", **{"disturbance.force.kind": "sinusoid",
                                   "disturbance.force.value": None,
                                   "disturbance.force.amplitude": "0.5,-0.3,0.2",
                                   "disturbance.force.freq": 1.5, "disturbance.force.phase": 0.3,
                                   "disturbance.torque.kind": "sinusoid",
                                   "disturbance.torque.amplitude": "0.01,-0.02,0.005",
                                   "disturbance.torque.freq": 3.0,
                                   "disturbance.torque.phase": -0.4,
                                   "sim.duration": 2.0, "noise.sigma": 0.001}),
        "d5bb53287a87b93dee4404f25a1e0ce3c887a87bd26e2277896cdde8459cd32e",
        "3f542dcb664e112839eed0a617445e54ce1a55a9517478bbe93e4865cbbcac95"),
    "vtol_full_inertia_noisy": (
        stock("vtol_wind.conf", **{
            "plant.inertia": "0.02,0.001,-0.002,0.001,0.025,0.003,-0.002,0.003,0.04",
            "sim.duration": 2.0, "noise.sigma": 0.001}),
        "826f24bf51207a785ab6695186bbd6f64dc8873ed28eb2e0476ed0db3d9da687",
        "8ef26881496e88b4d0a4c898669384cff415bb0276dc20a3b49f18d0f5968830"),
    "vtol_offset_start_noisy": (
        stock("vtol_wind.conf", **{"plant.p0": "0.5,-0.3,0.2", "plant.v0": "0.1,0.2,-0.1",
                                   "sim.duration": 2.0, "noise.sigma": 0.001}),
        "7e0fcd998be7a9643b9409ca3aa904656d53df08bbf358b7af38bb1f643881fc",
        "3795185e061d607ad4798fbd89d8675418e92481788ae2509bae18e64013c5c7"),
    # the float paths of the classic PI and of the reduced observer form,
    # recorded before each controller held its gains as plain attributes;
    # the PI's re-recorded when its kp became omega + omega_f
    "chain_pi_noisy": (
        stock("chain_step.conf", **{"controller.kind": "pid", "plant.order": 1,
                                    "sim.duration": 2.0, "noise.sigma": 0.01}),
        "83c4325630909d19372c8bcdc3e54e0616dd05facbf64b61d4bf35fd285222e7",
        "7477d085198d3559da4d07cdde2838dd76321eca0a8791a262389493108f183b"),
    "chain_observer_form_pid_noisy": (
        stock("chain_step.conf", **{"controller.observer_form": "pid", "sim.duration": 2.0,
                                    "noise.sigma": "0.01,0.02"}),
        "04da1ad5440822d60d18314f301150f83b173877f4f84885c5be07faeb8c8761",
        "dd86e71b2cbc335aa18be333225df8b36c4e0bb2fb71a193f86f4fb15449b560"),
    # a vehicle bias that varies within a step, so that each RK4 stage reads
    # its own value, recorded before a step took those values from its caller
    "vehicle_sinusoid_bias_noisy": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0, "disturbance.value": None,
                                      "disturbance.kind": "sinusoid",
                                      "disturbance.amplitude": 0.03, "disturbance.freq": 1.3,
                                      "disturbance.phase": 0.2,
                                      "noise.sigma": "0.01,0.01,0.001"}),
        "dd06dd315064b8dce778815f2fea5d13efd0f8d5c2659421f6f7354bca4920e0",
        "baed7fd127968bd0d236645013877cac8ad9409091133268651f5071440a3807"),
    # the vehicle paths that no other digest reaches, recorded before the
    # bicycle derivative was bound to its speed and wheelbase: a pose beyond
    # the centre of curvature of a coarse unit circle, where every match
    # finds a root in both segments, the known-d law, and the trapezoidal
    # observer
    "vehicle_two_candidate": (
        stock("vehicle_bias.conf", **{"path.kind": "circle", "path.radius": 1.0,
                                      "path.arc": 5.0, "path.spacing": 2.5,
                                      "plant.speed": 0.5,
                                      "plant.x0": "1.35,1.242,1.6364524547615598",
                                      "sim.duration": 0.2}),
        "f0681d62de2d18c316ee72a960f9807479be4f06415ec2a1b7e62bd74be00ce4",
        "c68f6d7ba72be39448565e13a51fc385d9c9cc4428f543464aca2c8b9f4c6f01"),
    "vehicle_known_d_noisy": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0, "controller.kind": "known_d",
                                      "noise.sigma": "0.01,0.01,0.001"}),
        "f1dcac919a98c41fd64477b7b458d18b5f4db6b6732e043d1b7a82de24dfcdac",
        "697b1a2800a61569e147ea9099e5206379a9fa65406101be209871a5a3c61ab6"),
    "vehicle_trapezoidal_noisy": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0,
                                      "controller.quadrature": "trapezoidal",
                                      "noise.sigma": "0.01,0.01,0.001"}),
        "4053fa41e2ac6f65c5bbbb0def93a4f258d27983661bd0da481c4348acd6e245",
        "6a2e1ae57b2e67559e69b176eb49de854ed005ed6a0187b7b54b72836de36464"),
}


@pytest.mark.parametrize("case", NOISY_DIGESTS)
def test_noisy_run_bytes_match_recorded_digest(tmp_path, capsys, monkeypatch, case):
    text, *digests = NOISY_DIGESTS[case]
    monkeypatch.delenv("LUMPED_PID_SEED", raising=False)
    out = tmp_path / "run"
    assert main(["simulate", "--config", write_conf(tmp_path, text), "--out", str(out)]) == 0
    capsys.readouterr()
    assert [hashlib.sha256((out / csv).read_bytes()).hexdigest()
            for csv in ("trace.csv", "metrics.csv")] == digests


class TestSweepBaseConfig:
    """A sweep derives its cells from the base scenario, so a base config
    that only a run or the metrics reject exits 2 and names the key."""

    @pytest.mark.parametrize("conf,changes,message", [
        ("chain_step.conf", {"plant.x0": "1,2,3"}, "plant.x0: expected 2 values"),
        ("vehicle_bias.conf", {"path.kind": "csv"}, "path.file: required"),
        ("chain_step.conf", {"metrics.threshold": "abc"}, "metrics.threshold: expected a number"),
    ], ids=["chain_x0", "vehicle_csv_without_file", "metrics_threshold"])
    @pytest.mark.parametrize("grid", ["omega=1,2", "omega=1,2,3,4,5"], ids=["2_cells", "5_cells"])
    def test_exits_2_and_names_the_key(self, tmp_path, capsys, conf, changes, message, grid):
        conf = write_conf(tmp_path, stock(conf, **changes, **{"sim.duration": 0.05}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 2
        assert message in capsys.readouterr().err
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "sweep"),
                     "--grid", grid]) == 2
        assert message in capsys.readouterr().err

    def test_each_trace_is_freed_before_the_next_cell_runs(self, tmp_path, capsys,
                                                           monkeypatch):
        traces = []
        run = vehicle.run

        def spy(scenario):
            assert all(trace() is None for trace in traces), "an earlier trace is alive"
            trace = run(scenario)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(vehicle, "run", spy)
        conf = write_conf(tmp_path, stock("vehicle_bias.conf", **{"sim.duration": 0.05}))
        # a vehicle list runs one cell at a time, two cells as five
        for grid in ("omega=1,2", "omega=1,2,3,4,5"):
            traces.clear()
            assert main(["sweep", "--config", conf, "--out", str(tmp_path / grid),
                         "--grid", grid]) == 0
            assert len(traces) == len(grid.split(","))
        capsys.readouterr()


class TestRunFailures:
    def test_mid_run_failure_exits_3(self, tmp_path, capsys):
        # a 1.6 rad steering bias drives the effective steering past pi/2
        conf = write_conf(tmp_path, stock("vehicle_bias.conf", **{"disturbance.value": 1.6}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 3
        assert "run failed: SteeringLimitError" in capsys.readouterr().err

    def test_config_error_inside_run_exits_2(self, tmp_path, capsys):
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"plant.x0": "1,2,3"}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert "plant.x0" in capsys.readouterr().err

    @pytest.mark.parametrize("conf,changes,kind", [
        ("vehicle_bias.conf", {"disturbance.kind": "step", "disturbance.value": 1.6,
                               "disturbance.t_start": 0.5}, "SteeringLimitError"),
        # a sudden 30 N lift at 0.5 s flips the body through the g~ singularity
        ("vtol_wind.conf", {"disturbance.force.kind": "step",
                            "disturbance.force.value": "0,0,-30",
                            "disturbance.force.t_start": 0.5}, "AttitudeSingularityError"),
    ], ids=["steering_limit", "vtol_singularity"])
    def test_run_failure_says_where(self, tmp_path, capsys, conf, changes, kind):
        conf = write_conf(tmp_path, stock(conf, **changes, **{"sim.duration": 2.0}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        match = re.match(rf"run failed: {kind} at step (\d+) t=(\S+): ", err)
        assert match, err
        step, t = int(match[1]), float(match[2])
        assert 490 <= step < 1000 and t == pytest.approx(step * 0.001)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "s"),
                     "--grid", "omega=1,2"]) == 4
        capsys.readouterr()
        statuses = [row["status"] for row in read_rows(tmp_path / "s" / "sweep.csv")]
        assert all(re.fullmatch(rf"{kind} at step \d+ t=\S+", s) for s in statuses), statuses


class TestNoObserverRows:
    """A controller without an observer has no bandwidth and no estimate, so
    its rows leave omega_f and observer_rmse blank."""

    @pytest.mark.parametrize("text", [
        stock("bound_demo.conf"),
        stock("chain_step.conf", **{"controller.kind": "none", "sim.duration": 1.0}),
        stock("vehicle_bias.conf", **{"controller.kind": "known_d",
                                      "controller.omega_d": None, "sim.duration": 2.0}),
    ], ids=["homogeneous", "chain_none", "vehicle_known_d"])
    def test_observer_fields_blank(self, tmp_path, capsys, text):
        conf = write_conf(tmp_path, text)
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
        (row,) = read_rows(tmp_path / "sim" / "metrics.csv")
        assert (row["omega_f"], row["observer_rmse"], row["status"]) == ("", "", "ok")
        # five cells run in lockstep on a chain (chain.LOCKSTEP is 5 for the
        # homogeneous kind and 4 for none), two run one by one
        for grid in ("omega=2,5", "omega=1,2,3,4,5"):
            out = tmp_path / grid
            assert main(["sweep", "--config", conf, "--out", str(out), "--grid", grid]) == 0
            rows = read_rows(out / "sweep.csv")
            assert [r["scenario_id"] for r in rows] == [
                f"omega={w}_sigma=0" for w in grid[len("omega="):].split(",")]
            assert all((r["omega_f"], r["observer_rmse"]) == ("", "") for r in rows)
        capsys.readouterr()

    def test_bound_still_reported(self, tmp_path, capsys):
        conf = write_conf(tmp_path, stock("bound_demo.conf"))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        (row,) = read_rows(tmp_path / "sim" / "metrics.csv")
        assert row["satisfied"] == "true" and float(row["bound"]) > 0.0


class TestUnreadKeys:
    @pytest.mark.parametrize("conf,key,value", [
        ("chain_step.conf", "plant.ordr", "2"),
        ("chain_step.conf", "controller.omega_d", "2.0"),
        ("chain_step.conf", "controller.omega_att", "10.0"),
        ("chain_step.conf", "path.kind", "line"),
        ("chain_step.conf", "reference.kind", "hover"),
        ("vtol_wind.conf", "controller.kind", "homogeneous"),
        ("vtol_wind.conf", "controller.seed_integral", "true"),
        ("vtol_wind.conf", "plant.b", "1.0"),
        # the VTOL integrates by one rule only, so it has no quadrature option
        ("vtol_wind.conf", "controller.quadrature", "rectangular"),
        ("vtol_wind.conf", "controller.quadrature", "trapezoidal"),
        ("vehicle_bias.conf", "controller.observer_form", "pid"),
        ("vehicle_bias.conf", "controller.omega_f", "10.0"),
        ("vehicle_bias.conf", "plant.order", "2"),
    ], ids=lambda v: str(v).replace(".conf", ""))
    def test_key_the_plant_never_reads_is_a_config_error(self, tmp_path, capsys, conf, key,
                                                         value):
        text = stock(conf, **{key: value})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: not a key of plant"):
            build_scenario(parse_config_text(text))
        path = write_conf(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert f"{key}: not a key of plant" in capsys.readouterr().err

    @pytest.mark.parametrize("conf,key,value", [
        ("chain_step.conf", "disturbance.amplitud", "3"),
        ("chain_step.conf", "disturbance.freq", "3"),  # a constant reads only its value
        ("chain_step.conf", "disturbance.force.kind", "constant"),
        ("chain_step.conf", "disturbance.term0.kind", "constant"),  # not a sum
        ("vtol_wind.conf", "disturbance.kind", "constant"),
        ("vtol_wind.conf", "disturbance.force.t_start", "1.0"),
        ("vtol_wind.conf", "disturbance.torque.value", "0,0,1"),  # torque.kind is none
        ("chain_step.conf", "noise.sigmaa", "0.1"),
        ("chain_step.conf", "sim.durationn", "3"),
        ("vehicle_bias.conf", "sim.rate", "10"),
        ("chain_step.conf", "metrics.thresh", "0.5"),
    ], ids=lambda v: str(v).replace(".conf", ""))
    def test_key_of_another_section_nothing_reads_is_a_config_error(
            self, tmp_path, capsys, conf, key, value):
        text = stock(conf, **{key: value})
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: not a key of plant"):
            build_scenario(parse_config_text(text))
        path = write_conf(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "x")]) == 2
        assert f"{key}: not a key of plant" in capsys.readouterr().err

    def test_sim_seed_is_checked_under_the_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LUMPED_PID_SEED", "7")
        text = stock("chain_step.conf", **{"sim.seed": "abc"})
        assert main(["simulate", "--config", write_conf(tmp_path, text),
                     "--out", str(tmp_path / "x")]) == 2
        assert "sim.seed: expected an integer" in capsys.readouterr().err

    def test_unused_bandwidth_of_a_chain_is_still_read(self):
        # homogeneous and none read no omega_f, but other chain kinds do
        scenario = build_scenario(load_config(CONFIGS / "bound_demo.conf"))
        assert scenario.controller["omega_f"] == 1.0


class TestSeedRange:
    """A seed keys Philox as one 64-bit word: one outside [0, 2**64) is a
    config error naming sim.seed, whether from a config file, from
    LUMPED_PID_SEED or from code, not a seed that aliases another."""

    TEXT = CHAIN_CONF.replace("sim.duration = 2.0", "sim.duration = 0.01") + "noise.sigma = 0.05\n"

    @pytest.mark.parametrize("seed,accepted", [(-1, False), (2**64, False), (0, True),
                                               (2**64 - 1, True)])
    def test_a_seed_outside_64_bits_is_rejected(self, tmp_path, capsys, monkeypatch, seed,
                                                accepted):
        message = f"sim.seed: must be in [0, 2**64), got {seed}"
        monkeypatch.delenv("LUMPED_PID_SEED", raising=False)
        config = write_conf(tmp_path, self.TEXT.replace("sim.seed = 42", f"sim.seed = {seed}"))
        codes = [main(["simulate", "--config", config, "--out", str(tmp_path / "config")])]
        monkeypatch.setenv("LUMPED_PID_SEED", str(seed))
        codes.append(main(["simulate", "--config", write_conf(tmp_path, self.TEXT, "env.conf"),
                           "--out", str(tmp_path / "env")]))
        err = capsys.readouterr().err
        assert codes == ([0, 0] if accepted else [2, 2])
        assert err.count(message) == (0 if accepted else 2)
        base = build_scenario(parse_config_text(self.TEXT))
        if accepted:
            assert dataclasses.replace(base, seed=seed).noise.seed == seed
            assert (tmp_path / "config" / "trace.csv").read_bytes() == (
                tmp_path / "env" / "trace.csv").read_bytes()
        else:
            with pytest.raises(ConfigError, match=re.escape(message)):
                dataclasses.replace(base, seed=seed)
            with pytest.raises(ConfigError, match=re.escape(message)):
                NoiseSpec(sigmas=(0.05,), seed=seed)

    def test_per_cell_seeds_past_64_bits_exit_2_before_any_cell_runs(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.setenv("LUMPED_PID_SEED", str(2**64 - 2))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_conf(tmp_path, self.TEXT), "--out", str(out),
                     "--grid", "omega=1,2,3", "--seed-policy", "per-cell"]) == 2
        assert f"sim.seed: must be in [0, 2**64), got {2**64}" in capsys.readouterr().err
        assert not out.exists()


class TestVtolTriples:
    @pytest.mark.parametrize("changes", [
        {"plant.p0": "1,2"},
        {"plant.v0": "0,0,0,5"},
        {"reference.position": "1,2"},
        {"reference.kind": "lissajous", "reference.amplitude": "1,2"},
        {"reference.kind": "lissajous", "reference.freq": "1"},
        {"reference.kind": "lissajous", "reference.phase": "0,0,0,0"},
    ], ids=lambda changes: list(changes)[-1])
    def test_wrong_length_is_a_config_error(self, tmp_path, capsys, changes):
        conf = write_conf(tmp_path, stock("vtol_wind.conf", **changes))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert f"{list(changes)[-1]}: expected 3 components" in capsys.readouterr().err


class TestNoiseChannels:
    """noise.sigma gives one deviation for every channel or one per channel:
    the chain's plant.order, the vehicle's 3 (x, y, theta), the VTOL's 9."""

    @pytest.mark.parametrize("conf,sigma,channels", [
        ("chain_step.conf", "0.1,0.2,0.3,0.4", 2),
        ("chain_step.conf", "0.1,0.2,0.3", 2),
        ("vehicle_bias.conf", "0.01,0.01,0.001,0.01", 3),
        ("vehicle_bias.conf", "0,0", 3),  # noise-free runs are checked too
        ("vtol_wind.conf", "0,0,0", 9),
        ("vtol_wind.conf", ",".join(["0.001"] * 10), 9),
    ], ids=["chain_4", "chain_3", "vehicle_4", "vehicle_silent_2", "vtol_silent_3", "vtol_10"])
    def test_wrong_count_is_a_config_error(self, tmp_path, capsys, conf, sigma, channels):
        conf = write_conf(tmp_path, stock(conf, **{"noise.sigma": sigma, "sim.duration": 0.05}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        count = len(sigma.split(","))
        assert (f"noise.sigma: expected 1 or {channels} values, got {count}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("grid", ["omega=1,2", "omega=1,2,3,4,5"])
    def test_sweep_over_a_wrong_count_exits_2(self, tmp_path, capsys, grid):
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"noise.sigma": "0,0.1,0.2",
                                                                "sim.duration": 0.05}))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", grid]) == 2
        assert "noise.sigma: expected 1 or 2 values, got 3" in capsys.readouterr().err


class TestCsvPath:
    def write_path(self, tmp_path, kappa):
        s = [0.25 * i for i in range(801)]
        rows = "".join(f"{v!r},{v!r},0,0,{kappa!r}\n" for v in s)
        path = tmp_path / "path.csv"
        path.write_text("s,x,y,theta,kappa\n" + rows)
        return path

    def test_consistent_csv_runs(self, tmp_path, capsys):
        text = stock("vehicle_bias.conf", **{"path.kind": "csv", "path.length": None,
                                             "path.file": self.write_path(tmp_path, 0.0),
                                             "sim.duration": 0.5})
        assert main(["simulate", "--config", write_conf(tmp_path, text),
                     "--out", str(tmp_path / "x")]) == 0
        capsys.readouterr()

    def test_curvature_inconsistent_with_heading_is_a_config_error(self, tmp_path, capsys):
        # a straight line whose kappa column says it turns
        text = stock("vehicle_bias.conf", **{"path.kind": "csv", "path.length": None,
                                             "path.file": self.write_path(tmp_path, 0.05),
                                             "sim.duration": 0.5})
        conf = write_conf(tmp_path, text)
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert "inconsistent with curvature" in capsys.readouterr().err
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "s"),
                     "--grid", "omega=0.5,1"]) == 2
        assert "inconsistent with curvature" in capsys.readouterr().err

    LINE = [f"{0.25 * i!r},{0.25 * i!r},0,0,0" for i in range(9)]

    @pytest.mark.parametrize("header,rows,message", [
        ("t,x,y,theta,kappa", LINE, "path.file: missing column 's' in "),
        ("s,x,y,theta,kappa", [*LINE[:3], LINE[2], *LINE[3:]],
         "path.file: path arc length must be strictly increasing"),
        ("s,x,y,theta,kappa", LINE[:1], "path.file: path needs at least two samples"),
        ("s,x,y,theta,kappa", [*LINE[:4], "1.0,nan,0,0,0", *LINE[5:]],
         "path.file: path column x: non-finite sample"),
    ], ids=["missing_column", "s_not_increasing", "one_row", "nan_sample"])
    def test_fault_in_the_file_names_path_file(self, tmp_path, capsys, header, rows, message):
        path = tmp_path / "path.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        text = stock("vehicle_bias.conf", **{"path.kind": "csv", "path.length": None,
                                             "path.file": path, "sim.duration": 0.5})
        assert main(["simulate", "--config", write_conf(tmp_path, text),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("name", ["missing.csv", "."], ids=["missing", "directory"])
    def test_unreadable_file_is_a_config_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        text = stock("vehicle_bias.conf", **{"path.kind": "csv", "path.length": None,
                                             "path.file": path, "sim.duration": 0.5})
        conf = write_conf(tmp_path, text)
        for command in (["simulate"], ["sweep", "--grid", "omega=0.5,1"]):
            assert main([command[0], "--config", conf, "--out", str(tmp_path / "x"),
                         *command[1:]]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: path.file: cannot read {path}")


@pytest.mark.parametrize("conf,changes,message", [
    ("vehicle_bias.conf", {"controller.omega": 0}, "controller.omega: must be positive, got 0.0"),
    ("vehicle_bias.conf", {"controller.omega": -0.5}, "controller.omega: must be positive"),
    ("vehicle_bias.conf", {"controller.kind": "known_d", "controller.omega": 0},
     "controller.omega: must be positive"),
    ("vehicle_bias.conf", {"path.spacing": 0}, "path.spacing: must be positive, got 0.0"),
    ("vehicle_bias.conf", {"path.spacing": -1}, "path.spacing: must be positive"),
    ("vehicle_bias.conf", {"plant.capture_radius": -1}, "plant.capture_radius: must be positive"),
    ("chain_step.conf", {"metrics.threshold": -1}, "metrics.threshold: must be positive"),
    ("chain_step.conf", {"metrics.threshold": 0}, "metrics.threshold: must be positive"),
    ("vtol_wind.conf", {"metrics.threshold": -0.5}, "metrics.threshold: must be positive"),
    ("vehicle_bias.conf", {"path.length": -5}, "path.length: must be positive, got -5.0"),
    ("vehicle_bias.conf", {"path.kind": "circle", "path.length": None, "path.arc": 0},
     "path.arc: must be positive, got 0.0"),
    ("vehicle_bias.conf", {"plant.wheelbase": 0}, "plant.wheelbase: must be positive"),
    ("chain_step.conf", {"controller.omega_f": 0}, "controller.omega_f: must be positive"),
    ("vtol_wind.conf", {"plant.mass": -1}, "plant.mass: must be positive, got -1.0"),
    ("vtol_wind.conf", {"controller.omega_tau": 0}, "controller.omega_tau: must be positive"),
    ("vehicle_bias.conf", {"path.kind": "spiral"}, "path.kind: unknown kind 'spiral'"),
    ("vtol_wind.conf", {"reference.kind": "spiral"}, "reference.kind: unknown kind 'spiral'"),
    ("chain_step.conf", {"plant.order": 0}, "plant.order: must be >= 1, got 0\n"),
    ("vtol_wind.conf", {"plant.inertia": "0.02,0.001,0,0,0.02,0,0,0,0.04"},
     "plant.inertia: must be symmetric\n"),
], ids=["omega_zero", "omega_negative", "known_d_omega_zero", "spacing_zero",
        "spacing_negative", "capture_radius_negative", "threshold_negative", "threshold_zero",
        "vtol_threshold", "path_length_negative", "path_arc_zero", "wheelbase_zero",
        "chain_omega_f_zero", "vtol_mass_negative", "vtol_omega_tau_zero", "path_kind",
        "reference_kind", "chain_order_zero", "vtol_inertia_asymmetric"])
def test_out_of_domain_option_exits_2(tmp_path, capsys, conf, changes, message):
    """An option outside its domain is a config error for simulate and sweep,
    whose message starts with the key."""
    conf = write_conf(tmp_path, stock(conf, **changes, **{"sim.duration": 0.05}))
    assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert main(["sweep", "--config", conf, "--out", str(tmp_path / "sweep"),
                 "--grid", "sigma=0,0.01"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "sim").exists() or not any((tmp_path / "sim").iterdir())


class TestNonFiniteInputs:
    @pytest.mark.parametrize("key,value", [
        ("plant.mass", "inf"),
        ("plant.gravity", "nan"),
        ("disturbance.force.value", "inf,0,0"),
        ("plant.p0", "nan,0,0"),
    ])
    def test_config_value_is_a_config_error(self, tmp_path, capsys, key, value):
        conf = write_conf(tmp_path, stock("vtol_wind.conf", **{key: value, "sim.duration": 0.01}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{key}: expected" in err and "finite" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "abc"])
    def test_scalar_disturbance_is_a_config_error(self, tmp_path, capsys, value):
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"disturbance.value": value,
                                                                 "sim.duration": 0.01}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert "disturbance.value: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["omega=nan", "omega_f=inf", "sigma=inf"])
    def test_grid_value_is_a_config_error(self, tmp_path, capsys, axis):
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"sim.duration": 0.05}))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", axis]) == 2
        assert "values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("axis,bound", [
        ("sigma=-1", "non-negative"), ("sigma=0,-0.5", "non-negative"),
        ("omega=-1", "positive"), ("omega=0", "positive"), ("omega_f=0,10", "positive"),
    ], ids=["sigma_negative", "sigma_zero_and_negative", "omega_negative", "omega_zero",
            "omega_f_zero"])
    def test_grid_value_message_names_the_axis_bound(self, tmp_path, capsys, axis, bound):
        # sigma = 0 is a noise-free cell; a zero bandwidth is no controller
        conf = write_conf(tmp_path, stock("chain_step.conf", **{"sim.duration": 0.05}))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", axis]) == 2
        name = axis.split("=")[0]
        assert capsys.readouterr().err == (
            f"config error: --grid: {name} values must be finite and {bound}\n")
        assert not (tmp_path / "x").exists()


class TestFloatRange:
    """Inputs whose arithmetic leaves the float range: a config error when a
    command finds it before a run's loop (exit 2), a run failure when a step
    does (exit 3, and 4 for a sweep), never a traceback."""

    @pytest.mark.parametrize("conf,changes", [
        ("chain_step.conf", {"plant.order": 20, "controller.omega": 1e16}),
        ("chain_step.conf", {"controller.omega": 1e200}),
        ("vtol_wind.conf", {"controller.omega_att": 1e200}),
        ("vehicle_bias.conf", {"controller.omega": 1e300}),
    ], ids=["chain_order_20", "chain_order_2", "vtol_omega_att", "vehicle_omega"])
    def test_bandwidth_power_overflow_exits_2(self, tmp_path, capsys, conf, changes):
        conf_path = write_conf(tmp_path, stock(conf, **changes, **{"sim.duration": 0.05}))
        commands = [["simulate", "--out", str(tmp_path / "sim")],
                    ["sweep", "--out", str(tmp_path / "sweep"), "--grid", "sigma=0,0.01"]]
        if conf == "chain_step.conf":  # tune and bode take chain plants only
            commands += [["tune"], ["bode", "--out", str(tmp_path / "bode.csv")]]
        for command, *args in commands:
            assert main([command, "--config", conf_path, *args]) == 2, command
            err = capsys.readouterr().err
            assert "has a coefficient beyond the float range" in err, (command, err)
        assert not any(tmp_path.glob("*/*.csv")) and not (tmp_path / "bode.csv").exists()

    @pytest.mark.parametrize("changes,command,message", [
        ({"controller.omega": 1e150, "controller.omega_f": 1e10}, "tune",
         "omega = 1e+150 and omega_f = 10000000000.0 at order 2: (s + omega)**2 (s + omega_f) "
         "has a coefficient beyond the float range"),
        ({"controller.omega": 1e150, "controller.omega_f": 1e10}, "bode",
         "omega = 1e+150 and omega_f = 10000000000.0 at order 2: (s + omega)**2 (s + omega_f) "
         "has a coefficient beyond the float range"),
        ({"controller.omega": 1e150, "controller.omega_f": 1}, "bode",
         "transfer function at s=181970085.86099824j: a value beyond the float range"),
        *(({"controller.kind": "pid", "plant.order": 1, "controller.omega": 1e200,
            "controller.omega_f": 1e200}, command,
           "omega = 1e+200 and omega_f = 1e+200 at order 1: (s + omega)**1 (s + omega_f) "
           "has a coefficient beyond the float range")
          for command in ("tune", "bode", "simulate", "sweep")),
        *(({"controller.kind": "pid", "plant.order": 1, "controller.omega": 1e-200,
            "controller.omega_f": 1e-200}, command,
           "omega = 1e-200 and omega_f = 1e-200 at order 1: (s + omega)**1 (s + omega_f) "
           "has a coefficient that rounds to 0, below the float range")
          for command in ("tune", "simulate", "sweep")),
        *(({"controller.omega": 1e-200}, command,
           "omega = 1e-200 at order 2: (s + omega)**2 has a coefficient that rounds to 0, "
           "below the float range")
          for command in ("tune", "simulate", "sweep")),
    ], ids=["order_2_ki_tune", "order_2_ki_bode", "order_2_horner_bode", "pid_tune", "pid_bode",
            "pid_simulate", "pid_sweep", "pi_ki_underflow_tune", "pi_ki_underflow_simulate",
            "pi_ki_underflow_sweep", "a0_underflow_tune", "a0_underflow_simulate",
            "a0_underflow_sweep"])
    def test_a_closed_loop_past_the_float_range_exits_2(self, tmp_path, capsys, changes,
                                                        command, message):
        # every power of omega is finite; the closed loop's coefficients, or
        # Horner's powers of s along bode's grid, are not, or a coefficient
        # (a gain) underflows to 0
        conf = write_conf(tmp_path, stock("chain_step.conf", **changes, **{"sim.duration": 0.05}))
        args = {"tune": [], "bode": ["--out", str(tmp_path / "bode.csv")],
                "simulate": ["--out", str(tmp_path / "sim")],
                "sweep": ["--out", str(tmp_path / "sweep"), "--grid", "sigma=0,0.01"]}[command]
        assert main([command, "--config", conf, *args]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any(tmp_path.glob("*/*.csv")) and not (tmp_path / "bode.csv").exists()

    @pytest.mark.parametrize("changes", [
        {"path.spacing": 1e-9},
        {"path.length": 1e300},
        {"path.kind": "circle", "path.length": None, "path.arc": 1e12},
    ], ids=["spacing", "length", "circle_arc"])
    def test_a_path_past_the_sample_bound_exits_2_before_allocating(self, tmp_path, changes):
        # under run_python's 1 GiB data limit, which any of these tables exceeds
        conf = write_conf(tmp_path, stock("vehicle_bias.conf", **changes, **{"sim.duration": 0.05}))
        err = run_python(tmp_path, f"""
import contextlib, io
from lumped_pid.cli import main
err = io.StringIO()
with contextlib.redirect_stderr(err):
    assert main(['simulate', '--config', {conf!r}, '--out', 'sim']) == 2
    assert main(['sweep', '--config', {conf!r}, '--out', 'sweep', '--grid', 'sigma=0,0.01']) == 2
print(err.getvalue())
""")
        assert err.count("samples a path may hold") == 2, err

    def test_the_path_sample_bound_is_inclusive(self):
        # counted, not built: a table at the bound takes about 260 MB
        assert vehicle._samples((MAX_GRID_POINTS - 1) * 0.25, 0.25) == MAX_GRID_POINTS
        for build in (vehicle.FrenetPath.line, lambda *a: vehicle.FrenetPath.circle(50.0, *a)):
            with pytest.raises(ConfigError, match="samples a path may hold"):
                build(MAX_GRID_POINTS * 0.25, 0.25)

    @pytest.mark.parametrize("conf,changes,grid,step", [
        ("vtol_wind.conf", {"controller.omega_tau": 1e308}, ("sigma=0,0.01",), 1),
        ("vtol_wind.conf", {"controller.omega_att": 1e150}, ("sigma=0,0.01",), 1),
        ("vehicle_bias.conf", {"plant.wheelbase": 5e-324}, ("sigma=0,0.01",), 0),
        ("chain_step.conf", {"disturbance.kind": "sinusoid", "disturbance.value": None,
                             "disturbance.amplitude": 1.0, "disturbance.freq": 1e308,
                             "sim.dt": 0.5}, ("omega=1,2,3", "sigma=0,0.01"), 3),
    ], ids=["vtol_omega_tau", "vtol_omega_att", "vehicle_wheelbase", "chain_sinusoid"])
    def test_a_math_error_in_a_step_is_a_run_failure(self, tmp_path, capsys, conf, changes,
                                                     grid, step):
        # sin, cos or tan of an infinite argument inside a step
        text = stock(conf, **changes, **{"sim.duration": 0.05 if step < 3 else 3.0})
        assert main(["simulate", "--config", write_conf(tmp_path, text),
                     "--out", str(tmp_path / "sim")]) == 3
        err = capsys.readouterr().err
        assert re.match(rf"run failed: diverged at step {step} t=\S+: math error at t=", err), err
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_conf(tmp_path, text), "--out", str(out),
                     "--grid", *grid]) == 4
        capsys.readouterr()
        statuses = [row["status"] for row in read_rows(out / "sweep.csv")]
        assert len(statuses) == math.prod(len(axis.split(",")) for axis in grid)
        assert all(re.fullmatch(rf"diverged at step {step} t=\S+", s) for s in statuses), statuses

    def test_a_math_error_fails_every_lane_as_it_fails_each_cell_alone(self, tmp_path, capsys,
                                                                       monkeypatch):
        # the shared disturbance's sine of an infinite argument at step 3;
        # a sigma = 1e307 cell has a non-finite state at step 1, before it
        text = stock("chain_step.conf", **{"disturbance.kind": "sinusoid",
                                           "disturbance.value": None, "disturbance.amplitude": 1.0,
                                           "disturbance.freq": 1e308, "sim.dt": 0.5,
                                           "sim.duration": 3.0})
        grid = ("omega=1,2", "sigma=0,0.01,1e307")
        lockstep = sweep_bytes(tmp_path, monkeypatch, text, grid, lockstep=True)
        alone = sweep_bytes(tmp_path, monkeypatch, text, grid, lockstep=False)
        capsys.readouterr()
        assert lockstep == alone
        statuses = [line.rsplit(",", 1)[1] for line in lockstep.decode().splitlines()[1:]]
        assert statuses == ["diverged at step 3 t=1.5"] * 2 + ["diverged at step 1 t=0.5"] + \
            ["diverged at step 3 t=1.5"] * 2 + ["diverged at step 1 t=0.5"]


class TestInputContract:
    """Each fault names its key, and exits 2 before any run."""

    def test_repeated_key(self, tmp_path, capsys):
        text = (CONFIGS / "chain_step.conf").read_text() + "controller.omega = 3.0\n"
        assert main(["simulate", "--config", write_conf(tmp_path, text),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "config error: line 14: controller.omega given twice (first on line 6)\n")

    def test_duration_not_a_whole_number_of_steps(self, tmp_path, capsys):
        conf = write_conf(tmp_path, stock("chain_step.conf",
                                          **{"sim.duration": 0.0125, "sim.dt": 0.005}))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: sim.duration: must be a whole number of sim.dt steps")

    SUM = {"disturbance.kind": "sum", "disturbance.value": None, "disturbance.terms": 2,
           "disturbance.term0.kind": "constant", "disturbance.term0.value": 1.0,
           "disturbance.term1.kind": "step"}

    @pytest.mark.parametrize("changes,message", [
        ({**SUM, "disturbance.term1.kind": "bogus"},
         "disturbance.term1.kind: unknown kind 'bogus'"),
        ({**SUM, "disturbance.terms": 0, "disturbance.term0.kind": None,
          "disturbance.term0.value": None, "disturbance.term1.kind": None},
         "disturbance.terms: must be >= 1, got 0"),
        ({**SUM, "disturbance.terms": -3, "disturbance.term0.kind": None,
          "disturbance.term0.value": None, "disturbance.term1.kind": None},
         "disturbance.terms: must be >= 1, got -3"),
        ({"disturbance.kind": "CONSTANT"}, "disturbance.kind: unknown kind 'CONSTANT'"),
    ], ids=["term_kind", "no_terms", "negative_terms", "kind_case"])
    def test_signal_fault(self, tmp_path, capsys, changes, message):
        conf = write_conf(tmp_path, stock("chain_step.conf", **changes))
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_vtol_sweeps_its_attitude_bandwidth(self, tmp_path, capsys):
        text = stock("vtol_wind.conf", **{"sim.duration": 0.5})
        conf = write_conf(tmp_path, text)
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "sweep"),
                     "--grid", "omega_att=10,5"]) == 0
        alone = write_conf(tmp_path, stock("vtol_wind.conf", **{"sim.duration": 0.5,
                                                                "controller.omega_att": 5}),
                           "alone.conf")
        assert main(["simulate", "--config", alone, "--out", str(tmp_path / "sim")]) == 0
        capsys.readouterr()
        slow, fast = read_rows(tmp_path / "sweep" / "sweep.csv")
        (simulated,) = read_rows(tmp_path / "sim" / "metrics.csv")
        assert slow.pop("scenario_id") == "omega=2_omegaf=8_omega_att=5_sigma=0"
        assert fast["scenario_id"] == "omega=2_omegaf=8_omega_att=10_sigma=0"
        simulated.pop("scenario_id")
        assert slow == simulated
        assert slow["sse_rms"] != fast["sse_rms"]

    def test_further_axes_name_the_cell_in_table_order(self, tmp_path, capsys):
        conf = write_conf(tmp_path, stock("vtol_wind.conf", **{"sim.duration": 0.05}))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "sweep"),
                     "--grid", "sigma=0,0.001", "omega_tau=15", "omega_att=5"]) == 0
        capsys.readouterr()
        assert [row["scenario_id"] for row in read_rows(tmp_path / "sweep" / "sweep.csv")] == [
            f"omega=2_omegaf=8_omega_att=5_omega_tau=15_sigma={sigma}" for sigma in ("0", "0.001")]

    @pytest.mark.parametrize("conf,axis,axes", [
        ("chain_step.conf", "omega_att", "omega, omega_f, sigma"),
        ("vehicle_bias.conf", "omega_d", "omega, omega_f, sigma"),
        ("vtol_wind.conf", "omega_d", "omega, omega_f, omega_att, omega_tau, sigma"),
    ], ids=["chain", "vehicle", "vtol"])
    def test_unknown_axis_lists_the_plant_axes(self, tmp_path, capsys, conf, axis, axes):
        conf = write_conf(tmp_path, stock(conf, **{"sim.duration": 0.05}))
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                     "--grid", f"{axis}=1"]) == 2
        assert capsys.readouterr().err == (
            f"config error: --grid: unknown axis {axis!r} ({axes})\n")
        assert not (tmp_path / "x").exists()


class TestSweepBaseValues:
    def test_one_cell_sweep_equals_simulate(self, tmp_path, capsys):
        # neither controller.omega nor the three noise channels are axes, so
        # the cell runs the config as given: the vehicle's default omega 0.5
        # and per-channel noise
        text = stock("vehicle_bias.conf", **{"controller.omega": None,
                                             "noise.sigma": "0.01,0.01,0.001"})
        conf = write_conf(tmp_path, text)
        assert main(["simulate", "--config", conf, "--out", str(tmp_path / "sim")]) == 0
        assert main(["sweep", "--config", conf, "--out", str(tmp_path / "sweep"),
                     "--grid", "omega_f=2"]) == 0
        capsys.readouterr()
        (simulated,) = read_rows(tmp_path / "sim" / "metrics.csv")
        (swept,) = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert swept.pop("scenario_id") == "omega=0.5_omegaf=2_sigma=0.01"
        simulated.pop("scenario_id")
        assert swept == simulated
        assert (float(swept["omega"]), float(swept["sigma"])) == (0.5, 0.01)


class TestBode:
    def test_long_format_and_values(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        out = tmp_path / "bode.csv"
        assert main(["bode", "--config", conf, "--out", str(out),
                     "--points-per-decade", "10"]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "tf,freq,mag,phase_rad"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"G", "G_o", "G_e"}
        # spot check: G_o magnitude at the lowest frequency is ~1
        g_o_rows = [line.split(",") for line in lines[1:] if line.startswith("G_o,")]
        assert float(g_o_rows[0][2]) == pytest.approx(1.0, abs=1e-3)
        # G has a zero at the origin: the lowest-frequency magnitude is tiny
        g_rows = [line.split(",") for line in lines[1:] if line.startswith("G,")]
        assert float(g_rows[0][2]) < 1e-3

    def test_deterministic_bytes(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bode", "--config", conf, "--out", str(a)]) == 0
        assert main(["bode", "--config", conf, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_points_per_decade_below_one(self, tmp_path, capsys, points):
        conf = write_conf(tmp_path, CHAIN_CONF)
        out = tmp_path / "bode.csv"
        assert main(["bode", "--config", conf, "--out", str(out),
                     "--points-per-decade", points]) == 2
        assert f"points per decade: must be >= 1, got {points}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_grid_past_the_point_cap_exits_at_once(self, tmp_path, capsys):
        conf = write_conf(tmp_path, CHAIN_CONF)
        out = tmp_path / "bode.csv"
        start = time.perf_counter()
        assert main(["bode", "--config", conf, "--out", str(out),
                     "--points-per-decade", "1000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "more than the 1000000 a grid may hold" in capsys.readouterr().err
        assert not out.exists()

    # valid bandwidths, which tune takes, whose grid ends leave the floats:
    # two decades above 1e307 overflow, two below 1e-322 underflow (at order
    # 1, where the gain a0 = 1e-322 is a nonzero subnormal)
    @pytest.mark.parametrize("changes,ends", [
        ({"controller.omega_f = 10.0": "controller.omega_f = 1e307"}, "0.02 to inf"),
        ({"plant.order = 2": "plant.order = 1",
          "controller.omega = 2.0": "controller.omega = 1e-322"}, "0 to 1000"),
    ], ids=["omega_f_1e307", "omega_1e-322"])
    def test_a_grid_end_past_the_floats_exits_2(self, tmp_path, capsys, changes, ends):
        text = CHAIN_CONF
        for old, new in changes.items():
            text = text.replace(old, new)
        conf = write_conf(tmp_path, text)
        assert main(["tune", "--config", conf]) == 0
        out = tmp_path / "bode.csv"
        assert main(["bode", "--config", conf, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: frequency grid: needs finite ends 0 < w_lo < w_hi, got {ends}\n")
        assert not out.exists()

    def test_an_error_raised_outside_a_run_exits_2(self, tmp_path, capsys):
        # a tiny omega puts the closed loop's repeated pole so near the
        # lowest grid frequency that |den| falls below POLE_EPS: a
        # PoleHitError, which is neither a config error nor a run failure.
        # At order 4 and omega = 1e-80 every coefficient of the closed loop is
        # nonzero, the smallest, omega**4 omega_f, a subnormal 1e-319
        conf = write_conf(tmp_path, CHAIN_CONF.replace("plant.order = 2", "plant.order = 4")
                          .replace("controller.omega = 2.0", "controller.omega = 1e-80"))
        assert main(["bode", "--config", conf, "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: denominator magnitude 1.00019e-319 below 1e-300 at s=1e-82j\n")


class TestShippedConfigs:
    # every stock config, and every benchmark input, passes the key check
    @pytest.mark.parametrize(
        "path", [*sorted(CONFIGS.glob("*.conf")), *sorted(BENCH_INPUTS.glob("*.conf"))],
        ids=lambda p: p.name if p.parent == CONFIGS else f"perfbench/inputs/{p.name}")
    def test_parse_and_build(self, path):
        scenario = build_scenario(load_config(path))
        assert scenario.duration > 0
