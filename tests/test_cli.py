import hashlib
import math
import os
import re
import weakref
from pathlib import Path

import pytest

from lumped_pid import cli
from lumped_pid.cli import main
from lumped_pid.config import build_scenario, load_config, parse_config_text
from lumped_pid.controller import synthesize_gains
from lumped_pid.errors import ConfigError
from lumped_pid.plants import chain, vehicle
from lumped_pid.signals import Sum


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
        assert "kp = 5" in out and "ki = 100" in out
        assert "kp/b = 2.5" in out and "ki/b = 50" in out

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
        a = synthesize_gains(2, omega).a
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
    # a path or reference option the kind does not read, set away from its default
    ("vehicle_bias.conf", {"path.kind": "circle", "path.length": 5},
     "path.length: not read by path.kind 'circle'"),
    ("vehicle_bias.conf", {"path.radius": 20}, "path.radius: not read by path.kind 'line'"),
    ("vtol_wind.conf", {"reference.radius": 2},
     "reference.radius: not read by reference.kind 'hover'"),
    ("vtol_wind.conf", {"reference.kind": "circle", "reference.position": "1,0,0"},
     "reference.position: not read by reference.kind 'circle'"),
], ids=["csv_without_file", "known_d_omega_d", "known_d_quadrature", "vtol_inertia_asymmetric",
        "vtol_inertia_indefinite", "circle_path_length", "line_path_radius",
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
    ], ids=["no_equals", "not_numbers"])
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
    monkeypatch.setattr(chain, "LOCKSTEP", 1 if lockstep else None)
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

    @pytest.mark.parametrize("case,cells", [("chain_step_benchmark_grid", 18),
                                            ("bound_demo_benchmark_grid", 4)])
    def test_benchmark_grid_is_one_lockstep_run(self, tmp_path, capsys, monkeypatch, case,
                                                cells):
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
        assert lanes == [cells]

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
        for min_cells in (1, None):  # every cell in lockstep, or each alone
            monkeypatch.setattr(chain, "LOCKSTEP", min_cells)
            assert main(["sweep", "--config", conf, "--out", str(tmp_path / "x"),
                         "--grid", "omega=1,2,5", "sigma=0,0.01"]) == 2
            assert "plant.x0: expected 2 values, got 3" in capsys.readouterr().err
            assert not (tmp_path / "x" / "sweep.csv").exists()


# name: (config text, grid, extra arguments, LUMPED_PID_SEED, exit code, SHA-256 of
# sweep.csv). The vehicle and VTOL digests were recorded before sweep cells were
# derived from the base scenario, so they pin that every cell runs as it did when
# built from its own config text. The chain digests were re-recorded when the
# chain's RK4 step became one affine map, a change at round-off in which no
# cell's status moved.
SWEEP_DIGESTS = {
    "chain_step_benchmark_grid": (
        stock("chain_step.conf"), ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"), (),
        None, 0, "75364e6998f60b4c4dfbfda65094a092e35d0e6a79ff086a0e92c307200d2b98"),
    "chain_step_benchmark_grid_per_cell": (
        stock("chain_step.conf"), ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"),
        ("--seed-policy", "per-cell"),
        None, 0, "7a4fcf0ebc889f711a8ce75aef40d74c69e6c161e2b85621749523afc7df1c4a"),
    "bound_demo_benchmark_grid": (
        stock("bound_demo.conf"), ("omega=2,5", "sigma=0,0.01"), (),
        None, 0, "6ff4f1e756a24809006136d53e82cc5a7c6e4772c53960c6e7a9ee089bdd55d8"),
    "vehicle_bias_2s": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0}), ("omega=0.5,1", "omega_f=1,2"), (),
        None, 0, "8fd1763d3d93031d56cd49b13dd9d42aa0fcf92add83975e3a53e2e8c99b168c"),
    "vtol_wind_3s": (
        stock("vtol_wind.conf", **{"sim.duration": 3.0}), ("omega=1,2", "sigma=0,0.001"),
        ("--parallel", "1"),
        None, 0, "5a770fcf03e5baa45d01df139e2c85961397da31748919670a300f0a015b24b1"),
    "vtol_wind_3s_parallel": (
        stock("vtol_wind.conf", **{"sim.duration": 3.0}), ("omega=1,2", "sigma=0,0.001"),
        ("--parallel", "2"),
        None, 0, "5a770fcf03e5baa45d01df139e2c85961397da31748919670a300f0a015b24b1"),
    "chain_step_2s_parallel_per_cell": (
        stock("chain_step.conf", **{"sim.duration": 2.0}),
        ("omega=1,2,5", "omega_f=10,20,40", "sigma=0,0.01"),
        ("--parallel", "2", "--seed-policy", "per-cell"),
        None, 0, "e559a473908187a09a090612d5627d504ec447dffa4fe3b6991ea58fe14a0f6b"),
    "chain_step_2s_diverged": (
        stock("chain_step.conf", **{"sim.duration": 2.0}), ("omega=2,2000",), (),
        None, 4, "0631bc155955e2f74f25b90da054e8b8d34bb83ba182ca7f3f233a938a1c7a76"),
    "chain_step_1s_env_seed_per_cell": (
        stock("chain_step.conf", **{"sim.duration": 1.0}),
        ("omega=1,2", "omega_f=10,20", "sigma=0.01,0.02"), ("--seed-policy", "per-cell"),
        "7", 0, "a2fcdea4d23464ff06e6a365743f126f9eadfaf8dcadd5f3be31ce5de782635e"),
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


# stock config: SHA-256 of its simulate run's trace.csv and metrics.csv
STOCK_DIGESTS = {
    "chain_step.conf": ("9246a0c4247ea14dbcf9e71acfefaad58e95c0873fcc7247237d928b7922e52e",
                        "7fda56f00a325921ef2fdb945fe0c300925a5ddd9051810eab203dad796b01f9"),
    "bound_demo.conf": ("42c890d266b2083bb879b2453685a9f5e509ba77852a5bbd85a5e70fd5641c8a",
                        "66fd89f4bf5a8ba17327e71d8799a109d30ad95159c704fac651863e9f944650"),
    "vehicle_bias.conf": ("d7840a673a7c124026cbd1875d10c97ed49eddee5321d20a7b74a8d811e719f8",
                          "e6b1b57180aed2962b3c11e831c997f5f1cec66506e3453ae1563ce4d971cb97"),
    "vtol_wind.conf": ("50939dea75d73d5d558565db8634a05b536c5e41ef1ba6093237421933401a28",
                       "da9fab8641e4799dcfa99fae84de4b4afb50ed524984925cc7f41a38a99b23d6"),
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.conf")))
def test_stock_config_bytes_match_recorded_digest(tmp_path, capsys, monkeypatch, name):
    monkeypatch.delenv("LUMPED_PID_SEED", raising=False)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    capsys.readouterr()
    assert tuple(hashlib.sha256((out / csv).read_bytes()).hexdigest()
                 for csv in ("trace.csv", "metrics.csv")) == STOCK_DIGESTS[name]


# short noisy runs: config text and the SHA-256 of its simulate run's trace.csv
# and metrics.csv, recorded before the noise table became one float64 array
NOISY_DIGESTS = {
    "chain_step_noisy": (
        stock("chain_step.conf", **{"sim.duration": 2.0, "noise.sigma": "0.01,0.02"}),
        "5df8a2921e65d9304f7d1c4441e71d4bc45f29e939e2cf5baf01a6fc4bc06dca",
        "09e8e3fb994519f1cbc8d7eff3dbfe407cd1c413ba4c90da5fb92c551757e0e2"),
    "vehicle_circle_noisy": (
        stock("vehicle_bias.conf", **{"sim.duration": 2.0, "path.kind": "circle",
                                      "noise.sigma": "0.01,0.01,0.001"}),
        "1294d68a248096b7a2e82df4fdf33e77eed92e25556415d77c52f729a31e1122",
        "c69456360a0adac4b9380834e5e3a318b9b6ff2bf5b853d4347377367066c4ec"),
    "vtol_circle_noisy": (
        stock("vtol_wind.conf", **{"reference.kind": "circle", "reference.radius": 1.0,
                                   "reference.omega": 1.0, "sim.duration": 2.0,
                                   "noise.sigma": 0.001}),
        "c9affc49afc740444616e8a19f58688e421af9c1bf597e28be54f47a4597de3c",
        "966b3a47b39aa08678ac385eddff299578ae863b0292d71f41008cf1f901aa77"),
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
        # two cells go through run_each, five through run_scenario's list
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
        # five cells run in lockstep on a chain (chain.LOCKSTEP is 4), two run
        # one by one
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
         "path.file: path tangent inconsistent with heading column"),
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

    def test_an_error_raised_outside_a_run_exits_2(self, tmp_path, capsys):
        # a tiny omega puts the closed loop's repeated pole so near the
        # lowest grid frequency that |den| underflows: a PoleHitError, which
        # is neither a config error nor a run failure
        conf = write_conf(tmp_path, CHAIN_CONF.replace("controller.omega = 2.0",
                                                       "controller.omega = 1e-200"))
        assert main(["bode", "--config", conf, "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: denominator magnitude 0 below 1e-300 at s=1e-202j\n")


class TestShippedConfigs:
    # every stock config, and every benchmark input, passes the key check
    @pytest.mark.parametrize(
        "path", [*sorted(CONFIGS.glob("*.conf")), *sorted(BENCH_INPUTS.glob("*.conf"))],
        ids=lambda p: p.name if p.parent == CONFIGS else f"perfbench/inputs/{p.name}")
    def test_parse_and_build(self, path):
        scenario = build_scenario(load_config(path))
        assert scenario.duration > 0
