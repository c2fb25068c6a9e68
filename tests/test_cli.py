import math
import os
import re
from pathlib import Path

import pytest

from lumped_pid import cli
from lumped_pid.cli import main
from lumped_pid.config import build_scenario, load_config, parse_config_text
from lumped_pid.errors import ConfigError
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
        text = CHAIN_CONF + (
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


def sweep_bytes(tmp_path, monkeypatch, text, grid, *extra, lockstep):
    """sweep.csv bytes with every chain cell run in lockstep, or each alone."""
    monkeypatch.setattr(cli, "_LOCKSTEP_MIN_CELLS", 1 if lockstep else 10**9)
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


    def test_failure_before_the_loop_is_each_cells_error(self, tmp_path, capsys, monkeypatch):
        text = stock("chain_step.conf", **{"sim.duration": 1.0, "plant.x0": "1,2,3"})
        grid = ("omega=1,2,5", "sigma=0,0.01")
        lockstep = sweep_bytes(tmp_path, monkeypatch, text, grid, lockstep=True)
        alone = sweep_bytes(tmp_path, monkeypatch, text, grid, lockstep=False)
        capsys.readouterr()
        assert lockstep == alone
        statuses = {line.rsplit(",", 1)[1] for line in lockstep.decode().splitlines()[1:]}
        assert statuses == {"error: plant.x0: expected 2 values; got 3"}


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


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["chain_step.conf", "bound_demo.conf",
                                      "vtol_wind.conf", "vehicle_bias.conf"])
    def test_parse_and_build(self, name):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        flat = load_config(os.path.join(here, "configs", name))
        scenario = build_scenario(flat)
        assert scenario.duration > 0
