import os

import pytest

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
        assert "ok" in statuses and "diverged" in statuses

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
