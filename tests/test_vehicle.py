import io
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lumped_pid.config import build_scenario, load_config
from lumped_pid.plants import vehicle

from lumped_pid.errors import (
    AmbiguousMatchError,
    ConfigError,
    OffPathError,
    SteeringLimitError,
)
from lumped_pid.plants.vehicle import (
    FrenetPath,
    LateralErrorState,
    LateralObserverController,
    bicycle,
    frenet_match,
    lateral_controller_known_d,
    wrap_angle,
)
from lumped_pid.signals import Constant
from lumped_pid.sim import Scenario, rk4_step, run_scenario


def write_path_csv(f, path):
    """The path's columns as a ``path.file`` CSV, floats at 17 significant digits."""
    np.savetxt(f, np.column_stack([path.s, path.x, path.y, path.theta, path.kappa]),
               fmt="%.17g", delimiter=",", comments="", header="s,x,y,theta,kappa")


def vehicle_scenario(**overrides):
    base = dict(
        plant_kind="vehicle",
        plant={"wheelbase": 2.7, "speed": 10.0, "path": {"kind": "line", "length": 200.0}},
        controller={"kind": "observer", "omega": 0.5, "omega_d": 2.0},
        disturbance=Constant(0.0),
        dt=1e-3,
        duration=6.0,
        seed=0,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.mark.parametrize("plant,controller,message", [
    ({}, {"omega": 0.0}, "controller.omega: must be positive, got 0.0"),
    ({}, {"kind": "known_d", "omega": -0.5}, "controller.omega: must be positive"),
    ({"path": {"kind": "line", "spacing": 0.0}}, {}, "path.spacing: must be positive"),
    ({"path": {"kind": "circle", "spacing": -1.0}}, {}, "path.spacing: must be positive"),
    ({"capture_radius": -1.0}, {}, "plant.capture_radius: must be positive"),
    ({"path": {"kind": "csv", "file": str(Path(__file__).parent / "no_such_path.csv")}}, {},
     "path.file: cannot read"),
], ids=["omega_zero", "known_d_omega_negative", "spacing_zero", "circle_spacing_negative",
        "capture_radius_negative", "unreadable_path_file"])
def test_a_direct_scenario_outside_its_domain_fails_before_the_run(plant, controller, message):
    with pytest.raises(ConfigError) as raised:
        run_scenario(vehicle_scenario(plant=plant, controller=controller, duration=0.05))
    assert str(raised.value).startswith(message)
    assert raised.value.step is None


class TestWrapAngle:
    def test_values(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_angle(2 * math.pi + 0.1) == pytest.approx(0.1)


class TestBicycleDerivative:
    def test_straight_line(self):
        dx, dy, dth = bicycle(5.0, 2.7)([0.0, 0.0, 0.0], 0.0, 0.0)
        assert (dx, dy, dth) == (5.0, 0.0, 0.0)

    def test_yaw_rate_value(self):
        # independent arithmetic: v * sin/cos instead of tan
        _, _, dth = bicycle(10.0, 2.7)([0.0, 0.0, 0.0], 0.1, 0.0)
        expected = 10.0 * math.sin(0.1) / math.cos(0.1) / 2.7
        assert dth == pytest.approx(expected, rel=1e-15)
        assert dth == pytest.approx(0.37160989661277977, rel=1e-12)

    def test_constant_steering_closes_a_circle(self):
        # oracle: circular motion with radius L / tan(delta + d)
        L, v, delta = 2.7, 10.0, 0.1
        radius = L / math.tan(delta)
        period = 2 * math.pi * radius / v
        dt = period / 20000
        state = [0.0, 0.0, 0.0]
        for _ in range(20000):
            state = rk4_step(bicycle(v, L), state, delta, (0.0, 0.0, 0.0), dt)
        assert abs(state[0]) < 1e-6
        assert abs(state[1]) < 1e-6
        assert wrap_angle(state[2]) == pytest.approx(0.0, abs=1e-6)

    def test_steering_limit(self):
        with pytest.raises(SteeringLimitError):
            bicycle(10.0, 2.7)([0.0, 0.0, 0.0], math.pi / 2, 0.0)
        with pytest.raises(SteeringLimitError):
            bicycle(10.0, 2.7)([0.0, 0.0, 0.0], 1.0, 0.8)
        with pytest.raises(SteeringLimitError):
            bicycle(10.0, 2.7)([0.0, 0.0, 0.0], -1.0, -0.8)


class TestFrenetPath:
    def test_line_geometry(self):
        path = FrenetPath.line(100.0)
        path.validate_geometry()
        assert path.length == pytest.approx(100.0)

    def test_circle_geometry(self):
        path = FrenetPath.circle(50.0, 150.0)
        path.validate_geometry()
        assert np.all(path.kappa == 1.0 / 50.0)

    def test_monotone_arc_length_required(self):
        with pytest.raises(ConfigError):
            FrenetPath([0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ConfigError, match="^path columns must have equal length$"):
            FrenetPath([0.0, 1.0], [0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["s", "x", "y", "theta", "kappa"])
    def test_non_finite_sample_rejected(self, column, bad):
        # a NaN in s would pass the strictly-increasing check: every comparison is False
        line = FrenetPath.line(10.0)
        columns = {"s": line.s, "x": line.x, "y": line.y, "theta": line.theta, "kappa": line.kappa}
        columns[column] = columns[column].copy()
        columns[column][2] = bad
        with pytest.raises(ConfigError, match=f"^path column {column}: non-finite sample$"):
            FrenetPath(**columns)

    def test_csv_round_trip(self, tmp_path):
        path = FrenetPath.circle(20.0, 40.0)
        f = tmp_path / "path.csv"
        write_path_csv(f, path)
        loaded = FrenetPath.from_csv(f)
        assert np.array_equal(loaded.s, path.s)
        assert np.array_equal(loaded.x, path.x)
        assert np.array_equal(loaded.theta, path.theta)

    def test_csv_missing_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("s,x,y\n0,0,0\n1,1,0\n")
        with pytest.raises(ConfigError):
            FrenetPath.from_csv(f)

    @pytest.mark.parametrize("column,message", [
        ("kappa", "curvature"),  # a straight line whose kappa says it turns
        ("theta", "heading"),    # a line along +x whose heading says +y
    ])
    def test_csv_geometry_is_validated(self, tmp_path, column, message):
        line = FrenetPath.line(10.0)
        columns = {"s": line.s, "x": line.x, "y": line.y, "theta": line.theta, "kappa": line.kappa}
        columns[column] = np.full(len(line), 0.05 if column == "kappa" else math.pi / 2)
        write_path_csv(tmp_path / "path.csv", FrenetPath(**columns))
        with pytest.raises(ConfigError, match=f"inconsistent with {message}"):
            FrenetPath.from_csv(tmp_path / "path.csv")


class TestFrenetMatch:
    def test_on_path_zero_errors(self):
        path = FrenetPath.line(100.0)
        err = frenet_match(path, (40.0, 0.0, 0.0))
        assert err.l == pytest.approx(0.0, abs=1e-12)
        assert err.e_theta == 0.0
        assert err.s_d == pytest.approx(40.0, abs=1e-9)

    def test_straight_path_offset_sign_convention(self):
        # e = reference - pose: a pose 0.3 m to the LEFT of a +x path gives
        # l = -0.3 (l > 0 means the path lies to the vehicle's left).
        path = FrenetPath.line(100.0)
        err = frenet_match(path, (5.0, 0.3, 0.0))
        assert err.l == pytest.approx(-0.3, abs=1e-12)
        assert err.e_theta == 0.0
        assert err.s_d == pytest.approx(5.0, abs=1e-9)

    def test_circle_outside_offset_magnitude_and_sign(self):
        radius = 50.0
        path = FrenetPath.circle(radius, 2 * math.pi * radius * 0.6, spacing=0.05)
        center = (0.0, radius)
        a = 0.7  # angle along the circle
        outward = (math.sin(a), -math.cos(a))
        pose = (center[0] + (radius + 0.2) * outward[0],
                center[1] + (radius + 0.2) * outward[1],
                a)
        err = frenet_match(path, pose)
        # brute-force projection oracle on a dense sampling
        dense = np.linspace(0.0, path.length, 200001)
        ang = dense / radius
        d2 = (radius * np.sin(ang) - pose[0]) ** 2 + (radius * (1 - np.cos(ang)) - pose[1]) ** 2
        assert abs(err.l) == pytest.approx(0.2, abs=1e-4)
        assert err.l > 0  # vehicle outside a CCW circle: path is to its left
        assert math.sqrt(float(np.min(d2))) == pytest.approx(0.2, abs=1e-6)
        assert err.s_d == pytest.approx(float(dense[np.argmin(d2)]), abs=1e-3)

    def test_tangency_constraint_satisfied(self):
        path = FrenetPath.circle(30.0, 80.0, spacing=0.1)
        err = frenet_match(path, (12.0, 3.5, 0.6))
        x_d = 30.0 * math.sin(err.s_d / 30.0)
        y_d = 30.0 * (1 - math.cos(err.s_d / 30.0))
        e_x, e_y = x_d - 12.0, y_d - 3.5
        assert abs(e_x * math.cos(err.theta_d) + e_y * math.sin(err.theta_d)) < 1e-6

    def test_off_path_error(self):
        path = FrenetPath.line(100.0)
        with pytest.raises(OffPathError):
            frenet_match(path, (50.0, 25.0, 0.0))

    def test_nan_pose_is_off_path(self):
        path = FrenetPath.line(100.0)
        for hint in (None, 40):
            with pytest.raises(OffPathError):
                frenet_match(path, (math.nan, 0.0, 0.0), hint_index=hint)

    def test_ambiguous_match_at_circle_center(self):
        radius = 5.0
        path = FrenetPath.circle(radius, 2 * math.pi * radius, spacing=0.05)
        with pytest.raises(AmbiguousMatchError):
            frenet_match(path, (0.0, radius, 0.0), capture_radius=100.0)
def _curvy_csv_path():
    """S-curve with kappa = 0.04 sin(s/15), written to CSV and loaded back."""
    s = np.linspace(0.0, 120.0, 481)
    theta = 0.6 * (1.0 - np.cos(s / 15.0))
    ds = np.diff(s)
    x = np.concatenate([[0.0], np.cumsum(0.5 * (np.cos(theta[1:]) + np.cos(theta[:-1])) * ds)])
    y = np.concatenate([[0.0], np.cumsum(0.5 * (np.sin(theta[1:]) + np.sin(theta[:-1])) * ds)])
    buf = io.StringIO()
    write_path_csv(buf, FrenetPath(s, x, y, theta, 0.04 * np.sin(s / 15.0)))
    buf.seek(0)
    return FrenetPath.from_csv(buf)


PATHS = {
    "line": FrenetPath.line(100.0),
    "circle": FrenetPath.circle(30.0, 150.0),
    "csv": _curvy_csv_path(),
}
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def point_at(path, s):
    """(s, x, y, theta, kappa) of the path at arc length s, interpolated in
    its segment as the matcher interpolates."""
    i = min(max(int(np.searchsorted(path.s, s)) - 1, 0), len(path) - 2)
    a = min(max((s - path.s[i]) / (path.s[i + 1] - path.s[i]), 0.0), 1.0)
    return path._interp(i, a)


@st.composite
def near_path_pose(draw):
    """(path, pose) with the pose up to 2 m either side of an interior point."""
    path = PATHS[draw(st.sampled_from(sorted(PATHS)))]
    s0 = draw(st.floats(1.0, path.length - 1.0))
    offset = draw(st.floats(-2.0, 2.0))
    _, x, y, th, _ = point_at(path, s0)
    heading = th + draw(st.floats(-0.5, 0.5))
    return path, (x - offset * math.sin(th), y + offset * math.cos(th), heading)


def tangency(path, s_d, px, py):
    _, x_d, y_d, th_d, _ = point_at(path, s_d)
    return (x_d - px) * math.cos(th_d) + (y_d - py) * math.sin(th_d)


def bisection_match(path, px, py):
    """Oracle s_d: numpy-argmin nearest sample, then 60 halvings of the
    tangency constraint in each bracketing neighbour segment; None if no
    neighbour segment brackets a root."""
    best = int(np.argmin((path.x - px) ** 2 + (path.y - py) ** 2))

    def g(i, a):
        _, x, y, th, _ = path._interp(i, a)
        return (x - px) * math.cos(th) + (y - py) * math.sin(th)

    roots = []
    for i in (best - 1, best):
        if 0 <= i < len(path) - 1 and g(i, 0.0) * g(i, 1.0) <= 0.0:
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if g(i, lo) * g(i, mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(path._interp(i, 0.5 * (lo + hi)))
    if not roots:
        return None
    return min(roots, key=lambda r: (r[1] - px) ** 2 + (r[2] - py) ** 2)[0]


class TestFrenetMatchProperties:
    @PROPERTY
    @given(near_path_pose())
    def test_tangency_residual_at_round_off(self, case):
        path, (px, py, th) = case
        err = frenet_match(path, (px, py, th))
        scale = max(1.0, abs(px), abs(py), err.s_d)
        assert abs(tangency(path, err.s_d, px, py)) <= 1e-12 * scale

    @PROPERTY
    @given(near_path_pose())
    def test_agrees_with_bisection_oracle(self, case):
        path, (px, py, th) = case
        s_ref = bisection_match(path, px, py)
        assume(s_ref is not None)
        err = frenet_match(path, (px, py, th))
        assert abs(err.s_d - s_ref) <= 1e-12
        hinted = frenet_match(path, (px, py, th), hint_index=err.segment)
        assert abs(hinted.s_d - err.s_d) <= 1e-12

    @PROPERTY
    @given(near_path_pose(), st.integers(-60, 60))
    def test_hinted_descent_finds_window_minimum(self, case, shift):
        path, (px, py, _) = case
        n = len(path)
        d2 = (path.x - px) ** 2 + (path.y - py) ** 2
        hint = min(max(int(np.argmin(d2)) + shift, 0), n - 1)
        lo, hi = max(0, hint - 50), min(n - 1, hint + 50)
        steps = np.sign(np.diff(d2[lo:hi + 1]))
        turn = int(np.argmax(steps > 0)) if np.any(steps > 0) else len(steps)
        assume(np.all(steps[:turn] < 0) and np.all(steps[turn:] > 0))  # strictly unimodal
        assert vehicle._nearest_sample(path, px, py, hint)[0] == lo + int(np.argmin(d2[lo:hi + 1]))

    def test_newton_step_leaving_segment_halves_the_bracket(self):
        # one coarse segment of a unit circle, pose near the centre of
        # curvature: g' nearly vanishes at the chord projection (a = 0.48),
        # so the first Newton step would land at a = -2.8
        path = FrenetPath.circle(1.0, 1.0, spacing=1.0)
        px, py = -0.05, 1.06
        err = frenet_match(path, (px, py, 0.0))
        assert abs(tangency(path, err.s_d, px, py)) <= 1e-12
        assert abs(err.s_d - bisection_match(path, px, py)) <= 1e-12

    def test_zero_chord_root(self):
        # a table built directly may repeat (x, y) with distinct theta; the
        # segment from (1, 0) back to (1, 0) turns theta from 0 to pi/2, and
        # its tangency root for the pose (2, -1) is theta = pi/4, a = 1/2
        path = FrenetPath([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.5 * math.pi], [0.0, 0.0, 0.0])
        err = frenet_match(path, (2.0, -1.0, 0.0))
        assert err.segment == 1
        assert err.s_d == pytest.approx(1.5, abs=1e-15)
        assert err.theta_d == pytest.approx(0.25 * math.pi, abs=1e-15)
        assert abs(err.s_d - bisection_match(path, 2.0, -1.0)) <= 1e-12

    def test_vanishing_derivative_root(self):
        # chord (1, 0) and theta 0 -> 1 rad; the pose (-0.1, 1) projects
        # before the chord, so Newton starts at a = 0, where g'(0) = dx +
        # dtheta e_y = 1 - 1 is exactly 0
        path = FrenetPath([0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0])
        err = frenet_match(path, (-0.1, 1.0, 0.0))
        assert err.segment == 0
        x_d, y_d = err.s_d, 0.0  # s, x and theta run together on this table
        residual = (x_d + 0.1) * math.cos(err.theta_d) + (y_d - 1.0) * math.sin(err.theta_d)
        assert abs(residual) <= 1e-15
        assert 0.0 < err.s_d < 1.0
        assert abs(err.s_d - bisection_match(path, -0.1, 1.0)) <= 1e-12

    # a straight 1e-6 m segment at 0.7 rad, 1.7 m from the pose: near the
    # root g is round-off of about 1e-16 and g' is the 1e-6 chord, so no
    # Newton step falls below NEWTON_TOL and each one halves the bracket
    TINY_SEGMENT = (0.7, np.array([0.0, 1e-6, 2e-6]), 0.3e-6, 1.7)

    def tiny_segment_match(self, monkeypatch):
        """frenet_match on TINY_SEGMENT and the math.cos calls it makes, one
        per root iteration and one for the lateral error."""
        th, s, along, off = self.TINY_SEGMENT
        c, sn = math.cos(th), math.sin(th)
        path = FrenetPath(s, s * c, s * sn, np.full(3, th), np.zeros(3))
        px, py = along * c - off * sn, along * sn + off * c
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def cos(self, x):
                calls.append(x)
                return math.cos(x)

        with monkeypatch.context() as patch:
            patch.setattr(vehicle, "math", CountingMath())
            err = frenet_match(path, (px, py, 0.0), capture_radius=2.0)
        return err, len(calls), bisection_match(path, px, py)

    def test_root_loop_ends_when_its_bracket_closes(self, monkeypatch):
        err, cos_calls, s_ref = self.tiny_segment_match(monkeypatch)
        assert cos_calls <= 12  # 65, ROOT_STEPS + 1, before the bracket test
        assert err.segment == 0
        assert err.s_d == pytest.approx(0.3e-6, abs=1e-15)
        assert abs(err.s_d - s_ref) <= 1e-12

    def test_root_loop_ends_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(vehicle, "ROOT_STEPS", 3)
        err, cos_calls, s_ref = self.tiny_segment_match(monkeypatch)
        assert cos_calls == 3 + 1
        assert err.segment == 0
        assert 0.0 <= err.s_d <= 1e-6

    @PROPERTY
    @given(st.floats(0.5, 3.0), st.floats(0.05, 0.95), st.floats(-0.95, 0.95))
    def test_coarse_circle_matches_bisection(self, spacing, where, offset):
        # two segments, spacing and offset in radii of a unit circle: the
        # chord projection is far from the root and Newton steps often
        # leave the segment; the pose stays off the table ends, where the
        # root is a sample and either side's rounding decides the bracket
        path = FrenetPath.circle(1.0, 2.0 * spacing, spacing=spacing)
        _, x, y, th, _ = point_at(path, where * path.length)
        px, py = x - offset * math.sin(th), y + offset * math.cos(th)
        s_ref = bisection_match(path, px, py)
        assume(s_ref is not None)
        err = frenet_match(path, (px, py, 0.0))
        assert abs(err.s_d - s_ref) <= 1e-12
        assert path.s[err.segment] <= err.s_d <= path.s[err.segment + 1]


@pytest.fixture
def match_calls(monkeypatch):
    """The ``_interp``, ``_sample_tangency`` and ``_tangency_root`` calls of
    each ``frenet_match`` call, in order, as dicts of counts."""
    counts = dict.fromkeys(("_interp", "_sample_tangency", "_tangency_root"), 0)
    per_match = []
    for owner, name in ((FrenetPath, "_interp"), (vehicle, "_sample_tangency"),
                        (vehicle, "_tangency_root")):
        def spy(*args, _inner=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(owner, name, spy)

    def match(*args, **kwargs):
        counts.update(dict.fromkeys(counts, 0))
        err = frenet_match(*args, **kwargs)
        per_match.append(dict(counts))
        return err

    monkeypatch.setattr(vehicle, "frenet_match", match)
    return per_match


class TestFrenetMatchCalls:
    """A match evaluates g once at each sample next to the nearest one and
    interpolates each candidate once."""

    def test_noisy_circle_run(self, match_calls):
        # this run finds one candidate on every step but one: its pose
        # noise never puts a tangency root in both segments
        run_scenario(vehicle_scenario(
            plant={"wheelbase": 2.7, "speed": 10.0,
                   "path": {"kind": "circle", "radius": 50.0, "arc": 300.0}},
            disturbance=Constant(math.radians(2.0)), duration=2.0, noise=(0.01, 0.01, 0.001)))
        assert len(match_calls) == 2001
        assert max(c["_interp"] for c in match_calls) == 1
        assert max(c["_sample_tangency"] for c in match_calls) <= 3

    # a unit circle tabulated every 2.5 rad: each pose has a tangency root in
    # both segments, and the nearer one lies in the given segment
    @pytest.mark.parametrize("pose,segment", [((1.35, 1.242, 0.0), 0),
                                              ((-0.165, 2.232, 0.0), 1)])
    def test_two_candidate_match(self, match_calls, pose, segment):
        path = FrenetPath.circle(1.0, 5.0, spacing=2.5)
        err = vehicle.frenet_match(path, pose)
        (calls,) = match_calls
        assert calls["_tangency_root"] == 2
        assert calls["_interp"] <= 2
        assert calls["_sample_tangency"] <= 3
        assert err.segment == segment
        assert abs(err.s_d - bisection_match(path, pose[0], pose[1])) <= 1e-12

    def test_pinned_two_candidate_run(self, match_calls):
        # the run of NOISY_DIGESTS["vehicle_two_candidate"] in test_cli.py:
        # every match finds a tangency root in both segments
        run_scenario(vehicle_scenario(
            plant={"wheelbase": 2.7, "speed": 0.5, "x0": (1.35, 1.242, 1.6364524547615598),
                   "path": {"kind": "circle", "radius": 1.0, "arc": 5.0, "spacing": 2.5}},
            disturbance=Constant(math.radians(2.0)), duration=0.2))
        assert len(match_calls) == 201
        assert all(c["_tangency_root"] == 2 for c in match_calls)


def test_a_step_makes_25_python_calls():
    # Python-level calls of the stock run, profiled at two lengths so that
    # set-up and output cancel; the step made 28 before the bicycle
    # derivative was bound to its speed and wheelbase. rk4_step and the
    # kernel it dispatches to are two of them; the first run builds that
    # kernel, so it stays out of the count
    def calls(duration):
        flat = load_config(Path(__file__).resolve().parent.parent / "configs" / "vehicle_bias.conf")
        flat["sim.duration"] = str(duration)
        scenario = build_scenario(flat)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            run_scenario(scenario)
        finally:
            sys.setprofile(outer)
        return count

    calls(0.05)
    assert calls(0.1) - calls(0.05) == 25 * 50


def lateral_error_derivatives(err: LateralErrorState, delta: float, d: float,
                              L: float, r_s: float, kappa_d: float) -> tuple[float, float]:
    """Distance-domain error model: l' = sin(e_theta) and
    l'' = cos(e_theta) (r_s kappa_d - tan(delta+d)/L)."""
    lp = math.sin(err.e_theta)
    lpp = math.cos(err.e_theta) * (r_s * kappa_d - math.tan(delta + d) / L)
    return lp, lpp


class TestLateralErrorDerivatives:
    def test_curvature_matched_aligned(self):
        err = LateralErrorState(l=0.0, e_theta=0.0, s_d=0.0, theta_d=0.0, kappa_d=0.02)
        delta = math.atan(2.7 * 0.02)
        lp, lpp = lateral_error_derivatives(err, delta, 0.0, 2.7, 1.0, 0.02)
        assert lp == 0.0
        assert lpp == pytest.approx(0.0, abs=1e-15)

    def test_heading_error_drives_l(self):
        err = LateralErrorState(l=0.0, e_theta=0.1, s_d=0.0, theta_d=0.0, kappa_d=0.0)
        lp, lpp = lateral_error_derivatives(err, 0.0, 0.0, 2.7, 1.0, 0.0)
        assert lp == pytest.approx(math.sin(0.1), rel=1e-15)
        assert lpp == 0.0


class TestKnownDisturbanceLaw:
    def test_trivial_zero(self):
        err = LateralErrorState(l=0.0, e_theta=0.0, s_d=0.0, theta_d=0.0, kappa_d=0.0)
        assert lateral_controller_known_d(err, 0.0, 0.0, 2.7) == 0.0

    def test_pure_curvature_feedforward(self):
        err = LateralErrorState(l=0.0, e_theta=0.0, s_d=0.0, theta_d=0.0, kappa_d=1 / 50.0)
        d = 0.01
        delta = lateral_controller_known_d(err, 0.0, d, 2.7)
        assert delta == pytest.approx(math.atan(2.7 / 50.0) - d, rel=1e-12)

    def test_feedback_linearization_identity_random_states(self):
        # substituting the law into l'' (r_s = 1) must give -k0 l - k1 l'
        rng = random.Random(2024)
        L, k0, k1 = 2.7, 0.25, 1.0
        for _ in range(300):
            err = LateralErrorState(
                l=rng.uniform(-3, 3),
                e_theta=rng.uniform(-1.2, 1.2),
                s_d=0.0,
                theta_d=0.0,
                kappa_d=rng.uniform(-0.03, 0.03),
            )
            d = rng.uniform(-0.05, 0.05)
            expected = -k0 * err.l - k1 * math.sin(err.e_theta)
            delta = lateral_controller_known_d(err, -expected, d, L)
            _, lpp = lateral_error_derivatives(err, delta, d, L, 1.0, err.kappa_d)
            assert lpp == pytest.approx(expected, abs=1e-9)

    def test_heading_singularity_guarded(self):
        err = LateralErrorState(l=0.0, e_theta=math.pi / 2, s_d=0.0, theta_d=0.0, kappa_d=0.0)
        with pytest.raises(SteeringLimitError):
            lateral_controller_known_d(err, 0.0, 0.0, 2.7)


class TestKnownDisturbanceClosedLoop:
    def test_critically_damped_lateral_response(self):
        # start 1 m right of a straight path (l = +1), poles at -omega per
        # meter: l(s) = (1 + omega s) exp(-omega s), exact for kappa_d = 0
        omega = 0.5
        scenario = vehicle_scenario(
            plant={"wheelbase": 2.7, "speed": 10.0, "x0": (0.0, -1.0, 0.0),
                   "path": {"kind": "line", "length": 200.0}},
            controller={"kind": "known_d", "omega": omega},
            duration=12.0,
        )
        trace = run_scenario(scenario)
        s = trace["t"] * 10.0
        theory = (1.0 + omega * s) * np.exp(-omega * s)
        sel = (s >= 3.0 / omega) & (s <= 10.0 / omega)
        rel = np.abs(trace["l"][sel] - theory[sel]) / np.abs(theory[sel])
        assert np.max(rel) < 0.02


class TestObserverLaw:
    def test_straight_path_bias_rejected(self):
        d = math.radians(2.0)
        scenario = vehicle_scenario(disturbance=Constant(d), duration=8.0)
        trace = run_scenario(scenario)
        tail = trace.t >= 6.0
        assert np.max(np.abs(trace["l"][tail])) < 1e-3
        analytic = -math.tan(d) / 2.7
        assert trace["d_hat"][-1] == pytest.approx(analytic, rel=0.05)
        # steering settles at -d so the effective steering vanishes
        assert trace["delta"][-1] == pytest.approx(-d, rel=0.02)

    def test_circle_curvature_absorbed_as_disturbance(self):
        scenario = vehicle_scenario(
            plant={"wheelbase": 2.7, "speed": 10.0,
                   "path": {"kind": "circle", "radius": 50.0, "arc": 300.0}},
            duration=15.0,
        )
        trace = run_scenario(scenario)
        tail = trace.t >= 12.0
        assert np.max(np.abs(trace["l"][tail])) < 1e-3
        assert trace["d_hat"][-1] == pytest.approx(1.0 / 50.0, rel=0.02)

    def test_rejects_a_negative_bandwidth(self):
        with pytest.raises(ConfigError, match="^omega_d: must be positive, got -2.0$"):
            LateralObserverController(2.7, (0.25, 1.0), -2.0)

    def test_zero_speed_freezes_distance_integral(self):
        ctrl = LateralObserverController(2.7, (0.25, 1.0), 2.0)
        err = LateralErrorState(l=1.0, e_theta=0.1, s_d=0.0, theta_d=0.0, kappa_d=0.0)
        ctrl.step(err, 0.01)
        ctrl.step(err, 0.01)
        frozen = ctrl._integ.total
        ctrl.step(err, 0.0)
        assert ctrl._integ.total == frozen

    def test_finite_difference_l_prime_consistency(self):
        # dl/ds against sin(e_theta) along a transient-rich trajectory
        scenario = vehicle_scenario(
            plant={"wheelbase": 2.7, "speed": 10.0, "x0": (0.0, -0.5, 0.1),
                   "path": {"kind": "line", "length": 200.0}},
            disturbance=Constant(math.radians(2.0)),
            duration=5.0,
        )
        trace = run_scenario(scenario)
        ds = 10.0 * scenario.dt
        dl = np.diff(trace["l"]) / ds
        mid = 0.5 * (np.sin(trace["e_theta"][1:]) + np.sin(trace["e_theta"][:-1]))
        scale = np.maximum(np.abs(mid), 1e-3)
        assert np.max(np.abs(dl - mid) / scale) < 1e-3
