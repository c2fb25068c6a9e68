"""The paper's one law in all three plants.

The chain's ``GeneralizedController`` (integral form) is the reference: the
vehicle's lateral observer is its n = 2 law on z = (l, sin e_theta) in the
distance domain, and each axis of the VTOL's two loops is its n = 2 law with
b = 1 under the rectangular rule. Values are compared with ``==``, so the
two signs of zero count as equal.
"""

import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from lumped_pid.controller import GeneralizedController, synthesize_gains
from lumped_pid.errors import LumpedPidError
from lumped_pid.plants import vehicle, vtol
from lumped_pid.quadrature import RECTANGULAR, TRAPEZOIDAL
from lumped_pid.signals import Constant
from lumped_pid.sim import Scenario, run_scenario
from rigid_body_reference import rodrigues3

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def chain_law(omega, omega_f, dt, rule=RECTANGULAR):
    return GeneralizedController(synthesize_gains(2, omega), omega_f, 1.0, dt, rule=rule)


# sequences of (l, e_theta) inside the heading limit
lateral_errors = st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-1.5, 1.5)),
                          min_size=1, max_size=60)


class TestVehicle:
    @PROPERTY
    @given(st.floats(0.05, 5.0), st.floats(0.1, 20.0), st.floats(1e-4, 0.5),
           st.sampled_from([RECTANGULAR, TRAPEZOIDAL]), lateral_errors)
    def test_lateral_observer_is_the_chain_law(self, omega, omega_d, ds, rule, errors):
        ctrl = vehicle.LateralObserverController(2.7, synthesize_gains(2, omega), omega_d,
                                                 rule=rule)
        chain = chain_law(omega, omega_d, ds, rule)
        for l, e_theta in errors:
            ctrl.step(vehicle.LateralErrorState(l=l, e_theta=e_theta, s_d=0.0, theta_d=0.0,
                                                kappa_d=0.0), ds)
            chain.step([l, math.sin(e_theta)])
            assert ctrl.d_hat == chain.f_hat
            assert ctrl.u_x == -chain.u_x

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.sampled_from(["observer", "known_d"]), st.floats(0.1, 2.0),
           st.sampled_from([RECTANGULAR, TRAPEZOIDAL]))
    def test_a_run_records_the_chain_law(self, kind, omega, rule):
        # the run's own gains and ds, read back from its trace columns
        controller = {"kind": kind, "omega": omega}
        if kind == "observer":
            controller.update(omega_d=2.0, quadrature=rule)
        scenario = Scenario(plant_kind="vehicle",
                            plant={"speed": 8.0, "x0": (0.0, -0.5, 0.1),
                                   "path": {"kind": "circle"}},
                            controller=controller, disturbance=Constant(0.01), dt=1e-3,
                            duration=0.1, seed=0)
        trace = run_scenario(scenario)
        chain = chain_law(omega, 2.0, 8.0 * scenario.dt, rule)
        for l, e_theta, u_x, d_hat in zip(trace["l"], trace["e_theta"], trace["u_x"],
                                          trace["d_hat"]):
            chain.step([float(l), math.sin(float(e_theta))])
            assert u_x == -chain.u_x
            assert d_hat == chain.f_hat or (kind == "known_d" and math.isnan(d_hat))


axis = st.floats(-1.0, 1.0)
triple = st.tuples(axis, axis, axis)


class TestVtol:
    @PROPERTY
    @given(st.floats(0.5, 5.0), st.floats(1.0, 40.0), st.floats(1.0, 20.0),
           st.floats(1.0, 50.0), st.floats(1e-4, 1e-2),
           st.lists(st.tuples(triple, triple, triple, triple), min_size=1, max_size=30))
    def test_each_axis_of_both_loops_is_the_chain_law(self, omega, omega_f, omega_att,
                                                      omega_tau, dt, poses):
        ctrl = vtol.VtolController(1.2, 9.81,
                                   ((0.02, 0.0, 0.0), (0.0, 0.03, 0.0), (0.0, 0.0, 0.04)),
                                   vtol.HoverRef((0.0, 0.0, 0.0)), dt,
                                   omega, omega_f, omega_att, omega_tau)
        force = [chain_law(omega, omega_f, dt) for _ in range(3)]
        torque = [chain_law(omega_att, omega_tau, dt) for _ in range(3)]
        seen = []
        original = vtol.attitude_error

        def attitude_error(*args):
            seen.append(original(*args))
            return seen[-1]

        with mock.patch.object(vtol, "attitude_error", attitude_error):
            for p, v, w, rotation in poses:
                R9 = rodrigues3(tuple(0.5 * r for r in rotation))
                try:
                    ctrl.compute(0.0, p, v, R9, w)
                except LumpedPidError:
                    return  # a singular pose ends the sequence
                # against the origin at rest, the errors are p and v themselves
                for i in range(3):
                    force[i].step([p[i], v[i]])
                    assert ctrl.d_f_hat[i] == force[i].f_hat
                g_t, g_dot, _ = seen[-1]
                for i in range(3):
                    torque[i].step([g_t[i], g_dot[i]])
                    assert ctrl.d_tau_hat[i] == torque[i].f_hat
