"""PID synthesis and simulation toolkit.

A PID controller is treated as two cooperating parts: repeated-pole state
feedback that stabilizes the disturbance-free error system, and a first-order
integral observer that estimates and cancels the lumped disturbance. This
package synthesizes such controllers for any order, reduces them to classic
PI/PID gains for first- and second-order plants, analyzes them in the
frequency domain, and exercises them on three plants: the nth-order
integrator chain, an underactuated VTOL rigid body, and a kinematic bicycle
tracked in the Frenet frame.
"""

from .analysis import BoundReport, TraceMetrics, check_bound, trace_metrics, ultimate_bound
from .controller import (
    ClassicPidController,
    ClassicPidGains,
    ControllerConfig,
    GeneralizedController,
    HomogeneousController,
    HomogeneousGains,
    closed_loop_tf,
    homogeneous_control,
    observer_tfs,
    reduce_to_pi,
    reduce_to_pid,
    synthesize_gains,
)
from .polylti import (
    ComplexResponse,
    Polynomial,
    RationalTransferFunction,
    binomial_poly,
    dc_gain,
    evaluate_at,
    frequency_response,
    poly_mul,
)
from .signals import Constant, NoiseSpec, Sinusoid, Step, Sum, gaussian_noise
from .sim import Scenario, SimTrace, rk4_step, run_scenario

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ClassicPidController",
    "ClassicPidGains",
    "ComplexResponse",
    "Constant",
    "ControllerConfig",
    "GeneralizedController",
    "HomogeneousController",
    "HomogeneousGains",
    "NoiseSpec",
    "Polynomial",
    "RationalTransferFunction",
    "Scenario",
    "SimTrace",
    "Sinusoid",
    "Step",
    "Sum",
    "TraceMetrics",
    "binomial_poly",
    "check_bound",
    "closed_loop_tf",
    "dc_gain",
    "evaluate_at",
    "frequency_response",
    "gaussian_noise",
    "homogeneous_control",
    "observer_tfs",
    "poly_mul",
    "reduce_to_pi",
    "reduce_to_pid",
    "rk4_step",
    "run_scenario",
    "synthesize_gains",
    "trace_metrics",
    "ultimate_bound",
]
