"""Bicycle-model vehicle with Frenet-frame lateral control in the distance domain.

Error conventions follow the reference-minus-pose form: with e_x = x_d - x,
e_y = y_d - y and e_theta = theta_d - theta, the matching point satisfies the
tangency constraint e_x cos(theta_d) + e_y sin(theta_d) = 0 and the lateral
error is l = -e_x sin(theta_d) + e_y cos(theta_d). Under this convention
l' = sin(e_theta) per meter traveled (l > 0 when the path lies to the
vehicle's left), and the curvature-tracking second derivative is
l'' = cos(e_theta) (r_s kappa_d - tan(delta + d)/L).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..config import (_check_read, _check_signal, _choice, _floats3, _positive, _scalar_signal,
                      _str)
from ..controller import homogeneous_control, observer_step, synthesize_gains
from ..errors import (
    AmbiguousMatchError,
    ConfigError,
    OffPathError,
    SteeringLimitError,
    check_positive,
)
from ..polylti import MAX_GRID_POINTS
from ..quadrature import RECTANGULAR, RULES, Integrator
from ..sim import (STEP_ERRORS, Scenario, SimTrace, TraceRecorder, check_state, rk4_step,
                   run_failure)
from ..signals import noise_table

STEER_LIMIT = 0.5 * math.pi - 1e-9
HEADING_LIMIT = 0.5 * math.pi  # |e_theta| must stay below this
DEFAULT_CAPTURE = 10.0  # m
ZERO_SPEED = 1e-9  # a step shorter than this [m] is no distance: the observer integral holds
NEWTON_TOL = 1e-12  # a Newton step shorter than this (in segment fraction) has converged
ROOT_STEPS = 64  # a cap on the tangency root's loop; 64 halvings narrow [0, 1] to 5e-20
DESCENT_REACH = 50  # a hinted match searches this many samples either side of the hint
GEOMETRY_TOL = 1e-3  # the finite-difference slack of a csv path's heading and curvature
# Each option: its parser and default; path.file is required for a csv path.
# controller.omega is the distance-domain pole [rad/m].
OPTIONS = {"plant.wheelbase": (_positive, 2.7), "plant.speed": (_positive, 10.0),
           "plant.x0": (_floats3, (0.0, 0.0, 0.0)),
           "plant.capture_radius": (_positive, DEFAULT_CAPTURE),
           "path.kind": (_choice("line", "circle", "csv"), "line"),
           "path.length": (_positive, 200.0), "path.radius": (_positive, 50.0),
           "path.arc": (_positive, 300.0), "path.spacing": (_positive, 0.25),
           "path.file": (_str, None),
           "controller.kind": (_choice("observer", "known_d"), "observer"),
           "controller.omega": (_positive, 0.5), "controller.omega_d": (_positive, 2.0),
           "controller.quadrature": (_choice(*RULES), RECTANGULAR)}
_UNREAD = {("kind", "known_d"): ("omega_d", "quadrature")}  # the options it does not read
_UNREAD_PATH = {("kind", "line"): ("radius", "arc", "file"),
                ("kind", "circle"): ("length", "file"),
                ("kind", "csv"): ("length", "radius", "arc", "spacing")}
parse_disturbance = _scalar_signal  # the steering bias d(t) [rad]
# d_hat estimates the lumped term, not the bias d_true
LOOPS = (("l", "omega", "omega_d", ("d_lump", "d_hat"), ("known_d",)),)
PLOTS = (
    ("lateral", ("l", "e_theta"), "lateral error", "l [m], e_theta [rad]"),
    ("steering", ("delta", "d_hat"), "steering and estimate", "rad"),
)
lockstep = None  # run takes one scenario, not a list
bound = None  # no ultimate-bound check applies


def check(scenario: Scenario) -> None:
    """Rules across options: a csv path names its file (read when the scenario runs),
    and the controller and path kinds read each option set away from its default."""
    _check_signal(scenario.disturbance)
    path = scenario.plant["path"]
    if path["kind"] == "csv" and path["file"] is None:
        raise ConfigError("path.file: required for path.kind = csv")
    _check_read(scenario.controller, OPTIONS, _UNREAD)
    _check_read(path, OPTIONS, _UNREAD_PATH, "path")


def noise_channels(scenario: Scenario) -> int:
    """The noised measurement channels: the pose x, y, theta."""
    return 3


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def bicycle(v: float, L: float):
    """The kinematic bicycle at speed v and wheelbase L as the ``derivative(state,
    delta, d)`` of (x, y, theta) that :func:`~lumped_pid.sim.rk4_step` takes, at
    steering delta and steering bias d: (v cos th, v sin th, v tan(delta+d)/L).
    Errors out near |delta+d| = pi/2."""

    def derivative(state, delta: float, d: float):
        eff = delta + d
        if eff >= STEER_LIMIT or eff <= -STEER_LIMIT:
            raise SteeringLimitError(f"effective steering {eff:g} rad at the +-pi/2 limit")
        theta = state[2]
        return v * math.cos(theta), v * math.sin(theta), v * math.tan(eff) / L

    return derivative


class LateralErrorState(NamedTuple):
    l: float        # signed lateral error [m]
    e_theta: float  # heading error theta_d - theta, wrapped to (-pi, pi]
    s_d: float      # matched arc length [m]
    theta_d: float
    kappa_d: float
    segment: int = 0  # path segment holding the matched point; the next call's hint


def _samples(extent: float, spacing: float) -> int:
    """The sample count of a path of arc length ``extent`` at ``spacing``,
    checked before anything is allocated: more than MAX_GRID_POINTS, an
    overflowing ratio too, is a ConfigError."""
    ratio = extent / spacing  # inf if it overflows
    if not ratio <= MAX_GRID_POINTS - 1:
        raise ConfigError(f"path: an arc length of {extent!r} at path.spacing {spacing!r} needs "
                          f"more than the {MAX_GRID_POINTS} samples a path may hold")
    return max(2, int(math.ceil(ratio)) + 1)


class FrenetPath:
    """Arc-length tabulated path (s, x, y, theta, kappa) with linear interpolation.

    theta is stored unwrapped so interpolation across +-pi is well defined.
    Every sample must be finite.
    """

    def __init__(self, s, x, y, theta, kappa):
        columns = [np.asarray(c, float) for c in (s, x, y, theta, kappa)]
        for name, column in zip(("s", "x", "y", "theta", "kappa"), columns):
            if not np.isfinite(column).all():  # a NaN in s would pass the order check
                raise ConfigError(f"path column {name}: non-finite sample")
        s, x, y, theta, kappa = columns
        if len(s) < 2:
            raise ConfigError("path needs at least two samples")
        if np.any(np.diff(s) <= 0.0):
            raise ConfigError("path arc length must be strictly increasing")
        self.s = s
        self.x = x
        self.y = y
        self.theta = np.unwrap(theta)
        self.kappa = kappa
        n = len(s)
        if not all(len(a) == n for a in (self.x, self.y, self.theta, self.kappa)):
            raise ConfigError("path columns must have equal length")
        # plain-float copies for the per-step matching loop
        self._sf = self.s.tolist()
        self._xf = self.x.tolist()
        self._yf = self.y.tolist()
        self._tf = self.theta.tolist()
        self._kf = self.kappa.tolist()
        self._cos_th = [math.cos(t) for t in self._tf]
        self._sin_th = [math.sin(t) for t in self._tf]

    def __len__(self):
        return len(self.s)

    @property
    def length(self) -> float:
        return float(self.s[-1])

    def validate_geometry(self) -> None:
        """Finite-difference consistency to GEOMETRY_TOL: d(x,y)/ds vs (cos,sin)
        theta and d(theta)/ds vs kappa, midpoint-sampled."""
        ds = np.diff(self.s)
        dx = np.diff(self.x) / ds
        dy = np.diff(self.y) / ds
        dth = np.diff(self.theta) / ds
        th_mid = 0.5 * (self.theta[:-1] + self.theta[1:])
        k_mid = 0.5 * (self.kappa[:-1] + self.kappa[1:])
        if not (np.max(np.abs(dx - np.cos(th_mid))) <= GEOMETRY_TOL
                and np.max(np.abs(dy - np.sin(th_mid))) <= GEOMETRY_TOL):
            raise ConfigError("path tangent inconsistent with heading column")
        if not np.max(np.abs(dth - k_mid)) <= GEOMETRY_TOL:
            raise ConfigError("path heading rate inconsistent with curvature column")

    def _interp(self, i, a):
        x = self._xf[i] + a * (self._xf[i + 1] - self._xf[i])
        y = self._yf[i] + a * (self._yf[i + 1] - self._yf[i])
        th = self._tf[i] + a * (self._tf[i + 1] - self._tf[i])
        k = self._kf[i] + a * (self._kf[i + 1] - self._kf[i])
        s = self._sf[i] + a * (self._sf[i + 1] - self._sf[i])
        return s, x, y, th, k

    @classmethod
    def line(cls, length: float, spacing: float = 0.25) -> "FrenetPath":
        """Straight path along +x starting at the origin."""
        n = _samples(length, spacing)
        s = np.linspace(0.0, length, n)
        return cls(s, s.copy(), np.zeros(n), np.zeros(n), np.zeros(n))

    @classmethod
    def circle(cls, radius: float, arc: float, spacing: float = 0.25) -> "FrenetPath":
        """Counterclockwise circle from the origin, initial heading +x."""
        n = _samples(arc, spacing)
        s = np.linspace(0.0, arc, n)
        ang = s / radius
        return cls(s, radius * np.sin(ang), radius * (1.0 - np.cos(ang)), ang,
                   np.full(n, 1.0 / radius))

    @classmethod
    def from_csv(cls, path) -> "FrenetPath":
        """Columns ``s,x,y,theta,kappa`` with a header row, checked by
        :meth:`validate_geometry`; each fault is a ``path.file`` error."""
        try:
            data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
            for col in ("s", "x", "y", "theta", "kappa"):
                if col not in (data.dtype.names or ()):
                    raise ConfigError(f"missing column {col!r} in {path}")
            frenet = cls(data["s"], data["x"], data["y"], data["theta"], data["kappa"])
            frenet.validate_geometry()
        except OSError as exc:
            raise ConfigError(f"path.file: cannot read {path}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"path.file: {exc}") from None
        return frenet


def _sample_tangency(path: FrenetPath, j: int, px: float, py: float) -> float:
    """The tangency function at sample j, shared by the segments on either side."""
    return (path._xf[j] - px) * path._cos_th[j] + (path._yf[j] - py) * path._sin_th[j]


def _tangency_root(path: FrenetPath, i: int, g0: float, px: float, py: float) -> float:
    """Tangency root in segment i, where g changes sign (g(0) = g0 != 0):
    Newton from the chord projection (a = 1/2 on a zero chord) in a bracket
    [lo, hi] that each value of g narrows; a step that would leave it, or a
    zero g', halves it instead. The loop ends on a step under NEWTON_TOL, on
    a halving that leaves the bracket no wider than NEWTON_TOL (round-off in
    g can keep every step longer), or after ROOT_STEPS iterations."""
    x0, y0, t0 = path._xf[i], path._yf[i], path._tf[i]
    dx = path._xf[i + 1] - x0
    dy = path._yf[i + 1] - y0
    dth = path._tf[i + 1] - t0
    chord2 = dx * dx + dy * dy
    a = ((px - x0) * dx + (py - y0) * dy) / chord2 if chord2 else 0.5
    a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
    lo, hi = 0.0, 1.0
    for _ in range(ROOT_STEPS):
        th = t0 + a * dth
        c = math.cos(th)
        s = math.sin(th)
        ex = x0 + a * dx - px
        ey = y0 + a * dy - py
        g = ex * c + ey * s
        if (g < 0.0) == (g0 < 0.0):
            lo = a
        else:
            hi = a
        dg = dx * c + dy * s + dth * (ey * c - ex * s)
        step = g / dg if dg else math.inf
        if not lo <= a - step <= hi:
            a = 0.5 * (lo + hi)
            if hi - lo <= NEWTON_TOL:
                return a
        elif abs(step) <= NEWTON_TOL:
            return a - step
        else:
            a -= step
    return a


def _nearest_sample(path: FrenetPath, px: float, py: float, hint_index: int) -> tuple[int, float]:
    """Index and squared distance of the nearest path sample to the hint:
    a downhill walk from ``hint_index`` (clamped to the table) while the
    distance strictly decreases, at most DESCENT_REACH samples either way;
    on a unimodal distance profile that is the nearest sample of the window."""
    xs, ys = path._xf, path._yf
    n = len(xs)
    start = 0 if hint_index < 0 else n - 1 if hint_index >= n else hint_index
    dx = xs[start] - px
    dy = ys[start] - py
    best_i, best_d2 = start, dx * dx + dy * dy
    for step, stop in ((1, start + DESCENT_REACH if start + DESCENT_REACH < n else n - 1),
                       (-1, start - DESCENT_REACH if start > DESCENT_REACH else 0)):
        while best_i != stop:
            dx = xs[best_i + step] - px
            dy = ys[best_i + step] - py
            d2 = dx * dx + dy * dy
            if not d2 < best_d2:
                break
            best_i += step
            best_d2 = d2
        if best_i != start:
            break
    return best_i, best_d2


def frenet_match(
    path: FrenetPath,
    pose,
    capture_radius: float = DEFAULT_CAPTURE,
    hint_index: int | None = None,
) -> LateralErrorState:
    """Match a pose to the path and return the lateral error pair.

    The matching point is the Frenet projection (Werling et al., ICRA 2010):
    the root of the tangency constraint g(a) = e_x cos(theta_d(a)) +
    e_y sin(theta_d(a)) on the linearly interpolated table.

    1. Nearest sample: without a hint, one vectorised pass over the table
       (ties to the first sample) that also gives the ambiguity test; when
       tracking with ``hint_index`` (for example the previous ``segment``),
       a downhill walk from the hint within +-DESCENT_REACH samples.
    2. g is evaluated once at that sample and at each neighbour. The
       segments before and after the sample are candidates when g changes
       sign over them. In each, :func:`_tangency_root` runs Newton
       on g from the closed-form projection onto the chord, with the
       analytic g'(a) = dx cos(theta) + dy sin(theta) + dtheta (e_y
       cos(theta) - e_x sin(theta)), inside a bracket that halves whenever
       a step would leave it. It agrees with a 60-step bisection to 1e-12 m
       in s_d and l. Each candidate is interpolated once, and one loop keeps
       the nearer point, the first on a tie; with none the pose projects
       beyond a table end and is clamped to it.

    Raises OffPathError outside the capture radius and, on an unhinted call,
    AmbiguousMatchError when two non-adjacent samples are equally close.
    """
    px, py, ptheta = float(pose[0]), float(pose[1]), float(pose[2])
    n = len(path._xf)
    if hint_index is None:
        with np.errstate(over="ignore"):  # a pose that far is off the path
            d2 = (path.x - px) ** 2 + (path.y - py) ** 2
        best_i = int(np.argmin(d2))
        best_d2 = float(d2[best_i])
    else:
        best_i, best_d2 = _nearest_sample(path, px, py, hint_index)
    if not best_d2 <= capture_radius * capture_radius:  # also rejects a NaN pose
        raise OffPathError(
            f"pose ({px:g}, {py:g}) is {math.sqrt(best_d2):g} m from the path, "
            f"capture radius {capture_radius:g} m"
        )
    if hint_index is None:
        # ambiguity check: a non-adjacent sample essentially as close as the best
        near = np.flatnonzero(d2 <= best_d2 + max(1e-9, 1e-6 * best_d2))
        far = near[np.abs(near - best_i) > 2]
        if len(far):
            raise AmbiguousMatchError(f"samples {best_i} and {far[0]} are equally close to the pose")

    # g once at each sample from best_i - 1 to best_i + 1 within the table
    lo = best_i - 1 if best_i else 0
    g_next = _sample_tangency(path, lo, px, py)
    match = None
    for i in range(lo, best_i + 1 if best_i < n - 1 else n - 1):
        g0, g_next = g_next, _sample_tangency(path, i + 1, px, py)
        if not (g0 == 0.0 or g0 * g_next <= 0.0):
            continue
        point = path._interp(i, 0.0 if g0 == 0.0 else _tangency_root(path, i, g0, px, py))
        if match is None or ((point[1] - px) ** 2 + (point[2] - py) ** 2
                             < (match[1] - px) ** 2 + (match[2] - py) ** 2):
            match, segment = point, i
    if match is None:  # the pose projects beyond a table end: clamp to it
        segment, a = (0, 0.0) if best_i == 0 else (n - 2, 1.0)
        match = path._interp(segment, a)
    s_d, x_d, y_d, theta_d, kappa_d = match
    e_x = x_d - px
    e_y = y_d - py
    l = -e_x * math.sin(theta_d) + e_y * math.cos(theta_d)
    e_theta = wrap_angle(theta_d - ptheta)
    return LateralErrorState(l, e_theta, s_d, theta_d, kappa_d, segment)


def _check_heading(e_theta: float) -> float:
    if abs(e_theta) >= HEADING_LIMIT:
        raise SteeringLimitError(
            f"|e_theta| = {abs(e_theta):g} rad at the pi/2 sec() singularity"
        )
    return 1.0 / math.cos(e_theta)


def lateral_controller_known_d(err: LateralErrorState, u_x: float, d: float, L: float) -> float:
    """Known-disturbance feedback linearization (r_s = 1 assumed) of the
    feedback u_x = k0 l + k1 sin(e_theta):

    delta = arctan(L (kappa_d + sec(e_theta) u_x)) - d,
    which turns the error model into l'' = -k0 l - k1 l'.
    """
    sec = _check_heading(err.e_theta)
    return math.atan(L * (err.kappa_d + sec * u_x)) - d


class LateralObserverController:
    """Unknown-disturbance lateral law in the distance domain: the chain's
    n = 2 law (:func:`~lumped_pid.controller.observer_step`) on z = (l, sin
    e_theta), with gains ``a`` = (k0, k1), omega_f = omega_d and dt = ds = v dt.
    The input coefficient is -cos(e_theta)/L, so u_x = k0 l + k1 sin(e_theta)
    is the chain's with its sign flipped, and d^ = omega_d (sin e_theta +
    integral of u_x ds); the curvature feedforward is absorbed into d^. A
    step shorter than ZERO_SPEED covers no distance.
    """

    def __init__(self, L: float, a: tuple[float, float], omega_d: float,
                 rule: str = RECTANGULAR):
        self.L = L
        self.a = a
        self.omega_d = check_positive(omega_d, "omega_d")
        self._integ = Integrator(rule)
        self.u_x = 0.0
        self.d_hat = 0.0

    def step(self, err: LateralErrorState, ds: float) -> float:
        sec = _check_heading(err.e_theta)
        u_x, self.d_hat = observer_step(self.a, (err.l, math.sin(err.e_theta)), self._integ,
                                        self.omega_d, ds if ds > ZERO_SPEED else 0.0)
        self.u_x = -u_x
        return math.atan(self.L * sec * (self.u_x + self.d_hat))


def _build_path(opts: dict) -> FrenetPath:
    if opts["kind"] == "line":
        return FrenetPath.line(opts["length"], opts["spacing"])
    if opts["kind"] == "circle":
        return FrenetPath.circle(opts["radius"], opts["arc"], opts["spacing"])
    return FrenetPath.from_csv(opts["file"])


def run(scenario: Scenario) -> SimTrace:
    opts = scenario.plant
    L = opts["wheelbase"]
    v = opts["speed"]
    capture = opts["capture_radius"]
    copts = scenario.controller
    path = _build_path(opts["path"])
    derivative = bicycle(v, L)

    a = synthesize_gains(2, copts["omega"])
    bias = scenario.disturbance  # steering disturbance signal d(t) [rad]

    controller = (LateralObserverController(L, a, copts["omega_d"], rule=copts["quadrature"])
                  if copts["kind"] == "observer" else None)

    state = opts["x0"]

    dt = scenario.dt
    half = 0.5 * dt
    ds = v * dt
    n_steps = scenario.n_steps
    # the controller sees the noised pose: the trace's x, y, theta are the
    # true pose, but its s_d, l, e_theta (and r_s) are matched on the noised one
    noise = noise_table(scenario.noise, noise_channels(scenario), n_steps + 1)
    names = ["t", "x", "y", "theta", "s_d", "l", "e_theta", "delta",
             "u_x", "d_hat", "d_true", "d_lump", "r_s"]
    rec = TraceRecorder(names, n_steps, scenario.decimation)

    hint = None
    prev_sd = None
    try:
        for k in range(n_steps + 1):
            t = k * dt
            check_state(state, t, k)
            if noise is None:
                pose = state
            else:
                e = noise[k].tolist()
                pose = (state[0] + e[0], state[1] + e[1], state[2] + e[2])
            err = frenet_match(path, pose, capture, hint)
            l, e_theta, s_d, _, kappa_d, hint = err
            d_now = bias(t)
            if controller is None:
                u_x = -homogeneous_control(a, (l, math.sin(e_theta)))
                delta = lateral_controller_known_d(err, u_x, d_now, L)
                d_hat = math.nan
            else:
                delta = controller.step(err, ds)
                u_x = controller.u_x
                d_hat = controller.d_hat
            # diagnostics: r_s from the matched point's speed (on the noised pose), and the lumped term
            r_s = 1.0 if prev_sd is None else (s_d - prev_sd) / ds
            prev_sd = s_d
            tan_d = math.tan(d_now)
            tan_delta = math.tan(delta)
            d_lump = math.cos(e_theta) * (
                r_s * kappa_d
                - tan_d * (1.0 + tan_delta * tan_delta) / (L * (1.0 - tan_delta * tan_d))
            )
            rec.record(k, [t, *state, s_d, l, e_theta, delta,
                           u_x, d_hat, d_now, d_lump, r_s])
            if k < n_steps:
                state = rk4_step(derivative, state, delta,
                                 (d_now, bias(t + half), bias(t + dt)), dt)
    except STEP_ERRORS as exc:
        raise run_failure(exc, k, t)
    return rec.build()

