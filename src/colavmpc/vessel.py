"""2DOF control-oriented vessel model, its inverse, and the speed/course controller.

The model is M(x) xdot + sigma(x) = tau with x = (sog, rot) and a
normalized actuator input tau = (tau_m, tau_delta). Inertia and damping
are state dependent:

    M(x)     = diag(m_u0 + m_u1 * U,  m_r0 + m_r1 * U)
    sigma(x) = [d_u1 * U + d_u2 * U|U|,
                d_r1 * r + d_r2 * r|r| + d_ru * U * r]

The default coefficients are calibrated so that full throttle
(tau_m = 1) holds the top speed and the throttle floor holds the
minimum maneuvering speed, with full rudder at 5 m/s giving a steady
turn rate of 0.25 rad/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Velocity2, VesselState, Pose, wrap_angle


@dataclass(frozen=True)
class VesselModel:
    # inertia M(x) = diag(m_u0 + m_u1*U, m_r0 + m_r1*U)
    m_u0: float
    m_u1: float
    m_r0: float
    m_r1: float
    # damping sigma(x)
    d_u1: float
    d_u2: float
    d_r1: float
    d_r2: float
    d_ru: float
    # actuator magnitude and rate limits, normalized units
    tau_min: tuple[float, float]
    tau_max: tuple[float, float]
    tau_rate_min: tuple[float, float]
    tau_rate_max: tuple[float, float]
    u_max: float
    u_min: float

    def __post_init__(self):
        if not all(lo < hi for lo, hi in zip(self.tau_min, self.tau_max)):
            raise ValueError("tau_min must be < tau_max component-wise")
        if not all(lo <= hi for lo, hi in zip(self.tau_rate_min, self.tau_rate_max)):
            raise ValueError("tau_rate_min must be <= tau_rate_max component-wise")
        if self.u_min < 0.0 or self.u_min >= self.u_max:
            raise ValueError("speed envelope requires 0 <= u_min < u_max")

    def mass(self, sog):
        """Diagonal of M(x) as (m_sog, m_rot); accepts arrays."""
        sog = np.asarray(sog, dtype=float)
        return self.m_u0 + self.m_u1 * sog, self.m_r0 + self.m_r1 * sog

    def damping(self, sog, rot):
        """sigma(x) as (sigma_sog, sigma_rot); accepts arrays."""
        sog = np.asarray(sog, dtype=float)
        rot = np.asarray(rot, dtype=float)
        sigma_sog = self.d_u1 * sog + self.d_u2 * sog * np.abs(sog)
        sigma_rot = self.d_r1 * rot + self.d_r2 * rot * np.abs(rot) + self.d_ru * sog * rot
        return sigma_sog, sigma_rot

    def rates(self, sog, rot, tau_m, tau_d):
        """xdot = M(x)^-1 (tau - sigma(x)); accepts arrays, no tau check."""
        m_sog, m_rot = self.mass(sog)
        s_sog, s_rot = self.damping(sog, rot)
        return (np.asarray(tau_m, dtype=float) - s_sog) / m_sog, (
            np.asarray(tau_d, dtype=float) - s_rot
        ) / m_rot


def default_model() -> VesselModel:
    """Surrogate coefficients for an 8.5 m planing-capable vessel.

    SOG damping is pinned at two equilibria: sigma_sog(u_max) = tau_m max
    and sigma_sog(u_min) = tau_m floor, so the throttle range maps onto
    the [u_min, u_max] speed envelope exactly.
    """
    u_max, u_min = 18.0, 2.5
    tau_m_max, tau_m_floor = 1.0, 0.05
    det = u_max * u_min * (u_max - u_min)
    d_u2 = (tau_m_max * u_min - tau_m_floor * u_max) / det
    d_u1 = (tau_m_max - d_u2 * u_max**2) / u_max
    # full rudder at 5 m/s -> steady rot 0.25 rad/s: sigma_rot(5, 0.25) = 1
    d_r1, d_r2, d_ru = 2.0, 3.2, 0.24
    return VesselModel(
        m_u0=0.5,
        m_u1=0.03,
        m_r0=2.0,
        m_r1=0.2,
        d_u1=d_u1,
        d_u2=d_u2,
        d_r1=d_r1,
        d_r2=d_r2,
        d_ru=d_ru,
        tau_min=(tau_m_floor, -1.0),
        tau_max=(tau_m_max, 1.0),
        tau_rate_min=(-0.5, -0.5),
        tau_rate_max=(0.5, 0.5),
        u_max=u_max,
        u_min=u_min,
    )


def inverse_model(model: VesselModel, x_ss: Velocity2) -> np.ndarray:
    """Steady-state actuator input tau = sigma(x_ss); may lie outside limits."""
    s_sog, s_rot = model.damping(x_ss.sog, x_ss.rot)
    return np.array([float(s_sog), float(s_rot)])


@dataclass
class ControllerGains:
    """Feedforward-feedback speed/course controller gains.

    kp maps the error vector (sog_err, rot_err, course_err) to an
    acceleration correction (applied through M(x)); ki integrates
    (sog_err, course_err) directly into normalized actuator units.
    The integral contribution is clamped to +-integral_limit.
    """

    kp: np.ndarray
    ki: np.ndarray
    integral_limit: float = 0.3
    integral: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        self.kp = np.asarray(self.kp, dtype=float)
        self.ki = np.asarray(self.ki, dtype=float)
        if self.kp.shape != (2, 3):
            raise ValueError("kp must be a 2x3 matrix")
        if self.ki.shape != (2,) or np.any(self.ki <= 0):
            raise ValueError("ki must be two positive diagonal entries")
        self.integral = np.asarray(self.integral, dtype=float).copy()


def default_gains() -> ControllerGains:
    # tuned so a 20 deg course step at 5 m/s settles below 1 deg in < 10 s
    return ControllerGains(
        kp=np.array([[0.6, 0.0, 0.0], [0.0, 2.2, 1.0]]),
        ki=np.array([0.05, 0.02]),
    )


def control_law(
    model: VesselModel,
    gains: ControllerGains,
    x: Velocity2,
    chi: float,
    x_d: Velocity2,
    chi_d: float,
    xdot_d,
    dt: float,
):
    """Feedforward + PI feedback actuator command, saturated to the limits.

    Advances the controller's integral state by dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    err = np.array(
        [x.sog - x_d.sog, x.rot - x_d.rot, wrap_angle(chi - chi_d)]
    )
    gains.integral += err[[0, 2]] * dt
    bound = gains.integral_limit / gains.ki
    np.clip(gains.integral, -bound, bound, out=gains.integral)

    m_sog, m_rot = model.mass(x.sog)
    m_diag = np.array([float(m_sog), float(m_rot)])
    s_sog, s_rot = model.damping(x_d.sog, x_d.rot)
    feedforward = m_diag * np.asarray(xdot_d, dtype=float) + np.array(
        [float(s_sog), float(s_rot)]
    )
    tau = feedforward - m_diag * (gains.kp @ err) - gains.ki * gains.integral
    return np.clip(tau, model.tau_min, model.tau_max)


def step_plant(model: VesselModel, state: VesselState, tau, dt: float) -> VesselState:
    """Explicit Euler step of the velocity dynamics and kinematics.

    All derivatives are evaluated at the incoming state; sog is clamped
    at zero. The actuator input is applied as given (the plant has no
    say in actuation limits).
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    tau = np.asarray(tau, dtype=float)
    du, dr = model.rates(state.vel.sog, state.vel.rot, tau[0], tau[1])
    sog = max(state.vel.sog + dt * float(du), 0.0)
    rot = state.vel.rot + dt * float(dr)
    north = state.pose.north + dt * np.cos(state.pose.course) * state.vel.sog
    east = state.pose.east + dt * np.sin(state.pose.course) * state.vel.sog
    course = wrap_angle(state.pose.course + dt * state.vel.rot)
    pose = Pose(float(north), float(east), float(course))
    return VesselState(pose, Velocity2(float(sog), float(rot)))
