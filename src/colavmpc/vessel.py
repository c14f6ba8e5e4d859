"""2DOF control-oriented vessel model and the speed/course controller.

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

import math
from dataclasses import dataclass

import numpy as np

from .core import require_finite, wrap_angle


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
        require_finite(self)
        for name in ("tau_min", "tau_max", "tau_rate_min", "tau_rate_max"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} needs 2 entries (tau_m, tau_delta), got {getattr(self, name)}")
        if not all(lo < hi for lo, hi in zip(self.tau_min, self.tau_max)):
            raise ValueError("tau_min must be < tau_max component-wise")
        if not all(lo <= hi for lo, hi in zip(self.tau_rate_min, self.tau_rate_max)):
            raise ValueError("tau_rate_min must be <= tau_rate_max component-wise")
        if self.u_min < 0.0 or self.u_min >= self.u_max:
            raise ValueError("speed envelope requires 0 <= u_min < u_max")
        # each inertia is linear in U, so its ends on [0, u_max] decide its sign
        for m0, m1 in (("m_u0", "m_u1"), ("m_r0", "m_r1")):
            c0, c1 = getattr(self, m0), getattr(self, m1)
            if min(c0, c0 + c1 * self.u_max) <= 0.0:
                raise ValueError(f"inertia {m0} + {m1}*U must be > 0 for U in [0, u_max], got {m0}={c0}, {m1}={c1}")

    def mass(self, sog):
        """Diagonal of M(x) as (m_sog, m_rot); for floats or arrays."""
        return self.m_u0 + self.m_u1 * sog, self.m_r0 + self.m_r1 * sog

    def damping(self, sog, rot):
        """sigma(x) as (sigma_sog, sigma_rot); for floats or arrays."""
        sigma_sog = self.d_u1 * sog + self.d_u2 * sog * abs(sog)
        sigma_rot = self.d_r1 * rot + self.d_r2 * rot * abs(rot) + self.d_ru * sog * rot
        return sigma_sog, sigma_rot

    def saturate(self, tau):
        """tau clipped to the limits along its last axis: np.clip's bits, not its wrapper."""
        return np.minimum(np.maximum(tau, self.tau_min), self.tau_max)

    def rates(self, sog, rot, tau_m, tau_d):
        """xdot = M(x)^-1 (tau - sigma(x)); for floats or arrays, no tau check."""
        m_sog, m_rot = self.mass(sog)
        s_sog, s_rot = self.damping(sog, rot)
        return (tau_m - s_sog) / m_sog, (tau_d - s_rot) / m_rot


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


@dataclass(frozen=True)
class ControllerGains:
    """Feedforward-feedback speed/course controller gains.

    The proportional gains turn the sog error, and the rot and course
    errors, into acceleration corrections (applied through M(x)); the
    integral gains integrate the sog and course errors directly into
    normalized actuator units, each contribution clamped to
    +-integral_limit.
    """

    kp_sog: float
    kp_rot: float
    kp_course: float
    ki_sog: float
    ki_course: float
    integral_limit: float = 0.3

    def __post_init__(self):
        require_finite(self)
        for name in ("kp_sog", "kp_rot", "kp_course", "ki_sog", "ki_course", "integral_limit"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def default_gains() -> ControllerGains:
    # tuned so a 20 deg course step at 5 m/s settles below 1 deg in < 10 s
    return ControllerGains(kp_sog=0.6, kp_rot=2.2, kp_course=1.0, ki_sog=0.05, ki_course=0.02)


def control_law(model: VesselModel, gains: ControllerGains, state, ref, integral, dt: float):
    """Feedforward + PI feedback actuator command, saturated to the limits.

    state is the plant's (north, east, course, sog, rot), ref the desired
    (sog, rot, course, sog_acc, rot_acc), whose sog counts as 0 below 0,
    and integral the controller's (sog, course) error integral. Returns
    the command (tau_m, tau_delta) and the integral advanced by dt.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    _, _, course, sog, rot = state
    sog_d, rot_d, course_d, sog_acc_d, rot_acc_d = ref
    sog_d = max(sog_d, 0.0)
    err_sog = sog - sog_d
    err_rot = rot - rot_d
    err_course = wrap_angle(course - course_d)
    bound_sog = gains.integral_limit / gains.ki_sog
    bound_course = gains.integral_limit / gains.ki_course
    i_sog = min(max(integral[0] + err_sog * dt, -bound_sog), bound_sog)
    i_course = min(max(integral[1] + err_course * dt, -bound_course), bound_course)

    m_sog, m_rot = model.mass(sog)
    s_sog, s_rot = model.damping(sog_d, rot_d)
    tau_m = m_sog * sog_acc_d + s_sog - m_sog * (gains.kp_sog * err_sog) - gains.ki_sog * i_sog
    tau_d = (
        m_rot * rot_acc_d + s_rot
        - m_rot * (gains.kp_rot * err_rot + gains.kp_course * err_course)
        - gains.ki_course * i_course
    )
    tau = (
        min(max(tau_m, model.tau_min[0]), model.tau_max[0]),
        min(max(tau_d, model.tau_min[1]), model.tau_max[1]),
    )
    return tau, (i_sog, i_course)


def step_plant(model: VesselModel, state, tau, dt: float):
    """Explicit Euler step of the velocity dynamics and kinematics.

    state is (north, east, course, sog, rot). All derivatives are
    evaluated at the incoming state; sog is clamped at zero and course
    wrapped to [-pi, pi). The actuator input (tau_m, tau_delta) is
    applied as given (the plant has no say in actuation limits).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    north, east, course, sog, rot = state
    du, dr = model.rates(sog, rot, tau[0], tau[1])
    return (
        north + dt * math.cos(course) * sog,
        east + dt * math.sin(course) * sog,
        wrap_angle(course + dt * rot),
        max(sog + dt * du, 0.0),
        rot + dt * dr,
    )
