import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from colavmpc.vessel import ControllerGains, control_law, default_gains, default_model, step_plant
from colavmpc.primitives import node_samples

MODEL = default_model()


def _rates(sog, rot, tau):
    """Velocity rates (sog_dot, rot_dot) as floats."""
    du, dr = MODEL.rates(sog, rot, tau[0], tau[1])
    return float(du), float(dr)


def test_equilibrium_by_construction():
    # the steady-state actuator input is the damping
    du, dr = _rates(7.0, 0.05, MODEL.damping(7.0, 0.05))
    assert du == pytest.approx(0.0, abs=1e-12)
    assert dr == pytest.approx(0.0, abs=1e-12)


def test_max_throttle_holds_top_speed():
    du, dr = _rates(MODEL.u_max, 0.0, (MODEL.tau_max[0], 0.0))
    assert abs(du) < 1e-6
    assert abs(dr) < 1e-12


def test_throttle_floor_holds_min_speed():
    tau = MODEL.damping(MODEL.u_min, 0.0)
    assert tau[0] == pytest.approx(MODEL.tau_min[0], abs=1e-9)


def test_damping_decelerates():
    # throttle at the floor is far below the 5 m/s equilibrium
    du, _ = _rates(5.0, 0.0, (MODEL.tau_min[0], 0.0))
    assert du < 0.0


def test_dynamics_rejects_out_of_range_tau():
    # the planner refuses to expand from an actuator input outside the limits
    with pytest.raises(ValueError):
        node_samples(MODEL, 5.0, 0.0, (0.0, 0.0), 1.0, 1, 1)
    with pytest.raises(ValueError):
        node_samples(MODEL, 5.0, 0.0, (1.2, 0.0), 1.0, 1, 1)


def test_inverse_model_at_rest():
    tau = MODEL.damping(0.0, 0.0)
    np.testing.assert_allclose(tau, [0.0, 0.0], atol=1e-15)


def test_inverse_model_top_speed():
    tau = MODEL.damping(MODEL.u_max, 0.0)
    assert tau[0] == pytest.approx(MODEL.tau_max[0], abs=1e-6)


@given(
    st.floats(min_value=2.5, max_value=18.0),
    st.floats(min_value=-0.1, max_value=0.1),
)
def test_inverse_round_trip(sog, rot):
    du, dr = _rates(sog, rot, MODEL.damping(sog, rot))
    assert abs(du) < 1e-12 and abs(dr) < 1e-12


def _ref(sog=5.0, rot=0.0, course=0.0, sog_acc=0.0, rot_acc=0.0):
    """A desired (sog, rot, course, sog_acc, rot_acc) for the controller."""
    return (sog, rot, course, sog_acc, rot_acc)


def _state(north=0.0, east=0.0, course=0.0, sog=5.0, rot=0.0):
    """A plant state (north, east, course, sog, rot)."""
    return (north, east, course, sog, rot)


NO_INTEGRAL = (0.0, 0.0)


def test_control_law_pure_feedforward():
    tau, _ = control_law(
        MODEL, default_gains(), _state(course=0.3), _ref(course=0.3), NO_INTEGRAL, 0.1
    )
    expected = MODEL.damping(5.0, 0.0)
    np.testing.assert_allclose(tau, expected, atol=1e-9)


def test_control_law_proportional_sign():
    feedforward = MODEL.damping(5.0, 0.0)
    tau, _ = control_law(MODEL, default_gains(), _state(sog=6.0), _ref(), NO_INTEGRAL, 0.1)
    assert tau[0] < feedforward[0]


def test_control_law_wrap_invariance():
    two_pi = 2 * math.pi
    base, _ = control_law(
        MODEL, default_gains(), _state(course=0.1), _ref(course=-0.1), NO_INTEGRAL, 0.1
    )
    shifted, _ = control_law(
        MODEL, default_gains(), _state(course=0.1 + two_pi), _ref(course=-0.1 - two_pi),
        NO_INTEGRAL, 0.1,
    )
    np.testing.assert_allclose(base, shifted, atol=1e-12)


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=0.0, max_value=18.0),
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_control_law_saturates(sog, rot, chi, sog_d, rot_d, chi_d):
    tau, _ = control_law(
        MODEL, default_gains(), _state(course=chi, sog=sog, rot=rot), _ref(sog_d, rot_d, chi_d),
        NO_INTEGRAL, 0.1,
    )
    assert np.all(np.asarray(tau) >= np.asarray(MODEL.tau_min) - 1e-12)
    assert np.all(np.asarray(tau) <= np.asarray(MODEL.tau_max) + 1e-12)


def test_control_law_clamps_the_integral():
    gains = default_gains()
    integral = NO_INTEGRAL
    # a persistent error saturates each integral at integral_limit / ki
    for _ in range(1000):
        _, integral = control_law(MODEL, gains, _state(sog=9.0, course=1.0), _ref(), integral, 0.1)
    assert integral == (
        gains.integral_limit / gains.ki_sog, gains.integral_limit / gains.ki_course
    )


def test_step_plant_straight_line():
    tau = MODEL.damping(5.0, 0.0)
    north, east, _, sog, _ = step_plant(MODEL, _state(), tau, 1.0)
    assert north == pytest.approx(5.0, abs=1e-9)
    assert east == pytest.approx(0.0, abs=1e-12)
    assert sog == pytest.approx(5.0, abs=1e-9)


def test_step_plant_euler_kinematics():
    tau = MODEL.damping(5.0, 0.1)
    _, _, course, _, _ = step_plant(MODEL, _state(rot=0.1), tau, 0.1)
    assert course == pytest.approx(0.01, abs=1e-12)


def test_step_plant_halving_error_is_second_order():
    # one dt step vs two dt/2 steps differ by O(dt^2): halving dt should
    # shrink the difference by about 4x
    state = _state(sog=6.0, rot=0.05, course=0.3)
    tau = (0.4, 0.2)

    def gap(dt):
        one = step_plant(MODEL, state, tau, dt)
        half = step_plant(MODEL, step_plant(MODEL, state, tau, dt / 2), tau, dt / 2)
        return np.hypot(one[0] - half[0], one[1] - half[1]) + abs(one[3] - half[3])

    ratio = gap(0.2) / gap(0.1)
    assert 3.0 < ratio < 5.0


def test_step_plant_clamps_sog():
    # at the throttle floor from 10 m/s, one 60 s Euler step overshoots below 0
    state = _state(sog=10.0)
    tau = (MODEL.tau_min[0], 0.0)
    du, _ = MODEL.rates(10.0, 0.0, *tau)
    assert 10.0 + 60.0 * du < 0.0
    assert step_plant(MODEL, state, tau, 60.0)[3] == 0.0


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_controller_and_plant_reject_a_bad_step(dt):
    ref = (5.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=rf"^dt must be finite and > 0, got {dt}$"):
        control_law(MODEL, default_gains(), _state(), ref, (0.0, 0.0), dt)
    with pytest.raises(ValueError, match=rf"^dt must be finite and > 0, got {dt}$"):
        step_plant(MODEL, _state(), MODEL.damping(5.0, 0.0), dt)


def test_step_plant_steps_floats():
    north, east, course, sog, rot = step_plant(MODEL, _state(rot=0.1), (0.4, 0.2), 0.1)
    assert all(type(v) is float for v in (north, east, course, sog, rot))
    assert -math.pi <= course < math.pi


def test_energy_like_boundedness():
    # engine off: speed never increases
    state = _state(sog=5.0)
    sogs = [state[3]]
    for _ in range(300):
        state = step_plant(MODEL, state, (0.0, 0.0), 0.1)
        sogs.append(state[3])
    assert np.all(np.diff(sogs) <= 1e-12)


def test_course_step_settles_within_20s():
    gains = default_gains()
    state = _state()
    integral = NO_INTEGRAL
    chi_d = math.radians(20.0)
    errs = []
    for _ in range(200):
        tau, integral = control_law(MODEL, gains, state, _ref(course=chi_d), integral, 0.1)
        state = step_plant(MODEL, state, tau, 0.1)
        errs.append(abs((state[2] - chi_d + math.pi) % (2 * math.pi) - math.pi))
    errs = np.degrees(np.array(errs))
    settle = next(i for i in range(len(errs)) if np.all(errs[i:] < 1.0))
    assert (settle + 1) * 0.1 < 20.0


def test_gains_validation():
    with pytest.raises(ValueError):
        ControllerGains(0.6, 2.2, 1.0, 0.1, -0.1)
    with pytest.raises(ValueError):
        ControllerGains(0.6, 2.2, 1.0, 0.0, 0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_gains().kp_sog = 1.0


def test_model_inertia_is_positive_over_the_speed_envelope():
    # each inertia is linear in U, so it is checked at U = 0 and U = u_max:
    # 0 at either end is rejected, and a falling one positive at both is kept
    for m0, m1 in (("m_u0", "m_u1"), ("m_r0", "m_r1")):
        c0 = getattr(MODEL, m0)
        for changes in ({m0: 0.0}, {m1: -c0 / MODEL.u_max}):
            with pytest.raises(ValueError, match=rf"^inertia {m0} \+ {m1}\*U must be > 0 for U in \[0, u_max\]"):
                dataclasses.replace(MODEL, **changes)
        kept = dataclasses.replace(MODEL, **{m1: -0.5 * c0 / MODEL.u_max})
        assert min(kept.mass(0.0)) > 0.0 and min(kept.mass(MODEL.u_max)) > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_and_gains_reject_non_finite_values(bad):
    # a NaN field passed every `<`/`<=` check, so any error it caused
    # surfaced far from the field
    for record in (MODEL, default_gains()):
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, tuple):
                for i in range(len(value)):
                    changed = value[:i] + (bad,) + value[i + 1:]
                    with pytest.raises(ValueError, match=rf"^{field.name}\[{i}\] must be finite"):
                        dataclasses.replace(record, **{field.name: changed})
            else:
                with pytest.raises(ValueError, match=f"^{field.name} must be finite"):
                    dataclasses.replace(record, **{field.name: bad})


def test_control_law_reads_negative_desired_sog_as_zero():
    gains = default_gains()
    below, _ = control_law(MODEL, gains, _state(sog=1.0), _ref(sog=-0.5), NO_INTEGRAL, 0.1)
    at_zero, _ = control_law(MODEL, gains, _state(sog=1.0), _ref(sog=0.0), NO_INTEGRAL, 0.1)
    assert below == at_zero
