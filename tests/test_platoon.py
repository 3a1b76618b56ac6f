import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from race_wfl.errors import CollisionError
from race_wfl.platoon import (
    IdmParams, PlatoonState, idm_acceleration, init_platoon, safe_distance,
    simulate_platoon, step_platoon,
)

P = IdmParams()  # Table-II style defaults


def test_safe_distance_stationary():
    assert safe_distance(0.0, 0.0, P) == 2.0


def test_safe_distance_no_closing_speed():
    assert safe_distance(10.0, 0.0, P) == pytest.approx(17.0, abs=0)


def test_safe_distance_high_precision_oracle():
    # oracle: same formula in 50-digit arithmetic
    mp.dps = 50
    expected = (mpf(2) + mpf("1.5") * 20
                + mpf(20) * 2 / (2 * (mpf("0.73") * mpf("1.67")) ** mpf("0.5")))
    got = safe_distance(20.0, 2.0, P)
    assert got == pytest.approx(float(expected), rel=1e-14)


@given(
    v1=st.floats(0, 40), v2=st.floats(0, 40),
    dv=st.floats(0, 10),
)
def test_safe_distance_monotone_in_speed(v1, v2, dv):
    lo, hi = sorted((v1, v2))
    assert safe_distance(lo, dv, P) <= safe_distance(hi, dv, P)


def test_idm_acceleration_free_road_at_desired_speed():
    a = idm_acceleration(P.v_des, 0.0, 1e9, P)
    assert abs(a) <= 1e-6 * P.a_max


def test_idm_acceleration_free_road_from_standstill():
    a = idm_acceleration(0.0, 0.0, 1e9, P)
    assert a == pytest.approx(P.a_max, rel=1e-9)


def test_idm_acceleration_high_precision_oracle():
    mp.dps = 50
    v, dv, dx = mpf(15), mpf(-1), mpf(12)
    a_max, b_max = mpf("0.73"), mpf("1.67")
    h = mpf(2) + mpf("1.5") * v + v * dv / (2 * (a_max * b_max) ** mpf("0.5"))
    expected = a_max * (1 - (v / 30) ** 4 - (h / dx) ** 2)
    got = idm_acceleration(15.0, -1.0, 12.0, P)
    assert got == pytest.approx(float(expected), rel=1e-13)


def test_idm_acceleration_rejects_nonpositive_gap():
    with pytest.raises(CollisionError):
        idm_acceleration(10.0, 0.0, 0.0, P)
    with pytest.raises(CollisionError):
        idm_acceleration(10.0, 0.0, -1.0, P)


def _single_follower_state(speed, gap):
    lengths = np.array([5.0, 5.0])
    return PlatoonState(
        positions=np.array([0.0, -5.0 - gap]),
        speeds=np.array([speed, speed]),
        accelerations=np.zeros(2),
        lengths=lengths,
    )


def _equilibrium_gap(speed):
    """Solve the car-following law for zero acceleration by bisection."""
    lo, hi = 1e-3, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if idm_acceleration(speed, 0.0, mid, P) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_step_equilibrium_is_fixed_point():
    speed = 22.0
    gap = _equilibrium_gap(speed)
    st0 = _single_follower_state(speed, gap)
    st1 = step_platoon(st0, P, leader_target=speed)
    assert st1.speeds == pytest.approx(st0.speeds, abs=1e-9)
    assert st1.gaps() == pytest.approx(st0.gaps(), abs=1e-9)


def test_constant_velocity_integration_is_exact():
    # a leader alone holds its speed with zero acceleration exactly
    state = PlatoonState(
        positions=np.array([0.0]), speeds=np.array([17.5]),
        accelerations=np.zeros(1), lengths=np.array([5.0]),
    )
    tx, tv = simulate_platoon(state, P, 200, leader_targets=17.5)
    assert tv[-1, 0] == 17.5
    assert tx[-1, 0] == 17.5 * P.update_interval * 200


def test_collision_is_a_fault_not_a_clamp():
    # weak braking authority: follower overruns a stopped leader in one step
    weak = IdmParams(a_max=0.01, b_max=1e6, d_min=0.1, t_min=0.1,
                     v_des=31.0, sensitivity_exponent=4.0,
                     update_interval=1.0)
    state = PlatoonState(
        positions=np.array([0.0, -25.0]),
        speeds=np.array([0.0, 30.0]),
        accelerations=np.zeros(2),
        lengths=np.array([5.0, 5.0]),
    )
    with pytest.raises(CollisionError):
        step_platoon(state, weak, leader_target=0.0)


def test_nonpositive_initial_gap_is_a_fault():
    state = PlatoonState(
        positions=np.array([0.0, -5.0]),  # bumper to bumper, gap 0
        speeds=np.array([10.0, 10.0]),
        accelerations=np.zeros(2),
        lengths=np.array([5.0, 5.0]),
    )
    with pytest.raises(CollisionError):
        step_platoon(state, P)


def test_speed_never_negative_and_no_backward_motion():
    # hard braking scenario: vehicle must stop, not reverse
    state = PlatoonState(
        positions=np.array([0.0, -40.0]),
        speeds=np.array([0.0, 20.0]),
        accelerations=np.zeros(2),
        lengths=np.array([5.0, 5.0]),
    )
    for _ in range(30):
        prev = state.positions.copy()
        state = step_platoon(state, P, leader_target=0.0)
        assert (state.speeds >= 0.0).all()
        assert (state.positions >= prev).all()


def test_order_preservation_over_500_steps_100_seeds():
    # Table-II style initialization keeps every gap positive
    for seed in range(100):
        rng = np.random.default_rng(seed)
        state = init_platoon(20, rng)
        tx, _ = simulate_platoon(state, P, 500, leader_targets=18.0)
        gaps = tx[:, :-1] - tx[:, 1:] - state.lengths[:-1]
        assert gaps.min() > 0.0, f"seed {seed} lost ordering"


def test_simulate_equals_repeated_steps_bit_for_bit():
    # cruising, then braking to a standstill: every vehicle stops
    targets = np.concatenate([np.full(10, 18.0), np.zeros(70)])
    for seed in range(3):
        state = init_platoon(20, np.random.default_rng(seed))
        tx, tv = simulate_platoon(state, P, len(targets), targets)
        assert (tv[-1] == 0.0).all()
        for s, target in enumerate(targets):
            assert tx[s].tobytes() == state.positions.tobytes()
            assert tv[s].tobytes() == state.speeds.tobytes()
            state = step_platoon(state, P, leader_target=target)
        assert tx[-1].tobytes() == state.positions.tobytes()
        assert tv[-1].tobytes() == state.speeds.tobytes()


def test_leader_tracks_piecewise_profile():
    rng = np.random.default_rng(3)
    state = init_platoon(2, rng, leader_speed=18.0)
    targets = np.concatenate([np.full(50, 18.0), np.full(100, 15.0)])
    tx, tv = simulate_platoon(state, P, 150, leader_targets=targets)
    assert tv[50, 0] == pytest.approx(18.0)
    assert tv[-1, 0] == pytest.approx(15.0, abs=1e-9)
