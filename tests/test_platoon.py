import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from race_wfl.config import PlatoonSection
from race_wfl.errors import CollisionError
from race_wfl.platoon import PlatoonState, init_platoon, step_platoon

P = PlatoonSection()  # Table-II style defaults
P1 = PlatoonSection(substeps=1)  # one Euler sub-step per update


def trajectory(state, n_steps, targets):
    """(positions, speeds) of ``n_steps`` ``step_platoon`` calls, shape
    (n_steps + 1, n) with row 0 the initial state; ``targets`` is one
    leader target for every step or one per step."""
    xs, vs = [state.positions], [state.speeds]
    for target in np.broadcast_to(targets, n_steps):
        state = step_platoon(state, P, leader_target=target)
        xs.append(state.positions)
        vs.append(state.speeds)
    return np.array(xs), np.array(vs)


def follower_acceleration(lead, v, dx):
    """The car-following law for a follower at speed ``v``, ``dx`` > 0
    behind a leader at speed ``lead``: the acceleration ``step_platoon``
    applies over one sub-step (0 if the follower stops within it)."""
    state = PlatoonState(
        positions=np.array([0.0, -dx]),  # zero lengths: the gap is dx
        speeds=np.array([lead, v]),
        accelerations=np.zeros(2),
        lengths=np.zeros(2),
    )
    return step_platoon(state, P1).accelerations[1]


def test_standstill_balances_at_minimum_gap():
    # the safe distance at rest is d_min, so the law is exactly 0 there
    assert follower_acceleration(0.0, 0.0, P.d_min) == 0.0


def test_safe_distance_without_closing_speed():
    # h = d_min + t_min * v = 17 at v = 10: the braking term is exactly 1
    got = follower_acceleration(10.0, 10.0, 17.0)
    assert got == P.a_max * (1.0 - (10.0 / P.v_des) ** 4 - 1.0)


@pytest.mark.parametrize("v, dv, dx", [(15, -1, 12), (20, 2, 40)])
def test_law_high_precision_oracle(v, dv, dx):
    # oracle: the same formula in 50-digit arithmetic
    mp.dps = 50
    v, dv, dx = mpf(v), mpf(dv), mpf(dx)
    a_max, b_max = mpf("0.73"), mpf("1.67")
    h = mpf(2) + mpf("1.5") * v + v * dv / (2 * (a_max * b_max) ** mpf("0.5"))
    expected = a_max * (1 - (v / 30) ** 4 - (h / dx) ** 2)
    got = follower_acceleration(float(v - dv), float(v), float(dx))
    assert got == pytest.approx(float(expected), rel=1e-13)


@given(
    lead=st.floats(0, 30), c1=st.floats(0, 10), c2=st.floats(0, 10),
)
def test_faster_follower_never_accelerates_harder(lead, c1, c2):
    # behind a leader at speed ``lead``, a faster follower closes faster
    # and has a larger safe distance; at a 1 km gap no follower stops
    lo, hi = sorted((lead + c1, lead + c2))
    assert follower_acceleration(lead, lo, 1000.0) \
        >= follower_acceleration(lead, hi, 1000.0)


def test_free_road_at_desired_speed():
    a = follower_acceleration(P.v_des, P.v_des, 1e9)
    assert abs(a) <= 1e-6 * P.a_max


def test_free_road_from_standstill():
    a = follower_acceleration(0.0, 0.0, 1e9)
    assert a == pytest.approx(P.a_max, rel=1e-9)


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
        if follower_acceleration(speed, speed, mid) > 0:
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
    tx, tv = trajectory(state, 200, 17.5)
    assert tv[-1, 0] == 17.5
    assert tx[-1, 0] == 17.5 * P.update_interval * 200


def test_collision_is_a_fault_not_a_clamp():
    # weak braking authority: follower overruns a stopped leader in one step
    weak = PlatoonSection(a_max=0.01, b_max=1e6, d_min=0.1, t_min=0.1,
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
        state = init_platoon(P, rng)
        tx, _ = trajectory(state, 500, 18.0)
        gaps = tx[:, :-1] - tx[:, 1:] - state.lengths[:-1]
        assert gaps.min() > 0.0, f"seed {seed} lost ordering"


def test_braking_to_a_standstill_stops_every_vehicle():
    # cruising, then braking: every vehicle takes the stop-within-a-sub-step
    # branch and then stays at rest without moving backwards
    targets = np.concatenate([np.full(10, 18.0), np.zeros(70)])
    for seed in range(3):
        state = init_platoon(P, np.random.default_rng(seed))
        tx, tv = trajectory(state, len(targets), targets)
        assert (tv[-1] == 0.0).all()
        assert (np.diff(tx, axis=0) >= 0.0).all()


def test_leader_tracks_piecewise_profile():
    rng = np.random.default_rng(3)
    state = init_platoon(PlatoonSection(n_followers=2), rng,
                         leader_speed=18.0)
    targets = np.concatenate([np.full(50, 18.0), np.full(100, 15.0)])
    tx, tv = trajectory(state, 150, targets)
    assert tv[50, 0] == pytest.approx(18.0)
    assert tv[-1, 0] == pytest.approx(15.0, abs=1e-9)
