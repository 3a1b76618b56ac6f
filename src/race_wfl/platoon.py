"""Longitudinal platoon dynamics with a car-following acceleration law.

The platoon is a leader (index 0) plus ``N`` followers moving along a
line.  Each follower accelerates according to the intelligent-driver-style
law: free-road acceleration shaped by speed relative to the desired speed,
minus a braking term driven by the ratio of the dynamic safe distance to
the actual gap.  The leader tracks a configurable piecewise-constant speed
profile with its acceleration clipped to the same physical limits.

Speeds are clamped at zero: if a vehicle would cross zero speed within a
step it stops at its stopping point instead of moving backwards.  A
non-positive gap is a simulation fault (collision), never silently
clamped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CollisionError


@dataclass(frozen=True)
class IdmParams:
    """Car-following parameters. All values strictly positive."""

    a_max: float = 0.73        # maximum acceleration, m/s^2
    b_max: float = 1.67        # maximum comfortable deceleration, m/s^2
    d_min: float = 2.0         # minimum inter-vehicle space, m
    t_min: float = 1.5         # minimum reaction time, s
    v_des: float = 30.0        # desired velocity, m/s
    sensitivity_exponent: float = 4.0   # driver sensitivity, in [1, 5]
    update_interval: float = 1.0        # integration step tau, s
    substeps: int = 10         # Euler sub-steps per update interval

    def __post_init__(self):
        for name in ("a_max", "b_max", "d_min", "t_min", "v_des",
                     "sensitivity_exponent", "update_interval"):
            if getattr(self, name) <= 0:
                raise ValueError(f"IdmParams.{name} must be > 0")
        if not 1.0 <= self.sensitivity_exponent <= 5.0:
            raise ValueError("sensitivity_exponent must lie in [1, 5]")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


@dataclass
class PlatoonState:
    """Kinematics of the leader (index 0) and N followers, front to back."""

    positions: np.ndarray
    speeds: np.ndarray
    accelerations: np.ndarray
    lengths: np.ndarray

    def gaps(self) -> np.ndarray:
        """Bumper-to-bumper gap of each follower to its predecessor."""
        return (self.positions[:-1] - self.positions[1:] - self.lengths[:-1])


def safe_distance(v: float, dv: float, p: IdmParams) -> float:
    """Dynamic safe distance for a vehicle at speed ``v`` closing at ``dv``."""
    return p.d_min + p.t_min * v + v * dv / (2.0 * np.sqrt(p.a_max * p.b_max))


def idm_acceleration(v: float, dv: float, dx: float, p: IdmParams) -> float:
    """Follower acceleration given speed, closing speed, and gap ``dx`` > 0."""
    if dx <= 0.0:
        raise CollisionError(f"non-positive gap {dx!r}")
    h = safe_distance(v, dv, p)
    return p.a_max * (
        1.0 - (v / p.v_des) ** p.sensitivity_exponent - (h / dx) ** 2
    )


def _step_kernel(x, v, acc, lengths, p, leader_target):
    """One update interval on lists of Python floats, in place, integrated
    in ``p.substeps`` Euler sub-steps.  Returns the index of the first
    vehicle with a non-positive gap (before or during the step), else 0.
    ``acc`` receives the acceleration applied over each sub-step (last
    sub-step on exit)."""
    a_max, b_max, v_des = p.a_max, p.b_max, p.v_des
    d_min, t_min, delta = p.d_min, p.t_min, p.sensitivity_exponent
    n = len(x)
    dt = p.update_interval / p.substeps
    inv_2ab = 1.0 / (2.0 * math.sqrt(a_max * b_max))
    for _ in range(p.substeps):
        lead_acc = (leader_target - v[0]) / dt
        if lead_acc > a_max:
            lead_acc = a_max
        elif lead_acc < -b_max:
            lead_acc = -b_max
        acc[0] = lead_acc
        for i in range(1, n):
            dx = x[i - 1] - x[i] - lengths[i - 1]
            if dx <= 0.0:
                return i
            dv = v[i] - v[i - 1]
            h = d_min + t_min * v[i] + v[i] * dv * inv_2ab
            acc[i] = a_max * (1.0 - (v[i] / v_des) ** delta
                              - (h / dx) ** 2)
        for i in range(n):
            vi = v[i]
            ai = acc[i]
            v_new = vi + ai * dt
            if v_new < 0.0:
                # stops within the sub-step; advance to the stopping point
                disp = -0.5 * vi * vi / ai
                v_new = 0.0
                acc[i] = 0.0
            else:
                disp = vi * dt + 0.5 * ai * dt * dt
            x[i] += disp
            v[i] = v_new
        for i in range(1, n):
            if x[i - 1] - x[i] - lengths[i - 1] <= 0.0:
                return i
    return 0


def step_platoon(state: PlatoonState, p: IdmParams,
                 leader_target: float | None = None) -> PlatoonState:
    """Advance the platoon by one update interval.

    The leader accelerates toward ``leader_target`` (its current speed if
    None) within [-b_max, a_max]; followers follow the car-following law.
    Raises CollisionError if any gap is non-positive before or after the
    step.
    """
    if leader_target is None:
        leader_target = state.speeds[0]
    x = state.positions.tolist()
    v = state.speeds.tolist()
    acc = state.accelerations.tolist()
    bad = _step_kernel(x, v, acc, state.lengths.tolist(), p,
                       float(leader_target))
    if bad > 0:
        raise CollisionError(
            f"vehicle {bad} closed the gap to its predecessor"
        )
    return PlatoonState(np.array(x), np.array(v), np.array(acc),
                        state.lengths.copy())


def simulate_platoon(state: PlatoonState, p: IdmParams, n_steps: int,
                     leader_targets: np.ndarray | float | None = None):
    """Run ``n_steps`` updates; returns (positions, speeds) trajectories
    of shape (n_steps + 1, n), row 0 the initial state. Raises
    CollisionError on a fault."""
    if leader_targets is None:
        leader_targets = float(state.speeds[0])
    if np.isscalar(leader_targets):
        leader_targets = np.full(n_steps, float(leader_targets))
    leader_targets = np.asarray(leader_targets, dtype=np.float64)
    if leader_targets.shape != (n_steps,):
        raise ValueError("leader_targets must have one entry per step")
    x = state.positions.tolist()
    v = state.speeds.tolist()
    acc = state.accelerations.tolist()
    lengths = state.lengths.tolist()
    traj_x = [x.copy()]
    traj_v = [v.copy()]
    for s, target in enumerate(leader_targets.tolist()):
        if _step_kernel(x, v, acc, lengths, p, target) > 0:
            raise CollisionError(f"collision at step {s + 1}")
        traj_x.append(x.copy())
        traj_v.append(v.copy())
    return np.array(traj_x), np.array(traj_v)


def init_platoon(n_followers: int, rng: np.random.Generator,
                 speed_range=(15.0, 20.0), gap_range=(10.0, 15.0),
                 vehicle_length: float = 5.0,
                 leader_speed: float | None = None) -> PlatoonState:
    """Random initial platoon: speeds and bumper gaps drawn uniformly."""
    n = n_followers + 1
    speeds = rng.uniform(*speed_range, size=n)
    if leader_speed is not None:
        speeds[0] = leader_speed
    gaps = rng.uniform(*gap_range, size=n_followers)
    lengths = np.full(n, vehicle_length)
    positions = np.empty(n)
    positions[0] = 0.0
    for i in range(1, n):
        positions[i] = positions[i - 1] - lengths[i - 1] - gaps[i - 1]
    return PlatoonState(
        positions=positions,
        speeds=speeds,
        accelerations=np.zeros(n),
        lengths=lengths,
    )
