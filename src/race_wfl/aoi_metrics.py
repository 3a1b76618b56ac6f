"""Age-of-information accounting, the per-round agent reward, and the
cumulative optimization objective.

A selected device's age resets to zero for the round; every other device
ages by the round delay (seconds of simulated delay, not round counts).
The reward penalizes the squared drift, the cumulative objective the
linear drift; the two are deliberately distinct quantities.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RoundLedger:
    """Everything the simulator records about one communication round."""

    round_index: int
    aoi: np.ndarray                 # (N,) seconds, after this round
    drift: np.ndarray               # (N,) relative drift this round
    actions: np.ndarray             # (K,) device per agent, -1 idle
    round_delay: float              # seconds
    rewards: np.ndarray             # (K,) per-agent reward
    objective_term: float           # alpha*sum(aoi) + beta*sum(drift)
    aggregated: np.ndarray = field(default=None)        # device indices
    eligible_threshold: float = field(default=float("nan"))
    energies: np.ndarray = field(default=None)          # (N,) joules

    def validate(self):
        if (self.aoi < 0).any():
            raise ValueError("negative age")
        if self.aoi[self.actions[self.actions >= 0]].any():
            raise ValueError("selected devices must have zero age")


def update_aoi_vector(prev_age: np.ndarray, selected: np.ndarray,
                      round_delay: float) -> np.ndarray:
    """Vectorized age recursion across all devices."""
    prev_age = np.asarray(prev_age, dtype=np.float64)
    out = prev_age + round_delay
    out[np.asarray(selected, dtype=bool)] = 0.0
    return out


def reward(aoi: np.ndarray, drift: np.ndarray, alpha: float, beta: float,
           subperiods: int, n_agents: int) -> float:
    """Shared per-agent reward for one round (higher is better)."""
    if alpha < 0 or beta < 0:
        raise ValueError("weights must be non-negative")
    if subperiods < 1 or n_agents < 1:
        raise ValueError("need at least one sub-period and one agent")
    aoi = np.asarray(aoi, dtype=np.float64)
    drift = np.asarray(drift, dtype=np.float64)
    return float(-(alpha * aoi.sum() + beta * (drift ** 2).sum())
                 / (subperiods * n_agents))


def objective_term(aoi: np.ndarray, drift: np.ndarray, alpha: float,
                   beta: float) -> float:
    """One round's contribution to the cumulative objective (linear drift)."""
    aoi = np.asarray(aoi, dtype=np.float64)
    drift = np.asarray(drift, dtype=np.float64)
    return float(alpha * aoi.sum() + beta * drift.sum())


def csv_header(n_devices: int, n_agents: int) -> str:
    cols = ["episode", "round"]
    cols += [f"aoi_{n}" for n in range(n_devices)]
    cols += [f"drift_{n}" for n in range(n_devices)]
    cols += [f"device_of_agent_{k}" for k in range(n_agents)]
    cols += ["round_delay"]
    cols += [f"reward_{k}" for k in range(n_agents)]
    cols += ["cumulative_objective"]
    return ",".join(cols)


def csv_row(episode: int, ledger: RoundLedger,
            cumulative_objective: float) -> str:
    """Fixed-order CSV row matching ``csv_header``; 17 significant digits,
    formatted in one pass."""
    front = ledger.aoi.tolist() + ledger.drift.tolist()
    actions = ledger.actions.tolist()
    back = [float(ledger.round_delay), *ledger.rewards.tolist(),
            float(cumulative_objective)]
    fmt = ",".join(["%s"] * 2 + ["%.17g"] * len(front) + ["%d"] * len(actions)
                   + ["%.17g"] * len(back))
    return fmt % (episode, ledger.round_index, *front, *actions, *back)
