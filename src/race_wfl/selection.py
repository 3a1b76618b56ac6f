"""Stage-2 vehicle selection: MDP state, eligibility masks, multi-agent
PPO training, and baseline selection policies.

One agent owns each sub-channel.  Agents act in fixed index order; a
later agent samples from its policy restricted (and renormalized) to the
devices not yet claimed this round, which preserves per-agent policy
semantics while keeping the induced assignment legal.  When fewer
eligible devices remain than agents, the surplus agents idle for the
round (their action is -1).

Training follows the clipped-surrogate recipe: one centralized critic,
shared by the K agents, learns from TD residuals, advantages come from
the exponentially weighted backward recursion over those residuals, and
each agent's actor ascends the clipped importance-ratio objective on
those shared advantages with moments-based adaptive steps.
"""

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import AssignmentError, CheckpointError, RaceError
from .tsfen import (
    AdamState, TsfenConfig, TsfenNetwork, Workspace, adam_init, adam_step,
    load_params, save_params,
)

if TYPE_CHECKING:
    from .config import MappoSection

log = logging.getLogger(__name__)

_LOG_TINY = -745.0  # exp underflows to 0 below this


def build_state(history, m: int) -> np.ndarray:
    """Stack the last ``m`` per-sub-period snapshots into (m, N, 3).

    ``history`` is a sequence of (N, 3) arrays ordered oldest to newest;
    shorter histories are padded by repeating the earliest snapshot.
    """
    if len(history) == 0:
        raise RaceError("need at least one snapshot")
    frames = list(history)[-m:]
    while len(frames) < m:
        frames.insert(0, frames[0])
    return np.stack([np.asarray(f, dtype=np.float64) for f in frames])


def binary_mask(drift: np.ndarray, threshold: float) -> np.ndarray:
    """1 for devices within the drift threshold, 0 otherwise."""
    return (np.asarray(drift) <= threshold).astype(np.float64)


def adaptive_mask(drift: np.ndarray, threshold: float, temperature: float,
                  pl_ratio: float, round_index: int) -> np.ndarray:
    """Soft eligibility that decays in drift and sharpens over rounds.

    Ineligible devices get weight exp(-temperature * drift *
    (1 - pl_ratio)^(-round_index)); an exponent below the float range is
    clamped to zero weight (hard exclusion) with a log record.
    """
    if not 0.0 < pl_ratio < 1.0:
        raise RaceError("pl_ratio must lie in (0, 1)")
    if temperature <= 0.0:
        raise RaceError("temperature must be > 0")
    drift = np.asarray(drift, dtype=np.float64)
    growth = math.exp(-round_index * math.log1p(-pl_ratio))
    exponent = -temperature * drift * growth
    clamped = exponent < _LOG_TINY
    if clamped.any():
        log.warning("adaptive mask underflow for %d device(s); "
                    "clamping to zero weight", int(clamped.sum()))
    soft = np.where(clamped, 0.0, np.exp(np.maximum(exponent, _LOG_TINY)))
    return np.where(drift <= threshold, 1.0, soft)


def gae(residuals: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Backward advantage recursion with terminal advantage zero."""
    residuals = np.asarray(residuals, dtype=np.float64)
    adv = np.zeros_like(residuals)
    acc = 0.0
    for t in range(len(residuals) - 1, -1, -1):
        acc = residuals[t] + gamma * lam * acc
        adv[t] = acc
    return adv


class Trajectory:
    """Per-round records of named fields; each finished episode becomes
    one dict of arrays stacked over its rounds."""

    def __init__(self, *fields: str):
        self.fields = fields
        self.episodes = []
        self._open = None

    def start_episode(self):
        self._open = [[] for _ in self.fields]

    def record(self, *values):
        for column, value in zip(self._open, values):
            column.append(value)

    def end_episode(self):
        if self._open and self._open[0]:
            self.episodes.append({name: np.asarray(column) for name, column
                                  in zip(self.fields, self._open)})
        self._open = None

    def take(self) -> list:
        """The finished episodes, emptying the buffer."""
        episodes, self.episodes = self.episodes, []
        return episodes


@dataclass
class Critic:
    """The shared value network, its optimizer state, the states and team
    rewards, and the batch ``critic_update`` leaves for the actors."""

    net: TsfenNetwork
    opt: AdamState
    hyper: "MappoSection"
    trajectory: Trajectory = field(
        default_factory=lambda: Trajectory("states", "rewards"))
    batch: dict | None = None


@dataclass
class AgentBundle:
    """One agent's actor, its optimizer state, its own masks, actions and
    old probabilities, and the shared critic."""

    actor: TsfenNetwork
    actor_opt: AdamState
    critic: Critic
    hyper: "MappoSection"
    trajectory: Trajectory = field(
        default_factory=lambda: Trajectory("masks", "actions", "old_probs"))


def make_critic(net_config: TsfenConfig, hyper: "MappoSection",
                rng: np.random.Generator) -> Critic:
    net = TsfenNetwork(dataclasses.replace(net_config, output_dim=1), rng)
    return Critic(net=net, opt=adam_init(net.params), hyper=hyper)


def make_bundle(net_config: TsfenConfig, hyper: "MappoSection",
                critic: Critic, rng: np.random.Generator) -> AgentBundle:
    actor = TsfenNetwork(net_config, rng)
    return AgentBundle(actor=actor, actor_opt=adam_init(actor.params),
                       critic=critic, hyper=hyper)


def select_actions(agents, state: np.ndarray, mask: np.ndarray,
                   rng: np.random.Generator):
    """Sample one device per agent without collisions.

    Returns (actions, eff_masks, probs): action -1 marks an idle agent;
    ``eff_masks[k]`` is the mask agent k actually sampled from and
    ``probs[k]`` the probability of its chosen device under that mask.
    """
    n = mask.shape[0]
    k_agents = len(agents)
    actions = np.full(k_agents, -1, dtype=np.int64)
    eff_masks = np.zeros((k_agents, n))
    probs_out = np.zeros(k_agents)
    unclaimed = np.ones(n, dtype=bool)
    for k, bundle in enumerate(agents):
        eff = mask * unclaimed
        eff_masks[k] = eff
        if eff.max() <= 0.0:
            continue  # idle: nothing selectable remains
        probs, _ = bundle.actor.policy(state[None], eff[None])
        p = probs[0]
        a = int(rng.choice(n, p=p))
        actions[k] = a
        probs_out[k] = p[a]
        unclaimed[a] = False
    return actions, eff_masks, probs_out


def check_actions(actions, mask: np.ndarray, n_agents: int) -> np.ndarray:
    """One round's selection as (K,) int64 device indices, -1 for idle.

    Raises ``AssignmentError`` unless ``actions`` holds exactly
    ``n_agents`` integer entries, each -1 or a device index in [0, N)
    that no other agent picked and whose ``mask`` entry is > 0.
    """
    raw = np.asarray(actions)
    if raw.shape != (n_agents,) or not np.issubdtype(raw.dtype, np.integer):
        raise AssignmentError(
            f"need {n_agents} integer actions, got {raw.tolist()!r}")
    picked = raw[raw >= 0]
    if (raw < -1).any() or (picked >= len(mask)).any():
        problem = "a device index out of range"
    elif len(np.unique(picked)) < len(picked):
        problem = "one device for several sub-channels"
    elif (mask[picked] <= 0.0).any():
        problem = "a device the mask excludes"
    else:
        return raw.astype(np.int64)
    raise AssignmentError(f"actions {raw.tolist()} pick {problem}")


def _critic_values(critic: Critic, states: np.ndarray,
                   workspace: Workspace = None) -> np.ndarray:
    # minibatch-sized chunks: a row's value does not depend on its batch,
    # and no whole-episode activation cache is held at once
    size = critic.hyper.batch_size
    return np.concatenate([
        critic.net.value(states[i:i + size], workspace)[0]
        for i in range(0, len(states), size)])


def _actor_step(bundle: AgentBundle, states, masks, actions, old_probs,
                advantages, workspace: Workspace = None):
    """One clipped-surrogate ascent step on a minibatch."""
    hyper = bundle.hyper
    probs, caches = bundle.actor.policy(states, masks, workspace)
    rows = np.arange(len(actions))
    p_new = probs[rows, actions]
    ratio = p_new / old_probs
    # the min(.) gradient gate: unclipped branch active unless the ratio
    # already moved past the clip window in the profitable direction
    gate = np.where(advantages >= 0.0, ratio <= 1.0 + hyper.clip,
                    ratio >= 1.0 - hyper.clip)
    coeff = gate * advantages / old_probs / len(actions)
    dprobs = np.zeros_like(probs)
    dprobs[rows, actions] = -coeff  # minimize the negative surrogate
    grads = bundle.actor.policy_backward(caches, dprobs)
    adam_step(bundle.actor.params, grads, bundle.actor_opt,
              hyper.learning_rate)
    return ratio


def _critic_step(critic: Critic, states, targets,
                 workspace: Workspace = None):
    values, cache = critic.net.value(states, workspace)
    if not np.isfinite(values).all():
        raise RaceError("non-finite critic values: the critic has diverged")
    err = values - targets
    dlogits = np.zeros((len(targets), 1))
    dlogits[:, 0] = err / len(targets)
    grads = critic.net.backward(cache, dlogits)
    adam_step(critic.net.params, grads, critic.opt,
              critic.hyper.learning_rate)
    return float(0.5 * (err ** 2).mean())


def _minibatches(n: int, hyper: "MappoSection", rng: np.random.Generator):
    """Row indices of ``ppo_epochs`` passes of shuffled minibatches."""
    for _ in range(hyper.ppo_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            yield perm[start:start + hyper.batch_size]


def critic_update(critic: Critic, rng: np.random.Generator) -> float:
    """Consume the shared trajectory with ``ppo_epochs`` passes of
    shuffled critic minibatches; return the last minibatch loss.

    Advantages and targets are computed per episode from the pre-update
    critic; the states, advantages and loss are left in ``critic.batch``
    for the agents' ``ppo_update`` calls.
    """
    hyper = critic.hyper
    episodes = critic.trajectory.take()
    if not episodes:
        raise RaceError("critic_update called with an empty trajectory "
                        "buffer")
    workspace = Workspace()
    advs, targets = [], []
    for ep in episodes:
        values = _critic_values(critic, ep["states"], workspace)
        # episodes end by horizon truncation, not termination: bootstrap
        # the cut with the last state's own value estimate
        v_next = np.append(values[1:], values[-1])
        eps = ep["rewards"] + hyper.gamma * v_next - values
        if not np.isfinite(eps).all():
            raise RaceError("non-finite TD residuals; aborting update")
        advs.append(gae(eps, hyper.gamma, hyper.gae_lambda))
        targets.append(ep["rewards"] + hyper.gamma * v_next)
    states = np.concatenate([ep["states"] for ep in episodes])
    targets = np.concatenate(targets)

    loss = float("nan")
    for sel in _minibatches(len(states), hyper, rng):
        loss = _critic_step(critic, states[sel], targets[sel], workspace)
    critic.batch = {"states": states, "advantages": np.concatenate(advs),
                    "critic_loss": loss}
    return loss


def ppo_update(bundle: AgentBundle, rng: np.random.Generator) -> dict:
    """One agent's clipped-PPO actor update on its buffered episodes:
    ``ppo_epochs`` passes of shuffled minibatches over the rounds it
    acted in, on the states and advantages of ``bundle.critic.batch``.
    Every forward draws its attention buffers from one workspace, which
    is dropped on return.
    """
    hyper = bundle.hyper
    batch = bundle.critic.batch
    episodes = bundle.trajectory.take()
    if not episodes:
        raise RaceError("ppo_update called with an empty trajectory buffer")
    masks, actions, old_probs = (np.concatenate([ep[name] for ep in episodes])
                                 for name in ("masks", "actions", "old_probs"))
    states, advs = batch["states"], batch["advantages"]
    acted = actions >= 0

    workspace = Workspace()
    stats = {"mean_advantage": float(advs.mean()),
             "critic_loss": batch["critic_loss"], "mean_ratio": float("nan")}
    for sel in _minibatches(len(states), hyper, rng):
        act_sel = sel[acted[sel]]
        if len(act_sel):
            ratio = _actor_step(
                bundle, states[act_sel], masks[act_sel], actions[act_sel],
                old_probs[act_sel], advs[act_sel], workspace)
            stats["mean_ratio"] = float(ratio.mean())
    return stats


# --- baseline selection policies -------------------------------------------

def greedy_aoi_actions(aoi: np.ndarray, mask: np.ndarray,
                       n_agents: int) -> np.ndarray:
    """Top-k ages among eligible devices, ties to the lowest index."""
    eligible = np.flatnonzero(np.asarray(mask) > 0.0)
    order = eligible[np.argsort(-np.asarray(aoi)[eligible], kind="stable")]
    actions = np.full(n_agents, -1, dtype=np.int64)
    take = min(n_agents, len(order))
    actions[:take] = order[:take]
    return actions


def baseline_policy(kind: str, state: np.ndarray, mask: np.ndarray,
                    n_agents: int, rng: np.random.Generator,
                    cursor: int = 0):
    """One round of baseline selection.

    ``state`` is the (M, N, 3) MDP state; ages are read from the newest
    sub-period.  Returns (actions, new_cursor); the cursor only matters
    for the round-robin policy.
    """
    aoi = np.asarray(state)[-1, :, 2]
    n = mask.shape[0]
    if kind == "greedy_aoi":
        return greedy_aoi_actions(aoi, mask, n_agents), cursor
    if kind == "random":
        actions = np.full(n_agents, -1, dtype=np.int64)
        unclaimed = np.asarray(mask) > 0.0
        for k in range(n_agents):
            avail = np.flatnonzero(unclaimed)
            if len(avail) == 0:
                break
            a = int(rng.choice(avail))
            actions[k] = a
            unclaimed[a] = False
        return actions, cursor
    if kind == "round_robin":
        actions = np.full(n_agents, -1, dtype=np.int64)
        unclaimed = np.asarray(mask) > 0.0
        k = 0
        for step in range(n):
            idx = (cursor + step) % n
            if unclaimed[idx]:
                actions[k] = idx
                unclaimed[idx] = False
                k += 1
                if k == n_agents:
                    cursor = (idx + 1) % n
                    return actions, cursor
        return actions, (cursor + n) % n
    raise RaceError(f"unknown baseline policy {kind!r}")


def _policy_params(agents, critic: Critic) -> dict:
    """{checkpoint name: parameter array} over every actor and the critic."""
    nets = [(f"agent{k}.actor", b.actor) for k, b in enumerate(agents)]
    return {f"{prefix}.{name}": p
            for prefix, net in nets + [("critic", critic.net)]
            for name, p in net.params.items()}


def save_agents(path, agents, critic: Critic) -> None:
    """All agents' actors and the shared critic in one checkpoint file."""
    save_params(path, _policy_params(agents, critic),
                meta={"n_agents": len(agents)})


def load_agents(path, agents, critic: Critic) -> None:
    """Restore parameters saved by ``save_agents`` into ``agents`` and
    ``critic``.

    The checkpoint must hold exactly their parameter names, each with the
    shape their networks expect (so one critic per agent is rejected);
    otherwise ``CheckpointError`` is raised and nothing is modified.
    """
    merged, meta = load_params(path)
    if meta.get("n_agents") != len(agents):
        raise CheckpointError(
            f"checkpoint holds {meta.get('n_agents')} agents, the scenario "
            f"has {len(agents)}")
    targets = _policy_params(agents, critic)
    if set(merged) != set(targets):
        missing = sorted(set(targets) - set(merged))
        extra = sorted(set(merged) - set(targets))
        raise CheckpointError(
            f"checkpoint parameter names differ: missing {missing[:3]}, "
            f"unexpected {extra[:3]}")
    for name, p in targets.items():
        if merged[name].shape != p.shape:
            raise CheckpointError(
                f"checkpoint {name} has shape {merged[name].shape}, the "
                f"network expects {p.shape}")
    for name, p in targets.items():
        p[...] = merged[name]
