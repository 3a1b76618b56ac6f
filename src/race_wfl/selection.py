"""Stage-2 vehicle selection: MDP state, eligibility masks, multi-agent
PPO training, and baseline selection policies.

One agent owns each sub-channel.  Agents act in fixed index order; a
later agent samples from its policy restricted (and renormalized) to the
devices not yet claimed this round, which preserves per-agent policy
semantics while keeping the induced assignment legal.  When fewer
eligible devices remain than agents, the surplus agents idle for the
round (their sub-channel row stays all-zero).

Training follows the clipped-surrogate recipe: per-agent critics learn
from TD residuals, advantages come from the exponentially weighted
backward recursion over those residuals, and the actor ascends the
clipped importance-ratio objective with moments-based adaptive steps.
"""

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, RaceError
from .tsfen import (
    AdamState, TsfenConfig, TsfenNetwork, adam_init, adam_step,
    load_params, save_params,
)

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


def td_residual(reward: float, v_next: float, v_now: float,
                gamma: float) -> float:
    return reward + gamma * v_next - v_now


def gae(residuals: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Backward advantage recursion with terminal advantage zero."""
    residuals = np.asarray(residuals, dtype=np.float64)
    adv = np.zeros_like(residuals)
    acc = 0.0
    for t in range(len(residuals) - 1, -1, -1):
        acc = residuals[t] + gamma * lam * acc
        adv[t] = acc
    return adv


@dataclass(frozen=True)
class MappoHyper:
    gamma: float = 0.98
    gae_lambda: float = 0.95
    clip: float = 0.2
    lr: float = 1e-4
    batch_size: int = 32
    ppo_epochs: int = 4
    episodes_per_update: int = 10


@dataclass
class AgentBundle:
    """Actor/critic parameters, optimizer state, and trajectory buffer."""

    actor: TsfenNetwork
    critic: TsfenNetwork
    actor_opt: AdamState
    critic_opt: AdamState
    hyper: MappoHyper
    episodes: list = field(default_factory=list)
    _open: dict = field(default=None)

    def start_episode(self):
        self._open = {"states": [], "masks": [], "actions": [],
                      "old_probs": [], "rewards": []}

    def record(self, state, eff_mask, action, prob, reward):
        buf = self._open
        buf["states"].append(state)
        buf["masks"].append(eff_mask)
        buf["actions"].append(action)
        buf["old_probs"].append(prob)
        buf["rewards"].append(reward)

    def end_episode(self):
        buf = self._open
        if buf and buf["states"]:
            self.episodes.append({
                "states": np.stack(buf["states"]),
                "masks": np.stack(buf["masks"]),
                "actions": np.asarray(buf["actions"], dtype=np.int64),
                "old_probs": np.asarray(buf["old_probs"]),
                "rewards": np.asarray(buf["rewards"]),
            })
        self._open = None


def make_bundle(net_config: TsfenConfig, hyper: MappoHyper,
                rng: np.random.Generator) -> AgentBundle:
    actor = TsfenNetwork(net_config, rng)
    critic = TsfenNetwork(dataclasses.replace(net_config, output_dim=1), rng)
    return AgentBundle(actor=actor, critic=critic,
                       actor_opt=adam_init(actor.params),
                       critic_opt=adam_init(critic.params), hyper=hyper)


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


def actions_to_assignment(actions: np.ndarray, n_devices: int) -> np.ndarray:
    """(K,) device choices (-1 idle) -> K x N binary assignment."""
    k = len(actions)
    phi = np.zeros((k, n_devices), dtype=np.int64)
    for row, a in enumerate(actions):
        if a >= 0:
            phi[row, a] = 1
    return phi


def _critic_values(bundle: AgentBundle, states: np.ndarray) -> np.ndarray:
    # minibatch-sized chunks: a row's value does not depend on its batch,
    # and no whole-episode activation cache is held at once
    size = bundle.hyper.batch_size
    return np.concatenate([bundle.critic.value(states[i:i + size])[0]
                           for i in range(0, len(states), size)])


def _actor_step(bundle: AgentBundle, states, masks, actions, old_probs,
                advantages):
    """One clipped-surrogate ascent step on a minibatch."""
    hyper = bundle.hyper
    probs, caches = bundle.actor.policy(states, masks)
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
    adam_step(bundle.actor.params, grads, bundle.actor_opt, hyper.lr)
    return ratio


def _critic_step(bundle: AgentBundle, states, targets):
    values, cache = bundle.critic.value(states)
    err = values - targets
    dlogits = np.zeros((len(targets), 1))
    dlogits[:, 0] = err / len(targets)
    grads = bundle.critic.backward(cache, dlogits)
    adam_step(bundle.critic.params, grads, bundle.critic_opt,
              bundle.hyper.lr)
    return float(0.5 * (err ** 2).mean())


def ppo_update(bundle: AgentBundle, rng: np.random.Generator) -> dict:
    """Consume the buffered episodes with one clipped-PPO update pass.

    Advantages and critic targets are computed per episode from the
    pre-update critic (terminal value zero), then both networks take
    ``ppo_epochs`` passes of shuffled minibatches.
    """
    hyper = bundle.hyper
    if not bundle.episodes:
        raise RaceError("ppo_update called with an empty trajectory buffer")
    states, masks, actions, old_probs, advs, targets = [], [], [], [], [], []
    for ep in bundle.episodes:
        values = _critic_values(bundle, ep["states"])
        # episodes end by horizon truncation, not termination: bootstrap
        # the cut with the last state's own value estimate
        v_next = np.append(values[1:], values[-1])
        eps = ep["rewards"] + hyper.gamma * v_next - values
        if not np.isfinite(eps).all():
            raise RaceError("non-finite TD residuals; aborting update")
        adv = gae(eps, hyper.gamma, hyper.gae_lambda)
        states.append(ep["states"])
        masks.append(ep["masks"])
        actions.append(ep["actions"])
        old_probs.append(ep["old_probs"])
        advs.append(adv)
        targets.append(ep["rewards"] + hyper.gamma * v_next)
    states = np.concatenate(states)
    masks = np.concatenate(masks)
    actions = np.concatenate(actions)
    old_probs = np.concatenate(old_probs)
    advs = np.concatenate(advs)
    targets = np.concatenate(targets)
    acted = actions >= 0

    stats = {"mean_advantage": float(advs.mean()),
             "critic_loss": float("nan"), "mean_ratio": float("nan")}
    n = len(states)
    for _ in range(hyper.ppo_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            sel = perm[start:start + hyper.batch_size]
            act_sel = sel[acted[sel]]
            if len(act_sel):
                ratio = _actor_step(
                    bundle, states[act_sel], masks[act_sel],
                    actions[act_sel], old_probs[act_sel], advs[act_sel])
                stats["mean_ratio"] = float(ratio.mean())
            stats["critic_loss"] = _critic_step(bundle, states[sel],
                                                targets[sel])
    bundle.episodes = []
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


def _agent_params(agents) -> dict:
    """{checkpoint name: parameter array} over every agent's networks."""
    return {f"agent{k}.{role}.{name}": p
            for k, bundle in enumerate(agents)
            for role, net in (("actor", bundle.actor),
                              ("critic", bundle.critic))
            for name, p in net.params.items()}


def save_agents(path, agents) -> None:
    """All agents' parameters in one checkpoint file."""
    save_params(path, _agent_params(agents), meta={"n_agents": len(agents)})


def load_agents(path, agents) -> None:
    """Restore parameters saved by ``save_agents`` into ``agents``.

    The checkpoint must hold exactly the agents' parameter names, each
    with the shape the agents' networks expect; otherwise
    ``CheckpointError`` is raised and no agent is modified.
    """
    merged, meta = load_params(path)
    if meta.get("n_agents") != len(agents):
        raise CheckpointError(
            f"checkpoint holds {meta.get('n_agents')} agents, the scenario "
            f"has {len(agents)}")
    targets = _agent_params(agents)
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
