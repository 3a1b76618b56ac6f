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

A training policy keeps one record per round: the state, the team
reward, and the agents' (K, N) effective masks, (K,) actions and (K,)
probabilities, 1.0 for an idle agent.  At an update, ``critic_update``
fits the critic to the recorded states and rewards and returns every
round's advantage; then each agent's ``ppo_update`` reads an
``ActorBatch`` of those shared states and advantages and its own mask,
action and probability columns, and steps only on the rounds it acted
in.
"""

import logging
import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import AssignmentError, RaceError
from .tsfen import (
    AdamState, TsfenNetwork, Workspace, adam_step, masked_softmax,
)

if TYPE_CHECKING:
    from .config import MappoSection

log = logging.getLogger(__name__)

_LOG_TINY = -745.0  # exp underflows to 0 below this


def build_state(drift: np.ndarray, gains: np.ndarray,
                aoi: np.ndarray) -> np.ndarray:
    """One round's (M, N, 3) MDP state from its (M, N) per-sub-period
    channel gains: row (m, i) is device i's (drift, gain in sub-period m,
    age)."""
    state = np.empty(gains.shape + (3,))
    state[..., 0] = drift
    state[..., 1] = gains
    state[..., 2] = aoi
    return state


def binary_mask(drift: np.ndarray, threshold: float) -> np.ndarray:
    """1 for devices within the drift threshold, 0 otherwise."""
    return (np.asarray(drift) <= threshold).astype(np.float64)


def adaptive_mask(drift: np.ndarray, threshold: float, temperature: float,
                  pl_ratio: float, round_index: int) -> np.ndarray:
    """Soft eligibility that decays in drift and sharpens over rounds.

    Ineligible devices get weight exp(-temperature * drift *
    (1 - pl_ratio)^(-round_index)); an exponent below the float range,
    or a growth factor beyond it, is clamped to zero weight (hard
    exclusion) with a log record.
    """
    if not 0.0 < pl_ratio < 1.0:
        raise RaceError("pl_ratio must lie in (0, 1)")
    if temperature <= 0.0:
        raise RaceError("temperature must be > 0")
    drift = np.asarray(drift, dtype=np.float64)
    eligible = drift <= threshold
    try:
        growth = math.exp(-round_index * math.log1p(-pl_ratio))
    except OverflowError:
        # zero weight for every ineligible device; eligible ones get 1
        exponent = np.full_like(drift, -math.inf)
    else:
        with np.errstate(over="ignore"):  # -inf is clamped below
            exponent = -temperature * drift * growth
    clamped = (exponent < _LOG_TINY) & ~eligible
    if clamped.any():
        log.warning("adaptive mask underflow for %d device(s); "
                    "clamping to zero weight", int(clamped.sum()))
    soft = np.where(clamped, 0.0, np.exp(np.maximum(exponent, _LOG_TINY)))
    return np.where(eligible, 1.0, soft)


def gae(residuals: np.ndarray, gamma: float, lam: float) -> np.ndarray:
    """Backward advantage recursion with terminal advantage zero."""
    residuals = np.asarray(residuals, dtype=np.float64)
    adv = np.zeros_like(residuals)
    acc = 0.0
    for t in range(len(residuals) - 1, -1, -1):
        acc = residuals[t] + gamma * lam * acc
        adv[t] = acc
    return adv


class ActorBatch(NamedTuple):
    """What one agent's ``ppo_update`` reads: its actor and Adam state,
    the shared states and advantages of the update's rounds, and the
    agent's own effective masks, actions (-1 where it idled) and old
    probabilities (1.0 where it idled), one row per round."""

    actor: TsfenNetwork
    opt: AdamState
    hyper: "MappoSection"
    states: np.ndarray
    advantages: np.ndarray
    masks: np.ndarray
    actions: np.ndarray
    old_probs: np.ndarray


def _claim(n_agents: int, mask: np.ndarray, pick):
    """Agents in index order each claim one device that ``mask`` admits
    and no earlier agent claimed.

    Agent k's effective mask is ``mask`` with the claimed devices zeroed;
    ``pick(k, eff)`` returns the device it claims, and an agent whose
    effective mask admits nothing idles (-1) without a call.  Returns
    (actions, eff_masks).
    """
    actions = [-1] * n_agents
    eff_masks = np.empty((n_agents, mask.shape[0]))
    unclaimed = np.ones(mask.shape[0], dtype=bool)
    for k in range(n_agents):
        eff = np.multiply(mask, unclaimed, out=eff_masks[k])
        if (eff > 0.0).any():
            actions[k] = pick(k, eff)
            unclaimed[actions[k]] = False
    return np.array(actions, dtype=np.int64), eff_masks


def select_actions(actors, state: np.ndarray, mask: np.ndarray,
                   rng: np.random.Generator):
    """Sample one device per agent without collisions.

    Returns (actions, eff_masks, probs): action -1 marks an idle agent;
    ``eff_masks[k]`` is the mask agent k actually sampled from and
    ``probs[k]`` the probability of its action under that mask (1.0 for
    an idle agent, which had no other choice).  Agent k's probabilities
    are those of ``actors[k].policy``; the state is conditioned once for
    all of them.
    """
    probs_out = np.ones(len(actors))
    x = TsfenNetwork.preprocess(state[None])

    def sample(k, eff):
        logits, _ = actors[k].forward(x)
        p = masked_softmax(logits, eff[None])[0][0]
        # the draw of ``rng.choice(len(p), p=p)``: one uniform double
        # against the cumulative sum normalized by its last entry
        cdf = p.cumsum()
        cdf /= cdf[-1]
        a = int(cdf.searchsorted(rng.random(), "right"))
        probs_out[k] = p[a]
        return a

    actions, eff_masks = _claim(len(actors), mask, sample)
    return actions, eff_masks, probs_out


def check_actions(actions, mask: np.ndarray, n_agents: int) -> np.ndarray:
    """One round's selection as (K,) int64 device indices, -1 for idle.

    Raises ``AssignmentError`` unless ``actions`` holds exactly
    ``n_agents`` integer entries, each -1 or a device index in [0, N)
    that no other agent picked and whose ``mask`` entry is > 0.
    """
    raw = np.asarray(actions)
    if raw.shape != (n_agents,) or raw.dtype.kind not in "iu":
        raise AssignmentError(
            f"need {n_agents} integer actions, got {raw.tolist()!r}")
    # the few actions as Python ints: no numpy call per check
    acts = raw.tolist()
    picked = [a for a in acts if a >= 0]
    if any(a < -1 for a in acts) or any(a >= len(mask) for a in picked):
        problem = "a device index out of range"
    elif len(set(picked)) < len(picked):
        problem = "one device for several sub-channels"
    elif any(mask[a] <= 0.0 for a in picked):
        problem = "a device the mask excludes"
    else:
        return raw.astype(np.int64)
    raise AssignmentError(f"actions {raw.tolist()} pick {problem}")


def _critic_values(critic: TsfenNetwork, states: np.ndarray, size: int,
                   workspace: Workspace = None) -> np.ndarray:
    # chunks of ``size`` rows, so that no whole-episode activation cache
    # is held at once.  The chunk size is part of the values' bits: a
    # row's value can differ in the last bit between a 1-row chunk and a
    # larger one
    return np.concatenate([
        critic.value(states[i:i + size], workspace)[0]
        for i in range(0, len(states), size)])


def _actor_step(batch: ActorBatch, rows: np.ndarray,
                workspace: Workspace = None):
    """One clipped-surrogate ascent step on the minibatch ``rows``."""
    hyper = batch.hyper
    actions, old_probs = batch.actions[rows], batch.old_probs[rows]
    advantages = batch.advantages[rows]
    probs, caches = batch.actor.policy(batch.states[rows], batch.masks[rows],
                                       workspace)
    idx = np.arange(len(rows))
    p_new = probs[idx, actions]
    ratio = p_new / old_probs
    # the min(.) gradient gate: unclipped branch active unless the ratio
    # already moved past the clip window in the profitable direction
    gate = np.where(advantages >= 0.0, ratio <= 1.0 + hyper.clip,
                    ratio >= 1.0 - hyper.clip)
    coeff = gate * advantages / old_probs / len(rows)
    dprobs = np.zeros_like(probs)
    dprobs[idx, actions] = -coeff  # minimize the negative surrogate
    grads = batch.actor.policy_backward(caches, dprobs)
    # the activations go before the Adam step, whose scratch reuses them
    del caches
    adam_step(batch.actor.params, grads, batch.opt, hyper.learning_rate)
    return ratio


def _critic_step(critic: TsfenNetwork, opt: AdamState, learning_rate: float,
                 states, targets, workspace: Workspace = None):
    values, cache = critic.value(states, workspace)
    if not np.isfinite(values).all():
        raise RaceError("non-finite critic values: the critic has diverged")
    err = values - targets
    dlogits = np.zeros((len(targets), 1))
    dlogits[:, 0] = err / len(targets)
    grads = critic.backward(cache, dlogits)
    del cache   # as in ``_actor_step``
    adam_step(critic.params, grads, opt, learning_rate)
    return float(0.5 * (err ** 2).mean())


def _minibatches(n: int, hyper: "MappoSection", rng: np.random.Generator):
    """Row indices of ``ppo_epochs`` passes of shuffled minibatches."""
    for _ in range(hyper.ppo_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            yield perm[start:start + hyper.batch_size]


def critic_update(critic: TsfenNetwork, opt: AdamState, hyper: "MappoSection",
                  episodes, rng: np.random.Generator):
    """Fit the shared critic to ``episodes``, a list of (states, rewards)
    arrays, with ``ppo_epochs`` passes of shuffled minibatches.

    Returns (advantages, loss): every round's advantage in episode order,
    computed per episode from the pre-update critic, and the last
    minibatch loss.
    """
    if not episodes or not all(len(rewards) for _, rewards in episodes):
        raise RaceError("critic_update called with an empty episode list "
                        "or episode")
    workspace = Workspace()
    advs, targets = [], []
    for ep_states, rewards in episodes:
        values = _critic_values(critic, ep_states, hyper.batch_size,
                                workspace)
        # episodes end by horizon truncation, not termination: bootstrap
        # the cut with the last state's own value estimate
        v_next = np.append(values[1:], values[-1])
        eps = rewards + hyper.gamma * v_next - values
        if not np.isfinite(eps).all():
            raise RaceError("non-finite TD residuals; aborting update")
        advs.append(gae(eps, hyper.gamma, hyper.gae_lambda))
        targets.append(rewards + hyper.gamma * v_next)
    states = np.concatenate([ep_states for ep_states, _ in episodes])
    targets = np.concatenate(targets)

    loss = float("nan")
    for rows in _minibatches(len(states), hyper, rng):
        loss = _critic_step(critic, opt, hyper.learning_rate, states[rows],
                            targets[rows], workspace)
    return np.concatenate(advs), loss


def ppo_update(batch: ActorBatch, rng: np.random.Generator) -> dict:
    """One agent's clipped-PPO actor update: ``ppo_epochs`` passes of
    shuffled minibatches over the batch's rounds, each step taken on the
    minibatch rounds the agent acted in.  Every forward draws its
    attention buffers from one workspace, which is dropped on return.

    The statistics are finite: ``steps`` counts the actor steps taken,
    and ``mean_ratio`` (the last step's mean importance ratio) is left
    out when an agent that never acted took none.
    """
    if len(batch.actions) == 0:
        raise RaceError("ppo_update called with an empty batch")
    acted = batch.actions >= 0
    workspace = Workspace()
    stats = {"steps": 0}
    for rows in _minibatches(len(acted), batch.hyper, rng):
        rows = rows[acted[rows]]
        if len(rows):
            ratio = _actor_step(batch, rows, workspace)
            stats["steps"] += 1
            stats["mean_ratio"] = float(ratio.mean())
    return stats


# --- baseline selection policies -------------------------------------------

def baseline_policy(kind: str, state: np.ndarray, mask: np.ndarray,
                    n_agents: int, rng: np.random.Generator,
                    cursor: int = 0):
    """One round of baseline selection.

    ``state`` is the (M, N, 3) MDP state; ages are read from the newest
    sub-period.  Each agent in turn takes, among the devices still
    admitted: ``greedy_aoi`` the oldest (ties to the lowest index),
    ``random`` a uniform draw, ``round_robin`` the first in cyclic order
    from ``cursor``.  Returns (actions, new_cursor); the cursor moves past
    the last agent's device only when every agent acted.
    """
    aoi = np.asarray(state)[-1, :, 2]
    n = mask.shape[0]
    if kind == "greedy_aoi":
        def pick(k, eff):
            # ages are >= 0, so -inf marks the devices not admitted
            return int(np.argmax(np.where(eff > 0.0, aoi, -np.inf)))
    elif kind == "random":
        def pick(k, eff):
            return int(rng.choice(np.flatnonzero(eff > 0.0)))
    elif kind == "round_robin":
        order = (cursor + np.arange(n)) % n

        def pick(k, eff):
            return int(order[np.argmax(eff[order] > 0.0)])
    else:
        raise RaceError(f"unknown baseline policy {kind!r}")
    actions, _ = _claim(n_agents, mask, pick)
    if kind == "round_robin" and n_agents and actions[-1] >= 0:
        cursor = (int(actions[-1]) + 1) % n
    return actions, cursor
