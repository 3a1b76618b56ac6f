"""End-to-end round loop and experiment orchestration.

One communication round executes, in order: platoon motion, local
training and drift computation, per-sub-period channel realization,
per-device resource allocation, eligibility masking, policy selection,
cost and delay accounting, age update, aggregation of the selected
eligible devices, and reward/ledger emission.  Episodes reset the platoon
and the global model while keeping the task data fixed.

All randomness flows through named streams derived from the run seed, so
reruns with the same config and seed are byte-identical, and swapping the
selection policy never perturbs the platoon, channel, or task draws.
"""

import dataclasses
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aoi_metrics, fl_engine, selection as sel
from .aoi_metrics import RoundLedger
from .channel import realize_gains
from .config import (
    ScenarioConfig, config_hash, config_to_dict, device_profile, named_rng,
)
from .cost_model import round_delay
from .errors import (
    CheckpointError, ConfigError, InfeasibleError, RaceError,
)
from .platoon import init_platoon, step_platoon
from .resource_alloc import optimal_allocation
from .tsfen import (
    TsfenNetwork, adam_init, load_params, save_params, two_threads,
)

log = logging.getLogger(__name__)

BASELINE_KINDS = ("random", "round_robin", "greedy_aoi")


@dataclass
class RunReport:
    csv_path: str
    summary: dict
    config_hash: str
    seed: int


class World:
    """Scenario fixtures plus the mutable per-episode state."""

    def __init__(self, cfg: ScenarioConfig, seed: int | None = None):
        self.cfg = cfg
        self.seed = cfg.run.seed if seed is None else int(seed)
        p = cfg.platoon
        task_rng = named_rng(self.seed, "task")
        self.task = fl_engine.generate_task(
            seed=int(task_rng.integers(2 ** 31)),
            n_devices=p.n_followers, n_classes=cfg.task.n_classes,
            model_dim=cfg.task.model_dim,
            concentration=cfg.task.concentration,
            n_samples=cfg.task.n_samples,
            feature_scale=cfg.task.feature_scale,
        )
        self.eval_x, self.eval_y = self._draw_eval_set(task_rng)
        self.shard_data = self.task.contiguous()
        winit = named_rng(self.seed, "weights-init")
        w0 = winit.standard_normal(cfg.task.model_dim)
        self.model0 = w0 * (cfg.task.init_norm / np.linalg.norm(w0))
        self.profiles = [device_profile(cfg.cost, int(n_samp))
                         for n_samp in self.task.shard_sizes()]
        self.adversaries = set(int(d) for d in cfg.task.adversary_devices)
        self.n_devices = p.n_followers
        self.n_agents = cfg.selection.n_subchannels
        # each sub-period's end as a fraction of the update interval
        m = cfg.selection.subperiods
        self.subperiod_ends = np.arange(1, m + 1)[:, None] / m
        self.episode = -1

    def _draw_eval_set(self, rng):
        t = self.cfg.task
        weights = np.bincount(self.task.labels,
                              minlength=t.n_classes).astype(float)
        weights /= weights.sum()
        labels = rng.choice(t.n_classes, size=t.eval_samples, p=weights)
        feats = self.task.class_means[labels] + rng.standard_normal(
            (t.eval_samples, self.task.feature_dim))
        return feats, labels

    def reset(self, episode: int) -> None:
        cfg = self.cfg
        self.episode = episode
        self.platoon = init_platoon(
            cfg.platoon, named_rng(self.seed, "platoon-init", episode))
        self.channel_rng = named_rng(self.seed, "channel", episode)
        self.model = self.model0.copy()
        self.aoi = np.zeros(self.n_devices)
        self.round_index = 0
        self.grad_norm_init = None

    def current_threshold(self) -> float:
        th = self.cfg.thresholds
        if th.mode == "fixed" or self.grad_norm_init is None:
            return th.threshold if th.mode == "fixed" else th.lam_max
        return fl_engine.adaptive_threshold(
            self.grad_norm_now, self.grad_norm_init, th.lam_min,
            th.lam_max, th.adapt_rate)

    def advance_round(self, select_fn) -> RoundLedger:
        """Run one communication round; ``select_fn(state, mask)`` must
        return one integer per agent, -1 (idle) or a device index that no
        other agent picked and whose mask entry is > 0.  Anything else
        raises ``AssignmentError`` naming the round and episode."""
        try:
            return self._advance(select_fn)
        except RaceError as exc:
            # keep the subclass: it selects the CLI exit code
            raise type(exc)(
                f"round {self.round_index} (episode {self.episode}): {exc}"
            ) from exc

    def _advance(self, select_fn):
        cfg = self.cfg
        n = self.n_devices
        subperiods = cfg.selection.subperiods

        prev_pos = self.platoon.positions.copy()
        self.platoon = step_platoon(self.platoon, cfg.platoon,
                                    cfg.platoon.leader_speed)
        new_pos = self.platoon.positions

        # local full-batch step and drift for every device
        locals_, drift, global_grad = fl_engine.local_steps(
            self.model, *self.shard_data, cfg.task.n_classes,
            cfg.task.learning_rate, self.adversaries,
            cfg.task.adversary_factor)
        self.grad_norm_now = float(np.linalg.norm(global_grad))
        if self.grad_norm_init is None:
            self.grad_norm_init = max(self.grad_norm_now, 1e-300)
        threshold = self.current_threshold()

        # channel per sub-period along the interpolated trajectory
        pos = prev_pos + self.subperiod_ends * (new_pos - prev_pos)
        gains = realize_gains(pos[:, :1] - pos[:, 1:], cfg.channel,
                              self.channel_rng)
        state = sel.build_state(drift, gains, self.aoi)

        # per-device resource allocation at the latest gains
        # Python floats: an overflow in Stage 1 gives inf (and then an
        # ArithmeticError), not a numpy warning
        feasible = [0.0] * n
        delays = [0.0] * n
        energies = [0.0] * n
        bandwidth = cfg.channel.bandwidth
        for dev, (profile, gain) in enumerate(zip(self.profiles,
                                                  gains[-1].tolist())):
            try:
                res = optimal_allocation(profile, gain, bandwidth)
            except InfeasibleError:
                continue
            except (ValueError, ArithmeticError) as exc:
                # a gain or profile beyond the solver's float range
                raise ConfigError(f"allocation for device {dev}: {exc}") \
                    from exc
            feasible[dev] = 1.0
            delays[dev] = res.total_delay
            energies[dev] = res.energy
        energies = np.array(energies)

        if cfg.selection.mask == "binary":
            mask = sel.binary_mask(drift, threshold)
        else:
            mask = sel.adaptive_mask(drift, threshold,
                                     cfg.selection.temperature,
                                     cfg.selection.pl_ratio,
                                     self.round_index)
        mask = mask * np.array(feasible)

        if self.n_agents > 0 and mask.max() > 0.0:
            actions = sel.check_actions(select_fn(state, mask), mask,
                                        self.n_agents)
        else:
            actions = np.full(self.n_agents, -1, dtype=np.int64)
        chosen = np.zeros(n, dtype=bool)
        chosen[actions[actions >= 0]] = True
        energies[~chosen] = 0.0  # only the chosen devices spend
        delta_round = round_delay(actions, delays)

        self.aoi = aoi_metrics.update_aoi_vector(self.aoi, chosen,
                                                 delta_round)

        eligible = drift <= threshold
        aggregated = np.flatnonzero(chosen & eligible)
        if len(aggregated):
            self.model = fl_engine.fedavg(
                [(locals_[dev], self.profiles[dev].sample_count)
                 for dev in aggregated])

        # an agentless round has no reward recipients
        r = aoi_metrics.reward(self.aoi, drift, cfg.run.alpha, cfg.run.beta,
                               subperiods, self.n_agents) \
            if self.n_agents else 0.0
        ledger = RoundLedger(
            round_index=self.round_index, aoi=self.aoi.copy(),
            drift=drift, actions=actions, round_delay=delta_round,
            rewards=np.full(self.n_agents, r),
            objective_term=aoi_metrics.objective_term(
                self.aoi, drift, cfg.run.alpha, cfg.run.beta),
            aggregated=aggregated,
            eligible_threshold=threshold, energies=energies,
        )
        ledger.validate()
        self.round_index += 1
        return ledger

    def test_accuracy(self) -> float:
        return fl_engine.accuracy(self.model, self.eval_x, self.eval_y,
                                  self.cfg.task.n_classes)


class MappoPolicy:
    """K decentralized actors, one per sub-channel, and one centralized
    critic that all of them share, with the policy RNG.  A training
    policy also holds their Adam states; an evaluation policy holds none
    (``critic_opt`` and ``actor_opts`` are None).  A training policy
    records one tuple per round (state, team reward, (K, N) effective
    masks, (K,) actions, (K,) probabilities) and updates every
    ``episodes_per_update`` episodes.  Each update appends one entry to
    ``update_stats``: the critic's last minibatch loss, the mean
    advantage and, under ``agents``, what each agent's ``ppo_update``
    returned.

    With a ``checkpoint`` path the networks are loaded from it, and a
    rejected file raises ``CheckpointError`` from the constructor; an
    evaluation policy then draws no random init for the weights that the
    load overwrites."""

    def __init__(self, cfg: ScenarioConfig, seed: int, train: bool = True,
                 checkpoint=None):
        winit = None if checkpoint is not None and not train \
            else named_rng(seed, "weights-init", 1)
        n = cfg.platoon.n_followers
        # the critic draws its weights first, then actors 0..K-1
        self.critic = TsfenNetwork(cfg.mappo, n, 1, winit)
        self.actors = [TsfenNetwork(cfg.mappo, n, n, winit)
                       for _ in range(cfg.selection.n_subchannels)]
        self.critic_opt = adam_init(self.critic.params) if train else None
        self.actor_opts = [adam_init(a.params) for a in self.actors] \
            if train else None
        self.rng = named_rng(seed, "policy" if train else "eval")
        self.train = train
        self.hyper = cfg.mappo
        self._episodes_since_update = 0
        self._episodes = []  # each episode's rounds since the last update
        self._pending = None
        self.update_stats = []
        if checkpoint is not None:
            self.load(checkpoint)

    def begin_episode(self):
        if self.train:
            self._episodes.append([])

    def select(self, state, mask):
        actions, eff_masks, probs = sel.select_actions(
            self.actors, state, mask, self.rng)
        if self.train and self.actors:  # an agentless policy records nothing
            self._pending = (state, eff_masks, actions, probs)
        return actions

    def observe(self, reward: float):
        if self._pending is not None:
            state, eff_masks, actions, probs = self._pending
            self._episodes[-1].append(
                (state, reward, eff_masks, actions, probs))
            self._pending = None

    def end_episode(self):
        if not self.train:
            return
        self._episodes_since_update += 1
        if self._episodes_since_update >= self.hyper.episodes_per_update:
            self._update()
            self._episodes_since_update = 0

    def _update(self):
        """The critic's update, then each actor's in index order, on the
        rounds recorded since the last update; none if there are none.
        The update runs in a ``tsfen.two_threads`` scope: OpenBLAS on one
        thread, each minibatch step's halves on two."""
        episodes = [[np.array(column) for column in zip(*ep)]
                    for ep in self._episodes if ep]
        self._episodes = []
        if not episodes:  # no round of the window had a selectable device
            return
        with two_threads():
            advantages, loss = sel.critic_update(
                self.critic, self.critic_opt, self.hyper,
                [(states, rewards) for states, rewards, *_ in episodes],
                self.rng)
            states, _, masks, actions, probs = (np.concatenate(column)
                                                for column in zip(*episodes))
            self.update_stats.append({
                "critic_loss": loss,
                "mean_advantage": float(advantages.mean()),
                "agents": [
                    sel.ppo_update(sel.ActorBatch(
                        actor, opt, self.hyper, states, advantages,
                        masks[:, k], actions[:, k], probs[:, k]), self.rng)
                    for k, (actor, opt) in enumerate(zip(self.actors,
                                                         self.actor_opts))]})

    def _params(self) -> dict:
        """{checkpoint name: parameter array} over every actor and the
        critic."""
        nets = [(f"agent{k}.actor", a) for k, a in enumerate(self.actors)]
        return {f"{prefix}.{name}": p
                for prefix, net in nets + [("critic", self.critic)]
                for name, p in net.params.items()}

    def save(self, path):
        """All actors and the shared critic in one checkpoint file."""
        save_params(path, self._params(),
                    meta={"n_agents": len(self.actors)})

    def load(self, path):
        """Restore parameters saved by ``save`` into the live arrays.

        The checkpoint must hold exactly this policy's parameter names,
        each with the shape its networks expect (so one critic per agent
        is rejected); otherwise ``CheckpointError`` is raised before any
        parameter is written.
        """
        load_params(path, into=self._load_targets)

    def _load_targets(self, shapes: dict, meta: dict) -> dict:
        """``_params()``, once a checkpoint's header ``shapes`` and
        ``meta`` are shown to match this policy."""
        if meta.get("n_agents") != len(self.actors):
            raise CheckpointError(
                f"checkpoint holds {meta.get('n_agents')} agents, the "
                f"scenario has {len(self.actors)}")
        targets = self._params()
        if set(shapes) != set(targets):
            missing = sorted(set(targets) - set(shapes))
            extra = sorted(set(shapes) - set(targets))
            raise CheckpointError(
                f"checkpoint parameter names differ: missing {missing[:3]}, "
                f"unexpected {extra[:3]}")
        for name, p in targets.items():
            if shapes[name] != p.shape:
                raise CheckpointError(
                    f"checkpoint {name} has shape {shapes[name]}, the "
                    f"network expects {p.shape}")
        return targets


class BaselinePolicy:
    def __init__(self, kind: str, cfg: ScenarioConfig, seed: int):
        if kind not in BASELINE_KINDS:
            raise RaceError(f"unknown baseline policy {kind!r}")
        self.kind = kind
        self.n_agents = cfg.selection.n_subchannels
        self.rng = named_rng(seed, "policy")
        self.cursor = 0

    def begin_episode(self):
        pass

    def select(self, state, mask):
        actions, self.cursor = sel.baseline_policy(
            self.kind, state, mask, self.n_agents, self.rng, self.cursor)
        return actions

    def observe(self, reward):
        pass

    def end_episode(self):
        pass


def make_policy(cfg: ScenarioConfig, kind: str, seed: int,
                train: bool = False, checkpoint=None):
    if kind == "mappo":
        return MappoPolicy(cfg, seed, train=train, checkpoint=checkpoint)
    if checkpoint is not None:
        raise ConfigError(f"policy {kind!r} has no checkpoint to load")
    return BaselinePolicy(kind, cfg, seed)


def run_experiment(cfg: ScenarioConfig, policy_kind: str, out_dir,
                   seed: int | None = None, episodes: int | None = None,
                   train: bool | None = None, checkpoint_in=None,
                   log_every: int = 25) -> RunReport:
    """Run (and optionally train) a policy; emit per-round CSV, summary
    JSON, checkpoints and the run's wall time in ``timings.json``.  All
    but the timings are deterministic given (config, seed)."""
    try:
        run = dataclasses.replace(
            cfg.run, seed=cfg.run.seed if seed is None else int(seed),
            episodes=cfg.run.episodes if episodes is None else int(episodes))
    except ValueError as exc:
        raise ConfigError(f"bad run override: {exc}") from exc
    seed, episodes = run.seed, run.episodes
    if train is None:
        train = policy_kind == "mappo" and checkpoint_in is None
    elif train and policy_kind != "mappo":
        raise ConfigError(f"policy {policy_kind!r} has nothing to train")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    world = World(cfg, seed)
    policy = make_policy(cfg, policy_kind, seed, train=train,
                         checkpoint=checkpoint_in)

    t0 = time.perf_counter()
    csv_path = out_dir / "rounds.csv"
    rounds = cfg.run.rounds_per_episode
    ep_sum_aoi = np.zeros(episodes)
    ep_final_drift = np.full(episodes, np.nan)
    ep_accuracy = np.zeros(episodes)
    ep_reward = np.zeros(episodes)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(aoi_metrics.csv_header(world.n_devices, world.n_agents)
                 + "\n")
        for ep in range(episodes):
            world.reset(ep)
            policy.begin_episode()
            cumulative = 0.0
            rewards = np.empty(rounds)
            last_ledger = None
            for _ in range(rounds):
                ledger = world.advance_round(policy.select)
                r = float(ledger.rewards[0]) if len(ledger.rewards) else 0.0
                policy.observe(r)
                cumulative += ledger.objective_term
                fh.write(aoi_metrics.csv_row(ep, ledger, cumulative) + "\n")
                ep_sum_aoi[ep] += float(ledger.aoi.sum())
                rewards[ledger.round_index] = r
                last_ledger = ledger
            policy.end_episode()
            ep_reward[ep] = rewards.mean()
            ep_accuracy[ep] = world.test_accuracy()
            if last_ledger is not None and len(last_ledger.aggregated):
                ep_final_drift[ep] = float(
                    last_ledger.drift[last_ledger.aggregated].mean())
            if train and cfg.run.checkpoint_every > 0 \
                    and (ep + 1) % cfg.run.checkpoint_every == 0:
                policy.save(out_dir / f"checkpoint_ep{ep + 1:05d}.bin")
            if log_every and (ep + 1) % log_every == 0:
                log.info("episode %d/%d reward %.4f sum-aoi %.2f acc %.3f",
                         ep + 1, episodes, ep_reward[ep], ep_sum_aoi[ep],
                         ep_accuracy[ep])
    if train:
        policy.save(out_dir / "checkpoint_final.bin")
    wall_time_s = time.perf_counter() - t0

    summary = {
        "policy": policy_kind,
        "episodes": int(episodes),
        "rounds_per_episode": int(rounds),
        "cumulative_sum_aoi_mean": float(ep_sum_aoi.mean()),
        "cumulative_sum_aoi_last": float(ep_sum_aoi[-1]),
        # null when no episode aggregated in its last round
        "final_mean_flmd_of_aggregated":
            None if np.isnan(ep_final_drift).all()
            else float(np.nanmean(ep_final_drift)),
        "final_test_accuracy": float(ep_accuracy[-1]),
        "mean_test_accuracy": float(ep_accuracy.mean()),
        "mean_reward": float(ep_reward.mean()),
        "mean_reward_last_50": float(ep_reward[-min(50, episodes):].mean()),
        "seed": int(seed),
    }
    report = RunReport(csv_path=str(csv_path), summary=summary,
                       config_hash=config_hash(cfg), seed=seed)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "config_hash": report.config_hash,
                   "config": config_to_dict(cfg)}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    # timings vary between identical runs, so they stay out of summary.json
    with open(out_dir / "timings.json", "w", encoding="utf-8") as fh:
        json.dump({"wall_time_s": wall_time_s}, fh, indent=2)
        fh.write("\n")
    return report
