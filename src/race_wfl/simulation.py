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

import json
import logging
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import aoi_metrics, fl_engine, selection as sel
from .aoi_metrics import RoundLedger
from .channel import ChannelParams, dbm_to_watts, realize_gains
from .config import ScenarioConfig, config_hash, config_to_dict, named_rng
from .cost_model import DeviceProfile, round_delay
from .errors import RaceError
from .platoon import IdmParams, init_platoon, step_platoon
from .resource_alloc import (
    Binding, SolverSettings, check_feasibility, optimal_allocation,
)
from .tsfen import TsfenConfig

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
        self.idm = IdmParams(
            a_max=p.a_max, b_max=p.b_max, d_min=p.d_min, t_min=p.t_min,
            v_des=p.v_des, sensitivity_exponent=p.sensitivity_exponent,
            update_interval=p.update_interval, substeps=p.substeps,
        )
        self.channel_params = ChannelParams(
            bandwidth=cfg.channel.bandwidth,
            path_loss_exponent=cfg.channel.path_loss_exponent,
            frequency_factor=cfg.channel.frequency_factor,
            noise_variance_dbm=cfg.channel.noise_variance_dbm,
            estimation_error_variance=cfg.channel.estimation_error_variance,
        )
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
        winit = named_rng(self.seed, "weights-init")
        w0 = winit.standard_normal(cfg.task.model_dim)
        self.model0 = w0 * (cfg.task.init_norm / np.linalg.norm(w0))
        power_w = dbm_to_watts(cfg.cost.max_power_dbm)
        self.profiles = [
            DeviceProfile(
                sample_count=int(n_samp),
                cycles_per_sample=cfg.cost.cycles_per_sample,
                cpu_hz=cfg.cost.cpu_hz, power_coeff=cfg.cost.power_coeff,
                max_power_w=power_w, max_energy_j=cfg.cost.max_energy_j,
                model_bits=cfg.cost.model_bits,
            )
            for n_samp in self.task.shard_sizes()
        ]
        self.solver = SolverSettings()
        self.adversaries = set(int(d) for d in cfg.task.adversary_devices)
        self.n_devices = p.n_followers
        self.n_agents = cfg.selection.n_subchannels
        self.subperiods = cfg.selection.subperiods
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
            cfg.platoon.n_followers,
            named_rng(self.seed, "platoon-init", episode),
            speed_range=(cfg.platoon.speed_min, cfg.platoon.speed_max),
            gap_range=(cfg.platoon.gap_min, cfg.platoon.gap_max),
            vehicle_length=cfg.platoon.vehicle_length,
        )
        self.channel_rng = named_rng(self.seed, "channel", episode)
        self.model = self.model0.copy()
        self.aoi = np.zeros(self.n_devices)
        self.round_index = 0
        self.grad_norm_init = None
        self.snapshots = deque(maxlen=self.subperiods)

    def current_threshold(self) -> float:
        th = self.cfg.thresholds
        if th.mode == "fixed" or self.grad_norm_init is None:
            return th.threshold if th.mode == "fixed" else th.lam_max
        return fl_engine.adaptive_threshold(
            self.grad_norm_now, self.grad_norm_init, th.lam_min,
            th.lam_max, th.adapt_rate)

    def advance_round(self, select_fn) -> RoundLedger:
        """Run one communication round; ``select_fn(state, mask)`` must
        return one device index per agent (-1 for an idle agent)."""
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
        lr = cfg.task.learning_rate

        prev_pos = self.platoon.positions.copy()
        self.platoon = step_platoon(self.platoon, self.idm,
                                    cfg.platoon.leader_speed)
        new_pos = self.platoon.positions

        # local full-batch step and drift for every device
        locals_ = np.empty((n, cfg.task.model_dim))
        drift = np.empty(n)
        pooled_grad = np.zeros(cfg.task.model_dim)
        total_samples = 0
        for dev in range(n):
            x, y = self.task.device_data(dev)
            grad = fl_engine.local_gradient(self.model, x, y,
                                            cfg.task.n_classes)
            local = self.model - lr * grad
            if dev in self.adversaries:
                local = fl_engine.apply_adversary(
                    local, self.model, cfg.task.adversary_factor)
            locals_[dev] = local
            drift[dev] = fl_engine.flmd(local, self.model)
            pooled_grad += len(y) * grad
            total_samples += len(y)
        self.grad_norm_now = float(np.linalg.norm(pooled_grad
                                                  / total_samples))
        if self.grad_norm_init is None:
            self.grad_norm_init = max(self.grad_norm_now, 1e-300)
        threshold = self.current_threshold()

        # channel per sub-period along the interpolated trajectory
        gains = np.empty((self.subperiods, n))
        for m in range(self.subperiods):
            frac = (m + 1) / self.subperiods
            pos = prev_pos + frac * (new_pos - prev_pos)
            dists = pos[0] - pos[1:]
            gains[m] = realize_gains(dists, self.channel_params,
                                     self.channel_rng)
            self.snapshots.append(
                np.stack([drift, gains[m], self.aoi], axis=1))
        state = sel.build_state(self.snapshots, self.subperiods)

        # per-device resource allocation at the latest gains
        gain_now = gains[-1]
        alloc = [None] * n
        feasible = np.zeros(n)
        bw = cfg.channel.bandwidth
        for dev in range(n):
            prof = self.profiles[dev]
            if not check_feasibility(prof.model_bits, prof.max_energy_j,
                                     bw, gain_now[dev]):
                continue
            alloc[dev] = optimal_allocation(prof, gain_now[dev], bw,
                                            self.solver)
            feasible[dev] = 1.0

        if cfg.selection.mask == "binary":
            mask = sel.binary_mask(drift, threshold)
        else:
            mask = sel.adaptive_mask(drift, threshold,
                                     cfg.selection.temperature,
                                     cfg.selection.pl_ratio,
                                     self.round_index)
        mask = mask * feasible

        if self.n_agents > 0 and mask.max() > 0.0:
            actions = np.asarray(select_fn(state, mask), dtype=np.int64)
        else:
            actions = np.full(self.n_agents, -1, dtype=np.int64)
        assignment = sel.actions_to_assignment(actions, n)
        chosen = assignment.sum(axis=0).astype(bool)

        delays = np.zeros(n)
        energies = np.zeros(n)
        for dev in np.flatnonzero(chosen):
            res = alloc[dev]
            delays[dev] = res.total_delay
            energies[dev] = res.energy
            budget = self.profiles[dev].max_energy_j
            if res.energy > budget * (1 + 1e-9):
                raise RaceError(f"device {dev} exceeded its energy budget")
        delta_round = round_delay(assignment, delays)

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
                               self.subperiods, self.n_agents) \
            if self.n_agents else 0.0
        ledger = RoundLedger(
            round_index=self.round_index, aoi=self.aoi.copy(),
            drift=drift, assignment=assignment, round_delay=delta_round,
            rewards=np.full(self.n_agents, r),
            objective_term=aoi_metrics.objective_term(
                self.aoi, drift, cfg.run.alpha, cfg.run.beta),
            selected=chosen, aggregated=aggregated,
            eligible_threshold=threshold, energies=energies,
        )
        ledger.validate()
        self.round_index += 1
        return ledger

    def test_accuracy(self) -> float:
        return fl_engine.accuracy(self.model, self.eval_x, self.eval_y,
                                  self.cfg.task.n_classes)


class MappoPolicy:
    """Per-sub-channel actor/critic agents with trajectory recording."""

    def __init__(self, cfg: ScenarioConfig, seed: int, train: bool = True):
        m = cfg.mappo
        net_cfg = TsfenConfig(
            n_devices=cfg.platoon.n_followers,
            history=cfg.selection.subperiods, d_model=m.d_model,
            n_heads=m.n_heads, squeeze_dim=m.squeeze_dim,
            lstm_hidden=m.lstm_hidden, fc_hidden=m.fc_hidden,
        )
        hyper = sel.MappoHyper(
            gamma=m.gamma, gae_lambda=m.gae_lambda, clip=m.clip,
            lr=m.learning_rate, batch_size=m.batch_size,
            ppo_epochs=m.ppo_epochs,
            episodes_per_update=m.episodes_per_update,
        )
        winit = named_rng(seed, "weights-init", 1)
        self.agents = [sel.make_bundle(net_cfg, hyper, winit)
                       for _ in range(cfg.selection.n_subchannels)]
        self.rng = named_rng(seed, "policy" if train else "eval")
        self.train = train
        self.hyper = hyper
        self._episodes_since_update = 0
        self._pending = None
        self.update_stats = []

    def begin_episode(self):
        for bundle in self.agents:
            bundle.start_episode()

    def select(self, state, mask):
        actions, eff_masks, probs = sel.select_actions(
            self.agents, state, mask, self.rng)
        self._pending = (state, eff_masks, actions, probs)
        return actions

    def observe(self, reward: float):
        if self._pending is None:
            return
        state, eff_masks, actions, probs = self._pending
        for k, bundle in enumerate(self.agents):
            prob = probs[k] if actions[k] >= 0 else 1.0
            bundle.record(state, eff_masks[k], int(actions[k]), prob,
                          reward)
        self._pending = None

    def end_episode(self):
        for bundle in self.agents:
            bundle.end_episode()
        if not self.train:
            for bundle in self.agents:
                bundle.episodes.clear()
            return
        self._episodes_since_update += 1
        if self._episodes_since_update >= self.hyper.episodes_per_update:
            stats = [sel.ppo_update(bundle, self.rng)
                     for bundle in self.agents]
            self.update_stats.append(stats)
            self._episodes_since_update = 0

    def save(self, path):
        sel.save_agents(path, self.agents)

    def load(self, path):
        sel.load_agents(path, self.agents)


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
                train: bool = False):
    if kind == "mappo":
        return MappoPolicy(cfg, seed, train=train)
    return BaselinePolicy(kind, cfg, seed)


def run_experiment(cfg: ScenarioConfig, policy_kind: str, out_dir,
                   seed: int | None = None, episodes: int | None = None,
                   train: bool | None = None, checkpoint_in=None,
                   log_every: int = 25) -> RunReport:
    """Run (and optionally train) a policy; emit per-round CSV, summary
    JSON, and checkpoints.  Deterministic given (config, seed)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.run.seed if seed is None else int(seed)
    episodes = cfg.run.episodes if episodes is None else int(episodes)
    if train is None:
        train = policy_kind == "mappo" and checkpoint_in is None
    world = World(cfg, seed)
    policy = make_policy(cfg, policy_kind, seed, train=train)
    if checkpoint_in is not None:
        policy.load(checkpoint_in)

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
    if train and hasattr(policy, "save"):
        policy.save(out_dir / "checkpoint_final.bin")

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
        "wall_time_s": time.perf_counter() - t0,
        "seed": int(seed),
    }
    report = RunReport(csv_path=str(csv_path), summary=summary,
                       config_hash=config_hash(cfg), seed=seed)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "config_hash": report.config_hash,
                   "config": config_to_dict(cfg)}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return report
