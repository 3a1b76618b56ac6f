import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from race_wfl.aoi_metrics import update_aoi
from race_wfl.config import config_from_dict
from race_wfl.errors import CollisionError, InfeasibleError
from race_wfl.simulation import (
    BaselinePolicy, MappoPolicy, World, make_policy, run_experiment,
)

TINY = {
    "platoon": {"n_followers": 8},
    "selection": {"n_subchannels": 2, "subperiods": 3},
    "task": {"model_dim": 40, "n_samples": 300},
    "mappo": {"d_model": 8, "n_heads": 2, "squeeze_dim": 3,
              "lstm_hidden": 6, "fc_hidden": 6, "episodes_per_update": 1},
    "run": {"episodes": 2, "rounds_per_episode": 8, "seed": 11},
}


def tiny_cfg(**overrides):
    data = json.loads(json.dumps(TINY))
    for section, vals in overrides.items():
        data.setdefault(section, {}).update(vals)
    return config_from_dict(data)


class TestRoundInvariants:
    def test_ledger_invariants_over_a_hundred_rounds(self):
        cfg = tiny_cfg(run={"rounds_per_episode": 100})
        world = World(cfg)
        policy = make_policy(cfg, "random", cfg.run.seed)
        world.reset(0)
        aoi_prev = world.aoi.copy()
        for _ in range(100):
            led = world.advance_round(policy.select)
            led.validate()
            # energy budgets hold for every assigned device
            chosen = led.assignment.sum(axis=0).astype(bool)
            assert (led.energies[chosen]
                    <= cfg.cost.max_energy_j * (1 + 1e-9)).all()
            assert (led.energies[~chosen] == 0.0).all()
            # age recursion matches the scalar oracle device by device
            for dev in range(world.n_devices):
                assert led.aoi[dev] == update_aoi(
                    aoi_prev[dev], bool(chosen[dev]), led.round_delay)
            aoi_prev = led.aoi.copy()
            # aggregated devices are selected and within threshold
            for dev in led.aggregated:
                assert chosen[dev]
                assert led.drift[dev] <= led.eligible_threshold

    def test_rerun_reproduces_identical_ledgers(self):
        cfg = tiny_cfg()
        def collect():
            world = World(cfg)
            policy = make_policy(cfg, "greedy_aoi", cfg.run.seed)
            world.reset(0)
            rows = []
            for _ in range(10):
                led = world.advance_round(policy.select)
                rows.append((led.aoi.tobytes(), led.drift.tobytes(),
                             led.assignment.tobytes(), led.round_delay))
            return rows
        assert collect() == collect()

    def test_agentless_round_leaves_age_unchanged(self):
        cfg = tiny_cfg(selection={"n_subchannels": 0})
        world = World(cfg)
        world.reset(0)
        led = world.advance_round(lambda state, mask: np.empty(0, int))
        assert led.round_delay == 0.0
        assert (led.aoi == 0.0).all()
        assert led.assignment.shape == (0, 8)

    @pytest.mark.parametrize("error", [InfeasibleError, CollisionError])
    def test_round_context_keeps_the_error_type(self, error):
        cfg = tiny_cfg()
        world = World(cfg)
        world.reset(0)

        def failing_select(state, mask):
            raise error("no feasible point")

        with pytest.raises(error, match=r"round 0 \(episode 0\): no feas"):
            world.advance_round(failing_select)

    def test_adaptive_threshold_mode_relaxes_over_time(self):
        cfg = tiny_cfg(thresholds={"mode": "adaptive", "lam_min": 0.01,
                                   "lam_max": 0.8, "adapt_rate": 2.0},
                       run={"rounds_per_episode": 30})
        world = World(cfg)
        policy = make_policy(cfg, "random", cfg.run.seed)
        world.reset(0)
        thresholds = []
        for _ in range(30):
            led = world.advance_round(policy.select)
            thresholds.append(led.eligible_threshold)
        # gradients shrink as the model trains, so the threshold relaxes
        assert thresholds[-1] > thresholds[0]

    def test_adversary_device_is_screened_out(self):
        cfg = tiny_cfg(task={"adversary_devices": [2],
                             "adversary_factor": 400.0},
                       thresholds={"threshold": 0.3})
        world = World(cfg)
        policy = make_policy(cfg, "random", cfg.run.seed)
        world.reset(0)
        for _ in range(10):
            led = world.advance_round(policy.select)
            assert led.drift[2] > led.eligible_threshold
            assert not led.assignment[:, 2].any()
            assert 2 not in led.aggregated

    def test_infeasible_devices_are_masked_not_fatal(self):
        # an extreme energy budget leaves most devices infeasible most
        # rounds; the loop must keep running with idle sub-channels
        cfg = tiny_cfg(cost={"max_energy_j": 1e-15})
        world = World(cfg)
        policy = make_policy(cfg, "random", cfg.run.seed)
        world.reset(0)
        idle_rounds = 0
        for _ in range(40):
            led = world.advance_round(policy.select)
            led.validate()
            if led.assignment.sum() < world.n_agents:
                idle_rounds += 1
        assert idle_rounds > 0

    def test_model_actually_learns(self):
        cfg = tiny_cfg(run={"rounds_per_episode": 60})
        world = World(cfg)
        policy = make_policy(cfg, "greedy_aoi", cfg.run.seed)
        world.reset(0)
        acc0 = world.test_accuracy()
        for _ in range(60):
            world.advance_round(policy.select)
        assert world.test_accuracy() > max(acc0, 1.0 / cfg.task.n_classes)


class TestRunExperiment:
    def test_single_round_run_emits_one_row(self, tmp_path):
        cfg = tiny_cfg(run={"episodes": 1, "rounds_per_episode": 1})
        report = run_experiment(cfg, "random", tmp_path / "r", log_every=0)
        rows = Path(report.csv_path).read_text().strip().splitlines()
        assert len(rows) == 2  # header + one round

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg()
        r1 = run_experiment(cfg, "mappo", tmp_path / "a", train=True,
                            log_every=0)
        r2 = run_experiment(cfg, "mappo", tmp_path / "b", train=True,
                            log_every=0)
        h = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
        assert h(r1.csv_path) == h(r2.csv_path)

    def test_greedy_beats_random_on_paired_seeds(self, tmp_path):
        cfg = tiny_cfg(run={"episodes": 1, "rounds_per_episode": 25})
        wins = 0
        for seed in range(20):
            rg = run_experiment(cfg, "greedy_aoi", tmp_path / f"g{seed}",
                                seed=seed, log_every=0)
            rr = run_experiment(cfg, "random", tmp_path / f"r{seed}",
                                seed=seed, log_every=0)
            wins += (rg.summary["cumulative_sum_aoi_mean"]
                     < rr.summary["cumulative_sum_aoi_mean"])
        assert wins >= 16  # at least 80% of paired seeds

    def test_energy_binding_scenario_completes(self, tmp_path):
        # a 10 mJ budget makes most allocations energy-binding; every
        # selected device must pass the round loop's 1e-9 budget guard
        cfg = config_from_dict({
            "cost": {"max_energy_j": 0.01},
            "run": {"episodes": 1, "rounds_per_episode": 5, "seed": 0}})
        report = run_experiment(cfg, "greedy_aoi", tmp_path / "e",
                                log_every=0)
        rows = Path(report.csv_path).read_text().strip().splitlines()
        assert len(rows) == 6

    def test_summary_and_config_hash_written(self, tmp_path):
        cfg = tiny_cfg()
        report = run_experiment(cfg, "round_robin", tmp_path / "rr",
                                log_every=0)
        data = json.loads((tmp_path / "rr" / "summary.json").read_text())
        assert data["config_hash"] == report.config_hash
        for key in ("cumulative_sum_aoi_mean", "final_test_accuracy",
                    "mean_reward", "final_mean_flmd_of_aggregated"):
            assert key in data["summary"]

    def test_summary_is_strict_json_when_nothing_was_aggregated(
            self, tmp_path):
        # with no agents nothing is ever selected, so no episode has a
        # final-round aggregate to average
        cfg = tiny_cfg(selection={"n_subchannels": 0})
        run_experiment(cfg, "random", tmp_path / "idle", log_every=0)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "idle" / "summary.json").read_text()
        data = json.loads(text, parse_constant=reject)
        assert data["summary"]["final_mean_flmd_of_aggregated"] is None

    def test_checkpoint_cadence(self, tmp_path):
        cfg = tiny_cfg(run={"episodes": 3, "rounds_per_episode": 4,
                            "checkpoint_every": 1})
        run_experiment(cfg, "mappo", tmp_path / "t", train=True,
                       log_every=0)
        for ep in (1, 2, 3):
            assert (tmp_path / "t" / f"checkpoint_ep{ep:05d}.bin").exists()
        assert (tmp_path / "t" / "checkpoint_final.bin").exists()

    def test_mappo_policy_records_and_updates(self, tmp_path):
        cfg = tiny_cfg(run={"episodes": 2, "rounds_per_episode": 6})
        world = World(cfg)
        policy = MappoPolicy(cfg, cfg.run.seed, train=True)
        for ep in range(2):
            world.reset(ep)
            policy.begin_episode()
            for _ in range(6):
                led = world.advance_round(policy.select)
                policy.observe(float(led.rewards[0]))
            policy.end_episode()
        assert len(policy.update_stats) == 2  # episodes_per_update = 1
