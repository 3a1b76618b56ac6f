import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import per_device_round
from race_wfl import blas, selection, simulation, tsfen
from race_wfl.config import ScenarioConfig, config_from_dict
from race_wfl.errors import (
    AssignmentError, CheckpointError, CollisionError, ConfigError,
    InfeasibleError, RaceError,
)
from race_wfl.fl_engine import fedavg
from race_wfl.simulation import (
    BaselinePolicy, MappoPolicy, World, make_policy, run_experiment,
)
from race_wfl.tsfen import load_params

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
            chosen = np.isin(np.arange(world.n_devices), led.actions)
            assert (led.energies[chosen]
                    <= cfg.cost.max_energy_j * (1 + 1e-9)).all()
            assert (led.energies[~chosen] == 0.0).all()
            # age recursion matches the scalar oracle device by device
            for dev in range(world.n_devices):
                assert led.aoi[dev] == (0.0 if chosen[dev] else
                                        aoi_prev[dev] + led.round_delay)
            aoi_prev = led.aoi.copy()
            # aggregated devices are selected and within threshold
            for dev in led.aggregated:
                assert chosen[dev]
                assert led.drift[dev] <= led.eligible_threshold

    def test_state_holds_this_rounds_sub_periods(self):
        cfg = tiny_cfg()
        world = World(cfg)
        policy = make_policy(cfg, "greedy_aoi", cfg.run.seed)
        world.reset(0)
        aoi_prev = world.aoi.copy()
        for _ in range(4):
            states = []
            led = world.advance_round(
                lambda state, mask: states.append(state)
                or policy.select(state, mask))
            [state] = states
            assert state.shape == (3, 8, 3)
            # every sub-period sees the round's drift and the ages before
            # its update, with a channel draw of its own
            assert (state[..., 0] == led.drift).all()
            assert (state[..., 2] == aoi_prev).all()
            assert len({row.tobytes() for row in state[..., 1]}) == 3
            aoi_prev = led.aoi.copy()

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
                             led.actions.tobytes(), led.round_delay))
            return rows
        assert collect() == collect()

    def test_agentless_round_leaves_age_unchanged(self):
        cfg = tiny_cfg(selection={"n_subchannels": 0})
        world = World(cfg)
        world.reset(0)
        led = world.advance_round(lambda state, mask: np.empty(0, int))
        assert led.round_delay == 0.0
        assert (led.aoi == 0.0).all()
        assert led.actions.shape == (0,)

    @pytest.mark.parametrize("error", [InfeasibleError, CollisionError])
    def test_round_context_keeps_the_error_type(self, error):
        cfg = tiny_cfg()
        world = World(cfg)
        world.reset(0)

        def failing_select(state, mask):
            raise error("no feasible point")

        with pytest.raises(error, match=r"round 0 \(episode 0\): no feas"):
            world.advance_round(failing_select)

    @pytest.mark.parametrize("case, select", [
        ("out-of-range", lambda state, mask: [8, -1]),
        ("too-few", lambda state, mask: [0]),
        ("too-many", lambda state, mask: [0, 1, 3]),
        ("duplicate", lambda state, mask: [np.argmax(mask)] * 2),
        ("non-integer", lambda state, mask: [0.5, -1]),
        ("masked-out", lambda state, mask: [np.argmin(mask), -1]),
    ])
    def test_malformed_actions_raise_assignment_error(self, case, select):
        # the adversary's drift puts device 2 outside the mask
        cfg = tiny_cfg(task={"adversary_devices": [2],
                             "adversary_factor": 400.0})
        world = World(cfg)
        world.reset(0)
        with pytest.raises(AssignmentError, match=r"round 0 \(episode 0\)"):
            world.advance_round(select)

    @pytest.mark.parametrize("seed", range(10))
    def test_federated_step_matches_per_device_loop(self, seed):
        # odd seeds: 3 classes; every seed: an adversary that the drift
        # threshold may or may not screen out
        task = {"adversary_devices": [1 + seed % 7],
                "adversary_factor": 1.0 + seed}
        if seed % 2:
            task.update(n_classes=3, model_dim=90)
        cfg = tiny_cfg(task=task, run={"seed": seed})
        world = World(cfg)
        policy = make_policy(cfg, "greedy_aoi", seed)
        world.reset(0)
        for _ in range(6):
            w = world.model.copy()
            locals_, drift, global_grad = per_device_round(
                world.task, w, cfg.task.learning_rate, world.adversaries,
                cfg.task.adversary_factor)
            led = world.advance_round(policy.select)
            assert np.array_equal(led.drift, drift)
            assert world.grad_norm_now == float(np.linalg.norm(global_grad))
            expected = fedavg(
                (locals_[dev], world.profiles[dev].sample_count)
                for dev in led.aggregated) if len(led.aggregated) else w
            assert np.array_equal(world.model, expected)

    def test_zero_global_model_names_round_and_episode(self):
        cfg = tiny_cfg()
        world = World(cfg)
        world.reset(3)
        world.model = np.zeros(cfg.task.model_dim)
        with pytest.raises(RaceError,
                           match=r"round 0 \(episode 3\): drift undefined"):
            world.advance_round(lambda state, mask: [-1, -1])

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
            assert 2 not in led.actions
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
            if (led.actions < 0).any():
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

    def test_summary_is_byte_identical_across_reruns(self, tmp_path):
        cfg = tiny_cfg(run={"episodes": 2, "rounds_per_episode": 4})
        for name in ("a", "b"):
            run_experiment(cfg, "mappo", tmp_path / name, train=True,
                           log_every=0)
        summary = (tmp_path / "a" / "summary.json").read_bytes()
        assert (tmp_path / "b" / "summary.json").read_bytes() == summary
        assert b"wall_time_s" not in summary
        timings = json.loads((tmp_path / "a" / "timings.json").read_text())
        assert timings["wall_time_s"] > 0

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

    def test_agentless_training_policy_records_nothing(self):
        cfg = tiny_cfg(selection={"n_subchannels": 0})
        policy = MappoPolicy(cfg, cfg.run.seed, train=True)
        # a World never asks an agentless policy to select; a direct
        # caller may, and must not get a round recorded either
        state, mask = np.zeros((3, 8, 3)), np.ones(8)
        for _ in range(3):
            policy.begin_episode()
            for _ in range(4):
                assert len(policy.select(state, mask)) == 0
                policy.observe(0.0)
            policy.end_episode()
        # nothing recorded, so no update window ran an update
        assert policy.update_stats == []

    def test_training_a_baseline_policy_is_rejected(self, tmp_path):
        cfg = tiny_cfg(run={"checkpoint_every": 1})
        with pytest.raises(ConfigError, match="nothing to train"):
            run_experiment(cfg, "random", tmp_path / "r", train=True,
                           log_every=0)
        assert not (tmp_path / "r").exists()  # rejected before the run


class TestEvaluationFootprint:
    def test_evaluation_policy_holds_no_optimizer_state(self):
        policy = MappoPolicy(tiny_cfg(), 0, train=False)
        assert policy.critic_opt is None and policy.actor_opts is None

    def test_training_policy_holds_moments_of_every_parameter(self):
        policy = MappoPolicy(tiny_cfg(), 0, train=True)
        nets = [policy.critic] + policy.actors
        opts = [policy.critic_opt] + policy.actor_opts
        for net, opt in zip(nets, opts, strict=True):
            assert opt.m.keys() == opt.v.keys() == net.params.keys()
            for name, p in net.params.items():
                assert opt.m[name].shape == opt.v[name].shape == p.shape

    def test_build_and_load_peak_at_one_copy_of_the_parameters(self,
                                                               tmp_path):
        # the default networks: 13.9 MB of parameters, the largest array
        # 1.2 MB.  Beyond the parameters, building and loading may hold
        # one array's payload and slack for Python objects (0.14 MB
        # measured); Adam moments or a staged copy of the checkpoint
        # would each add another 13.9 MB or more
        cfg = ScenarioConfig()
        path = tmp_path / "policy.bin"
        MappoPolicy(cfg, 1, train=False).save(path)
        tracemalloc.start()
        try:
            policy = MappoPolicy(cfg, 2, train=False)
            policy.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sizes = [p.nbytes for p in policy._params().values()]
        assert peak <= sum(sizes) + max(sizes) + 500_000

    @pytest.mark.parametrize("train", [False, True])
    def test_only_an_evaluation_policy_from_a_checkpoint_skips_init(
            self, monkeypatch, tmp_path, train):
        path = tmp_path / "policy.bin"
        saved = MappoPolicy(tiny_cfg(), 1, train=False)
        saved.save(path)
        streams = []
        orig = simulation.named_rng

        def recorded(seed, name, *rest):
            streams.append(name)
            return orig(seed, name, *rest)
        monkeypatch.setattr(simulation, "named_rng", recorded)
        policy = MappoPolicy(tiny_cfg(), 2, train=train, checkpoint=path)
        assert ("weights-init" in streams) == train
        assert policy.train == train
        for name, p in policy._params().items():
            assert p.tobytes() == saved._params()[name].tobytes(), name

    def test_training_policy_draws_the_init_it_always_drew(self, tmp_path):
        path = tmp_path / "policy.bin"
        MappoPolicy(tiny_cfg(), 1, train=False).save(path)
        rng = simulation.named_rng(2, "weights-init", 1)
        cfg = tiny_cfg()
        nets = [tsfen.TsfenNetwork(cfg.mappo, 8, 1, rng)] + [
            tsfen.TsfenNetwork(cfg.mappo, 8, 8, rng) for _ in range(2)]
        policy = MappoPolicy(cfg, 2, train=True)
        for net, ours in zip(nets, [policy.critic] + policy.actors,
                             strict=True):
            for name, p in net.params.items():
                assert ours.params[name].tobytes() == p.tobytes(), name

    def test_rejected_checkpoint_raises_from_the_constructor(self,
                                                             tmp_path):
        path = tmp_path / "policy.bin"
        MappoPolicy(tiny_cfg(), 1, train=False).save(path)
        other = tiny_cfg(selection={"n_subchannels": 3})
        with pytest.raises(CheckpointError, match="agents"):
            MappoPolicy(other, 2, train=False, checkpoint=path)
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"NOTACKPT" + bytes(32))
        with pytest.raises(CheckpointError, match="magic"):
            MappoPolicy(tiny_cfg(), 2, train=False, checkpoint=junk)

    def test_baseline_with_a_checkpoint_is_a_config_error(self, tmp_path):
        path = tmp_path / "policy.bin"
        MappoPolicy(tiny_cfg(), 1, train=False).save(path)
        with pytest.raises(ConfigError, match="no checkpoint"):
            run_experiment(tiny_cfg(), "greedy_aoi", tmp_path / "out",
                           checkpoint_in=path)


def test_update_restores_blas_threads_when_it_raises(monkeypatch,
                                                     tmp_path):
    # the update runs with OpenBLAS at one thread and the worker on;
    # both are restored when it raises
    seen = []

    def diverged(*args):
        seen.append((blas.threads(), tsfen._worker is not None))
        raise RaceError("non-finite TD residuals; aborting update")
    monkeypatch.setattr(selection, "critic_update", diverged)
    old = blas.threads()
    with pytest.raises(RaceError, match="non-finite"):
        run_experiment(tiny_cfg(run={"episodes": 1}), "mappo", tmp_path,
                       train=True, log_every=0)
    assert blas.threads() == old
    assert tsfen._worker is None
    assert len(seen) == 1
    if old is not None and len(os.sched_getaffinity(0)) > 1:
        assert seen == [(1, True)]


class TestSharedCritic:
    def test_policy_holds_exactly_one_critic(self, tmp_path):
        cfg = tiny_cfg(selection={"n_subchannels": 3})
        policy = MappoPolicy(cfg, cfg.run.seed)
        assert len(policy.actors) == len(policy.actor_opts) == 3
        assert policy.critic.params["fc2.b"].shape == (1,)
        policy.save(tmp_path / "policy.bin")
        names, meta = load_params(tmp_path / "policy.bin")
        assert meta == {"n_agents": 3}
        assert {n.split(".", 1)[0] for n in names if ".actor." in n} \
            == {"agent0", "agent1", "agent2"}
        critic_names = {n for n in names if ".actor." not in n}
        assert critic_names == {f"critic.{k}"
                                for k in policy.critic.params}

    def test_each_agent_update_returns_finite_stats(self, monkeypatch,
                                                    tmp_path):
        # a training episode calls ``selection.ppo_update(batch, rng)``
        # once per agent, through the module attribute
        calls = []
        orig = selection.ppo_update

        def recorded(batch, rng):
            calls.append((batch, orig(batch, rng)))
            return calls[-1][1]
        monkeypatch.setattr(selection, "ppo_update", recorded)
        cfg = tiny_cfg(selection={"n_subchannels": 3},
                       run={"episodes": 1})
        run_experiment(cfg, "mappo", tmp_path, train=True, log_every=0)
        assert len(calls) == 3
        assert len({id(batch.actor) for batch, _ in calls}) == 3
        for _, stats in calls:
            assert all(np.isfinite(v) for v in stats.values())
