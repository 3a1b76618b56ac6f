import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from race_wfl import selection
from race_wfl.config import MappoSection
from race_wfl.errors import CheckpointError, RaceError
from race_wfl.selection import (
    adaptive_mask, baseline_policy, binary_mask, build_state,
    check_actions, critic_update, gae, greedy_aoi_actions, load_agents,
    make_bundle, make_critic, ppo_update, save_agents, select_actions,
    _actor_step, _critic_values,
)
from race_wfl.tsfen import TsfenConfig, load_params, save_params

SMALL_NET = dict(d_model=8, n_heads=2, squeeze_dim=3, lstm_hidden=5,
                 fc_hidden=6, feature_log=(False, False, False),
                 feature_center=(0.0, 0.0, 0.0),
                 feature_scale=(1.0, 1.0, 1.0))


def small_agents(n_devices, history, k_agents, seed=0, uniform=False,
                 hyper=MappoSection()):
    """``k_agents`` bundles that share one critic (``agents[0].critic``).

    The actors are drawn before the critic, so one agent gets the actor
    and critic weights an actor-then-critic draw gives at ``seed``.
    """
    rng = np.random.default_rng(seed)
    cfg = TsfenConfig(n_devices=n_devices, history=history, **SMALL_NET)
    agents = [make_bundle(cfg, hyper, None, rng) for _ in range(k_agents)]
    critic = make_critic(cfg, hyper, rng)
    for bundle in agents:
        bundle.critic = critic
    if uniform:
        for b in agents:
            for p in b.actor.params.values():
                p[:] = 0.0
    return agents


class TestBuildState:
    def test_single_period_keeps_only_current(self):
        snap = np.arange(6, dtype=float).reshape(2, 3)
        out = build_state([snap * 0.1, snap], 1)
        assert (out[0] == snap).all()

    def test_constant_system_gives_identical_frames(self):
        snap = np.ones((4, 3))
        out = build_state([snap] * 7, 5)
        assert out.shape == (5, 4, 3)
        assert (out == 1.0).all()

    def test_short_history_pads_with_earliest(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        out = build_state([a, b], 4)
        assert (out[0] == 0).all() and (out[1] == 0).all()
        assert (out[2] == 0).all() and (out[3] == 1).all()

    def test_frames_equal_recorded_snapshots(self):
        rng = np.random.default_rng(0)
        snaps = [rng.uniform(size=(3, 3)) for _ in range(6)]
        out = build_state(snaps, 4)
        for i, snap in enumerate(snaps[-4:]):
            assert (out[i] == snap).all()


class TestMasks:
    def test_binary_mask_is_indicator(self):
        drift = np.array([0.1, 0.5, 0.3])
        assert (binary_mask(drift, 0.3) == [1.0, 0.0, 1.0]).all()

    def test_eligible_devices_get_weight_one(self):
        drift = np.array([0.05, 0.5])
        m = adaptive_mask(drift, 0.1, 1.0, 0.5, 3)
        assert m[0] == 1.0
        assert 0.0 < m[1] < 1.0

    def test_direct_substitution(self):
        m = adaptive_mask(np.array([1.0]), 0.5, 1.0, 0.5, 0)
        assert m[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_soft_weight_decays_over_rounds(self):
        drift = np.array([0.4])
        prev = 1.0
        for t in range(6):
            m = adaptive_mask(drift, 0.1, 1.0, 0.5, t)[0]
            assert m < prev
            prev = m

    def test_underflow_clamps_to_zero_and_logs(self, caplog):
        with caplog.at_level(logging.WARNING):
            m = adaptive_mask(np.array([5.0]), 0.1, 10.0, 0.5, 500)
        assert m[0] == 0.0
        assert "clamping" in caplog.text

    def test_parameter_validation(self):
        with pytest.raises(RaceError):
            adaptive_mask(np.ones(2), 0.1, 1.0, 1.5, 0)
        with pytest.raises(RaceError):
            adaptive_mask(np.ones(2), 0.1, -1.0, 0.5, 0)


class TestSelectActions:
    def test_single_eligible_device_is_forced(self):
        agents = small_agents(4, 2, 1, uniform=True)
        state = np.zeros((2, 4, 3))
        mask = np.array([0.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            actions, eff, probs = select_actions(agents, state, mask, rng)
            assert actions[0] == 2
            assert probs[0] == 1.0

    def test_masked_devices_never_selected(self):
        agents = small_agents(5, 2, 2, seed=3)
        state = np.random.default_rng(1).uniform(size=(2, 5, 3))
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        rng = np.random.default_rng(2)
        for _ in range(2000):
            actions, _, _ = select_actions(agents, state, mask, rng)
            assert 1 not in actions and 4 not in actions

    def test_no_collisions_and_legal_assignment(self):
        agents = small_agents(6, 2, 3, seed=5)
        state = np.random.default_rng(3).uniform(size=(2, 6, 3))
        mask = np.ones(6)
        rng = np.random.default_rng(4)
        for _ in range(200):
            actions, _, _ = select_actions(agents, state, mask, rng)
            chosen = actions[actions >= 0]
            assert len(set(chosen)) == len(chosen)
            check_actions(actions, mask, 3)

    def test_surplus_agents_idle(self):
        agents = small_agents(4, 2, 3, uniform=True)
        state = np.zeros((2, 4, 3))
        mask = np.array([1.0, 0.0, 1.0, 0.0])  # two eligible, three agents
        actions, _, _ = select_actions(agents, state, mask,
                                       np.random.default_rng(0))
        assert (actions >= 0).sum() == 2
        assert actions[2] == -1

    def test_matches_enumerated_conflict_distribution(self):
        # two uniform agents over three devices: agent 0 uniform, agent 1
        # uniform over the remaining two; per-device marginal is 2/3
        agents = small_agents(3, 1, 2, uniform=True)
        state = np.zeros((1, 3, 3))
        mask = np.ones(3)
        rng = np.random.default_rng(11)
        n_rounds = 20000
        counts = np.zeros(3)
        pair_counts = {}
        for _ in range(n_rounds):
            actions, _, _ = select_actions(agents, state, mask, rng)
            for a in actions:
                counts[a] += 1
            pair_counts[tuple(actions)] = pair_counts.get(tuple(actions),
                                                          0) + 1
        marginals = counts / n_rounds
        se = np.sqrt((2 / 3) * (1 / 3) / n_rounds)
        assert np.abs(marginals - 2 / 3).max() <= 4 * se
        # each ordered pair (i, j), i != j, has probability 1/6
        se_pair = np.sqrt((1 / 6) * (5 / 6) / n_rounds)
        for pair, cnt in pair_counts.items():
            assert abs(cnt / n_rounds - 1 / 6) <= 4 * se_pair


class TestTdAndGae:
    def test_gae_reduces_to_residuals_at_zero_decay(self):
        eps = np.array([0.3, -0.5, 1.0])
        assert (gae(eps, 0.98, 0.0) == eps).all()

    def test_single_step(self):
        assert gae(np.array([0.7]), 0.9, 0.95)[0] == 0.7

    def test_matches_forward_discounted_sum(self):
        rng = np.random.default_rng(1)
        eps = rng.standard_normal(40)
        gamma, lam = 0.98, 0.95
        adv = gae(eps, gamma, lam)
        for t in range(40):
            fwd = sum((gamma * lam) ** j * eps[t + j]
                      for j in range(40 - t))
            assert abs(adv[t] - fwd) <= 1e-12 * max(1.0, abs(fwd))

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30))
    def test_terminal_advantage_is_last_residual(self, eps):
        adv = gae(np.array(eps), 0.9, 0.8)
        assert adv[-1] == eps[-1]


def _trajectories(agents):
    return [agents[0].critic.trajectory] + [b.trajectory for b in agents]


def _fill_episode(agents, rng, n_devices, history, steps=12):
    """One episode recorded the way ``MappoPolicy`` records it: the state
    and the team reward once, each agent's mask, action and probability."""
    for trajectory in _trajectories(agents):
        trajectory.start_episode()
    for _ in range(steps):
        state = rng.uniform(size=(history, n_devices, 3))
        actions, eff_masks, probs = select_actions(
            agents, state, np.ones(n_devices), rng)
        agents[0].critic.trajectory.record(state, float(rng.uniform(-2, 0)))
        for k, bundle in enumerate(agents):
            prob = probs[k] if actions[k] >= 0 else 1.0
            bundle.trajectory.record(eff_masks[k], int(actions[k]), prob)
    for trajectory in _trajectories(agents):
        trajectory.end_episode()


def _update(agents, rng):
    critic_update(agents[0].critic, rng)
    return [ppo_update(bundle, rng) for bundle in agents]


class TestPpoUpdate:
    def test_ratio_is_one_before_any_update(self):
        rng = np.random.default_rng(0)
        agents = small_agents(4, 2, 1, seed=9)
        _fill_episode(agents, rng, 4, 2)
        states = agents[0].critic.trajectory.episodes[0]["states"]
        ep = agents[0].trajectory.episodes[0]
        probs, _ = agents[0].actor.policy(states, ep["masks"])
        recomputed = probs[np.arange(len(ep["actions"])), ep["actions"]]
        ratio = recomputed / ep["old_probs"]
        assert (ratio == 1.0).all()

    def test_every_agent_records_its_batch_one_probability(self):
        rng = np.random.default_rng(0)
        agents = small_agents(4, 2, 2, seed=9)
        _fill_episode(agents, rng, 4, 2)
        states = agents[0].critic.trajectory.episodes[0]["states"]
        for bundle in agents:
            ep = bundle.trajectory.episodes[0]
            rows = np.arange(len(ep["actions"]))
            # the recorded probability is the batch-1 forward's, exactly
            single = [bundle.actor.policy(states[i:i + 1],
                                          ep["masks"][i:i + 1])[0][0, a]
                      for i, a in enumerate(ep["actions"])]
            assert (np.array(single) == ep["old_probs"]).all()
            # a minibatch forward may differ from the batch-1 one in the
            # last bit, so the update's first ratio is one within 2 ulps
            probs, _ = bundle.actor.policy(states, ep["masks"])
            ratio = probs[rows, ep["actions"]] / ep["old_probs"]
            assert np.abs(ratio - 1.0).max() <= 2 * np.finfo(float).eps

    def test_zero_advantage_leaves_actor_unchanged(self):
        bundle = small_agents(4, 2, 1, seed=1)[0]
        before = {k: v.copy() for k, v in bundle.actor.params.items()}
        rng = np.random.default_rng(2)
        states = rng.uniform(size=(8, 2, 4, 3))
        masks = np.ones((8, 4))
        actions = rng.integers(0, 4, size=8)
        _actor_step(bundle, states, masks, actions, np.full(8, 0.25),
                    np.zeros(8))
        for k in before:
            assert (bundle.actor.params[k] == before[k]).all()

    def test_bandit_probability_rises_under_positive_advantage(self):
        # fixed positive advantage on device 0: its probability must rise
        # monotonically (the surrogate gradient has a fixed sign)
        bundle = small_agents(2, 1, 1, seed=3)[0]
        state = np.full((1, 1, 2, 3), 0.5)
        mask = np.ones((1, 2))
        history = []
        for _ in range(10):
            p, _ = bundle.actor.policy(state, mask)
            history.append(p[0, 0])
            _actor_step(
                bundle,
                np.repeat(state, 16, axis=0), np.repeat(mask, 16, axis=0),
                np.zeros(16, dtype=np.int64), np.full(16, p[0, 0]),
                np.ones(16))
        p, _ = bundle.actor.policy(state, mask)
        history.append(p[0, 0])
        assert all(b > a for a, b in zip(history, history[1:]))

    def test_update_consumes_buffer_and_reports_stats(self):
        rng = np.random.default_rng(5)
        agents = small_agents(4, 2, 3, seed=5)
        for _ in range(2):
            _fill_episode(agents, rng, 4, 2)
        stats = _update(agents, np.random.default_rng(6))
        assert all(t.episodes == [] for t in _trajectories(agents))
        assert len(stats) == 3
        for entry in stats:
            assert all(np.isfinite(v) for v in entry.values())
            assert entry["critic_loss"] == stats[0]["critic_loss"]

    def test_empty_buffer_errors(self):
        rng = np.random.default_rng(0)
        agents = small_agents(3, 2, 1)
        with pytest.raises(RaceError, match="empty"):
            critic_update(agents[0].critic, rng)
        _fill_episode(agents, rng, 3, 2)
        _update(agents, rng)
        with pytest.raises(RaceError, match="empty"):
            ppo_update(agents[0], rng)

    def test_critic_loss_decreases_on_a_fixed_problem(self):
        rng = np.random.default_rng(7)
        agents = small_agents(3, 2, 1, seed=7)
        losses = []
        for _ in range(6):
            _fill_episode(agents, rng, 3, 2, steps=30)
            losses.append(critic_update(agents[0].critic,
                                        np.random.default_rng(8)))
        assert losses[-1] < losses[0]


class TestSharedCritic:
    HYPER = MappoSection(batch_size=5, ppo_epochs=3)

    def _count_steps(self, monkeypatch, name):
        calls = []
        orig = getattr(selection, name)

        def counted(owner, *args, **kwargs):
            calls.append((owner, args))
            return orig(owner, *args, **kwargs)
        monkeypatch.setattr(selection, name, counted)
        return calls

    @pytest.mark.parametrize("k_agents", [1, 3])
    def test_critic_steps_do_not_depend_on_the_agent_count(
            self, monkeypatch, k_agents):
        critic_steps = self._count_steps(monkeypatch, "_critic_step")
        actor_steps = self._count_steps(monkeypatch, "_actor_step")
        rng = np.random.default_rng(2)
        agents = small_agents(4, 2, k_agents, seed=2, hyper=self.HYPER)
        for _ in range(2):
            _fill_episode(agents, rng, 4, 2, steps=12)
        _update(agents, rng)
        per_network = self.HYPER.ppo_epochs * math.ceil(24 / 5)
        assert len(critic_steps) == per_network
        assert {id(c) for c, _ in critic_steps} == {id(agents[0].critic)}
        # every agent acted in every round, so each takes the same steps
        assert len(actor_steps) == k_agents * per_network

    def test_every_actor_step_reads_the_shared_advantages(self,
                                                          monkeypatch):
        actor_steps = self._count_steps(monkeypatch, "_actor_step")
        rng = np.random.default_rng(3)
        agents = small_agents(5, 2, 3, seed=3, hyper=self.HYPER)
        _fill_episode(agents, rng, 5, 2, steps=17)
        _update(agents, rng)
        shared = agents[0].critic.batch["advantages"]
        # each epoch visits every round once, in the agent's own order
        expected = np.sort(np.tile(shared, self.HYPER.ppo_epochs))
        for bundle in agents:
            seen = np.concatenate([args[4] for b, args in actor_steps
                                   if b is bundle])
            assert np.sort(seen).tobytes() == expected.tobytes()


class TestBaselines:
    def test_greedy_tie_break_takes_lowest_indices(self):
        actions = greedy_aoi_actions(np.full(5, 2.0), np.ones(5), 3)
        assert (actions == [0, 1, 2]).all()

    def test_greedy_picks_largest_age(self):
        state = np.zeros((1, 3, 3))
        state[0, :, 2] = [3.0, 9.0, 1.0]
        actions, _ = baseline_policy("greedy_aoi", state, np.ones(3), 1,
                                     np.random.default_rng(0))
        assert actions[0] == 1

    def test_greedy_matches_brute_force_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, k = 12, 4
            aoi = rng.uniform(0, 10, size=n)
            mask = (rng.random(n) > 0.3).astype(float)
            if mask.sum() == 0:
                continue
            actions = greedy_aoi_actions(aoi, mask, k)
            eligible = [i for i in range(n) if mask[i] > 0]
            expected = sorted(eligible, key=lambda i: (-aoi[i], i))[:k]
            got = [a for a in actions if a >= 0]
            assert got == expected

    def test_round_robin_cycles_through_eligible(self):
        state = np.zeros((1, 4, 3))
        mask = np.ones(4)
        cursor = 0
        seen = []
        for _ in range(4):
            actions, cursor = baseline_policy("round_robin", state, mask, 1,
                                              np.random.default_rng(0),
                                              cursor)
            seen.append(actions[0])
        assert seen == [0, 1, 2, 3]

    def test_random_respects_mask_and_avoids_collisions(self):
        state = np.zeros((1, 5, 3))
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        rng = np.random.default_rng(2)
        for _ in range(500):
            actions, _ = baseline_policy("random", state, mask, 2, rng)
            chosen = actions[actions >= 0]
            assert len(set(chosen)) == len(chosen)
            assert not {1, 4} & set(chosen)

    def test_unknown_kind_errors(self):
        with pytest.raises(RaceError):
            baseline_policy("smartest", np.zeros((1, 2, 3)), np.ones(2), 1,
                            np.random.default_rng(0))


def test_agent_checkpoint_round_trip(tmp_path):
    agents = small_agents(4, 2, 2, seed=4)
    path = tmp_path / "agents.bin"
    save_agents(path, agents, agents[0].critic)
    names, _ = load_params(path)
    assert {n.split(".")[0] + "." + n.split(".")[1] for n in names
            if n.startswith("agent")} == {"agent0.actor", "agent1.actor"}
    assert any(n.startswith("critic.") for n in names)
    fresh = small_agents(4, 2, 2, seed=99)
    load_agents(path, fresh, fresh[0].critic)
    for a, b in zip(agents, fresh):
        for k in a.actor.params:
            assert (a.actor.params[k] == b.actor.params[k]).all()
    for k, p in agents[0].critic.net.params.items():
        assert (fresh[0].critic.net.params[k] == p).all()


def test_agent_checkpoint_of_another_shape_is_rejected(tmp_path):
    path = tmp_path / "agents.bin"
    agents = small_agents(4, 2, 2, seed=4)
    save_agents(path, agents, agents[0].critic)
    other = small_agents(5, 2, 2, seed=9)
    before = {k: p.copy() for k, p in other[0].actor.params.items()}
    with pytest.raises(CheckpointError, match="shape"):
        load_agents(path, other, other[0].critic)
    for k, p in other[0].actor.params.items():
        assert (p == before[k]).all()  # nothing half-loaded


def save_per_agent_critic_checkpoint(path, agents):
    """A checkpoint in the layout with one critic per agent:
    ``agent{k}.actor.*`` and ``agent{k}.critic.*``."""
    params = {f"agent{k}.{role}.{name}": p
              for k, bundle in enumerate(agents)
              for role, net in (("actor", bundle.actor),
                                ("critic", bundle.critic.net))
              for name, p in net.params.items()}
    save_params(path, params, meta={"n_agents": len(agents)})


def test_per_agent_critic_checkpoint_is_rejected(tmp_path):
    path = tmp_path / "old.bin"
    save_per_agent_critic_checkpoint(path, small_agents(4, 2, 2, seed=4))
    fresh = small_agents(4, 2, 2, seed=9)
    before = {k: p.copy() for k, p in fresh[0].critic.net.params.items()}
    with pytest.raises(CheckpointError, match="names differ"):
        load_agents(path, fresh, fresh[0].critic)
    for k, p in fresh[0].critic.net.params.items():
        assert (p == before[k]).all()


def test_critic_values_in_chunks_equal_one_whole_batch_forward():
    rng = np.random.default_rng(3)
    critic = make_critic(TsfenConfig(n_devices=20), MappoSection(), rng)
    shape = (40, 5, 20)  # one full minibatch-sized chunk and a partial one
    states = np.stack([rng.uniform(0.0, 0.5, shape),
                       10.0 ** rng.uniform(8.0, 16.0, shape),
                       rng.uniform(0.0, 5.0, shape)], axis=-1)
    whole, _ = critic.net.value(states)
    assert _critic_values(critic, states).tobytes() == whole.tobytes()
