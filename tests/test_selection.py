import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from race_wfl import selection
from race_wfl.config import MappoSection, config_from_dict
from race_wfl.errors import CheckpointError, RaceError
from race_wfl.selection import (
    ActorBatch, adaptive_mask, baseline_policy, binary_mask, build_state,
    check_actions, critic_update, gae, ppo_update, select_actions,
    _actor_step, _critic_values,
)
from race_wfl.simulation import MappoPolicy
from race_wfl.tsfen import TsfenNetwork, adam_init, load_params, save_params

SMALL_MAPPO = dict(d_model=8, n_heads=2, squeeze_dim=3, lstm_hidden=5,
                   fc_hidden=6)


def small_nets(n_devices, k_agents, seed=0, uniform=False):
    """``k_agents`` actors, then one critic, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    p = MappoSection(**SMALL_MAPPO)
    actors = [TsfenNetwork(p, n_devices, n_devices, rng)
              for _ in range(k_agents)]
    critic = TsfenNetwork(p, n_devices, 1, rng)
    if uniform:
        for actor in actors:
            for p in actor.params.values():
                p[:] = 0.0
    return actors, critic


def small_policy(n_devices, k_agents, seed=0, train=True, **mappo):
    """A ``MappoPolicy`` of small networks over two sub-periods."""
    cfg = config_from_dict({
        "platoon": {"n_followers": n_devices},
        "selection": {"n_subchannels": k_agents, "subperiods": 2},
        "mappo": {**SMALL_MAPPO, **mappo}})
    return MappoPolicy(cfg, seed, train=train)


class TestBuildState:
    def test_single_period_is_one_snapshot(self):
        drift, gains, aoi = np.array([0.1, 0.2]), np.array([[3.0, 4.0]]), \
            np.array([5.0, 6.0])
        out = build_state(drift, gains, aoi)
        assert out.shape == (1, 2, 3)
        assert out[0].tolist() == [[0.1, 3.0, 5.0], [0.2, 4.0, 6.0]]

    def test_constant_system_gives_identical_frames(self):
        out = build_state(np.ones(4), np.ones((5, 4)), np.ones(4))
        assert out.shape == (5, 4, 3)
        assert (out == 1.0).all()

    def test_frames_equal_per_sub_period_snapshots(self):
        rng = np.random.default_rng(0)
        drift, gains, aoi = (rng.uniform(size=3), rng.uniform(size=(4, 3)),
                             rng.uniform(size=3))
        out = build_state(drift, gains, aoi)
        for m in range(4):
            snap = np.stack([drift, gains[m], aoi], axis=1)
            assert out[m].tobytes() == snap.tobytes()


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

    @pytest.mark.parametrize("round_index", [1020, 1024, 1200])
    def test_growth_past_the_float_range_gives_zero_weight(self, caplog,
                                                           round_index):
        # (1 - 0.5)^-round overflows a float from about round 1024, and
        # its product with a drift of 20 from about round 1020
        with caplog.at_level(logging.WARNING):
            m = adaptive_mask(np.array([0.0, 0.1, 20.0]), 0.1, 1.0, 0.5,
                              round_index)
        assert m.tolist() == [1.0, 1.0, 0.0]
        assert "underflow for 1 device(s)" in caplog.text

    def test_eligible_devices_are_never_counted_as_clamped(self, caplog):
        # device 1's exponent is below the float range, but it is eligible
        with caplog.at_level(logging.WARNING):
            m = adaptive_mask(np.array([0.05, 0.2]), 0.3, 1.0, 0.1, 80)
        assert m.tolist() == [1.0, 1.0]
        assert "underflow" not in caplog.text

    def test_parameter_validation(self):
        with pytest.raises(RaceError):
            adaptive_mask(np.ones(2), 0.1, 1.0, 1.5, 0)
        with pytest.raises(RaceError):
            adaptive_mask(np.ones(2), 0.1, -1.0, 0.5, 0)


class TestSelectActions:
    def test_single_eligible_device_is_forced(self):
        actors, _ = small_nets(4, 1, uniform=True)
        state = np.zeros((2, 4, 3))
        mask = np.array([0.0, 0.0, 1.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            actions, eff, probs = select_actions(actors, state, mask, rng)
            assert actions[0] == 2
            assert probs[0] == 1.0

    def test_masked_devices_never_selected(self):
        actors, _ = small_nets(5, 2, seed=3)
        state = np.random.default_rng(1).uniform(size=(2, 5, 3))
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        rng = np.random.default_rng(2)
        for _ in range(2000):
            actions, _, _ = select_actions(actors, state, mask, rng)
            assert 1 not in actions and 4 not in actions

    def test_no_collisions_and_legal_assignment(self):
        actors, _ = small_nets(6, 3, seed=5)
        state = np.random.default_rng(3).uniform(size=(2, 6, 3))
        mask = np.ones(6)
        rng = np.random.default_rng(4)
        for _ in range(200):
            actions, _, _ = select_actions(actors, state, mask, rng)
            chosen = actions[actions >= 0]
            assert len(set(chosen)) == len(chosen)
            check_actions(actions, mask, 3)

    def test_matches_per_actor_policy_calls(self):
        # each actor's own ``policy`` on the raw state and ``rng.choice``
        # over its probabilities give the same actions, probabilities
        # and generator state
        actors, _ = small_nets(6, 3, seed=7)
        states = np.random.default_rng(5).uniform(size=(30, 2, 6, 3))
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        for i, state in enumerate(states):
            mask = np.ones(6)
            mask[i % 6] = 0.0
            mask[(i + 1) % 6] = 0.5
            actions, eff, probs = select_actions(actors, state, mask, rng)
            for k, actor in enumerate(actors):
                p, _ = actor.policy(state[None], eff[k][None])
                a = int(ref_rng.choice(6, p=p[0]))
                assert actions[k] == a
                assert probs[k] == p[0, a]
        assert rng.random() == ref_rng.random()

    def test_surplus_agents_idle(self):
        actors, _ = small_nets(4, 3, uniform=True)
        state = np.zeros((2, 4, 3))
        mask = np.array([1.0, 0.0, 1.0, 0.0])  # two eligible, three agents
        actions, eff, probs = select_actions(actors, state, mask,
                                             np.random.default_rng(0))
        assert (actions >= 0).sum() == 2
        assert actions[2] == -1
        # the idle agent sampled from an empty mask, with certainty
        assert (eff[2] == 0.0).all() and probs[2] == 1.0

    def test_matches_enumerated_conflict_distribution(self):
        # two uniform agents over three devices: agent 0 uniform, agent 1
        # uniform over the remaining two; per-device marginal is 2/3
        actors, _ = small_nets(3, 2, uniform=True)
        state = np.zeros((1, 3, 3))
        mask = np.ones(3)
        rng = np.random.default_rng(11)
        n_rounds = 20000
        counts = np.zeros(3)
        pair_counts = {}
        for _ in range(n_rounds):
            actions, _, _ = select_actions(actors, state, mask, rng)
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


def _random_rounds(actors, rng, n_devices, history, steps=12):
    """``steps`` rounds of uniform random states, every device eligible:
    (states, rewards, masks, actions, probs), the last three with one
    column per agent, as ``select_actions`` returns them."""
    rounds = []
    for _ in range(steps):
        state = rng.uniform(size=(history, n_devices, 3))
        actions, masks, probs = select_actions(actors, state,
                                               np.ones(n_devices), rng)
        rounds.append((state, float(rng.uniform(-2, 0)), masks, actions,
                       probs))
    return [np.array(column) for column in zip(*rounds)]


def _play(policy, rng, n_devices, steps=12, masks=None):
    """One training episode of ``policy`` on uniform random states and
    team rewards; round t uses ``masks[t]``, by default every device."""
    policy.begin_episode()
    for t in range(steps):
        state = rng.uniform(size=(2, n_devices, 3))
        policy.select(state, np.ones(n_devices) if masks is None
                      else masks[t])
        policy.observe(float(rng.uniform(-2, 0)))
    policy.end_episode()


def _record_calls(monkeypatch, name):
    """Every later call of ``selection.<name>`` as (args, result)."""
    calls = []
    orig = getattr(selection, name)

    def recorded(*args):
        calls.append((args, orig(*args)))
        return calls[-1][1]
    monkeypatch.setattr(selection, name, recorded)
    return calls


class TestPpoUpdate:
    def test_ratio_is_one_before_any_update(self):
        rng = np.random.default_rng(0)
        actors, _ = small_nets(4, 1, seed=9)
        states, _, masks, actions, probs = _random_rounds(actors, rng, 4, 2)
        recomputed, _ = actors[0].policy(states, masks[:, 0])
        ratio = (recomputed[np.arange(len(states)), actions[:, 0]]
                 / probs[:, 0])
        assert (ratio == 1.0).all()

    def test_every_agent_records_its_batch_one_probability(self):
        rng = np.random.default_rng(0)
        actors, _ = small_nets(4, 2, seed=9)
        states, _, masks, actions, probs = _random_rounds(actors, rng, 4, 2)
        rows = np.arange(len(states))
        for k, actor in enumerate(actors):
            # the recorded probability is the batch-1 forward's, exactly
            single = [actor.policy(states[i:i + 1], masks[i:i + 1, k])[0][0, a]
                      for i, a in enumerate(actions[:, k])]
            assert (np.array(single) == probs[:, k]).all()
            # a minibatch forward may differ from the batch-1 one in the
            # last bit, so the update's first ratio is one within 2 ulps
            batched, _ = actor.policy(states, masks[:, k])
            ratio = batched[rows, actions[:, k]] / probs[:, k]
            assert np.abs(ratio - 1.0).max() <= 2 * np.finfo(float).eps

    def test_zero_advantage_leaves_actor_unchanged(self):
        (actor,), _ = small_nets(4, 1, seed=1)
        before = {k: v.copy() for k, v in actor.params.items()}
        rng = np.random.default_rng(2)
        batch = ActorBatch(
            actor, adam_init(actor.params), MappoSection(),
            states=rng.uniform(size=(8, 2, 4, 3)), advantages=np.zeros(8),
            masks=np.ones((8, 4)),
            actions=rng.integers(0, 4, size=8), old_probs=np.full(8, 0.25))
        ppo_update(batch, rng)
        for k in before:
            assert (actor.params[k] == before[k]).all()

    def test_bandit_probability_rises_under_positive_advantage(self):
        # fixed positive advantage on device 0: its probability must rise
        # monotonically (the surrogate gradient has a fixed sign)
        (actor,), _ = small_nets(2, 1, seed=3)
        opt = adam_init(actor.params)
        state = np.full((1, 1, 2, 3), 0.5)
        mask = np.ones((1, 2))
        history = []
        for _ in range(10):
            p, _ = actor.policy(state, mask)
            history.append(p[0, 0])
            batch = ActorBatch(
                actor, opt, MappoSection(), np.repeat(state, 16, axis=0),
                np.ones(16), np.repeat(mask, 16, axis=0),
                np.zeros(16, dtype=np.int64), np.full(16, p[0, 0]))
            _actor_step(batch, np.arange(16))
        p, _ = actor.policy(state, mask)
        history.append(p[0, 0])
        assert all(b > a for a, b in zip(history, history[1:]))

    def test_update_consumes_the_rounds_and_reports_stats(self,
                                                          monkeypatch):
        calls = _record_calls(monkeypatch, "ppo_update")
        rng = np.random.default_rng(5)
        policy = small_policy(4, 3, seed=5, episodes_per_update=2)
        for _ in range(4):
            _play(policy, rng, 4)
        # each update reads only the 24 rounds recorded since the last one
        assert [len(args[0].states) for args, _ in calls] == [24] * 6
        assert len(policy.update_stats) == 2
        for stats in policy.update_stats:
            assert stats.keys() == {"critic_loss", "mean_advantage",
                                    "agents"}
            assert np.isfinite(stats["critic_loss"])
            assert np.isfinite(stats["mean_advantage"])
            assert len(stats["agents"]) == 3
            for entry in stats["agents"]:
                assert all(np.isfinite(v) for v in entry.values())

    def test_empty_input_errors(self):
        (actor,), critic = small_nets(3, 1)
        hyper, rng = MappoSection(), np.random.default_rng(0)
        no_states = np.zeros((0, 2, 3, 3))
        for episodes in ([], [(no_states, np.zeros(0))]):
            with pytest.raises(RaceError, match="empty"):
                critic_update(critic, adam_init(critic.params), hyper,
                              episodes, rng)
        empty = ActorBatch(actor, adam_init(actor.params), hyper, no_states,
                           np.zeros(0), np.zeros((0, 3)),
                           np.zeros(0, dtype=np.int64), np.zeros(0))
        with pytest.raises(RaceError, match="empty"):
            ppo_update(empty, rng)

    def test_a_window_without_a_recorded_round_skips_its_update(self):
        # with no selectable device a World never asks the policy to
        # select, so an update window can end with nothing recorded
        policy = small_policy(3, 1, episodes_per_update=2)
        stream = policy.rng.bit_generator.state
        for _ in range(2):
            policy.begin_episode()
            policy.end_episode()
        assert policy.update_stats == []
        assert policy.rng.bit_generator.state == stream  # nothing drawn
        # an empty episode in a window with a recorded one adds no rounds
        policy.begin_episode()
        policy.end_episode()
        _play(policy, np.random.default_rng(0), 3)
        assert len(policy.update_stats) == 1

    def test_critic_loss_decreases_on_a_fixed_problem(self):
        rng = np.random.default_rng(7)
        actors, critic = small_nets(3, 1, seed=7)
        opt = adam_init(critic.params)
        losses = []
        for _ in range(6):
            states, rewards, *_ = _random_rounds(actors, rng, 3, 2, steps=30)
            _, loss = critic_update(critic, opt, MappoSection(),
                                    [(states, rewards)],
                                    np.random.default_rng(8))
            losses.append(loss)
        assert losses[-1] < losses[0]


class TestSharedCritic:
    HYPER = dict(batch_size=5, ppo_epochs=3)

    @pytest.mark.parametrize("k_agents", [1, 3])
    def test_critic_steps_do_not_depend_on_the_agent_count(
            self, monkeypatch, k_agents):
        critic_steps = _record_calls(monkeypatch, "_critic_step")
        actor_steps = _record_calls(monkeypatch, "_actor_step")
        rng = np.random.default_rng(2)
        policy = small_policy(4, k_agents, seed=2, episodes_per_update=2,
                              **self.HYPER)
        for _ in range(2):
            _play(policy, rng, 4)
        per_network = self.HYPER["ppo_epochs"] * math.ceil(24 / 5)
        assert len(critic_steps) == per_network
        assert {id(args[0]) for args, _ in critic_steps} \
            == {id(policy.critic)}
        # every agent acted in every round, so each takes the same steps
        assert len(actor_steps) == k_agents * per_network
        for actor in policy.actors:
            assert sum(args[0].actor is actor
                       for args, _ in actor_steps) == per_network

    def test_every_actor_step_reads_the_shared_advantages(self,
                                                          monkeypatch):
        critic_calls = _record_calls(monkeypatch, "critic_update")
        actor_steps = _record_calls(monkeypatch, "_actor_step")
        rng = np.random.default_rng(3)
        policy = small_policy(5, 3, seed=3, episodes_per_update=1,
                              **self.HYPER)
        _play(policy, rng, 5, steps=17)
        [(_, (shared, _))] = critic_calls
        # each epoch visits every round once, in the agent's own order
        expected = np.sort(np.tile(shared, self.HYPER["ppo_epochs"]))
        for actor in policy.actors:
            batches = [args for args, _ in actor_steps
                       if args[0].actor is actor]
            assert all(batch.advantages is shared for batch, *_ in batches)
            seen = np.concatenate([batch.advantages[rows]
                                   for batch, rows, _ in batches])
            assert np.sort(seen).tobytes() == expected.tobytes()


def test_idle_agent_records_certain_idling_and_steps_only_when_it_acted(
        monkeypatch):
    batches = _record_calls(monkeypatch, "ppo_update")
    actor_steps = _record_calls(monkeypatch, "_actor_step")
    policy = small_policy(4, 3, seed=1, batch_size=4, ppo_epochs=2,
                          episodes_per_update=1)
    # odd rounds leave two eligible devices for three agents
    odd = np.arange(10) % 2 == 1
    masks = [np.array([1.0, 0.0, 1.0, 0.0]) if o else np.ones(4)
             for o in odd]
    _play(policy, np.random.default_rng(4), 4, steps=10, masks=masks)
    (first, _), (second, _), (idle, _) = batches
    assert (first[0].actions >= 0).all() and (second[0].actions >= 0).all()
    idle = idle[0]
    assert (idle.actions[odd] == -1).all()
    assert (idle.old_probs[odd] == 1.0).all()
    assert (idle.masks[odd] == 0.0).all()
    assert (idle.actions[~odd] >= 0).all()
    # each epoch steps once on every round the agent acted in, on no other
    rows = np.concatenate([args[1] for args, _ in actor_steps
                           if args[0] is idle])
    assert sorted(rows.tolist()) == sorted(np.flatnonzero(~odd).tolist() * 2)


def test_agent_that_never_acted_reports_zero_steps_and_no_ratio(
        monkeypatch):
    actor_steps = _record_calls(monkeypatch, "_actor_step")
    policy = small_policy(4, 3, seed=6, batch_size=4, ppo_epochs=2,
                          episodes_per_update=1)
    # two eligible devices for three agents in every round
    masks = [np.array([1.0, 0.0, 1.0, 0.0])] * 6
    _play(policy, np.random.default_rng(6), 4, steps=6, masks=masks)
    [update] = policy.update_stats
    stats = update["agents"]
    for actor, entry in zip(policy.actors, stats):
        assert all(np.isfinite(v) for v in entry.values())
        assert entry["steps"] == sum(args[0].actor is actor
                                     for args, _ in actor_steps)
    *acting, idle = stats
    assert all(entry["steps"] == 4 and "mean_ratio" in entry
               for entry in acting)
    assert idle["steps"] == 0 and "mean_ratio" not in idle


class TestBaselines:
    def test_greedy_tie_break_takes_lowest_indices(self):
        state = np.full((1, 5, 3), 2.0)
        actions, _ = baseline_policy("greedy_aoi", state, np.ones(5), 3,
                                     np.random.default_rng(0))
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
            state = np.zeros((1, n, 3))
            state[0, :, 2] = aoi
            actions, _ = baseline_policy("greedy_aoi", state, mask, k, rng)
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

    def test_round_robin_cursor_waits_for_an_idle_agent(self):
        # two agents, one admitted device: the second agent idles and the
        # cursor stays where it was
        mask = np.array([0.0, 0.0, 1.0, 0.0])
        actions, cursor = baseline_policy("round_robin", np.zeros((1, 4, 3)),
                                          mask, 2, np.random.default_rng(0),
                                          3)
        assert actions.tolist() == [2, -1] and cursor == 3

    def test_unknown_kind_errors(self):
        with pytest.raises(RaceError):
            baseline_policy("smartest", np.zeros((1, 2, 3)), np.ones(2), 1,
                            np.random.default_rng(0))


CLAIM_N = 5
CLAIM_ACTORS, _ = small_nets(CLAIM_N, CLAIM_N, seed=12)


@given(kind=st.sampled_from(["mappo", "greedy_aoi", "random",
                             "round_robin"]),
       mask=st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=CLAIM_N,
                     max_size=CLAIM_N),
       k=st.integers(0, CLAIM_N), cursor=st.integers(0, CLAIM_N - 1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_policy_claims_for_the_first_agents(kind, mask, k, cursor,
                                                  seed):
    # one claim loop serves every policy: the first min(K, admitted)
    # agents each take a distinct admitted device, the rest idle
    rng = np.random.default_rng(seed)
    state = rng.uniform(0.0, 5.0, size=(2, CLAIM_N, 3))
    mask = np.array(mask)
    if kind == "mappo":
        actions, _, _ = select_actions(CLAIM_ACTORS[:k], state, mask, rng)
    else:
        actions, _ = baseline_policy(kind, state, mask, k, rng, cursor)
    actions = check_actions(actions, mask, k)
    acting = min(k, int((mask > 0.0).sum()))
    assert (actions[:acting] >= 0).all() and (actions[acting:] == -1).all()


def test_agent_checkpoint_round_trip(tmp_path):
    policy = small_policy(4, 2, seed=4)
    path = tmp_path / "agents.bin"
    policy.save(path)
    saved, _ = load_params(path)
    assert {n.split(".")[0] + "." + n.split(".")[1] for n in saved
            if n.startswith("agent")} == {"agent0.actor", "agent1.actor"}
    assert any(n.startswith("critic.") for n in saved)
    fresh = small_policy(4, 2, seed=99, train=False)
    live = fresh._params()
    fresh.load(path)
    # loaded into the arrays the networks already hold
    loaded = fresh._params()
    assert loaded.keys() == saved.keys() == policy._params().keys()
    for name, p in loaded.items():
        assert p is live[name]
        assert p.tobytes() == saved[name].tobytes() \
            == policy._params()[name].tobytes()


def save_per_agent_critic_checkpoint(path, policy):
    """A checkpoint in the layout with one critic per agent:
    ``agent{k}.actor.*`` and ``agent{k}.critic.*``."""
    params = {f"agent{k}.{role}.{name}": p
              for k, actor in enumerate(policy.actors)
              for role, net in (("actor", actor), ("critic", policy.critic))
              for name, p in net.params.items()}
    save_params(path, params, meta={"n_agents": len(policy.actors)})


# rewrites of a 4-device, 2-agent policy's checkpoint that such a policy
# rejects, each caught by a different check
REJECTED_CHECKPOINTS = {
    "n_agents": (
        lambda path: save_params(path, load_params(path)[0],
                                 meta={"n_agents": 3}),
        "checkpoint holds 3 agents, the scenario has 2"),
    "names": (
        lambda path: save_per_agent_critic_checkpoint(
            path, small_policy(4, 2, seed=4)),
        "checkpoint parameter names differ"),
    "shape": (
        lambda path: small_policy(5, 2, seed=4).save(path),
        r"checkpoint agent0\.actor\.lstm_fwd\.W has shape \(20, 20\), the "
        r"network expects \(17, 20\)"),
    "truncated": (
        lambda path: path.write_bytes(path.read_bytes()[:-8]),
        "checkpoint payload of .* bytes, its header describes"),
    "magic": (
        lambda path: path.write_bytes(b"X" + path.read_bytes()[1:]),
        "bad checkpoint magic"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CHECKPOINTS))
def test_rejected_checkpoint_leaves_every_parameter_unchanged(tmp_path,
                                                              case):
    rewrite, message = REJECTED_CHECKPOINTS[case]
    path = tmp_path / "agents.bin"
    small_policy(4, 2, seed=4).save(path)
    rewrite(path)
    policy = small_policy(4, 2, seed=9, train=False)
    before = {name: p.tobytes() for name, p in policy._params().items()}
    with pytest.raises(CheckpointError, match=message):
        policy.load(path)
    # nothing half-loaded, in any actor or the critic
    assert {name: p.tobytes()
            for name, p in policy._params().items()} == before


def test_critic_values_in_chunks_equal_one_whole_batch_forward():
    rng = np.random.default_rng(3)
    critic = TsfenNetwork(MappoSection(), 20, 1, rng)
    shape = (40, 5, 20)  # one full minibatch-sized chunk and a partial one
    states = np.stack([rng.uniform(0.0, 0.5, shape),
                       10.0 ** rng.uniform(8.0, 16.0, shape),
                       rng.uniform(0.0, 5.0, shape)], axis=-1)
    whole, _ = critic.value(states)
    chunked = _critic_values(critic, states, MappoSection().batch_size)
    assert chunked.tobytes() == whole.tobytes()
