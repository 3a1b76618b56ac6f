import dataclasses

import numpy as np
import pytest

from conftest import per_device_round
from race_wfl.errors import AggregationError, RaceError
from race_wfl.fl_engine import (
    accuracy, adaptive_threshold, apply_adversary, fedavg, flmd,
    generate_task, local_gradient, local_steps, local_update,
    loss_and_gradient, smoothness_bound,
)
from race_wfl.selection import binary_mask


def small_task(seed=0, **kw):
    base = dict(seed=seed, n_devices=5, n_classes=4, model_dim=40,
                concentration=0.5, n_samples=400)
    base.update(kw)
    return generate_task(**base)


class TestGenerateTask:
    def test_same_seed_bit_identical(self):
        a = small_task(seed=7)
        b = small_task(seed=7)
        assert (a.features == b.features).all()
        assert (a.labels == b.labels).all()
        for sa, sb in zip(a.shards, b.shards):
            assert (sa == sb).all()

    def test_shards_partition_the_samples(self):
        t = small_task()
        joined = np.sort(np.concatenate(t.shards))
        assert (joined == np.arange(len(t.labels))).all()
        assert t.shard_sizes().sum() == len(t.labels)
        assert (t.shard_sizes() > 0).all()

    def test_every_class_present_globally(self):
        t = small_task()
        assert len(np.unique(t.labels)) == t.n_classes

    def test_huge_concentration_spreads_classes_uniformly(self):
        # every device holds close to 1/N of each class
        t = generate_task(seed=3, n_devices=4, n_classes=4, model_dim=8,
                          concentration=1e6, n_samples=60000,
                          class_weights=(0.25, 0.25, 0.25, 0.25))
        for c in range(4):
            total = (t.labels == c).sum()
            for shard in t.shards:
                share = (t.labels[shard] == c).sum() / total
                assert abs(share - 0.25) < 0.01

    def test_low_concentration_is_non_iid(self):
        # most devices over-represent some class by 2x across 20 seeds
        skewed = 0
        devices = 0
        for seed in range(20):
            t = generate_task(seed=seed, n_devices=20, n_classes=4,
                              model_dim=8, concentration=0.5,
                              n_samples=2000)
            global_share = np.bincount(t.labels, minlength=4) / len(t.labels)
            for shard in t.shards:
                local = np.bincount(t.labels[shard], minlength=4) / len(shard)
                ratio = (local / global_share).max()
                devices += 1
                skewed += ratio > 2.0
        assert skewed >= devices / 2

    def test_unsatisfiable_sharding_errors(self):
        # three samples can never cover ten devices
        with pytest.raises(RaceError):
            generate_task(seed=0, n_devices=10, n_classes=2, model_dim=4,
                          concentration=0.5, n_samples=3)


class TestGradients:
    def test_matches_finite_differences(self):
        t = small_task()
        rng = np.random.default_rng(1)
        w = rng.standard_normal(t.model_dim) * 0.1
        x, y = t.device_data(0)
        _, grad = loss_and_gradient(w, x, y, t.n_classes)
        h = 1e-5
        worst = 0.0
        for i in rng.choice(t.model_dim, size=20, replace=False):
            wp = w.copy(); wp[i] += h
            wm = w.copy(); wm[i] -= h
            lp, _ = loss_and_gradient(wp, x, y, t.n_classes)
            lm, _ = loss_and_gradient(wm, x, y, t.n_classes)
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]),
                                                       1e-8))
        assert worst <= 1e-4

    def test_vanishes_at_the_shard_minimizer(self):
        # overlapping clusters keep the optimum finite; long plain descent
        # is the oracle
        t = small_task(feature_scale=1.0)
        x, y = t.device_data(1)
        w = np.zeros(t.model_dim)
        lip = smoothness_bound(x)
        for _ in range(6000):
            w = local_update(w, x, y, t.n_classes, lr=1.0 / lip)
        assert np.linalg.norm(local_gradient(w, x, y, t.n_classes)) <= 1e-6

    def test_duplicating_samples_leaves_gradient_unchanged(self):
        t = small_task()
        x, y = t.device_data(2)
        w = np.random.default_rng(2).standard_normal(t.model_dim) * 0.05
        g1 = local_gradient(w, x, y, t.n_classes)
        g2 = local_gradient(w, np.vstack([x, x]), np.concatenate([y, y]),
                            t.n_classes)
        assert g2 == pytest.approx(g1, rel=1e-12, abs=1e-15)

    def test_empty_shard_errors(self):
        with pytest.raises(RaceError):
            local_gradient(np.zeros(8), np.zeros((0, 2)),
                           np.zeros(0, dtype=int), 4)


class TestLocalSteps:
    """All shards in one pass against the per-device loop, bit for bit."""

    @staticmethod
    def tasks(seed):
        four = small_task(seed=seed)
        # a shard of one sample: device 0's first sample on its own
        first = four.shards[0]
        single = dataclasses.replace(
            four, shards=[first[:1], first[1:]] + four.shards[1:])
        three = small_task(seed=seed, n_classes=3, model_dim=90,
                           n_devices=8, n_samples=600)
        return four, single, three

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_device_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for task in self.tasks(seed):
            features, labels, offsets = task.contiguous()
            adversaries = {1, task.n_devices - 1}
            lr, factor = 10 ** rng.uniform(-3, 0), rng.uniform(2, 400)
            w = rng.standard_normal(task.model_dim) * rng.uniform(0.01, 3)
            # the initial model, then models that rounds have moved
            for _ in range(3):
                got = local_steps(w, features, labels, offsets,
                                  task.n_classes, lr, adversaries, factor)
                ref = per_device_round(task, w, lr, adversaries, factor)
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b)
                assert (float(np.linalg.norm(got[2]))
                        == float(np.linalg.norm(ref[2])))
                w = fedavg((local, len(shard))
                           for local, shard in zip(got[0], task.shards))

    def test_contiguous_layout_holds_each_shard_in_order(self):
        t = small_task()
        features, labels, offsets = t.contiguous()
        assert offsets[0] == 0 and offsets[-1] == len(t.labels)
        for n in range(t.n_devices):
            x, y = t.device_data(n)
            a, b = offsets[n], offsets[n + 1]
            assert np.array_equal(features[a:b], x)
            assert np.array_equal(labels[a:b], y)

    def test_zero_global_model_errors(self):
        t = small_task()
        with pytest.raises(RaceError, match="zero global model"):
            local_steps(np.zeros(t.model_dim), *t.contiguous(),
                        t.n_classes, 0.1, set(), 1.0)


class TestLocalUpdate:
    def test_zero_learning_rate_is_identity(self):
        t = small_task()
        x, y = t.device_data(0)
        w = np.random.default_rng(0).standard_normal(t.model_dim)
        assert (local_update(w, x, y, t.n_classes, lr=0.0) == w).all()

    def test_zero_gradient_is_identity(self):
        # zero features give exactly zero gradient
        x = np.zeros((10, 3))
        y = np.zeros(10, dtype=int)
        w = np.ones(12)
        assert (local_update(w, x, y, 4, lr=0.5) == w).all()


class TestFedavg:
    def test_idempotent_on_identical_models(self):
        w = np.random.default_rng(0).standard_normal(6)
        out = fedavg([(w, 3), (w, 5)])
        assert out == pytest.approx(w, rel=1e-15)

    def test_weighted_mean(self):
        wa, wb = np.zeros(4), np.ones(4)
        out = fedavg([(wa, 1), (wb, 3)])
        assert out == pytest.approx(np.full(4, 0.75), rel=1e-15)

    def test_equals_centralized_step(self):
        # averaging one-step locals equals one global step on the pooled
        # sample-weighted objective
        t = small_task()
        rng = np.random.default_rng(5)
        w = rng.standard_normal(t.model_dim) * 0.1
        lr = 0.05
        locals_ = []
        grads = []
        for n in range(t.n_devices):
            x, y = t.device_data(n)
            locals_.append((local_update(w, x, y, t.n_classes, lr),
                            len(y)))
            grads.append(local_gradient(w, x, y, t.n_classes) * len(y))
        agg = fedavg(locals_)
        pooled_grad = np.sum(grads, axis=0) / t.shard_sizes().sum()
        assert agg == pytest.approx(w - lr * pooled_grad, rel=1e-12,
                                    abs=1e-14)

    def test_empty_selection_errors(self):
        with pytest.raises(AggregationError):
            fedavg([])


class TestFlmd:
    def test_identical_models_have_zero_drift(self):
        w = np.ones(5)
        assert flmd(w, w) == 0.0

    def test_doubled_model_has_unit_drift(self):
        w = np.random.default_rng(1).standard_normal(7)
        assert flmd(2 * w, w) == pytest.approx(1.0, rel=1e-15)

    def test_zero_global_model_errors(self):
        with pytest.raises(RaceError):
            flmd(np.ones(3), np.zeros(3))

    def test_identity_with_gradient_norm(self):
        # drift after one local step is exactly lr * |grad| / |global|
        t = small_task()
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.standard_normal(t.model_dim) * rng.uniform(0.01, 1)
            n = rng.integers(t.n_devices)
            x, y = t.device_data(n)
            lr = 10 ** rng.uniform(-5, -1)
            local = local_update(w, x, y, t.n_classes, lr)
            theta = flmd(local, w)
            expected = lr * np.linalg.norm(
                local_gradient(w, x, y, t.n_classes)) / np.linalg.norm(w)
            assert abs(theta - expected) <= 1e-12 * max(theta, 1e-12)

    def test_upper_bound_from_smoothness(self):
        # drift <= lr (L |w - w*| + |grad f_n(w*)|) / |w| with a certified
        # Lipschitz constant and a long-descent minimizer
        t = small_task(feature_scale=1.0)
        all_x, all_y = t.features, t.labels
        lip = smoothness_bound(all_x)
        w_star = np.zeros(t.model_dim)
        for _ in range(8000):
            w_star = local_update(w_star, all_x, all_y, t.n_classes,
                                  lr=1.0 / lip)
        rng = np.random.default_rng(3)
        lr = 1e-2
        for _ in range(20):
            w = w_star + rng.standard_normal(t.model_dim) * 0.3
            for n in range(t.n_devices):
                x, y = t.device_data(n)
                theta = flmd(local_update(w, x, y, t.n_classes, lr), w)
                dev_lip = smoothness_bound(x)
                bound = lr * (dev_lip * np.linalg.norm(w - w_star)
                              + np.linalg.norm(local_gradient(
                                  w_star, x, y, t.n_classes))) \
                    / np.linalg.norm(w)
                assert theta <= bound * (1 + 1e-9)


def eligible(drift, threshold):
    return np.flatnonzero(binary_mask(drift, threshold))


class TestEligibility:
    """The drift-threshold eligibility that the round loop's binary mask
    applies, as a set of device indices."""

    def test_all_zero_drift_everyone_eligible(self):
        idx = eligible(np.zeros(8), 0.1)
        assert (idx == np.arange(8)).all()

    def test_threshold_below_min_gives_empty_set(self):
        assert len(eligible(np.array([0.5, 0.9]), 0.1)) == 0

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(4)
        drift = rng.uniform(0, 1, size=30)
        lam = 0.4
        expected = [n for n in range(30) if drift[n] <= lam]
        assert list(eligible(drift, lam)) == expected

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        drift = rng.uniform(0, 1, size=25)
        small = set(eligible(drift, 0.3))
        large = set(eligible(drift, 0.6))
        assert small <= large

    def test_adaptive_keeps_at_least_the_fixed_set(self):
        rng = np.random.default_rng(8)
        drift = rng.uniform(0, 0.8, size=40)
        lam_min, lam_max = 0.2, 0.7
        for gn in (1.0, 0.5, 0.1, 0.0):
            lam_t = adaptive_threshold(gn, 1.0, lam_min, lam_max, 2.0)
            assert lam_t >= lam_min
            fixed = set(eligible(drift, lam_min))
            adaptive = set(eligible(drift, lam_t))
            assert fixed <= adaptive


class TestAdaptiveThreshold:
    def test_sharp_limit_at_start(self):
        got = adaptive_threshold(1.0, 1.0, 0.1, 0.5, 1e6)
        assert got == pytest.approx(0.1, abs=1e-12)

    def test_relaxed_limit_at_convergence(self):
        assert adaptive_threshold(0.0, 1.0, 0.1, 0.5, 3.0) \
            == pytest.approx(0.5)

    def test_monotone_in_gradient_ratio(self):
        prev = np.inf
        for gn in np.linspace(0, 2, 20):
            lam = adaptive_threshold(gn, 1.0, 0.1, 0.5, 1.5)
            assert lam <= prev
            prev = lam

    def test_input_validation(self):
        with pytest.raises(ValueError):
            adaptive_threshold(1.0, 0.0, 0.1, 0.5, 1.0)
        with pytest.raises(ValueError):
            adaptive_threshold(1.0, 1.0, 0.5, 0.1, 1.0)


def test_adversary_scales_the_update():
    g = np.arange(4.0)
    local = g + np.array([1.0, 0, -1, 2])
    poisoned = apply_adversary(local, g, 10.0)
    assert poisoned == pytest.approx(g + 10 * (local - g))


def test_accuracy_counts_argmax_hits():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    w = np.eye(2).ravel()  # class c scores feature c
    assert accuracy(w, x, y, 2) == 1.0
