"""Shared instance factories for the test suite."""

import numpy as np

from race_wfl.cost_model import DeviceProfile
from race_wfl.fl_engine import apply_adversary, flmd, local_gradient


def random_device_profile(rng: np.random.Generator) -> DeviceProfile:
    """Wide-range random device; may be feasible or not for a given gain."""
    return DeviceProfile(
        sample_count=int(rng.integers(10, 300)),
        cycles_per_sample=10 ** rng.uniform(5, 7.5),
        cpu_hz=10 ** rng.uniform(8, 9.5),
        power_coeff=10 ** rng.uniform(-29, -27),
        max_power_w=10 ** rng.uniform(-2, 0.5),
        max_energy_j=10 ** rng.uniform(-3, -0.5),
        model_bits=10 ** rng.uniform(5, 7),
    )


def random_instance(rng: np.random.Generator):
    """(profile, gain, bandwidth) triple over wide ranges."""
    return (random_device_profile(rng),
            10 ** rng.uniform(1, 8),
            10 ** rng.uniform(5, 7))


def plain_gradient(weights, features, labels, n_classes):
    """The softmax cross-entropy gradient written out on one shard."""
    logits = features @ weights.reshape(n_classes, -1).T
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = len(labels)
    probs[np.arange(n), labels] -= 1.0
    return (probs.T @ features / n).ravel()


def per_device_round(task, w, lr, adversaries, factor):
    """A round's local steps one device at a time: (locals, drift, the
    sample-weighted mean gradient)."""
    locals_ = np.empty((task.n_devices, len(w)))
    drift = np.empty(task.n_devices)
    pooled_grad = np.zeros(len(w))
    total = 0
    for dev in range(task.n_devices):
        x, y = task.device_data(dev)
        grad = local_gradient(w, x, y, task.n_classes)
        assert np.array_equal(grad, plain_gradient(w, x, y, task.n_classes))
        local = w - lr * grad
        if dev in adversaries:
            local = apply_adversary(local, w, factor)
        locals_[dev] = local
        drift[dev] = flmd(local, w)
        pooled_grad += len(y) * grad
        total += len(y)
    return locals_, drift, pooled_grad / total
