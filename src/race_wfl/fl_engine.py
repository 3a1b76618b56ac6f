"""Federated learning core on a synthetic non-IID classification task.

The task is multinomial logistic regression on Gaussian class clusters
with imbalanced class priors.  Device shards are produced by a Dirichlet
split of each class across devices, so small concentrations give strongly
non-IID shards.  Local training is exactly one full-batch gradient step
per round, which makes the relative model drift identically equal to
``lr * |grad| / |global|`` and keeps every drift-related check exact.

A round's local steps are one pass over all shards (``local_steps``):
the samples are regrouped once so that each shard is a contiguous row
block, each block's logits come from its own GEMM into one buffer, and
the softmax runs once over all rows.  A shard's rows therefore equal a
one-shard call (``local_gradient``) bit for bit, which a single GEMM over
all samples would not guarantee.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AggregationError, ConfigError, RaceError

log = logging.getLogger(__name__)

AI4MARS_CLASS_MIX = (0.3632, 0.4609, 0.1561, 0.0198)


@dataclass
class SyntheticTask:
    features: np.ndarray          # (n_samples, feature_dim)
    labels: np.ndarray            # (n_samples,) int class ids
    shards: list                  # per-device index arrays
    n_classes: int
    feature_dim: int
    class_means: np.ndarray       # (n_classes, feature_dim)

    @property
    def n_devices(self) -> int:
        return len(self.shards)

    @property
    def model_dim(self) -> int:
        return self.n_classes * self.feature_dim

    def shard_sizes(self) -> np.ndarray:
        return np.array([len(s) for s in self.shards])

    def device_data(self, n: int):
        idx = self.shards[n]
        return self.features[idx], self.labels[idx]

    def contiguous(self):
        """(features, labels, offsets): the samples regrouped so that
        shard n is rows ``offsets[n]:offsets[n + 1]``, in its own order."""
        order = np.concatenate(self.shards)
        offsets = np.concatenate([[0], np.cumsum(self.shard_sizes())])
        return self.features[order], self.labels[order], offsets


def generate_task(seed: int, n_devices: int, n_classes: int, model_dim: int,
                  concentration: float, n_samples: int = 1000,
                  class_weights=None, feature_scale: float = 3.0,
                  max_resamples: int = 100) -> SyntheticTask:
    """Deterministic synthetic task with Dirichlet device shards.

    Every class is represented globally and every device shard is
    non-empty; degenerate draws are retried up to ``max_resamples`` times
    before a ``ConfigError`` names the scenario fields that cannot be met.
    The arguments obey ``config.TaskSection``'s rules.
    """
    if class_weights is None:
        class_weights = (AI4MARS_CLASS_MIX if n_classes == 4
                         else np.full(n_classes, 1.0 / n_classes))
    w = np.asarray(class_weights, dtype=np.float64)
    w = w / w.sum()
    feature_dim = model_dim // n_classes
    rng = np.random.default_rng(seed)

    for _ in range(max_resamples):
        labels = rng.choice(n_classes, size=n_samples, p=w)
        if len(np.unique(labels)) == n_classes:
            break
    else:
        raise ConfigError(
            f"task.n_samples = {n_samples} did not draw all task.n_classes = "
            f"{n_classes} classes in {max_resamples} attempts")
    means = feature_scale * rng.standard_normal((n_classes, feature_dim)) \
        / np.sqrt(feature_dim)
    features = means[labels] + rng.standard_normal((n_samples, feature_dim))

    for _ in range(max_resamples):
        owner = np.empty(n_samples, dtype=np.int64)
        for c in range(n_classes):
            idx = np.flatnonzero(labels == c)
            split = rng.dirichlet(np.full(n_devices, concentration))
            owner[idx] = rng.choice(n_devices, size=len(idx), p=split)
        sizes = np.bincount(owner, minlength=n_devices)
        if sizes.min() > 0:
            break
    else:
        raise ConfigError(
            f"task.n_samples = {n_samples} left a shard of the "
            f"platoon.n_followers = {n_devices} devices empty in "
            f"{max_resamples} attempts (task.concentration = "
            f"{concentration})")
    shards = [np.flatnonzero(owner == n) for n in range(n_devices)]
    return SyntheticTask(features=features, labels=labels, shards=shards,
                         n_classes=n_classes, feature_dim=feature_dim,
                         class_means=means)


def _unflatten(weights: np.ndarray, n_classes: int,
               feature_dim: int) -> np.ndarray:
    return np.asarray(weights).reshape(n_classes, feature_dim)


def _residuals(weights, features, labels, offsets, n_classes):
    """Softmax class probabilities minus the one-hot labels of every row,
    and each row's probability of its own label.

    The logits of shard ``features[a:b]`` (consecutive ``offsets``) come
    from their own GEMM, so its rows are those of a one-shard call.
    """
    w = _unflatten(weights, n_classes, features.shape[1])
    probs = np.empty((len(labels), n_classes))
    for a, b in zip(offsets[:-1], offsets[1:]):
        np.matmul(features[a:b], w.T, out=probs[a:b])
    # each row's max as a running maximum over the class columns: one
    # pass per class instead of one reduction per row.  The order of a max
    # can change only the sign of a zero, which the shift and exp erase
    peak = probs[:, 0].copy()
    for c in range(1, n_classes):
        np.maximum(peak, probs[:, c], out=peak)
    probs -= peak[:, None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    at_label = np.arange(len(labels)) * n_classes + labels
    flat = probs.reshape(-1)
    p_label = flat[at_label]
    flat[at_label] = p_label - 1.0
    return probs, p_label


def _shard_gradient(resid, features, a, b):
    return (resid[a:b].T @ features[a:b] / (b - a)).ravel()


def _one_shard(weights, features, labels, n_classes):
    """(each row's probability of its label, the gradient) of one shard."""
    n = len(labels)
    if n == 0:
        raise RaceError("empty shard")
    resid, p_label = _residuals(weights, features, labels, (0, n), n_classes)
    return p_label, _shard_gradient(resid, features, 0, n)


def loss_and_gradient(weights: np.ndarray, features: np.ndarray,
                      labels: np.ndarray, n_classes: int):
    """Mean cross-entropy and its exact full-batch gradient (flat)."""
    p_label, grad = _one_shard(weights, features, labels, n_classes)
    return float(-np.log(p_label).mean()), grad


def local_gradient(weights: np.ndarray, features: np.ndarray,
                   labels: np.ndarray, n_classes: int) -> np.ndarray:
    return _one_shard(weights, features, labels, n_classes)[1]


def local_steps(weights: np.ndarray, features: np.ndarray,
                labels: np.ndarray, offsets, n_classes: int, lr: float,
                adversaries, factor: float):
    """One full-batch local step from ``weights`` on every shard of
    ``SyntheticTask.contiguous()``'s layout.

    Device n's step is ``local_update`` on its shard, scaled by
    ``apply_adversary`` if n is in ``adversaries``, and its drift is
    ``flmd`` of the result; each equals that per-device call bit for bit.
    Returns (locals (N, d), drift (N,), the sample-weighted mean of the
    shards' gradients).
    """
    gnorm = np.linalg.norm(weights)
    if gnorm == 0.0:
        raise RaceError("drift undefined for a zero global model")
    offsets = [int(o) for o in offsets]
    resid, _ = _residuals(weights, features, labels, offsets, n_classes)
    n_dev = len(offsets) - 1
    counts = np.diff(offsets).astype(np.float64)[:, None]
    # each shard's gradient GEMM is its own, as in ``_shard_gradient``;
    # everything after it is one elementwise pass over all devices
    grads = np.empty((n_dev, n_classes, features.shape[1]))
    for dev, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        np.matmul(resid[a:b].T, features[a:b], out=grads[dev])
    grads = grads.reshape(n_dev, -1)
    grads /= counts
    locals_ = weights - lr * grads
    adv = [dev for dev in range(n_dev) if dev in adversaries]
    if adv:
        locals_[adv] = apply_adversary(locals_[adv], weights, factor)
    # a 1-D norm per row: ``flmd``'s reduction, not a 2-D one
    step = locals_ - weights
    drift = np.sqrt([row.dot(row) for row in step]) / gnorm
    # rows added in device order onto zeros, as a running sum would: numpy
    # reduces axis 0 of a C-ordered (N, d > 1) array row after row
    pooled_grad = np.add.reduce(counts * grads, axis=0, initial=0.0)
    return locals_, drift, pooled_grad / offsets[-1]


def local_update(weights: np.ndarray, features: np.ndarray,
                 labels: np.ndarray, n_classes: int,
                 lr: float) -> np.ndarray:
    """One full-batch gradient step at learning rate ``lr`` >= 0."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    grad = local_gradient(weights, features, labels, n_classes)
    return weights - lr * grad


def fedavg(models) -> np.ndarray:
    """Sample-count-weighted average of (weights, count) pairs."""
    models = list(models)
    if not models:
        raise AggregationError("aggregation over an empty selection")
    total = sum(count for _, count in models)
    out = np.zeros_like(np.asarray(models[0][0], dtype=np.float64))
    for weights, count in models:
        out += (count / total) * np.asarray(weights, dtype=np.float64)
    return out


def flmd(local: np.ndarray, global_: np.ndarray) -> float:
    """Relative Euclidean drift of a local model from the global one."""
    gnorm = np.linalg.norm(global_)
    if gnorm == 0.0:
        raise RaceError("drift undefined for a zero global model")
    return float(np.linalg.norm(np.asarray(local) - np.asarray(global_))
                 / gnorm)


def adaptive_threshold(grad_norm_now: float, grad_norm_init: float,
                       lam_min: float, lam_max: float,
                       rate: float) -> float:
    """Drift threshold that relaxes as the global gradient shrinks."""
    if not 0 < lam_min <= lam_max:
        raise ValueError("need lam_max >= lam_min > 0")
    if grad_norm_init <= 0:
        raise ValueError("grad_norm_init must be > 0")
    ratio_sq = (grad_norm_now / grad_norm_init) ** 2
    return lam_min + (lam_max - lam_min) * np.exp(-rate * ratio_sq)


def apply_adversary(local: np.ndarray, global_: np.ndarray,
                    factor: float) -> np.ndarray:
    """Scale a device's update direction by ``factor`` (poisoning model)."""
    return global_ + factor * (np.asarray(local) - np.asarray(global_))


def accuracy(weights: np.ndarray, features: np.ndarray, labels: np.ndarray,
             n_classes: int) -> float:
    w = _unflatten(weights, n_classes, features.shape[1])
    pred = (features @ w.T).argmax(axis=1)
    return float((pred == labels).mean())


def smoothness_bound(features: np.ndarray) -> float:
    """Certified Lipschitz constant of the cross-entropy gradient."""
    n = len(features)
    gram = features.T @ features / n
    return 0.5 * float(np.linalg.eigvalsh(gram).max())
