"""Federated learning core on a synthetic non-IID classification task.

The task is multinomial logistic regression on Gaussian class clusters
with imbalanced class priors.  Device shards are produced by a Dirichlet
split of each class across devices, so small concentrations give strongly
non-IID shards.  Local training is exactly one full-batch gradient step
per round, which makes the relative model drift identically equal to
``lr * |grad| / |global|`` and keeps every drift-related check exact.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AggregationError, RaceError

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


def generate_task(seed: int, n_devices: int, n_classes: int, model_dim: int,
                  concentration: float, n_samples: int = 1000,
                  class_weights=None, feature_scale: float = 3.0,
                  max_resamples: int = 100) -> SyntheticTask:
    """Deterministic synthetic task with Dirichlet device shards.

    Every class is represented globally and every device shard is
    non-empty; degenerate draws are retried up to ``max_resamples`` times
    before erroring.
    """
    if concentration <= 0:
        raise ValueError("concentration must be > 0")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if model_dim % n_classes != 0:
        raise ValueError("model_dim must be a multiple of n_classes")
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
        raise RaceError("could not draw every class globally")
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
        raise RaceError(
            f"empty device shard after {max_resamples} resampling attempts"
        )
    shards = [np.flatnonzero(owner == n) for n in range(n_devices)]
    return SyntheticTask(features=features, labels=labels, shards=shards,
                         n_classes=n_classes, feature_dim=feature_dim,
                         class_means=means)


def _unflatten(weights: np.ndarray, n_classes: int,
               feature_dim: int) -> np.ndarray:
    return np.asarray(weights).reshape(n_classes, feature_dim)


def loss_and_gradient(weights: np.ndarray, features: np.ndarray,
                      labels: np.ndarray, n_classes: int):
    """Mean cross-entropy and its exact full-batch gradient (flat)."""
    if len(labels) == 0:
        raise RaceError("empty shard")
    w = _unflatten(weights, n_classes, features.shape[1])
    logits = features @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = len(labels)
    nll = -np.log(probs[np.arange(n), labels]).mean()
    probs[np.arange(n), labels] -= 1.0
    grad = probs.T @ features / n
    return float(nll), grad.ravel()


def local_gradient(weights: np.ndarray, features: np.ndarray,
                   labels: np.ndarray, n_classes: int) -> np.ndarray:
    return loss_and_gradient(weights, features, labels, n_classes)[1]


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


def eligible_set(drift: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of devices whose drift does not exceed the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    return np.flatnonzero(np.asarray(drift) <= threshold)


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
