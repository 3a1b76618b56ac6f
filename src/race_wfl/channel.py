"""Imperfect-CSI wireless links: composite channel gains.

Small-scale fading is drawn as a complex standard normal coefficient, so
its squared magnitude is unit-mean exponential.  The estimated component
and an independent error component of the same family are blended by the
estimation-error variance, and the result is divided by the linear noise
power so that the stored gain is an SNR per watt: the achievable rate is
``B * log2(1 + rho * P * gain)`` with no further noise term.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import RaceError

if TYPE_CHECKING:
    from .config import ChannelSection


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to linear watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ChannelRealization:
    """One noise-normalized channel draw for a device at a given distance."""

    estimated_gain: float
    error_gain: float
    composite_gain: float
    distance: float


def _fading_sq(rng: np.random.Generator) -> float:
    """|g|^2 for g complex standard normal (unit-mean exponential)."""
    re, im = rng.standard_normal(2)
    return 0.5 * (re * re + im * im)


def realize_channel(distance: float, p: "ChannelSection",
                    rng: np.random.Generator) -> ChannelRealization:
    """Draw estimated and error gains at ``distance`` and blend them.

    Both components carry the same path loss and are normalized by the
    linear noise power; the blend weights are sqrt(1-P) and sqrt(P) for
    estimation-error variance P.
    """
    if distance <= 0:
        raise RaceError(f"distance must be > 0, got {distance!r}")
    scale = (p.frequency_factor * distance ** (-p.path_loss_exponent)
             / dbm_to_watts(p.noise_variance_dbm))
    est = _fading_sq(rng) * scale
    err = _fading_sq(rng) * scale
    pe = p.estimation_error_variance
    composite = np.sqrt(1.0 - pe) * est + np.sqrt(pe) * err
    return ChannelRealization(
        estimated_gain=float(est),
        error_gain=float(err),
        composite_gain=float(composite),
        distance=float(distance),
    )


def realize_gains(distances: np.ndarray, p: "ChannelSection",
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized composite gains for many devices at once.

    Draw-for-draw equivalent to calling ``realize_channel`` per device in
    index order with the same generator.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if np.any(distances <= 0):
        raise RaceError("all distances must be > 0")
    n = distances.shape[0]
    draws = rng.standard_normal((n, 4))
    est_sq = 0.5 * (draws[:, 0] ** 2 + draws[:, 1] ** 2)
    err_sq = 0.5 * (draws[:, 2] ** 2 + draws[:, 3] ** 2)
    scale = (p.frequency_factor * distances ** (-p.path_loss_exponent)
             / dbm_to_watts(p.noise_variance_dbm))
    pe = p.estimation_error_variance
    return np.sqrt(1.0 - pe) * est_sq * scale + np.sqrt(pe) * err_sq * scale

