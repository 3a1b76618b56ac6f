"""Imperfect-CSI wireless links: composite channel gains.

Small-scale fading is drawn as a complex standard normal coefficient, so
its squared magnitude is unit-mean exponential.  The estimated component
and an independent error component of the same family are blended by the
estimation-error variance, and the result is divided by the linear noise
power so that the stored gain is an SNR per watt: the achievable rate is
``B * log2(1 + rho * P * gain)`` with no further noise term.
"""

from typing import TYPE_CHECKING

import numpy as np

from .errors import RaceError

if TYPE_CHECKING:
    from .config import ChannelSection


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to linear watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def realize_gains(distances: np.ndarray, p: "ChannelSection",
                  rng: np.random.Generator) -> np.ndarray:
    """Composite gains for devices at ``distances``, of any shape.

    Each device takes four standard normals, drawn as one
    ``distances.shape + (4,)`` block in C order: the real and imaginary
    parts of its estimated and of its error fading coefficient.  Both
    components carry the same path loss and are normalized by the linear
    noise power; the blend weights are sqrt(1-P) and sqrt(P) for
    estimation-error variance P.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if np.any(distances <= 0):
        raise RaceError("all distances must be > 0")
    draws = rng.standard_normal(distances.shape + (4,))
    est_sq = 0.5 * (draws[..., 0] ** 2 + draws[..., 1] ** 2)
    err_sq = 0.5 * (draws[..., 2] ** 2 + draws[..., 3] ** 2)
    scale = (p.frequency_factor * distances ** (-p.path_loss_exponent)
             / dbm_to_watts(p.noise_variance_dbm))
    pe = p.estimation_error_variance
    return np.sqrt(1.0 - pe) * est_sq * scale + np.sqrt(pe) * err_sq * scale
