import numpy as np
import pytest

from race_wfl.channel import (
    ChannelRealization, dbm_to_watts, realize_channel, realize_gains,
)
from race_wfl.config import ChannelSection
from race_wfl.errors import RaceError


def params(**kw):
    return ChannelSection(**kw)


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)


def test_perfect_csi_limit():
    p = params(estimation_error_variance=0.0)
    r = realize_channel(50.0, p, np.random.default_rng(0))
    assert r.composite_gain == r.estimated_gain


def test_pure_error_limit():
    p = params(estimation_error_variance=1.0)
    r = realize_channel(50.0, p, np.random.default_rng(0))
    assert r.composite_gain == r.error_gain


def test_blend_invariant_matches_definition():
    p = params(estimation_error_variance=0.3)
    rng = np.random.default_rng(5)
    for _ in range(200):
        r = realize_channel(80.0, p, rng)
        expected = (np.sqrt(0.7) * r.estimated_gain
                    + np.sqrt(0.3) * r.error_gain)
        assert r.composite_gain == pytest.approx(expected, rel=1e-15)
        lo = min(r.estimated_gain, r.error_gain)
        hi = max(r.estimated_gain, r.error_gain)
        s = np.sqrt(0.7) + np.sqrt(0.3)
        assert lo * s <= r.composite_gain * (1 + 1e-12)
        assert r.composite_gain <= hi * s * (1 + 1e-12)


def test_fading_power_is_unit_mean():
    # Monte Carlo moment check against the unit-mean exponential
    p = params(estimation_error_variance=0.0)
    rng = np.random.default_rng(1234)
    d = 50.0
    scale = (p.frequency_factor * d ** (-p.path_loss_exponent)
             / dbm_to_watts(p.noise_variance_dbm))
    gains = realize_gains(np.full(10 ** 5, d), p, rng)
    fading = gains / scale
    assert 0.99 <= fading.mean() <= 1.01


def test_distance_monotonicity_follows_path_loss():
    p = params(estimation_error_variance=0.0)
    rng = np.random.default_rng(99)
    n = 200_000
    g1 = realize_gains(np.full(n, 40.0), p, rng)
    g2 = realize_gains(np.full(n, 80.0), p, rng)
    m1, m2 = g1.mean(), g2.mean()
    ratio = m2 / m1
    se = ratio * np.sqrt((g1.std() / (m1 * np.sqrt(n))) ** 2
                         + (g2.std() / (m2 * np.sqrt(n))) ** 2)
    assert abs(ratio - 2.0 ** (-p.path_loss_exponent)) <= 3 * se


def test_vectorized_matches_scalar_draws():
    p = params()
    d = np.array([30.0, 50.0, 70.0])
    vec = realize_gains(d, p, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    scal = [realize_channel(di, p, rng).composite_gain for di in d]
    assert vec == pytest.approx(scal, rel=1e-15)


def test_nonpositive_distance_rejected():
    p = params()
    with pytest.raises(RaceError):
        realize_channel(0.0, p, np.random.default_rng(0))
    with pytest.raises(RaceError):
        realize_gains(np.array([10.0, -1.0]), p, np.random.default_rng(0))


def test_realization_is_plain_record():
    r = ChannelRealization(1.0, 2.0, 1.5, 50.0)
    assert r.distance == 50.0
