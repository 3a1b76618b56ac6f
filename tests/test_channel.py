import numpy as np
import pytest

from race_wfl.channel import dbm_to_watts, realize_gains
from race_wfl.config import ChannelSection
from race_wfl.errors import RaceError


def params(**kw):
    return ChannelSection(**kw)


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)


def replay(distances, p, seed):
    """(estimated, error) gains at ``distances`` from the four standard
    normals per device that ``realize_gains`` draws with ``seed``."""
    d = np.asarray(distances)
    draws = np.random.default_rng(seed).standard_normal(d.shape + (4,))
    scale = (p.frequency_factor * d ** (-p.path_loss_exponent)
             / dbm_to_watts(p.noise_variance_dbm))
    est = 0.5 * (draws[..., 0] ** 2 + draws[..., 1] ** 2) * scale
    err = 0.5 * (draws[..., 2] ** 2 + draws[..., 3] ** 2) * scale
    return est, err


D = np.array([30.0, 50.0, 50.0, 80.0])


def test_perfect_csi_limit():
    p = params(estimation_error_variance=0.0)
    est, _ = replay(D, p, 0)
    assert (realize_gains(D, p, np.random.default_rng(0)) == est).all()


def test_pure_error_limit():
    p = params(estimation_error_variance=1.0)
    _, err = replay(D, p, 0)
    assert (realize_gains(D, p, np.random.default_rng(0)) == err).all()


def test_blend_invariant_matches_definition():
    p = params(estimation_error_variance=0.3)
    d = np.full(200, 80.0)
    est, err = replay(d, p, 5)
    got = realize_gains(d, p, np.random.default_rng(5))
    assert got == pytest.approx(np.sqrt(0.7) * est + np.sqrt(0.3) * err,
                                rel=1e-15)
    s = np.sqrt(0.7) + np.sqrt(0.3)
    assert (np.minimum(est, err) * s <= got * (1 + 1e-12)).all()
    assert (got <= np.maximum(est, err) * s * (1 + 1e-12)).all()


def test_one_call_over_rows_equals_a_call_per_row():
    # the round loop draws all its sub-periods at once: row m takes the
    # draws that the m-th of M row calls would have taken
    p = params()
    d = np.random.default_rng(3).uniform(10.0, 90.0, size=(5, 7))
    whole = realize_gains(d, p, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    rows = np.array([realize_gains(row, p, rng) for row in d])
    assert whole.shape == d.shape
    assert whole.tobytes() == rows.tobytes()


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


def test_nonpositive_distance_rejected():
    p = params()
    with pytest.raises(RaceError):
        realize_gains(np.array([10.0, -1.0]), p, np.random.default_rng(0))
    with pytest.raises(RaceError):
        realize_gains(np.array([[10.0], [0.0]]), p, np.random.default_rng(0))

