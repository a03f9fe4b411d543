import math

import numpy as np
import pytest

from champagne.geometry import BallDomain, dist_to_boundary
from champagne.kernels import (
    ball_capacity,
    capped_green,
    check_bounds,
    small_radius_threshold,
    unit_ball_volume,
)


def capped_green_scalar(domain, alpha, y):
    """Scalar oracle for capped_green: min(delta(y)^(a-1), 1)."""
    return min(dist_to_boundary(domain, np.asarray(y, dtype=float)) ** (alpha - 1.0), 1.0)


@pytest.fixture(scope="module")
def disk():
    return BallDomain(np.zeros(2), 1.0)


def test_check_bounds_rejects_nan_negative_and_crossed_bounds():
    for lower, upper in ((math.nan, 1.0), (0.5, math.nan), (-1.0, 1.0), (2.0, 1.0),
                         ([0.0, 1.0, 0.5], [1.0, 2.0, 0.25])):
        with pytest.raises(ValueError):
            check_bounds(lower, upper)
    check_bounds(0.0, 0.0)
    check_bounds(1.0, math.inf)
    check_bounds(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    check_bounds(np.empty(0), np.empty(0))


def test_capped_green_envelope():
    disk = BallDomain(np.zeros(2), 1.0)
    g = capped_green(1.5, dist_to_boundary(disk, [[0.9, 0.0], [0.99, 0.0]]))
    assert g[0] == pytest.approx(0.1**0.5)
    # monotone in delta
    assert g[1] < g[0]
    # capped at 1 where delta^(a-1) > 1
    assert capped_green(1.5, [4.0]).tolist() == [1.0]


def test_array_bounds_equal_the_scalar_envelopes_exactly(disk):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.7, 0.7, (500, 2))
    assert capped_green(1.3, dist_to_boundary(disk, pts)).tolist() == [
        capped_green_scalar(disk, 1.3, y) for y in pts]
    radii = rng.uniform(1e-6, 0.1, 500)
    assert ball_capacity(1.3, radii, 2).tolist() == [float(r) ** (2 - 1.3) for r in radii]
    with pytest.raises(ValueError, match="capped_green requires y inside"):
        capped_green(1.3, dist_to_boundary(disk, [[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="> 0"):
        ball_capacity(1.3, [0.1, 0.0], 2)


def test_capacity_hand_value():
    assert ball_capacity(1.5, [0.25, 1.0], 2).tolist() == [0.5, 1.0]


def test_capacity_power_law_scaling():
    rng = np.random.default_rng(1)
    d, alpha = 2, 1.5
    r = rng.uniform(1e-6, 1e-1, 1000)
    s = rng.uniform(1e-3, 1e3, 1000)
    factor = s ** (d - alpha)
    a, b = ball_capacity(alpha, r * s, d), ball_capacity(alpha, r, d)
    assert np.all(np.abs(a - factor * b) <= 1e-12 * np.maximum(a, factor * b))


def test_small_radius_threshold_matches_eta_crossover():
    # r <= (16^d sigma_d)^(-1/alpha)  iff  16r <= eta(r), where
    # eta(r) = sigma_d^(-1/d) r^(1 - alpha/d)
    d, alpha = 2, 1.5
    r_star = small_radius_threshold(alpha, d)
    assert r_star == pytest.approx((256 * math.pi) ** (-2.0 / 3.0), rel=1e-12)

    def eta(r):
        return unit_ball_volume(d) ** (-1.0 / d) * r ** (1.0 - alpha / d)

    for r in (r_star * 0.999, r_star * 0.5):
        assert 16 * r <= eta(r) * (1 + 1e-12)
    for r in (r_star * 1.001, r_star * 2):
        assert 16 * r > eta(r)


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
