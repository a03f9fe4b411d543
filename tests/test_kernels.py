import math

import numpy as np
import pytest

from champagne.geometry import BallDomain, dist_to_boundary
from champagne.kernels import (
    Constants,
    capacity_ball_bounds,
    capped_green_bounds,
    check_bounds,
    small_radius_threshold,
    unit_ball_volume,
)


def capped_green_envelope(domain, consts, y):
    """Scalar oracle for capped_green_bounds: g(y) ~ delta(y)^(a-1) within
    the factor C_G * 2**(d+1), both bounds capped at 1."""
    c = consts.C_G * 2.0 ** (domain.dimension + 1)
    base = dist_to_boundary(domain, np.asarray(y, dtype=float)) ** (consts.alpha - 1.0)
    return min(base / c, 1.0), min(base * c, 1.0)


def capacity_ball_envelope(consts, r, d):
    """Scalar oracle for capacity_ball_bounds: [r^(d-a)/C, C r^(d-a)]."""
    f = r ** (d - consts.alpha)
    return f / consts.C, f * consts.C


@pytest.fixture(scope="module")
def disk():
    return BallDomain(np.zeros(2), 1.0)


@pytest.fixture(scope="module")
def c15():
    return Constants(alpha=1.5)


def test_constants_validation():
    with pytest.raises(ValueError):
        Constants(alpha=1.0)
    with pytest.raises(ValueError):
        Constants(alpha=2.0)
    with pytest.raises(ValueError):
        Constants(alpha=1.5, C_G=0.5)


def test_check_bounds_rejects_nan_negative_and_crossed_bounds():
    for lower, upper in ((math.nan, 1.0), (0.5, math.nan), (-1.0, 1.0), (2.0, 1.0),
                         ([0.0, 1.0, 0.5], [1.0, 2.0, 0.25])):
        with pytest.raises(ValueError):
            check_bounds(lower, upper)
    check_bounds(0.0, 0.0)
    check_bounds(1.0, math.inf)
    check_bounds(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    check_bounds(np.empty(0), np.empty(0))


def test_capped_green_envelope(disk, c15):
    lower, upper = capped_green_bounds(disk, c15, [[0.9, 0.0], [0.99, 0.0]])
    base = 0.1**0.5
    c = 1.0 * 2.0**3
    assert lower[0] == pytest.approx(base / c)
    assert upper[0] == pytest.approx(min(base * c, 1.0))
    # monotone in delta
    assert lower[1] < lower[0]


def test_array_bounds_equal_the_scalar_envelopes_exactly(disk):
    rng = np.random.default_rng(3)
    consts = Constants(alpha=1.3, C=2.0, C_G=1.5)
    pts = rng.uniform(-0.7, 0.7, (500, 2))
    lower, upper = capped_green_bounds(disk, consts, pts)
    scalar = [capped_green_envelope(disk, consts, y) for y in pts]
    assert list(zip(lower.tolist(), upper.tolist())) == scalar
    radii = rng.uniform(1e-6, 0.1, 500)
    lower, upper = capacity_ball_bounds(consts, radii, 2)
    scalar = [capacity_ball_envelope(consts, float(r), 2) for r in radii]
    assert list(zip(lower.tolist(), upper.tolist())) == scalar
    with pytest.raises(ValueError, match="capped_green_bounds requires y inside"):
        capped_green_bounds(disk, consts, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="> 0"):
        capacity_ball_bounds(consts, [0.1, 0.0], 2)


def test_capacity_hand_value(c15):
    lower, upper = capacity_ball_bounds(c15, [0.25], 2)
    assert lower[0] == pytest.approx(0.5) and upper[0] == pytest.approx(0.5)
    lower, upper = capacity_ball_bounds(Constants(alpha=1.5, C=2.0), [1.0], 2)
    assert (lower[0], upper[0]) == (0.5, 2.0)


def test_capacity_power_law_scaling(c15):
    rng = np.random.default_rng(1)
    d = 2
    r = rng.uniform(1e-6, 1e-1, 1000)
    s = rng.uniform(1e-3, 1e3, 1000)
    factor = s ** (d - c15.alpha)
    for a, b in zip(capacity_ball_bounds(c15, r * s, d), capacity_ball_bounds(c15, r, d)):
        assert np.all(np.abs(a - factor * b) <= 1e-12 * np.maximum(a, factor * b))


def test_small_radius_threshold_matches_eta_crossover(c15):
    # r <= (16^d C sigma_d)^(-1/alpha)  iff  16r <= eta_lower(r), where
    # eta_lower(r) = (C sigma_d)^(-1/d) r^(1 - alpha/d)
    d = 2
    r_star = small_radius_threshold(c15, d)
    assert r_star == pytest.approx((256 * math.pi) ** (-2.0 / 3.0), rel=1e-12)

    def eta_lower(r):
        return (c15.C * unit_ball_volume(d)) ** (-1.0 / d) * r ** (1.0 - c15.alpha / d)

    for r in (r_star * 0.999, r_star * 0.5):
        assert 16 * r <= eta_lower(r) * (1 + 1e-12)
    for r in (r_star * 1.001, r_star * 2):
        assert 16 * r > eta_lower(r)


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
