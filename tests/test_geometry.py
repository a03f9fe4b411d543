import math

import numpy as np
import pytest

from champagne.geometry import (
    BallDomain,
    dist_to_boundary,
    interior_ball_point,
    row_norms,
    scale_domain,
)


@pytest.fixture
def unit_disk():
    return BallDomain(np.zeros(2), 1.0)


def test_dist_to_boundary_examples(unit_disk):
    assert dist_to_boundary(unit_disk, [0.0, 0.0]) == 1.0
    assert dist_to_boundary(unit_disk, [0.5, 0.0]) == 0.5
    assert dist_to_boundary(unit_disk, [1.0, 0.0]) == 0.0


def test_dist_clamps_outside_and_signed(unit_disk):
    assert dist_to_boundary(unit_disk, [2.0, 0.0]) == 0.0
    assert dist_to_boundary(unit_disk, [2.0, 0.0], signed=True) == -1.0


def test_dist_dimension_mismatch(unit_disk):
    with pytest.raises(ValueError, match="dimension mismatch"):
        dist_to_boundary(unit_disk, [0.1, 0.2, 0.3])


def test_dist_is_1_lipschitz(unit_disk):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.2, 1.2, (500, 2))
    y = rng.uniform(-1.2, 1.2, (500, 2))
    dx = dist_to_boundary(unit_disk, x)
    dy = dist_to_boundary(unit_disk, y)
    gap = np.sqrt(((x - y) ** 2).sum(axis=1))
    assert np.all(np.abs(dx - dy) <= gap + 1e-12)


def test_scale_domain_examples(unit_disk):
    big = scale_domain(unit_disk, 2.0)
    assert big.radius == 2.0
    back = scale_domain(BallDomain(np.zeros(2), 2.0), 0.5)
    assert back.radius == 1.0
    with pytest.raises(ValueError):
        scale_domain(unit_disk, 0.0)


def test_scaling_law_of_delta(unit_disk):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, (100, 2))
    for a in (0.25, 3.0, 7.5):
        scaled = scale_domain(unit_disk, a)
        lhs = dist_to_boundary(scaled, a * x)
        rhs = a * dist_to_boundary(unit_disk, x)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(rhs, 1.0))


def test_interior_ball_radius_scales(unit_disk):
    assert scale_domain(unit_disk, 3.0).interior_ball_radius == 3.0


def test_interior_ball_point_examples(unit_disk):
    # nearest boundary point (1,0), tangent-ball center at origin, so the
    # point moves 0.075 radially inward
    x = interior_ball_point(unit_disk, [0.9, 0.0], r=0.005, r_star=0.1, theta=0.125)
    assert np.allclose(x, [0.825, 0.0], atol=1e-14)
    x = interior_ball_point(unit_disk, [0.0, 0.9], r=0.01, r_star=0.2, theta=0.25)
    assert np.allclose(x, [0.0, 0.75], atol=1e-14)


def test_interior_ball_point_precondition_names_inequality(unit_disk):
    with pytest.raises(ValueError, match=r"2\*r <= r_star"):
        interior_ball_point(unit_disk, [0.9, 0.0], r=0.2, r_star=0.1)
    with pytest.raises(ValueError, match="r_star < R/2"):
        interior_ball_point(unit_disk, [0.9, 0.0], r=0.01, r_star=0.6)
    with pytest.raises(ValueError, match="R/2"):
        interior_ball_point(unit_disk, [0.1, 0.0], r=0.01, r_star=0.1)


def _sample_ball(rng, center, radius, n):
    d = len(center)
    z = rng.standard_normal((n, d))
    z /= np.sqrt((z * z).sum(axis=1))[:, None]
    u = rng.uniform(0.0, 1.0, n) ** (1.0 / d)
    return center + radius * u[:, None] * z


def test_inclusion_by_rejection_sampling(unit_disk):
    # B(x_tilde, theta*r_star) must sit inside B(x0, r_star) and inside D
    rng = np.random.default_rng(2)
    x0 = np.array([0.9, 0.0])
    r, r_star, theta = 0.005, 0.1, 0.125
    xt = interior_ball_point(unit_disk, x0, r, r_star, theta)
    pts = _sample_ball(rng, xt, theta * r_star, 4000)
    assert np.all(np.sqrt(((pts - x0) ** 2).sum(axis=1)) <= r_star)
    assert np.all(unit_disk.contains(pts))


def test_inclusion_property_randomized(unit_disk):
    # randomized admissible inputs, including the enclosing-ball comparison
    # B(x_tilde, theta*r_star) inside B(x, 5*rho) for x outside B(x0, r_star)
    rng = np.random.default_rng(3)
    for _ in range(300):
        delta = rng.uniform(0.05, 0.45)
        direction = rng.standard_normal(2)
        direction /= np.sqrt((direction**2).sum())
        x0 = (1.0 - delta) * direction
        r_star = rng.uniform(1e-3, 0.49)
        r = rng.uniform(1e-6, min(r_star / 2, 0.9 * delta))
        theta = rng.uniform(1e-3, 0.25)
        xt = interior_ball_point(unit_disk, x0, r, r_star, theta)
        pts = _sample_ball(rng, xt, theta * r_star, 64)
        assert np.all(np.sqrt(((pts - x0) ** 2).sum(axis=1)) <= r_star + 1e-12)
        assert np.all(unit_disk.contains(pts))
        # outside point comparison
        y = x0 + (r_star + rng.uniform(0.01, 0.5)) * direction
        rho = math.sqrt(((y - x0) ** 2).sum()) - r
        assert np.all(np.sqrt(((pts - y) ** 2).sum(axis=1)) <= 5 * rho + 1e-12)


def test_domain_validation():
    with pytest.raises(ValueError):
        BallDomain(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        BallDomain(np.zeros(1), 1.0)


def test_domain_json_round_trip(unit_disk):
    obj = unit_disk.to_json()
    back = BallDomain.from_json(obj)
    assert np.array_equal(back.center, unit_disk.center)
    assert back.radius == unit_disk.radius


@pytest.mark.parametrize("d", range(1, 8))
def test_row_norms_equal_numpy_row_sums_bit_for_bit(d):
    rng = np.random.default_rng(d)
    x = rng.uniform(-1, 1, (5000, d)) * 10.0 ** rng.uniform(-6, 0, (5000, d))
    c = rng.uniform(-0.5, 0.5, d)
    assert np.array_equal(row_norms(x, c), np.sqrt(((x - c) ** 2).sum(axis=1)))
    assert row_norms(np.empty((0, d)), c).shape == (0,)
