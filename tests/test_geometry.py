import numpy as np
import pytest

from champagne.geometry import BallDomain, dist_to_boundary, row_norms


@pytest.fixture
def unit_disk():
    return BallDomain(np.zeros(2), 1.0)


def test_dist_to_boundary_examples(unit_disk):
    assert dist_to_boundary(unit_disk, [0.0, 0.0]) == 1.0
    assert dist_to_boundary(unit_disk, [0.5, 0.0]) == 0.5
    assert dist_to_boundary(unit_disk, [1.0, 0.0]) == 0.0


def test_dist_clamps_to_zero_outside(unit_disk):
    assert dist_to_boundary(unit_disk, [2.0, 0.0]) == 0.0
    assert dist_to_boundary(unit_disk, [[2.0, 0.0], [0.0, -3.0]]).tolist() == [0.0, 0.0]


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


def test_scaling_law_of_delta(unit_disk):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, (100, 2))
    for a in (0.25, 3.0, 7.5):
        scaled = BallDomain(unit_disk.center * a, unit_disk.radius * a)
        lhs = dist_to_boundary(scaled, a * x)
        rhs = a * dist_to_boundary(unit_disk, x)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(rhs, 1.0))


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
    # one centre per row
    cs = rng.uniform(-0.5, 0.5, (5000, d))
    assert np.array_equal(row_norms(x, cs), np.sqrt(((x - cs) ** 2).sum(axis=1)))
    assert row_norms(np.empty((0, d)), c).shape == (0,)
