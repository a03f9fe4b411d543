import math

import numpy as np
import pytest

from champagne.geometry import BallDomain
from champagne.kernels import (
    Constants,
    Envelope,
    SingularityError,
    WeightChoice,
    capacity_ball_bounds,
    capacity_ball_envelope,
    capacity_equivalent_radii,
    capped_green_bounds,
    capped_green_envelope,
    comparable_measure_cube,
    green_envelope,
    martin_envelope,
    small_radius_threshold,
    unit_ball_volume,
)
from champagne.whitney import decompose


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


def test_envelope_invariants_and_arithmetic():
    with pytest.raises(ValueError):
        Envelope(2.0, 1.0)
    with pytest.raises(ValueError):
        Envelope(-1.0, 1.0)
    e = Envelope(1.0, 2.0) + Envelope(0.5, 0.75)
    assert (e.lower, e.upper) == (1.5, 2.75)
    e = Envelope(1.0, 2.0) * 3.0
    assert (e.lower, e.upper) == (3.0, 6.0)
    e = Envelope(1.0, 2.0) * Envelope(3.0, 4.0)
    assert (e.lower, e.upper) == (3.0, 8.0)
    assert sum([Envelope(1, 1), Envelope(2, 3)]).upper == 4.0


def test_green_hand_value(disk, c15):
    # both boundary factors saturate at 1; F = |x-y|^(alpha-d) = 0.5^-0.5
    e = green_envelope(disk, c15, [0.0, 0.0], [0.5, 0.0])
    assert e.lower == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert e.upper == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_green_symmetry(disk, c15):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-0.6, 0.6, 2)
        y = rng.uniform(-0.6, 0.6, 2)
        if np.allclose(x, y):
            continue
        a = green_envelope(disk, c15, x, y)
        b = green_envelope(disk, c15, y, x)
        assert a.lower == pytest.approx(b.lower, rel=1e-12)
        assert a.upper == pytest.approx(b.upper, rel=1e-12)


def test_green_singular_and_outside(disk, c15):
    with pytest.raises(SingularityError):
        green_envelope(disk, c15, [0.1, 0.1], [0.1, 0.1])
    with pytest.raises(ValueError):
        green_envelope(disk, c15, [0.0, 0.0], [1.5, 0.0])


def test_green_envelope_widens_with_constant(disk):
    wide = Constants(alpha=1.5, C_G=3.0)
    e = green_envelope(disk, wide, [0.0, 0.0], [0.5, 0.0])
    assert e.lower == pytest.approx(math.sqrt(2.0) / 3.0)
    assert e.upper == pytest.approx(math.sqrt(2.0) * 3.0)


def test_martin_hand_values(disk, c15):
    e = martin_envelope(disk, c15, [0.0, 0.0], [1.0, 0.0])
    assert e.lower == pytest.approx(1.0) and e.upper == pytest.approx(1.0)
    e = martin_envelope(disk, c15, [0.9, 0.0], [1.0, 0.0])
    assert e.lower == pytest.approx(10.0, rel=1e-9)


def test_martin_monotone_along_boundary(disk, c15):
    x = np.array([0.9, 0.0])
    angles = np.linspace(0.0, math.pi, 40)
    vals = [
        martin_envelope(disk, c15, x, [math.cos(t), math.sin(t)]).lower for t in angles
    ]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_martin_rejects_off_boundary(disk, c15):
    with pytest.raises(ValueError, match="boundary"):
        martin_envelope(disk, c15, [0.5, 0.0], [0.9, 0.0])


def test_capped_green_envelope(disk, c15):
    e = capped_green_envelope(disk, c15, [0.9, 0.0])
    base = 0.1**0.5
    c = 1.0 * 2.0**3
    assert e.lower == pytest.approx(base / c)
    assert e.upper == pytest.approx(min(base * c, 1.0))
    # monotone in delta
    e2 = capped_green_envelope(disk, c15, [0.99, 0.0])
    assert e2.lower < e.lower


def test_array_bounds_equal_the_scalar_envelopes_exactly(disk):
    rng = np.random.default_rng(3)
    consts = Constants(alpha=1.3, C=2.0, C_G=1.5)
    pts = rng.uniform(-0.7, 0.7, (500, 2))
    lower, upper = capped_green_bounds(disk, consts, pts)
    scalar = [capped_green_envelope(disk, consts, y) for y in pts]
    assert lower.tolist() == [e.lower for e in scalar]
    assert upper.tolist() == [e.upper for e in scalar]
    radii = rng.uniform(1e-6, 0.1, 500)
    lower, upper = capacity_ball_bounds(consts, radii, 2)
    scalar = [capacity_ball_envelope(consts, float(r), 2) for r in radii]
    assert lower.tolist() == [e.lower for e in scalar]
    assert upper.tolist() == [e.upper for e in scalar]
    with pytest.raises(ValueError, match="inside"):
        capped_green_bounds(disk, consts, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="> 0"):
        capacity_ball_bounds(consts, [0.1, 0.0], 2)


def test_capacity_hand_value(c15):
    e = capacity_ball_envelope(c15, 0.25, 2)
    assert e.lower == pytest.approx(0.5) and e.upper == pytest.approx(0.5)
    e = capacity_ball_envelope(Constants(alpha=1.5, C=2.0), 1.0, 2)
    assert (e.lower, e.upper) == (0.5, 2.0)


def test_capacity_power_law_scaling(c15):
    rng = np.random.default_rng(1)
    d = 2
    for _ in range(1000):
        r = rng.uniform(1e-6, 1e-1)
        s = rng.uniform(1e-3, 1e3)
        a = capacity_ball_envelope(c15, r * s, d)
        b = capacity_ball_envelope(c15, r, d)
        factor = s ** (d - c15.alpha)
        assert abs(a.lower - factor * b.lower) <= 1e-12 * max(a.lower, factor * b.lower)
        assert abs(a.upper - factor * b.upper) <= 1e-12 * max(a.upper, factor * b.upper)


def test_eta_hand_value(c15):
    eta = capacity_equivalent_radii(c15, 1e-4, 2)
    want = math.pi**-0.5 * (1e-4) ** 0.25
    assert eta.lower == pytest.approx(want, rel=1e-9)
    assert eta.upper == pytest.approx(want, rel=1e-9)
    # 16r = 0.0016 < eta so eta* = eta
    assert eta.star_lower == eta.lower and eta.star_upper == eta.upper


def test_eta_power_law_scaling(c15):
    rng = np.random.default_rng(2)
    d = 2
    expo = 1.0 - c15.alpha / d
    for _ in range(1000):
        r = rng.uniform(1e-8, 1e-2)
        s = rng.uniform(1e-2, 1e2)
        a = capacity_equivalent_radii(c15, r * s, d)
        b = capacity_equivalent_radii(c15, r, d)
        factor = s**expo
        assert abs(a.lower - factor * b.lower) <= 1e-12 * max(a.lower, factor * b.lower)


def test_small_radius_threshold_matches_eta_crossover(c15):
    # r <= (16^d C sigma_d)^(-1/alpha)  iff  16r <= eta_lower(r)
    d = 2
    r_star = small_radius_threshold(c15, d)
    assert r_star == pytest.approx((256 * math.pi) ** (-2.0 / 3.0), rel=1e-12)
    for r in (r_star * 0.999, r_star * 0.5):
        eta = capacity_equivalent_radii(c15, r, d)
        assert 16 * r <= eta.lower * (1 + 1e-12)
    for r in (r_star * 1.001, r_star * 2):
        eta = capacity_equivalent_radii(c15, r, d)
        assert 16 * r > eta.lower


def test_unit_ball_volume():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_sigma_measure_deep_cube(disk, c15):
    dec = decompose(disk, 6)
    i = dec.locate(disk.center)
    q = dec.cube(i)
    got = comparable_measure_cube(disk, c15, WeightChoice.one(), q, quad_points=64)
    # deep cube: delta nearly constant, integral close to |Q| * delta(center)^-alpha
    approx = q.side**2 * float(
        (1.0 - math.sqrt((q.center**2).sum())) ** -c15.alpha
    )
    assert got.lower == pytest.approx(approx, rel=0.05)
    assert got.upper == pytest.approx(approx, rel=0.05)


def test_sigma_measure_comparable_to_capacity(disk, c15):
    # sigma_1(Q) / diam(Q)^(d-alpha) bounded above and below across all cubes
    dec = decompose(disk, 7)
    ratios = []
    for i in range(0, len(dec), 23):
        q = dec.cube(i)
        val = comparable_measure_cube(disk, c15, WeightChoice.one(), q, quad_points=16)
        ratios.append(val.upper / q.diam ** (2 - c15.alpha))
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 50.0


def test_sigma_measure_green_weight_finite(disk, c15):
    dec = decompose(disk, 6)
    deep = dec.cube(dec.locate(disk.center))
    shallow = dec.cube(len(dec) - 1)
    for q in (deep, shallow):
        e = comparable_measure_cube(
            disk, c15, WeightChoice.green_at_base(disk.center), q, quad_points=16
        )
        assert math.isfinite(e.upper) and e.lower > 0.0


def test_sigma_measure_rejects_bad_points(disk, c15):
    dec = decompose(disk, 6)
    with pytest.raises(ValueError):
        comparable_measure_cube(disk, c15, WeightChoice.one(), dec.cube(0), quad_points=1)
