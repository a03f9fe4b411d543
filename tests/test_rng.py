import math

import numpy as np
import pytest
from scipy import stats

from champagne.rng import (
    mix64,
    stable_vectors,
    stream_keys,
    uniform01,
)
from stable_oracle import positive_stable


def test_mix64_deterministic_and_bijective_sample():
    x = np.arange(10_000, dtype=np.uint64)
    a = mix64(x)
    b = mix64(x)
    assert np.array_equal(a, b)
    assert np.unique(a).size == x.size


def test_uniform01_range_and_mean():
    keys = stream_keys(123, np.arange(200_000))
    u = uniform01(keys, np.uint64(0))
    assert np.all((u > 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


_M64 = 2**64 - 1
_GOLD = 0x9E3779B97F4A7C15


def _unmix64(z: int) -> int:
    """The x with mix64(x) == z: each xor-shift and odd multiply of the
    SplitMix64 finalizer undone in reverse order."""
    z ^= (z >> 31) ^ (z >> 62)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & _M64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _M64
    z ^= (z >> 30) ^ (z >> 60)
    return z


@pytest.mark.parametrize("top, want", [(2**53 - 1, 1.0 - 2.0**-53), (2**53 - 2, 1.0 - 2.0**-52),
                                       (0, 2.0**-54)])
def test_uniform01_stays_below_1_at_the_greatest_raw_value(top, want):
    # a key whose counter 0 mixes to the given top 53 bits; (2**53 - 1) + 1/2
    # rounds to 2**53, which would make u = 1 and w = -log u = -0.0
    key = _unmix64(top << 11 | 0x7FF)
    assert int(mix64(np.uint64(key))) >> 11 == top
    u = uniform01(np.uint64(key), np.uint64(0))
    assert u == want and 0.0 < u < 1.0
    # drawn in each slot of step 0 (the radius, then the direction's), it
    # gives a finite increment of positive length
    for d in (2, 3):
        for slot in range(d):
            keys = np.array([(key - slot * _GOLD) % 2**64], dtype=np.uint64)
            xi = stable_vectors(1.5, d, keys, 0)
            assert np.isfinite(xi).all() and (xi * xi).sum() > 0.0, (d, slot)


def test_positive_stable_is_finite_and_positive_at_the_extreme_uniforms():
    # Kanter's A/w overflows at u = 1 - 2**-53, w = -log(1 - 2**-53) for alpha
    # above about 1.9012 if it is formed before its power; with each factor
    # of S raised to its own power, every alpha in (1, 2) draws finitely
    ext = np.array([2.0**-54, 1.0 - 2.0**-53])   # uniform01's least and greatest
    u, w = np.repeat(ext, 2), -np.log(np.tile(ext, 2))
    for alpha in [*(1.0 + 0.0005 * np.arange(1, 2000)), 1.9999, 1.99999]:
        s = positive_stable(alpha / 2.0, u, w)
        assert np.isfinite(2.0 * s).all() and (s > 0.0).all(), alpha
    # and 2**16 uniforms at either end of (0, 1), at either extreme w
    k = np.arange(1, 2**16, dtype=float)
    u = np.concatenate([1.0 - k * 2.0**-53, (k - 0.5) * 2.0**-53])
    for alpha in (1.0001, 1.5, 1.99, 1.99999):
        for w in -np.log(ext):
            s = positive_stable(alpha / 2.0, u, np.full(u.size, w))
            assert np.isfinite(2.0 * s).all() and (s > 0.0).all(), (alpha, w)


def test_streams_differ_by_seed_and_traj():
    a = uniform01(stream_keys(1, np.arange(100)), np.uint64(0))
    b = uniform01(stream_keys(2, np.arange(100)), np.uint64(0))
    c = uniform01(stream_keys(1, np.arange(100) + 100), np.uint64(0))
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_positive_stable_laplace_transform():
    # oracle: E exp(-lam S) = exp(-lam^rho)
    n = 300_000
    keys = stream_keys(7, np.arange(n))
    u = uniform01(keys, np.uint64(0))
    w = -np.log(uniform01(keys, np.uint64(1)))
    for rho in (0.6, 0.75, 0.9, 0.95, 0.995):
        s = positive_stable(rho, u, w)
        for lam in (0.5, 1.0, 3.0):
            emp = float(np.exp(-lam * s).mean())
            exact = math.exp(-(lam**rho))
            assert emp == pytest.approx(exact, abs=0.01)


def test_positive_stable_matches_scipy_quantiles():
    # scipy's one-sided stable with this scale has the same Laplace transform
    rho = 0.75
    n = 100_000
    keys = stream_keys(11, np.arange(n))
    u = uniform01(keys, np.uint64(0))
    w = -np.log(uniform01(keys, np.uint64(1)))
    s = np.sort(positive_stable(rho, u, w))
    dist = stats.levy_stable(rho, 1.0, loc=0.0, scale=math.cos(math.pi * rho / 2) ** (1 / rho))
    for q, tol in ((0.25, 0.02), (0.5, 0.02), (0.75, 0.03), (0.9, 0.05)):
        assert s[int(q * n)] == pytest.approx(dist.ppf(q), rel=tol)


def test_stable_vector_characteristic_function():
    n = 200_000
    keys = stream_keys(3, np.arange(n))
    for alpha in (1.2, 1.5, 1.8, 1.99):
        xi = stable_vectors(alpha, 2, keys, step=0)
        for freq in (0.5, 1.0, 2.0):
            emp = float(np.cos(freq * xi[:, 0]).mean())
            assert emp == pytest.approx(math.exp(-(freq**alpha)), abs=0.01)


def test_rotational_symmetry_quadrant_chi2():
    n = 200_000
    keys = stream_keys(5, np.arange(n))
    xi = stable_vectors(1.5, 2, keys, step=0)
    quadrant = (xi[:, 0] > 0).astype(int) * 2 + (xi[:, 1] > 0).astype(int)
    counts = np.bincount(quadrant, minlength=4)
    chi2 = float((((counts - n / 4) ** 2) / (n / 4)).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=3)


def test_self_similar_scaling_of_radial_median():
    # medians over independent samples at h and 16h differ by 16^(1/alpha)
    n = 400_000
    alpha = 1.5
    xi1 = stable_vectors(alpha, 2, stream_keys(21, np.arange(n)), step=0)
    xi2 = stable_vectors(alpha, 2, stream_keys(22, np.arange(n)), step=5)
    h = 1e-3
    m1 = np.median(np.sqrt((xi1**2).sum(axis=1))) * h ** (1 / alpha)
    m2 = np.median(np.sqrt((xi2**2).sum(axis=1))) * (16 * h) ** (1 / alpha)
    assert m2 / m1 == pytest.approx(16.0 ** (1 / alpha), rel=0.03)


def test_increment_shrinks_with_h():
    n = 10_000
    xi = stable_vectors(1.5, 2, stream_keys(9, np.arange(n)), step=0)
    norms = np.sqrt((xi**2).sum(axis=1))
    for h in (1e-2, 1e-4, 1e-6):
        scaled = np.median(h ** (1 / 1.5) * norms)
        assert scaled < 1e-1 * (h / 1e-2) ** 0.5


def test_invalid_alpha_rejected():
    keys = stream_keys(0, np.arange(4))
    with pytest.raises(ValueError):
        stable_vectors(2.5, 2, keys, step=0)
    with pytest.raises(ValueError):
        stable_vectors(1.5, 4, keys, step=0)
    with pytest.raises(ValueError):
        positive_stable(1.2, np.array([0.5]), np.array([1.0]))


@pytest.mark.parametrize("seed", [-1, None, 1.5, "7", True, np.int64(-3), 2**64])
def test_stream_keys_refuses_a_seed_outside_0_to_2_64(seed):
    # reduced to 64 bits, -1 would run the streams of 2**64 - 1
    with pytest.raises(ValueError, match="non-negative integer below 2"):
        stream_keys(seed, np.arange(4))


def test_stream_keys_takes_every_seed_below_2_64():
    for seed in (0, 2**63, 2**64 - 1, np.uint64(2**64 - 1)):
        assert stream_keys(seed, np.arange(4)).shape == (4,)
