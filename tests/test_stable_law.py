"""The law of the increments that ``rng.stable_vectors`` draws.

|xi| is drawn by inverting a table of its distribution function F, which
``rng.radial_law`` builds from the Mellin transform of R^2 = 2 S |Z|^2.
These gates check the table against an independent reference: F computed
by scipy's adaptive quadrature over Kanter's representation S = K(theta)
W^-q of the positive (alpha/2)-stable S (theta uniform on (0, pi), W
exponential, q = (2 - alpha)/alpha), with the chi-square law of |Z|^2 in
closed form; and the draws against the replaced sampler (``stable_oracle``).
"""

import math
import time

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from champagne import rng
from stable_oracle import kanter_median, kanter_vectors

ALPHAS = [1.01, 1.25, 1.5, 1.75, 1.9, 1.99]


def _kanter_cdf(r, d, alpha, upper=False):
    """P(|xi| <= r), or P(|xi| > r) if upper, by nested scipy quad.

    |xi|^2/4 = K(theta) W^-q Y with Y = |Z|^2/2 ~ Gamma(d/2), so
    P(|xi| <= r) = E[P(Y <= r^2 W^q / (4 K(theta)))].  The outer integral
    runs over s = -log(pi - theta), which spreads out the end theta -> pi
    where K grows like (pi - theta)^(-2/alpha) and where the mass of large
    r lies, with a break where K = r^2/4; the inner one over g = -log W,
    with a break where the argument of P is 1.
    """
    rho = alpha / 2.0
    q = (1.0 - rho) / rho
    if d == 2:
        prob = (lambda y: math.exp(-y)) if upper else (lambda y: -math.expm1(-y))
    elif upper:
        prob = lambda y: math.erfc(math.sqrt(y)) + 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    else:
        prob = lambda y: math.erf(math.sqrt(y)) - 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    log_r2_4 = 2.0 * math.log(r) - math.log(4.0)

    def log_k(s):
        theta = math.pi - math.exp(-s)
        return (math.log(math.sin(rho * theta)) + q * math.log(math.sin((1.0 - rho) * theta))
                - math.log(math.sin(math.exp(-s))) / rho)

    def inner(s):
        log_c = log_r2_4 - log_k(s)
        f = lambda g: math.exp(-g - math.exp(-g)) * prob(math.exp(log_c - q * g))
        g1 = min(max(log_c / q, -4.0), 45.0)
        total = (quad(f, -6.0, g1, epsabs=1e-14, epsrel=1e-10)[0]
                 + quad(f, g1, 50.0, epsabs=1e-14, epsrel=1e-10)[0])
        return total * math.exp(-s)

    s0 = -math.log(math.pi) + 1e-12
    grid = np.linspace(s0, 80.0, 800)
    s1 = float(grid[np.argmin([abs(log_k(s) - log_r2_4) for s in grid])])
    points = sorted({s0, min(max(s1, s0 + 0.1), 79.0), 80.0})
    total = sum(quad(inner, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)[0]
                for a, b in zip(points[:-1], points[1:]))
    return total / math.pi


def _tail_constant(d, alpha):
    """C of 1 - F ~ C r^-alpha."""
    return (2.0**alpha * math.gamma((d + alpha) / 2.0)
            / (math.gamma(d / 2.0) * math.gamma(1.0 - alpha / 2.0)))


def test_log_gamma_matches_scipy():
    # the arguments of the table's characteristic function: |z| < 25
    t = np.linspace(0.0, 12.0, 601)
    for re in (1.0, 1.5):
        for z in (re + 1j * t, re - 1j * t, re - 2j * t / 1.0005):
            got = np.exp(rng._log_gamma(z) - special.loggamma(z))
            assert np.abs(got - 1.0).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_cdf_at_the_drawn_radius_is_within_1e_8_of_u(d, alpha):
    law = rng.radial_law(d, alpha)
    # 34 uniforms: both extremes of uniform01, and logit-spaced between
    x = np.linspace(-34.0, 34.0, 32)
    u = np.concatenate([[2.0**-54], 1.0 / (1.0 + np.exp(-x)), [1.0 - 2.0**-53]])
    r = law.radii(u.copy())
    assert np.isfinite(r).all() and (r > 0.0).all()
    assert (np.diff(r) > 0.0).all()
    for ui, ri in zip(u.tolist(), r.tolist()):
        if ui < 0.5:
            assert abs(_kanter_cdf(ri, d, alpha) - ui) < 1e-8, (ui, ri)
        else:
            assert abs(_kanter_cdf(ri, d, alpha, upper=True) - (1.0 - ui)) < 1e-8, (ui, ri)
    # beyond 1 - u = 1e-8 the draw follows the Pareto tail C r^-alpha: the
    # law's next term is below 1e-5 of it there (3e-6 at alpha = 1.99, where
    # C is 0.02), and past the table's end the draw takes C exactly
    tail = 1.0 - u < 1e-8
    assert tail.sum() >= 3
    pareto = _tail_constant(d, alpha) * r[tail] ** -alpha
    assert np.allclose(pareto, 1.0 - u[tail], rtol=1e-5, atol=0.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75, 1.9, 1.99])
def test_radii_match_the_replaced_sampler_by_two_sample_ks(d, alpha):
    n = 10**6
    table = rng.stable_vectors(alpha, d, rng.stream_keys(24_001, np.arange(n)), 0)
    oracle = kanter_vectors(alpha, d, rng.stream_keys(24_002, np.arange(n)))
    p = stats.ks_2samp(np.sqrt((table * table).sum(axis=1)),
                       np.sqrt((oracle * oracle).sum(axis=1))).pvalue
    assert p > 1e-3


@pytest.mark.parametrize("d", [2, 3])
def test_draws_are_finite_and_positive_at_the_extreme_uniforms(d):
    u = np.array([2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53])
    for alpha in [*(1.0 + 0.0005 * np.arange(1, 2000)), 1.9999, 1.99999]:
        r = rng.radial_law.__wrapped__(d, float(alpha)).radii(u.copy())
        assert np.isfinite(r).all() and (r > 0.0).all() and (np.diff(r) > 0.0).all(), alpha


@pytest.mark.parametrize("d", [2, 3])
def test_the_tables_median_lies_within_4_sigma_of_the_sampled_one(d):
    # the 65,536-draw estimate that the simulator's kappa used to read; its
    # standard error is 1/(2 f(m) sqrt(n)) for the density f of |xi|, and
    # 1/f(m) = dR/du at u = 1/2
    law = rng.radial_law(d, 1.5)
    n = 1 << 16
    du = 1e-6
    dr_du = np.diff(law.radii(np.array([0.5 - du, 0.5 + du])))[0] / (2.0 * du)
    sigma = dr_du / (2.0 * math.sqrt(n))
    assert abs(law.median - kanter_median(d, 1.5, n)) < 4.0 * sigma
    assert law.median == law.radii(np.array([0.5]))[0]


def test_building_the_w2_table_takes_at_most_10_ms():
    rng.radial_law.__wrapped__(2, 1.5)
    took = []
    for _ in range(5):
        start = time.perf_counter()
        rng.radial_law.__wrapped__(2, 1.5)
        took.append(time.perf_counter() - start)
    assert min(took) < 0.010
