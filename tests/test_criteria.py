import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.integrate import quad

from champagne.bubbles import (
    BubbleConfig,
    ConstantProfile,
    LogProfile,
    PowerProfile,
    generate_shell_config,
)
import incidence_oracle as oracle
from champagne import criteria, kernels, whitney as whitney_module
from champagne.criteria import (
    DivergenceVerdict,
    Verdict,
    WhitneySums,
    _add_cap_bounds,
    _classify_exponents,
    _series_totals,
    aikawa_sum,
    classify_avoidability,
    classify_shell_series,
    uniform_boundary_grid,
    whitney_sums,
)
from champagne.geometry import BallDomain
from champagne.harness import RunConfig, cmd_criteria
from champagne.whitney import intersecting_cubes, whitney


@pytest.fixture(scope="module")
def disk():
    return BallDomain(np.zeros(2), 1.0)


# -- boundary grids --------------------------------------------------------------

def test_boundary_grid_points_lie_on_the_sphere():
    for d, n in ((2, 64), (3, 128)):
        points = uniform_boundary_grid(BallDomain(np.zeros(d), 1.0), n)
        assert points.shape == (n, d)
        assert np.allclose(np.sqrt((points**2).sum(axis=1)), 1.0, atol=1e-12)


# -- series ---------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesEvaluation:
    terms: np.ndarray
    partial_sums: np.ndarray

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if self.partial_sums.size else 0.0


def avoidability_series(config, z, alpha):
    """Oracle for ``criteria._series_totals`` at z: every per-bubble term
    delta^(2a-2) * r^(d-a) / |x-z|^(d+a-2) at once, in config order, with
    np.cumsum's left-to-right partial sums."""
    z = np.asarray(z, dtype=float)
    d = config.dimension
    dist = np.sqrt(((config.centers - z) ** 2).sum(axis=1))
    terms = (config.deltas ** (2.0 * alpha - 2.0) * config.radii ** (d - alpha)
             / dist ** (d + alpha - 2.0))
    return SeriesEvaluation(terms, np.cumsum(terms))


def test_series_single_bubble_hand_value(disk):
    cfg = BubbleConfig(disk, [[0.9, 0.0]], [0.01])
    ev = avoidability_series(cfg, [1.0, 0.0], 1.5)
    # 0.1^1 * 0.01^0.5 / 0.1^1.5
    assert ev.terms[0] == pytest.approx(0.31622776601683794, rel=1e-12)
    assert _series_totals(cfg, np.array([[1.0, 0.0]]), 1.5).tolist() == [ev.total]
    assert ev.total == ev.terms[0]


def test_series_empty_config(disk):
    cfg = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    assert avoidability_series(cfg, [1.0, 0.0], 1.5).total == 0.0
    assert _series_totals(cfg, np.array([[1.0, 0.0], [0.0, 1.0]]), 1.5).tolist() == [0.0, 0.0]


def test_series_partial_sums_monotone(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 4, seed=0)
    ev = avoidability_series(cfg, [0.0, 1.0], 1.5)
    assert np.all(np.diff(ev.partial_sums) >= 0)


def test_blocked_series_total_equals_the_oracle_bit_for_bit(disk, monkeypatch):
    # _series_totals adds _ROW_BLOCK terms at a time for every point; with
    # blocks of 1,000 the 6-shell configuration takes 11 of them, and each
    # point's running total must still equal the oracle's one cumsum over
    # all its terms
    monkeypatch.setattr(criteria, "_ROW_BLOCK", 1000)
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 6, seed=3)
    assert cfg.n > 10_000
    points = np.array([[math.cos(ang), math.sin(ang)] for ang in (0.0, 0.3, 2.0)])
    assert _series_totals(cfg, points, 1.5).tolist() == [
        avoidability_series(cfg, z, 1.5).total for z in points]


def test_grouped_matches_naive_direct_sum(disk):
    # oracle: plain python accumulation in config order, against the series
    # total that _series_totals accumulates block by block
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 6, seed=3)
    assert cfg.n > 10_000
    z = np.array([math.cos(0.3), math.sin(0.3)])
    alpha = 1.5
    naive = 0.0
    for k in range(cfg.n):
        delta = cfg.deltas[k]
        dist = math.sqrt(((cfg.centers[k] - z) ** 2).sum())
        naive += delta * cfg.radii[k] ** 0.5 / dist**1.5
    (got,) = _series_totals(cfg, z[None, :], alpha).tolist()
    assert got == pytest.approx(naive, rel=1e-9)


# -- analytic classification --------------------------------------------------------

def _u_integrand(phi, d, alpha):
    """The tail integrand phi(t)^(d-a) / (1-t) in u = -log(1-t), which
    avoids the loss in 1 - exp(-u), with its exponents (rate, log_power):
    integrand = const * exp(rate*u) * (1+u)^log_power.  Written out per
    family here, independently of the families' own ``tail``."""
    if isinstance(phi, ConstantProfile):
        phi_u, rate, log_power = (lambda u: phi.c), 0.0, 0.0
    elif isinstance(phi, PowerProfile):
        phi_u, rate, log_power = (lambda u: np.exp(-phi.beta * u)), -phi.beta * (d - alpha), 0.0
    else:
        phi_u, rate, log_power = (lambda u: (1.0 + u) ** (-phi.p)), 0.0, -phi.p * (d - alpha)
    return (lambda u: phi_u(u) ** (d - alpha)), rate, log_power


def classify_radial_integral(phi, d, alpha):
    """Oracle: the tail integral of phi(t)^(d-a) / (1-t) over (1/2, 1),
    classified by the analytic reduction under u = -log(1-t), with the
    partial integrals up to 1 - eps for eps = 1e-3 .. 1e-12 as evidence."""
    integrand, rate, log_power = _u_integrand(phi, d, alpha)
    t0 = 0.5
    u0 = -math.log(1.0 - t0)
    trace = [(10.0 ** (-k), quad(integrand, u0, -math.log(10.0 ** (-k)), limit=400)[0])
             for k in range(3, 13)]
    return DivergenceVerdict(
        _classify_exponents(rate, log_power),
        {"rate": rate, "log_power": log_power, "quadrature": trace, "t0": t0},
        f"phi={type(phi).__name__}",
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_canonical_profiles_classified(d, alpha):
    for phi, tag in ((ConstantProfile(0.35), Verdict.DIVERGENT),
                     (PowerProfile(0.8), Verdict.CONVERGENT),
                     (LogProfile(1.0 / (d - alpha)), Verdict.DIVERGENT)):
        assert classify_radial_integral(phi, d, alpha).tag == tag
        assert classify_shell_series(phi, d, alpha, 0.5).tag == tag


def test_quadrature_trace_monotone_and_loglog_growth():
    d, alpha = 2, 1.5
    v = classify_radial_integral(LogProfile(1.0 / (d - alpha)), d, alpha)
    trace = v.evidence["quadrature"]
    vals = [t[1] for t in trace]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # integrand reduces to 1/(1+u): partial integral log(1+U) - log(1+u0)
    u0 = -math.log(1.0 - v.evidence["t0"])
    for (eps, val) in trace:
        want = math.log(1.0 - math.log(eps)) - math.log(1.0 + u0)
        assert val == pytest.approx(want, rel=1e-6)


def test_convergent_quadrature_plateaus():
    v = classify_radial_integral(PowerProfile(1.0), 2, 1.5)
    vals = [t[1] for t in v.evidence["quadrature"]]
    assert vals[-1] - vals[-2] < 1e-4 * vals[-1]


def test_shell_series_outside_the_families_is_inconclusive():
    v = classify_shell_series(lambda t: 0.3, 2, 1.5, 0.5)
    assert v.tag == Verdict.INCONCLUSIVE
    assert v.evidence == {"reason": "profile outside the closed-form enumeration"}


# at d=2, alpha=1.5 the log profiles with p = 2 and 4 sit on either side of
# the log-power rule: (1+u)^-1 still diverges, (1+u)^-2 converges
PROFILES = [
    ConstantProfile(0.2),
    ConstantProfile(0.4),
    PowerProfile(0.5),
    PowerProfile(1.0),
    PowerProfile(2.0),
    LogProfile(1.0),
    LogProfile(2.0),
    LogProfile(4.0),
]


@pytest.mark.parametrize("phi", PROFILES)
def test_shell_series_agrees_with_integral(phi):
    for d, alpha in ((2, 1.5), (3, 1.3)):
        for a in (0.3, 0.5, 0.7):
            s = classify_shell_series(phi, d, alpha, a)
            i = classify_radial_integral(phi, d, alpha)
            assert s.tag == i.tag
            assert [s.evidence[k] for k in ("rate", "log_power")] == [
                i.evidence[k] for k in ("rate", "log_power")]


# -- whitney sums ---------------------------------------------------------------------

def _wiener_total(sums, j):
    """Point j's Wiener total: its shell terms added in ascending shell order."""
    return tuple(np.cumsum(sums.wiener[j], axis=0)[-1].tolist())


def test_aikawa_empty_config(disk):
    cfg = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    assert aikawa_sum(cfg, [1.0, 0.0], 1.5, 7) == (0.0, 0.0)
    sums = whitney_sums(cfg, [[1.0, 0.0]], 1.5, 7)
    assert (sums.n_cubes, sums.n_uncovered, sums.n_above_small_radius) == (0, 0, 0)
    assert sums.quasi_additivity() is None


def _one_bubble_at_a_cube_centre(disk):
    """One bubble of radius 0.01 at the centre of the Whitney cube that
    holds (0.53, 0.01), so that the inscribed ball is the bubble itself."""
    x = np.array([0.53, 0.01])
    level = next(lev for lev in range(8) if whitney(
        disk, lev, np.floor(x / 2.0**-lev).astype(np.int64)[None, :])[0][0])
    center = (np.floor(x / 2.0**-level) + 0.5) * 2.0**-level
    return BubbleConfig(disk, [center], [0.01])


def test_aikawa_single_bubble_hand_bound(disk):
    # center the bubble inside a cube so the lower envelope is positive
    cfg = _one_bubble_at_a_cube_centre(disk)
    center = cfg.centers[0]
    z = np.array([-1.0, 0.0])
    total = aikawa_sum(cfg, z, 1.5, 7)
    assert total[0] > 0.0
    c2 = intersecting_cubes(disk, 7, cfg.centers[0], 0.01).shape[0]
    C1 = whitney_sums(cfg, z[None, :], 1.5, 7).ratio_bound
    alpha, d = 1.5, 2
    delta = float(cfg.deltas[0])
    dist = float(np.sqrt(((center - z) ** 2).sum()))
    hand = (
        c2
        * 0.01 ** (d - alpha)
        * C1 ** ((2 * alpha - 2) + (d + alpha - 2))
        * delta ** (2 * alpha - 2)
        / dist ** (d + alpha - 2)
    )
    assert total[1] <= hand * (1 + 1e-9)


def test_an_exact_geometry_gives_zero_width_intervals(disk):
    # the bubble is its cube's inscribed ball and meets no other cube, so
    # the capacity bounds coincide, and with the comparison functions as the
    # kernels every sum is exact: no constant widens g
    cfg = _one_bubble_at_a_cube_centre(disk)
    sums = whitney_sums(cfg, [[1.0, 0.0], [-1.0, 0.0]], 1.5, 7)
    assert sums.max_cubes_per_ball == 1
    for lower, upper in sums.aikawa.tolist():
        assert lower == upper > 0.0
    assert sums.wiener_shells[0].any()
    assert sums.wiener[0, :, 0].tolist() == sums.wiener[0, :, 1].tolist()
    total = _wiener_total(sums, 0)
    assert total[0] == total[1] > 0.0
    assert sums.quasi_additivity() == (1.0, 1.0)


def test_aikawa_subconfig_ordering(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=4)
    half = BubbleConfig(disk, cfg.centers[::2], cfg.radii[::2])
    z = np.array([0.0, -1.0])
    full = aikawa_sum(cfg, z, 1.5, 7)
    sub = aikawa_sum(half, z, 1.5, 7)
    assert sub[1] <= full[1] * (1 + 1e-12)


def test_aikawa_warns_below_collar(disk):
    # coarse: collar depth ~0.44
    below = BubbleConfig(disk, [[0.9, 0.0]], [0.001])
    # a fat bubble above the small-radius threshold (256 pi)^(-2/3) = 0.01156
    fat = BubbleConfig(BallDomain(np.zeros(2), 2.0), [[0.0, 0.0]], [0.5])
    assert kernels.small_radius_threshold(1.5, 2) == pytest.approx(0.01156, rel=1e-3)
    for cfg, z, uncovered, above in ((below, [1.0, 0.0], 1, 0), (fat, [2.0, 0.0], 0, 1)):
        sums = whitney_sums(cfg, [z], 1.5, 4)
        assert (sums.n_uncovered, sums.n_above_small_radius) == (uncovered, above)


def test_aikawa_rejects_interior_z(disk):
    cfg = BubbleConfig(disk, [[0.5, 0.0]], [0.01])
    with pytest.raises(ValueError, match="boundary"):
        aikawa_sum(cfg, [0.5, 0.5], 1.5, 7)


def test_the_on_sphere_check_scales_with_the_radius(disk):
    # a power-of-two dilation by s = 2^k moves every cube k levels up and
    # leaves the pairs, C1 and the Aikawa totals as they were; the check on
    # z scales too: at R = 2^24 the grid's own points, which rounding puts
    # about 1.9e-9 off the sphere, pass, and at R = 2^-20 a point 1e-3 R
    # off the sphere fails
    unit = _one_bubble_at_a_cube_centre(disk)
    want = whitney_sums(unit, uniform_boundary_grid(disk, 32), 1.5, 7)
    for k in (24, -20):
        s = 2.0**k
        domain = BallDomain(np.zeros(2), s)
        cfg = BubbleConfig(domain, unit.centers * s, unit.radii * s)
        points = uniform_boundary_grid(domain, 32)
        sums = whitney_sums(cfg, points, 1.5, 7 - k)
        assert sums.max_cubes_per_ball == want.max_cubes_per_ball
        assert sums.ratio_bound == want.ratio_bound
        assert sums.aikawa == pytest.approx(want.aikawa, rel=1e-12)
        with pytest.raises(ValueError, match="boundary sphere"):
            whitney_sums(cfg, points[:1] * (1.0 + 1e-3), 1.5, 7 - k)


def test_wiener_single_bubble_shell_membership(disk):
    # distance 0.3 from z: shell n = 1 (0.25 <= 0.3 < 0.5)
    cfg = BubbleConfig(disk, [[0.7, 0.0]], [0.01])
    sums = whitney_sums(cfg, [[1.0, 0.0]], 1.5, 7, n_max=10)
    assert np.flatnonzero(sums.wiener_shells[0]).tolist() == [1]
    assert _wiener_total(sums, 0)[1] > 0.0


def test_wiener_scales_only_the_shells_that_hold_a_bubble(disk):
    # 2^(n(d+a-2)) passes the float range for n near the largest n_max,
    # 1074, so scaling an empty shell would give 0 * inf = NaN there
    cfg = _one_bubble_at_a_cube_centre(disk)
    points = uniform_boundary_grid(disk, 8)
    want = whitney_sums(cfg, points, 1.5, 7, n_max=10)
    sums = whitney_sums(cfg, points, 1.5, 7, n_max=1074)
    assert sums.wiener[:, :11].tolist() == want.wiener.tolist()
    assert not sums.wiener[:, 11:].any() and not sums.wiener_shells[:, 11:].any()


def test_wiener_empty_and_far(disk):
    empty = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    assert _wiener_total(whitney_sums(empty, [[1.0, 0.0]], 1.5, 7), 0) == (0.0, 0.0)
    # at distance 1.5 >= 1/2 from z the bubble falls in no shell
    far = BubbleConfig(disk, [[-0.5, 0.0]], [0.01])
    sums = whitney_sums(far, [[1.0, 0.0]], 1.5, 7)
    assert not sums.wiener_shells.any()
    assert _wiener_total(sums, 0) == (0.0, 0.0)


def test_wiener_matches_aikawa_within_constant(disk):
    ratios = []
    for seed in range(10):
        cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=seed)
        z = np.array([1.0, 0.0])
        sums = whitney_sums(cfg, [z], 1.5, 7)
        ratios.append(_wiener_total(sums, 0)[1] / sums.aikawa[0, 1])
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 10.0


def _cap_bounds_by_dict(pos, lower, upper):
    """Reference for the Cap(A ∩ Q) bounds: a dict filled pair by pair."""
    caps = {}
    for p, lo, up in zip(pos.tolist(), lower.tolist(), upper.tolist()):
        caps[p] = (max(caps[p][0], lo), caps[p][1] + up) if p in caps else (lo, up)
    return caps


def test_cap_bounds_match_a_dict_filled_pair_by_pair():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(0, 80))
        pos = rng.integers(0, 15, n)
        # magnitudes over eight decades, so that the order of addition shows
        upper = 10.0 ** rng.uniform(-8.0, 0.0, n)
        lower = np.where(rng.uniform(size=n) < 0.3, 0.0, upper * rng.uniform(0.0, 2.0, n))
        # the pairs come in blocks, as a level's do
        cap_lower, cap_upper = np.zeros(15), np.zeros(15)
        cuts = np.sort(rng.integers(0, n + 1, 3))
        for b in np.split(np.arange(n), cuts):
            _add_cap_bounds(cap_lower, cap_upper, pos[b], lower[b], upper[b])
        np.minimum(cap_lower, cap_upper, out=cap_lower)
        want = _cap_bounds_by_dict(pos, lower, upper)
        assert sorted(want) == np.flatnonzero(np.bincount(pos, minlength=15)).tolist()
        assert [cap_upper[p] for p in want] == [up for _, up in want.values()]
        assert [cap_lower[p] for p in want] == [min(lo, up) for lo, up in want.values()]


def _aikawa_terms_per_cube(max_level, cfg, z, alpha):
    """Aikawa terms from scalar capacity bounds, one intersecting_cubes call
    per bubble: the reference the incidence reproduces bit for bit."""
    cube_map = {}
    for k in range(cfg.n):
        for row in intersecting_cubes(cfg.domain, max_level, cfg.centers[k],
                                      float(cfg.radii[k])).tolist():
            cube_map.setdefault(tuple(row), []).append(k)
    a, d = alpha, cfg.dimension
    terms = []
    for key in sorted(cube_map):   # (level, index) order
        level, idx = key[0], np.asarray(key[1:])
        side = 2.0**-level
        lo = idx * side
        hi = lo + side
        dist_boundary = float(whitney(cfg.domain, level, idx[None, :])[1][0])
        # capacity of a ball: r^(d-a)
        upper = sum(float(cfg.radii[k]) ** (d - a) for k in cube_map[key])
        lower = 0.0
        for k in cube_map[key]:
            c = cfg.centers[k]
            rho = min(float(cfg.radii[k]), float(min((c - lo).min(), (hi - c).min())))
            if rho > 0.0:
                lower = max(lower, rho ** (d - a))
        dzq = float(np.sqrt(((z - np.clip(z, lo, hi)) ** 2).sum()))
        w = dist_boundary ** (2.0 * (a - 1.0)) / dzq ** (d + a - 2.0)
        terms.append((min(lower, upper) * w, upper * w))
    return terms


def test_aikawa_terms_equal_the_scalar_envelopes_exactly(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=5)
    z = np.array([0.6, -0.8])
    expected = _aikawa_terms_per_cube(7, cfg, z, 1.3)
    # the in-memory oracle's terms, cube by cube, and the streamed total
    terms = oracle.aikawa_sum(oracle.ball_cube_incidence(disk, 7, cfg.centers, cfg.radii),
                              cfg, z, 1.3)
    assert list(zip(terms.term_lower.tolist(), terms.term_upper.tolist())) == expected
    sums = whitney_sums(cfg, [z], 1.3, 7)
    assert sums.n_cubes == len(expected)
    assert tuple(sums.aikawa[0].tolist()) == tuple(map(sum, zip(*expected)))


def _oracle_sums(max_level, cfg, points, alpha, n_max):
    inc = oracle.ball_cube_incidence(cfg.domain, max_level, cfg.centers, cfg.radii)
    return (
        [oracle.aikawa_sum(inc, cfg, z, alpha) for z in points],
        [oracle.wiener_dyadic_sum(inc, cfg, z, alpha, n_max) for z in points],
        oracle.quasi_additivity_interval(inc, cfg, alpha),
        oracle.max_cubes_per_ball(inc),
        oracle.bubble_cube_ratio_bound(inc, cfg, points),
    )


def _assert_sums_equal(sums, want):
    # the oracle keeps a trace per point; the sums keep arrays and the run's
    # counts once
    aikawa, wiener, qa, c2, c1 = want
    assert sums.aikawa.tolist() == [list(ref.total) for ref in aikawa]
    for ref in aikawa:
        assert sums.n_cubes == ref.cube_ids.size
        assert sums.n_uncovered == ref.uncovered_bubbles.size
        assert sums.n_above_small_radius == ref.n_above_small_radius
    assert len(sums.wiener) == len(wiener)
    for j, ref in enumerate(wiener):
        present = sums.wiener_shells[j]
        shells = np.flatnonzero(present)
        assert shells.tolist() == ref.shells.tolist()
        assert sums.wiener[j, shells, 0].tolist() == ref.term_lower.tolist()
        assert sums.wiener[j, shells, 1].tolist() == ref.term_upper.tolist()
        assert not sums.wiener[j, ~present].any()
        assert _wiener_total(sums, j) == ref.total
        assert shells[sums.truncated[shells]].tolist() == ref.truncated_shells.tolist()
    assert sums.quasi_additivity() == qa
    assert sums.max_cubes_per_ball == c2
    assert sums.ratio_bound == c1


# W2 (the unit disk, 6 shells) and a d=3 family with 3 shells, 5 and 8
# boundary points: the streamed sums must equal the in-memory oracle bit for bit
STREAM_CASES = [
    (2, ConstantProfile(0.1), 6, 35, 8, 1.5, 8),
    (3, ConstantProfile(0.3), 3, 35, 6, 1.5, 5),
]


@pytest.mark.parametrize("d,phi,shells,seed,max_level,alpha,grid", STREAM_CASES,
                         ids=["w2", "d3-3-shells"])
def test_streamed_sums_equal_the_in_memory_oracle(d, phi, shells, seed, max_level, alpha, grid):
    domain = BallDomain(np.zeros(d), 1.0)
    cfg = generate_shell_config(domain, phi, 0.5, shells, seed=seed)
    points = uniform_boundary_grid(domain, grid)
    sums = whitney_sums(cfg, points, alpha, max_level, n_max=24)
    assert sums.wiener_shells.sum() > grid
    assert 0 < sums.n_uncovered < cfg.n
    _assert_sums_equal(sums, _oracle_sums(max_level, cfg, points, alpha, 24))


# smaller grids and a coarser d=3 family: with blocks of 97 rows every
# pass still runs over many blocks
BLOCK_CASES = [
    (2, ConstantProfile(0.1), 6, 35, 8, 1.5, 4),
    (3, ConstantProfile(0.3), 3, 35, 5, 1.5, 3),
]


def _block_case_results(d, phi, shells, seed, max_level, alpha, grid):
    domain = BallDomain(np.zeros(d), 1.0)
    cfg = generate_shell_config(domain, phi, 0.5, shells, seed=seed)
    points = uniform_boundary_grid(domain, grid)
    sums = whitney_sums(cfg, points, alpha, max_level, n_max=24)
    report = classify_avoidability(cfg, alpha, points)
    cubes = whitney_module.decompose(domain, max_level)
    return sums, report.per_z_totals.tolist(), [idx.shape[0] for idx, _ in cubes.values()]


@pytest.fixture(scope="module")
def default_block_results():
    return [_block_case_results(*case) for case in BLOCK_CASES]


@pytest.mark.parametrize("module,name", [
    (criteria, "_ROW_BLOCK"),
    (whitney_module, "_BALL_BLOCK"),
    (whitney_module, "_CANDIDATE_CHUNK"),
    (kernels, "_POW_BLOCK"),
])
def test_block_sizes_change_no_result(module, name, monkeypatch, default_block_results):
    # every pass over bubbles, pairs, cubes, candidate boxes or powers, cut
    # into blocks of 97 rows, gives the same floats
    monkeypatch.setattr(module, name, 97)
    for case, (want, want_totals, want_counts) in zip(BLOCK_CASES, default_block_results):
        sums, totals, counts = _block_case_results(*case)
        assert totals == want_totals
        assert counts == want_counts
        for f in fields(WhitneySums):
            got, ref = getattr(sums, f.name), getattr(want, f.name)
            if isinstance(ref, np.ndarray):
                got, ref = got.tolist(), ref.tolist()
            assert got == ref, f.name


def test_quasi_additivity_interval_finite_and_ordered(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=1)
    lo, hi = whitney_sums(cfg, [], 1.5, 7).quasi_additivity()
    assert 0.0 < lo <= hi < math.inf


# -- aggregate classification ------------------------------------------------------

def test_classify_dense_shell_config_unavoidable(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 4, seed=0)
    grid = uniform_boundary_grid(disk, 16)
    report = classify_avoidability(cfg, 1.5, grid)
    assert report.aggregate == "unavoidable"
    assert report.verdict.tag == Verdict.DIVERGENT
    # one ratio per shell, each positive by the generator's spacing, which
    # a note gives as the reason the aggregate does not read them
    assert report.separation.shape == (4,)
    assert np.all(report.separation > 0.0)
    assert sum(note.startswith("separation: ") for note in report.notes) == 1


def test_classify_thin_profile_avoidable_candidate(disk):
    phi = PowerProfile(0.5)
    cfg = generate_shell_config(disk, phi, 0.5, 4, seed=0)
    grid = uniform_boundary_grid(disk, 16)
    report = classify_avoidability(cfg, 1.5, grid)
    assert report.aggregate == "avoidable-candidate"
    assert report.verdict.tag == Verdict.CONVERGENT


def test_classify_empty_config(disk):
    cfg = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    grid = uniform_boundary_grid(disk, 8)
    report = classify_avoidability(cfg, 1.5, grid)
    assert report.aggregate == "avoidable-candidate"


NO_RECORD = "no shell metadata (meta['phi'], meta['a']): truncated sums cannot decide divergence"


def test_classify_without_tail_model_is_inconclusive(disk):
    # the generator's record without its profile: the verdict reads the tail
    # only from the bubbles' own record, and the series totals remain
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=0)
    del cfg.meta["phi"]
    report = classify_avoidability(cfg, 1.5, uniform_boundary_grid(disk, 8))
    assert report.aggregate == "inconclusive"
    assert report.verdict.tag == Verdict.INCONCLUSIVE
    assert report.notes.count(NO_RECORD) == 1
    assert np.all(report.per_z_totals > 0)


def test_classify_without_shell_metadata_is_inconclusive(disk):
    # a tail model alone decides nothing: the analytic route is the shell series
    shells = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=0)
    for meta in (None, {"phi": ConstantProfile(0.3)}):
        cfg = BubbleConfig(disk, shells.centers, shells.radii, meta=meta)
        report = classify_avoidability(cfg, 1.5, uniform_boundary_grid(disk, 8))
        assert report.aggregate == "inconclusive"
        assert report.verdict.tag == Verdict.INCONCLUSIVE
        assert report.notes.count(NO_RECORD) == 1
        # no centre gaps recorded: the separation is not reported
        assert report.separation is None


def test_classify_rotation_symmetric_verdicts(tmp_path):
    # The analytic verdict does not depend on the boundary point, so
    # verdicts.json carries the report's one verdict, with its evidence, once,
    # and each grid point its own boundary series total.
    cfg = RunConfig.from_json({
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "constants": {"alpha": 1.5},
        "profile": {"kind": "constant", "c": 0.3},
        "shells": {"a": 0.5, "count": 3, "seed": 0},
        "whitney": {"max_level": 6},
        "criteria": {"grid": 32},
    })
    cmd_criteria(cfg, tmp_path)
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    per_z = verdicts["per_z"]
    config = generate_shell_config(cfg.domain, cfg.profile, 0.5, 3, seed=0)
    points = uniform_boundary_grid(cfg.domain, 32)
    report = classify_avoidability(config, cfg.alpha, points)
    assert report.verdict.tag == Verdict.DIVERGENT
    assert verdicts["verdict"] == report.verdict.to_json()
    assert set(verdicts["verdict"]["evidence"]) == {"rate", "log_power", "step_log"}
    assert [entry["z"] for entry in per_z] == points.tolist()
    assert [entry["partial_sum"] for entry in per_z] == [
        avoidability_series(config, z, 1.5).total for z in points]
    assert all(set(entry) == {"z", "partial_sum"} for entry in per_z)
