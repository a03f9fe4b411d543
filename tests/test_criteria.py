import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from champagne.bubbles import (
    BubbleConfig,
    ConstantProfile,
    LogProfile,
    LogWeight,
    OneWeight,
    PowerProfile,
    PowerWeight,
    generate_shell_config,
    separation_infimum,
)
import incidence_oracle as oracle
from champagne import criteria, kernels, whitney as whitney_module
from champagne.criteria import (
    DivergenceVerdict,
    Verdict,
    _add_cap_bounds,
    _classify_exponents,
    _first_appearance_total,
    _tail_exponents,
    aikawa_sum,
    avoidability_series,
    classify_avoidability,
    classify_shell_series,
    quasi_additivity_interval,
    uniform_boundary_grid,
    whitney_sums,
    wiener_dyadic_sum,
)
from champagne.geometry import BallDomain
from champagne.harness import RunConfig, cmd_criteria
from champagne.kernels import Constants
from champagne.whitney import ball_cube_incidence, intersecting_cubes, whitney


@pytest.fixture(scope="module")
def disk():
    return BallDomain(np.zeros(2), 1.0)


@pytest.fixture(scope="module")
def c15():
    return Constants(alpha=1.5)


def _inc(max_level, cfg):
    return ball_cube_incidence(cfg.domain, max_level, cfg.centers, cfg.radii)


# -- boundary grids --------------------------------------------------------------

def test_boundary_grid_points_lie_on_the_sphere():
    for d, n in ((2, 64), (3, 128)):
        points = uniform_boundary_grid(BallDomain(np.zeros(d), 1.0), n)
        assert points.shape == (n, d)
        assert np.allclose(np.sqrt((points**2).sum(axis=1)), 1.0, atol=1e-12)


# -- series ---------------------------------------------------------------------

def test_series_single_bubble_hand_value(disk):
    cfg = BubbleConfig(disk, [[0.9, 0.0]], [0.01])
    ev = avoidability_series(cfg, [1.0, 0.0], 1.5)
    # 0.1^1 * 0.01^0.5 / 0.1^1.5
    assert ev.terms[0] == pytest.approx(0.31622776601683794, rel=1e-12)
    assert ev.total == pytest.approx(ev.terms[0])


def test_series_empty_config(disk):
    cfg = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    ev = avoidability_series(cfg, [1.0, 0.0], 1.5)
    assert ev.total == 0.0


def test_series_partial_sums_monotone(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 4, seed=0)
    ev = avoidability_series(cfg, [0.0, 1.0], 1.5)
    assert np.all(np.diff(ev.partial_sums) >= 0)


def test_grouped_matches_naive_direct_sum(disk):
    # oracle: plain python accumulation in config order, against the series
    # total that avoidability_series accumulates shell group by shell group
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 6, seed=3)
    assert cfg.n > 10_000
    z = np.array([math.cos(0.3), math.sin(0.3)])
    alpha = 1.5
    naive = 0.0
    for k in range(cfg.n):
        delta = cfg.deltas[k]
        dist = math.sqrt(((cfg.centers[k] - z) ** 2).sum())
        naive += delta * cfg.radii[k] ** 0.5 / dist**1.5
    got = avoidability_series(cfg, z, alpha).total
    assert got == pytest.approx(naive, rel=1e-9)


# -- analytic classification --------------------------------------------------------

def _u_integrand(phi, weight, d, alpha):
    """The tail integrand phi(t)^(d-a) * M(t) / (1-t) in u = -log(1-t),
    which avoids the loss in 1 - exp(-u)."""
    def phi_u(u):
        if isinstance(phi, ConstantProfile):
            return phi.c
        if isinstance(phi, PowerProfile):
            return np.exp(-phi.beta * u)
        return (1.0 + u) ** (-phi.p)

    def m_u(u):
        if isinstance(weight, OneWeight):
            return 1.0
        if isinstance(weight, PowerWeight):
            return np.exp(weight.gamma * u)
        return (1.0 + u) ** weight.p

    return lambda u: phi_u(u) ** (d - alpha) * m_u(u)


def classify_radial_integral(phi, weight, d, alpha):
    """Oracle: the tail integral of phi(t)^(d-a) * M(t) / (1-t) over
    (1/2, 1), classified by the analytic reduction under u = -log(1-t), with
    the partial integrals up to 1 - eps for eps = 1e-3 .. 1e-12 as evidence."""
    rate, log_power, const = _tail_exponents(phi, weight, d, alpha)
    integrand = _u_integrand(phi, weight, d, alpha)
    t0 = 0.5
    u0 = -math.log(1.0 - t0)
    trace = [(10.0 ** (-k), quad(integrand, u0, -math.log(10.0 ** (-k)), limit=400)[0])
             for k in range(3, 13)]
    return DivergenceVerdict(
        _classify_exponents(rate, log_power),
        {"rate": rate, "log_power": log_power, "const": const, "quadrature": trace, "t0": t0},
        f"phi={type(phi).__name__}, M={type(weight).__name__}",
    )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_canonical_profiles_classified(d, alpha):
    one = OneWeight()
    for phi, tag in ((ConstantProfile(0.35), Verdict.DIVERGENT),
                     (PowerProfile(0.8), Verdict.CONVERGENT),
                     (LogProfile(1.0 / (d - alpha)), Verdict.DIVERGENT)):
        assert classify_radial_integral(phi, one, d, alpha).tag == tag
        assert classify_shell_series(phi, one, d, alpha, 0.5).tag == tag


def test_quadrature_trace_monotone_and_loglog_growth():
    d, alpha = 2, 1.5
    v = classify_radial_integral(LogProfile(1.0 / (d - alpha)), OneWeight(), d, alpha)
    trace = v.evidence["quadrature"]
    vals = [t[1] for t in trace]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # integrand reduces to 1/(1+u): partial integral log(1+U) - log(1+u0)
    u0 = -math.log(1.0 - v.evidence["t0"])
    for (eps, val) in trace:
        want = math.log(1.0 - math.log(eps)) - math.log(1.0 + u0)
        assert val == pytest.approx(want, rel=1e-6)


def test_convergent_quadrature_plateaus():
    v = classify_radial_integral(PowerProfile(1.0), OneWeight(), 2, 1.5)
    vals = [t[1] for t in v.evidence["quadrature"]]
    assert vals[-1] - vals[-2] < 1e-4 * vals[-1]


def test_weight_shifts_the_verdict():
    # (1-t)^0.8 alone converges; a strong power weight restores divergence;
    # borderline log cases are decided by the log-power rule: (1+u)^-1 still
    # diverges, (1+u)^-2 converges
    d, alpha = 2, 1.5
    for phi, weight, tag in ((PowerProfile(0.8), OneWeight(), Verdict.CONVERGENT),
                             (PowerProfile(0.8), PowerWeight(1.0), Verdict.DIVERGENT),
                             (LogProfile(4.0), LogWeight(1.0), Verdict.DIVERGENT),
                             (LogProfile(6.0), LogWeight(1.0), Verdict.CONVERGENT)):
        assert classify_shell_series(phi, weight, d, alpha, 0.5).tag == tag
        assert classify_radial_integral(phi, weight, d, alpha).tag == tag


PAIRS = [
    (ConstantProfile(0.2), OneWeight()),
    (ConstantProfile(0.4), OneWeight()),
    (ConstantProfile(0.3), PowerWeight(0.5)),
    (ConstantProfile(0.3), LogWeight(1.0)),
    (PowerProfile(0.5), OneWeight()),
    (PowerProfile(1.0), OneWeight()),
    (PowerProfile(1.0), PowerWeight(0.25)),
    (PowerProfile(1.0), PowerWeight(2.0)),
    (PowerProfile(2.0), LogWeight(2.0)),
    (LogProfile(1.0), OneWeight()),
    (LogProfile(2.0), OneWeight()),
    (LogProfile(2.0), LogWeight(1.0)),
    (LogProfile(4.0), OneWeight()),
]


@pytest.mark.parametrize("phi,weight", PAIRS)
def test_shell_series_agrees_with_integral(phi, weight):
    for d, alpha in ((2, 1.5), (3, 1.3)):
        for a in (0.3, 0.5, 0.7):
            s = classify_shell_series(phi, weight, d, alpha, a)
            i = classify_radial_integral(phi, weight, d, alpha)
            assert s.tag == i.tag


# -- whitney sums ---------------------------------------------------------------------

def test_aikawa_empty_config(disk, c15):
    cfg = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    trace = aikawa_sum(_inc(7, cfg), cfg, [1.0, 0.0], c15)
    assert trace.total == (0.0, 0.0)
    assert trace.uncovered_bubbles.size == 0


def test_aikawa_single_bubble_hand_bound(disk, c15):
    # center the bubble inside a cube so the lower envelope is positive
    x = np.array([0.53, 0.01])
    level = next(lev for lev in range(8) if whitney(
        disk, lev, np.floor(x / 2.0**-lev).astype(np.int64)[None, :])[0][0])
    center = (np.floor(x / 2.0**-level) + 0.5) * 2.0**-level
    cfg = BubbleConfig(disk, [center], [0.01])
    z = np.array([-1.0, 0.0])
    trace = aikawa_sum(_inc(7, cfg), cfg, z, c15)
    assert trace.total[0] > 0.0
    c2 = intersecting_cubes(disk, 7, cfg.centers[0], 0.01).shape[0]
    C1 = whitney_sums(_inc(7, cfg), cfg, z[None, :], c15).ratio_bound
    alpha, d = 1.5, 2
    delta = float(cfg.deltas[0])
    dist = float(np.sqrt(((center - z) ** 2).sum()))
    hand = (
        c2
        * c15.C
        * 0.01 ** (d - alpha)
        * C1 ** ((2 * alpha - 2) + (d + alpha - 2))
        * delta ** (2 * alpha - 2)
        / dist ** (d + alpha - 2)
    )
    assert trace.total[1] <= hand * (1 + 1e-9)


def test_aikawa_subconfig_ordering(disk, c15):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=4)
    half = BubbleConfig(
        disk, cfg.centers[::2], cfg.radii[::2], validate=False
    )
    z = np.array([0.0, -1.0])
    full = aikawa_sum(_inc(7, cfg), cfg, z, c15)
    sub = aikawa_sum(_inc(7, half), half, z, c15)
    assert sub.total[1] <= full.total[1] * (1 + 1e-12)


def test_aikawa_warns_below_collar(disk, c15):
    cfg = BubbleConfig(disk, [[0.9, 0.0]], [0.001])
    # coarse: collar depth ~0.44
    trace = aikawa_sum(_inc(4, cfg), cfg, [1.0, 0.0], c15)
    assert trace.uncovered_bubbles.tolist() == [0]
    assert any("collar" in w for w in trace.warnings)


def test_aikawa_rejects_interior_z(disk, c15):
    cfg = BubbleConfig(disk, [[0.5, 0.0]], [0.01])
    with pytest.raises(ValueError, match="boundary"):
        aikawa_sum(_inc(7, cfg), cfg, [0.5, 0.5], c15)


def test_wiener_single_bubble_shell_membership(disk, c15):
    # distance 0.3 from z: shell n = 1 (0.25 <= 0.3 < 0.5)
    cfg = BubbleConfig(disk, [[0.7, 0.0]], [0.01])
    trace = wiener_dyadic_sum(_inc(7, cfg), cfg, [1.0, 0.0], c15, n_max=10)
    assert trace.shells.tolist() == [1]
    assert trace.total[1] > 0.0


def test_wiener_empty_and_far(disk, c15):
    empty = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    trace = wiener_dyadic_sum(_inc(7, empty), empty, [1.0, 0.0], c15)
    assert trace.total == (0.0, 0.0)
    # at distance 1.5 >= 1/2 from z the bubble falls in no shell
    far = BubbleConfig(disk, [[-0.5, 0.0]], [0.01])
    trace = wiener_dyadic_sum(_inc(7, far), far, [1.0, 0.0], c15)
    assert trace.shells.size == 0
    assert trace.total == (0.0, 0.0)


def test_wiener_matches_aikawa_within_constant(disk, c15):
    ratios = []
    for seed in range(10):
        cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=seed)
        z = np.array([1.0, 0.0])
        a = aikawa_sum(_inc(7, cfg), cfg, z, c15)
        w = wiener_dyadic_sum(_inc(7, cfg), cfg, z, c15)
        ratios.append(w.total[1] / a.total[1])
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


def test_first_appearance_total_adds_in_the_order_of_a_loop_over_the_pairs():
    # cubes numbered level by level; each cube's term is added where its first
    # pair comes among the pairs sorted by bubble and then by cube
    rng = np.random.default_rng(13)
    for _ in range(100):
        n_cubes = int(rng.integers(1, 40))
        pairs = sorted({(int(rng.integers(0, 12)), c) for c in range(n_cubes)}
                       | {(int(rng.integers(0, 12)), int(rng.integers(0, n_cubes)))
                          for _ in range(int(rng.integers(0, 60)))})
        lower = 10.0 ** rng.uniform(-8.0, 0.0, n_cubes)
        upper = lower * 10.0 ** rng.uniform(0.0, 2.0, n_cubes)
        first = {}
        for ball, cube in pairs:
            first.setdefault(cube, ball)
        want = (0.0, 0.0)
        for cube in first:   # dict order: order of first appearance
            want = want[0] + lower[cube], want[1] + upper[cube]
        first_ball = np.array([first[c] for c in range(n_cubes)])
        cuts = np.sort(rng.integers(0, n_cubes + 1, 2))
        parts = [(first_ball[b], lower[b], upper[b]) for b in np.split(np.arange(n_cubes), cuts)]
        assert _first_appearance_total(parts) == want


def _aikawa_terms_per_cube(max_level, cfg, z, consts):
    """Aikawa terms from scalar envelopes, one intersecting_cubes call per
    bubble: the reference the incidence reproduces bit for bit."""
    cube_map = {}
    for k in range(cfg.n):
        for row in intersecting_cubes(cfg.domain, max_level, cfg.centers[k],
                                      float(cfg.radii[k])).tolist():
            cube_map.setdefault(tuple(row), []).append(k)
    a, d = consts.alpha, cfg.dimension
    terms = []
    for key in sorted(cube_map):   # (level, index) order
        level, idx = key[0], np.asarray(key[1:])
        side = 2.0**-level
        lo = idx * side
        hi = lo + side
        dist_boundary = float(whitney(cfg.domain, level, idx[None, :])[1][0])
        # capacity envelope of a ball: [r^(d-a)/C, C r^(d-a)]
        upper = sum(float(cfg.radii[k]) ** (d - a) * consts.C for k in cube_map[key])
        lower = 0.0
        for k in cube_map[key]:
            c = cfg.centers[k]
            rho = min(float(cfg.radii[k]), float(min((c - lo).min(), (hi - c).min())))
            if rho > 0.0:
                lower = max(lower, rho ** (d - a) / consts.C)
        dzq = float(np.sqrt(((z - np.clip(z, lo, hi)) ** 2).sum()))
        w = dist_boundary ** (2.0 * (a - 1.0)) / dzq ** (d + a - 2.0)
        terms.append((min(lower, upper) * w, upper * w))
    return terms


def test_aikawa_terms_equal_the_scalar_envelopes_exactly(disk):
    consts = Constants(alpha=1.3, C=2.0)
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=5)
    z = np.array([0.6, -0.8])
    expected = _aikawa_terms_per_cube(7, cfg, z, consts)
    # the in-memory oracle's terms, cube by cube, and the streamed total
    terms = oracle.aikawa_sum(oracle.ball_cube_incidence(disk, 7, cfg.centers, cfg.radii),
                              cfg, z, consts)
    assert list(zip(terms.term_lower.tolist(), terms.term_upper.tolist())) == expected
    trace = aikawa_sum(_inc(7, cfg), cfg, z, consts)
    assert trace.cube_ids.tolist() == list(range(len(expected)))
    assert trace.total == tuple(map(sum, zip(*expected)))


def _oracle_sums(max_level, cfg, points, consts, n_max):
    inc = oracle.ball_cube_incidence(cfg.domain, max_level, cfg.centers, cfg.radii)
    return (
        [oracle.aikawa_sum(inc, cfg, z, consts) for z in points],
        [oracle.wiener_dyadic_sum(inc, cfg, z, consts, n_max) for z in points],
        oracle.quasi_additivity_interval(inc, cfg, consts),
        oracle.max_cubes_per_ball(inc),
        oracle.bubble_cube_ratio_bound(inc, cfg, points),
    )


def _assert_sums_equal(sums, want):
    aikawa, wiener, qa, c2, c1 = want
    for got, ref in zip(sums.aikawa, aikawa, strict=True):
        assert got.total == ref.total
        assert got.n_cubes == ref.cube_ids.size
        assert np.array_equal(got.uncovered_bubbles, ref.uncovered_bubbles)
        assert got.warnings == ref.warnings
    for got, ref in zip(sums.wiener, wiener, strict=True):
        assert got.shells.tolist() == ref.shells.tolist()
        assert got.term_lower.tolist() == ref.term_lower.tolist()
        assert got.term_upper.tolist() == ref.term_upper.tolist()
        assert got.total == ref.total
        assert got.truncated_shells.tolist() == ref.truncated_shells.tolist()
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
    consts = Constants(alpha=alpha, C=2.0)
    points = uniform_boundary_grid(domain, grid)
    sums = whitney_sums(_inc(max_level, cfg), cfg, points, consts, n_max=24)
    assert sum(s.shells.size for s in sums.wiener) > grid
    assert 0 < sums.aikawa[0].uncovered_bubbles.size < cfg.n
    _assert_sums_equal(sums, _oracle_sums(max_level, cfg, points, consts, 24))


# smaller grids and a coarser d=3 family: with blocks of 97 rows every
# pass still runs over many blocks
BLOCK_CASES = [
    (2, ConstantProfile(0.1), 6, 35, 8, 1.5, 4),
    (3, ConstantProfile(0.3), 3, 35, 5, 1.5, 3),
]


def _block_case_results(d, phi, shells, seed, max_level, alpha, grid):
    domain = BallDomain(np.zeros(d), 1.0)
    cfg = generate_shell_config(domain, phi, 0.5, shells, seed=seed)
    consts = Constants(alpha=alpha, C=2.0)
    points = uniform_boundary_grid(domain, grid)
    sums = whitney_sums(_inc(max_level, cfg), cfg, points, consts, n_max=24)
    report = classify_avoidability(cfg, consts, points, phi)
    return sums, report.per_z_totals.tolist(), whitney_module.cube_counts(domain, max_level)


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
        _assert_sums_equal(sums, (want.aikawa, want.wiener, want.quasi_additivity(),
                                  want.max_cubes_per_ball, want.ratio_bound))


def test_quasi_additivity_interval_finite_and_ordered(disk, c15):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=1)
    lo, hi = quasi_additivity_interval(_inc(7, cfg), cfg, c15)
    assert 0.0 < lo <= hi < math.inf


# -- aggregate classification ------------------------------------------------------

def test_classify_dense_shell_config_unavoidable(disk, c15):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 4, seed=0)
    grid = uniform_boundary_grid(disk, 16)
    report = classify_avoidability(cfg, c15, grid, ConstantProfile(0.3))
    assert report.aggregate == "unavoidable"
    assert report.verdict.tag == Verdict.DIVERGENT
    assert report.separation > 0.0


def test_classify_thin_profile_avoidable_candidate(disk, c15):
    phi = PowerProfile(0.5)
    cfg = generate_shell_config(disk, phi, 0.5, 4, seed=0)
    grid = uniform_boundary_grid(disk, 16)
    report = classify_avoidability(cfg, c15, grid, phi)
    assert report.aggregate == "avoidable-candidate"
    assert report.verdict.tag == Verdict.CONVERGENT


def test_classify_empty_config(disk, c15):
    cfg = BubbleConfig(disk, np.empty((0, 2)), np.empty(0))
    grid = uniform_boundary_grid(disk, 8)
    report = classify_avoidability(cfg, c15, grid)
    assert report.aggregate == "avoidable-candidate"


def test_classify_without_tail_model_is_inconclusive(disk, c15):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=0)
    grid = uniform_boundary_grid(disk, 8)
    report = classify_avoidability(cfg, c15, grid)
    assert report.aggregate == "inconclusive"
    assert report.verdict.tag == Verdict.INCONCLUSIVE
    assert "no tail model given: truncated sums cannot decide divergence" in report.notes
    assert np.all(report.per_z_totals > 0)


def test_classify_without_shell_metadata_is_inconclusive(disk, c15):
    # a tail model alone decides nothing: the analytic route is the shell series
    shells = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=0)
    cfg = BubbleConfig(disk, shells.centers, shells.radii)
    grid = uniform_boundary_grid(disk, 8)
    report = classify_avoidability(cfg, c15, grid, ConstantProfile(0.3))
    assert report.aggregate == "inconclusive"
    assert report.verdict.tag == Verdict.INCONCLUSIVE
    assert "no shell metadata (meta['a']): truncated sums cannot decide divergence" in report.notes
    assert report.separation == separation_infimum(shells, c15.alpha) > 0.0


def test_classify_rotation_symmetric_verdicts(tmp_path):
    # The analytic verdict does not depend on the boundary point, so
    # verdicts.json carries the report's one verdict at every grid point,
    # each with its own boundary series total.
    cfg = RunConfig.from_json({
        "domain": {"center": [0.0, 0.0], "radius": 1.0},
        "constants": {"alpha": 1.5},
        "profile": {"kind": "constant", "c": 0.3},
        "shells": {"a": 0.5, "count": 3, "seed": 0},
        "whitney": {"max_level": 6},
        "criteria": {"grid": 32},
    })
    cmd_criteria(cfg, tmp_path)
    per_z = json.loads((tmp_path / "verdicts.json").read_text())["per_z"]
    config = generate_shell_config(cfg.domain, cfg.profile, 0.5, 3, seed=0)
    points = uniform_boundary_grid(cfg.domain, 32)
    report = classify_avoidability(config, cfg.constants, points, cfg.profile)
    assert report.verdict.tag == Verdict.DIVERGENT
    assert [entry["z"] for entry in per_z] == points.tolist()
    assert {(entry["tag"], entry["tail_model"]) for entry in per_z} == {
        (report.verdict.tag.value, report.verdict.tail_model)}
    assert [entry["evidence"] for entry in per_z] == [
        {"partial_sum": avoidability_series(config, z, 1.5).total} for z in points]
