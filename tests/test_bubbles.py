import csv
import hashlib
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from champagne.bubbles import (
    BubbleConfig,
    ConstantProfile,
    LogProfile,
    PowerProfile,
    RadialProfile,
    _CENTER_GAP_FACTOR,
    _fibonacci_sphere,
    generate_shell_config,
    shell_radii,
)
from champagne.criteria import classify_avoidability
from champagne.geometry import BallDomain


@pytest.fixture(scope="module")
def disk():
    return BallDomain(np.zeros(2), 1.0)


# -- shell radii ------------------------------------------------------------

def test_shell_radii_hand_values():
    t = shell_radii(0.5, 3)
    assert t[0] == pytest.approx(1.0 - 0.5 / 3.0, abs=1e-12)      # 0.833333
    assert t[1] == pytest.approx(1.0 - 0.5 / 9.0, abs=1e-12)      # 0.944444
    assert t[2] == pytest.approx(1.0 - 0.5 / 27.0, abs=1e-12)     # 0.981481


def test_shell_radii_recursion():
    for a in (0.2, 0.5, 0.8):
        t = shell_radii(a, 12)
        step = 2.0 * a / (1.0 + a)
        for i in range(len(t) - 1):
            assert t[i + 1] - t[i] == pytest.approx(step * (1.0 - t[i]), abs=1e-12)


# -- profiles -----------------------------------------------------------------

def test_profiles_decreasing_in_range():
    grid = np.linspace(0.01, 0.999, 200)
    for phi in (ConstantProfile(0.4), PowerProfile(0.7), LogProfile(2.0)):
        vals = phi(grid)
        assert np.all((vals > 0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 1e-15)


@pytest.mark.parametrize("base, obj, family", [
    (RadialProfile, {"kind": "constant", "c": 0.25}, ConstantProfile(0.25)),
    (RadialProfile, {"kind": "power", "beta": 1.5}, PowerProfile(1.5)),
    (RadialProfile, {"kind": "log", "p": 2.0}, LogProfile(2.0)),
])
def test_every_family_round_trips_through_json(base, obj, family):
    assert base.from_json(obj) == family
    assert family.to_json() == obj and list(family.to_json()) == list(obj)
    assert type(family(0.5)) is float and family(np.full((2, 3), 0.5)).shape == (2, 3)


# -- config invariants ---------------------------------------------------------

def test_config_rejects_overlap(disk):
    with pytest.raises(ValueError, match="not disjoint"):
        BubbleConfig(disk, [[0.0, 0.0], [0.05, 0.0]], [0.04, 0.04])


def test_config_rejects_fat_ratio(disk):
    with pytest.raises(ValueError, match="ratio_sup"):
        BubbleConfig(disk, [[0.0, 0.0]], [0.6])


def test_config_rejects_zero_radius(disk):
    # also without the disjointness check, which hand-built incidences skip
    for validate in (True, False):
        with pytest.raises(ValueError, match="bubble radii must be > 0"):
            BubbleConfig(disk, [[0.0, 0.0], [0.5, 0.0]], [0.01, 0.0], validate=validate)


def test_config_rejects_escaping_bubble(disk):
    with pytest.raises(ValueError, match="inside"):
        BubbleConfig(disk, [[0.95, 0.0]], [0.2])


def test_disjointness_slack_reported(disk):
    cfg = BubbleConfig(disk, [[0.3, 0.0], [-0.3, 0.0]], [0.01, 0.01])
    rep = cfg.disjointness_report()
    assert rep["slack"] == 1e-12
    assert rep["violations"] == []


def _disjointness_by_all_pairs(cfg, slack):
    """Violations and least margin over every pair, one pair at a time."""
    violations, min_margin = [], math.inf
    for j in range(cfg.n):
        for k in range(j + 1, cfg.n):
            dsq = float(((cfg.centers[j] - cfg.centers[k]) ** 2).sum())
            rsum = float(cfg.radii[j] + cfg.radii[k])
            min_margin = min(min_margin, math.sqrt(dsq) - rsum)
            if dsq <= (rsum + slack) ** 2:
                violations.append((j, k))
    return violations, min_margin


def _overlapping_family(rng, d):
    centers = rng.uniform(-0.35, 0.35, (250, d))
    radii = 10.0 ** rng.uniform(-4, -1.7, 250)
    # partners touching a ball, half and twice the slack off its surface, and
    # one overlapping it by 1e-3
    extra_c, extra_r = [], []
    for i, gap in enumerate([0.0, 5e-13, 2e-12, -1e-3, 0.0, 5e-13, 2e-12]):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        r = 10.0 ** rng.uniform(-4, -2)
        extra_c.append(centers[i] + (radii[i] + r + gap) * u)
        extra_r.append(r)
    return np.vstack([centers, extra_c]), np.concatenate([radii, extra_r])


def _dense_multiclass_family(rng, d):
    # radii over five binary classes, packed so that balls of every class overlap
    n = 400
    return rng.uniform(-0.1, 0.1, (n, d)), 2.0 ** rng.uniform(-10, -5, n)


def _touching_powers_of_two_family(rng, d):
    # radii 2^-4 .. 2^-9; each ball sits along an axis from an earlier ball of
    # another class, touching it, or half or twice the slack off its surface
    centers, radii = [np.zeros(d)], [2.0**-4]
    for i in range(60):
        k = int(rng.integers(0, len(radii)))
        r = 2.0 ** -int(rng.choice([e for e in range(4, 10) if 2.0**-e != radii[k]]))
        axis = np.zeros(d)
        axis[rng.integers(0, d)] = rng.choice([-1.0, 1.0])
        gap = [0.0, 5e-13, 2e-12][i % 3]
        centers.append(centers[k] + (radii[k] + r + gap) * axis)
        radii.append(r)
    return np.vstack(centers), np.asarray(radii)


@pytest.mark.parametrize("d", [2, 3])
def test_disjointness_report_matches_all_pairs_with_overlaps(d):
    rng = np.random.default_rng(d)
    for family in (_overlapping_family, _dense_multiclass_family,
                   _touching_powers_of_two_family):
        centers, radii = family(rng, d)
        cfg = BubbleConfig(BallDomain(np.zeros(d), 1.0), centers, radii, validate=False)
        rep = cfg.disjointness_report()
        violations, min_margin = _disjointness_by_all_pairs(cfg, rep["slack"])
        assert len(violations) >= 5
        assert rep["violations"] == violations
        assert rep["min_margin"] == min_margin


# -- generator -----------------------------------------------------------------

def test_generator_ratio_equals_phi(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.4), 0.5, 3, seed=1)
    assert cfg.ratio_sup == pytest.approx(0.4, rel=1e-9)


def test_generator_shells_match_formula(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 4, seed=1)
    t = shell_radii(0.5, 4)
    norms = np.sqrt((cfg.centers**2).sum(axis=1))
    for i in range(4):
        got = norms[cfg.shell_ids == i]
        assert np.allclose(got, t[i], atol=1e-12)


def test_generator_disjointness_bruteforce_oracle(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.4), 0.5, 4, seed=2)
    c, r = cfg.centers, cfg.radii
    dsq = ((c[:, None, :] - c[None, :, :]) ** 2).sum(-1)
    lim = (r[:, None] + r[None, :]) ** 2
    np.fill_diagonal(dsq, np.inf)
    assert np.all(dsq > lim)


def test_generator_determinism_and_jitter(disk):
    a = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=5)
    b = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=5)
    c = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=6)
    assert np.array_equal(a.centers, b.centers)
    assert not np.array_equal(a.centers, c.centers)


# The generator's arrays and coverage parameter for the W2 disk and a d=3
# ball; every rewrite of the generator must reproduce them bit for bit.
@pytest.mark.parametrize("d, c, shells, digest", [
    (2, 0.1, 6, "f24d55e6411856f29462c4aaf8d35f8bdd7c8a9fe394528eb4ebf47fb04ed2f8"),
    (3, 0.3, 3, "1d870a58c12d155b7f15021a6adf48e217d85e9758302d1aa960f78aa9a668b2"),
], ids=["disk", "ball"])
def test_generator_reproduces_pinned_digests(d, c, shells, digest):
    cfg = generate_shell_config(BallDomain(np.zeros(d), 1.0), ConstantProfile(c), 0.5, shells,
                                seed=35)
    h = hashlib.sha256()
    for a in (cfg.centers, cfg.radii, cfg.shell_ids, cfg.deltas):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(float(cfg.meta["coverage_a"]).hex().encode())
    assert h.hexdigest() == digest


def test_generator_coverage_at_reported_parameter(disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 5, seed=2)
    ca = cfg.meta["coverage_a"]
    assert 0.0 < ca < 1.0
    t = cfg.meta["t"]
    rng = np.random.default_rng(11)
    n = 10_000
    radii = rng.uniform(t[0], t[-1], n)
    dirs = rng.standard_normal((n, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = radii[:, None] * dirs
    nearest, _ = cKDTree(cfg.centers).query(pts, k=1)
    assert np.all(nearest < ca * (1.0 - radii))


def test_generator_rejects_bad_inputs(disk):
    with pytest.raises(ValueError, match="1/2"):
        generate_shell_config(disk, ConstantProfile(0.6), 0.5, 2)
    with pytest.raises(ValueError):
        generate_shell_config(disk, ConstantProfile(0.3), 1.5, 2)
    with pytest.raises(ValueError, match="unit ball"):
        generate_shell_config(BallDomain(np.zeros(2), 2.0), ConstantProfile(0.3), 0.5, 2)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [None, -1, 2**64])
def test_generator_refuses_a_seed_that_is_not_a_non_negative_int(d, seed):
    # reduced to 64 bits, -1 and 2**64 would alias the seeds 2**64 - 1 and 0
    with pytest.raises(ValueError, match="non-negative integer"):
        generate_shell_config(BallDomain(np.zeros(d), 1.0), ConstantProfile(0.3), 0.5, 2,
                              seed=seed)


def test_generator_d3(monkeypatch):
    ball = BallDomain(np.zeros(3), 1.0)
    cfg = generate_shell_config(ball, ConstantProfile(0.3), 0.5, 2, seed=3)
    assert cfg.dimension == 3
    assert cfg.ratio_sup < 0.5
    assert cfg.disjointness_report()["violations"] == []


# -- centre gaps and separation ---------------------------------------------------

def _separation(cfg, alpha=1.5):
    """The per-shell separation ratios that the criteria read from the
    configuration's centre gaps."""
    return classify_avoidability(cfg, alpha, np.empty((0, cfg.dimension))).separation


def test_separation_hand_value(disk):
    # shell 1 of phi = 0.1 at a = 0.5: t = 5/6, u = 1/6, r = u/10, and the
    # spacing a*u/2 = 1/24 gives ceil(2*pi*t*24) = 126 centres, whose chord
    # 2t*sin(pi/126) = 0.04155 is below the radial gap 1/9 to shell 2
    cfg = generate_shell_config(disk, ConstantProfile(0.1), 0.5, 2, seed=0)
    assert np.count_nonzero(cfg.shell_ids == 0) == 126
    chord = 2.0 * (5.0 / 6.0) * math.sin(math.pi / 126)
    assert cfg.meta["center_gap"][0] == pytest.approx(chord * (1.0 - 1e-9), rel=1e-15)
    got = _separation(cfg)[0]
    assert got == pytest.approx(chord / ((1.0 / 60.0) ** 0.25 * (1.0 / 6.0) ** 0.75), rel=1e-8)
    assert got == pytest.approx(0.44334, rel=1e-5)
    # phi = 0.4 spaces shell 1 wider than the radial gap 1/9, which bounds
    # it: (1/9) / ((0.4/6)^(1/4) (1/6)^(3/4)) = (2/3) / 0.4^(1/4)
    cfg = generate_shell_config(disk, ConstantProfile(0.4), 0.5, 2, seed=0)
    assert cfg.meta["center_gap"][0] == pytest.approx(1.0 / 9.0, rel=1e-8)
    assert _separation(cfg)[0] == pytest.approx((2.0 / 3.0) / 0.4**0.25, rel=1e-8)
    assert _separation(cfg)[0] == pytest.approx(0.83829, rel=1e-5)


@pytest.fixture(scope="module")
def w2(disk):
    """The W2 disk of the benchmark: 6 shells of phi = 0.1 at seed 35."""
    return generate_shell_config(disk, ConstantProfile(0.1), 0.5, 6, seed=35)


def test_separation_of_w2_seed_35_is_pinned(w2):
    # the least ratio is shell 1's closed-form chord; measured over every
    # centre it is 0.4433373579584104, 1.0e-9 of it above the bound
    assert w2.n == 54_743
    got = _separation(w2)
    assert got.min() == got[0] == 0.44333735751508757
    assert 0.4433373579584104 * (1.0 - 1e-8) < got[0] < 0.4433373579584104


def test_bytes_per_bubble_of_w2(w2):
    # what a configuration keeps for each bubble: centres, radii, int32
    # shell labels and distances to the boundary, 36 bytes; and its index,
    # per radius class the int32 ids, the int64 keys of the occupied cells
    # and the int32 starts of their runs, 13.7 bytes on W2
    kept = [a for a in vars(w2).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in kept) == 36 * w2.n
    grids = w2.index._grids
    for g in grids:
        assert (g.ids.dtype, g.cells.dtype, g.starts.dtype) == (np.int32, np.int64, np.int32)
    index = sum(g.ids.nbytes + g.cells.nbytes + g.starts.nbytes for g in grids)
    assert index / w2.n < 14.0
    assert w2.shell_ids.dtype == np.int64


SEPARATION_FAMILIES = (
    # the roadmap's table of per-shell separation minima, at seed 35
    [(2, ConstantProfile(0.1), 0.5, 8, 35), (2, PowerProfile(1.0), 0.5, 8, 35),
     (2, LogProfile(2.0), 0.5, 8, 35), (2, ConstantProfile(0.4), 0.5, 8, 35),
     (3, ConstantProfile(0.3), 0.5, 3, 35)]
    + [(3, ConstantProfile(c), 0.5, shells, seed)
       for c, shells in ((0.3, 2), (0.3, 3), (0.4, 3), (0.1, 2))
       for seed in (1, 35, 36, 101) if (c, shells, seed) != (0.3, 3, 35)]
    # every shell bound by a radial gap, the last by its inner one
    + [(2, ConstantProfile(0.0195), 0.02, 3, 35)]
)


@pytest.mark.parametrize(
    "d, phi, a, shells, seed", SEPARATION_FAMILIES,
    ids=[f"d{d}-{phi.kind}{getattr(phi, phi.param)}-a{a}-{shells}-seed{seed}"
         for d, phi, a, shells, seed in SEPARATION_FAMILIES])
def test_separation_bounds_the_kd_tree_minimum_of_each_shell(d, phi, a, shells, seed):
    # Per shell, the least |x_j - x_k| / (r_k^(1-a/d) delta_k^(a/d)) over its
    # bubbles k, with each centre's nearest other centre from a KD-tree.  The
    # closed form is at most that on every shell.  Where the d=2 chord is
    # below both radial gaps it is the chord and within 1e-8 of it; the
    # radial gaps (measured within 3e-5) and the d=3 lattice factor
    # (measured 1.0384) are within a factor 2.
    alpha = 1.5
    cfg = generate_shell_config(BallDomain(np.zeros(d), 1.0), phi, a, shells, seed=seed)
    nearest = cKDTree(cfg.centers).query(cfg.centers, k=2)[0][:, 1]
    ratio = nearest / (cfg.radii ** (1.0 - alpha / d) * cfg.deltas ** (alpha / d))
    oracle = np.full(shells, np.inf)
    np.minimum.at(oracle, cfg.shell_ids, ratio)
    bound = _separation(cfg, alpha)
    assert np.all(bound > 0.0)
    assert np.all(bound <= oracle)
    assert np.all(oracle <= 2.0 * bound)
    t = np.asarray(cfg.meta["t"])
    radial = np.diff(t)
    chord = 2.0 * t * np.sin(np.pi / np.bincount(cfg.shell_ids))
    exact = (d == 2) & (chord <= np.minimum(np.append(np.inf, radial), np.append(radial, np.inf)))
    assert np.all(oracle[exact] <= bound[exact] * (1.0 + 1e-8))


def test_fibonacci_lattice_neighbours_lie_beyond_the_center_gap_factor():
    # a d=3 shell's centre gap is _CENTER_GAP_FACTOR times the mean spacing
    # sqrt(4*pi*t^2/n): the nearest pair of every lattice of 4 to 4,096
    # points is farther apart.  The least factor is n = 4's, below the
    # generator's spacing factor 0.85.
    factors = []
    for n in range(4, 4097):
        p = _fibonacci_sphere(n)
        factors.append(cKDTree(p).query(p, k=2)[0][:, 1].min() / math.sqrt(4.0 * math.pi / n))
    assert min(factors) >= _CENTER_GAP_FACTOR
    assert min(factors) == factors[0] == pytest.approx(0.8487, abs=1e-4)
    assert min(factors[1:]) == pytest.approx(0.8684, abs=1e-4)


# -- serialization ------------------------------------------------------------------

def _read_csv(path):
    """The (k, x_1..x_d, r) table that ``to_csv`` wrote."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=range(4))


def test_csv_round_trip(tmp_path, disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=9)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    cfg.to_csv(p1)
    table = _read_csv(p1)
    assert np.array_equal(table[:, 0], np.arange(cfg.n))
    assert np.array_equal(table[:, 1:-1], cfg.centers)
    assert np.array_equal(table[:, -1], cfg.radii)
    BubbleConfig(disk, table[:, 1:-1], table[:, -1]).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_bytes_equal_the_csv_module_writer(tmp_path, disk):
    cfg = generate_shell_config(disk, ConstantProfile(0.1), 0.5, 4, seed=2)
    assert cfg.n > 4096  # more than one block of rows
    cfg.to_csv(tmp_path / "a.csv")
    with open(tmp_path / "b.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "x_1", "x_2", "r"])
        for k in range(cfg.n):
            w.writerow([k] + [repr(float(c)) for c in cfg.centers[k]] + [repr(float(cfg.radii[k]))])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_header_only_file_reads_as_no_bubbles(tmp_path, disk):
    p = tmp_path / "empty.csv"
    BubbleConfig(disk, np.empty((0, 2)), np.empty(0)).to_csv(p)
    assert p.read_bytes() == b"k,x_1,x_2,r\r\n"
    with pytest.warns(UserWarning, match="no data"):
        assert _read_csv(p).shape == (0, 4)
