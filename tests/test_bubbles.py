import csv
import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from champagne import bubbles
from champagne.bubbles import (
    BubbleConfig,
    ConstantProfile,
    LogProfile,
    PowerProfile,
    RadialProfile,
    _CENTER_GAP_FACTOR,
    _LATTICE_PAD,
    _ShellLookup,
    _fibonacci_sphere,
    _shell_lattice,
    generate_shell_config,
    shell_radii,
)
from champagne.criteria import classify_avoidability
from champagne.geometry import BallDomain, row_norms
from champagne.spatial import DISJOINTNESS_SLACK, BallIndex


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

def test_config_rejects_fat_ratio(disk):
    with pytest.raises(ValueError, match="ratio_sup"):
        BubbleConfig(disk, [[0.0, 0.0]], [0.6])


def test_config_rejects_zero_radius(disk):
    with pytest.raises(ValueError, match="bubble radii must be > 0"):
        BubbleConfig(disk, [[0.0, 0.0], [0.5, 0.0]], [0.01, 0.0])


def test_config_rejects_escaping_bubble(disk):
    with pytest.raises(ValueError, match="inside"):
        BubbleConfig(disk, [[0.95, 0.0]], [0.2])


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
    # the labels were pinned as int64, before the configuration kept int32
    for a in (cfg.centers, cfg.radii, cfg.shell_ids.astype(np.int64), cfg.deltas):
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
    assert _overlapping_pairs(cfg) == []


# -- the disjointness certificate ---------------------------------------------------

@pytest.mark.parametrize("d, phi, a, shells, match", [
    # the radial gap 0.074 is far below r_1 + r_2 = 0.298
    (2, ConstantProfile(0.4), 0.1, 2, "shells 1 and 2: their radial gap"),
    # constant phi = a: the radial gap equals r_i + r_(i+1), the bands touch
    (2, ConstantProfile(0.3), 0.3, 3, "shells 1 and 2: their radial gap"),
    (3, ConstantProfile(0.1), 0.1, 2, "shells 1 and 2: their radial gap"),
    # 11 lattice points, whose mean spacing times 0.84 is below 2r
    (3, ConstantProfile(0.49), 0.02, 1, "shell 1: its centres lie"),
    (2, PowerProfile(500.0), 0.5, 1, "shell 1: its bubble radius"),
    (3, ConstantProfile(0.1), 1.0 - 1e-12, 1, "shell 1: its lattice of .* is too large"),
])
def test_generator_refuses_what_it_cannot_certify(d, phi, a, shells, match):
    with pytest.raises(ValueError, match=match):
        generate_shell_config(BallDomain(np.zeros(d), 1.0), phi, a, shells)


def _overlapping_pairs(cfg, slack=DISJOINTNESS_SLACK):
    """Every pair (j, k), j < k, of the configuration's bubbles that are not
    disjoint, |c_j - c_k|^2 <= (r_j + r_k + slack)^2: for each pair of
    shells a KD-tree query for the centres within the sum of their largest
    radii and the slack (padded by 1e-9 of it), then the closed squared test
    on every pair found."""
    ids = [np.flatnonzero(cfg.shell_ids == i) for i in range(int(cfg.shell_ids.max()) + 1)]
    trees = [cKDTree(cfg.centers[k]) for k in ids]
    c, r = cfg.centers, cfg.radii
    found = []
    for i, j in itertools.combinations_with_replacement(range(len(ids)), 2):
        reach = (r[ids[i]].max() + r[ids[j]].max() + slack) * (1.0 + 1e-9)
        if i == j:
            p = trees[i].query_pairs(reach, output_type="ndarray")
            a, b = ids[i][p[:, 0]], ids[i][p[:, 1]]
        else:
            m = trees[i].sparse_distance_matrix(trees[j], reach, output_type="ndarray")
            a, b = ids[i][m["i"]], ids[j][m["j"]]
        dsq = ((c[a] - c[b]) ** 2).sum(axis=1)
        lim = r[a] + r[b] + slack
        bad = dsq <= lim * lim
        found += zip(np.minimum(a, b)[bad].tolist(), np.maximum(a, b)[bad].tolist())
    return sorted(found)


def test_the_oracle_finds_every_overlapping_pair(monkeypatch, disk):
    # two shells of constant phi = 0.4 at a = 0.1 overlap, since the radial
    # gap 0.074 is below r_1 + r_2 = 0.298; with no certificate (slack -inf)
    # the generator builds them, and the oracle agrees with every pair
    with monkeypatch.context() as mp:
        mp.setattr(bubbles, "DISJOINTNESS_SLACK", -math.inf)
        cfg = generate_shell_config(disk, ConstantProfile(0.4), 0.1, 2, seed=1)
    c, r = cfg.centers, cfg.radii
    dsq = ((c[:, None, :] - c[None, :, :]) ** 2).sum(-1)
    lim = r[:, None] + r[None, :] + DISJOINTNESS_SLACK
    want = [(j, k) for j, k in zip(*np.nonzero(dsq <= lim * lim)) if j < k]
    assert len(want) > 10
    assert _overlapping_pairs(cfg) == want


# the certificate's grid: per dimension, every a and profile below for 1 to 6
# shells; constant phi = a is where adjacent bands touch
_GRID_A = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9)
_GRID_PROFILES = ([ConstantProfile(c) for c in (0.02, 0.1, 0.3, 0.45, 0.49)]
                  + [PowerProfile(b) for b in (0.5, 1.0, 3.0)]
                  + [LogProfile(p) for p in (0.5, 2.0)])


# the families of the grid whose adjacent bands touch, constant phi = a,
# which no two centres meet exactly
_TOUCHING = {(a, ConstantProfile(a), shells) for a in (0.02, 0.1, 0.3) for shells in range(2, 7)}


@pytest.mark.parametrize("d, checked_want, spared_want", [
    (2, 169, _TOUCHING),
    # the 6-shell touching family has 208,984 bubbles; the 11-centre lattice
    # of a = 0.02, phi = 0.49 clears 2r by less than the factor 0.84 certifies
    (3, 65, _TOUCHING - {(0.3, ConstantProfile(0.3), 6)} | {(0.02, ConstantProfile(0.49), 1)}),
], ids=["d2", "d3"])
def test_the_certificate_accepts_no_family_that_overlaps(monkeypatch, d, checked_want,
                                                         spared_want):
    # Every family of the grid up to 60,000 bubbles is built with the
    # certificate switched off (slack -inf) at two of the seeds 1, 35 and
    # 101, in turn.  Soundness: no family the certificate accepts has an
    # overlapping pair.  Of the families it refuses on a gap, those without
    # one are exactly spared_want.
    domain = BallDomain(np.zeros(d), 1.0)
    seeds = itertools.cycle([(1, 35), (35, 101), (101, 1)])
    checked, spared = 0, set()
    for a, phi, shells in itertools.product(_GRID_A, _GRID_PROFILES, range(1, 7)):
        try:
            _shell_lattice(domain, phi, a, shells)
            certified = True
        except ValueError as exc:
            if "may overlap" not in str(exc):   # phi >= 1/2 on a shell
                continue
            certified = False
        with monkeypatch.context() as mp:
            mp.setattr(bubbles, "DISJOINTNESS_SLACK", -math.inf)
            if _shell_lattice(domain, phi, a, shells)[2].sum() > 60_000:
                continue
            cfgs = [generate_shell_config(domain, phi, a, shells, seed=s) for s in next(seeds)]
        overlaps = any(_overlapping_pairs(cfg) for cfg in cfgs)
        if certified:
            assert not overlaps, (d, a, phi, shells)
            checked += 1
        elif not overlaps:
            spared.add((a, phi, shells))
    assert checked == checked_want
    assert spared == spared_want


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
    # shell labels and distances to the boundary, 36 bytes.  Its index is
    # the lattice lookup, which keeps a few numbers a shell and reads the
    # centres and radii in place.  A BallIndex over the same bubbles keeps
    # per radius class the int32 ids, the int64 keys of the occupied cells
    # and the int32 starts of their runs, 13.7 bytes a bubble on W2.
    kept = [a for a in vars(w2).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in kept) == 36 * w2.n
    assert w2.shell_ids.dtype == np.int32
    lookup = w2.index
    assert isinstance(lookup, _ShellLookup)
    own = [a for name, a in vars(lookup).items()
           if isinstance(a, np.ndarray) and name not in ("_centers", "_radii")]
    assert lookup._centers is w2.centers and lookup._radii is w2.radii
    assert sum(a.nbytes for a in own) <= 64 * (w2.meta["shells"] + 1)
    grids = BallIndex(w2.centers, w2.radii)._grids
    for g in grids:
        assert (g.ids.dtype, g.cells.dtype, g.starts.dtype) == (np.int32, np.int64, np.int32)
    index = sum(g.ids.nbytes + g.cells.nbytes + g.starts.nbytes for g in grids)
    assert index / w2.n < 14.0


# -- lattice lookup -----------------------------------------------------------------

LOOKUP_FAMILIES = (
    # W2, the roadmap's five 8-shell d=2 families, and one whose shells are
    # each bound by a radial gap, so that neighbouring bands nearly touch
    [(ConstantProfile(0.1), 0.5, 6)]
    + [(phi, 0.5, 8) for phi in (ConstantProfile(0.1), PowerProfile(1.0), LogProfile(2.0),
                                 LogProfile(3.0), ConstantProfile(0.4))]
    + [(ConstantProfile(0.0195), 0.02, 3)]
)
LOOKUP_IDS = [f"{phi.kind}{getattr(phi, phi.param)}-a{a}-{shells}"
              for phi, a, shells in LOOKUP_FAMILIES]


def _probed_balls(cfg):
    """Every ball of a family of at most 60,000; of a larger one, every 7th
    ball and the first two and last two of each shell, where the slots wrap."""
    if cfg.n <= 60_000:
        return np.arange(cfg.n)
    counts = np.bincount(cfg.shell_ids)
    first = np.cumsum(counts) - counts
    ends = np.concatenate([first, first + 1, first + counts - 2, first + counts - 1])
    return np.union1d(np.arange(0, cfg.n, 7), ends)


@pytest.mark.parametrize("phi, a, shells", LOOKUP_FAMILIES, ids=LOOKUP_IDS)
def test_lattice_lookup_answers_adversarial_points_as_the_closed_test(disk, phi, a, shells):
    # 64 points on each probed ball's boundary and 8 each at r*(1 - 1e-12)
    # and r*(1 + 1e-12): the balls are more than DISJOINTNESS_SLACK apart, so
    # only the ball a point was drawn from can hold it, and the lookup must
    # answer as the closed test against that ball does.  On W2 every answer
    # must also be BallIndex's.
    cfg = generate_shell_config(disk, phi, a, shells, seed=35)
    lookup = cfg.index
    assert isinstance(lookup, _ShellLookup)
    oracle = BallIndex(cfg.centers, cfg.radii) if cfg.n == 54_743 else None
    turn = 2.0 * np.pi * np.concatenate([np.arange(64) / 64, np.arange(16) / 16 + 1 / 32])
    dirs = np.column_stack([np.cos(turn), np.sin(turn)])
    scale = np.concatenate([np.ones(64), np.full(8, 1.0 - 1e-12), np.full(8, 1.0 + 1e-12)])
    balls = _probed_balls(cfg)
    hits = 0
    for chunk in np.array_split(balls, -(-balls.size // 2048)):
        k = np.repeat(chunk, scale.size)
        pts = cfg.centers[k] + (cfg.radii[k] * np.tile(scale, chunk.size))[:, None] * np.tile(
            dirs, (chunk.size, 1))
        inside = row_norms(pts, cfg.centers[k]) <= cfg.radii[k]
        hit, owner = lookup.contains_batch(pts)
        assert np.array_equal(hit, inside)
        assert np.array_equal(owner, np.where(inside, k, -1))
        if oracle is not None:
            want = oracle.contains_batch(pts)
            assert np.array_equal(hit, want[0]) and np.array_equal(owner, want[1])
        hits += int(inside.sum())
    assert 0 < hits < balls.size * scale.size


@pytest.mark.parametrize("phi, a, shells", LOOKUP_FAMILIES, ids=LOOKUP_IDS)
def test_lattice_lookup_answers_band_edges_as_the_ball_index(disk, phi, a, shells):
    # points at 0, 1/2, 1 and 2 lookup pads inside and outside each end of
    # every shell's band t_i -+ r_i, on the rays through the first 256
    # centres of the shell and half-way between them
    cfg = generate_shell_config(disk, phi, a, shells, seed=35)
    t, r, counts, _ = _shell_lattice(disk, phi, a, shells)
    first = np.cumsum(counts) - counts
    steps = _LATTICE_PAD * np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    pts = []
    for i in range(shells):
        c = cfg.centers[first[i]:first[i] + min(counts[i], 256)]
        ang = np.arctan2(c[:, 1], c[:, 0])
        ang = np.concatenate([ang, ang + np.pi / counts[i]])
        rho = np.concatenate([t[i] - r[i] + steps, t[i] + r[i] + steps])
        ray = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pts.append((rho[:, None, None] * ray).reshape(-1, 2))
    pts = np.concatenate(pts)
    hit, owner = cfg.index.contains_batch(pts)
    want = BallIndex(cfg.centers, cfg.radii).contains_batch(pts)
    assert np.array_equal(hit, want[0]) and np.array_equal(owner, want[1])
    assert hit.any()


@pytest.mark.parametrize("change", ["shift", "roll", "radius", "subset", "seed"])
def test_a_generator_record_that_the_bubbles_do_not_fit_takes_the_ball_index(w2, change):
    # the lattice lookup is chosen from the configuration alone: centres
    # moved by 1e-9, rows out of lattice order, a radius changed, a subset
    # or another seed's record leave only the BallIndex
    centers, radii, meta, keep = w2.centers.copy(), w2.radii.copy(), dict(w2.meta), slice(None)
    if change == "shift":
        centers += [1e-9, 0.0]
    elif change == "roll":
        centers[:126] = np.roll(centers[:126], 1, axis=0)
    elif change == "radius":
        radii[-1] *= 1.0 - 1e-9
    elif change == "subset":
        keep = slice(1, None)
    else:
        meta["seed"] = 36
    cfg = BubbleConfig(w2.domain, centers[keep], radii[keep], shell_ids=w2.shell_ids[keep],
                       meta=meta)
    assert isinstance(cfg.index, BallIndex)
    assert isinstance(BubbleConfig(w2.domain, w2.centers, w2.radii, meta=w2.meta).index,
                      _ShellLookup)


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


@pytest.mark.parametrize("n", [2**14, 2**17, 10**6])
def test_fibonacci_lattice_factor_holds_on_large_lattices(n):
    # the factor settles at 0.87226 from 5,000 points on (measured up to
    # 4,000,000), well above _CENTER_GAP_FACTOR
    p = _fibonacci_sphere(n)
    factor = cKDTree(p).query(p, k=2)[0][:, 1].min() / math.sqrt(4.0 * math.pi / n)
    assert factor >= _CENTER_GAP_FACTOR
    assert factor == pytest.approx(0.87226, abs=1e-4)


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
