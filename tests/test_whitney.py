import math

import numpy as np
import pytest

from champagne import whitney
from champagne.bubbles import BubbleConfig, ConstantProfile, generate_shell_config
from champagne.geometry import BallDomain, _cube_grid, dist_to_boundary, finest_key_level
from champagne.whitney import (
    coverage_threshold,
    decompose,
    incidence_levels,
    intersecting_cubes,
    whitney as is_whitney,
)


@pytest.fixture(scope="module")
def disk():
    return BallDomain(np.zeros(2), 1.0)


@pytest.fixture(scope="module")
def dec6(disk):
    return decompose(disk, 6)


@pytest.fixture(scope="module")
def dec8(disk):
    return decompose(disk, 8)


def test_sandwich_every_cube(dec6, disk):
    # decompose lists the levels in increasing order, each level's cubes in
    # lexicographic order with their own dist(Q, boundary)
    assert list(dec6) == sorted(dec6)
    sqd = math.sqrt(2)
    for lev, (idx, dists) in dec6.items():
        side = 2.0**-lev
        assert np.array_equal(np.lexsort(idx.T[::-1]), np.arange(idx.shape[0]))
        member, dist = is_whitney(disk, lev, idx)
        assert member.all() and np.array_equal(dist, dists)
        assert np.all(side * sqd <= dist)
        assert np.all(dist <= 4 * side * sqd)


def test_maximality_parent_fails(dec6, disk):
    # the dyadic parent of every emitted cube must violate diam <= dist
    sqd = math.sqrt(2)
    for lev in dec6:
        if lev == 0:
            continue
        side_p = 2.0 ** -(lev - 1)
        parents = dec6[lev][0] // 2
        lo = parents * side_p
        hi = lo + side_p
        far = np.maximum(hi - disk.center, disk.center - lo)
        maxd = np.sqrt((far**2).sum(axis=1))
        parent_inside = maxd < disk.radius
        parent_dist = disk.radius - maxd
        ok_parent = parent_inside & (side_p * sqd <= parent_dist)
        assert not ok_parent.any()


def test_disjointness_same_level_and_ancestry(dec6):
    level_sets = {}
    for lev in dec6:
        idx = dec6[lev][0]
        keys = set(map(tuple, idx.tolist()))
        assert len(keys) == idx.shape[0]
        level_sets[lev] = keys
    for lev in dec6:
        for anc in dec6:
            if anc >= lev:
                continue
            ancestors = dec6[lev][0] // (2 ** (lev - anc))
            for row in map(tuple, ancestors.tolist()):
                assert row not in level_sets[anc]


def test_cube_counts_grow_like_surface(dec8):
    # near max_level the per-level count should grow by about 2^(d-1) = 2
    counts = [dec8[lev][0].shape[0] for lev in list(dec8)[-3:]]
    for a, b in zip(counts, counts[1:]):
        assert 0.7 * 2 <= b / a <= 1.3 * 2


def test_total_volume_matches_disk(dec8):
    total = sum(
        dec8[lev][0].shape[0] * (2.0**-lev) ** 2 for lev in dec8
    )
    area = math.pi
    thr = coverage_threshold(2, 8)
    collar = math.pi - math.pi * (1 - thr) ** 2
    assert total <= area
    assert total >= area - 3 * collar


def _grid(kmin, kmax):
    """Every integer index in the box [kmin, kmax], in lexicographic order."""
    axes = [np.arange(a, b + 1) for a, b in zip(kmin, kmax)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _brute_ok(domain, level, idx):
    """ok(Q) and R - maxd(Q) with maxd taken over the 2^d corners of each box."""
    d = domain.dimension
    side = 2.0**-level
    maxd = np.zeros(idx.shape[0])
    for corner in _grid(np.zeros(d, dtype=int), np.ones(d, dtype=int)):
        y = (idx + corner) * side
        maxd = np.maximum(maxd, np.sqrt(((y - domain.center) ** 2).sum(axis=1)))
    dist = domain.radius - maxd
    return (maxd < domain.radius) & (side * math.sqrt(d) <= dist), dist


def _cube_at(domain, max_level, x):
    """(level, index) of the Whitney cube whose half-open box holds x."""
    for level in range(whitney._top_level(domain), max_level + 1):
        idx = np.floor(np.asarray(x) / 2.0**-level).astype(np.int64)
        if is_whitney(domain, level, idx[None, :])[0][0]:
            return level, idx
    raise AssertionError("x lies in no cube")


# off-centre domains, each with a max_level that keeps the full grid small
CLOSED_FORM_CASES = [
    (2, 1.0, 7), (2, 2.5, 6), (2, 8.0, 4), (2, 13.0, 3),
    (3, 1.0, 4), (3, 2.5, 3), (3, 8.0, 2), (3, 13.0, 2),
]


@pytest.mark.parametrize("dim,radius,max_level", CLOSED_FORM_CASES)
def test_closed_form_membership_gives_exactly_the_decomposition(dim, radius, max_level):
    center = np.array([0.3125, -0.171, 0.05])[:dim] * radius
    domain = BallDomain(center, radius)
    dec = decompose(domain, max_level)   # R >= 8 used to raise here
    sqd = math.sqrt(dim)
    top = whitney._top_level(domain)
    assert 2.0**-top * sqd > radius >= 2.0 ** -(top + 1) * sqd
    assert min(dec) > top
    for level in range(top - 1, max_level + 1):
        side = 2.0**-level
        grid = _grid(np.floor((center - radius) / side).astype(np.int64),
                     np.floor((center + radius) / side).astype(np.int64))
        ok, dist = _brute_ok(domain, level, grid)
        brute = ok & ~_brute_ok(domain, level - 1, grid // 2)[0]
        member, got = is_whitney(domain, level, grid)
        assert np.array_equal(member, brute)
        assert np.array_equal(got, dist)
        if level in dec:
            assert np.array_equal(grid[brute], dec[level][0])
        else:
            assert not brute.any()


def test_coverage_invariant(disk):
    # every point above the collar lies in exactly one Whitney cube; a
    # point in the collar lies in none
    rng = np.random.default_rng(5)
    thr = coverage_threshold(2, 6)
    pts = rng.uniform(-1, 1, (40000, 2))
    pts = pts[dist_to_boundary(disk, pts) >= thr]
    pts = np.vstack([pts, [1.0 - 0.25 * thr, 0.0]])
    counts = np.zeros(pts.shape[0], dtype=int)
    for level in range(whitney._top_level(disk), 7):
        counts += is_whitney(disk, level, np.floor(pts / 2.0**-level).astype(np.int64))[0]
    assert np.all(counts[:-1] == 1)
    assert counts[-1] == 0


def test_doubled_cube_geometry_and_containment(dec8, disk):
    # the concentric box of twice the side of a Whitney cube stays inside D
    for lev in dec8:
        side = 2.0**-lev
        lo = dec8[lev][0] * side
        hi = lo + side
        lo2, hi2 = lo - side / 2, hi + side / 2
        assert np.allclose(hi2 - lo2, 2 * side)
        assert np.allclose((lo2 + hi2) / 2, (dec8[lev][0] + 0.5) * side)
        far = np.maximum(hi2 - disk.center, disk.center - lo2)
        assert np.all(np.sqrt((far * far).sum(axis=1)) < disk.radius)


def test_doubled_overlap_multiplicity(dec8, disk):
    # every point of D should be covered by a bounded number of doubled cubes
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (20000, 2))
    pts = pts[dist_to_boundary(disk, pts) >= 2 * coverage_threshold(2, 8)]
    counts = np.zeros(pts.shape[0], dtype=int)
    for lev in dec8:
        side = 2.0**-lev
        # candidate boxes per level via dyadic shifts of the containing index
        base = np.floor(pts / side).astype(np.int64)
        for shift in np.ndindex(3, 3):
            cand = base + (np.asarray(shift) - 1)
            ok = is_whitney(disk, lev, cand)[0]
            if not ok.any():
                continue
            clo = cand[ok] * side - side / 2
            inside = np.all((pts[ok] >= clo) & (pts[ok] < clo + 2 * side), axis=1)
            counts[np.where(ok)[0][inside]] += 1
    assert counts.max() <= 12
    assert counts.min() >= 1


def test_intersecting_cubes_tiny_ball(disk):
    level, idx = _cube_at(disk, 6, [0.0, 0.0])
    side = 2.0**-level
    rows = intersecting_cubes(disk, 6, (idx + 0.5) * side, side / 10)
    assert rows.tolist() == [[level, *idx.tolist()]]


def test_intersecting_cubes_at_corner(disk):
    level, idx = _cube_at(disk, 6, [0.0, 0.0])
    side = 2.0**-level
    rows = intersecting_cubes(disk, 6, idx * side, side / 100)
    assert 2 <= rows.shape[0] <= 4


def test_intersecting_cubes_matches_bruteforce(dec6, disk):
    rng = np.random.default_rng(11)
    boxes = []
    for lev in dec6:
        side = 2.0**-lev
        idx = dec6[lev][0]
        rows = np.column_stack([np.full(idx.shape[0], lev), idx])
        boxes.append((idx * side, idx * side + side, rows))
    centers, radii, pairs = [], [], []
    for k in range(50):
        direction = rng.standard_normal(2)
        direction /= np.sqrt((direction**2).sum())
        x = rng.uniform(0.3, 0.9) * direction
        delta = dist_to_boundary(disk, x)
        r = rng.uniform(0.05, 0.45) * delta
        got = intersecting_cubes(disk, 6, x, r)
        brute = []
        for lo, hi, rows in boxes:
            near = np.maximum(np.maximum(lo - x, x - hi), 0.0)
            meets = (near**2).sum(axis=1) <= r * r
            brute.extend(map(tuple, rows[meets].tolist()))
        assert list(map(tuple, got.tolist())) == sorted(brute)
        centers.append(x)
        radii.append(r)
        pairs.extend((k, q) for q in sorted(brute))
    # the balls may overlap: a configuration checks each bubble, not pairs
    config = BubbleConfig(disk, centers, radii)
    assert _pairs(incidence_levels(config, 6)) == pairs


def _pairs(levels):
    """The incidence's pairs as (ball, (level, k_1..k_d)), sorted by ball and
    then by cube, after checking that each level lists its own pairs sorted
    by ball and then by cube."""
    pairs = []
    for lv in levels:
        assert np.array_equal(np.lexsort((lv.cube, lv.ball)), np.arange(lv.ball.size))
        rows = np.column_stack([np.full(lv.index.shape[0], lv.level), lv.index])[lv.cube]
        pairs.extend(zip(lv.ball.tolist(), map(tuple, rows.tolist())))
    return sorted(pairs)


def _per_ball_pairs(domain, max_level, centers, radii):
    return [(k, tuple(row)) for k in range(len(radii))
            for row in intersecting_cubes(domain, max_level, centers[k], float(radii[k])).tolist()]


@pytest.mark.parametrize("dim,level,shells", [(2, 8, 4), (3, 4, 2)])
def test_ball_cube_incidence_matches_per_ball_loop(dim, level, shells, monkeypatch):
    domain = BallDomain(np.zeros(dim), 1.0)
    config = generate_shell_config(domain, ConstantProfile(0.3), 0.5, shells, seed=2)
    expected = _per_ball_pairs(domain, level, config.centers, config.radii)
    levels = list(incidence_levels(config, level))
    assert _pairs(levels) == expected
    covered = {k for k, _ in expected}
    assert 0 < len(covered) < config.n
    # each level ranks its cubes in index order, each with its own
    # dist(Q, boundary), and each meets some ball
    dec = decompose(domain, level)
    assert [lv.level for lv in levels] == sorted({lv.level for lv in levels})
    for lv in levels:
        rows = list(map(tuple, lv.index.tolist()))
        assert rows == sorted(set(rows))
        assert np.array_equal(np.unique(lv.cube), np.arange(len(rows)))
        member, dist = is_whitney(domain, lv.level, lv.index)
        assert member.all() and np.array_equal(dist, lv.dist)
        assert set(rows) <= set(map(tuple, dec[lv.level][0].tolist()))
    # expanding a few candidate boxes, or windows of a few balls, at a time
    # gives the same pairs
    monkeypatch.setattr(whitney, "_CANDIDATE_CHUNK", 7)
    monkeypatch.setattr(whitney, "_BALL_BLOCK", 5)
    assert _pairs(incidence_levels(config, level)) == expected


def test_ball_cube_incidence_empty(disk):
    assert list(incidence_levels(BubbleConfig(disk, np.empty((0, 2)), np.empty(0)), 6)) == []


def test_intersecting_cubes_rejects_fat_ball(disk):
    with pytest.raises(ValueError, match="not inside"):
        intersecting_cubes(disk, 6, np.array([0.5, 0.0]), 0.4)


def test_c2_empirical_finite(disk):
    config = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=0)
    pairs = _pairs(incidence_levels(config, 8))
    c2 = max(np.bincount([k for k, _ in pairs]))
    assert 1 <= c2 <= 40


def test_decompose_rejects_bad_level(disk):
    with pytest.raises(ValueError):
        decompose(disk, 1)
    tiny = BallDomain(np.zeros(2), 1e-3)
    with pytest.raises(ValueError, match="no dyadic cube"):
        decompose(tiny, 2)


@pytest.mark.parametrize("center, radius, finest", [
    ([0.0, 0.0], 1.0, 30), ([0.0, 0.0, 0.0], 1.0, 19),
    ([0.3, -0.2], 2.5, None), ([1e3, 0.5, -7.0], 1e-3, None),
])
def test_level_grid_has_int64_keys_down_to_the_finest_key_level(center, radius, finest):
    domain = BallDomain(np.array(center), radius)
    level = finest_key_level(domain)
    assert finest in (None, level)
    assert math.prod(_cube_grid(domain, level)[1]) < 2**63
    assert math.prod(_cube_grid(domain, level + 1)[1]) >= 2**63
    grid = whitney._LevelGrid(domain, level)
    assert grid.shape.tolist() == _cube_grid(domain, level)[1]
    with pytest.raises(RuntimeError, match=f"level {level + 1} is too fine"):
        whitney._LevelGrid(domain, level + 1)


def test_csv_export(tmp_path, dec6):
    path = tmp_path / "w.csv"
    whitney.write_csv(path, dec6)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["level", "i_0", "i_1"]
    assert len(lines) == sum(idx.shape[0] for idx, _ in dec6.values()) + 1
