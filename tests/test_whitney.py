import math

import numpy as np
import pytest

from champagne import whitney
from champagne.bubbles import ConstantProfile, generate_shell_config
from champagne.geometry import BallDomain, dist_to_boundary
from champagne.whitney import (
    ball_cube_incidence,
    coverage_threshold,
    decompose,
    intersecting_cubes,
    max_cubes_per_ball,
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


def test_sandwich_every_cube(dec6):
    sqd = math.sqrt(2)
    for lev in dec6.levels:
        side = 2.0**-lev
        dist = dec6.level_dists(lev)
        assert np.all(side * sqd <= dist)
        assert np.all(dist <= 4 * side * sqd)


def test_maximality_parent_fails(dec6, disk):
    # the dyadic parent of every emitted cube must violate diam <= dist
    sqd = math.sqrt(2)
    for lev in dec6.levels:
        if lev == 0:
            continue
        side_p = 2.0 ** -(lev - 1)
        parents = dec6.level_indices(lev) // 2
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
    for lev in dec6.levels:
        idx = dec6.level_indices(lev)
        keys = set(map(tuple, idx.tolist()))
        assert len(keys) == idx.shape[0]
        level_sets[lev] = keys
    for lev in dec6.levels:
        for anc in dec6.levels:
            if anc >= lev:
                continue
            ancestors = dec6.level_indices(lev) // (2 ** (lev - anc))
            for row in map(tuple, ancestors.tolist()):
                assert row not in level_sets[anc]


def test_cube_counts_grow_like_surface(dec8):
    # near max_level the per-level count should grow by about 2^(d-1) = 2
    counts = [dec8.level_indices(lev).shape[0] for lev in dec8.levels[-3:]]
    for a, b in zip(counts, counts[1:]):
        assert 0.7 * 2 <= b / a <= 1.3 * 2


def test_total_volume_matches_disk(dec8):
    total = sum(
        dec8.level_indices(lev).shape[0] * (2.0**-lev) ** 2 for lev in dec8.levels
    )
    area = math.pi
    thr = dec8.coverage_threshold
    collar = math.pi - math.pi * (1 - thr) ** 2
    assert total <= area
    assert total >= area - 3 * collar


def test_coverage_invariant(dec6, disk):
    rng = np.random.default_rng(5)
    thr = coverage_threshold(2, 6)
    pts = rng.uniform(-1, 1, (40000, 2))
    pts = pts[dist_to_boundary(disk, pts) >= thr]
    got = dec6.locate_batch(pts)
    assert np.all(got >= 0)


def test_locate_center_and_determinism(dec6, disk):
    i = dec6.locate(disk.center)
    assert i is not None
    assert dec6.cube(i).dist_boundary >= 0.25
    # two points in the same dyadic box agree
    q = dec6.cube(i)
    lo, hi = q.bounds()
    a = dec6.locate(lo + 0.25 * (hi - lo))
    b = dec6.locate(lo + 0.75 * (hi - lo))
    assert a == b == i


def test_locate_outside_raises(dec6):
    with pytest.raises(ValueError):
        dec6.locate([2.0, 0.0])


def test_locate_collar_not_covered(dec6, disk):
    x = np.array([1.0 - 0.25 * dec6.coverage_threshold, 0.0])
    assert dec6.locate(x) is None


def test_doubled_cube_geometry_and_containment(dec8, disk):
    # the concentric box of twice the side of a Whitney cube stays inside D
    for i in range(0, len(dec8), 37):
        q = dec8.cube(i)
        lo, hi = q.bounds()
        lo2, hi2 = lo - q.side / 2, hi + q.side / 2
        assert np.allclose(hi2 - lo2, 2 * q.side)
        assert np.allclose((lo2 + hi2) / 2, q.center)
        far = np.maximum(hi2 - disk.center, disk.center - lo2)
        assert math.sqrt((far * far).sum()) < disk.radius


def test_doubled_overlap_multiplicity(dec8, disk):
    # every point of D should be covered by a bounded number of doubled cubes
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (20000, 2))
    pts = pts[dist_to_boundary(disk, pts) >= 2 * dec8.coverage_threshold]
    counts = np.zeros(pts.shape[0], dtype=int)
    for lev in dec8.levels:
        side = 2.0**-lev
        idx = dec8.level_indices(lev)
        lo = idx * side - side / 2
        hi = lo + 2 * side
        # candidate boxes per level via dyadic shifts of the containing index
        base = np.floor(pts / side).astype(np.int64)
        for shift in np.ndindex(3, 3):
            cand = base + (np.asarray(shift) - 1)
            rows = dec8._find_rows(lev, cand)
            ok = rows >= 0
            if not ok.any():
                continue
            clo = cand[ok] * side - side / 2
            inside = np.all((pts[ok] >= clo) & (pts[ok] < clo + 2 * side), axis=1)
            counts[np.where(ok)[0][inside]] += 1
    assert counts.max() <= 12
    assert counts.min() >= 1


def test_intersecting_cubes_tiny_ball(dec6):
    q = dec6.cube(dec6.locate([0.0, 0.0]))
    ids = intersecting_cubes(dec6, q.center, q.side / 10)
    assert ids.size == 1
    assert dec6.cube(int(ids[0])).index == q.index


def test_intersecting_cubes_at_corner(dec6):
    q = dec6.cube(dec6.locate([0.0, 0.0]))
    lo, hi = q.bounds()
    ids = intersecting_cubes(dec6, lo, q.side / 100)
    assert 2 <= ids.size <= 4


def test_intersecting_cubes_matches_bruteforce(dec6, disk):
    rng = np.random.default_rng(11)
    boxes = []
    for lev in dec6.levels:
        side = 2.0**-lev
        idx = dec6.level_indices(lev)
        boxes.append((idx * side, idx * side + side))
    centers, radii, pairs = [], [], []
    for k in range(50):
        direction = rng.standard_normal(2)
        direction /= np.sqrt((direction**2).sum())
        x = rng.uniform(0.3, 0.9) * direction
        delta = dist_to_boundary(disk, x)
        r = rng.uniform(0.05, 0.45) * delta
        got = intersecting_cubes(dec6, x, r)
        brute = []
        offset = 0
        for lo, hi in boxes:
            near = np.maximum(np.maximum(lo - x, x - hi), 0.0)
            meets = (near**2).sum(axis=1) <= r * r
            brute.extend((offset + np.where(meets)[0]).tolist())
            offset += lo.shape[0]
        assert got.tolist() == sorted(brute)
        centers.append(x)
        radii.append(r)
        pairs.extend((k, i) for i in sorted(brute))
    assert _pairs(ball_cube_incidence(dec6, centers, radii)) == pairs


def _pairs(inc):
    return list(zip(inc.ball.tolist(), inc.cube.tolist()))


def _per_ball_pairs(dec, centers, radii):
    return [(k, int(i)) for k in range(len(radii))
            for i in intersecting_cubes(dec, centers[k], float(radii[k]))]


@pytest.mark.parametrize("dim,level,shells", [(2, 8, 4), (3, 4, 2)])
def test_ball_cube_incidence_matches_per_ball_loop(dim, level, shells, monkeypatch):
    domain = BallDomain(np.zeros(dim), 1.0)
    config = generate_shell_config(domain, ConstantProfile(0.3), 0.5, shells, seed=2)
    dec = decompose(domain, level)
    expected = _per_ball_pairs(dec, config.centers, config.radii)
    inc = ball_cube_incidence(dec, config.centers, config.radii)
    assert inc.n_balls == config.n
    assert _pairs(inc) == expected
    covered = {k for k, _ in expected}
    assert inc.uncovered().tolist() == [k for k in range(config.n) if k not in covered]
    assert 0 < inc.uncovered().size < config.n
    # expanding a few candidate boxes at a time gives the same pairs
    monkeypatch.setattr(whitney, "_CANDIDATE_CHUNK", 7)
    assert _pairs(ball_cube_incidence(dec, config.centers, config.radii)) == expected


def test_ball_cube_incidence_empty(dec6):
    inc = ball_cube_incidence(dec6, np.empty((0, 2)), np.empty(0))
    assert inc.n_balls == 0
    assert inc.ball.size == inc.cube.size == 0
    assert max_cubes_per_ball(inc) == 0
    assert inc.uncovered().size == 0


def test_ball_cube_incidence_rejects_fat_ball(dec6):
    with pytest.raises(ValueError, match="not inside"):
        ball_cube_incidence(dec6, [[0.0, 0.0], [0.5, 0.0]], [0.01, 0.4])


def test_ball_cube_incidence_rejects_zero_radius(dec6):
    with pytest.raises(ValueError, match="> 0"):
        ball_cube_incidence(dec6, [[0.0, 0.0], [0.5, 0.0]], [0.01, 0.0])


def test_intersecting_cubes_rejects_fat_ball(dec6):
    with pytest.raises(ValueError, match="not inside"):
        intersecting_cubes(dec6, np.array([0.5, 0.0]), 0.4)


def test_c2_empirical_finite(dec8, disk):
    config = generate_shell_config(disk, ConstantProfile(0.3), 0.5, 3, seed=0)
    c2 = max_cubes_per_ball(ball_cube_incidence(dec8, config.centers, config.radii))
    assert 1 <= c2 <= 40


def test_decompose_rejects_bad_level(disk):
    with pytest.raises(ValueError):
        decompose(disk, 1)
    tiny = BallDomain(np.zeros(2), 1e-3)
    with pytest.raises(ValueError, match="no dyadic cube"):
        decompose(tiny, 2)


def test_csv_export(tmp_path, dec6):
    path = tmp_path / "w.csv"
    dec6.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["level", "i_0", "i_1"]
    assert len(lines) == len(dec6) + 1
