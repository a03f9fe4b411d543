
import numpy as np
import pytest
from scipy.spatial import cKDTree

from champagne import bubbles, spatial
from champagne.bubbles import ConstantProfile, generate_shell_config
from champagne.geometry import BallDomain
from champagne.spatial import BallIndex


def _brute_owner(centers, radii, x):
    if centers.shape[0] == 0:
        return -1
    dist = np.sqrt(((centers - x) ** 2).sum(axis=1))
    inside = np.where(dist <= radii)[0]
    return int(inside[0]) if inside.size else -1


def test_empty_index():
    idx = BallIndex(np.empty((0, 2)), np.empty(0))
    hit, owner = idx.contains_batch(np.zeros((5, 2)))
    assert not hit.any() and np.all(owner == -1)


def _disjoint_balls(rng, n, draw):
    """n balls from draw(rng) -> (centre, radius), each kept only if it clears
    every earlier one by 1e-9."""
    centers, radii = [], []
    while len(centers) < n:
        c, r = draw(rng)
        if all(np.sqrt(((c - c2) ** 2).sum()) > r + r2 + 1e-9
               for c2, r2 in zip(centers, radii)):
            centers.append(c)
            radii.append(r)
    return np.asarray(centers), np.asarray(radii)


def _dyadic_ball(rng):
    # r = 2^-e, whose cell side is 4r; the centre lies on the grid of r/8,
    # within 7 steps of a multiple of 4r on both axes, so the ball straddles
    # a cell edge on each axis
    r = 2.0 ** -int(rng.integers(5, 9))
    m = rng.integers(-int(0.2 / r), int(0.2 / r) + 1, 2)
    return (32 * m + rng.integers(-7, 8, 2)) * (r / 8), r


def test_index_matches_bruteforce_random_configs():
    rng = np.random.default_rng(0)
    # disjoint balls with radii spanning several scales
    centers, radii = _disjoint_balls(
        rng, 300, lambda g: (g.uniform(-1, 1, 2), 10.0 ** g.uniform(-4, -1)))
    idx = BallIndex(centers, radii)
    queries = rng.uniform(-1.1, 1.1, (5000, 2))
    # bias half the queries to ball surfaces where resolution matters
    k = rng.integers(0, 300, 2500)
    u = rng.standard_normal((2500, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    queries[:2500] = centers[k] + radii[k, None] * u * rng.uniform(0.8, 1.2, (2500, 1))
    hit, owner = idx.contains_batch(queries)
    for i, x in enumerate(queries):
        want = _brute_owner(centers, radii, x)
        assert (owner[i] if hit[i] else -1) == want

    # radii that are powers of two, and queries on the grid of r/8 around each
    # ball: on its sphere, and on the cell edges x_j = m*4r that cross it
    centers, radii = _disjoint_balls(rng, 60, _dyadic_ball)
    steps = np.arange(-9, 10)
    grid = np.stack(np.meshgrid(steps, steps), axis=-1).reshape(-1, 2)
    queries = (centers[:, None, :] + grid * (radii[:, None, None] / 8)).reshape(-1, 2)
    hit, owner = BallIndex(centers, radii).contains_batch(queries)
    want = np.array([_brute_owner(centers, radii, x) for x in queries])
    assert np.array_equal(np.where(hit, owner, -1), want)
    assert np.array_equal(hit, want >= 0)
    on_edge = np.any(queries % (4 * radii.repeat(grid.shape[0]))[:, None] == 0, axis=1)
    assert hit[on_edge].sum() > 100


def _multiscale_family_3d(rng, n, n_touching, gap, n_tiny):
    """Disjoint balls in d=3 with radii log-uniform in [1e-6, 1e-1],
    n_touching balls placed ``gap`` from the surface of an earlier one, and
    n_tiny balls with radii in [2^-40, 2^-39) anywhere in [-1, 1]^3: a class
    whose grid at that scale would need over 2^110 cells, so it must coarsen."""
    centers, radii = np.empty((0, 3)), np.empty(0)
    touching = []

    def fits(c, r):
        dist = np.sqrt(((centers - c) ** 2).sum(axis=1))
        return bool(np.all(dist - radii - r > 0.5 * gap))

    while radii.size < n:
        c, r = rng.uniform(-1, 1, 3), 10.0 ** rng.uniform(-6, -1)
        if fits(c, r):
            centers, radii = np.vstack([centers, c]), np.append(radii, r)
    while len(touching) < n_touching:
        k = int(rng.integers(0, radii.size))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        r = 10.0 ** rng.uniform(-6, -1)
        c = centers[k] + (radii[k] + r + gap) * u
        if fits(c, r):
            touching.append((k, radii.size, u))
            centers, radii = np.vstack([centers, c]), np.append(radii, r)
    while radii.size < n + n_touching + n_tiny:
        c, r = rng.uniform(-1, 1, 3), 2.0**-40 * rng.uniform(1, 2)
        if fits(c, r):
            centers, radii = np.vstack([centers, c]), np.append(radii, r)
    return centers, radii, touching


def test_index_matches_bruteforce_multiscale_3d_near_touching():
    rng = np.random.default_rng(3)
    gap = 1e-9
    centers, radii, touching = _multiscale_family_3d(rng, 200, 100, gap, 60)
    assert radii.min() < 2.0**-39 and radii.max() > 1e-2
    idx = BallIndex(centers, radii)
    # on each sphere, and relatively 1e-6, 1e-9 and 1e-12 inside and outside it
    k = rng.integers(0, radii.size, 6000)
    u = rng.standard_normal((6000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    scale = 1.0 + rng.choice([0.0, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12], (6000, 1))
    queries = [centers[k] + radii[k, None] * scale * u]
    # along each near-touching line: just inside, on and just outside both
    # facing spheres, and halfway across the gap
    for j, m, v in touching:
        for s in (-1e-12, 0.0, 0.5 * gap / radii[j], 1e-12):
            queries.append(centers[j] + radii[j] * (1.0 + s) * v)
        for s in (-1e-12, 0.0, 1e-12):
            queries.append(centers[m] - radii[m] * (1.0 + s) * v)
    queries = np.vstack(queries)
    hit, owner = idx.contains_batch(queries)
    want = np.array([_brute_owner(centers, radii, x) for x in queries])
    assert np.array_equal(np.where(hit, owner, -1), want)
    assert np.array_equal(hit, want >= 0)
    assert 0 < hit.sum() < hit.size
    assert hit[radii[owner] < 2.0**-39].sum() > 100


def test_index_point_in_big_ball_nearer_a_tiny_ball_centre():
    # x = (0.99, 0) lies in B(0, 1) but is nearer the tiny ball's centre
    # (0.11 away) than the big ball's (0.99 away): the nearest centre does
    # not pick the ball
    idx = BallIndex(np.array([[0.0, 0.0], [1.1, 0.0]]), np.array([1.0, 0.05]))
    queries = np.array([[0.99, 0.0], [1.0, 0.0], [1.07, 0.0], [1.02, 0.0], [1.2, 0.0]])
    hit, owner = idx.contains_batch(queries)
    assert owner.tolist() == [0, 0, 1, -1, -1]
    assert hit.tolist() == [True, True, True, False, False]


def test_index_on_shell_config():
    dom = BallDomain(np.zeros(2), 1.0)
    cfg = generate_shell_config(dom, ConstantProfile(0.4), 0.5, 4, seed=1)
    idx = BallIndex(cfg.centers, cfg.radii, origin=dom.center)
    rng = np.random.default_rng(1)
    queries = rng.uniform(-1, 1, (3000, 2))
    # half the queries near ball surfaces, so hits and near misses are common
    k = rng.integers(0, cfg.n, 1500)
    u = rng.standard_normal((1500, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    queries[:1500] = cfg.centers[k] + cfg.radii[k, None] * u * rng.uniform(0.9, 1.1, (1500, 1))
    hit, owner = idx.contains_batch(queries)
    want = [_brute_owner(cfg.centers, cfg.radii, x) for x in queries]
    assert np.array_equal(np.where(hit, owner, -1), want)
    assert 0 < hit.sum() < hit.size


def test_index_points_outside_every_band():
    dom = BallDomain(np.zeros(2), 1.0)
    cfg = generate_shell_config(dom, ConstantProfile(0.4), 0.5, 4, seed=1)
    idx = BallIndex(cfg.centers, cfg.radii, origin=dom.center)
    norms = np.sqrt((cfg.centers**2).sum(axis=1))
    lo, hi = (norms - cfg.radii).min(), (norms + cfg.radii).max()
    # norms below, between and above the shells' bands
    gaps = [0.0, 0.5 * lo, 0.5 * (lo + hi) + 0.5, np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)]
    gaps += [r for r in np.linspace(lo, hi, 400)
             if not np.any(np.abs(norms - r) <= cfg.radii)]
    ang = np.random.default_rng(2).uniform(0, 2 * np.pi, len(gaps))
    queries = np.asarray(gaps)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    hit, owner = idx.contains_batch(queries)
    assert not hit.any() and np.all(owner == -1)
    assert all(_brute_owner(cfg.centers, cfg.radii, x) == -1 for x in queries)


def test_index_band_edges_are_closed():
    # each point on a band edge below lies in its ball: |x| = 0.4 and 0.6 bound
    # the band of B((0.5, 0), 0.1), and |x| = 0.625 and 0.875 that of
    # B((0, -0.75), 0.125)
    idx = BallIndex(np.array([[0.5, 0.0], [0.0, -0.75]]), np.array([0.1, 0.125]))
    queries = np.array([[0.4, 0.0], [0.6, 0.0], [0.0, -0.625], [0.0, -0.875],
                        [np.nextafter(0.4, 0.0), 0.0], [np.nextafter(0.6, 1.0), 0.0],
                        [0.0, np.nextafter(-0.875, -1.0)]])
    hit, owner = idx.contains_batch(queries)
    assert owner.tolist() == [0, 0, 1, 1, -1, -1, -1]
    assert hit.tolist() == [True] * 4 + [False] * 3
    # x passes the closed test |x - c| <= r, but its computed norm is one ulp
    # below the computed band edge |c| - r
    c = np.array([0.28777166851821784, 0.5705821893238687])
    r = 0.1529762651285294
    x = np.array([0.21888396915109098, 0.43399440594417377])
    assert np.sqrt(((x - c) ** 2).sum()) <= r
    assert np.sqrt((x**2).sum()) < np.sqrt((c**2).sum()) - r
    hit, owner = BallIndex(c[None, :], np.array([r])).contains_batch(x[None, :])
    assert hit.tolist() == [True] and owner.tolist() == [0]


def test_index_empty_query():
    idx = BallIndex(np.array([[0.5, 0.0]]), np.array([0.1]))
    hit, owner = idx.contains_batch(np.empty((0, 2)))
    assert hit.shape == (0,) and owner.shape == (0,)
    assert hit.dtype == bool and owner.dtype == np.int64


def test_index_refuses_two_to_the_31_balls():
    # broadcast views, so that no row of the 2^31 balls is allocated
    centers = np.broadcast_to(np.zeros(2), (2**31, 2))
    radii = np.broadcast_to(np.ones(1), (2**31,))
    with pytest.raises(ValueError, match="int32 ids"):
        BallIndex(centers, radii)


def _kd_owner(tree, centers, radii, queries):
    """The ball holding each query, or -1: the KD-tree's balls within the
    largest radius of it, decided by the closed test |x - c| <= r."""
    owner = np.full(queries.shape[0], -1)
    for i, near in enumerate(tree.query_ball_point(queries, radii.max() * (1 + 1e-9))):
        for k in near:
            if np.sqrt(((queries[i] - centers[k]) ** 2).sum()) <= radii[k]:
                owner[i] = k
    return owner


def _shell_family(d, c, shells):
    cfg = generate_shell_config(BallDomain(np.zeros(d), 1.0), ConstantProfile(c), 0.5, shells,
                                seed=35)
    return cfg.centers, cfg.radii


@pytest.mark.parametrize("family", ["random", "multiscale", "dyadic", "disk", "ball"])
def test_queries_equal_the_kd_tree(family):
    rng = np.random.default_rng(7)
    centers, radii = {
        "random": lambda: _disjoint_balls(
            rng, 300, lambda g: (g.uniform(-1, 1, 2), 10.0 ** g.uniform(-4, -1))),
        "multiscale": lambda: _multiscale_family_3d(rng, 200, 100, 1e-9, 60)[:2],
        "dyadic": lambda: _disjoint_balls(rng, 60, _dyadic_ball),
        "disk": lambda: _shell_family(2, 0.4, 4),
        "ball": lambda: _shell_family(3, 0.3, 2),
    }[family]()
    idx, tree = BallIndex(centers, radii), cKDTree(centers)
    d = centers.shape[1]
    k = rng.integers(0, radii.size, 4000)
    u = rng.standard_normal((4000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    queries = centers[k] + radii[k, None] * u * rng.uniform(0.5, 1.5, (4000, 1))
    hit, owner = idx.contains_batch(queries)
    assert owner.dtype == np.int64
    want = _kd_owner(tree, centers, radii, queries)
    assert np.array_equal(np.where(hit, owner, -1), want)
    assert 0 < hit.sum() < hit.size


def test_single_point_lookup():
    idx = BallIndex(np.array([[0.5, 0.0]]), np.array([0.1]))
    for x, want in (([0.55, 0.0], 0), ([0.7, 0.0], -1)):
        hit, owner = idx.contains_batch(np.array([x]))
        assert hit.tolist() == [want == 0] and owner.tolist() == [want]


@pytest.mark.parametrize("d, c, shells", [(2, 0.1, 4), (3, 0.3, 2)])
def test_block_sizes_change_no_result(monkeypatch, tmp_path, d, c, shells):
    # Each pass over lattice rows, balls or queries takes a fixed block of rows
    # at a time.  Blocks of 97 rows, which end inside shells and cells, must
    # give what the default blocks give.
    rng = np.random.default_rng(d)

    def run(name):
        cfg = generate_shell_config(BallDomain(np.zeros(d), 1.0), ConstantProfile(c), 0.5,
                                    shells, seed=5)
        k = rng.integers(0, cfg.n, 4000)
        u = rng.standard_normal((4000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        queries = cfg.centers[k] + cfg.radii[k, None] * u * rng.uniform(0.5, 1.5, (4000, 1))
        cfg.to_csv(tmp_path / name)
        return [cfg.centers, cfg.radii, cfg.shell_ids, cfg.deltas,
                cfg.index.contains_batch(queries)[1], (tmp_path / name).read_bytes()]

    state = rng.bit_generator.state
    want = run("default.csv")
    for module, name in [(bubbles, "_LATTICE_BLOCK"), (bubbles, "_CSV_BLOCK"),
                         (bubbles, "_ROW_BLOCK"), (spatial, "_INDEX_BLOCK"),
                         (spatial, "_QUERY_BLOCK")]:
        assert getattr(module, name) > 97
        monkeypatch.setattr(module, name, 97)
    rng.bit_generator.state = state
    got = run("blocked.csv")
    assert want[0].shape[0] > 97 * 20
    assert (want[4] >= 0).sum() > 1000
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
