"""Dyadic Whitney cubes of a ball domain, decided in closed form.

A cube is the half-open dyadic box prod_i [k_i*s, (k_i+1)*s) with
s = 2**-level, and is named by its (level, integer index k).  For a box Q
let maxd(Q) be the largest distance of its closed box from the centre and

    ok(Q) = [maxd(Q) < R and diam(Q) <= R - maxd(Q)],

where R - maxd(Q) is dist(Q, boundary) for a box inside the ball.  ok only
gets stronger down the dyadic tree: if a cube satisfies it, so do all its
descendants.  So Q is a Whitney cube exactly when ok(Q) holds and ok fails
for its dyadic parent (:func:`whitney`); no decomposition has to be built
or searched to decide it.  The family is the unique maximal one, the
classical upper bound dist <= 4*diam then holds, and :func:`decompose`
asserts it rather than assuming it.  The coarsest level looked at is the
finest one whose cubes are too big for ok (side*sqrt(d) > R); it is
negative when R >= sqrt(d).

Refinement stops at ``max_level``; the uncovered boundary collar
{delta_D < 5*sqrt(d)*2**-max_level} is explicit, and criteria built on top
must treat it via tail estimates.

:func:`decompose` lists every cube, for the CSV export.
:func:`ball_cube_incidence` lists, for a whole family of balls at once, every
(ball, cube) pair where the closed ball meets the closed cube box, sorted by
ball and then by cube.  It numbers its cubes by rank in (level,
lexicographic index) order, the order :func:`decompose` lists them in.
Balls with no pair lie in the collar.  The criteria sums over one
configuration all share that one incidence; :func:`intersecting_cubes` is
the per-ball reference it is tested against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BallDomain

__all__ = [
    "WhitneyDecomposition",
    "CubeIncidence",
    "whitney",
    "decompose",
    "intersecting_cubes",
    "ball_cube_incidence",
    "coverage_threshold",
    "max_cubes_per_ball",
    "bubble_cube_ratio_bound",
]

# enumeration guard for degenerate queries
_MAX_CANDIDATES_PER_LEVEL = 4_000_000
# candidate boxes per batch in ball_cube_incidence (bounds its memory)
_CANDIDATE_CHUNK = 1 << 17


def coverage_threshold(dimension: int, max_level: int) -> float:
    """Depth of the uncovered boundary collar: 5*sqrt(d)*2**-max_level."""
    return 5.0 * math.sqrt(dimension) * 2.0 ** (-max_level)


class WhitneyDecomposition:
    """Immutable result of :func:`decompose`: the cubes per level as integer
    index arrays in canonical (level, lexicographic index) order, with their
    dist(Q, boundary).
    """

    def __init__(self, domain: BallDomain, max_level: int, level_idx: dict, level_dist: dict):
        self.domain = domain
        self.max_level = int(max_level)
        self._idx = level_idx          # level -> (n_l, d) int64, lexsorted
        self._dist = level_dist        # level -> (n_l,) float64
        self.levels = sorted(level_idx)
        self._n = sum(idx.shape[0] for idx in level_idx.values())

    def __len__(self) -> int:
        return self._n

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def coverage_threshold(self) -> float:
        return coverage_threshold(self.dimension, self.max_level)

    def level_indices(self, level: int) -> np.ndarray:
        return self._idx[level]

    def level_dists(self, level: int) -> np.ndarray:
        return self._dist[level]

    def level_centers(self, level: int) -> np.ndarray:
        side = 2.0 ** (-level)
        return (self._idx[level] + 0.5) * side

    def to_csv(self, path) -> None:
        """Export as CSV: level, index components, center coords, side, dist_boundary."""
        d = self.dimension
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(
                ["level"]
                + [f"i_{j}" for j in range(d)]
                + [f"c_{j}" for j in range(d)]
                + ["side", "dist_boundary"]
            )
            for lev in self.levels:
                side = 2.0 ** (-lev)
                centers = self.level_centers(lev)
                for idx, ctr, dist in zip(self._idx[lev], centers, self._dist[lev]):
                    w.writerow(
                        [lev]
                        + [int(k) for k in idx]
                        + [repr(float(c)) for c in ctr]
                        + [repr(side), repr(float(dist))]
                    )


def _max_dist(idx: np.ndarray, side: float, center: np.ndarray) -> np.ndarray:
    """Largest |y - center| over each closed box idx*side + [0, side]^d."""
    lo = idx * side
    far = np.maximum(lo + side - center, center - lo)
    return np.sqrt((far * far).sum(axis=1))


def _ok(domain: BallDomain, side: float, idx: np.ndarray):
    """ok(Q) for the boxes idx of the given side, and their R - maxd(Q)."""
    maxd = _max_dist(idx, side, domain.center)
    dist = domain.radius - maxd
    return (maxd < domain.radius) & (side * math.sqrt(domain.dimension) <= dist), dist


def whitney(domain: BallDomain, level: int, idx) -> tuple[np.ndarray, np.ndarray]:
    """Which boxes of ``level`` with integer indices idx (n, d) are Whitney
    cubes of the domain, and each box's R - maxd(Q), its dist(Q, boundary)
    when it is one.

    A box is a Whitney cube when ok holds for it and fails for its dyadic
    parent.  Cutting the family off at a ``max_level`` is the caller's part.
    """
    idx = np.asarray(idx, dtype=np.int64)
    side = 2.0 ** (-level)
    ok, dist = _ok(domain, side, idx)
    parent_ok, _ = _ok(domain, 2.0 * side, idx // 2)
    return ok & ~parent_ok, dist


def _meets(boxes: np.ndarray, side: float, x: np.ndarray, r) -> np.ndarray:
    """Whether each closed box meets the closed ball B(x, r): the nearest
    point of the box to x lies within r."""
    lo = boxes * side
    near = np.maximum(np.maximum(lo - x, x - (lo + side)), 0.0)
    return (near * near).sum(axis=1) <= r * r


def _top_level(domain: BallDomain) -> int:
    """The finest level whose cubes are too big for ok: side*sqrt(d) > R."""
    sqd = math.sqrt(domain.dimension)
    level = math.floor(math.log2(sqd / domain.radius))
    while 2.0 ** (-level) * sqd <= domain.radius:
        level -= 1
    while 2.0 ** (-(level + 1)) * sqd > domain.radius:
        level += 1
    return level


def _box_range(kmin: np.ndarray, kmax: np.ndarray) -> np.ndarray:
    """Every integer index in the box [kmin, kmax], in lexicographic order."""
    axes = [np.arange(a, b + 1) for a, b in zip(kmin, kmax)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def decompose(domain: BallDomain, max_level: int) -> WhitneyDecomposition:
    """Every Whitney cube down to dyadic level ``max_level``.

    Descends the dyadic tree from :func:`_top_level`, keeping the boxes that
    :func:`whitney` accepts and refining the others that meet the ball.
    Every emitted cube satisfies diam <= dist(Q, boundary) <= 4*diam.
    Raises if no cube fits.
    """
    if max_level < 2:
        raise ValueError("max_level must be >= 2")
    d = domain.dimension
    sqd = math.sqrt(d)
    c = domain.center
    R = domain.radius

    offsets = _box_range(np.zeros(d, dtype=np.int64), np.ones(d, dtype=np.int64))
    top = _top_level(domain)
    side = 2.0 ** (-top)
    cand = _box_range(np.floor((c - R) / side).astype(np.int64),
                      np.floor((c + R) / side).astype(np.int64))

    level_idx, level_dist = {}, {}
    for level in range(top, max_level + 1):
        if cand.shape[0] == 0:
            break
        side = 2.0 ** (-level)
        member, dist = whitney(domain, level, cand)
        if member.any():
            emitted = cand[member]
            order = np.lexsort(emitted.T[::-1])
            level_idx[level] = emitted[order]
            level_dist[level] = dist[member][order]
            # classical upper bound, guaranteed by maximality
            if not np.all(level_dist[level] <= 4.0 * side * sqd):
                raise RuntimeError("Whitney upper bound dist <= 4*diam violated")
        if level == max_level:
            break
        # a candidate's parent failed ok, so a candidate that is not a
        # Whitney cube fails ok too: refine it where it meets the ball
        rest = cand[~member]
        children = rest[_meets(rest, side, c, R)]
        cand = (children[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, d)

    if not level_idx:
        raise ValueError(
            f"max_level={max_level} too small: no dyadic cube fits inside the domain"
        )
    return WhitneyDecomposition(domain, max_level, level_idx, level_dist)


def _candidate_window(dimension: int, delta, r):
    # any cube meeting the ball has side in [(delta-r)/(5 sqrt d), (delta+r)/sqrt d];
    # widen by 2x each way for safety.  Scalars or arrays.
    sqd = math.sqrt(dimension)
    return (delta - r) / (10.0 * sqd), 2.0 * (delta + r) / sqd


def _check_balls(domain: BallDomain, x: np.ndarray, r) -> np.ndarray:
    """delta_D of each center; raises unless 0 < r < delta_D/2."""
    domain._check_dim(x)
    delta = domain.radius - np.sqrt(((x - domain.center) ** 2).sum(axis=-1))
    if not np.all(r > 0):
        raise ValueError("ball radius must be > 0")
    if not np.all(r < delta / 2):
        raise ValueError("ball not inside D: require radius < dist_to_boundary(center)/2")
    return delta


def intersecting_cubes(domain: BallDomain, max_level: int, center, radius: float) -> np.ndarray:
    """Whitney cubes down to ``max_level`` whose closed box meets the closed
    ball, as rows (level, k_1..k_d) in ascending (level, index) order.

    Requires the ball to sit well inside the domain: radius < delta_D(center)/2.
    """
    x = np.asarray(center, dtype=float)
    delta = float(_check_balls(domain, x, radius))
    lo_side, hi_side = _candidate_window(domain.dimension, delta, radius)
    found = [np.empty((0, domain.dimension + 1), dtype=np.int64)]
    for lev in range(_top_level(domain), max_level + 1):
        side = 2.0 ** (-lev)
        if not lo_side <= side <= hi_side:
            continue
        kmin = np.floor((x - radius) / side).astype(np.int64)
        kmax = np.floor((x + radius) / side).astype(np.int64)
        if int(np.prod(kmax - kmin + 1)) > _MAX_CANDIDATES_PER_LEVEL:
            raise RuntimeError("candidate enumeration unexpectedly large")
        grid = _box_range(kmin, kmax)
        boxes = grid[whitney(domain, lev, grid)[0]]
        boxes = boxes[_meets(boxes, side, x, radius)]
        found.append(np.column_stack([np.full(boxes.shape[0], lev, dtype=np.int64), boxes]))
    return np.concatenate(found)


@dataclass(frozen=True, eq=False)
class CubeIncidence:
    """Every (ball, cube) pair of a ball family where the closed ball meets
    the closed box of a Whitney cube of ``domain`` down to ``max_level``,
    sorted by ball and then by cube.

    The cubes are those that meet some ball, numbered by rank in (level,
    lexicographic index) order; the per-cube arrays follow that order.
    Balls with no pair lie in the uncovered boundary collar.  Built once per
    configuration by :func:`ball_cube_incidence` and shared by every
    criteria sum over it.
    """

    domain: BallDomain
    max_level: int
    n_balls: int
    ball: np.ndarray            # (m,) int64 ball index
    cube: np.ndarray            # (m,) int64 cube number
    level: np.ndarray           # (n,) int64 per cube
    index: np.ndarray           # (n, d) int64 per cube
    dist_boundary: np.ndarray   # (n,) float64 per cube
    # values that users derive from the pairs once and reuse, by their own keys
    derived: dict = field(default_factory=dict, repr=False)

    @property
    def coverage_threshold(self) -> float:
        return coverage_threshold(self.domain.dimension, self.max_level)

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Corners lo, hi (n, d) of each cube's closed box."""
        side = np.ldexp(1.0, -self.level)[:, None]
        lo = self.index * side
        return lo, lo + side

    def cubes_per_ball(self) -> np.ndarray:
        return np.bincount(self.ball, minlength=self.n_balls)

    def uncovered(self) -> np.ndarray:
        """Balls that meet no cube (they lie in the collar), ascending."""
        return np.flatnonzero(self.cubes_per_ball() == 0)


def _distinct_rows(idx: np.ndarray):
    """The distinct rows of idx in lexicographic order, the position of the
    first occurrence of each, and the rank of every row among them."""
    order = np.lexsort(idx.T[::-1])
    rows = idx[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rank = np.empty(rows.shape[0], dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rows[new], order[new], rank


def ball_cube_incidence(domain: BallDomain, max_level: int, centers, radii) -> CubeIncidence:
    """All (ball, cube) pairs where a closed ball meets the closed box of a
    Whitney cube down to ``max_level``.

    Equals a loop of :func:`intersecting_cubes` over the balls, with the same
    checks, but runs level by level over all balls at once: each ball whose
    candidate window includes the level has its box range expanded, tested
    with :func:`whitney` and kept where the nearest point of the box lies in
    the ball.
    """
    x = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    d = domain.dimension
    if r.size:
        delta = _check_balls(domain, x, r)
    else:
        x, delta = np.empty((0, d)), np.empty(0)
    lo_side, hi_side = _candidate_window(d, delta, r)
    balls, cubes, levels, index, dists = [], [], [], [], []
    n_cubes = 0
    for lev in range(_top_level(domain), max_level + 1):
        side = 2.0 ** (-lev)
        sel = np.flatnonzero((lo_side <= side) & (side <= hi_side))
        if sel.size == 0:
            continue
        kmin = np.floor((x[sel] - r[sel, None]) / side).astype(np.int64)
        dims = np.floor((x[sel] + r[sel, None]) / side).astype(np.int64) - kmin + 1
        counts = dims.prod(axis=1)
        if counts.max() > _MAX_CANDIDATES_PER_LEVEL:
            raise RuntimeError("candidate enumeration unexpectedly large")
        step = max(1, _CANDIDATE_CHUNK // int(counts.max()))
        lev_balls, lev_boxes, lev_dists = [], [], []
        for start in range(0, sel.size, step):
            part = slice(start, min(start + step, sel.size))
            owner = np.repeat(np.arange(part.start, part.stop), counts[part])
            offset = np.arange(owner.size) - np.repeat(
                np.cumsum(counts[part]) - counts[part], counts[part])
            boxes = np.empty((owner.size, d), dtype=np.int64)
            for j in reversed(range(d)):   # C order, as meshgrid(indexing="ij")
                boxes[:, j] = kmin[owner, j] + offset % dims[owner, j]
                offset //= dims[owner, j]
            member, dist = whitney(domain, lev, boxes)
            owner, boxes, dist = sel[owner[member]], boxes[member], dist[member]
            meets = _meets(boxes, side, x[owner], r[owner])
            lev_balls.append(owner[meets])
            lev_boxes.append(boxes[meets])
            lev_dists.append(dist[meets])
        rows, first, rank = _distinct_rows(np.concatenate(lev_boxes))
        balls.extend(lev_balls)
        cubes.append(n_cubes + rank)
        levels.append(np.full(rows.shape[0], lev, dtype=np.int64))
        index.append(rows)
        dists.append(np.concatenate(lev_dists)[first])
        n_cubes += rows.shape[0]
    empty = np.empty(0, dtype=np.int64)
    ball = np.concatenate([empty, *balls])
    cube = np.concatenate([empty, *cubes])
    order = np.lexsort((cube, ball))
    return CubeIncidence(
        domain, int(max_level), int(r.size), ball[order], cube[order],
        np.concatenate([empty, *levels]),
        np.concatenate([np.empty((0, d), dtype=np.int64), *index]),
        np.concatenate([np.empty(0), *dists]),
    )


def max_cubes_per_ball(inc: CubeIncidence) -> int:
    """Empirical bound on how many cubes one bubble can meet (c2 report)."""
    return int(inc.cubes_per_ball().max(initial=0))


def bubble_cube_ratio_bound(inc: CubeIncidence, config, boundary_points) -> float:
    """Empirical two-sided comparison constant for bubble/cube geometry.

    For every bubble meeting a cube, measures dist(Q, boundary)/delta_D(x_k)
    and, over the given boundary points z, dist(z, Q)/|x_k - z|; returns the
    smallest C >= 1 with all ratios in [1/C, C].  ``inc`` is the incidence
    of ``config``.
    """
    z = np.asarray(boundary_points, dtype=float)
    if inc.ball.size == 0:
        return 1.0
    dom = inc.domain
    lo, hi = inc.boxes()
    lo, hi, dist = lo[inc.cube], hi[inc.cube], inc.dist_boundary[inc.cube]
    centers = config.centers[inc.ball]
    delta = dom.radius - np.sqrt(((centers - dom.center) ** 2).sum(axis=1))
    r1 = dist / delta
    worst = max(1.0, float(r1.max()), float((1.0 / r1).max()))
    for zj in z:   # one boundary point at a time keeps the arrays pairs x d
        dist_z_center = np.sqrt(((zj - centers) ** 2).sum(axis=1))
        nearest = np.clip(zj, lo, hi)
        dist_z_cube = np.sqrt(((zj - nearest) ** 2).sum(axis=1))
        r2 = dist_z_cube / dist_z_center
        worst = max(worst, float(r2.max()), float((1.0 / r2).max()))
    return worst
