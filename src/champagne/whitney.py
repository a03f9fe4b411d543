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

:func:`decompose` lists every cube, for the CSV export, and
:func:`cube_counts` counts them per level.  Both walk the dyadic tree depth
first.  :func:`ball_cube_incidence` describes, for a whole family of balls
at once, every (ball, cube) pair where the closed ball meets the closed
cube box; :meth:`CubeIncidence.levels` lists those pairs one level at a
time, coarsest first, sorted by ball and then by cube, so that a caller
can consume each level and drop it before the next is built.  A level
ranks its cubes in lexicographic index order; numbering the cubes of
successive levels one after the other gives the (level, lexicographic
index) order that :func:`decompose` lists them in.  Balls with no pair lie
in the collar.  :func:`intersecting_cubes` is the per-ball reference the
incidence is tested against.

Memory.  :func:`cube_counts` keeps only counts, and the incidence never
holds more than one level's pairs.  The walk tests _CANDIDATE_CHUNK boxes
at a time and keeps, per level of its depth, the children of one batch, at
most 2^d * _CANDIDATE_CHUNK boxes.  The incidence computes the candidate
windows of _BALL_BLOCK balls at a time and expands _CANDIDATE_CHUNK
candidate boxes at a time.  It keeps each pair of the level being built as
a ball id and an int64 cube key, ranks the keys, and then holds per pair a
ball id and a cube rank and per cube its index and dist(Q, boundary), the
latter computed _CANDIDATE_CHUNK cubes at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import BallDomain

__all__ = [
    "WhitneyDecomposition",
    "CubeIncidence",
    "LevelPairs",
    "whitney",
    "decompose",
    "cube_counts",
    "intersecting_cubes",
    "ball_cube_incidence",
    "coverage_threshold",
]

# enumeration guard for degenerate queries
_MAX_CANDIDATES_PER_LEVEL = 4_000_000
# candidate boxes tested at a time, by the walk and by the incidence
_CANDIDATE_CHUNK = 1 << 12
# balls whose candidate windows the incidence computes at a time
_BALL_BLOCK = 1 << 13


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


def _walk(domain: BallDomain, max_level: int):
    """Every Whitney cube down to dyadic level ``max_level``, as batches
    (level, indices, dists) in depth-first order.

    Descends the dyadic tree from :func:`_top_level`, keeping the boxes that
    :func:`whitney` accepts and refining the others that meet the ball, one
    batch of at most _CANDIDATE_CHUNK boxes at a time.  Every emitted cube
    satisfies diam <= dist(Q, boundary) <= 4*diam.  Raises if no cube fits.
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
    stack = [(top, _box_range(np.floor((c - R) / side).astype(np.int64),
                              np.floor((c + R) / side).astype(np.int64)))
             ] if top <= max_level else []
    found = False
    while stack:
        level, cand = stack.pop()
        side = 2.0 ** (-level)
        member, dist = whitney(domain, level, cand)
        if member.any():
            dist = dist[member]
            # classical upper bound, guaranteed by maximality
            if not np.all(dist <= 4.0 * side * sqd):
                raise RuntimeError("Whitney upper bound dist <= 4*diam violated")
            found = True
            yield level, cand[member], dist
        if level == max_level:
            continue
        # a candidate's parent failed ok, so a candidate that is not a
        # Whitney cube fails ok too: refine it where it meets the ball
        rest = cand[~member]
        children = rest[_meets(rest, side, c, R)]
        children = (children[:, None, :] * 2 + offsets[None, :, :]).reshape(-1, d)
        stack.extend((level + 1, children[i:i + _CANDIDATE_CHUNK])
                     for i in range(0, children.shape[0], _CANDIDATE_CHUNK))
    if not found:
        raise ValueError(
            f"max_level={max_level} too small: no dyadic cube fits inside the domain"
        )


def decompose(domain: BallDomain, max_level: int) -> WhitneyDecomposition:
    """Every Whitney cube down to dyadic level ``max_level``, each level in
    lexicographic index order.  Raises if no cube fits."""
    batches = {}
    for level, idx, dist in _walk(domain, max_level):
        batches.setdefault(level, []).append((idx, dist))
    level_idx, level_dist = {}, {}
    for level in sorted(batches):
        idx = np.concatenate([b[0] for b in batches[level]])
        order = np.lexsort(idx.T[::-1])
        level_idx[level] = idx[order]
        level_dist[level] = np.concatenate([b[1] for b in batches[level]])[order]
    return WhitneyDecomposition(domain, max_level, level_idx, level_dist)


def cube_counts(domain: BallDomain, max_level: int) -> dict:
    """How many Whitney cubes each level down to ``max_level`` has, for the
    levels that have any, without holding the cubes.  Raises if no cube
    fits."""
    counts = {}
    for level, idx, _ in _walk(domain, max_level):
        counts[level] = counts.get(level, 0) + idx.shape[0]
    return dict(sorted(counts.items()))


def _candidate_window(dimension: int, delta, r):
    # any cube meeting the ball has side in [(delta-r)/(5 sqrt d), (delta+r)/sqrt d];
    # widen by 2x each way for safety.  Scalars or arrays.
    sqd = math.sqrt(dimension)
    return (delta - r) / (10.0 * sqd), 2.0 * (delta + r) / sqd


def _delta(domain: BallDomain, x: np.ndarray) -> np.ndarray:
    """delta_D of each center."""
    return domain.radius - np.sqrt(((x - domain.center) ** 2).sum(axis=-1))


def _check_balls(domain: BallDomain, x: np.ndarray, r) -> np.ndarray:
    """delta_D of each center; raises unless 0 < r < delta_D/2."""
    domain._check_dim(x)
    delta = _delta(domain, x)
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


class LevelPairs(NamedTuple):
    """One level's (ball, cube) pairs, sorted by ball and then by cube."""

    level: int
    ball: np.ndarray    # (m,) int64 ball index per pair
    cube: np.ndarray    # (m,) int64 per pair: its cube's rank among this level's cubes
    index: np.ndarray   # (k, d) int64 the level's cubes that meet some ball, lexsorted
    dist: np.ndarray    # (k,) float64 dist(Q, boundary) per cube


@dataclass(frozen=True, eq=False)
class CubeIncidence:
    """Every (ball, cube) pair of a ball family where the closed ball meets
    the closed box of a Whitney cube of ``domain`` down to ``max_level``.

    The pairs are not stored: :meth:`levels` builds them one level at a
    time.  The balls are checked by :func:`ball_cube_incidence`, which
    makes the incidence; ``centers`` and ``radii`` are read, never copied.
    """

    domain: BallDomain
    max_level: int
    centers: np.ndarray   # (n, d)
    radii: np.ndarray     # (n,)

    @property
    def n_balls(self) -> int:
        return int(self.radii.shape[0])

    @property
    def coverage_threshold(self) -> float:
        return coverage_threshold(self.domain.dimension, self.max_level)

    def levels(self) -> Iterator[LevelPairs]:
        """The pairs of each level that has any, coarsest level first.

        Equals a loop of :func:`intersecting_cubes` over the balls, split by
        level: each ball whose candidate window includes the level has its
        box range expanded, tested with :func:`whitney` and kept where the
        nearest point of the box lies in the ball.
        """
        for lev in range(_top_level(self.domain), self.max_level + 1):
            pairs = self._level(lev)
            if pairs is not None:
                yield pairs
                del pairs   # the caller's reference is then the last

    def _level(self, lev: int) -> LevelPairs | None:
        """The pairs of level ``lev``, or None if it has none."""
        grid = _LevelGrid(self.domain, lev)
        parts = [part for start in range(0, self.n_balls, _BALL_BLOCK)
                 for part in self._expand(lev, start, grid)]
        if not parts:
            return None
        balls, keys = zip(*parts)
        del parts
        keys, rank = _distinct(np.concatenate(keys))
        index = grid.index(keys)
        del keys
        side = 2.0 ** (-lev)
        dist = np.empty(index.shape[0])
        for start in range(0, dist.size, _CANDIDATE_CHUNK):
            block = index[start:start + _CANDIDATE_CHUNK]
            dist[start:start + _CANDIDATE_CHUNK] = (
                self.domain.radius - _max_dist(block, side, self.domain.center))
        return LevelPairs(lev, np.concatenate(balls), rank, index, dist)

    def _expand(self, lev: int, start: int, grid: "_LevelGrid"):
        """The pairs at level ``lev`` of the balls start..start+_BALL_BLOCK-1,
        as (balls, cube keys) batches in ball order, each ball's cubes in
        lexicographic order."""
        d = self.domain.dimension
        side = 2.0 ** (-lev)
        x = self.centers[start:start + _BALL_BLOCK]
        r = self.radii[start:start + _BALL_BLOCK]
        lo_side, hi_side = _candidate_window(d, _delta(self.domain, x), r)
        sel = np.flatnonzero((lo_side <= side) & (side <= hi_side))
        if sel.size == 0:
            return
        kmin = np.floor((x[sel] - r[sel, None]) / side).astype(np.int64)
        dims = np.floor((x[sel] + r[sel, None]) / side).astype(np.int64) - kmin + 1
        counts = dims.prod(axis=1)
        if counts.max() > _MAX_CANDIDATES_PER_LEVEL:
            raise RuntimeError("candidate enumeration unexpectedly large")
        step = max(1, _CANDIDATE_CHUNK // int(counts.max()))
        for lo in range(0, sel.size, step):
            part = slice(lo, min(lo + step, sel.size))
            owner = np.repeat(np.arange(part.start, part.stop), counts[part])
            offset = np.arange(owner.size) - np.repeat(
                np.cumsum(counts[part]) - counts[part], counts[part])
            boxes = np.empty((owner.size, d), dtype=np.int64)
            for j in reversed(range(d)):   # C order, as meshgrid(indexing="ij")
                boxes[:, j] = kmin[owner, j] + offset % dims[owner, j]
                offset //= dims[owner, j]
            member = whitney(self.domain, lev, boxes)[0]
            owner, boxes = sel[owner[member]], boxes[member]
            meets = _meets(boxes, side, x[owner], r[owner])
            if meets.any():
                yield start + owner[meets], grid.keys(boxes[meets])


def _distinct(keys: np.ndarray):
    """The distinct values of keys in increasing order, and the rank of
    every key among them (np.unique holds several times more memory)."""
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    rank = np.empty(order.size, dtype=np.int64)
    new = np.cumsum(new)
    new -= 1
    rank[order] = new
    return keys, rank


class _LevelGrid:
    """Integer keys of the boxes of one level that lie in the domain's
    bounding box, increasing in lexicographic index order."""

    def __init__(self, domain: BallDomain, level: int):
        side = 2.0 ** (-level)
        self.origin = np.floor((domain.center - domain.radius) / side).astype(np.int64)
        self.shape = np.floor((domain.center + domain.radius) / side).astype(np.int64) \
            - self.origin + 1
        if math.prod(self.shape.tolist()) >= 2**63:
            raise RuntimeError(f"level {level} is too fine for int64 cube keys")

    def keys(self, idx: np.ndarray) -> np.ndarray:
        key = idx[:, 0] - self.origin[0]
        for j in range(1, idx.shape[1]):
            key *= self.shape[j]
            key += idx[:, j] - self.origin[j]
        return key

    def index(self, keys: np.ndarray) -> np.ndarray:
        idx = np.empty((keys.size, self.shape.size), dtype=np.int64)
        rest = keys.copy()
        for j in reversed(range(self.shape.size)):
            idx[:, j] = rest % self.shape[j] + self.origin[j]
            rest //= self.shape[j]
        return idx


def ball_cube_incidence(domain: BallDomain, max_level: int, centers, radii) -> CubeIncidence:
    """The incidence of the balls (centers, radii) with the Whitney cubes of
    ``domain`` down to ``max_level``, after the checks of
    :func:`intersecting_cubes` on every ball, _BALL_BLOCK balls at a time."""
    x = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    if r.size == 0:
        x = np.empty((0, domain.dimension))
    for start in range(0, r.size, _BALL_BLOCK):
        _check_balls(domain, x[start:start + _BALL_BLOCK], r[start:start + _BALL_BLOCK])
    return CubeIncidence(domain, int(max_level), x, r)
