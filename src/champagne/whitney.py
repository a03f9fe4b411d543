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

:func:`decompose` lists every cube as per-level arrays, walking the dyadic
tree depth first, and :func:`write_csv` writes them as ``whitney.csv``.
:func:`incidence_levels` describes, for a whole bubble configuration at
once, every (bubble, cube) pair where the closed ball meets the closed cube
box, one level at a time, coarsest first, sorted by ball and then by cube,
so that a caller can consume each level and drop it before the next is
built.  It reads the centres, radii and distances to the boundary of
a ``bubbles.BubbleConfig``, whose checks (r > 0 and fl(r/delta) < 1/2, which
forces r < delta/2) are the ones its candidate windows need, so it checks no
ball again.  A level ranks its cubes in lexicographic index order; numbering
the cubes of successive levels one after the other gives the (level,
lexicographic index) order that :func:`decompose` lists them in.  Balls with
no pair lie in the collar.  :func:`intersecting_cubes`, with its own check of
the ball, is the per-ball reference the incidence is tested against.

Memory.  The walk tests _CANDIDATE_CHUNK boxes at a time and keeps, per
level of its depth, the children of one batch, at most 2^d *
_CANDIDATE_CHUNK boxes.  The incidence never holds more than one level's
pairs.  It computes the candidate windows of _BALL_BLOCK balls at a time and
expands _CANDIDATE_CHUNK candidate boxes at a time.  It keeps each pair of
the level being built as an int32 ball id and an int64 cube key (12 bytes),
ranks the keys (their sort order and the sorted keys, 16 bytes a pair more
while it ranks), and then holds per pair an int32 ball id and an int32 cube
rank (8 bytes) and per cube its int64 index and float64 dist(Q, boundary)
(8d + 8 bytes), the latter computed _CANDIDATE_CHUNK cubes at a time.  Keys
and products that can pass 2^31 are formed in int64.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .geometry import BallDomain, _csv_lines, _cube_grid, dist_to_boundary, finest_key_level

if TYPE_CHECKING:
    from .bubbles import BubbleConfig

__all__ = [
    "LevelPairs",
    "whitney",
    "decompose",
    "write_csv",
    "intersecting_cubes",
    "incidence_levels",
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
        raise ValueError(f"max_level={max_level} too small: "
                         "no dyadic cube fits inside the domain")


def decompose(domain: BallDomain, max_level: int) -> dict:
    """Every Whitney cube down to dyadic level ``max_level``, as
    ``{level: (indices, dists)}``: the levels that have cubes, in increasing
    order, each with its (n, d) int64 indices in lexicographic order and
    their (n,) float64 dist(Q, boundary).  Raises if no cube fits."""
    batches = {}
    for level, idx, dist in _walk(domain, max_level):
        batches.setdefault(level, []).append((idx, dist))
    cubes = {}
    for level in sorted(batches):
        idx = np.concatenate([b[0] for b in batches[level]])
        order = np.lexsort(idx.T[::-1])
        cubes[level] = idx[order], np.concatenate([b[1] for b in batches[level]])[order]
    return cubes


def write_csv(path, cubes: dict) -> None:
    """Write :func:`decompose`'s cubes as CSV: level, index components,
    center coords, side, dist_boundary; floats as repr, CRLF line ends.
    Rows are formatted _CANDIDATE_CHUNK cubes at a time, a column at a time
    from ``tolist()`` (``geometry._csv_lines``)."""
    d = next(iter(cubes.values()))[0].shape[1]
    header = (["level"] + [f"i_{j}" for j in range(d)] + [f"c_{j}" for j in range(d)]
              + ["side", "dist_boundary"])
    with open(path, "w", newline="") as f:
        f.write(_csv_lines([name] for name in header))
        for lev, (indices, dists) in cubes.items():
            side = 2.0 ** (-lev)
            for start in range(0, indices.shape[0], _CANDIDATE_CHUNK):
                idx = indices[start:start + _CANDIDATE_CHUNK]
                n = idx.shape[0]
                f.write(_csv_lines([
                    [str(lev)] * n,
                    *(map(str, k) for k in idx.T.tolist()),
                    *(map(repr, c) for c in ((idx + 0.5) * side).T.tolist()),
                    [repr(side)] * n,
                    map(repr, dists[start:start + n].tolist()),
                ]))


def _candidate_window(dimension: int, delta, r):
    # any cube meeting the ball has side in [(delta-r)/(5 sqrt d), (delta+r)/sqrt d];
    # widen by 2x each way for safety.  Scalars or arrays.
    sqd = math.sqrt(dimension)
    return (delta - r) / (10.0 * sqd), 2.0 * (delta + r) / sqd


def intersecting_cubes(domain: BallDomain, max_level: int, center, radius: float) -> np.ndarray:
    """Whitney cubes down to ``max_level`` whose closed box meets the closed
    ball, as rows (level, k_1..k_d) in ascending (level, index) order.

    Requires the ball to sit well inside the domain: radius < delta_D(center)/2.
    """
    x = np.asarray(center, dtype=float)
    delta = dist_to_boundary(domain, x)
    if not 0 < radius < delta / 2:
        raise ValueError("ball not inside D: require 0 < radius < dist_to_boundary(center)/2")
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
    ball: np.ndarray    # (m,) int32 ball index per pair
    cube: np.ndarray    # (m,) int32 per pair: its cube's rank among this level's cubes
    index: np.ndarray   # (k, d) int64 the level's cubes that meet some ball, lexsorted
    dist: np.ndarray    # (k,) float64 dist(Q, boundary) per cube


def incidence_levels(config: BubbleConfig, max_level: int) -> Iterator[LevelPairs]:
    """Every (bubble, cube) pair of ``config`` where the closed ball meets the
    closed box of a Whitney cube of its domain down to ``max_level``, one
    level at a time: the pairs of each level that has any, coarsest level
    first.  The pairs are not stored; the centres, radii and distances to
    the boundary are read from ``config``, never copied.

    Equals a loop of :func:`intersecting_cubes` over the bubbles, split by
    level: each bubble whose candidate window includes the level has its box
    range expanded, tested with :func:`whitney` and kept where the nearest
    point of the box lies in the ball.
    """
    for lev in range(_top_level(config.domain), max_level + 1):
        pairs = _level(config, lev)
        if pairs is not None:
            yield pairs
            del pairs   # the caller's reference is then the last


def _level(config: BubbleConfig, lev: int) -> LevelPairs | None:
    """The pairs of level ``lev``, or None if it has none."""
    domain = config.domain
    grid = _LevelGrid(domain, lev)
    parts = [part for start in range(0, config.n, _BALL_BLOCK)
             for part in _expand(config, lev, start, grid)]
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
            domain.radius - _max_dist(block, side, domain.center))
    return LevelPairs(lev, np.concatenate(balls), rank, index, dist)


def _expand(config: BubbleConfig, lev: int, start: int, grid: "_LevelGrid"):
    """The pairs at level ``lev`` of the bubbles start..start+_BALL_BLOCK-1,
    as (balls, cube keys) batches in ball order, each ball's cubes in
    lexicographic order."""
    d = config.dimension
    side = 2.0 ** (-lev)
    block = slice(start, start + _BALL_BLOCK)
    x, r = config.centers[block], config.radii[block]
    lo_side, hi_side = _candidate_window(d, config.deltas[block], r)
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
        member = whitney(config.domain, lev, boxes)[0]
        owner, boxes = sel[owner[member]], boxes[member]
        meets = _meets(boxes, side, x[owner], r[owner])
        if meets.any():
            yield (start + owner[meets]).astype(np.int32), grid.keys(boxes[meets])


def _distinct(keys: np.ndarray):
    """The distinct values of keys in increasing order, and the int32 rank
    of every key among them (np.unique holds several times more memory)."""
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    rank = np.empty(order.size, dtype=np.int32)
    new = np.cumsum(new, dtype=np.int32)
    new -= 1
    rank[order] = new
    return keys, rank


class _LevelGrid:
    """Integer keys of the boxes of one level that lie in the domain's
    bounding box, increasing in lexicographic index order."""

    def __init__(self, domain: BallDomain, level: int):
        if level > finest_key_level(domain):
            raise RuntimeError(f"level {level} is too fine for int64 cube keys")
        self.origin, self.shape = (np.array(v, dtype=np.int64)
                                   for v in _cube_grid(domain, level))

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
