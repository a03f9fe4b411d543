"""Dyadic Whitney decomposition of a ball domain.

Cubes are half-open dyadic boxes prod_i [k_i*s, (k_i+1)*s) with s = 2**-level.
A cube is emitted iff it satisfies diam(Q) <= dist(Q, boundary) while its
dyadic parent does not, which makes the emitted family the unique maximal one;
the classical upper bound dist <= 4*diam then holds and is asserted rather
than assumed.  dist(Q, boundary) is computed in closed form for balls.

Refinement stops at ``max_level``; the uncovered boundary collar
{delta_D < 5*sqrt(d)*2**-max_level} is explicit, and criteria built on top
must treat it via tail estimates.

:func:`ball_cube_incidence` lists, for a whole family of balls at once, every
(ball, cube) pair where the closed ball meets the closed cube box, sorted by
ball and then by cube.  Balls with no pair lie in the collar.  The criteria
sums over one configuration all share that one incidence;
:func:`intersecting_cubes` is the per-ball reference it is tested against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BallDomain

__all__ = [
    "WhitneyCube",
    "WhitneyDecomposition",
    "CubeIncidence",
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


@dataclass(frozen=True)
class WhitneyCube:
    """One dyadic cube: level, integer multi-index, side 2**-level."""

    level: int
    index: tuple
    side: float
    center: np.ndarray
    dist_boundary: float

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.asarray(self.index, dtype=float) * self.side
        return lo, lo + self.side


def coverage_threshold(dimension: int, max_level: int) -> float:
    """Depth of the uncovered boundary collar: 5*sqrt(d)*2**-max_level."""
    return 5.0 * math.sqrt(dimension) * 2.0 ** (-max_level)


class WhitneyDecomposition:
    """Immutable result of :func:`decompose`.

    Cubes are stored per level as integer index arrays in canonical
    (level, lexicographic index) order; ``WhitneyCube`` views are built on
    demand.  Safe to share across threads.
    """

    def __init__(self, domain: BallDomain, max_level: int, level_idx: dict, level_dist: dict):
        self.domain = domain
        self.max_level = int(max_level)
        self._idx = level_idx          # level -> (n_l, d) int64, lexsorted
        self._dist = level_dist        # level -> (n_l,) float64
        self.levels = sorted(level_idx)
        self._start = {}
        n = 0
        for lev in self.levels:
            self._start[lev] = n
            n += self._idx[lev].shape[0]
        self._n = n
        self._lookup = {}              # level -> (mins, dims, sorted packed keys)

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

    def _locate_global(self, level: int, rows: np.ndarray) -> np.ndarray:
        return self._start[level] + rows

    def _level_of_global(self, i: int) -> tuple[int, int]:
        for lev in reversed(self.levels):
            if i >= self._start[lev]:
                return lev, i - self._start[lev]
        raise IndexError(i)

    def cube(self, i: int) -> WhitneyCube:
        """Cube view for a global cube id (canonical order)."""
        if not 0 <= i < self._n:
            raise IndexError(f"cube id {i} out of range")
        lev, row = self._level_of_global(i)
        side = 2.0 ** (-lev)
        idx = self._idx[lev][row]
        return WhitneyCube(
            level=lev,
            index=tuple(int(k) for k in idx),
            side=side,
            center=(idx + 0.5) * side,
            dist_boundary=float(self._dist[lev][row]),
        )

    def cube_arrays(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`cube` for global ids: integer indices (m, d),
        sides (m,) and dist_boundary (m,)."""
        ids = np.asarray(ids, dtype=np.int64)
        idx = np.empty((ids.size, self.dimension), dtype=np.int64)
        side = np.empty(ids.size)
        dist = np.empty(ids.size)
        for lev in self.levels:
            start = self._start[lev]
            sel = (ids >= start) & (ids < start + self._idx[lev].shape[0])
            rows = ids[sel] - start
            idx[sel] = self._idx[lev][rows]
            side[sel] = 2.0 ** (-lev)
            dist[sel] = self._dist[lev][rows]
        return idx, side, dist

    # -- packed-key lookup ---------------------------------------------------

    def _keys(self, level: int):
        cached = self._lookup.get(level)
        if cached is None:
            idx = self._idx[level]
            if idx.shape[0] == 0:
                cached = (None, None, None)
            else:
                mins = idx.min(axis=0)
                dims = idx.max(axis=0) - mins + 1
                keys = np.ravel_multi_index((idx - mins).T, dims)
                # idx is lexsorted, so keys are already ascending
                cached = (mins, dims, keys)
            self._lookup[level] = cached
        return cached

    def _find_rows(self, level: int, query_idx: np.ndarray) -> np.ndarray:
        """Rows of query_idx present at the level; -1 where absent."""
        mins, dims, keys = self._keys(level)
        out = np.full(query_idx.shape[0], -1, dtype=np.int64)
        if keys is None:
            return out
        shifted = query_idx - mins
        ok = np.all((shifted >= 0) & (shifted < dims), axis=1)
        if not ok.any():
            return out
        qk = np.ravel_multi_index(shifted[ok].T, dims)
        pos = np.searchsorted(keys, qk)
        pos = np.minimum(pos, keys.shape[0] - 1)
        hit = keys[pos] == qk
        rows = np.where(ok)[0][hit]
        out[rows] = pos[hit]
        return out

    # -- queries ---------------------------------------------------------------

    def locate(self, x) -> int | None:
        """Global id of the cube whose half-open box contains x, else None.

        None means x lies in the uncovered boundary collar.  Raises if x is
        outside the domain.
        """
        x = np.asarray(x, dtype=float)
        got = self.locate_batch(x[None, :])
        val = int(got[0])
        return None if val < 0 else val

    def locate_batch(self, x: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`locate`; returns -1 where not covered."""
        x = np.asarray(x, dtype=float)
        if not bool(np.all(self.domain.contains(x))):
            raise ValueError("point outside the domain")
        out = np.full(x.shape[0], -1, dtype=np.int64)
        pending = np.arange(x.shape[0])
        for lev in self.levels:
            if pending.size == 0:
                break
            side = 2.0 ** (-lev)
            k = np.floor(x[pending] / side).astype(np.int64)
            rows = self._find_rows(lev, k)
            hit = rows >= 0
            out[pending[hit]] = self._locate_global(lev, rows[hit])
            pending = pending[~hit]
        return out

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


def _box_dists_to_center(idx: np.ndarray, side: float, center: np.ndarray):
    """Max and min of |y - center| over each closed box idx*side + [0, side]^d."""
    lo = idx * side
    hi = lo + side
    far = np.maximum(hi - center, center - lo)
    maxd = np.sqrt((far * far).sum(axis=1))
    near = np.maximum(np.maximum(lo - center, center - hi), 0.0)
    mind = np.sqrt((near * near).sum(axis=1))
    return maxd, mind


def decompose(domain: BallDomain, max_level: int) -> WhitneyDecomposition:
    """Whitney decomposition down to dyadic level ``max_level``.

    Every emitted cube satisfies diam <= dist(Q, boundary) <= 4*diam and is
    maximal (its parent fails the lower bound).  Raises if no cube fits.
    """
    if max_level < 2:
        raise ValueError("max_level must be >= 2")
    d = domain.dimension
    sqd = math.sqrt(d)
    c = domain.center
    R = domain.radius

    offsets = np.stack(
        np.meshgrid(*([np.arange(2)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)

    lo0 = np.floor(c - R).astype(np.int64)
    hi0 = np.floor(c + R).astype(np.int64)
    cand = np.stack(
        np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo0, hi0)], indexing="ij"),
        axis=-1,
    ).reshape(-1, d)

    level_idx, level_dist = {}, {}
    for level in range(max_level + 1):
        if cand.shape[0] == 0:
            break
        side = 2.0 ** (-level)
        maxd, mind = _box_dists_to_center(cand, side, c)
        inside = maxd < R
        dist = R - maxd
        ok = inside & (side * sqd <= dist)
        if ok.any():
            emitted = cand[ok]
            order = np.lexsort(emitted.T[::-1])
            level_idx[level] = emitted[order]
            level_dist[level] = dist[ok][order]
            # classical upper bound, guaranteed by maximality
            if not np.all(level_dist[level] <= 4.0 * side * sqd):
                raise RuntimeError("Whitney upper bound dist <= 4*diam violated")
        if level == max_level:
            break
        refine = (~ok) & (mind < R)
        children = cand[refine]
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


def _candidate_levels(dec: WhitneyDecomposition, delta: float, r: float):
    lo_side, hi_side = _candidate_window(dec.dimension, delta, r)
    for lev in dec.levels:
        side = 2.0 ** (-lev)
        if lo_side <= side <= hi_side:
            yield lev, side


def intersecting_cubes(dec: WhitneyDecomposition, center, radius: float) -> np.ndarray:
    """Global ids of cubes whose closed box meets the closed ball, ascending.

    Requires the ball to sit well inside the domain: radius < delta_D(center)/2.
    """
    x = np.asarray(center, dtype=float)
    dec.domain._check_dim(x)
    delta = dec.domain.radius - float(np.sqrt(((x - dec.domain.center) ** 2).sum()))
    if not radius > 0:
        raise ValueError("ball radius must be > 0")
    if not radius < delta / 2:
        raise ValueError("ball not inside D: require radius < dist_to_boundary(center)/2")

    found = []
    for lev, side in _candidate_levels(dec, delta, radius):
        kmin = np.floor((x - radius) / side).astype(np.int64)
        kmax = np.floor((x + radius) / side).astype(np.int64)
        count = int(np.prod(kmax - kmin + 1))
        if count > _MAX_CANDIDATES_PER_LEVEL:
            raise RuntimeError("candidate enumeration unexpectedly large")
        grid = np.stack(
            np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(kmin, kmax)], indexing="ij"),
            axis=-1,
        ).reshape(-1, dec.dimension)
        rows = dec._find_rows(lev, grid)
        hit = rows >= 0
        if not hit.any():
            continue
        boxes = grid[hit]
        lo = boxes * side
        near = np.maximum(np.maximum(lo - x, x - (lo + side)), 0.0)
        meets = (near * near).sum(axis=1) <= radius * radius
        if meets.any():
            found.append(dec._locate_global(lev, rows[hit][meets]))
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(found))


@dataclass(frozen=True, eq=False)
class CubeIncidence:
    """Every (ball, cube) pair of a ball family where the closed ball meets
    the closed box of a cube of ``dec``, sorted by ball and then by cube.

    Balls with no pair lie in the uncovered boundary collar.  Built once per
    configuration by :func:`ball_cube_incidence` and shared by every
    criteria sum over it.
    """

    dec: WhitneyDecomposition
    n_balls: int
    ball: np.ndarray   # (m,) int64 ball index
    cube: np.ndarray   # (m,) int64 global cube id
    # values that users derive from the pairs once and reuse, by their own keys
    derived: dict = field(default_factory=dict, repr=False)

    def cubes_per_ball(self) -> np.ndarray:
        return np.bincount(self.ball, minlength=self.n_balls)

    def uncovered(self) -> np.ndarray:
        """Balls that meet no cube (they lie in the collar), ascending."""
        return np.flatnonzero(self.cubes_per_ball() == 0)


def ball_cube_incidence(dec: WhitneyDecomposition, centers, radii) -> CubeIncidence:
    """All (ball, cube) pairs where a closed ball meets a closed cube box.

    Equals a loop of :func:`intersecting_cubes` over the balls, with the same
    checks, but runs level by level over all balls at once: each ball whose
    candidate window includes the level has its box range expanded, looked
    up and kept where the nearest point of the box lies in the ball.
    """
    x = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    empty = np.empty(0, dtype=np.int64)
    if r.size == 0:
        return CubeIncidence(dec, 0, empty, empty)
    dec.domain._check_dim(x)
    d = dec.dimension
    delta = dec.domain.radius - np.sqrt(((x - dec.domain.center) ** 2).sum(axis=1))
    if not np.all(r > 0):
        raise ValueError("ball radius must be > 0")
    if not np.all(r < delta / 2):
        raise ValueError("ball not inside D: require radius < dist_to_boundary(center)/2")

    lo_side, hi_side = _candidate_window(d, delta, r)
    balls, cubes = [], []
    for lev in dec.levels:
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
        for start in range(0, sel.size, step):
            part = slice(start, min(start + step, sel.size))
            owner = np.repeat(np.arange(part.start, part.stop), counts[part])
            offset = np.arange(owner.size) - np.repeat(
                np.cumsum(counts[part]) - counts[part], counts[part])
            boxes = np.empty((owner.size, d), dtype=np.int64)
            for j in reversed(range(d)):   # C order, as meshgrid(indexing="ij")
                boxes[:, j] = kmin[owner, j] + offset % dims[owner, j]
                offset //= dims[owner, j]
            rows = dec._find_rows(lev, boxes)
            hit = rows >= 0
            owner, boxes, rows = sel[owner[hit]], boxes[hit], rows[hit]
            lo = boxes * side
            xb, rb = x[owner], r[owner]
            near = np.maximum(np.maximum(lo - xb, xb - (lo + side)), 0.0)
            meets = (near * near).sum(axis=1) <= rb * rb
            balls.append(owner[meets])
            cubes.append(dec._locate_global(lev, rows[meets]))
    ball = np.concatenate(balls) if balls else empty
    cube = np.concatenate(cubes) if cubes else empty
    order = np.lexsort((cube, ball))
    return CubeIncidence(dec, int(r.size), ball[order], cube[order])


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
    dom = inc.dec.domain
    idx, side, dist = inc.dec.cube_arrays(inc.cube)
    lo = idx * side[:, None]
    hi = lo + side[:, None]
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
