"""The whole cube-bubble incidence in memory and the criteria sums over it:
the implementation that the level-by-level stream replaced, kept as the
oracle the stream must reproduce bit for bit.

``ball_cube_incidence`` builds every (ball, cube) pair at once, sorted by
ball and then by cube, with the cubes numbered by rank in (level,
lexicographic index) order.  The sums run once per boundary point over all
pairs, and each adds its cubes in cube order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from champagne.geometry import dist_to_boundary
from champagne.kernels import (
    _pow_each,
    ball_capacity,
    capped_green,
    check_bounds,
    small_radius_threshold,
)
from champagne.whitney import (
    _MAX_CANDIDATES_PER_LEVEL,
    _candidate_window,
    _meets,
    _top_level,
    coverage_threshold,
    whitney,
)

_CANDIDATE_CHUNK = 1 << 17


@dataclass(frozen=True, eq=False)
class MemoryIncidence:
    domain: object
    max_level: int
    n_balls: int
    ball: np.ndarray            # (m,) int64 ball index
    cube: np.ndarray            # (m,) int64 cube number
    level: np.ndarray           # (n,) int64 per cube
    index: np.ndarray           # (n, d) int64 per cube
    dist_boundary: np.ndarray   # (n,) float64 per cube

    @property
    def coverage_threshold(self) -> float:
        return coverage_threshold(self.domain.dimension, self.max_level)

    def boxes(self):
        side = np.ldexp(1.0, -self.level)[:, None]
        lo = self.index * side
        return lo, lo + side

    def cubes_per_ball(self) -> np.ndarray:
        return np.bincount(self.ball, minlength=self.n_balls)

    def uncovered(self) -> np.ndarray:
        return np.flatnonzero(self.cubes_per_ball() == 0)


def _distinct_rows(idx):
    order = np.lexsort(idx.T[::-1])
    rows = idx[order]
    new = np.ones(rows.shape[0], dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rank = np.empty(rows.shape[0], dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rows[new], order[new], rank


def ball_cube_incidence(domain, max_level, centers, radii) -> MemoryIncidence:
    x = np.asarray(centers, dtype=float)
    r = np.asarray(radii, dtype=float)
    d = domain.dimension
    if r.size:
        delta = dist_to_boundary(domain, x)
        if not (np.all(r > 0) and np.all(r < delta / 2)):
            raise ValueError("ball not inside D: require 0 < radius < dist_to_boundary(center)/2")
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
        assert counts.max() <= _MAX_CANDIDATES_PER_LEVEL
        step = max(1, _CANDIDATE_CHUNK // int(counts.max()))
        lev_balls, lev_boxes, lev_dists = [], [], []
        for start in range(0, sel.size, step):
            part = slice(start, min(start + step, sel.size))
            owner = np.repeat(np.arange(part.start, part.stop), counts[part])
            offset = np.arange(owner.size) - np.repeat(
                np.cumsum(counts[part]) - counts[part], counts[part])
            boxes = np.empty((owner.size, d), dtype=np.int64)
            for j in reversed(range(d)):
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
    return MemoryIncidence(
        domain, int(max_level), int(r.size), ball[order], cube[order],
        np.concatenate([empty, *levels]),
        np.concatenate([np.empty((0, d), dtype=np.int64), *index]),
        np.concatenate([np.empty(0), *dists]),
    )


def max_cubes_per_ball(inc) -> int:
    return int(inc.cubes_per_ball().max(initial=0))


def bubble_cube_ratio_bound(inc, config, boundary_points) -> float:
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
    for zj in z:
        dist_z_center = np.sqrt(((zj - centers) ** 2).sum(axis=1))
        nearest = np.clip(zj, lo, hi)
        dist_z_cube = np.sqrt(((zj - nearest) ** 2).sum(axis=1))
        r2 = dist_z_cube / dist_z_center
        worst = max(worst, float(r2.max()), float((1.0 / r2).max()))
    return worst


def _cap_bounds(pos, lower, upper):
    """Cap(A ∩ Q) bounds per cube, cubes ascending."""
    uniq, inverse = np.unique(pos, return_inverse=True)
    up = np.bincount(inverse, weights=upper, minlength=uniq.size)
    lo = np.zeros(uniq.size)
    np.maximum.at(lo, inverse, lower)
    return uniq, np.minimum(lo, up), up


def _total(terms) -> float:
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


class CubeFactors(NamedTuple):
    lo: np.ndarray
    hi: np.ndarray
    dist_weight: np.ndarray
    green: np.ndarray
    pair_lower: np.ndarray
    pair_upper: np.ndarray
    cap_lower: np.ndarray
    cap_upper: np.ndarray
    uncovered: np.ndarray
    n_above_small_radius: int


def cube_factors(inc, config, alpha) -> CubeFactors:
    d = config.dimension
    lo, hi = inc.boxes()
    green = capped_green(alpha, dist_to_boundary(inc.domain, 0.5 * (lo + hi)))
    radii = config.radii[inc.ball]
    pair_upper = ball_capacity(alpha, radii, d)
    c = config.centers[inc.ball]
    face = np.minimum((c - lo[inc.cube]).min(axis=1), (hi[inc.cube] - c).min(axis=1))
    rho = np.minimum(radii, face)
    pair_lower = np.zeros(rho.size)
    inside = rho > 0.0
    pair_lower[inside] = ball_capacity(alpha, rho[inside], d)
    # every cube meets a bubble, so the cubes come out as 0, 1, ..., n - 1
    _, cap_lower, cap_upper = _cap_bounds(inc.cube, pair_lower, pair_upper)
    n_big = int((config.radii > small_radius_threshold(alpha, d)).sum())
    return CubeFactors(
        lo, hi, _pow_each(inc.dist_boundary, 2.0 * (alpha - 1.0)), green,
        pair_lower, pair_upper, cap_lower, cap_upper,
        inc.uncovered(), n_big,
    )


def _green_weighted_total(f, pos, cap_lower, cap_upper):
    g2 = f.green[pos] * f.green[pos]
    return _total(g2 * cap_lower), _total(g2 * cap_upper)


class AikawaTrace(NamedTuple):
    cube_ids: np.ndarray
    term_lower: np.ndarray
    term_upper: np.ndarray
    total: tuple
    uncovered_bubbles: np.ndarray
    n_above_small_radius: int


def aikawa_sum(inc, config, z, alpha) -> AikawaTrace:
    z = np.asarray(z, dtype=float)
    a, d = alpha, config.dimension
    f = cube_factors(inc, config, alpha)
    nearest = np.clip(z, f.lo, f.hi)
    dzq = np.sqrt(((z - nearest) ** 2).sum(axis=1))
    w = f.dist_weight / _pow_each(dzq, d + a - 2.0)
    lower, upper = f.cap_lower * w, f.cap_upper * w
    check_bounds(lower, upper)
    total = _total(lower), _total(upper)
    return AikawaTrace(np.arange(lower.size), lower, upper, total, f.uncovered,
                       f.n_above_small_radius)


class WienerTrace(NamedTuple):
    shells: np.ndarray
    term_lower: np.ndarray
    term_upper: np.ndarray
    total: tuple
    truncated_shells: np.ndarray


def wiener_dyadic_sum(inc, config, z, alpha, n_max=30) -> WienerTrace:
    z = np.asarray(z, dtype=float)
    a, d = alpha, config.dimension
    shells = np.empty(0, dtype=np.int64)
    terms = np.zeros((0, 2))
    if config.n:
        dist = np.sqrt(((config.centers - z) ** 2).sum(axis=1))
        shell_n = np.ceil(-np.log2(dist)).astype(int) - 1
        shells = np.unique(shell_n[(shell_n >= 1) & (shell_n <= n_max)]).astype(np.int64)
        f = cube_factors(inc, config, alpha)
        pair_shell = shell_n[inc.ball]
        terms = np.zeros((shells.size, 2))
        for j, n in enumerate(shells.tolist()):
            keep = pair_shell == n
            pos, cap_lower, cap_upper = _cap_bounds(
                inc.cube[keep], f.pair_lower[keep], f.pair_upper[keep]
            )
            terms[j] = _green_weighted_total(f, pos, cap_lower, cap_upper)
            terms[j] *= 2.0 ** (n * (d + a - 2.0))
    lower, upper = terms.T
    check_bounds(lower, upper)
    total = _total(lower), _total(upper)
    truncated = shells[2.0 ** (-shells.astype(float)) <= 2.0 * inc.coverage_threshold]
    return WienerTrace(shells, lower, upper, total, truncated)


def quasi_additivity_interval(inc, config, alpha):
    f = cube_factors(inc, config, alpha)
    num = _green_weighted_total(f, slice(None), f.cap_lower, f.cap_upper)
    g = capped_green(alpha, dist_to_boundary(inc.domain, config.centers))
    den = _total(g * g * ball_capacity(alpha, config.radii, config.dimension))
    return num[0] / den, num[1] / den
