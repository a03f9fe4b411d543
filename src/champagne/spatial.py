"""Spatial index over a fixed family of disjoint closed balls: which ball
holds a point.  It serves every family the lattice lookup of a generated
d=2 shell family (``bubbles._ShellLookup``) does not: d=3 shell families,
and families without the generator's record, such as subsets and
dilations.  The tests also take it as the lattice lookup's oracle.

The balls are split into radius classes, one per binary exponent of the
radius (``np.frexp``), so the radii of a class differ by less than a factor
of two.  Each class has a uniform grid whose cell side h is a power of two
with h >= 2*r_max + DISJOINTNESS_SLACK, r_max the class's largest radius.  A
point x lies in the cell floor(x/h) (one integer per axis); the class keeps
its balls sorted by the int64 key of their centre's cell, and a lookup
searches the 3^d cells around the query's cell.

The lookup is exact.  h is a power of two, so x/h is exact and so is its
floor: a cell is computed without rounding.  A ball of the class that holds
x has |x_j - c_j| <= r_max < h on every axis, so the cell of its centre is
at most one away from the cell of x on each axis, and the lookup finds it.
A class whose cell range would overflow int64 keys doubles h until it fits;
a ball within one cell of the old side is within one cell of the new, so
that only adds candidates.  The grid only proposes candidates.  The
decision is the closed test |x - c_k| <= r_k, with the squares added in
coordinate order and then the square root taken (``geometry.row_norms``), so
no answer depends on the grid.  Dilating the whole configuration by a power
of two scales every coordinate, radius and square root exactly, so every
decision is exactly covariant under such a dilation.

A class looks up only the queries in its radial band, lo <= |x - origin|
<= hi, widened outward by 2^-40 of the coordinates' scale, far more than
the rounding of the norms, so no point that passes the closed test for a
ball is turned away.  Exactness needs only h > r_max; h keeps 2*r_max +
DISJOINTNESS_SLACK for memory.  On the W2 disk's simulator queries (2
vCPUs), dropping the bands took 34 times as long, and half the cell side
was 7% faster but took 16.0 bytes a ball instead of 13.7.

Memory.  Per radius class the index keeps its balls' ids in key order as
int32 (so it refuses 2^31 balls or more), the int64 keys of its occupied
cells and the int32 start of each cell's run of ids: 4 bytes a ball and 12
bytes an occupied cell, 13.7 bytes a ball on the W2 disk, whose occupied
cells hold 1.24 balls on average.  It reads the centres and radii it was
given without copying them.  Every pass over balls or queries takes a fixed
block of rows at a time, which bounds its temporaries: the index build
_INDEX_BLOCK balls (radius exponents, bands, boxes, cell keys) and
``contains_batch`` _QUERY_BLOCK query points.  Beyond the blocks, building
a class's grid holds its cell keys and their sort order (16 bytes a ball of
the class).  No block size changes a result.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import row_norms

__all__ = ["BallIndex"]

# two balls count as overlapping when their gap is at most this: the shell
# generator's disjointness certificate asks every gap to exceed it, and each
# cell side of the index is at least twice a radius plus it
DISJOINTNESS_SLACK = 1e-12
# outward widening of each class's radial band, relative to the largest
# |c - origin| + r and to the origin's coordinates
_BAND_PAD = 2.0**-40
# balls whose bands, boxes and cell keys are computed at a time while indexing
_INDEX_BLOCK = 1 << 13
# query points looked up at a time by contains_batch
_QUERY_BLOCK = 1 << 12


def _power_of_two_at_least(v: float) -> float:
    m, e = math.frexp(v)
    return math.ldexp(1.0, e - 1 if m == 0.5 else e)


def _blocks(a: np.ndarray, size: int):
    """Consecutive slices of a, each of at most size elements."""
    return (a[start:start + size] for start in range(0, a.size, size))


class _Grid:
    """One radius class: its balls' int32 ids, in the order of the int64 key
    of their cell."""

    def __init__(self, ids, centers, band, h):
        lo = np.full(centers.shape[1], np.inf)
        hi = np.full(centers.shape[1], -np.inf)
        for rows in _blocks(ids, _INDEX_BLOCK):
            c = np.take(centers, rows, axis=0)
            np.minimum(lo, c.min(axis=0), out=lo)
            np.maximum(hi, c.max(axis=0), out=hi)
        while True:
            first, last = np.floor(lo / h), np.floor(hi / h)
            # cells per axis, with an empty one on either side; keys run up to
            # their product, and cell indices stay exact in float
            extent = [int(e) for e in last - first + 3.0]
            if math.prod(extent) < 2**63 and max(extent) <= 2**53:
                break
            h *= 2.0
        self.h, self.band = h, band
        # centres sit in cells 1..top on each axis, so every neighbour cell
        # has a key of its own in 0..top+1
        self.base = first - 1.0
        self.top = last - first + 1.0
        self.stride = np.array([math.prod(extent[j + 1:]) for j in range(len(extent))],
                               dtype=np.int64)
        offsets = np.array(list(itertools.product((-1, 0, 1), repeat=centers.shape[1])))
        self.deltas = offsets @ self.stride
        keys = self.keys_of(centers, ids)
        order = np.argsort(keys, kind="stable")
        self.ids = ids[order]
        del order
        keys.sort()
        # the occupied cells, ascending, then a key above every cell's; the
        # balls of cells[i] are ids[starts[i]:starts[i + 1]]
        new = np.empty(keys.size, dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        n_cells = int(np.count_nonzero(new))
        self.cells = np.empty(n_cells + 1, dtype=np.int64)
        np.compress(new, keys, out=self.cells[:-1])
        self.cells[-1] = np.iinfo(np.int64).max
        del keys
        self.starts = np.empty(n_cells + 1, dtype=np.int32)
        self.starts[:-1] = np.flatnonzero(new)
        self.starts[-1] = ids.size

    def cell_keys(self, x: np.ndarray) -> np.ndarray:
        """Key of each point's cell; points outside the grid are moved to
        its edge, whose neighbours include every cell that theirs has."""
        keys = np.zeros(x.shape[0], dtype=np.int64)
        for j, stride in enumerate(self.stride):  # a column at a time, to save memory
            cell = np.floor(x[:, j] / self.h)
            cell -= self.base[j]
            np.clip(cell, 1.0, self.top[j], out=cell)
            keys += cell.astype(np.int64) * stride
        return keys

    def keys_of(self, centers: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``cell_keys(centers[ids])``, gathering _INDEX_BLOCK rows at a time."""
        keys = np.empty(ids.size, dtype=np.int64)
        for start in range(0, ids.size, _INDEX_BLOCK):
            rows = ids[start:start + _INDEX_BLOCK]
            keys[start:start + rows.size] = self.cell_keys(np.take(centers, rows, axis=0))
        return keys

    def candidates(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, p) for every ball whose cell key equals keys[i], p its position
        in ``ids``."""
        # cells ends with a key above every cell's, so every search lands in it
        at = np.searchsorted(self.cells, keys)
        rows = np.flatnonzero(self.cells[at] == keys)
        at = at[rows]
        start = self.starts[at]
        count = self.starts[at + 1] - start
        rows = np.repeat(rows, count)
        first = np.repeat(start - np.cumsum(count) + count, count)
        return rows, first + np.arange(rows.size)


class BallIndex:
    """Point-in-ball queries over a fixed family of disjoint closed balls."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray, origin=None):
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if centers.ndim != 2 or centers.shape[0] != radii.shape[0]:
            raise ValueError("centers must be (n, d) with matching radii")
        self.n = centers.shape[0]
        if self.n >= 2**31:
            raise ValueError(f"{self.n} balls: the index numbers them with int32 ids")
        self.dimension = centers.shape[1] if self.n else 0
        self.origin = (
            np.zeros(self.dimension) if origin is None else np.asarray(origin, dtype=float)
        )
        self._grids = []
        if self.n == 0:
            return
        self._centers, self._radii = centers, radii
        exponents = np.empty(self.n, dtype=np.intc)
        for start in range(0, self.n, _INDEX_BLOCK):
            exponents[start:start + _INDEX_BLOCK] = np.frexp(radii[start:start + _INDEX_BLOCK])[1]
        order = np.argsort(exponents, kind="stable")
        # in ascending order of radius
        cuts = np.flatnonzero(np.diff(exponents[order])) + 1
        del exponents
        classes = np.split(order.astype(np.int32), cuts)
        del order
        bounds = [self._class_bounds(ids) for ids in classes]
        pad = _BAND_PAD * (max(b[1] for b in bounds) + float(np.abs(self.origin).max()))
        for i, (lo, hi, r_max) in enumerate(bounds):
            h = _power_of_two_at_least(2.0 * r_max + DISJOINTNESS_SLACK)
            self._grids.append(_Grid(classes[i], centers, (lo - pad, hi + pad), h))
            classes[i] = None   # the grid keeps the ids in key order

    def _class_bounds(self, ids: np.ndarray) -> tuple[float, float, float]:
        """(min |c - origin| - r, max |c - origin| + r, max r) over the balls
        ids, taken _INDEX_BLOCK balls at a time."""
        lo, hi, r_max = math.inf, -math.inf, 0.0
        for rows in _blocks(ids, _INDEX_BLOCK):
            norms = row_norms(np.take(self._centers, rows, axis=0), self.origin)
            r = np.take(self._radii, rows)
            lo = min(lo, float((norms - r).min()))
            hi = max(hi, float((norms + r).max()))
            r_max = max(r_max, float(r.max()))
        return lo, hi, r_max

    def contains_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each query point: (hit mask, index of a containing ball or -1).

        Membership is closed (<= radius).  Balls are disjoint, so the
        containing ball is unique.
        """
        x = np.asarray(x, dtype=float)
        hit = np.zeros(x.shape[0], dtype=bool)
        owner = np.full(x.shape[0], -1, dtype=np.int64)
        if self.n == 0:
            return hit, owner
        norms = row_norms(x, self.origin)
        for g in self._grids:
            for sel in _blocks(np.flatnonzero((norms >= g.band[0]) & (norms <= g.band[1])),
                               _QUERY_BLOCK):
                pts = np.take(x, sel, axis=0)
                q, p = g.candidates((g.cell_keys(pts)[:, None] + g.deltas).ravel())
                q //= g.deltas.size
                k = g.ids[p]
                inside = row_norms(pts[q], self._centers[k]) <= self._radii[k]
                hit[sel[q[inside]]] = True
                owner[sel[q[inside]]] = k[inside]
        return hit, owner
