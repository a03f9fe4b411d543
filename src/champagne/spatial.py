"""Spatial index for point-in-ball membership over large bubble families.

For disjoint closed balls B(c_k, r_k) the question "which ball holds x?" has
a one-query answer, the power diagram (Aurenhammer, "Power diagrams:
properties, algorithms and applications", SIAM J. Comput. 16, 1987).  If x
lies in B(c_k, r_k), its power p_k(x) = |x - c_k|^2 - r_k^2 is <= 0, while
for every other ball |x - c_j| >= r_j + gap, so p_j(x) >= 2*gap*r_j > 0: the
only ball that can hold x is the one of least power.  With H the largest
radius, lift each centre to (c_k, sqrt(H^2 - r_k^2)) in d+1 dimensions; then
|(x, 0) - lifted c_k|^2 = p_k(x) + H^2, so the nearest lifted centre is the
least-power ball, and a ball that holds x is within lifted distance H.  One
KD-tree over the lifted centres finds it; the decision is then the closed
test |x - c_k| <= r_k, with the squares added in coordinate order and then
the square root taken, the order in which scipy's KD-tree computes distances.

The lift rounds the squared lifted distance by about 3 * 2^-52 * H^2, so the
nearest computed lifted centre is the least-power ball as long as that stays
below 2 * gap * r_min for the gaps between balls; the shell generator's gaps
are orders of magnitude above it.  Dilating the whole configuration by a
power of two scales the squares, their differences and the square roots
exactly, so every decision is exactly covariant under such a dilation.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .geometry import row_norms

__all__ = ["BallIndex"]


class BallIndex:
    """Point-in-ball queries against a fixed family of disjoint closed balls."""

    def __init__(self, centers: np.ndarray, radii: np.ndarray, origin=None):
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if centers.ndim != 2 or centers.shape[0] != radii.shape[0]:
            raise ValueError("centers must be (n, d) with matching radii")
        self.n = centers.shape[0]
        self.dimension = centers.shape[1] if self.n else 0
        self.origin = (
            np.zeros(self.dimension) if origin is None else np.asarray(origin, dtype=float)
        )
        if self.n == 0:
            return
        self._centers, self._radii = centers, radii
        h = float(radii.max())
        self._tree = cKDTree(np.column_stack([centers, np.sqrt(h * h - radii * radii)]))
        # a hit is within lifted distance h; the margin covers the lift's rounding
        self._bound = h * (1.0 + 2.0**-20)
        # every ball lies in the shell span_lo <= |x - origin| <= span_hi
        norms = row_norms(centers, self.origin)
        self._span_lo = float((norms - radii).min())
        self._span_hi = float((norms + radii).max())

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
        rows = np.flatnonzero((norms >= self._span_lo) & (norms <= self._span_hi))
        x = np.take(x, rows, axis=0)
        _, k = self._tree.query(
            np.column_stack([x, np.zeros(rows.size)]), k=1, distance_upper_bound=self._bound
        )
        near = k < self.n
        rows, k, x = rows[near], k[near], x[near]
        inside = row_norms(x, self._centers[k]) <= self._radii[k]
        hit[rows[inside]] = True
        owner[rows[inside]] = k[inside]
        return hit, owner

    def contains(self, x) -> int | None:
        """Index of the ball containing point x, or None."""
        got, owner = self.contains_batch(np.asarray(x, dtype=float)[None, :])
        return int(owner[0]) if got[0] else None
